//! CLI regression tests: exit codes and error surfaces of the `ayb` binary,
//! and the sections `ayb report` renders from a stored run.
//!
//! The service plane maps failures onto distinct HTTP statuses; the shell
//! contract is the same idea — `ayb status <unknown run>` must *fail* (exit
//! non-zero with a diagnostic), not print an empty table, because scripts
//! branch on the exit code.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_store(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-cli-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&root).expect("create temp store");
    root
}

fn ayb(store: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ayb"))
        .arg(args[0])
        .args(["--store", store.to_str().expect("utf-8 store path")])
        .args(&args[1..])
        .output()
        .expect("ayb binary runs")
}

#[test]
fn status_of_an_unknown_run_exits_non_zero_with_a_diagnostic() {
    let root = temp_store("status-unknown");
    let output = ayb(&root, &["status", "run-9999"]);
    assert!(
        !output.status.success(),
        "`ayb status run-9999` must exit non-zero for an unknown run"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("run-9999"),
        "diagnostic must name the missing run, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn status_with_no_runs_succeeds_and_says_so() {
    let root = temp_store("status-empty");
    let output = ayb(&root, &["status"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("no runs"), "got: {stdout}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn status_of_a_service_submitted_run_shows_the_svc_annotations() {
    let root = temp_store("status-extras");
    let store = ayb_store::Store::open(&root).expect("open store");
    let config = ayb_core::FlowConfig::reduced();
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let extras = vec![
        ("tenant".to_string(), serde::Value::Str("acme".to_string())),
        (
            "submission_digest".to_string(),
            serde::Value::Str("00deadbeef00f00d".to_string()),
        ),
    ];
    let run_id = store
        .enqueue_run_with_extras(7, &optimizer, &config, &extras)
        .expect("enqueue run")
        .id()
        .to_string();

    let output = ayb(&root, &["status", &run_id]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("tenant: acme"), "got: {stdout}");
    assert!(
        stdout.contains("submission_digest: 00deadbeef00f00d"),
        "got: {stdout}"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// A reader that closes its end early (`ayb status … | grep -q` under
/// `pipefail`) has read all it wanted: the CLI exits 0, without a panic.
#[test]
fn a_stdout_closed_by_its_reader_ends_the_cli_with_status_zero() {
    let root = temp_store("closed-stdout");
    let store = ayb_store::Store::open(&root).expect("open store");
    let config = ayb_core::FlowConfig::reduced();
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let handle = store
        .enqueue_run(7, &optimizer, &config)
        .expect("enqueue run");
    for args in [&["list"][..], &["status", handle.id()]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_ayb"))
            .arg(args[0])
            .args(["--store", root.to_str().expect("utf-8 store path")])
            .args(&args[1..])
            .stdout(writer)
            .output()
            .expect("ayb binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "`ayb {args:?}`: {output:?}");
        assert!(!stderr.contains("panicked"), "`ayb {args:?}`: {stderr}");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn serve_http_rejects_malformed_quota_and_weight_specs() {
    let root = temp_store("serve-http-flags");
    for bad in [
        ["serve-http", "--default-quota", "nope"],
        ["serve-http", "--tenant-quota", "acme"],
        ["serve-http", "--tenant-weight", "=3"],
    ] {
        let output = ayb(&root, &bad);
        assert!(
            !output.status.success(),
            "`ayb {}` must exit non-zero",
            bad.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

/// The report's sections in paper order: each one's header, and the tag of
/// the one line it renders as when the model cannot meet its specification
/// (sections that always render have no such line).
const REPORT_SECTIONS: [(&str, Option<&str>); 11] = [
    ("Table 1.", None),
    ("Table 2.", None),
    ("Table 3.", Some("table3")),
    ("Table 4.", Some("table4")),
    ("Table 5.", None),
    ("# Figure 7", None),
    ("# Figure 8", Some("fig8")),
    ("Figure 10", None),
    ("Figure 9", Some("fig9")),
    ("# Figure 11", Some("fig11")),
    ("Speed / efficiency comparison", Some("speedup")),
];

/// Index of the first line of `report` that starts with `prefix`.
fn line_starting_with(report: &str, prefix: &str) -> Option<usize> {
    report.lines().position(|line| line.starts_with(prefix))
}

/// `report`'s lines minus those carrying wall-clock seconds measured while
/// reporting (the speed-up section's timings and ratios).
fn without_wall_clock(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| !(l.contains(" s ") || l.ends_with(" s") || l.contains("speed-up:")))
        .collect()
}

/// Runs `ayb run --scale demo` once per test binary and reports it twice.
fn demo_reports() -> &'static (String, String) {
    static REPORTS: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();
    REPORTS.get_or_init(|| {
        let root = temp_store("report-demo");
        let run = ayb(
            &root,
            &["run", "--id", "demo", "--scale", "demo", "--quiet"],
        );
        assert!(run.status.success(), "{run:?}");
        let report = || {
            let output = ayb(&root, &["report", "demo"]);
            assert!(output.status.success(), "{output:?}");
            String::from_utf8(output.stdout).expect("utf-8 report")
        };
        let reports = (report(), report());
        let _ = std::fs::remove_dir_all(root);
        reports
    })
}

#[test]
fn report_of_a_demo_run_renders_every_section_in_paper_order_and_repeats() {
    let (first, second) = demo_reports();
    let lines: Vec<usize> = REPORT_SECTIONS
        .iter()
        .map(|(header, _)| {
            line_starting_with(first, header)
                .unwrap_or_else(|| panic!("no `{header}` section in:\n{first}"))
        })
        .collect();
    assert!(
        lines.windows(2).all(|pair| pair[0] < pair[1]),
        "sections out of paper order: {lines:?}"
    );
    assert!(!first.contains("not rendered"), "{first}");
    assert_eq!(without_wall_clock(first), without_wall_clock(second));
}

#[test]
fn report_of_a_reduced_run_names_each_section_it_cannot_render() {
    let root = temp_store("report-reduced");
    for seed in ["2", "3"] {
        let id = format!("seed{seed}");
        let run = ayb(&root, &["run", "--id", &id, "--seed", seed, "--quiet"]);
        assert!(run.status.success(), "{run:?}");
        let output = ayb(&root, &["report", &id]);
        assert!(output.status.success(), "seed {seed}: {output:?}");
        let report = String::from_utf8_lossy(&output.stdout);
        let mut previous = None;
        for (header, tag) in REPORT_SECTIONS {
            let line = line_starting_with(&report, header)
                .or_else(|| {
                    tag.and_then(|tag| {
                        line_starting_with(&report, &format!("[{tag}] not rendered: "))
                    })
                })
                .unwrap_or_else(|| panic!("seed {seed}: no `{header}` section in:\n{report}"));
            assert!(
                previous < Some(line),
                "seed {seed}: `{header}` out of order"
            );
            previous = Some(line);
        }
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn report_without_a_result_exits_non_zero_and_names_the_run() {
    let root = temp_store("report-missing");
    let submit = ayb(&root, &["submit", "--id", "queued-run", "--quiet"]);
    assert!(submit.status.success(), "{submit:?}");
    for id in ["run-9999", "queued-run"] {
        let output = ayb(&root, &["report", id]);
        assert!(!output.status.success(), "`ayb report {id}` must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(id),
            "diagnostic must name {id}, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

/// Every file under `dir`, relative to it, sorted.
fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path.strip_prefix(dir).expect("under dir").to_path_buf());
            }
        }
    }
    files.sort();
    files
}

/// A run whose manifest records the retired sparse kernel is never resumed
/// on the dense one: `resume`, `show` and `report` exit non-zero naming
/// `Sparse`, nothing is written into the run, and `list` shows the row as
/// unreadable.
#[test]
fn a_run_recorded_on_the_sparse_kernel_fails_closed() {
    let root = temp_store("sparse-manifest");
    let submit = ayb(&root, &["submit", "--id", "old-run", "--quiet"]);
    assert!(submit.status.success(), "{submit:?}");
    let run_dir = root.join("runs").join("old-run");
    let manifest = run_dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(text.contains(r#""solver": "Dense""#), "{text}");
    std::fs::write(
        &manifest,
        text.replace(r#""solver": "Dense""#, r#""solver": "Sparse""#),
    )
    .expect("rewrite manifest");
    let before = files_under(&run_dir);

    for args in [
        &["resume", "old-run", "--quiet"][..],
        &["show", "old-run"],
        &["show", "old-run", "--digest"],
        &["report", "old-run"],
    ] {
        let output = ayb(&root, args);
        assert!(!output.status.success(), "`ayb {args:?}` must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("Sparse"),
            "`ayb {args:?}` must name the kernel, got: {stderr}"
        );
    }
    assert_eq!(files_under(&run_dir), before, "no checkpoint or result");

    let list = ayb(&root, &["list"]);
    assert!(list.status.success(), "{list:?}");
    let stdout = String::from_utf8_lossy(&list.stdout);
    let row = stdout
        .lines()
        .find(|line| line.starts_with("old-run"))
        .expect("the run is listed");
    assert!(
        row.contains("<unreadable:") && row.contains("Sparse"),
        "got: {row}"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// The demo run's Table 2 as the former `table2_variation --demo` report
/// binary printed it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const DEMO_TABLE2: &str = "\
Table 2. Performance and variation values
Design   Gain(dB)   dGain(%)    PM(deg)     dPM(%)
     1      53.84       4.04       89.5       0.33
     2      55.42       2.57       89.5       0.23
     3      55.66       3.43       89.4       0.26
     4      55.66       3.01       89.4       0.26
     5      56.00       2.48       89.4       0.29
     6      56.03       2.53       89.4       0.24
     7      56.04       2.04       89.3       0.31
     8      56.29       1.80       89.2       0.24
     9      56.31       2.21       88.9       0.36
    10      56.35       2.24       88.8       0.35
    11      56.45       2.04       88.8       0.28
    12      56.89       2.01       88.5       0.49
    13      57.01       1.95       88.1       0.45
    14      57.25       2.32       88.0       0.46
    15      57.33       1.51       83.7       0.80

covariance(gain, dGain%) = -0.4524 (paper Table 2 trends negative)
";

/// The demo run's Table 4 as the former `table4_comparison --demo` report
/// binary printed it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const DEMO_TABLE4: &str = "\
Table 4. Performance comparison
Performance          Transistor Model  Verilog-A Model    % error
Gain                            55.66            55.62      0.06%
Phase Margin                    89.40            89.41      0.02%

Transistor-level unity-gain frequency: 0.22 MHz (model predicted 0.22 MHz)
";

/// The demo report's Table 2 and Table 4 blocks, pinned as text. Their
/// numbers pass through the platform libm, so the pin is Linux x86_64 only
/// (as in `tests/golden_digests.rs`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn report_of_a_demo_run_prints_the_pinned_table2_and_table4() {
    let (report, _) = demo_reports();
    // A block runs from its header to the blank line before the next one.
    let block = |header: &str, next: &str| {
        let start = report.find(header).expect("header present");
        let end = start + report[start..].find(next).expect("next header present");
        report[start..end].to_string()
    };
    assert_eq!(block("Table 2.", "Table 3."), format!("{DEMO_TABLE2}\n"));
    assert_eq!(block("Table 4.", "Table 5."), format!("{DEMO_TABLE4}\n"));
}

/// The digest `ayb show --digest` prints for `id`.
fn shown_digest(root: &std::path::Path, id: &str) -> String {
    let output = ayb(root, &["show", id, "--digest"]);
    assert!(output.status.success(), "{output:?}");
    String::from_utf8_lossy(&output.stdout).trim().to_string()
}

/// A run whose coordinator is unreachable completes with the serial digest,
/// and both its progress output and `ayb status` name the shards every
/// stage produced locally instead — the optimise stage's populations as
/// well as the variation points: the flow never degrades silently.
#[test]
fn a_run_with_an_unreachable_coordinator_reports_its_degraded_shard() {
    let root = temp_store("degraded");
    // A port that was free a moment ago: nothing listens on it.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("free port")
        .port();
    let url = format!("tcp://127.0.0.1:{port}");
    let serial = ayb(
        &root,
        &["run", "--id", "serial", "--seed", "2008", "--quiet"],
    );
    assert!(serial.status.success(), "{serial:?}");
    let output = Command::new(env!("CARGO_BIN_EXE_ayb"))
        .args(["run", "--store", root.to_str().expect("utf-8 store path")])
        .args(["--id", "tcp", "--seed", "2008", "--transport", &url])
        .env("AYB_LOG", "info")
        .output()
        .expect("ayb binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    for stage in ["optimize", "analyze_variation"] {
        assert!(
            stderr
                .lines()
                .any(|line| line.contains(&format!("{stage}: shard")) && line.contains("degraded")),
            "stderr must name a degraded {stage} shard, got: {stderr}"
        );
    }
    let status = ayb(&root, &["status", "tcp"]);
    assert!(status.status.success(), "{status:?}");
    let status = String::from_utf8_lossy(&status.stdout);
    assert!(
        status.contains("transport_degraded: optimize shard"),
        "`ayb status` must list the optimise stage's local fallbacks, got: {status}"
    );
    assert_eq!(shown_digest(&root, "tcp"), shown_digest(&root, "serial"));
    let _ = std::fs::remove_dir_all(root);
}

/// An unknown `--optimizer` or `--scale` fails before any run is created,
/// with the message the service answers too.
#[test]
fn run_rejects_an_unknown_optimizer_or_scale_with_the_shared_message() {
    let root = temp_store("unknown-names");
    for (flag, value, message) in [
        (
            "--optimizer",
            "sgd",
            ayb_moo::OptimizerConfig::from_name("sgd", ayb_core::FlowConfig::reduced().ga)
                .unwrap_err(),
        ),
        (
            "--scale",
            "galactic",
            ayb_core::FlowConfig::from_scale("galactic").unwrap_err(),
        ),
    ] {
        let output = ayb(&root, &["run", "--id", "bad", flag, value, "--quiet"]);
        assert!(
            !output.status.success(),
            "`ayb run {flag} {value}` must fail"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&message),
            "expected {message:?}, got: {stderr}"
        );
        assert!(!root.join("runs").join("bad").exists());
    }
    let _ = std::fs::remove_dir_all(root);
}

/// `ayb report`'s Table 2 block.
fn report_table2(root: &std::path::Path, id: &str) -> String {
    let output = ayb(root, &["report", id]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let table = stdout
        .lines()
        .skip_while(|line| !line.starts_with("Table 2."))
        .take_while(|line| !line.is_empty())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!table.is_empty(), "report renders Table 2: {stdout}");
    table
}

/// Sets `key` of the object `value` to `to`, adding the key when absent.
fn set_key(value: &mut serde::Value, key: &str, to: serde::Value) {
    let serde::Value::Object(pairs) = value else {
        panic!("`{key}` belongs to an object");
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = to,
        None => pairs.push((key.to_string(), to)),
    }
}

/// A store written before checkpoints were split into a snapshot and an
/// archive log, before `result.json` stored its archive once, and before
/// the evaluation cache was retired: every `gen_NNNN.json` holds the full
/// archive, the manifest's flow carries `eval_cache`, and `result.json`
/// carries `optimization.archive` and the cache's two timing counters.
/// Such a run still resumes (twice, halted at a generation boundary in
/// between, without duplicating an evaluation in the log), and its result
/// still answers `show --digest`, `report` and `GET /v1/runs/{id}/result`
/// with the digest of the uninterrupted run, whose manifest has no
/// `eval_cache`.
#[test]
fn a_store_in_the_older_layout_still_resumes_and_reads() {
    use ayb_core::FlowResult;
    use serde::{Deserialize, Serialize, Value};

    let root = temp_store("older-layout");
    for args in [
        &["run", "--id", "clean", "--seed", "2008", "--quiet"][..],
        &[
            "run",
            "--id",
            "old",
            "--seed",
            "2008",
            "--halt-after",
            "3",
            "--quiet",
        ],
    ] {
        let output = ayb(&root, args);
        assert!(output.status.success(), "`ayb {args:?}`: {output:?}");
    }
    let store = ayb_store::Store::open(&root).unwrap();
    let old = store.run("old").unwrap();
    let checkpoints = old.dir().join("checkpoints");
    for generation in old.checkpoint_generations().unwrap() {
        let checkpoint = old.load_checkpoint(generation).unwrap();
        std::fs::write(
            checkpoints.join(format!("gen_{generation:04}.json")),
            serde_json::to_string_pretty(&checkpoint).unwrap(),
        )
        .unwrap();
    }
    std::fs::remove_file(checkpoints.join("archive.jsonl")).unwrap();
    let manifest_path = old.dir().join("manifest.json");
    let mut manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let Value::Object(fields) = &mut manifest else {
        panic!("a manifest is an object");
    };
    for (key, value) in fields {
        if key == "flow" {
            set_key(value, "eval_cache", Value::Float(1e-9));
        }
    }
    std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    let halted = ayb(&root, &["resume", "old", "--halt-after", "2", "--quiet"]);
    assert!(
        String::from_utf8_lossy(&halted.stdout).contains("status: interrupted"),
        "{halted:?}"
    );
    let resumed = ayb(&root, &["resume", "old", "--quiet"]);
    assert!(resumed.status.success(), "{resumed:?}");
    let log = std::fs::read_to_string(checkpoints.join("archive.jsonl")).unwrap();
    let mut replayed = 0;
    for line in log.lines() {
        let record: Value = serde_json::from_str(line).unwrap();
        assert_eq!(record.get("start"), Some(&replayed.to_value()));
        replayed += record
            .get("archive")
            .and_then(Value::as_array)
            .unwrap()
            .len();
    }
    let latest = old.latest_checkpoint().unwrap().expect("checkpoints");
    assert_eq!(replayed, latest.archive.len(), "no duplicate record");

    // The result, rewritten with both archive copies, the cache counters
    // and indented.
    let result: FlowResult = old.load_result().unwrap();
    let Value::Object(mut fields) = result.to_value() else {
        panic!("a result serializes to an object");
    };
    for (key, value) in &mut fields {
        match key.as_str() {
            "optimization" => set_key(value, "archive", result.archive.to_value()),
            "timings" => {
                set_key(value, "eval_cache_hits", Value::Int(12));
                set_key(value, "eval_cache_lookups", Value::Int(30));
            }
            _ => {}
        }
    }
    std::fs::write(
        old.dir().join("result.json"),
        serde_json::to_string_pretty(&Value::Object(fields)).unwrap(),
    )
    .unwrap();

    let digest = shown_digest(&root, "clean");
    assert_eq!(shown_digest(&root, "old"), digest);
    assert_eq!(report_table2(&root, "old"), report_table2(&root, "clean"));
    let status = ayb(&root, &["status", "old"]);
    let status = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(status.contains("checkpoint_bytes: "), "{status}");
    assert!(status.contains("result_bytes: "), "{status}");

    let mut server = ayb_svc::SvcServer::start(
        store.clone(),
        ayb_svc::SvcConfig {
            workers: 0,
            ..ayb_svc::SvcConfig::default()
        },
    )
    .expect("service starts");
    let client = ayb_svc::SvcClient::new(&server.url()).unwrap();
    let (code, body) = client.run_result("old").unwrap();
    server.shutdown();
    assert_eq!(code, 200);
    let served = FlowResult::from_value(&body).expect("served result parses");
    assert_eq!(format!("{:016x}", served.determinism_digest()), digest);
    let _ = std::fs::remove_dir_all(root);
}
