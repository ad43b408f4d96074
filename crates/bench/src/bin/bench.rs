//! `bench` — the repo's committed performance trajectory.
//!
//! Times the kernels everything else is built on (MOSFET evaluation, the
//! MNA/LU solve, DC/AC analysis of the OTA test bench, one Pareto point's
//! 200-sample Monte Carlo analysis, batch evaluation,
//! one shard round-trip through each data plane, the JSON codec on a
//! paper-sized result) plus the full reduced flow, and writes a
//! schema-versioned JSON report:
//!
//! ```text
//! bench [--quick] [--out FILE] [--check BASELINE | --check-latest DIR]
//!       [--tolerance FRACTION]
//! ```
//!
//! * `--quick` — CI mode: fewer outer iterations per kernel. The *work per
//!   iteration* is identical in both modes, so quick runs compare cleanly
//!   against a quick baseline.
//! * `--out FILE` — write the JSON report to `FILE` (default: stdout only).
//! * `--check BASELINE` — compare against a committed `BENCH_*.json` and
//!   exit nonzero when any kernel's best iteration regressed by more than
//!   the tolerance (default 0.30, i.e. 30%). Kernels present on only one
//!   side are reported but never fail the check, so kernels can be added
//!   without re-baselining in the same commit.
//! * `--check-latest DIR` — like `--check`, but selects the newest
//!   `BENCH_*.json` in `DIR` by each report's own `generated_unix` stamp
//!   (filename order only breaks ties), so a misnamed baseline can never
//!   shadow a newer one.
//!
//! The committed baselines (`BENCH_<date>.json` at the repo root) are the
//! performance trajectory: each entry is one machine's quick-mode run, and
//! CI's `bench-smoke` leg gates pull requests against the newest one.

use ayb_bench::{load_newest_baseline, BenchReport, KernelReport, BENCH_SCHEMA_VERSION};
use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters, OtaTestbenchConfig};
use ayb_circuit::{Mosfet, MosfetModelCard, NodeId};
use ayb_core::{measure_testbench, FlowBuilder, FlowConfig, OtaSizingProblem};
use ayb_moo::{Evaluation, ShardTransport, SizingProblem};
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_process::montecarlo::{self, MonteCarloConfig};
use ayb_process::ProcessVariation;
use ayb_sim::linalg::{solve_in_place, DenseMatrix};
use ayb_sim::{ac_analysis, dc_operating_point, mosfet, DcOptions, FrequencySweep};
use ayb_store::{
    ShardDataPlane, ShardOutcome, ShardWork, ShardWorkKind, VariationOutcome, VariationPointWork,
};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Instant, SystemTime};

/// Default regression tolerance for `--check`: a kernel may be up to 30%
/// slower than the baseline before the check fails (CI machines are noisy;
/// the committed trajectory is for catching step changes, not 5% drift).
const DEFAULT_TOLERANCE: f64 = 0.30;

/// Times `work` for `iters` iterations (after `warmup` untimed ones),
/// recording each iteration separately so the report can carry both the
/// mean and the noise-resistant minimum.
fn time_kernel(name: &str, iters: u64, warmup: u64, mut work: impl FnMut()) -> KernelReport {
    for _ in 0..warmup {
        work();
    }
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let started = Instant::now();
        work();
        let elapsed = started.elapsed().as_secs_f64();
        total += elapsed;
        best = best.min(elapsed);
    }
    let report = KernelReport {
        name: name.to_string(),
        iters,
        mean_seconds: total / iters as f64,
        min_seconds: best,
    };
    eprintln!(
        "[bench] {:<28} {:>6} iters, mean {:>12.6}s, min {:>12.6}s",
        report.name, report.iters, report.mean_seconds, report.min_seconds
    );
    report
}

/// Deterministic pseudo-random genes in (0, 1) for the batch kernels — a
/// fixed LCG, so every bench run times the identical workload.
fn gene_batch(count: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Map the top bits into (0, 1), away from the exact bounds.
        0.05 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    (0..count)
        .map(|_| (0..dims).map(|_| next()).collect())
        .collect()
}

fn bench_mna_lu_solve(iters: u64) -> KernelReport {
    // A dense diagonally-dominant 64×64 system — the same shape and solve
    // path (partial-pivot LU) the MNA stamps feed on every Newton step.
    const N: usize = 64;
    time_kernel("mna_lu_solve_64", iters, 2, || {
        let mut a = DenseMatrix::<f64>::zeros(N, N);
        let mut b = vec![0.0f64; N];
        for (i, rhs) in b.iter_mut().enumerate() {
            for j in 0..N {
                let coupling = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                a.add(i, j, coupling);
            }
            a.add(i, i, N as f64);
            *rhs = 1.0 + i as f64;
        }
        solve_in_place(black_box(&mut a), black_box(&mut b)).expect("system is well-conditioned");
        black_box(&b);
    })
}

fn bench_mosfet_evaluate(iters: u64) -> KernelReport {
    let card = MosfetModelCard::nmos_035um();
    let device = Mosfet::new(
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        "nmos",
        20e-6,
        1e-6,
    );
    // 1000 evaluations per timed iteration: single evaluations are tens of
    // nanoseconds, below timer resolution.
    time_kernel("mosfet_evaluate_1k", iters, 2, || {
        for i in 0..1000 {
            let vgs = 0.6 + (i % 16) as f64 * 0.05;
            black_box(mosfet::evaluate(
                black_box(&card),
                black_box(&device),
                vgs,
                1.0,
                0.0,
                0.0,
            ));
        }
    })
}

fn bench_dc_operating_point(iters: u64) -> KernelReport {
    let tb = build_open_loop_testbench(&OtaParameters::nominal(), &OtaTestbenchConfig::new())
        .expect("test bench builds");
    time_kernel("ota_dc_operating_point", iters, 2, || {
        black_box(dc_operating_point(black_box(&tb), &DcOptions::new()).expect("converges"));
    })
}

fn bench_ac_sweep(iters: u64) -> KernelReport {
    let tb = build_open_loop_testbench(&OtaParameters::nominal(), &OtaTestbenchConfig::new())
        .expect("test bench builds");
    let op = dc_operating_point(&tb, &DcOptions::new()).expect("converges");
    let sweep = FrequencySweep::logarithmic(10.0, 1e9, 8);
    time_kernel("ota_ac_sweep_65", iters, 2, || {
        black_box(ac_analysis(black_box(&tb), black_box(&op), &sweep).expect("ac runs"));
    })
}

/// One Pareto point's Monte Carlo analysis as the variation stage runs it:
/// 200 perturbed copies of the nominal OTA test bench, each simulated and
/// measured, fanned out over 2 worker threads.
fn bench_mc_point(iters: u64) -> KernelReport {
    let tb = build_open_loop_testbench(&OtaParameters::nominal(), &OtaTestbenchConfig::new())
        .expect("test bench builds");
    let variation = ProcessVariation::generic_035um();
    let config = MonteCarloConfig::new(200, 2008);
    let sweep = FrequencySweep::logarithmic(10.0, 1e9, 8);
    time_kernel("mc_point_200", iters, 1, || {
        let run = montecarlo::run_parallel(black_box(&tb), &variation, &config, 2, |sample| {
            measure_testbench(sample, &sweep).map(|perf| (perf.gain_db, perf.phase_margin_deg))
        });
        black_box(run);
    })
}

fn bench_batch_evaluate(iters: u64) -> KernelReport {
    let problem = OtaSizingProblem::new(
        OtaTestbenchConfig::new(),
        FrequencySweep::logarithmic(10.0, 1e9, 8),
    )
    .with_threads(2);
    let batch = gene_batch(16, problem.parameter_count());
    time_kernel("batch_evaluate_16", iters, 1, || {
        black_box(problem.evaluate_batch(black_box(&batch)));
    })
}

/// One complete shard conversation — open epoch, publish, claim, submit,
/// fetch, close — through the store's on-disk plane.
fn bench_shard_roundtrip_disk(iters: u64) -> KernelReport {
    let dir = std::env::temp_dir().join(format!("ayb-bench-shards-{}", std::process::id()));
    let plane = ShardDataPlane::open(&dir);
    let work = ShardWork::Eval {
        parameters: gene_batch(4, 8),
    };
    let outcome = ShardOutcome::Eval {
        results: vec![None, None, None, None],
    };
    let report = time_kernel("shard_roundtrip_disk", iters, 2, || {
        let epoch = plane
            .open_typed_epoch(ShardWorkKind::Eval, 1)
            .expect("epoch opens");
        plane.publish_work(&epoch, 0, &work).expect("publishes");
        assert!(plane.try_claim(&epoch, 0).expect("claim attempt"));
        plane.submit_outcome(&epoch, 0, &outcome).expect("submits");
        assert!(plane.fetch_outcome(&epoch, 0).expect("fetches").is_some());
        plane.close_epoch(&epoch).expect("closes");
    });
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The shard conversation for a *batched* variation task: one epoch slot
/// carrying 8 Monte Carlo points (with their per-point seeds) out and 8
/// outcomes back — what `variation_batch 8` pays per task instead of 8
/// separate round-trips.
fn bench_variation_batch_roundtrip_disk(iters: u64) -> KernelReport {
    let dir = std::env::temp_dir().join(format!("ayb-bench-varbatch-{}", std::process::id()));
    let plane = ShardDataPlane::open(&dir);
    let work = ShardWork::VariationBatch {
        points: gene_batch(8, 8)
            .into_iter()
            .enumerate()
            .map(|(i, parameters)| VariationPointWork {
                parameters,
                mc_seed: 0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1),
            })
            .collect(),
    };
    let outcome = ShardOutcome::VariationBatch {
        points: (0..8)
            .map(|_| VariationOutcome {
                data: None,
                elapsed_seconds: 0.0,
            })
            .collect(),
    };
    let report = time_kernel("variation_batch_roundtrip_disk", iters, 2, || {
        let epoch = plane
            .open_typed_epoch(ShardWorkKind::Variation, 1)
            .expect("epoch opens");
        plane.publish_work(&epoch, 0, &work).expect("publishes");
        assert!(plane.try_claim(&epoch, 0).expect("claim attempt"));
        plane.submit_outcome(&epoch, 0, &outcome).expect("submits");
        assert!(plane.fetch_outcome(&epoch, 0).expect("fetches").is_some());
        plane.close_epoch(&epoch).expect("closes");
    });
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The same conversation through a live TCP coordinator (loopback), fencing
/// token and all — what a `--transport` flow pays per shard.
fn bench_shard_roundtrip_tcp(iters: u64) -> KernelReport {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
        .expect("coordinator binds on loopback");
    let transport = TcpTransport::from_url(&coordinator.url()).expect("loopback url parses");
    let work = ShardWork::Eval {
        parameters: gene_batch(4, 8),
    };
    let outcome = ShardOutcome::Eval {
        results: vec![None, None, None, None],
    };
    time_kernel("shard_roundtrip_tcp", iters, 2, || {
        let epoch = transport
            .open_typed_epoch(ShardWorkKind::Eval, 1)
            .expect("epoch opens");
        transport.publish_work(&epoch, 0, &work).expect("publishes");
        let token = transport
            .try_claim_token(&epoch, 0, "bench")
            .expect("claim attempt")
            .expect("claim granted");
        assert!(transport
            .submit_with_token(&epoch, 0, token, &outcome)
            .expect("submits"));
        assert!(transport
            .fetch_outcome(&epoch, 0)
            .expect("fetches")
            .is_some());
        transport.close_epoch(&epoch).expect("closes");
    })
}

/// A synthetic result shaped and sized like a paper-scale `result.json` as
/// stores wrote it before the archive was stored once (7.5 MB of pretty
/// JSON): the 10 000-evaluation archive, stored twice, and a 300-point
/// front. Kept at that size so the kernel stays comparable with the
/// committed baselines.
fn synthetic_paper_result() -> Value {
    let archive: Vec<Evaluation> = gene_batch(10_000, 8)
        .into_iter()
        .map(|parameters| {
            let objectives = vec![40.0 + 40.0 * parameters[0], 1e6 * parameters[1]];
            Evaluation::new(parameters, objectives)
        })
        .collect();
    let archive_value = archive.to_value();
    Value::Object(vec![
        ("archive".to_string(), archive_value.clone()),
        ("pareto".to_string(), archive[..300].to_value()),
        (
            "optimization".to_string(),
            Value::Object(vec![
                ("archive".to_string(), archive_value),
                ("evaluations".to_string(), Value::Int(10_000)),
            ]),
        ),
    ])
}

/// Renders the synthetic paper-sized result as pretty JSON — the older
/// result write of every durable run (results are compact now).
fn bench_json_encode_paper_result(iters: u64) -> KernelReport {
    let result = synthetic_paper_result();
    time_kernel("json_encode_paper_result", iters, 1, || {
        black_box(serde_json::to_string_pretty(black_box(&result)).expect("result renders"));
    })
}

/// Decodes the synthetic paper-sized result — what `ayb show`, resume and a
/// result-cache hit pay per read.
fn bench_json_decode_paper_result(iters: u64) -> KernelReport {
    let text = serde_json::to_string_pretty(&synthetic_paper_result()).expect("result renders");
    time_kernel("json_decode_paper_result", iters, 1, || {
        black_box(serde_json::from_str::<Value>(black_box(&text)).expect("result decodes"));
    })
}

/// The end-to-end flow at `FlowConfig::reduced()` scale: optimisation,
/// Monte Carlo variation analysis and model build, all in-process.
fn bench_full_flow_reduced(iters: u64) -> KernelReport {
    time_kernel("full_flow_reduced", iters, 0, || {
        let result = FlowBuilder::new(FlowConfig::reduced())
            .run()
            .expect("reduced flow completes");
        black_box(result.determinism_digest());
    })
}

fn run_all(quick: bool) -> BenchReport {
    // Quick mode trims outer iterations only — per-iteration work is
    // identical, keeping quick runs comparable to the quick baseline.
    let (micro, macro_, flow) = if quick { (5, 3, 1) } else { (20, 10, 3) };
    let generated_unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        mode: if quick { "quick" } else { "full" }.to_string(),
        generated_unix,
        kernels: vec![
            bench_mna_lu_solve(micro),
            bench_mosfet_evaluate(micro),
            bench_dc_operating_point(micro),
            bench_ac_sweep(micro),
            bench_mc_point(macro_),
            bench_batch_evaluate(macro_),
            bench_shard_roundtrip_disk(macro_),
            bench_variation_batch_roundtrip_disk(macro_),
            bench_shard_roundtrip_tcp(macro_),
            bench_json_encode_paper_result(macro_),
            bench_json_decode_paper_result(macro_),
            bench_full_flow_reduced(flow),
        ],
    }
}

/// Compares `current` against `baseline`, printing one verdict line per
/// kernel. Returns the names of kernels whose best iteration regressed
/// beyond `tolerance`.
fn check_against(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
    if baseline.schema_version != current.schema_version {
        eprintln!(
            "[bench] note: baseline schema v{} vs current v{}; comparing by kernel name",
            baseline.schema_version, current.schema_version
        );
    }
    if baseline.mode != current.mode {
        eprintln!(
            "[bench] warning: comparing a {} run against a {} baseline",
            current.mode, baseline.mode
        );
    }
    let mut regressions = Vec::new();
    for kernel in &current.kernels {
        let Some(base) = baseline.kernels.iter().find(|b| b.name == kernel.name) else {
            println!("{:<28} NEW (no baseline entry)", kernel.name);
            continue;
        };
        if base.min_seconds <= 0.0 {
            println!("{:<28} SKIP (degenerate baseline)", kernel.name);
            continue;
        }
        let ratio = kernel.min_seconds / base.min_seconds;
        let verdict = if ratio > 1.0 + tolerance {
            regressions.push(kernel.name.clone());
            "REGRESSED"
        } else if ratio < 1.0 - tolerance {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{:<28} {:>9}  {:>10.6}s vs {:>10.6}s  ({:+.1}%)",
            kernel.name,
            verdict,
            kernel.min_seconds,
            base.min_seconds,
            (ratio - 1.0) * 100.0
        );
    }
    for base in &baseline.kernels {
        if !current.kernels.iter().any(|k| k.name == base.name) {
            println!("{:<28} GONE (baseline-only entry)", base.name);
        }
    }
    regressions
}

/// How `--check` finds its baseline: an explicit file, or the newest
/// stamped `BENCH_*.json` in a directory.
enum CheckSource {
    File(String),
    Latest(String),
}

fn parse_args() -> Result<(bool, Option<String>, Option<CheckSource>, f64), String> {
    let mut quick = false;
    let mut out = None;
    let mut check = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(iter.next().ok_or("--out expects a file path")?),
            "--check" => {
                check = Some(CheckSource::File(
                    iter.next().ok_or("--check expects a baseline path")?,
                ))
            }
            "--check-latest" => {
                check = Some(CheckSource::Latest(
                    iter.next().ok_or("--check-latest expects a directory")?,
                ))
            }
            "--tolerance" => {
                let text = iter.next().ok_or("--tolerance expects a fraction")?;
                tolerance = text
                    .parse()
                    .map_err(|_| format!("--tolerance expects a number, got `{text}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((quick, out, check, tolerance))
}

fn main() -> ExitCode {
    let (quick, out, check, tolerance) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: bench [--quick] [--out FILE] [--check BASELINE | --check-latest DIR] \
                 [--tolerance FRACTION]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run_all(quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match &out {
        Some(path) => {
            if let Err(error) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("error: cannot write {path}: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!("[bench] report written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(source) = check {
        let baseline: BenchReport = match source {
            CheckSource::File(path) => {
                match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
                {
                    Ok(baseline) => baseline,
                    Err(error) => {
                        eprintln!("error: cannot load baseline {path}: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            CheckSource::Latest(dir) => match load_newest_baseline(std::path::Path::new(&dir)) {
                Ok(Some((name, baseline))) => {
                    eprintln!(
                        "[bench] newest baseline: {name} (generated_unix {})",
                        baseline.generated_unix
                    );
                    baseline
                }
                Ok(None) => {
                    eprintln!("error: no BENCH_*.json baselines in {dir}");
                    return ExitCode::FAILURE;
                }
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let regressions = check_against(&report, &baseline, tolerance);
        if !regressions.is_empty() {
            eprintln!(
                "error: {} kernel(s) regressed beyond {:.0}%: {}",
                regressions.len(),
                tolerance * 100.0,
                regressions.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!("bench check passed (tolerance {:.0}%)", tolerance * 100.0);
    }
    ExitCode::SUCCESS
}
