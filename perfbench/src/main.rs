//! The repository benchmark: one workload per process, chosen on the
//! command line.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_run|result_read|svc_mixed|tcp_sharded \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up in a fresh temporary store under `.perfbench-tmp/`,
//! measures, checks the program's outputs, deletes the store and prints a
//! human-readable report followed by one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (see `perfbench/README.md`). The exit code is non-zero when
//! any output check fails.

mod host;
mod paper;
mod probe;
mod read;
mod stats;
mod svc;
mod tcp;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("store_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order. A traced
/// run prints all of them; a layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("self.core_s", "s"),
    ("self.store_s", "s"),
    ("self.obs_s", "s"),
    ("self.svc_s", "s"),
    ("self.jobs_s", "s"),
    ("self.unaccounted_s", "s"),
    ("core.optimize_s", "s"),
    ("core.variation_s", "s"),
    ("core.model_s", "s"),
    ("core.unaccounted_s", "s"),
    ("core.digest_ms", "ms"),
    ("sim.evals", "count"),
    ("sim.mc_samples", "count"),
    ("sim.eval_us_p50", "us"),
    ("sim.dc_us_p50", "us"),
    ("sim.ac_us_p50", "us"),
    ("circuit.build_us_p50", "us"),
    ("process.mc_point_ms_p50", "ms"),
    ("process.mc_useful_share", "ratio"),
    ("moo.batch_ms_p50", "ms"),
    ("moo.fanout_share", "ratio"),
    ("moo.repeat_share", "ratio"),
    ("store.checkpoint_files", "count"),
    ("store.checkpoint_mb", "MB"),
    ("store.result_mb", "MB"),
    ("store.persist_s", "s"),
    ("store.load_result_ms_p50", "ms"),
    ("store.load_checkpoint_ms_p50", "ms"),
    ("store.list_ms", "ms"),
    ("store.cache_lookup_ms_p50", "ms"),
    ("store.cache_load_ms_p50", "ms"),
    ("store.cache_record_hit_ms_p50", "ms"),
    ("json.decode_mb_s", "MB/s"),
    ("json.encode_mb_s", "MB/s"),
    ("obs.events", "count"),
    ("obs.events_kb", "kB"),
    ("obs.read_events_ms", "ms"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.exec_ms_p50", "ms"),
    ("svc.floor_ms_p50", "ms"),
    ("svc.digest_us_p50", "us"),
    ("svc.requests", "count"),
    ("svc.errors", "count"),
    ("svc.submit_201", "count"),
    ("svc.submit_200_cached", "count"),
    ("svc.status_200", "count"),
    ("svc.result_200", "count"),
    ("svc.cache_hits", "count"),
    ("svc.dedup_hits", "count"),
    ("net.requests", "count"),
    ("net.fenced", "count"),
    ("net.degraded", "count"),
    ("net.rtt_ms_p50", "ms"),
    ("net.wait_share", "ratio"),
];

/// Set-up is repeated this many times per run (each in a fresh directory,
/// the last one kept); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private scratch directory (deleted at exit).
    pub tmp: PathBuf,
}

impl Ctx {
    /// A fresh directory under the run's scratch directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// A workload's measurements and check results.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub run_s: f64,
    /// Latencies of the workload's unit operation, in milliseconds.
    pub op_ms: Vec<f64>,
    pub op_name: &'static str,
    pub store_mb: f64,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation or output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        let what = what.into();
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(known, _)| *known == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Records the self-time accounting of one traced operation whose
    /// root span lasted `traced_run_s`, against the untraced `run_s`.
    pub fn account(&mut self, spans: &[trace::Span], root: u64, untraced_run_s: f64) {
        let traced_run_s = spans
            .iter()
            .find(|span| span.id == root)
            .map_or(0.0, trace::Span::seconds);
        self.layer("trace.run_s", traced_run_s);
        self.layer("trace.untraced_run_s", untraced_run_s);
        self.layer("trace.overhead_s", traced_run_s - untraced_run_s);
        for (layer, seconds) in trace::self_times(spans, root) {
            let name = match layer {
                "core" => "self.core_s",
                "store" => "self.store_s",
                "obs" => "self.obs_s",
                "svc" => "self.svc_s",
                "jobs" => "self.jobs_s",
                _ => "self.unaccounted_s",
            };
            *self.layers.entry(name).or_insert(0.0) += seconds;
        }
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Runs `setup` [`SETUP_REPEATS`] times, each in a fresh directory, and
/// keeps the last result; earlier ones are dropped and their directories
/// deleted. Returns the kept value and every repetition's seconds.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(PathBuf) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let dir = ctx.dir(&format!("setup-{rep}"))?;
        let (value, took) = timed(|| setup(dir.clone()));
        seconds.push(took);
        if let Some((old, old_dir)) = kept.replace((value?, dir)) {
            drop::<T>(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (value, _) = kept.ok_or("no set-up ran")?;
    Ok((value, seconds))
}

/// Derives an independent 64-bit stream value from the workload seed.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Deletes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Result<Outcome, String> = match args.workload.as_str() {
        "paper_run" => paper::run,
        "result_read" => read::run,
        "svc_mixed" => svc::run,
        "tcp_sharded" => tcp::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".perfbench-tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let scratch = Scratch(tmp.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp,
    };
    let fingerprint = host::Fingerprint::read();
    let (steal_before, total_before) = host::cpu_jiffies();
    let started = Instant::now();
    let outcome = run(&ctx);
    let wall = started.elapsed().as_secs_f64();
    let (steal_after, total_after) = host::cpu_jiffies();
    drop(scratch);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let steal = steal_after.saturating_sub(steal_before);
    let total = total_after.saturating_sub(total_before).max(1);
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" git={} solver={:?}",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.rustc,
        fingerprint.git_sha,
        ayb_core::FlowConfig::paper_scale().solver
    );
    println!(
        "host steal during run: {:.2}s of cpu time ({:.2}% of {:.1}s wall on all cpus)",
        steal as f64 / 100.0,
        100.0 * steal as f64 / total as f64,
        wall
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("setup_s repetitions: {:?}", outcome.setup_s);
    println!("{}", stats::describe(outcome.op_name, "ms", &outcome.op_ms));

    let metrics: Vec<(&str, f64, &str)> = if ctx.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        if !stats::supported(outcome.op_ms.len(), 0.5) {
            outcome.fail(format!(
                "{} has {} samples, too few for a median",
                outcome.op_name,
                outcome.op_ms.len()
            ));
        }
        let values = [
            stats::median(&outcome.setup_s),
            outcome.run_s,
            stats::median(&outcome.op_ms),
            outcome.store_mb,
            outcome.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    let required = !ctx.trace;
    for &(name, value, unit) in &metrics {
        println!("  {name:<32} {value:>14.6} {unit}");
        if !value.is_finite() || (required && value <= 0.0) {
            outcome.fail(format!(
                "metric {name} = {value} is not a usable measurement"
            ));
        }
    }
    if outcome.attempted == 0 {
        outcome.fail("no operation was attempted");
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    let correct = outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
