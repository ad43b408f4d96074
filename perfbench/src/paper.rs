//! `paper_run`: one durable paper-scale flow, the paper's unit of work.
//!
//! `FlowConfig::paper_scale()` with two threads, so a two-core machine is
//! not oversubscribed. The optimiser seed is fixed, so every run optimises
//! the same 308-point Pareto front and does the same simulation work;
//! `--seed` draws the Monte Carlo samples. The flow's digest must equal a
//! store-less in-process run of the same configuration.

use crate::host::{dir_bytes, peak_rss_mb, MB};
use crate::probe::{self, RunFiles};
use crate::trace::{self, Tracer};
use crate::{mix, repeat_setup, timed, Ctx, Outcome};
use ayb_core::{FlowBuilder, FlowConfig, FlowObserver, FlowResult, FlowStage};
use ayb_store::Store;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Optimiser seed of the flows whose work must not depend on `--seed`.
pub const GA_SEED: u64 = 1;

fn config(seed: u64) -> FlowConfig {
    let mut config = FlowConfig::paper_scale();
    config.threads = 2;
    config.ga.seed = GA_SEED;
    config.monte_carlo.seed = mix(seed, 1);
    config
}

/// Instants of a durable flow's progress steps: its start, every
/// generation checkpoint and every analysed variation point.
#[derive(Clone, Default)]
pub struct Marks(Arc<Mutex<Vec<Instant>>>);

impl Marks {
    fn mark(&self) {
        self.0.lock().expect("marks lock").push(Instant::now());
    }

    /// Milliseconds between consecutive steps.
    pub fn intervals_ms(&self) -> Vec<f64> {
        let marks = self.0.lock().expect("marks lock");
        marks
            .windows(2)
            .map(|pair| (pair[1] - pair[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl FlowObserver for Marks {
    fn on_stage_start(&mut self, stage: FlowStage) {
        if stage == FlowStage::Optimize {
            self.mark();
        }
    }

    fn on_checkpoint_written(&mut self, _generation: usize, _path: &Path) {
        self.mark();
    }

    fn on_progress(&mut self, stage: FlowStage, _done: usize, _total: usize) {
        if stage == FlowStage::AnalyzeVariation {
            self.mark();
        }
    }
}

/// Runs a flow through the staged API with one `core` span per stage.
pub fn staged(builder: FlowBuilder, tracer: &Tracer, request: u64) -> Result<FlowResult, String> {
    let optimized = tracer
        .span("core.optimize", request, || builder.optimize())
        .map_err(|e| format!("optimize: {e}"))?;
    let analyzed = tracer
        .span("core.variation", request, || optimized.analyze_variation())
        .map_err(|e| format!("analyze_variation: {e}"))?;
    tracer
        .span("core.model", request, || analyzed.build_model())
        .map_err(|e| format!("build_model: {e}"))
}

/// Runs a store-less demo-scale flow, so page faults and allocator growth
/// of every stage are paid before anything is timed. One thread: a
/// two-thread flow this short waits on whichever thread the host delays,
/// which would make set-up time follow host steal.
pub fn warm_up() -> Result<(), String> {
    let mut config = FlowConfig::demo_scale();
    config.threads = 1;
    FlowBuilder::new(config)
        .run()
        .map(drop)
        .map_err(|e| format!("warm-up flow: {e}"))
}

/// Opens a fresh store in `dir` and warms up.
pub fn fresh_store(dir: &Path) -> Result<Store, String> {
    let store = Store::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?;
    warm_up()?;
    Ok(store)
}

/// Sums the durations of the three stage spans of `request`.
pub fn stage_seconds(spans: &[trace::Span], request: u64) -> f64 {
    spans
        .iter()
        .filter(|span| span.request == request && span.layer() == "core")
        .map(trace::Span::seconds)
        .sum()
}

/// Records `core.*_s` from the stage spans under `root`.
pub fn record_stages(spans: &[trace::Span], root: u64, out: &mut Outcome) {
    for (span, metric) in [
        ("core.optimize", "core.optimize_s"),
        ("core.variation", "core.variation_s"),
        ("core.model", "core.model_s"),
    ] {
        out.layer(
            metric,
            trace::durations_under(spans, root, span).iter().sum(),
        );
    }
    let unaccounted = trace::self_times(spans, root)
        .get("unaccounted")
        .copied()
        .unwrap_or(0.0);
    out.layer("core.unaccounted_s", unaccounted);
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_name: "durable step interval",
        ..Outcome::default()
    };
    let config = config(ctx.seed);
    let (store, setup_s) = repeat_setup(ctx, |dir| fresh_store(&dir))?;
    out.setup_s = setup_s;

    let mut untraced_run_s = 0.0;
    if ctx.trace {
        let builder = FlowBuilder::new(config.clone())
            .with_store(&store)
            .with_run_id("untraced");
        let (flow, seconds) = timed(|| staged(builder, &Tracer::new(false), 0));
        flow?;
        untraced_run_s = seconds;
        let _ = std::fs::remove_dir_all(store.root().join("runs").join("untraced"));
    }

    let tracer = Tracer::new(ctx.trace);
    let marks = Marks::default();
    let before = dir_bytes(store.root());
    let builder = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("paper")
        .with_observer(marks.clone());
    let (flow, run_s) = timed(|| tracer.span("run", 0, || staged(builder, &tracer, 0)));
    out.attempted = 1;
    out.peak_rss_mb = peak_rss_mb();
    out.run_s = run_s;
    out.op_ms = marks.intervals_ms();
    out.store_mb = dir_bytes(store.root()).saturating_sub(before) as f64 / MB;
    let result = flow?;

    let reference = staged(FlowBuilder::new(config.clone()), &tracer, 1)?;
    let (digest, expected) = (result.determinism_digest(), reference.determinism_digest());
    out.note(format!(
        "digest: {digest:016x} (store-less reference {expected:016x})"
    ));
    out.note(format!(
        "work: {} evaluations, {} Pareto points x {} Monte Carlo samples",
        result.optimization.evaluations, result.timings.mc_points, config.monte_carlo.samples
    ));
    if digest != expected {
        out.fail("durable paper run digest differs from the store-less reference");
    }

    if ctx.trace {
        let spans = tracer.spans();
        let root = spans
            .iter()
            .find(|span| span.name == "run")
            .ok_or("no root span")?
            .id;
        out.account(&spans, root, untraced_run_s);
        record_stages(&spans, root, &mut out);
        out.layer(
            "store.persist_s",
            stage_seconds(&spans, 0) - stage_seconds(&spans, 1),
        );
        let handle = store.run("paper").map_err(|e| e.to_string())?;
        RunFiles::of(handle.dir()).record(&mut out);
        probe::read_events(&handle, &mut out);
        probe::net_counts(&result, run_s, &mut out);
        drop(result);
        let _ = std::fs::remove_dir_all(handle.dir());
        probe::flow(&reference, &config, None, &mut out);
    }
    Ok(out)
}
