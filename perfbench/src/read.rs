//! `result_read`: the read side of the store. Set-up completes a few
//! demo-scale durable runs; the timed phase then does, for every run, what
//! `ayb list`, `ayb show --digest`, `ayb status` and `ayb resume` do first.
//! Passes over all runs repeat until the window closes and at least
//! [`MIN_OPS`] runs were read; `run_s` is the median pass.

use crate::host::{dir_bytes, peak_rss_mb, MB};
use crate::paper::GA_SEED;
use crate::probe::{self, RunFiles};
use crate::stats::{median, median_index};
use crate::trace::{self, Tracer};
use crate::{mix, repeat_setup, timed, Ctx, Outcome};
use ayb_core::{FlowBuilder, FlowConfig, FlowResult};
use ayb_store::{RunStatus, Store};
use std::time::Instant;

/// Completed runs the timed phase reads.
const FIXTURES: usize = 3;
/// Run reads per window at least, so the median has ten samples above it.
const MIN_OPS: usize = 20;

fn config(seed: u64, fixture: usize) -> FlowConfig {
    let mut config = FlowConfig::demo_scale();
    config.threads = 2;
    config.ga.seed = GA_SEED;
    config.monte_carlo.seed = mix(seed, 10 + fixture as u64);
    config
}

struct Fixture {
    run_id: String,
    digest: u64,
}

/// Reads one run the way the CLI's read commands start; returns whether
/// every step produced what the run holds.
fn read_run(store: &Store, fixture: &Fixture, tracer: &Tracer, request: u64) -> Result<(), String> {
    let id = fixture.run_id.as_str();
    let handle = tracer.span("store.list", request, || {
        let ids = store.run_ids().map_err(|e| format!("run_ids: {e}"))?;
        if !ids.iter().any(|listed| listed == id) {
            return Err(format!("{id} is not listed"));
        }
        let handle = store.run(id).map_err(|e| format!("run {id}: {e}"))?;
        match handle.status() {
            Ok(RunStatus::Completed) => Ok(handle),
            other => Err(format!("{id}: status {other:?}")),
        }
    })?;
    let result = tracer
        .span("store.load_result", request, || {
            handle.load_result::<FlowResult>()
        })
        .map_err(|e| format!("{id}: load_result: {e}"))?;
    let digest = tracer.span("core.digest", request, || result.determinism_digest());
    if digest != fixture.digest {
        return Err(format!(
            "{id}: digest {digest:016x} differs from the recorded {:016x}",
            fixture.digest
        ));
    }
    let checkpoint = tracer
        .span("store.load_checkpoint", request, || {
            handle.latest_checkpoint()
        })
        .map_err(|e| format!("{id}: latest_checkpoint: {e}"))?;
    if checkpoint.is_none() {
        return Err(format!("{id}: no checkpoint"));
    }
    let events = tracer
        .span("obs.read_events", request, || {
            ayb_obs::read_events(&handle.events_path())
        })
        .map_err(|e| format!("{id}: read_events: {e}"))?;
    if events.is_empty() {
        return Err(format!("{id}: no events"));
    }
    Ok(())
}

struct Window {
    pass_s: Vec<f64>,
    op_ms: Vec<f64>,
    roots: Vec<Option<u64>>,
}

fn window(
    store: &Store,
    fixtures: &[Fixture],
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Window {
    let started = Instant::now();
    let mut window = Window {
        pass_s: Vec::new(),
        op_ms: Vec::new(),
        roots: Vec::new(),
    };
    while window.op_ms.len() < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        let pass = window.pass_s.len() as u64;
        let (root, pass_s) = timed(|| {
            tracer.span("run", pass, || {
                for fixture in fixtures {
                    let (read, took) = timed(|| read_run(store, fixture, tracer, pass));
                    out.attempted += 1;
                    if let Err(e) = read {
                        out.fail(e);
                    }
                    window.op_ms.push(took * 1e3);
                }
                tracer.current()
            })
        });
        window.pass_s.push(pass_s);
        window.roots.push(root);
    }
    window
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_name: "run read",
        ..Outcome::default()
    };
    let ((store, fixtures), setup_s) = repeat_setup(ctx, |dir| {
        let store = Store::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?;
        let fixtures = (0..FIXTURES)
            .map(|i| {
                let run_id = format!("fixture-{i}");
                let result = FlowBuilder::new(config(ctx.seed, i))
                    .with_store(&store)
                    .with_run_id(&run_id)
                    .run()
                    .map_err(|e| format!("fixture flow {i}: {e}"))?;
                Ok(Fixture {
                    run_id,
                    digest: result.determinism_digest(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((store, fixtures))
    })?;
    out.setup_s = setup_s;

    let mut untraced_run_s = 0.0;
    if ctx.trace {
        let untraced = window(
            &store,
            &fixtures,
            ctx.seconds,
            &Tracer::new(false),
            &mut out,
        );
        untraced_run_s = median(&untraced.pass_s);
    }
    let tracer = Tracer::new(ctx.trace);
    let measured = window(&store, &fixtures, ctx.seconds, &tracer, &mut out);
    out.peak_rss_mb = peak_rss_mb();
    out.run_s = median(&measured.pass_s);
    out.note(crate::stats::describe("pass", "s", &measured.pass_s));
    out.op_ms = measured.op_ms;
    let run_bytes: u64 = fixtures
        .iter()
        .map(|f| dir_bytes(&store.root().join("runs").join(&f.run_id)))
        .sum();
    out.store_mb = run_bytes as f64 / MB / FIXTURES as f64;

    if ctx.trace {
        let spans = tracer.spans();
        let root = measured.roots[median_index(&measured.pass_s)].ok_or("no root span")?;
        out.account(&spans, root, untraced_run_s);
        let ms = |name| median(&trace::durations(&spans, name)) * 1e3;
        out.layer("store.load_result_ms_p50", ms("store.load_result"));
        out.layer("store.load_checkpoint_ms_p50", ms("store.load_checkpoint"));
        out.layer("store.list_ms", ms("store.list"));
        let files: Vec<RunFiles> = fixtures
            .iter()
            .map(|f| RunFiles::of(&store.root().join("runs").join(&f.run_id)))
            .collect();
        RunFiles::mean(&files).record(&mut out);
        let handle = store.run(&fixtures[0].run_id).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(handle.dir().join("result.json"))
            .map_err(|e| format!("read result.json: {e}"))?;
        let result = handle
            .load_result::<FlowResult>()
            .map_err(|e| format!("load_result: {e}"))?;
        probe::flow(&result, &config(ctx.seed, 0), Some(&text), &mut out);
        out.layer("core.digest_ms", ms("core.digest"));
        out.layer("obs.read_events_ms", ms("obs.read_events"));
    }
    Ok(out)
}
