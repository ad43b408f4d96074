//! `tcp_sharded`: durable demo-scale flows whose shards travel through an
//! in-process `Coordinator` over TCP; the submitting flow services its own
//! shards. Flows repeat until the window closes; `run_s` is their median.

use crate::host::{dir_bytes, peak_rss_mb, MB};
use crate::paper::{fresh_store, record_stages, staged, Marks, GA_SEED};
use crate::probe::{self, RunFiles};
use crate::stats::{median, median_index};
use crate::trace::Tracer;
use crate::{mix, repeat_setup, timed, Ctx, Outcome};
use ayb_core::{FlowBuilder, FlowConfig, FlowResult};
use ayb_moo::ShardTransport;
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_store::{ShardOutcome, ShardWork, ShardWorkKind, Store};
use std::time::Instant;

/// Flows per window at least, whatever the window.
const MIN_FLOWS: usize = 3;
/// Shard conversations timed by the round-trip probe.
const RTT_CONVERSATIONS: usize = 30;

fn config(seed: u64, url: &str) -> FlowConfig {
    let mut config = FlowConfig::demo_scale();
    config.threads = 2;
    config.sharded = true;
    config.transport = Some(url.to_string());
    config.ga.seed = GA_SEED;
    config.monte_carlo.seed = mix(seed, 2);
    config
}

struct Flow {
    seconds: f64,
    result: FlowResult,
    run_id: String,
    root: Option<u64>,
}

/// Runs durable flows named `{prefix}-{i}` until `seconds` have passed and
/// at least [`MIN_FLOWS`] completed.
fn window(
    store: &Store,
    config: &FlowConfig,
    seconds: f64,
    prefix: &str,
    tracer: &Tracer,
    marks: &Marks,
) -> Result<Vec<Flow>, String> {
    let started = Instant::now();
    let mut flows = Vec::new();
    while flows.len() < MIN_FLOWS || started.elapsed().as_secs_f64() < seconds {
        let index = flows.len() as u64;
        let run_id = format!("{prefix}-{index}");
        let builder = FlowBuilder::new(config.clone())
            .with_store(store)
            .with_run_id(&run_id)
            .with_observer(marks.clone());
        let (flow, seconds) = timed(|| {
            tracer.span("run", index, || {
                let root = tracer.current();
                staged(builder, tracer, index).map(|result| (result, root))
            })
        });
        let (result, root) = flow?;
        flows.push(Flow {
            seconds,
            result,
            run_id,
            root,
        });
    }
    Ok(flows)
}

/// Times every `TcpTransport` call of a one-shard conversation against the
/// coordinator, [`RTT_CONVERSATIONS`] times.
fn round_trips(url: &str, parameters: &[f64], out: &mut Outcome) -> Result<Vec<f64>, String> {
    let transport = TcpTransport::from_url(url)?;
    let mut ms = Vec::new();
    let mut call = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
        let (result, seconds) = timed(f);
        ms.push(seconds * 1e3);
        result
    };
    let err = |e: ayb_moo::ShardError| e.to_string();
    for _ in 0..RTT_CONVERSATIONS {
        let mut epoch = String::new();
        call(&mut || {
            epoch = transport
                .open_typed_epoch(ShardWorkKind::Eval, 1)
                .map_err(err)?;
            Ok(())
        })?;
        let work = ShardWork::Eval {
            parameters: vec![parameters.to_vec()],
        };
        call(&mut || transport.publish_work(&epoch, 0, &work).map_err(err))?;
        call(&mut || match transport
            .try_claim_token(&epoch, 0, "perfbench")
            .map_err(err)?
        {
            Some(_) => Ok(()),
            None => Err("probe shard claim refused".to_string()),
        })?;
        let outcome = ShardOutcome::Eval {
            results: vec![None],
        };
        call(&mut || transport.submit_outcome(&epoch, 0, &outcome).map_err(err))?;
        call(
            &mut || match transport.fetch_outcome(&epoch, 0).map_err(err)? {
                Some(_) => Ok(()),
                None => Err("probe shard outcome missing".to_string()),
            },
        )?;
        call(&mut || ShardTransport::close_epoch(&transport, &epoch).map_err(err))?;
    }
    out.note(crate::stats::describe("net round trip", "ms", &ms));
    Ok(ms)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_name: "durable step interval",
        ..Outcome::default()
    };
    let ((coordinator, store), setup_s) = repeat_setup(ctx, |dir| {
        let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
            .map_err(|e| format!("bind coordinator: {e}"))?;
        let store = fresh_store(&dir)?;
        Ok((coordinator, store))
    })?;
    out.setup_s = setup_s;
    let url = coordinator.url();
    let config = config(ctx.seed, &url);

    let mut untraced_run_s = 0.0;
    if ctx.trace {
        let flows = window(
            &store,
            &config,
            ctx.seconds,
            "untraced",
            &Tracer::new(false),
            &Marks::default(),
        )?;
        untraced_run_s = median(&flows.iter().map(|f| f.seconds).collect::<Vec<_>>());
        for flow in flows {
            let _ = std::fs::remove_dir_all(store.root().join("runs").join(flow.run_id));
        }
    }

    let tracer = Tracer::new(ctx.trace);
    let marks = Marks::default();
    let before = dir_bytes(store.root());
    let flows = window(&store, &config, ctx.seconds, "tcp", &tracer, &marks)?;
    let flow_s: Vec<f64> = flows.iter().map(|f| f.seconds).collect();
    out.attempted = flows.len() as u64;
    out.peak_rss_mb = peak_rss_mb();
    out.run_s = median(&flow_s);
    out.op_ms = marks.intervals_ms();
    out.store_mb = dir_bytes(store.root()).saturating_sub(before) as f64 / MB / flows.len() as f64;

    let mut reference_config = config.clone();
    reference_config.sharded = false;
    reference_config.transport = None;
    let reference = FlowBuilder::new(reference_config)
        .run()
        .map_err(|e| format!("reference flow: {e}"))?;
    let expected = reference.determinism_digest();
    for flow in &flows {
        let digest = flow.result.determinism_digest();
        if digest != expected {
            out.fail(format!(
                "{}: digest {digest:016x} differs from the store-less reference {expected:016x}",
                flow.run_id
            ));
        }
    }
    let timings = &flows[0].result.timings;
    out.note(format!(
        "digest reference: {expected:016x}; per flow: {} shard requests, {:.3}s summed round trips",
        timings.shard_requests, timings.shard_request_seconds
    ));
    out.note(crate::stats::describe("flow", "s", &flow_s));

    if ctx.trace {
        let spans = tracer.spans();
        let typical = &flows[median_index(&flow_s)];
        let root = typical.root.ok_or("no root span")?;
        out.account(&spans, root, untraced_run_s);
        record_stages(&spans, root, &mut out);
        probe::net_counts(&typical.result, typical.seconds, &mut out);
        let files: Vec<RunFiles> = flows
            .iter()
            .map(|f| RunFiles::of(&store.root().join("runs").join(&f.run_id)))
            .collect();
        RunFiles::mean(&files).record(&mut out);
        let handle = store.run(&typical.run_id).map_err(|e| e.to_string())?;
        probe::read_events(&handle, &mut out);
        let candidate = reference
            .archive
            .first()
            .map(|e| e.parameters.clone())
            .ok_or("empty archive")?;
        let rtt = round_trips(&url, &candidate, &mut out)?;
        out.layer("net.rtt_ms_p50", median(&rtt));
        probe::flow(&reference, &config, None, &mut out);
    }
    drop(flows);
    drop(coordinator);
    Ok(out)
}
