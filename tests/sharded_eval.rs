//! Integration tests for sharded multi-process execution: a flow run with
//! `sharded` evaluation produces a `determinism_digest` bit-identical to the
//! single-process run — alone, through a drain job server, and across
//! multiple `ayb serve --shards-only` worker *processes* sharing one store,
//! including after one of those workers is SIGKILLed mid-run and its shard
//! claims are recovered. The same holds for the sharded Monte Carlo
//! variation stage (one task per Pareto point), and a flow interrupted
//! mid-variation resumes from its per-point checkpoints without re-analysing
//! completed points.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowObserver, FlowResult, FlowStage, VariationBoundary,
    VariationHaltHook,
};
use ayb_jobs::{JobServer, JobServerConfig};
use ayb_moo::CheckpointError;
use ayb_store::{RunStatus, ShardSummary, Store};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-sharded-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

/// The trimmed reduced-scale configuration the other integration tests use
/// (full five-stage flow, seconds of wall clock), without sharding.
fn small_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 10;
    config.max_pareto_points = 8;
    config
}

/// The same configuration with sharded evaluation on (3-candidate shards, so
/// every 14-candidate generation spans 5 shards).
fn sharded_config() -> FlowConfig {
    let mut config = small_config();
    config.sharded = true;
    config.shard_size = 3;
    config
}

/// Sequential, store-less, unsharded reference digest for a seed.
fn reference_digest(seed: u64) -> u64 {
    FlowBuilder::new(small_config())
        .with_seed(seed)
        .run()
        .expect("reference flow completes")
        .determinism_digest()
}

fn stored_digest(store: &Store, run_id: &str) -> u64 {
    let result: FlowResult = store
        .run(run_id)
        .expect("run exists")
        .load_result()
        .expect("result loads");
    result.determinism_digest()
}

#[test]
fn single_process_sharded_run_digests_identically_to_unsharded() {
    let (root, store) = temp_store("solo");
    let expected = reference_digest(41);

    // No workers anywhere: the submitting flow itself claims and evaluates
    // every shard it publishes.
    let result = FlowBuilder::new(sharded_config())
        .with_seed(41)
        .with_store(&store)
        .with_run_id("sharded-solo")
        .run()
        .expect("sharded flow completes without any workers");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "sharding must not change the result"
    );

    let handle = store.run("sharded-solo").unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None, "claim released");
    assert_eq!(
        handle.shard_summary().unwrap(),
        ShardSummary::default(),
        "every shard epoch was disposed after assembly"
    );
    assert_eq!(stored_digest(&store, "sharded-solo"), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn every_event_of_a_disk_sharded_run_carries_its_id() {
    let (root, store) = temp_store("events");
    FlowBuilder::new(sharded_config())
        .with_seed(44)
        .with_store(&store)
        .with_run_id("sharded-events")
        .run()
        .expect("sharded flow completes");
    let path = store.run("sharded-events").unwrap().events_path();
    let events = ayb_obs::read_events(&path).expect("events.jsonl parses");
    assert!(events.iter().any(|event| event.kind == "epoch_close"));
    for event in &events {
        assert_eq!(event.run_id.as_deref(), Some("sharded-events"), "{event:?}");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn builder_flags_enable_sharding_without_touching_the_config() {
    let (root, store) = temp_store("flags");
    let expected = reference_digest(43);
    // `.sharded(true)` / `.shard_size(3)` on a plain config are equivalent
    // to pre-setting the FlowConfig fields.
    let result = FlowBuilder::new(small_config())
        .with_seed(43)
        .with_store(&store)
        .sharded(true)
        .shard_size(3)
        .run()
        .expect("sharded flow completes");
    assert_eq!(result.determinism_digest(), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn drain_server_executes_sharded_runs_to_the_reference_digest() {
    let (root, store) = temp_store("server");
    let expected = reference_digest(42);

    let mut config = sharded_config();
    config.ga.seed = 42;
    config.monte_carlo.seed = 42;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(42, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    // Two workers: one claims the run (and becomes the shard submitter),
    // the idle one services shards — shard-first — until the queue drains.
    let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(2));
    let report = server.run().expect("server drains");
    assert_eq!(report.completed, vec![run_id.clone()], "report: {report:?}");
    assert!(report.failed.is_empty());
    assert_eq!(stored_digest(&store, &run_id), expected);
    assert_eq!(
        store.run(&run_id).unwrap().shard_summary().unwrap(),
        ShardSummary::default()
    );
    let _ = std::fs::remove_dir_all(root);
}

fn spawn_shard_worker(root: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ayb"))
        .args([
            "serve",
            "--store",
            root.to_str().expect("utf-8 store path"),
            "--shards-only",
            "--workers",
            "2",
            "--poll-ms",
            "20",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shard worker process spawns")
}

/// The acceptance scenario: a sharded flow evaluated across two independent
/// `ayb serve --shards-only` worker *processes* over one store, with one
/// worker SIGKILLed mid-run, still digests bit-identically to the
/// single-process unsharded run.
#[test]
fn multi_process_sharded_run_survives_a_sigkilled_worker_bit_identically() {
    let (root, store) = temp_store("multiproc");
    let expected = reference_digest(77);

    let mut config = sharded_config();
    config.ga.seed = 77;
    config.monte_carlo.seed = 77;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(77, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    // Two worker processes scanning the same store for shard tasks.
    let doomed = spawn_shard_worker(&root);
    let survivor = spawn_shard_worker(&root);

    // SIGKILL one worker mid-run — whatever shard claim it holds right then
    // must be recovered by the submitter without perturbing the result.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(700));
        let mut doomed = doomed;
        let _ = doomed.kill();
        doomed.wait_with_output().expect("doomed worker reaped")
    });

    // This process is the submitter: it executes the queued run, publishing
    // every generation's population as shard tasks for the workers.
    let result = FlowBuilder::resume(&store, &run_id)
        .expect("resume builds")
        .run()
        .expect("sharded flow completes despite the killed worker");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "two worker processes and a SIGKILL change nothing about the result"
    );

    let doomed_output = killer.join().expect("killer thread joins");
    let mut survivor = survivor;
    survivor.kill().expect("survivor stops");
    let survivor_output = survivor.wait_with_output().expect("survivor reaped");

    // The workers genuinely participated: at least one shard was serviced
    // out-of-process (the submitter logs nothing, so any `serviced shard`
    // line is a worker's).
    let worker_logs = format!(
        "{}{}",
        String::from_utf8_lossy(&doomed_output.stderr),
        String::from_utf8_lossy(&survivor_output.stderr)
    );
    assert!(
        worker_logs.contains("serviced shard"),
        "external worker processes serviced at least one shard; logs:\n{worker_logs}"
    );

    let handle = store.run(&run_id).unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None);
    assert_eq!(handle.shard_summary().unwrap(), ShardSummary::default());
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}

/// Counts `on_progress` ticks of the variation stage — one per point
/// actually analysed by this flow (restored checkpoints never tick).
struct VariationTicks(Arc<AtomicUsize>);

impl FlowObserver for VariationTicks {
    fn on_progress(&mut self, stage: FlowStage, _done: usize, _total: usize) {
        if stage == FlowStage::AnalyzeVariation {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A flow interrupted mid-variation-stage resumes from its per-point
/// checkpoints: the already-analysed points are provably skipped (checkpoint
/// files untouched, observer ticks only for the remainder) and the final
/// result digests identically to the uninterrupted serial run.
#[test]
fn interrupted_variation_resumes_from_per_point_checkpoints() {
    let (root, store) = temp_store("varresume");
    let expected = reference_digest(99);

    // Halt at the third variation result-write boundary — the deterministic
    // stand-in for a SIGKILL right after the third point's checkpoint landed.
    let writes = Arc::new(AtomicUsize::new(0));
    let hook: VariationHaltHook = {
        let writes = Arc::clone(&writes);
        Arc::new(move |boundary| match boundary {
            VariationBoundary::ResultWrite { .. } => writes.fetch_add(1, Ordering::SeqCst) + 1 >= 3,
            _ => false,
        })
    };
    let halted = FlowBuilder::new(sharded_config())
        .with_seed(99)
        .with_store(&store)
        .with_run_id("var-halt")
        .halt_variation_when(hook)
        .run();
    assert!(
        matches!(
            halted,
            Err(AybError::Checkpoint(CheckpointError::Halted { .. }))
        ),
        "the hook halts the variation stage: {halted:?}"
    );

    let handle = store.run("var-halt").unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Interrupted);
    assert_eq!(handle.claim().unwrap(), None, "claim released at the halt");
    let restored = handle.variation_checkpoint_indices().unwrap();
    assert_eq!(restored.len(), 3, "exactly three points were checkpointed");
    let mtimes: Vec<_> = restored
        .iter()
        .map(|&index| {
            let path = root.join(format!(
                "runs/var-halt/checkpoints/variation_{index:04}.json"
            ));
            std::fs::metadata(&path).unwrap().modified().unwrap()
        })
        .collect();

    // Resume: the three restored points must not be re-analysed.
    let ticks = Arc::new(AtomicUsize::new(0));
    let result = FlowBuilder::resume(&store, "var-halt")
        .expect("resume builds")
        .with_observer(VariationTicks(Arc::clone(&ticks)))
        .run()
        .expect("resumed flow completes");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "interrupt + resume mid-variation changes nothing about the result"
    );
    let total = result.timings.mc_points;
    assert_eq!(
        ticks.load(Ordering::SeqCst),
        total - 3,
        "the resumed stage analysed only the unfinished points"
    );
    assert_eq!(
        handle.variation_checkpoint_indices().unwrap().len(),
        total,
        "every selected point ends up checkpointed"
    );
    for (&index, mtime) in restored.iter().zip(&mtimes) {
        let path = root.join(format!(
            "runs/var-halt/checkpoints/variation_{index:04}.json"
        ));
        assert_eq!(
            &std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "restored checkpoint {index} was never rewritten"
        );
    }
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.shard_summary().unwrap(), ShardSummary::default());
    let _ = std::fs::remove_dir_all(root);
}

/// The variation acceptance scenario: the Monte Carlo stage of a sharded
/// flow is serviced by real `ayb serve --shards-only` worker *processes*,
/// one of which is SIGKILLed mid-variation-epoch — the run still completes
/// with the serial reference digest, and the workers provably analysed
/// points out-of-process.
#[test]
fn variation_stage_shards_across_processes_and_survives_a_sigkilled_worker() {
    let (root, store) = temp_store("varproc");

    // Variation-heavy configuration: a short optimisation, then eight
    // 240-sample Monte Carlo points shipped as four two-point batches —
    // most of the wall clock is stage 4, and each batch takes many worker
    // poll intervals, so the external workers provably claim some.
    let mut config = sharded_config();
    config.ga.generations = 3;
    config.monte_carlo.samples = 240;
    config.variation_batch = 2;
    let expected = {
        let mut serial = config.clone();
        serial.sharded = false;
        FlowBuilder::new(serial)
            .with_seed(123)
            .run()
            .expect("reference flow completes")
            .determinism_digest()
    };

    config.ga.seed = 123;
    config.monte_carlo.seed = 123;
    let optimizer = ayb_moo::OptimizerConfig::Wbga(config.ga);
    let run_id = store
        .enqueue_run(123, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string();

    let doomed = spawn_shard_worker(&root);
    let survivor = spawn_shard_worker(&root);

    // The submitter executes in a thread; the main thread watches the store
    // and SIGKILLs one worker as soon as the variation stage is provably in
    // flight (per-point checkpoints exist), so the kill lands mid-epoch.
    let submitter = {
        let store = store.clone();
        let run_id = run_id.clone();
        std::thread::spawn(move || {
            FlowBuilder::resume(&store, &run_id)
                .expect("resume builds")
                .run()
                .expect("sharded flow completes despite the killed worker")
        })
    };
    let handle = store.run(&run_id).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while handle
        .variation_checkpoint_indices()
        .map(|indices| indices.len() < 2)
        .unwrap_or(true)
        && std::time::Instant::now() < deadline
        && !handle.has_result()
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut doomed = doomed;
    doomed.kill().expect("doomed worker SIGKILLed");
    let doomed_output = doomed.wait_with_output().expect("doomed worker reaped");

    let result = submitter.join().expect("submitter thread joins");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "worker processes and a SIGKILL mid-variation change nothing"
    );

    let mut survivor = survivor;
    survivor.kill().expect("survivor stops");
    let survivor_output = survivor.wait_with_output().expect("survivor reaped");
    let worker_logs = format!(
        "{}{}",
        String::from_utf8_lossy(&doomed_output.stderr),
        String::from_utf8_lossy(&survivor_output.stderr)
    );
    assert!(
        worker_logs.contains("serviced variation point"),
        "external worker processes analysed at least one point; logs:\n{worker_logs}"
    );

    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None);
    assert_eq!(handle.shard_summary().unwrap(), ShardSummary::default());
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}
