//! Integration tests for the job-server layer (`ayb_jobs`): N runs through a
//! multi-worker [`JobServer`] digest bit-identically to the same seeds run
//! sequentially, a SIGKILL'd worker's run is re-claimed on restart and
//! resumes to the identical digest, graceful shutdown halts at checkpoint
//! boundaries, two servers sharing one store never execute a run twice, and
//! a shards-only worker services every shard shape on both data planes.

use ayb_core::{analyse_variation_point, FlowBuilder, FlowConfig, FlowResult, OtaSizingProblem};
use ayb_jobs::{JobEvent, JobReport, JobServer, JobServerConfig};
use ayb_moo::{
    CheckpointError, OptimizerConfig, ShardOutcome, ShardTransport, ShardWork, ShardWorkKind,
    SizingProblem, VariationPointWork,
};
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_store::{RunStatus, Store};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-jobs-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

/// The trimmed reduced-scale configuration the resume tests also use: full
/// five-stage flow, seconds of wall clock.
fn small_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 10;
    config.max_pareto_points = 8;
    config
}

/// Sequential (store-less) reference digest for a seed.
fn reference_digest(seed: u64) -> u64 {
    FlowBuilder::new(small_config())
        .with_seed(seed)
        .run()
        .expect("reference flow completes")
        .determinism_digest()
}

/// Submits a seed the way `ayb submit` does, returning the run id.
fn submit(store: &Store, seed: u64) -> String {
    let mut config = small_config();
    config.ga.seed = seed;
    config.monte_carlo.seed = seed;
    let optimizer = OptimizerConfig::Wbga(config.ga);
    store
        .enqueue_run(seed, &optimizer, &config)
        .expect("enqueue succeeds")
        .id()
        .to_string()
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
fn served_runs_digest_identically_to_sequential_runs() {
    let (root, store) = temp_store("digests");
    let seeds = [11u64, 22, 33];
    let expected: Vec<u64> = seeds.iter().map(|&seed| reference_digest(seed)).collect();

    let submitted: Vec<String> = seeds.iter().map(|&seed| submit(&store, seed)).collect();
    let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(3));
    let report = server.run().expect("server drains");

    assert_eq!(report.completed.len(), 3, "report: {report:?}");
    assert!(report.failed.is_empty() && report.interrupted.is_empty());
    for (run_id, expected) in submitted.iter().zip(&expected) {
        let handle = store.run(run_id).unwrap();
        assert_eq!(handle.status().unwrap(), RunStatus::Completed);
        assert_eq!(handle.claim().unwrap(), None, "claims are released");
        assert_eq!(
            stored_digest(&store, run_id),
            *expected,
            "{run_id}: a multi-worker server changes nothing about the result"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn sigkilled_workers_run_is_reclaimed_and_resumes_bit_identically() {
    let (root, store) = temp_store("reclaim");
    let expected = reference_digest(77);
    let run_id = submit(&store, 77);

    // Execute the queued run partially (3 checkpoints), as a server worker
    // would, then halt — on-disk state identical to a crash.
    let halted = FlowBuilder::resume(&store, &run_id)
        .expect("resume builds")
        .halt_after_checkpoints(3)
        .run();
    assert!(matches!(
        halted,
        Err(ayb_core::AybError::Checkpoint(
            CheckpointError::Halted { .. }
        ))
    ));
    let handle = store.run(&run_id).unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Interrupted);

    // Forge the rest of the SIGKILL aftermath: status still `Running` and a
    // claim whose holder is long dead (no Linux pid is ever u32::MAX). The
    // host is this machine's, so pid liveness — not heartbeat age — decides.
    handle.set_status(RunStatus::Running).unwrap();
    let dead_claim = ayb_store::ClaimInfo {
        pid: u32::MAX,
        claimed_unix: 1,
        ..ayb_store::ClaimInfo::for_this_process("dead-worker")
    };
    std::fs::write(
        handle.dir().join("claim.json"),
        serde_json::to_string_pretty(&dead_claim).unwrap(),
    )
    .unwrap();

    // A fresh server must break the stale claim, re-queue the run, resume it
    // from checkpoint 3 and finish with the reference digest.
    let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(2));
    let report = server.run().expect("server drains");
    assert_eq!(report.requeued, vec![run_id.clone()]);
    assert_eq!(report.completed, vec![run_id.clone()]);
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(handle.claim().unwrap(), None);
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn hung_workers_run_is_stolen_once_its_heartbeat_lapses() {
    let (root, store) = temp_store("steal-hung");
    let expected = reference_digest(78);
    let run_id = submit(&store, 78);

    let halted = FlowBuilder::resume(&store, &run_id)
        .expect("resume builds")
        .halt_after_checkpoints(3)
        .run();
    assert!(halted.is_err(), "halted mid-run");
    let handle = store.run(&run_id).unwrap();

    // Forge a *hung* holder: this very process (alive pid, same host) whose
    // claim heartbeat has gone quiet. Pre-fencing, recovery spared these
    // forever; now the claim carries a fence token and is stolen once the
    // heartbeat exceeds the reclaim grace.
    handle.set_status(RunStatus::Running).unwrap();
    let hung_claim = ayb_store::ClaimInfo::for_this_process("hung-worker").with_fence(1);
    std::fs::write(
        handle.dir().join("claim.json"),
        serde_json::to_string_pretty(&hung_claim).unwrap(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let mut config = JobServerConfig::drain_with_workers(2);
    config.reclaim_grace = Duration::from_millis(50);
    let server = JobServer::new(store.clone(), config);
    let report = server.run().expect("server drains");
    assert_eq!(report.requeued, vec![run_id.clone()]);
    assert_eq!(report.completed, vec![run_id.clone()]);
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn graceful_shutdown_halts_at_a_checkpoint_and_the_run_resumes() {
    let (root, store) = temp_store("shutdown");
    let expected = reference_digest(55);
    let run_id = submit(&store, 55);

    // Serve in poll mode; shut the server down from its own event stream as
    // soon as the run's first checkpoint lands.
    let config = JobServerConfig {
        workers: 1,
        poll_interval: Duration::from_millis(20),
        ..JobServerConfig::default()
    };
    let server = JobServer::new(store.clone(), config);
    let shutdown = server.shutdown_handle();
    let trigger = shutdown.clone();
    server.set_event_hook(move |event| {
        if matches!(event, JobEvent::CheckpointWritten { .. }) {
            trigger.shutdown();
        }
    });
    let report = std::thread::spawn(move || server.run().expect("server stops cleanly"))
        .join()
        .expect("server thread joins");
    assert!(shutdown.is_shutdown());
    assert_eq!(
        report.interrupted,
        vec![run_id.clone()],
        "report: {report:?}"
    );

    // The halt was graceful: resumable state, no claim, checkpoints on disk.
    let handle = store.run(&run_id).unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Interrupted);
    assert_eq!(handle.claim().unwrap(), None);
    assert!(!handle.checkpoint_generations().unwrap().is_empty());

    // A drain server finishes the interrupted run to the reference digest.
    let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(1));
    let report = server.run().expect("drain server finishes");
    assert_eq!(report.requeued, vec![run_id.clone()]);
    assert_eq!(report.completed, vec![run_id.clone()]);
    assert_eq!(stored_digest(&store, &run_id), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn long_lived_server_adopts_runs_stranded_after_startup() {
    let (root, store) = temp_store("adopt");
    let expected = reference_digest(99);

    // A long-lived server over an (initially) empty store, with a fast
    // periodic recovery pass.
    let config = JobServerConfig {
        workers: 1,
        poll_interval: Duration::from_millis(20),
        recovery_interval: Duration::from_millis(100),
        ..JobServerConfig::default()
    };
    let server = JobServer::new(store.clone(), config);
    let shutdown = server.shutdown_handle();
    let (sender, receiver) = std::sync::mpsc::channel();
    server.set_event_hook(move |event| {
        if let JobEvent::Completed { run_id, .. } = event {
            let _ = sender.send(run_id.clone());
        }
    });
    let server_thread = std::thread::spawn(move || server.run().expect("server stops cleanly"));

    // After the server started (so its *startup* recovery never saw it),
    // strand an interrupted run: it is never `Queued`, so only the periodic
    // recovery pass can adopt it.
    let halted = FlowBuilder::new(small_config())
        .with_seed(99)
        .with_store(&store)
        .with_run_id("stranded")
        .halt_after_checkpoints(2)
        .run();
    assert!(matches!(
        halted,
        Err(ayb_core::AybError::Checkpoint(
            CheckpointError::Halted { .. }
        ))
    ));
    let handle = store.run("stranded").unwrap();
    assert_eq!(handle.status().unwrap(), RunStatus::Interrupted);

    // The running server must re-queue and finish it without a restart.
    let completed = receiver
        .recv_timeout(Duration::from_secs(60))
        .expect("server adopts the stranded run");
    assert_eq!(completed, "stranded");
    shutdown.shutdown();
    let report = server_thread.join().expect("server thread joins");
    assert_eq!(report.requeued, vec!["stranded".to_string()]);
    assert_eq!(report.completed, vec!["stranded".to_string()]);
    assert_eq!(handle.status().unwrap(), RunStatus::Completed);
    assert_eq!(stored_digest(&store, "stranded"), expected);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn two_servers_share_one_store_without_double_execution() {
    let (root, store) = temp_store("two-servers");
    let seeds = [1u64, 2, 3, 4];
    let submitted: Vec<String> = seeds.iter().map(|&seed| submit(&store, seed)).collect();

    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = JobServer::new(store.clone(), JobServerConfig::drain_with_workers(2));
                scope.spawn(move || server.run().expect("server drains"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every run completed exactly once across the two servers; the claim
    // losers show up as skips, never as second executions.
    let mut completed: Vec<String> = reports
        .iter()
        .flat_map(|report| report.completed.iter().cloned())
        .collect();
    completed.sort();
    let mut expected = submitted.clone();
    expected.sort();
    assert_eq!(completed, expected, "reports: {reports:?}");
    assert!(reports.iter().all(|r| r.failed.is_empty()));
    for run_id in &submitted {
        let handle = store.run(run_id).unwrap();
        assert_eq!(handle.status().unwrap(), RunStatus::Completed);
        assert!(handle.has_result());
        assert_eq!(handle.claim().unwrap(), None);
    }
    let _ = std::fs::remove_dir_all(root);
}

// ---------------------------------------------------------------------------
// Shard servicing: what a shards-only worker does with each payload shape
// ---------------------------------------------------------------------------

/// The problem a worker rebuilds from `flow`, as the submitting flow does.
fn flow_problem(flow: &FlowConfig) -> OtaSizingProblem {
    OtaSizingProblem::new(flow.testbench, flow.sweep.clone()).with_threads(flow.threads)
}

/// A normalised parameter vector of the OTA with every gene at `gene`.
fn genes(flow: &FlowConfig, gene: f64) -> Vec<f64> {
    vec![gene; flow_problem(flow).parameter_count()]
}

/// Publishes every shard shape a worker must service through `plane`, for
/// nobody but the worker under test to claim: one `Eval` shard of two
/// candidates, and variation batches of one and of three points. Returns
/// each shard's `(epoch, index, work)`.
fn publish_every_shape(
    plane: &dyn ShardTransport,
    flow: &FlowConfig,
) -> Vec<(String, usize, ShardWork)> {
    let eval_epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
    let eval = ShardWork::Eval {
        parameters: vec![genes(flow, 0.5), genes(flow, 0.25)],
    };
    plane.publish_work(&eval_epoch, 0, &eval).unwrap();
    let var_epoch = plane.open_typed_epoch(ShardWorkKind::Variation, 2).unwrap();
    let batch = |points: &[(f64, u64)]| ShardWork::VariationBatch {
        points: points
            .iter()
            .map(|&(gene, mc_seed)| VariationPointWork {
                parameters: genes(flow, gene),
                mc_seed,
            })
            .collect(),
    };
    let one = batch(&[(0.5, 11)]);
    let three = batch(&[(0.4, 12), (0.5, 13), (0.6, 14)]);
    plane.publish_work(&var_epoch, 0, &one).unwrap();
    plane.publish_work(&var_epoch, 1, &three).unwrap();
    vec![
        (eval_epoch, 0, eval),
        (var_epoch.clone(), 0, one),
        (var_epoch, 1, three),
    ]
}

/// Runs `server` until every shard's outcome can be fetched through
/// `plane`, then shuts it down; returns its report and the outcomes.
fn serve_until_fetched(
    server: JobServer,
    plane: &dyn ShardTransport,
    shards: &[(String, usize, ShardWork)],
) -> (JobReport, Vec<ShardOutcome>) {
    let shutdown = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run().expect("server runs"));
        let deadline = Instant::now() + Duration::from_secs(120);
        let outcomes = loop {
            let fetched: Vec<Option<ShardOutcome>> = shards
                .iter()
                .map(|(epoch, shard, _)| plane.fetch_outcome(epoch, *shard).unwrap())
                .collect();
            if fetched.iter().all(Option::is_some) {
                break fetched.into_iter().flatten().collect();
            }
            assert!(
                Instant::now() < deadline,
                "the worker never serviced every shard"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        shutdown.shutdown();
        (serving.join().expect("server thread joins"), outcomes)
    })
}

/// Every outcome equals what the submitting flow computes locally for the
/// same payload: the evaluations themselves, and each point's variation
/// data compared as serialised JSON (`elapsed_seconds` is wall clock).
fn assert_serviced_like_the_submitter(
    flow: &FlowConfig,
    shards: &[(String, usize, ShardWork)],
    outcomes: &[ShardOutcome],
) {
    let problem = flow_problem(flow);
    let mut analysed = 0;
    for ((_, _, work), outcome) in shards.iter().zip(outcomes) {
        match (work, outcome) {
            (ShardWork::Eval { parameters }, ShardOutcome::Eval { results }) => {
                assert_eq!(results, &problem.evaluate_batch(parameters));
            }
            (
                ShardWork::VariationBatch { points },
                ShardOutcome::VariationBatch { points: got },
            ) => {
                assert_eq!(got.len(), points.len(), "one outcome per point");
                for (point, got) in points.iter().zip(got) {
                    let local =
                        analyse_variation_point(&problem, &point.parameters, flow, point.mc_seed)
                            .map(|data| data.to_value());
                    analysed += usize::from(local.is_some());
                    assert_eq!(
                        serde_json::to_string(&got.data).unwrap(),
                        serde_json::to_string(&local).unwrap(),
                        "point with seed {}",
                        point.mc_seed
                    );
                }
            }
            other => panic!("outcome of the wrong shape: {other:?}"),
        }
    }
    assert!(analysed > 0, "at least one point carries variation data");
}

#[test]
fn a_shards_only_worker_services_every_shard_shape_on_disk() {
    let (root, store) = temp_store("shapes-disk");
    let flow = FlowConfig::reduced();
    let run = store
        .create_run(flow.ga.seed, &OptimizerConfig::Wbga(flow.ga), &flow)
        .expect("a Running run hosts the shards");
    let plane = run.shard_plane(Duration::from_secs(60));
    let shards = publish_every_shape(&plane, &flow);

    let server = JobServer::new(store.clone(), JobServerConfig::shards_only_with_workers(1));
    let (report, outcomes) = serve_until_fetched(server, &plane, &shards);
    assert_serviced_like_the_submitter(&flow, &shards, &outcomes);
    assert_eq!(report.shards_serviced, 3, "{report:?}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_shards_only_worker_services_every_shard_shape_over_tcp() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
        .expect("coordinator binds an ephemeral port");
    let (root, store) = temp_store("shapes-tcp");
    let flow = FlowConfig::reduced();
    let plane = TcpTransport::from_url(&coordinator.url())
        .expect("coordinator URL parses")
        .with_run_context("shapes-tcp", flow.to_value());
    let shards = publish_every_shape(&plane, &flow);

    let mut config = JobServerConfig::shards_only_with_workers(1);
    config.transport = Some(coordinator.url());
    let server = JobServer::new(store.clone(), config);
    let (report, outcomes) = serve_until_fetched(server, &plane, &shards);
    assert_serviced_like_the_submitter(&flow, &shards, &outcomes);
    assert_eq!(report.shards_serviced, 3, "{report:?}");
    let _ = std::fs::remove_dir_all(root);
}

/// A task in the retired single-point variation shape (what a pre-batching
/// peer would publish) is declined: no result, no service counted, and no
/// claim left behind, so the task stays on offer for its own submitter.
#[test]
fn a_retired_single_point_variation_task_is_declined_and_stays_claimable() {
    let (root, store) = temp_store("retired-shape");
    let flow = FlowConfig::reduced();
    let run = store
        .create_run(flow.ga.seed, &OptimizerConfig::Wbga(flow.ga), &flow)
        .expect("a Running run hosts the shards");
    let plane = run.shard_plane(Duration::from_secs(60));
    let epoch = plane.open_typed_epoch(ShardWorkKind::Variation, 1).unwrap();
    let epoch_dir = run.dir().join("shards").join(&epoch);
    let task = format!(
        r#"{{"Variation": {{"parameters": {}, "mc_seed": 7}}}}"#,
        serde_json::to_string(&genes(&flow, 0.5)).unwrap()
    );
    std::fs::write(epoch_dir.join("shard_0000.task.json"), task).unwrap();

    let server = JobServer::new(store.clone(), JobServerConfig::shards_only_with_workers(1));
    let shutdown = server.shutdown_handle();
    let report = std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run().expect("server runs"));
        // Every claim mints the shard's next fence first: once the fence
        // file exists, the worker has claimed the task at least once.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !epoch_dir.join("shard_0000.fence.json").is_file() {
            assert!(Instant::now() < deadline, "the worker never tried the task");
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.shutdown();
        serving.join().expect("server thread joins")
    });

    assert_eq!(report.shards_serviced, 0, "{report:?}");
    assert_eq!(
        plane.fetch_outcome(&epoch, 0).unwrap(),
        None,
        "no result was written"
    );
    assert!(
        !epoch_dir.join("shard_0000.claim.json").exists(),
        "the declined claim was released"
    );
    let offered = store.open_shard_tasks().unwrap();
    assert_eq!(offered.len(), 1, "the task is offered again");
    assert_eq!(offered[0].epoch(), epoch);
    let _ = std::fs::remove_dir_all(root);
}
