//! Integration tests for sharded multi-process execution: a flow run with
//! `sharded` evaluation produces a `determinism_digest` bit-identical to the
//! single-process run — alone, through a drain job server, and across
//! multiple `ayb serve --shards-only` worker *processes* sharing one store,
//! including after one of those workers is SIGKILLed mid-run and its shard
//! claims are recovered. The same holds for the sharded Monte Carlo
//! variation stage (one task per Pareto point), and a flow interrupted
//! mid-variation resumes from its per-point checkpoints without re-analysing
//! completed points. Both shard planes, disk and TCP, follow one claim rule.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowObserver, FlowResult, FlowStage, VariationBoundary,
    VariationHaltHook,
};
use ayb_jobs::{JobServer, JobServerConfig};
use ayb_moo::{
    CheckpointError, Evaluation, OptimizerConfig, ShardOutcome, ShardSource, ShardTransport,
    ShardWork, ShardWorkKind, CLAIM_STALE_AFTER,
};
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_obs::{kind as event_kind, Recorder};
use ayb_store::{RunStatus, ShardDataPlane, ShardSummary, Store};
use serde::Serialize;
use std::path::{Path, PathBuf};
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

/// A client of the claim-rule script: two of them, as two processes would
/// hold them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Who {
    A,
    B,
}

/// One step of a claim-rule script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The client claims a shard (0 is published, 1 is not).
    Claim(Who, usize),
    /// The client submits shard 0's outcome, which names it.
    Submit(Who),
    /// The holder goes stale: the script sleeps past the stale bound without
    /// a heartbeat.
    GoStale,
}

/// What a plane showed after one step: the claim granted or the submit
/// accepted, the granted claim's token (0 otherwise), who the fetched
/// outcome of shard 0 names, and the plane's `shard_recover` count so far.
type Seen = (bool, u64, Option<Who>, usize);

/// A named script, the coordinator's stale bound it runs with, and what the
/// claim rule says each step shows.
type Script = (&'static str, Duration, Vec<(Step, Seen)>);

/// Makes shard 0's claim of an epoch stale, by the plane's own means.
type GoStale = Box<dyn Fn(&str)>;

/// One shard plane with the two clients of a script.
struct RulePlane {
    name: &'static str,
    clients: [Box<dyn ShardTransport>; 2],
    /// The clients' own events; a granted claim's token is on its
    /// `shard_claim` event.
    claims: Recorder,
    /// Where the plane reports `shard_recover`.
    takeovers: Recorder,
    go_stale: GoStale,
    _coordinator: Option<Coordinator>,
}

/// Back-dates the modification time of the file at `path` by `age`: a
/// claim heartbeat that lapsed `age` ago.
fn age_file(path: &Path, age: Duration) {
    std::fs::File::options()
        .append(true)
        .open(path)
        .expect("the claim file exists")
        .set_modified(std::time::SystemTime::now() - age)
        .expect("the claim file's mtime is settable");
}

/// A disk claim goes stale by its heartbeat lapsing past the 30 s bound:
/// its claim file is back-dated a minute.
fn disk_go_stale(shards: &Path) -> GoStale {
    let shards = shards.to_path_buf();
    Box::new(move |epoch| {
        let claim = shards.join(epoch).join("shard_0000.claim.json");
        age_file(&claim, Duration::from_secs(60));
    })
}

/// A coordinator's claim goes stale by the script sleeping past its bound
/// without a heartbeat.
fn tcp_go_stale(stale_after: Duration) -> GoStale {
    Box::new(move |_| std::thread::sleep(stale_after + Duration::from_millis(30)))
}

fn disk_rule_plane(dir: &Path) -> RulePlane {
    let recorder = Recorder::new();
    let client = || -> Box<dyn ShardTransport> {
        Box::new(ShardDataPlane::open(dir).with_recorder(recorder.clone()))
    };
    RulePlane {
        name: "disk",
        clients: [client(), client()],
        claims: recorder.clone(),
        takeovers: recorder.clone(),
        go_stale: disk_go_stale(dir),
        _coordinator: None,
    }
}

fn tcp_rule_plane(stale_after: Duration) -> RulePlane {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig { stale_after })
        .expect("coordinator binds an ephemeral port");
    let recorder = Recorder::new();
    let client = || -> Box<dyn ShardTransport> {
        let transport = TcpTransport::from_url(&coordinator.url()).expect("coordinator URL");
        Box::new(transport.with_recorder(recorder.clone()))
    };
    RulePlane {
        name: "tcp",
        clients: [client(), client()],
        claims: recorder.clone(),
        takeovers: coordinator.recorder().clone(),
        go_stale: tcp_go_stale(stale_after),
        _coordinator: Some(coordinator),
    }
}

fn outcome_of(who: Who) -> ShardOutcome {
    let tag = match who {
        Who::A => 1.0,
        Who::B => 2.0,
    };
    ShardOutcome::Eval {
        results: vec![Some(Evaluation::new(vec![tag], vec![tag]))],
    }
}

/// Runs `script` on a fresh two-shard epoch of `plane` (shard 0 published,
/// shard 1 not) and returns what each step showed.
fn run_claim_script(plane: &RulePlane, script: &[Step]) -> Vec<Seen> {
    let client = |who: Who| &plane.clients[who as usize];
    let count = |recorder: &Recorder, kind: &str| {
        let events = recorder.recent();
        events.iter().filter(|event| event.kind == kind).count()
    };
    let epoch = client(Who::A)
        .open_typed_epoch(ShardWorkKind::Eval, 2)
        .unwrap();
    let work = ShardWork::Eval {
        parameters: vec![vec![0.5]],
    };
    client(Who::A).publish_work(&epoch, 0, &work).unwrap();
    let seen = script
        .iter()
        .map(|&step| {
            let (ok, token) = match step {
                Step::Claim(who, shard) => {
                    let granted = client(who).try_claim(&epoch, shard).unwrap();
                    let events = plane.claims.recent();
                    let claim = events
                        .iter()
                        .rev()
                        .find(|event| event.kind == event_kind::SHARD_CLAIM);
                    let token = claim.and_then(|event| event.fence).filter(|_| granted);
                    (granted, token.unwrap_or(0))
                }
                Step::Submit(who) => {
                    let fenced = client(who).stats().fenced_rejections;
                    client(who)
                        .submit_outcome(&epoch, 0, &outcome_of(who))
                        .unwrap();
                    (client(who).stats().fenced_rejections == fenced, 0)
                }
                Step::GoStale => {
                    (plane.go_stale)(&epoch);
                    (true, 0)
                }
            };
            let fetched = client(Who::A).fetch_outcome(&epoch, 0).unwrap();
            let named = [Who::A, Who::B]
                .into_iter()
                .find(|&who| fetched.as_ref() == Some(&outcome_of(who)));
            (
                ok,
                token,
                named,
                count(&plane.takeovers, event_kind::SHARD_RECOVER),
            )
        })
        .collect();
    client(Who::A).close_epoch(&epoch).unwrap();
    seen
}

/// The claim rule of `ShardTransport`, scripted step by step on the disk
/// plane and on a live coordinator over TCP: both must show the same grant,
/// token, acceptance, fetched outcome and `shard_recover` count at every
/// step. A holder goes stale on disk by a back-dated claim file, over TCP by
/// sleeping past a 50 ms coordinator bound; the script whose holder must
/// stay live uses the rule's bound, so a slow host cannot turn it stale
/// mid-script.
#[test]
fn both_shard_planes_follow_one_claim_rule() {
    use Step::{Claim, GoStale, Submit};
    use Who::{A, B};
    let short = Duration::from_millis(50);
    let refused = (false, 0, None, 0);
    let scripts: [Script; 4] = [
        (
            "refused claims mint nothing; a finished shard is not claimable",
            CLAIM_STALE_AFTER,
            vec![
                (Claim(A, 0), (true, 1, None, 0)),
                (Claim(B, 0), refused),
                (Claim(B, 0), refused),
                (Claim(B, 0), refused),
                (Submit(A), (true, 0, Some(A), 0)),
                (Claim(B, 0), (false, 0, Some(A), 0)),
            ],
        ),
        (
            "a stale claim is taken over and its late submit fenced off",
            short,
            vec![
                (Claim(A, 0), (true, 1, None, 0)),
                (GoStale, (true, 0, None, 0)),
                (Claim(B, 0), (true, 2, None, 1)),
                (Submit(A), (false, 0, None, 1)),
                (Submit(B), (true, 0, Some(B), 1)),
            ],
        ),
        (
            "a stale claim nobody took over still submits",
            short,
            vec![
                (Claim(A, 0), (true, 1, None, 0)),
                (GoStale, (true, 0, None, 0)),
                (Submit(A), (true, 0, Some(A), 0)),
            ],
        ),
        (
            "an unpublished shard is not claimable",
            short,
            vec![(Claim(A, 1), refused)],
        ),
    ];
    let (root, _store) = temp_store("claim-rule");
    let mut mismatches = Vec::new();
    for (index, (name, stale_after, rows)) in scripts.iter().enumerate() {
        let steps: Vec<Step> = rows.iter().map(|(step, _)| *step).collect();
        let expected: Vec<Seen> = rows.iter().map(|(_, seen)| *seen).collect();
        let dir = root.join(format!("script-{index}"));
        for plane in [disk_rule_plane(&dir), tcp_rule_plane(*stale_after)] {
            let seen = run_claim_script(&plane, &steps);
            for ((step, want), got) in steps.iter().zip(&expected).zip(&seen) {
                if want != got {
                    mismatches.push(format!(
                        "{} plane, {name}: {step:?} showed {got:?}, the rule says {want:?}",
                        plane.name
                    ));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(root);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// One step of the worker script: a worker claims the next shard or submits
/// its claim's outcome, or the holder's claim goes stale.
#[derive(Debug, Clone, Copy)]
enum WorkerStep {
    ClaimNext(Who),
    Submit(Who),
    GoStale,
}

/// What a worker plane showed after one step: the claim granted or the
/// submit accepted, the granted claim's token (0 otherwise), whether the
/// claim carried the published work and its submitter's context, the
/// plane's `shard_recover` count so far, and its open shard count.
type WorkerSeen = (bool, u64, bool, usize, usize);

/// One shard plane's worker side: two workers, and the submitter that
/// publishes the work they claim.
struct WorkerPlane {
    name: &'static str,
    workers: [Box<dyn ShardSource>; 2],
    submitter: Box<dyn ShardTransport>,
    /// The context every claimed shard must carry.
    context: serde::Value,
    /// Where the plane reports `shard_recover`.
    takeovers: Recorder,
    go_stale: GoStale,
    _coordinator: Option<Coordinator>,
}

/// The store's disk plane: a `Running` run publishes through its run's
/// plane, and two store-wide sources claim from it.
fn disk_worker_plane(store: &Store) -> WorkerPlane {
    let flow = small_config();
    let run = store
        .create_run(1, &OptimizerConfig::Wbga(flow.ga), &flow)
        .expect("a Running run hosts the shards");
    let recorder = Recorder::new();
    let worker = || -> Box<dyn ShardSource> {
        Box::new(store.shard_source().with_recorder(recorder.clone()))
    };
    WorkerPlane {
        name: "disk",
        workers: [worker(), worker()],
        submitter: Box::new(run.shard_plane()),
        context: flow.to_value(),
        takeovers: recorder.clone(),
        go_stale: disk_go_stale(&run.dir().join("shards")),
        _coordinator: None,
    }
}

/// A live coordinator: the submitter announces the flow as its run's
/// context, and two transports claim from it.
fn tcp_worker_plane(stale_after: Duration) -> WorkerPlane {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig { stale_after })
        .expect("coordinator binds an ephemeral port");
    let transport = || TcpTransport::from_url(&coordinator.url()).expect("coordinator URL");
    let context = small_config().to_value();
    WorkerPlane {
        name: "tcp",
        workers: [Box::new(transport()), Box::new(transport())],
        submitter: Box::new(transport().with_run_context("worker-script", context.clone())),
        context,
        takeovers: coordinator.recorder().clone(),
        go_stale: tcp_go_stale(stale_after),
        _coordinator: Some(coordinator),
    }
}

/// Runs `script` on a fresh one-shard epoch of `plane`'s submitter and
/// returns what each step showed.
fn run_worker_script(plane: &WorkerPlane, script: &[WorkerStep]) -> Vec<WorkerSeen> {
    let epoch = plane
        .submitter
        .open_typed_epoch(ShardWorkKind::Eval, 1)
        .unwrap();
    let work = ShardWork::Eval {
        parameters: vec![vec![0.5]],
    };
    plane.submitter.publish_work(&epoch, 0, &work).unwrap();
    let mut held = [None, None];
    let seen = script
        .iter()
        .map(|&step| {
            let (ok, token, carried) = match step {
                WorkerStep::ClaimNext(who) => {
                    match plane.workers[who as usize].claim_next("worker").unwrap() {
                        Some(claimed) => {
                            let carried = claimed.epoch == epoch
                                && claimed.work == work
                                && claimed.context.as_ref() == Some(&plane.context);
                            let token = claimed.token;
                            held[who as usize] = Some(claimed);
                            (true, token, carried)
                        }
                        None => (false, 0, false),
                    }
                }
                WorkerStep::Submit(who) => {
                    let claimed = held[who as usize]
                        .as_ref()
                        .expect("the worker holds a claim");
                    let accepted = plane.workers[who as usize]
                        .submit_claimed(claimed, &outcome_of(who))
                        .unwrap();
                    (accepted, 0, false)
                }
                WorkerStep::GoStale => {
                    (plane.go_stale)(&epoch);
                    (true, 0, false)
                }
            };
            let recovered = plane.takeovers.recent();
            let recovered = recovered
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_RECOVER)
                .count();
            let open = plane.workers[0].open_shards().unwrap();
            (ok, token, carried, recovered, open)
        })
        .collect();
    plane.submitter.close_epoch(&epoch).unwrap();
    seen
}

/// The worker side of both shard planes, `ShardSource`, scripted step by
/// step on the store's disk plane and on a live coordinator over TCP: a
/// claim carries the published work and its submitter's context, a live
/// claim refuses the next worker and mints nothing, a stale one is taken
/// over at the next token and reported once, the first holder's submit is
/// fenced off and the second's accepted, and a claimed shard counts as open
/// until its outcome lands. The holder goes stale on disk by a back-dated
/// claim file, over TCP by sleeping past a 1 s coordinator bound.
#[test]
fn both_shard_planes_serve_one_worker_script() {
    use Who::{A, B};
    use WorkerStep::{ClaimNext, GoStale, Submit};
    let rows: [(WorkerStep, WorkerSeen); 6] = [
        (ClaimNext(A), (true, 1, true, 0, 1)),
        (ClaimNext(B), (false, 0, false, 0, 1)),
        (GoStale, (true, 0, false, 0, 1)),
        (ClaimNext(B), (true, 2, true, 1, 1)),
        (Submit(A), (false, 0, false, 1, 1)),
        (Submit(B), (true, 0, false, 1, 0)),
    ];
    let steps: Vec<WorkerStep> = rows.iter().map(|(step, _)| *step).collect();
    let (root, store) = temp_store("worker-script");
    let mut mismatches = Vec::new();
    for plane in [
        disk_worker_plane(&store),
        tcp_worker_plane(Duration::from_secs(1)),
    ] {
        let seen = run_worker_script(&plane, &steps);
        for ((step, want), got) in rows.iter().zip(&seen) {
            if want != got {
                mismatches.push(format!(
                    "{} plane: {step:?} showed {got:?}, the script says {want:?}",
                    plane.name
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(root);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
