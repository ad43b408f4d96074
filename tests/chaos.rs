//! Deterministic chaos harness for durable sharded flows.
//!
//! A *crash schedule* is a scripted sequence of kill-points expressed
//! through the flow's own deterministic halt hooks — optimiser checkpoint
//! boundaries (`FlowBuilder::halt_after_checkpoints`) and variation-stage
//! boundaries (`FlowBuilder::halt_variation_when`: task claim, result
//! write, epoch close). Halting at a boundary leaves the on-disk run
//! indistinguishable from a SIGKILL there (apart from the recorded
//! `Interrupted` status), so driving one run through a schedule of
//! halt-and-resume cycles simulates an arbitrarily unlucky sequence of
//! crashes.
//!
//! The harness ([`run_with_chaos`]) executes a run under a schedule,
//! resuming after every scripted crash until the flow completes, and the
//! tests assert the invariant everything else rests on: **every schedule
//! converges to the same `determinism_digest`** as the clean serial run.
//! Schedules are derived from seeds ([`schedule_from_seed`]), so failures
//! reproduce exactly; future PRs can reuse the harness by composing new
//! [`KillPoint`]s.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowResult, VariationBoundary, VariationHaltHook,
};
use ayb_moo::{CheckpointError, ShardTransport, ShardWork};
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_obs::{kind as event_kind, trace, JsonlSink, Recorder};
use ayb_store::{RunHandle, RunStatus, ShardOutcome, ShardSummary, Store, VariationOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Which kind of variation-stage boundary a kill-point targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundaryKind {
    /// Between claiming a point's analysis task and producing its result.
    Claim,
    /// Right after a point's result (and checkpoint) landed.
    ResultWrite,
    /// Right before the variation epoch is disposed of.
    EpochClose,
}

/// What a crash at a generation checkpoint's commit points leaves on disk.
/// A save appends the generation's evaluations to `archive.jsonl`, then
/// renames its snapshot `gen_NNNN.json` into place; neither is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommitFault {
    /// Killed between the log append and the snapshot rename: the log holds
    /// the generation, its snapshot is still a staged temp file.
    SnapshotNotRenamed,
    /// A machine crash cut the last few bytes off the log's final record.
    TornLogTail,
    /// A machine crash left the newest snapshot zero-length.
    ZeroLengthSnapshot,
}

impl CommitFault {
    /// Damages the newest generation checkpoint of `run` the way the fault
    /// would have.
    fn apply(self, run: &RunHandle) {
        let checkpoints = run.dir().join("checkpoints");
        let newest = *run
            .checkpoint_generations()
            .expect("checkpoints list")
            .last()
            .expect("a checkpoint to damage");
        let snapshot = checkpoints.join(format!("gen_{newest:04}.json"));
        match self {
            CommitFault::SnapshotNotRenamed => {
                let staged = checkpoints.join(format!("gen_{newest:04}.json.0-0-0.tmp"));
                std::fs::rename(&snapshot, staged).expect("unrename the snapshot");
            }
            CommitFault::TornLogTail => {
                let log = std::fs::OpenOptions::new()
                    .write(true)
                    .open(checkpoints.join("archive.jsonl"))
                    .expect("archive log opens");
                let len = log.metadata().expect("log metadata").len();
                log.set_len(len - 3).expect("tear the log tail");
            }
            CommitFault::ZeroLengthSnapshot => {
                std::fs::write(&snapshot, "").expect("zero the snapshot");
            }
        }
    }
}

/// One scripted crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillPoint {
    /// Crash after the Nth optimiser generation checkpoint of this attempt.
    AtGenerationCheckpoint(usize),
    /// Crash at the Nth variation boundary of `kind` in this attempt.
    AtVariationBoundary(BoundaryKind, usize),
    /// Crash at the commit points of the Nth generation checkpoint of this
    /// attempt, leaving the fault's damage behind.
    TornCheckpoint(usize, CommitFault),
}

/// Derives a reproducible crash schedule (1..=3 kills) from a seed.
fn schedule_from_seed(seed: u64) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kills = rng.gen_range(1..=3usize);
    (0..kills)
        .map(|_| {
            let ordinal = rng.gen_range(1..=3usize);
            match rng.gen_range(0..4usize) {
                0 => KillPoint::AtGenerationCheckpoint(ordinal),
                1 => KillPoint::AtVariationBoundary(BoundaryKind::Claim, ordinal),
                2 => KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, ordinal),
                _ => KillPoint::AtVariationBoundary(BoundaryKind::EpochClose, 1),
            }
        })
        .collect()
}

/// A hook that halts the flow at the `ordinal`-th boundary of `kind`.
fn boundary_hook(kind: BoundaryKind, ordinal: usize) -> VariationHaltHook {
    let seen = AtomicUsize::new(0);
    Arc::new(move |boundary| {
        let matched = matches!(
            (kind, boundary),
            (BoundaryKind::Claim, VariationBoundary::Claim { .. })
                | (
                    BoundaryKind::ResultWrite,
                    VariationBoundary::ResultWrite { .. }
                )
                | (BoundaryKind::EpochClose, VariationBoundary::EpochClose)
        );
        matched && seen.fetch_add(1, Ordering::SeqCst) + 1 >= ordinal
    })
}

/// Executes run `run_id` under a crash schedule: launch, crash at each
/// scripted kill-point in order, resume, and keep going until the flow
/// completes. A kill-point that never fires (the targeted boundary count is
/// not reached in that attempt — e.g. the optimisation already finished, or
/// few points remain) simply lets the attempt complete; that, too, is a
/// legitimate crash history.
///
/// Panics (failing the test) if a resume errors for any reason other than
/// the scripted halt, or if the schedule somehow fails to converge within
/// `schedule.len() + 1` attempts.
fn run_with_chaos(
    store: &Store,
    run_id: &str,
    config: &FlowConfig,
    seed: u64,
    schedule: &[KillPoint],
) -> FlowResult {
    let mut kills = schedule.iter().copied();
    let mut next_kill = kills.next();
    for attempt in 0..=schedule.len() {
        let mut builder = if attempt == 0 {
            FlowBuilder::new(config.clone())
                .with_seed(seed)
                .with_store(store)
                .with_run_id(run_id)
        } else {
            FlowBuilder::resume(store, run_id).expect("interrupted run resumes")
        };
        match next_kill {
            Some(KillPoint::AtGenerationCheckpoint(n) | KillPoint::TornCheckpoint(n, _)) => {
                builder = builder.halt_after_checkpoints(n);
            }
            Some(KillPoint::AtVariationBoundary(kind, n)) => {
                builder = builder.halt_variation_when(boundary_hook(kind, n));
            }
            None => {}
        }
        match builder.run() {
            Ok(result) => return result,
            Err(AybError::Checkpoint(CheckpointError::Halted { .. })) => {
                let handle = store.run(run_id).expect("halted run is readable");
                assert_eq!(
                    handle.status().expect("halted run is readable"),
                    RunStatus::Interrupted,
                    "a scripted crash leaves the run resumable"
                );
                if let Some(KillPoint::TornCheckpoint(_, fault)) = next_kill {
                    fault.apply(&handle);
                }
                next_kill = kills.next();
            }
            Err(error) => panic!("attempt {attempt} failed non-deterministically: {error}"),
        }
    }
    panic!("schedule {schedule:?} did not converge");
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-chaos-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

/// A small sharded configuration whose wall clock is split between the
/// optimisation (4 generations) and the variation stage (8 points), so both
/// families of kill-points land in live code. Variation points travel in
/// batches of 3 (8 points → batches of 3, 3 and 2), so result-write
/// kill-points can land *inside* a batch, between its per-point
/// checkpoints.
fn chaos_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.ga.generations = 4;
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 8;
    config.max_pareto_points = 8;
    config.sharded = true;
    config.shard_size = 3;
    config.variation_batch = 3;
    config
}

const CHAOS_SEED: u64 = 2008;

fn reference_digest() -> u64 {
    let mut serial = chaos_config();
    serial.sharded = false;
    FlowBuilder::new(serial)
        .with_seed(CHAOS_SEED)
        .run()
        .expect("reference flow completes")
        .determinism_digest()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// Hand-picked schedules covering every boundary kind at least once,
/// including back-to-back crashes in the same stage.
#[test]
fn explicit_crash_schedules_converge_to_the_reference_digest() {
    let expected = reference_digest();
    let schedules: &[&[KillPoint]] = &[
        &[KillPoint::AtGenerationCheckpoint(2)],
        &[KillPoint::AtVariationBoundary(BoundaryKind::Claim, 1)],
        &[KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 4)],
        &[KillPoint::AtVariationBoundary(BoundaryKind::EpochClose, 1)],
        &[
            KillPoint::AtGenerationCheckpoint(1),
            KillPoint::AtVariationBoundary(BoundaryKind::Claim, 2),
            KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 1),
            KillPoint::AtVariationBoundary(BoundaryKind::EpochClose, 1),
        ],
    ];
    for (index, schedule) in schedules.iter().enumerate() {
        let (root, store) = temp_store("explicit");
        let run_id = format!("chaos-{index}");
        let result = run_with_chaos(&store, &run_id, &chaos_config(), CHAOS_SEED, schedule);
        assert_eq!(
            result.determinism_digest(),
            expected,
            "schedule {schedule:?} perturbed the result"
        );
        let handle = store.run(&run_id).unwrap();
        assert_eq!(handle.status().unwrap(), RunStatus::Completed);
        assert_eq!(
            handle.shard_summary().unwrap(),
            ShardSummary::default(),
            "no shard debris survives schedule {schedule:?}"
        );
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Crashes landing *inside* a variation batch: with batches of 3, the 2nd
/// result-write boundary is mid-way through the first batch (one point
/// checkpointed, two still pending in the same claimed task), and the 5th
/// is mid-way through the second. A crash there abandons the rest of the
/// batch; the resume must re-chunk only the unfinished points, keep every
/// already-checkpointed point, and still converge to the serial digest.
#[test]
fn crashes_inside_a_variation_batch_converge_to_the_reference_digest() {
    let expected = reference_digest();
    let schedules: &[&[KillPoint]] = &[
        // Mid-first-batch, then mid-second-batch of the re-chunked remainder.
        &[
            KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 2),
            KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 2),
        ],
        // Crash between claiming a batch and its first result write.
        &[
            KillPoint::AtVariationBoundary(BoundaryKind::Claim, 2),
            KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 5),
        ],
    ];
    for (index, schedule) in schedules.iter().enumerate() {
        let (root, store) = temp_store("mid-batch");
        let run_id = format!("chaos-batch-{index}");
        let result = run_with_chaos(&store, &run_id, &chaos_config(), CHAOS_SEED, schedule);
        assert_eq!(
            result.determinism_digest(),
            expected,
            "mid-batch schedule {schedule:?} perturbed the result"
        );
        let handle = store.run(&run_id).unwrap();
        assert_eq!(handle.status().unwrap(), RunStatus::Completed);
        assert_eq!(
            handle.shard_summary().unwrap(),
            ShardSummary::default(),
            "no shard debris survives mid-batch schedule {schedule:?}"
        );
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Seed-derived schedules: N random crash histories, every one of which
/// must converge to the same digest as the clean run. Increasing the seed
/// range is the cheap way for future PRs to buy more coverage.
#[test]
fn seeded_crash_schedules_converge_to_the_reference_digest() {
    let expected = reference_digest();
    for schedule_seed in 0..6u64 {
        let schedule = schedule_from_seed(schedule_seed);
        let (root, store) = temp_store("seeded");
        let run_id = format!("chaos-seed-{schedule_seed}");
        let result = run_with_chaos(&store, &run_id, &chaos_config(), CHAOS_SEED, &schedule);
        assert_eq!(
            result.determinism_digest(),
            expected,
            "seeded schedule {schedule_seed} ({schedule:?}) perturbed the result"
        );
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Crashes at the commit points of a generation checkpoint — between the
/// archive log append and the snapshot rename, with a torn final log
/// record, with a zero-length newest snapshot — fall back to the snapshot
/// before (or, with none left, restart the optimiser) and still converge
/// to the reference digest, mixed with variation-stage crashes too.
#[test]
fn crashes_at_the_checkpoint_commit_points_converge_to_the_reference_digest() {
    let expected = reference_digest();
    for fault in [
        CommitFault::SnapshotNotRenamed,
        CommitFault::TornLogTail,
        CommitFault::ZeroLengthSnapshot,
    ] {
        let schedules: &[&[KillPoint]] = &[
            &[KillPoint::TornCheckpoint(2, fault)],
            // The first crash leaves no usable snapshot at all.
            &[
                KillPoint::TornCheckpoint(1, fault),
                KillPoint::TornCheckpoint(2, fault),
                KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 2),
            ],
        ];
        for (index, schedule) in schedules.iter().enumerate() {
            let (root, store) = temp_store("commit");
            let run_id = format!("commit-{index}");
            let result = run_with_chaos(&store, &run_id, &chaos_config(), CHAOS_SEED, schedule);
            assert_eq!(
                result.determinism_digest(),
                expected,
                "schedule {schedule:?} perturbed the result"
            );
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// The schedule derivation itself is deterministic — the property that makes
/// a chaos failure reproducible from its seed alone.
#[test]
fn schedules_are_reproducible_from_their_seed() {
    for seed in 0..32u64 {
        assert_eq!(schedule_from_seed(seed), schedule_from_seed(seed));
        assert!(!schedule_from_seed(seed).is_empty());
        assert!(schedule_from_seed(seed).len() <= 3);
    }
    // And not all identical.
    let distinct: std::collections::HashSet<String> = (0..32u64)
        .map(|seed| format!("{:?}", schedule_from_seed(seed)))
        .collect();
    assert!(distinct.len() > 3, "schedules vary with the seed");
}

// ---------------------------------------------------------------------------
// Chaos over the network data plane (ayb_net)
// ---------------------------------------------------------------------------

/// The chaos configuration pointed at a coordinator instead of the store's
/// on-disk shard plane.
fn tcp_config(url: &str) -> FlowConfig {
    let mut config = chaos_config();
    config.transport = Some(url.to_string());
    config
}

/// The disk-plane crash schedules hold verbatim when the shards travel over
/// TCP: every halt-and-resume history converges to the serial digest, and
/// the run leaves a transport report naming the coordinator it used.
#[test]
fn crash_schedules_over_the_tcp_plane_converge_to_the_reference_digest() {
    let expected = reference_digest();
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
        .expect("coordinator binds an ephemeral port");
    let schedules: &[&[KillPoint]] = &[
        &[KillPoint::AtGenerationCheckpoint(2)],
        &[
            KillPoint::AtVariationBoundary(BoundaryKind::Claim, 2),
            KillPoint::AtVariationBoundary(BoundaryKind::EpochClose, 1),
        ],
    ];
    for (index, schedule) in schedules.iter().enumerate() {
        let (root, store) = temp_store("tcp");
        let run_id = format!("tcp-chaos-{index}");
        let result = run_with_chaos(
            &store,
            &run_id,
            &tcp_config(&coordinator.url()),
            CHAOS_SEED,
            schedule,
        );
        assert_eq!(
            result.determinism_digest(),
            expected,
            "TCP schedule {schedule:?} perturbed the result"
        );
        let value = store
            .run(&run_id)
            .unwrap()
            .transport_report_value()
            .unwrap()
            .expect("a sharded TCP run persists its transport report");
        let report = {
            use serde::Deserialize;
            ayb_core::TransportReport::from_value(&value).expect("transport report parses")
        };
        assert_eq!(report.transport, coordinator.url());
        // The report counts the *final* attempt's traffic. A schedule whose
        // last crash is at the epoch-close boundary leaves nothing for the
        // last resume to shard (every generation and point is already
        // checkpointed), so only the first schedule guarantees wire use.
        if index == 0 {
            assert!(report.requests > 0, "the wire was actually used");
        }
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Killing the coordinator mid-variation (all its state is in memory, so
/// `wipe_state` *is* a kill-and-restart) strands the open epoch; the flow
/// must degrade the lost points to local analysis — noisily, with recorded
/// incidents — and still converge to the serial digest.
#[test]
fn coordinator_restart_mid_variation_degrades_locally_and_converges() {
    let expected = reference_digest();
    let coordinator = Arc::new(
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
            .expect("coordinator binds an ephemeral port"),
    );
    let (root, store) = temp_store("tcp-restart");

    let wiped = Arc::new(AtomicBool::new(false));
    let hook: VariationHaltHook = {
        let wiped = Arc::clone(&wiped);
        let coordinator = Arc::clone(&coordinator);
        Arc::new(move |boundary| {
            if matches!(boundary, VariationBoundary::Claim { .. })
                && !wiped.swap(true, Ordering::SeqCst)
            {
                coordinator.wipe_state();
            }
            false // never halt: the flow must survive in one attempt
        })
    };

    let result = FlowBuilder::new(tcp_config(&coordinator.url()))
        .with_seed(CHAOS_SEED)
        .with_store(&store)
        .with_run_id("tcp-restart")
        .halt_variation_when(hook)
        .run()
        .expect("the flow survives a coordinator restart");

    assert!(wiped.load(Ordering::SeqCst), "the scripted restart fired");
    assert_eq!(
        result.determinism_digest(),
        expected,
        "local fallback after the restart perturbed the result"
    );
    assert!(
        result.timings.shards_degraded >= 1,
        "the stranded points degraded to local analysis"
    );
    let value = store
        .run("tcp-restart")
        .unwrap()
        .transport_report_value()
        .unwrap()
        .expect("transport report persisted");
    let report = {
        use serde::Deserialize;
        ayb_core::TransportReport::from_value(&value).expect("transport report parses")
    };
    assert!(
        !report.incidents.is_empty(),
        "each degradation is recorded with its cause"
    );
    assert!(report
        .incidents
        .iter()
        .all(|incident| !incident.detail.is_empty()));
    let _ = std::fs::remove_dir_all(root);
}

/// A well-shaped but wrong outcome for a claimed variation task: every point
/// of the batch lost, with a bogus timing.
fn poisoned_outcome(work: &ShardWork) -> ShardOutcome {
    let ShardWork::VariationBatch { points } = work else {
        panic!("the zombie claimed a variation task, got {work:?}");
    };
    ShardOutcome::VariationBatch {
        points: points
            .iter()
            .map(|_| VariationOutcome {
                data: None,
                elapsed_seconds: 999.0,
            })
            .collect(),
    }
}

/// A worker that claims a variation point and hangs (no heartbeat) has its
/// claim stolen by the submitting flow; when the zombie finally wakes and
/// writes a *poisoned* outcome under its superseded token, the coordinator
/// must fence the write off — the digest stays bit-identical to serial.
#[test]
fn hung_tcp_claim_is_stolen_and_the_late_zombie_write_is_fenced_off() {
    let expected = reference_digest();
    // An aggressive stale bound, so the flow's next claim of the shard
    // takes the hung claim over instead of a minute later.
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            stale_after: Duration::from_millis(100),
        },
    )
    .expect("coordinator binds an ephemeral port");
    let (root, store) = temp_store("tcp-zombie");

    let variation_started = Arc::new(AtomicBool::new(false));
    let zombie_submitted = Arc::new(AtomicBool::new(false));

    // The zombie worker: claims one variation point exactly like `ayb serve
    // --transport` would, then hangs without heartbeating. Once the flow has
    // stolen the point and landed the authoritative result, it wakes and
    // performs its late poisoned write, which fencing must reject.
    let zombie_transport = TcpTransport::connect(coordinator.local_addr().to_string());
    let zombie = {
        let transport = zombie_transport.clone();
        let started = Arc::clone(&variation_started);
        let submitted = Arc::clone(&zombie_submitted);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(120);
            while !started.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "variation stage never started");
                std::thread::sleep(Duration::from_millis(2));
            }
            let task = loop {
                if let Ok(Some(task)) = transport.claim_next("zombie") {
                    break task;
                }
                assert!(
                    Instant::now() < deadline,
                    "no variation point left to claim"
                );
                std::thread::sleep(Duration::from_millis(2));
            };
            // Hang. The steward's stolen re-analysis landing is visible as
            // the shard's accepted outcome.
            loop {
                if let Ok(Some(_)) = transport.fetch_outcome(&task.epoch, task.shard) {
                    break;
                }
                assert!(Instant::now() < deadline, "the hung claim was never stolen");
                std::thread::sleep(Duration::from_millis(5));
            }
            // The late write: poisoned (a lost analysis plus a bogus
            // timing for every point of the batch), under the superseded
            // token. If this were accepted, the digest below could not match.
            let poison = poisoned_outcome(&task.work);
            let accepted = transport
                .submit_with_token(&task.epoch, task.shard, task.token, &poison)
                .expect("the epoch is held open until this write");
            assert!(!accepted, "a fenced-off zombie write must be rejected");
            submitted.store(true, Ordering::SeqCst);
        })
    };

    let hook: VariationHaltHook = {
        let started = Arc::clone(&variation_started);
        let submitted = Arc::clone(&zombie_submitted);
        Arc::new(move |boundary| {
            match boundary {
                VariationBoundary::Claim { .. } => {
                    started.store(true, Ordering::SeqCst);
                }
                VariationBoundary::EpochClose => {
                    // Hold the epoch open until the zombie's late write has
                    // been rejected, so the fencing path (not an
                    // unknown-epoch error) is what the test exercises.
                    let deadline = Instant::now() + Duration::from_secs(120);
                    while !submitted.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "the zombie never wrote");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                _ => {}
            }
            false // never halt
        })
    };

    let result = FlowBuilder::new(tcp_config(&coordinator.url()))
        .with_seed(CHAOS_SEED)
        .with_store(&store)
        .with_run_id("tcp-zombie")
        .halt_variation_when(hook)
        .run()
        .expect("the flow completes around the hung worker");
    zombie.join().expect("zombie thread assertions hold");

    assert_eq!(
        result.determinism_digest(),
        expected,
        "the stolen point or the rejected write perturbed the result"
    );
    assert!(
        zombie_transport.stats().fenced_rejections >= 1,
        "the zombie's client counted its rejection"
    );
    assert!(
        coordinator.stats().fenced_rejections >= 1,
        "the coordinator counted the fenced write"
    );
    let _ = std::fs::remove_dir_all(root);
}

// ---------------------------------------------------------------------------
// Telemetry under chaos (ayb_obs)
// ---------------------------------------------------------------------------

/// Every kill/resume cycle must leave a well-formed `events.jsonl`: each
/// line parses, each process's events are monotonically ordered, each
/// attempt opens with a `flow_start`, and the final attempt's shard
/// request/fence/degrade events reconcile **exactly** with the
/// `FlowTimings` counters of the result (events are emitted at the same
/// code sites that bump the counters, so any drift is a bug).
#[test]
fn chaos_cycles_leave_wellformed_event_logs_that_reconcile_with_timings() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
        .expect("coordinator binds an ephemeral port");
    let schedules: &[&[KillPoint]] = &[
        &[KillPoint::AtGenerationCheckpoint(2)],
        &[
            KillPoint::AtGenerationCheckpoint(1),
            KillPoint::AtVariationBoundary(BoundaryKind::ResultWrite, 2),
        ],
    ];
    for (index, schedule) in schedules.iter().enumerate() {
        let (root, store) = temp_store("events");
        let run_id = format!("events-chaos-{index}");
        let result = run_with_chaos(
            &store,
            &run_id,
            &tcp_config(&coordinator.url()),
            CHAOS_SEED,
            schedule,
        );

        let handle = store.run(&run_id).unwrap();
        let events =
            ayb_obs::read_events(&handle.events_path()).expect("events.jsonl is well-formed");
        ayb_obs::check_monotonic_per_pid(&events).expect("per-process ordering holds");
        let attempts = trace::attempts(&events);
        assert!(
            attempts.len() >= 2,
            "schedule {schedule:?} recorded {} attempt(s); expected the crash + resume history",
            attempts.len()
        );

        let final_events = trace::final_attempt(&events);
        assert_eq!(
            trace::count_kind(final_events, event_kind::RUN_COMPLETED),
            1,
            "the final attempt records its completion"
        );
        assert_eq!(
            trace::count_kind(final_events, event_kind::SHARD_REQUEST),
            result.timings.shard_requests,
            "one shard_request event per transport round-trip"
        );
        assert_eq!(
            trace::count_kind(final_events, event_kind::SHARD_FENCED),
            result.timings.shards_fenced,
            "one shard_fenced event per fenced write"
        );
        assert_eq!(
            trace::count_kind(final_events, event_kind::SHARD_DEGRADED) as usize,
            result.timings.shards_degraded,
            "one shard_degraded event per local fallback"
        );
        // Interrupted attempts each record their interruption.
        assert_eq!(
            trace::count_kind(&events, event_kind::RUN_INTERRUPTED),
            (attempts.len() - 1) as u64,
            "every crashed attempt left a run_interrupted marker"
        );
        let _ = std::fs::remove_dir_all(root);
    }
}

/// The end-to-end forensics story: a TCP sharded run with a hung zombie
/// worker whose stolen claim and fenced-off late write all land in the
/// run's `events.jsonl` — the zombie worker appends to the *same* file
/// through its own recorder, exactly as `ayb serve` on another host would
/// to a shared store. From that one file the trace module reconstructs the
/// full timeline (claim → steal → fenced submit), and the digest is still
/// bit-identical to the telemetry-free serial reference.
#[test]
fn events_jsonl_reconstructs_the_fenced_zombie_timeline() {
    let expected = reference_digest();
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            stale_after: Duration::from_millis(100),
        },
    )
    .expect("coordinator binds an ephemeral port");
    let (root, store) = temp_store("forensics");
    let run_id = "forensics";

    // Pre-create the run directory so the zombie can append to the run's
    // events.jsonl from the start (atomic appends interleave safely).
    let events_path = store.root().join("runs").join(run_id).join("events.jsonl");

    let variation_started = Arc::new(AtomicBool::new(false));
    let zombie_submitted = Arc::new(AtomicBool::new(false));

    let zombie_recorder = Recorder::new();
    zombie_recorder.add_sink(Box::new(JsonlSink::new(&events_path)));
    let zombie_transport = TcpTransport::connect(coordinator.local_addr().to_string())
        .with_recorder(zombie_recorder.clone());
    let zombie = {
        let transport = zombie_transport.clone();
        let started = Arc::clone(&variation_started);
        let submitted = Arc::clone(&zombie_submitted);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(120);
            while !started.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "variation stage never started");
                std::thread::sleep(Duration::from_millis(2));
            }
            let task = loop {
                if let Ok(Some(task)) = transport.claim_next("zombie") {
                    break task;
                }
                assert!(
                    Instant::now() < deadline,
                    "no variation point left to claim"
                );
                std::thread::sleep(Duration::from_millis(2));
            };
            loop {
                if let Ok(Some(_)) = transport.fetch_outcome(&task.epoch, task.shard) {
                    break;
                }
                assert!(Instant::now() < deadline, "the hung claim was never stolen");
                std::thread::sleep(Duration::from_millis(5));
            }
            let poison = poisoned_outcome(&task.work);
            let accepted = transport
                .submit_with_token(&task.epoch, task.shard, task.token, &poison)
                .expect("the epoch is held open until this write");
            assert!(!accepted, "a fenced-off zombie write must be rejected");
            submitted.store(true, Ordering::SeqCst);
        })
    };

    let hook: VariationHaltHook = {
        let started = Arc::clone(&variation_started);
        let submitted = Arc::clone(&zombie_submitted);
        Arc::new(move |boundary| {
            match boundary {
                VariationBoundary::Claim { .. } => {
                    started.store(true, Ordering::SeqCst);
                }
                VariationBoundary::EpochClose => {
                    let deadline = Instant::now() + Duration::from_secs(120);
                    while !submitted.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "the zombie never wrote");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                _ => {}
            }
            false // never halt
        })
    };

    let result = FlowBuilder::new(tcp_config(&coordinator.url()))
        .with_seed(CHAOS_SEED)
        .with_store(&store)
        .with_run_id(run_id)
        .halt_variation_when(hook)
        .run()
        .expect("the flow completes around the hung worker");
    zombie.join().expect("zombie thread assertions hold");

    assert_eq!(
        result.determinism_digest(),
        expected,
        "telemetry or the fenced write perturbed the result"
    );

    // The shared events.jsonl tells the whole story. (No per-pid ordering
    // check here: the zombie runs as a thread of *this* process purely as a
    // test artifact, so the file holds two same-pid recorder streams; real
    // workers are separate processes, each with one recorder.)
    let events = ayb_obs::read_events(&events_path).expect("events.jsonl is well-formed");
    let fenced: Vec<_> = events
        .iter()
        .filter(|event| event.kind == event_kind::SHARD_FENCED)
        .collect();
    assert!(
        !fenced.is_empty(),
        "the zombie's rejected write is in the log"
    );
    // The fenced submit names its stale token, and a *higher* token claim
    // exists for the same shard — the steal is reconstructible.
    let stale = fenced[0];
    let stale_token = stale.fence.expect("fenced event carries its token");
    let steal = events.iter().any(|event| {
        event.kind == event_kind::SHARD_CLAIM
            && event.epoch == stale.epoch
            && event.shard == stale.shard
            && event.fence.map(|token| token > stale_token) == Some(true)
    });
    assert!(steal, "a higher-token claim (the steal) is in the log");
    // And the human-facing trace renders the chain.
    let rendered = trace::render_trace(&events).join("\n");
    assert!(
        rendered.contains("shard_fenced") || rendered.contains("fenced"),
        "the rendered trace shows the fenced submit:\n{rendered}"
    );
    let _ = std::fs::remove_dir_all(root);
}
