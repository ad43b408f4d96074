//! Integration tests for durable, resumable flows: a run interrupted
//! mid-optimisation (deliberate halt — on-disk state identical to a crash)
//! and resumed from the store produces a `FlowResult` identical to the
//! same-seed uninterrupted run, the store lays runs out as documented, and
//! the early-stopping criterion recorded in the manifest survives a resume.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowObserver, FlowResult, VariationBoundary,
    VariationHaltHook, CHECKPOINT_BYTES_METRIC, CHECKPOINT_SECONDS_METRIC,
};
use ayb_moo::{CheckpointError, EarlyStop, OptimizerConfig};
use ayb_obs::Recorder;
use ayb_store::{ClaimInfo, Manifest, RunHandle, RunStatus, Store, StoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-resume-test-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

fn reduced_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 10;
    config.max_pareto_points = 8;
    config
}

/// Strict equality of every deterministic part of two flow results (the
/// model has no `PartialEq`; its serialized form is compared instead).
fn assert_results_identical(a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.archive, b.archive);
    assert_eq!(a.pareto, b.pareto);
    assert_eq!(a.pareto_data, b.pareto_data);
    assert_eq!(a.optimization.archive, b.optimization.archive);
    assert_eq!(a.optimization.history, b.optimization.history);
    assert_eq!(a.optimization.evaluations, b.optimization.evaluations);
    assert_eq!(
        serde_json::to_string(&a.model).unwrap(),
        serde_json::to_string(&b.model).unwrap()
    );
    assert_eq!(a.determinism_digest(), b.determinism_digest());
}

#[test]
fn flow_with_store_persists_manifest_checkpoints_and_result() {
    let (root, store) = temp_store("persist");
    let config = reduced_config();

    let result = FlowBuilder::new(config.clone())
        .with_store(&store)
        .run()
        .expect("stored flow completes");

    let run = store.run("run-0001").expect("run exists");
    let manifest: Manifest<FlowConfig> = run.manifest().expect("manifest loads");
    assert_eq!(manifest.status, RunStatus::Completed);
    assert_eq!(manifest.seed, config.ga.seed);
    assert_eq!(manifest.optimizer, OptimizerConfig::Wbga(config.ga));
    assert_eq!(manifest.flow, config);

    // One checkpoint per bred generation.
    let generations = run.checkpoint_generations().expect("checkpoints list");
    assert_eq!(
        generations,
        (1..config.ga.generations).collect::<Vec<_>>(),
        "gen_NNNN.json per generation boundary"
    );

    // The persisted result reloads and matches the in-memory one exactly.
    let reloaded: FlowResult = run.load_result().expect("result loads");
    assert_results_identical(&result, &reloaded);

    // A plain (store-less) run with the same config is bit-identical, i.e.
    // persistence never perturbs the computation.
    let plain = FlowBuilder::new(config)
        .run()
        .expect("plain flow completes");
    assert_results_identical(&result, &plain);

    let _ = std::fs::remove_dir_all(root);
}

/// Counts checkpoint-written callbacks.
#[derive(Clone, Default)]
struct CheckpointCounter {
    written: Arc<AtomicUsize>,
}

impl FlowObserver for CheckpointCounter {
    fn on_checkpoint_written(&mut self, _generation: usize, path: &Path) {
        assert!(path.to_string_lossy().contains("checkpoints"));
        self.written.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn interrupted_flow_resumes_to_a_bit_identical_result() {
    let (root, store) = temp_store("resume");
    let config = reduced_config();

    // Reference: the same-seed run that is never interrupted.
    let uninterrupted = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("clean")
        .run()
        .expect("clean flow completes");

    // "Kill" a second run after its third checkpoint. A deliberate halt
    // leaves exactly what a crash leaves — manifest + checkpoints, no
    // result — plus an honest `interrupted` status.
    let counter = CheckpointCounter::default();
    let halted = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("victim")
        .with_observer(counter.clone())
        .halt_after_checkpoints(3)
        .run();
    match halted {
        Err(AybError::Checkpoint(CheckpointError::Halted { generation })) => {
            assert_eq!(generation, 3)
        }
        other => panic!("expected a halt, got {other:?}"),
    }
    assert_eq!(counter.written.load(Ordering::Relaxed), 3);

    let victim = store.run("victim").expect("victim run exists");
    assert_eq!(victim.status().unwrap(), RunStatus::Interrupted);
    assert_eq!(victim.checkpoint_generations().unwrap(), vec![1, 2, 3]);
    assert!(
        !victim.has_result(),
        "no result was written before the halt"
    );

    // Resume from the store: FlowBuilder::resume restores config, optimiser
    // and seed from the manifest and continues from checkpoint 3.
    let resumed = FlowBuilder::resume(&store, "victim")
        .expect("resume builder")
        .run()
        .expect("resumed flow completes");
    assert_results_identical(&uninterrupted, &resumed);
    assert_eq!(victim.status().unwrap(), RunStatus::Completed);
    let persisted: FlowResult = victim.load_result().expect("resumed result persisted");
    assert_results_identical(&uninterrupted, &persisted);

    let _ = std::fs::remove_dir_all(root);
}

/// A run halted at every generation boundary, resumed each time, matches
/// the uninterrupted run under every optimiser, and its archive log holds
/// every evaluation exactly once: each resume truncated the log to its
/// base snapshot before appending.
#[test]
fn every_optimizer_variant_interrupts_and_resumes_identically() {
    let (root, store) = temp_store("variants");
    let mut config = reduced_config();
    config.ga.population_size = 12;
    config.ga.generations = 6;

    let variants = [
        OptimizerConfig::Wbga(config.ga),
        OptimizerConfig::Nsga2(config.ga),
        OptimizerConfig::RandomSearch {
            // Two checkpoint chunks of 64 plus a partial tail.
            budget: 150,
            seed: config.ga.seed,
        },
    ];
    for variant in variants {
        let name = variant.name();
        let clean_id = format!("clean-{name}");
        let victim_id = format!("victim-{name}");

        let clean = FlowBuilder::new(config.clone())
            .with_optimizer(variant.clone())
            .with_store(&store)
            .with_run_id(&clean_id)
            .run()
            .unwrap_or_else(|e| panic!("{name}: clean run failed: {e}"));

        let mut attempts = 0;
        let resumed = loop {
            let builder = if attempts == 0 {
                FlowBuilder::new(config.clone())
                    .with_optimizer(variant.clone())
                    .with_store(&store)
                    .with_run_id(&victim_id)
            } else {
                FlowBuilder::resume(&store, &victim_id)
                    .unwrap_or_else(|e| panic!("{name}: resume builder failed: {e}"))
            };
            attempts += 1;
            match builder.halt_after_checkpoints(1).run() {
                Ok(result) => break result,
                Err(AybError::Checkpoint(CheckpointError::Halted { .. })) => {}
                Err(error) => panic!("{name}: attempt {attempts} failed: {error}"),
            }
        };
        assert_results_identical(&clean, &resumed);

        let victim = store.run(&victim_id).unwrap();
        let generations = victim.checkpoint_generations().unwrap();
        assert_eq!(
            attempts,
            generations.len() + 1,
            "{name}: a halt per boundary"
        );
        let latest = victim.latest_checkpoint().unwrap().expect("checkpoints");
        let mut replayed = 0;
        for (start, length) in archive_log_lines(&victim) {
            assert_eq!(start, replayed, "{name}: log lines continue each other");
            replayed += length;
        }
        assert_eq!(
            replayed,
            latest.archive.len(),
            "{name}: no duplicate record"
        );
        assert!(resumed.archive.starts_with(&latest.archive));
    }

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn early_stop_is_recorded_in_the_manifest_and_honoured_on_resume() {
    let (root, store) = temp_store("earlystop");
    let mut config = reduced_config();
    config.ga.generations = 10;
    config.ga.early_stop = Some(EarlyStop::after_stalled_generations(2));

    let clean = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("clean")
        .run()
        .expect("early-stopping flow completes");

    // The criterion is durable: it rides inside the manifest's optimiser
    // configuration.
    let manifest: Manifest<FlowConfig> = store.run("clean").unwrap().manifest().unwrap();
    assert_eq!(
        manifest.optimizer.early_stop(),
        Some(EarlyStop::after_stalled_generations(2))
    );

    // Interrupt a same-seed run at the first checkpoint and resume: the
    // resumed run honours the criterion (identical history length and
    // identical everything else).
    let halted = FlowBuilder::new(config)
        .with_store(&store)
        .with_run_id("victim")
        .halt_after_checkpoints(1)
        .run();
    assert!(matches!(
        halted,
        Err(AybError::Checkpoint(CheckpointError::Halted { .. }))
    ));
    let resumed = FlowBuilder::resume(&store, "victim")
        .expect("resume builder")
        .run()
        .expect("resumed flow completes");
    assert_results_identical(&clean, &resumed);

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn resume_restarts_from_scratch_when_no_checkpoint_was_written() {
    let (root, store) = temp_store("nockpt");
    let config = reduced_config();

    let clean = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("clean")
        .run()
        .expect("clean flow completes");

    // Simulate a run that died before its first checkpoint: create the run
    // directory and manifest, then resume it.
    let seed = config.ga.seed;
    store
        .create_run_with_id(
            "stillborn",
            seed,
            &OptimizerConfig::Wbga(config.ga),
            &config,
        )
        .expect("run created");
    let resumed = FlowBuilder::resume(&store, "stillborn")
        .expect("resume builder")
        .run()
        .expect("restarted flow completes");
    assert_results_identical(&clean, &resumed);

    let _ = std::fs::remove_dir_all(root);
}

/// `(start, length)` of every line of a run's archive log.
fn archive_log_lines(run: &RunHandle) -> Vec<(usize, usize)> {
    use serde::{Deserialize, Value};
    let text = std::fs::read_to_string(run.dir().join("checkpoints/archive.jsonl"))
        .expect("archive log exists");
    text.lines()
        .map(|line| {
            let record: Value = serde_json::from_str(line).expect("log line parses");
            let start = record.get("start").map(usize::from_value);
            let archive = record.get("archive").and_then(Value::as_array);
            (
                start.expect("start index").expect("start index"),
                archive.expect("archive array").len(),
            )
        })
        .collect()
}

/// A machine crash can leave zero-length files behind (the store renames
/// without an fsync). A zeroed newest generation snapshot and a zeroed
/// variation point count as absent: the resume continues from the
/// snapshot before, re-analyses the point, and matches the uninterrupted
/// run.
#[test]
fn zeroed_checkpoint_files_count_as_absent_on_resume() {
    let (root, store) = temp_store("zeroed");
    let config = reduced_config();
    let clean = FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("clean")
        .run()
        .expect("clean flow completes");

    // Interrupt in the variation stage, three points in.
    let written = Arc::new(AtomicUsize::new(0));
    let hook: VariationHaltHook = {
        let written = Arc::clone(&written);
        Arc::new(move |boundary| {
            matches!(boundary, VariationBoundary::ResultWrite { .. })
                && written.fetch_add(1, Ordering::SeqCst) + 1 >= 3
        })
    };
    let halted = FlowBuilder::new(config)
        .with_store(&store)
        .with_run_id("victim")
        .halt_variation_when(hook)
        .run();
    assert!(matches!(
        halted,
        Err(AybError::Checkpoint(CheckpointError::Halted { .. }))
    ));
    let victim = store.run("victim").unwrap();
    let checkpoints = victim.dir().join("checkpoints");
    let newest = *victim.checkpoint_generations().unwrap().last().unwrap();
    std::fs::write(checkpoints.join(format!("gen_{newest:04}.json")), "").unwrap();
    let points = victim.variation_checkpoint_indices().unwrap();
    assert_eq!(points.len(), 3);
    std::fs::write(
        checkpoints.join(format!("variation_{:04}.json", points[1])),
        "",
    )
    .unwrap();

    let builder = FlowBuilder::resume(&store, "victim").expect("resume builder");
    assert_eq!(builder.resume_generation(), Some(newest - 1));
    let resumed = builder.run().expect("resumed flow completes");
    assert_results_identical(&clean, &resumed);
    let _ = std::fs::remove_dir_all(root);
}

/// Each generation checkpoint adds the bytes it wrote to
/// `ayb_flow_checkpoint_bytes_total` and its duration to
/// `ayb_flow_checkpoint_seconds` on the flow's recorder: after a clean run
/// the counter equals the snapshots plus the archive log on disk.
#[test]
fn checkpoint_metrics_count_every_byte_written() {
    let (root, store) = temp_store("metrics");
    let config = reduced_config();
    let recorder = Recorder::new();
    FlowBuilder::new(config.clone())
        .with_store(&store)
        .with_run_id("metered")
        .with_recorder(recorder.clone())
        .run()
        .expect("flow completes");
    let checkpoints = store.run("metered").unwrap().dir().join("checkpoints");
    let on_disk: u64 = std::fs::read_dir(&checkpoints)
        .unwrap()
        .flatten()
        .filter(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            name.starts_with("gen_") || name == "archive.jsonl"
        })
        .map(|entry| entry.metadata().unwrap().len())
        .sum();
    let metrics = recorder.metrics();
    assert_eq!(metrics.counter(CHECKPOINT_BYTES_METRIC), on_disk);
    let seconds = metrics
        .histogram(CHECKPOINT_SECONDS_METRIC)
        .expect("save durations recorded");
    assert_eq!(seconds.count() as usize, config.ga.generations - 1);
    let _ = std::fs::remove_dir_all(root);
}

/// Halts a reduced seed-2008 run after three checkpoints and leaves it as a
/// killed executor would: status `Running`, and `claim.json` naming
/// `holder`.
fn killed_run(store: &Store, run_id: &str, holder: &ClaimInfo) -> RunHandle {
    let halted = FlowBuilder::new(FlowConfig::reduced())
        .with_seed(2008)
        .with_store(store)
        .with_run_id(run_id)
        .halt_after_checkpoints(3)
        .run();
    assert!(matches!(
        halted,
        Err(AybError::Checkpoint(CheckpointError::Halted { .. }))
    ));
    let run = store.run(run_id).expect("halted run exists");
    run.set_status(RunStatus::Running).unwrap();
    let claim = serde_json::to_string(holder).expect("claim serializes");
    std::fs::write(run.dir().join("claim.json"), claim).unwrap();
    run
}

/// A SIGKILLed run keeps its `Running` status and the claim of a process
/// that no longer exists. `FlowBuilder::resume` breaks that dead claim
/// itself, with no server's recovery pass, and completes to the
/// uninterrupted run's digest.
#[test]
fn resume_breaks_the_claim_of_a_killed_executor() {
    let (root, store) = temp_store("killed");
    let clean = FlowBuilder::new(FlowConfig::reduced())
        .with_seed(2008)
        .run()
        .expect("clean flow completes");
    let dead = ClaimInfo {
        // No Linux pid can be u32::MAX (pid_max tops out at 2^22), so this
        // holder is reliably not running.
        pid: u32::MAX,
        ..ClaimInfo::for_this_process("flow-killed")
    };
    let run = killed_run(&store, "killed", &dead);

    let resumed = FlowBuilder::resume(&store, "killed")
        .expect("resume builder")
        .run()
        .expect("a dead holder's claim does not block the resume");
    assert_eq!(resumed.determinism_digest(), clean.determinism_digest());
    assert_eq!(run.status().unwrap(), RunStatus::Completed);
    assert_eq!(run.claim().unwrap(), None, "the resume released its claim");
    let _ = std::fs::remove_dir_all(root);
}

/// A hung holder — this live process, its heartbeat 60 s old, past the
/// 30 s bound — is taken over like a dead one: the resume claims the run at
/// the next fence and completes to the uninterrupted run's digest.
#[test]
fn resume_takes_over_the_claim_of_a_hung_executor() {
    let (root, store) = temp_store("hung");
    let clean = FlowBuilder::new(FlowConfig::reduced())
        .with_seed(2008)
        .run()
        .expect("clean flow completes");
    let hung = ClaimInfo::for_this_process("hung-holder").with_fence(1);
    let run = killed_run(&store, "hung", &hung);
    let fence_path = run.dir().join("claim.fence.json");
    assert_eq!(std::fs::read_to_string(&fence_path).unwrap(), "1");
    std::fs::File::options()
        .append(true)
        .open(run.dir().join("claim.json"))
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
        .unwrap();

    let resumed = FlowBuilder::resume(&store, "hung")
        .expect("resume builder")
        .run()
        .expect("a hung holder's claim does not block the resume");
    assert_eq!(resumed.determinism_digest(), clean.determinism_digest());
    assert_eq!(run.status().unwrap(), RunStatus::Completed);
    assert_eq!(run.claim().unwrap(), None, "the resume released its claim");
    assert_eq!(std::fs::read_to_string(&fence_path).unwrap(), "2");
    let _ = std::fs::remove_dir_all(root);
}

/// A live holder keeps its claim: the resume gets `RunClaimed` and leaves
/// the run as it found it.
#[test]
fn resume_leaves_a_live_holders_claim_alone() {
    let (root, store) = temp_store("live");
    let live = ClaimInfo::for_this_process("live-holder");
    let run = killed_run(&store, "live", &live);

    match FlowBuilder::resume(&store, "live")
        .expect("resume builder")
        .run()
    {
        Err(AybError::Store(StoreError::RunClaimed { owner, .. })) => {
            assert_eq!(owner, "live-holder")
        }
        Err(other) => panic!("expected RunClaimed, got {other}"),
        Ok(_) => panic!("expected RunClaimed, the resume completed"),
    }
    assert_eq!(run.claim().unwrap(), Some(live));
    assert_eq!(run.status().unwrap(), RunStatus::Running);
    assert!(!run.has_result());
    let _ = std::fs::remove_dir_all(root);
}

/// Runs a reduced durable flow as `run_id`, blocks it inside its first
/// variation-point boundary, applies `swap` to the run while it is blocked —
/// what a successor that took the run over would leave behind — and lets the
/// flow go on. Returns the flow's outcome and the number of `events.jsonl`
/// lines written before the swap.
fn run_with_a_swap_under_it(
    store: &Store,
    run_id: &str,
    swap: impl FnOnce(&RunHandle),
) -> (Result<FlowResult, AybError>, usize) {
    let (blocked, wait_blocked) = std::sync::mpsc::channel::<()>();
    let (resume, wait_resume) = std::sync::mpsc::channel::<()>();
    let wait_resume = std::sync::Mutex::new(wait_resume);
    let fired = std::sync::atomic::AtomicBool::new(false);
    let hook: VariationHaltHook = Arc::new(move |boundary| {
        if matches!(boundary, VariationBoundary::Claim { .. })
            && !fired.swap(true, Ordering::SeqCst)
        {
            blocked.send(()).expect("the test waits for the block");
            let _ = wait_resume.lock().unwrap().recv();
        }
        false // the flow goes on
    });
    std::thread::scope(|scope| {
        let flow = scope.spawn(|| {
            FlowBuilder::new(reduced_config())
                .with_store(store)
                .with_run_id(run_id)
                .halt_variation_when(hook)
                .run()
        });
        wait_blocked
            .recv()
            .expect("the flow reaches the variation stage");
        let run = store.run(run_id).expect("the blocked run exists");
        let logged = ayb_obs::read_events(&run.events_path())
            .expect("events.jsonl is well-formed")
            .len();
        swap(&run);
        resume.send(()).expect("the flow is blocked");
        (flow.join().expect("the flow thread joins"), logged)
    })
}

/// A flow whose claim a successor took over (its `claim.json` replaced by a
/// claim at a higher fence) is fenced off at its next durable write, with
/// `RunClaimed` naming that successor, and leaves the successor's run as it
/// found it: no `run_failed` or `run_interrupted` line in its log, its
/// claim in place, its status `Running`.
#[test]
fn a_fenced_off_run_writes_no_run_event_into_its_successors_log() {
    let (root, store) = temp_store("fenced-events");
    let mut successor = None;
    let (outcome, logged) = run_with_a_swap_under_it(&store, "fenced", |run| {
        let held = run.claim().unwrap().expect("the flow holds its claim");
        let taker = ClaimInfo {
            owner: "successor".to_string(),
            ..held.clone()
        }
        .with_fence(held.fence + 1);
        let text = serde_json::to_string(&taker).expect("claim serializes");
        std::fs::write(run.dir().join("claim.json"), text).unwrap();
        successor = Some(taker);
    });
    match outcome {
        Err(AybError::Store(StoreError::RunClaimed { owner, .. })) => {
            assert_eq!(owner, "successor")
        }
        Err(other) => panic!("expected RunClaimed, got {other}"),
        Ok(_) => panic!("expected RunClaimed, the fenced-off flow completed"),
    }
    let run = store.run("fenced").unwrap();
    let events = ayb_obs::read_events(&run.events_path()).expect("events.jsonl is well-formed");
    let after: Vec<&str> = events[logged..]
        .iter()
        .map(|event| event.kind.as_str())
        .collect();
    assert!(
        !after
            .iter()
            .any(|kind| *kind == ayb_obs::kind::RUN_FAILED
                || *kind == ayb_obs::kind::RUN_INTERRUPTED),
        "the fenced-off flow logged a run event into its successor's log: {after:?}"
    );
    assert_eq!(run.claim().unwrap(), successor);
    assert_eq!(run.status().unwrap(), RunStatus::Running);
    let _ = std::fs::remove_dir_all(root);
}

/// A flow whose successor completed the run and released its claim while
/// the flow was blocked fails at its next durable write with
/// `AlreadyCompleted`, not with a claim by a holder that no longer exists.
#[test]
fn a_run_completed_under_a_fenced_off_flow_reports_already_completed() {
    let (root, store) = temp_store("fenced-completed");
    let (outcome, _) = run_with_a_swap_under_it(&store, "completed", |run| {
        std::fs::remove_file(run.dir().join("claim.json")).unwrap();
        run.save_result(&"the successor's result").unwrap();
    });
    match outcome {
        Err(AybError::Store(StoreError::AlreadyCompleted(id))) => assert_eq!(id, "completed"),
        Err(other) => panic!("expected AlreadyCompleted, got {other}"),
        Ok(_) => panic!("expected AlreadyCompleted, the fenced-off flow completed"),
    }
    let run = store.run("completed").unwrap();
    assert_eq!(run.claim().unwrap(), None, "the flow claimed nothing back");
    let _ = std::fs::remove_dir_all(root);
}
