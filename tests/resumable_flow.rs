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
use ayb_store::{Manifest, RunHandle, RunStatus, Store};
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
