//! The notification stream of a flow, pinned call for call.
//!
//! `fixtures/notification_stream.jsonl` holds one line per case: the
//! ordered [`FlowObserver`] callbacks the flow made, the ordered events of
//! the run's `events.jsonl` (the recorder's ring for the store-less case)
//! and the determinism digest. Callbacks keep their method, stage and the
//! generation, `done/total` or shard; events keep their source, kind,
//! severity, run, shard and detail, and drop the clocks, pid, epoch name,
//! fencing token and numeric value, which vary from run to run.
//!
//! Every case runs the reduced configuration with seed 2008 and the claim
//! owner `fixture`:
//!
//! - `clean`: one uninterrupted durable run;
//! - `halted`: halted after three generation checkpoints, then resumed;
//! - `variation`: halted once the variation stage recorded point 2, then
//!   resumed;
//! - `degraded`: sharded over a TCP coordinator that is not listening, so
//!   every optimiser batch and the variation stage fall back to local work;
//! - `storeless`: no store, with an explicit recorder.
//!
//! Observers, operators (`ayb status`, `ayb trace`) and the job server read
//! these streams, so a change to how the flow carries a run through its
//! stages must reproduce them exactly. On a mismatch the observed stream is
//! written to `notification_stream.observed.jsonl` in the temp directory for
//! diffing against the fixture.

use ayb_core::{
    AybError, FlowBuilder, FlowConfig, FlowObserver, FlowStage, VariationBoundary,
    VariationHaltHook,
};
use ayb_moo::CheckpointError;
use ayb_obs::{Event, Recorder};
use ayb_store::Store;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 2008;
const OWNER: &str = "fixture";
/// Nothing listens on port 1, so every request is refused at once.
const DEAD_COORDINATOR: &str = "tcp://127.0.0.1:1";

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Case {
    case: String,
    digest: String,
    callbacks: Vec<String>,
    events: Vec<String>,
}

/// Logs every callback as one line; clones share the log, so one log can
/// span a halted attempt and its resume.
#[derive(Clone, Default)]
struct CallbackLog(Arc<Mutex<Vec<String>>>);

impl CallbackLog {
    fn push(&self, line: String) {
        self.0.lock().expect("callback log").push(line);
    }

    fn lines(&self) -> Vec<String> {
        self.0.lock().expect("callback log").clone()
    }
}

impl FlowObserver for CallbackLog {
    fn on_stage_start(&mut self, stage: FlowStage) {
        self.push(format!("stage_start {}", stage.name()));
    }

    fn on_stage_complete(&mut self, stage: FlowStage, _elapsed: Duration) {
        self.push(format!("stage_complete {}", stage.name()));
    }

    fn on_progress(&mut self, stage: FlowStage, done: usize, total: usize) {
        self.push(format!("progress {} {done}/{total}", stage.name()));
    }

    fn on_checkpoint_written(&mut self, generation: usize, _path: &Path) {
        self.push(format!("checkpoint_written {generation}"));
    }

    fn on_transport_degraded(&mut self, stage: FlowStage, shard: usize, _detail: &str) {
        self.push(format!("transport_degraded {} {shard}", stage.name()));
    }
}

fn event_line(event: &Event) -> String {
    let run = event.run_id.as_deref().unwrap_or("-");
    let shard = event
        .shard
        .map_or_else(|| "-".to_string(), |shard| shard.to_string());
    format!(
        "{} {} {} run={run} shard={shard} | {}",
        event.source,
        event.kind,
        event.severity.as_str(),
        event.detail
    )
}

fn temp_store(label: &str) -> (PathBuf, Store) {
    let root =
        std::env::temp_dir().join(format!("ayb-notification-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

fn builder(config: FlowConfig, store: &Store, run_id: &str, log: &CallbackLog) -> FlowBuilder {
    FlowBuilder::new(config)
        .with_seed(SEED)
        .with_store(store)
        .with_run_id(run_id)
        .with_claim_owner(OWNER)
        .with_observer(log.clone())
}

fn resume(store: &Store, run_id: &str, log: &CallbackLog) -> FlowBuilder {
    FlowBuilder::resume(store, run_id)
        .expect("resume builder")
        .with_claim_owner(OWNER)
        .with_observer(log.clone())
}

fn expect_halt(outcome: Result<ayb_core::FlowResult, AybError>, case: &str) {
    match outcome {
        Err(AybError::Checkpoint(CheckpointError::Halted { .. })) => {}
        Err(other) => panic!("{case}: expected a halt, got {other}"),
        Ok(_) => panic!("{case}: expected a halt, the flow completed"),
    }
}

/// Runs one durable case: `first` runs, and `then_resume` continues the run
/// when the first attempt halts.
fn durable_case(
    case: &str,
    config: FlowConfig,
    first: impl FnOnce(FlowBuilder) -> FlowBuilder,
    then_resume: bool,
) -> Case {
    let (root, store) = temp_store(case);
    let log = CallbackLog::default();
    let outcome = first(builder(config, &store, case, &log)).run();
    let result = if then_resume {
        expect_halt(outcome, case);
        resume(&store, case, &log).run()
    } else {
        outcome
    }
    .unwrap_or_else(|error| panic!("{case}: {error}"));
    let handle = store.run(case).expect("run exists");
    let events = ayb_obs::read_events(&handle.events_path()).expect("events.jsonl parses");
    let _ = std::fs::remove_dir_all(root);
    Case {
        case: case.to_string(),
        digest: format!("{:016x}", result.determinism_digest()),
        callbacks: log.lines(),
        events: events.iter().map(event_line).collect(),
    }
}

fn observed() -> Vec<Case> {
    let reduced = FlowConfig::reduced;
    let mut cases = vec![
        durable_case("clean", reduced(), |builder| builder, false),
        durable_case(
            "halted",
            reduced(),
            |builder| builder.halt_after_checkpoints(3),
            true,
        ),
        durable_case(
            "variation",
            reduced(),
            |builder| {
                let hook: VariationHaltHook =
                    Arc::new(|boundary| boundary == VariationBoundary::ResultWrite { point: 2 });
                builder.halt_variation_when(hook)
            },
            true,
        ),
        durable_case(
            "degraded",
            FlowConfig {
                transport: Some(DEAD_COORDINATOR.to_string()),
                ..reduced()
            },
            |builder| builder.sharded(true),
            false,
        ),
    ];

    let log = CallbackLog::default();
    let recorder = Recorder::new();
    let result = FlowBuilder::new(reduced())
        .with_seed(SEED)
        .with_claim_owner(OWNER)
        .with_recorder(recorder.clone())
        .with_observer(log.clone())
        .run()
        .expect("store-less flow completes");
    cases.push(Case {
        case: "storeless".to_string(),
        digest: format!("{:016x}", result.determinism_digest()),
        callbacks: log.lines(),
        events: recorder.recent().iter().map(event_line).collect(),
    });
    cases
}

#[test]
fn every_case_reproduces_its_pinned_notification_stream() {
    let pinned: Vec<Case> = include_str!("fixtures/notification_stream.jsonl")
        .lines()
        .map(|line| serde_json::from_str(line).expect("fixture line parses"))
        .collect();
    let observed = observed();
    if observed != pinned {
        let path = std::env::temp_dir().join("notification_stream.observed.jsonl");
        let lines: Vec<String> = observed
            .iter()
            .map(|case| serde_json::to_string(case).expect("case serializes"))
            .collect();
        let _ = std::fs::write(&path, lines.join("\n") + "\n");
        for (seen, pin) in observed.iter().zip(&pinned) {
            assert_eq!(
                seen,
                pin,
                "case `{}` (observed: {})",
                pin.case,
                path.display()
            );
        }
        assert_eq!(observed.len(), pinned.len(), "case count");
    }
}
