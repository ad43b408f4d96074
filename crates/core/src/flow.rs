//! The end-to-end model-generation flow (paper §3, Figure 3).
//!
//! The five steps of the proposed algorithm are executed in order:
//!
//! 1. netlist / objective generation ([`OtaSizingProblem`]),
//! 2. multi-objective optimisation (§3.2) through [`OptimizerConfig`] — the
//!    paper's WBGA by default, NSGA-II or random search,
//! 3. Pareto-front extraction (§3.3),
//! 4. Monte Carlo variation analysis of every Pareto point (§3.4),
//! 5. table-model / combined-model generation (§3.5).
//!
//! The public entry point is [`FlowBuilder`], which executes the steps as
//! explicit stages with progress callbacks:
//!
//! ```no_run
//! use ayb_core::{FlowBuilder, FlowConfig};
//!
//! # fn main() -> Result<(), ayb_core::AybError> {
//! let result = FlowBuilder::new(FlowConfig::reduced())
//!     .with_seed(2008)
//!     .optimize()?          // steps 1-3: problem + optimiser + Pareto front
//!     .analyze_variation()? // step 4: per-point Monte Carlo
//!     .build_model()?;      // step 5: combined behavioural model
//! println!("{} Pareto points", result.pareto.len());
//! # Ok(())
//! # }
//! ```
//!
//! [`FlowBuilder::run`] executes all stages in one call.
//!
//! Flows become *durable* by attaching a run store
//! ([`FlowBuilder::with_store`]): the configuration is recorded in a
//! manifest, every optimiser generation is checkpointed to disk, the final
//! [`FlowResult`] is persisted, and an interrupted run is continued with
//! [`FlowBuilder::resume`] — producing a result bit-identical to the
//! same-seed uninterrupted run (see `tests/resumable_flow.rs`). That holds
//! for a killed or hung process too: the resume's claim takes over the
//! stale claim its holder left behind.
//!
//! One private run session carries a run through the three stage types:
//! it reports every stage boundary, checkpoint, point and degradation to
//! the observers and the recorder together, fences every durable write, and
//! ends the run — status, `run_*` event, claim release — at every exit.

use crate::config::FlowConfig;
use crate::error::AybError;
use crate::ota_problem::{measure_testbench, OtaSizingProblem};
use ayb_behavioral::{CombinedOtaModel, ModelError, ParetoPointData};
use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters};
use ayb_moo::{
    drive_epoch, publish_epoch, Checkpoint, CheckpointControl, CheckpointError, EpochWork,
    Evaluation, OptimizationResult, OptimizerConfig, ShardError, ShardOutcome, ShardTransport,
    ShardWork, ShardWorkKind, ShardedEvaluator, SizingProblem, VariationOutcome,
    VariationPointWork, WithEvaluator,
};
use ayb_net::TcpTransport;
use ayb_obs::{kind as event_kind, Event, EventSink, JsonlSink, Recorder, Severity, SinkGuard};
use ayb_process::{montecarlo, Summary};
use ayb_store::{ClaimHeartbeat, ClaimInfo, Manifest, RunHandle, RunStatus, Store, StoreError};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Errors produced by the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The optimisation produced no feasible candidates at all.
    NoFeasibleCandidates,
    /// Too few Pareto points survived Monte Carlo analysis to build a model.
    InsufficientParetoData(usize),
    /// Building the combined model failed.
    Model(ModelError),
    /// A circuit could not be constructed.
    Circuit(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NoFeasibleCandidates => {
                write!(f, "the optimisation produced no feasible candidates")
            }
            FlowError::InsufficientParetoData(n) => write!(
                f,
                "only {n} Pareto points completed Monte Carlo analysis; at least 3 are required"
            ),
            FlowError::Model(e) => write!(f, "model construction failed: {e}"),
            FlowError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<ModelError> for FlowError {
    fn from(e: ModelError) -> Self {
        FlowError::Model(e)
    }
}

/// Wall-clock timings of the flow stages (Table 5's CPU-time column).
/// Results persisted before the per-point work accounting existed still
/// load: its absent fields read as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowTimings {
    /// Multi-objective optimisation time.
    pub optimization: Duration,
    /// Monte Carlo variation-analysis time — the *submitter's* wall clock
    /// for the stage. For sharded runs most of the per-point work happens in
    /// other processes; compare [`FlowTimings::mc_point_seconds`] for the
    /// actual work done.
    pub monte_carlo: Duration,
    /// Model construction time.
    pub model_build: Duration,
    /// Number of Pareto points that went through Monte Carlo analysis
    /// (including points whose analysis produced no data, and points
    /// restored from variation checkpoints on resume).
    #[serde(default)]
    pub mc_points: usize,
    /// Summed per-point analysis wall-clock seconds, counted by whichever
    /// process analysed each point — so serial and sharded runs report
    /// comparable work even though their submitter wall clocks differ.
    #[serde(default)]
    pub mc_point_seconds: f64,
    /// Shard requests this flow sent over a TCP data plane (0 for disk
    /// planes and unsharded flows).
    #[serde(default)]
    pub shard_requests: u64,
    /// Summed round-trip seconds of those shard requests.
    #[serde(default)]
    pub shard_request_seconds: f64,
    /// Late writes from stolen shard claims the data plane fenced off and
    /// discarded during this flow.
    #[serde(default)]
    pub shards_fenced: u64,
    /// Shards that degraded from the data plane to local production (each
    /// one also lands in the run's transport report with its cause).
    #[serde(default)]
    pub shards_degraded: usize,
}

impl FlowTimings {
    /// Total flow time.
    pub fn total(&self) -> Duration {
        self.optimization + self.monte_carlo + self.model_build
    }
}

/// Summary of the flow, mirroring Table 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Number of GA generations.
    pub generations: usize,
    /// Number of evaluation samples (circuit simulations in the GA).
    pub evaluation_samples: usize,
    /// Number of Pareto-optimal points found.
    pub pareto_points: usize,
    /// Number of Pareto points carried through Monte Carlo analysis.
    pub analysed_pareto_points: usize,
    /// Monte Carlo samples per analysed point.
    pub mc_samples_per_point: usize,
    /// Total CPU (wall-clock) time of the flow in seconds.
    pub cpu_time_seconds: f64,
    /// Summed per-point Monte Carlo analysis seconds, counted where the
    /// work actually ran (see [`FlowTimings::mc_point_seconds`]): the
    /// comparable work column for serial vs sharded runs.
    pub mc_work_seconds: f64,
}

impl FlowSummary {
    /// Copy with the wall-clock columns zeroed, for comparing the
    /// deterministic part of two summaries.
    #[must_use]
    pub fn without_timing(mut self) -> Self {
        self.cpu_time_seconds = 0.0;
        self.mc_work_seconds = 0.0;
        self
    }
}

/// Complete output of the model-generation flow.
///
/// The whole result is serde-friendly, so a completed run can be persisted
/// as `result.json` in an [`ayb_store::Store`] and reloaded later. The
/// serialized form stores the archive once: `optimization.archive` (the
/// same list as `archive`) is left out and rebuilt from `archive` on load.
/// Results written with both copies load too.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Every evaluation the optimiser performed (the scatter of Figure 7);
    /// the same list as `optimization.archive`.
    pub archive: Vec<Evaluation>,
    /// The Pareto front extracted from the archive (the front of Figure 7).
    pub pareto: Vec<Evaluation>,
    /// Pareto points annotated with Monte Carlo variation (Table 2 data).
    pub pareto_data: Vec<ParetoPointData>,
    /// The combined performance + variation behavioural model.
    pub model: CombinedOtaModel,
    /// Stage timings.
    pub timings: FlowTimings,
    /// Raw optimiser result (history, evaluation counters, algorithm name).
    pub optimization: OptimizationResult,
}

impl Serialize for FlowResult {
    fn to_value(&self) -> Value {
        let OptimizationResult {
            optimizer,
            archive: _,
            final_population,
            history,
            evaluations,
            failed_evaluations,
            senses,
        } = &self.optimization;
        let optimization = Value::Object(vec![
            ("optimizer".to_string(), optimizer.to_value()),
            ("final_population".to_string(), final_population.to_value()),
            ("history".to_string(), history.to_value()),
            ("evaluations".to_string(), evaluations.to_value()),
            (
                "failed_evaluations".to_string(),
                failed_evaluations.to_value(),
            ),
            ("senses".to_string(), senses.to_value()),
        ]);
        Value::Object(vec![
            ("archive".to_string(), self.archive.to_value()),
            ("pareto".to_string(), self.pareto.to_value()),
            ("pareto_data".to_string(), self.pareto_data.to_value()),
            ("model".to_string(), self.model.to_value()),
            ("timings".to_string(), self.timings.to_value()),
            ("optimization".to_string(), optimization),
        ])
    }
}

impl Deserialize for FlowResult {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let field = |name| serde::__field(value, name);
        let archive: Vec<Evaluation> = Deserialize::from_value(field("archive")?)?;
        // Rebuild `optimization.archive` from the top-level archive; a copy
        // stored by results written before the archive was stored once is
        // the same list, and is skipped unparsed.
        let Value::Object(stored) = field("optimization")? else {
            return Err(serde::Error::msg("`optimization` is not an object"));
        };
        let mut fields: Vec<(String, Value)> = stored
            .iter()
            .filter(|(key, _)| key != "archive")
            .cloned()
            .collect();
        fields.push(("archive".to_string(), Value::Array(Vec::new())));
        let mut optimization = OptimizationResult::from_value(&Value::Object(fields))?;
        optimization.archive = archive.clone();
        Ok(FlowResult {
            archive,
            pareto: Deserialize::from_value(field("pareto")?)?,
            pareto_data: Deserialize::from_value(field("pareto_data")?)?,
            model: Deserialize::from_value(field("model")?)?,
            timings: Deserialize::from_value(field("timings")?)?,
            optimization,
        })
    }
}

impl FlowResult {
    /// Builds the Table 5 style summary for a given configuration.
    pub fn summary(&self, config: &FlowConfig) -> FlowSummary {
        FlowSummary {
            generations: config.ga.generations,
            evaluation_samples: self.optimization.evaluations,
            pareto_points: self.pareto.len(),
            analysed_pareto_points: self.pareto_data.len(),
            mc_samples_per_point: config.monte_carlo.samples,
            cpu_time_seconds: self.timings.total().as_secs_f64(),
            mc_work_seconds: self.timings.mc_point_seconds,
        }
    }

    /// FNV-1a hash over the deterministic artefacts (archive, front,
    /// variation data, model and optimiser counters), excluding wall-clock
    /// timings.
    ///
    /// Two same-seed runs of the same configuration — interrupted-and-resumed
    /// or not — produce equal digests, which is what the `ayb` CLI and the CI
    /// resume-smoke job compare.
    pub fn determinism_digest(&self) -> u64 {
        fn fnv1a(hash: &mut u64, bytes: &[u8]) {
            for &byte in bytes {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let parts = [
            serde_json::to_string(&self.archive),
            serde_json::to_string(&self.pareto),
            serde_json::to_string(&self.pareto_data),
            serde_json::to_string(&self.model),
            serde_json::to_string(&self.optimization),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for part in parts {
            let json = part.expect("flow artefacts serialize infallibly");
            fnv1a(&mut hash, json.as_bytes());
            fnv1a(&mut hash, b"\x1f");
        }
        hash
    }
}

/// Selects at most `limit` points spread evenly along a front.
///
/// The first and last front points are always kept (`limit >= 2`); a `limit`
/// of exactly one selects the *middle* (knee-region) point rather than an
/// arbitrary endpoint, so a single analysed point is representative of the
/// trade-off rather than an extreme.
pub fn subsample_front(front: &[Evaluation], limit: usize) -> Vec<Evaluation> {
    if front.len() <= limit || limit == 0 {
        return front.to_vec();
    }
    if limit == 1 {
        return vec![front[front.len() / 2].clone()];
    }
    (0..limit)
        .map(|i| {
            let idx = i * (front.len() - 1) / (limit - 1);
            front[idx].clone()
        })
        .collect()
}

/// Derives the Monte Carlo seed of Pareto point `index` from the flow's base
/// `monte_carlo.seed` (splitmix64-style mixing).
///
/// Every analysed point gets its own reproducible, statistically independent
/// sample stream — and because the seed depends only on the base seed and
/// the point's index in the analysed front, *any* process analysing point
/// `index` (the submitting flow, a resumed flow, or a remote shard worker)
/// draws the identical sequence. This is what makes the sharded variation
/// stage bit-identical to the serial one.
pub fn point_mc_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the Monte Carlo variation analysis (§3.4) for one Pareto point
/// identified by its normalised parameter vector, drawing samples from
/// `mc_seed`.
///
/// This is the shared kernel of the serial stage, the sharded submitter and
/// the `ayb serve` shard workers: all three call it with the same
/// `(parameters, config, seed)` triple for a given point, so the result is
/// identical wherever the point is analysed. Returns `None` when the
/// nominal candidate cannot be re-simulated or every Monte Carlo sample
/// fails.
pub fn analyse_variation_point(
    problem: &OtaSizingProblem,
    parameters: &[f64],
    config: &FlowConfig,
    mc_seed: u64,
) -> Option<ParetoPointData> {
    let design_point = problem.design_point(parameters)?;
    let ota_params = OtaParameters::from_design_point(&design_point);
    let nominal = problem.performance(parameters)?;
    let circuit = build_open_loop_testbench(&ota_params, &config.testbench).ok()?;

    let mut monte_carlo = config.monte_carlo;
    monte_carlo.seed = mc_seed;
    let sweep = config.sweep.clone();
    let run = montecarlo::run_parallel(
        &circuit,
        &config.variation,
        &monte_carlo,
        config.threads,
        move |sample| {
            measure_testbench(sample, &sweep).map(|perf| (perf.gain_db, perf.phase_margin_deg))
        },
    );
    if run.values.len() < 2 {
        return None;
    }
    let gains: Vec<f64> = run.values.iter().map(|v| v.0).collect();
    let pms: Vec<f64> = run.values.iter().map(|v| v.1).collect();
    let gain_summary = Summary::of(&gains)?;
    let pm_summary = Summary::of(&pms)?;
    Some(ParetoPointData {
        gain_db: nominal.gain_db,
        phase_margin_deg: nominal.phase_margin_deg,
        gain_delta_percent: gain_summary.variation_percent(config.sigma_level),
        pm_delta_percent: pm_summary.variation_percent(config.sigma_level),
        unity_gain_hz: nominal.unity_gain_hz,
        parameters: design_point,
    })
}

/// One analysed Pareto point as persisted per-point in
/// `checkpoints/variation_NNNN.json` (durable runs) and carried over the
/// shard plane (sharded runs).
///
/// `data: None` records that the point was analysed but produced no usable
/// variation data — a deterministic outcome that must be remembered, or a
/// resumed flow would re-analyse the point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationPointRecord {
    /// The point's variation data, when the analysis succeeded.
    pub data: Option<ParetoPointData>,
    /// Wall-clock seconds spent analysing the point, by whichever process
    /// did it (feeds [`FlowTimings::mc_point_seconds`]).
    pub elapsed_seconds: f64,
}

impl VariationPointRecord {
    /// Converts to the shard planes' opaque wire form (see
    /// [`ayb_moo::VariationOutcome`]).
    fn to_outcome(&self) -> VariationOutcome {
        VariationOutcome {
            data: self.data.as_ref().map(Serialize::to_value),
            elapsed_seconds: self.elapsed_seconds,
        }
    }

    /// Parses the wire form back; `None` when the payload is malformed (the
    /// shard then simply stays pending and is re-analysed).
    fn from_outcome(outcome: &VariationOutcome) -> Option<VariationPointRecord> {
        let data = match &outcome.data {
            None => None,
            Some(value) => Some(Deserialize::from_value(value).ok()?),
        };
        Some(VariationPointRecord {
            data,
            elapsed_seconds: outcome.elapsed_seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// The stages a [`FlowBuilder`] run passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowStage {
    /// Steps 1–3: problem construction, optimisation, Pareto extraction.
    Optimize,
    /// Step 4: per-Pareto-point Monte Carlo variation analysis.
    AnalyzeVariation,
    /// Step 5: combined table-model generation.
    BuildModel,
}

impl FlowStage {
    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Optimize => "optimize",
            FlowStage::AnalyzeVariation => "analyze_variation",
            FlowStage::BuildModel => "build_model",
        }
    }
}

/// Per-stage progress callbacks for a [`FlowBuilder`] run.
///
/// All methods have empty defaults, so an observer only implements what it
/// cares about.
pub trait FlowObserver {
    /// Called when a stage begins.
    fn on_stage_start(&mut self, stage: FlowStage) {
        let _ = stage;
    }

    /// Called when a stage completes successfully.
    fn on_stage_complete(&mut self, stage: FlowStage, elapsed: Duration) {
        let _ = (stage, elapsed);
    }

    /// Called as work progresses inside a stage (`done` out of `total`; the
    /// variation stage reports one tick per analysed Pareto point).
    fn on_progress(&mut self, stage: FlowStage, done: usize, total: usize) {
        let _ = (stage, done, total);
    }

    /// Called after a per-generation optimiser checkpoint has been persisted
    /// to the attached run store (only fires when the builder runs with
    /// [`FlowBuilder::with_store`]). `generation` is the checkpoint's
    /// `next_generation`, `path` the file that was written.
    fn on_checkpoint_written(&mut self, generation: usize, path: &Path) {
        let _ = (generation, path);
    }

    /// Called when the shard data plane failed repeatedly for one shard and
    /// the flow produced it locally instead. `detail` is the transport error
    /// that tipped the shard into degradation — the flow never degrades
    /// silently. Results are unaffected (local production is bit-identical);
    /// this is purely diagnostic, surfaced by `ayb status` via the run's
    /// transport report.
    fn on_transport_degraded(&mut self, stage: FlowStage, shard: usize, detail: &str) {
        let _ = (stage, shard, detail);
    }
}

/// Boundaries of the variation stage (stage 4) at which a flow can halt —
/// the variation-stage counterpart of the optimiser's checkpoint
/// boundaries.
///
/// Used by [`FlowBuilder::halt_variation_when`] to inject deterministic
/// faults: a hook returning `true` stops the flow at that boundary exactly
/// as a crash would (status [`RunStatus::Interrupted`], every completed
/// point checkpointed, resumable to a bit-identical result). The chaos test
/// harness (`tests/chaos.rs`) scripts kill-points over these boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariationBoundary {
    /// A point's analysis was claimed by this process (serial path: the
    /// point is about to be analysed).
    Claim {
        /// Index of the point in the analysed front.
        point: usize,
    },
    /// A point's record landed (and, for durable runs, its variation
    /// checkpoint was written).
    ResultWrite {
        /// Index of the point in the analysed front.
        point: usize,
    },
    /// The variation epoch is about to be disposed of (sharded path only).
    EpochClose,
}

/// Decides whether the flow halts at a variation boundary (`true` = halt);
/// see [`FlowBuilder::halt_variation_when`].
pub type VariationHaltHook = Arc<dyn Fn(VariationBoundary) -> bool + Send + Sync>;

/// A [`FlowObserver`] that logs stage transitions, persisted checkpoints and
/// shard degradations to stderr through the telemetry plane's shared
/// formatter: one line format everywhere, filtered by the `AYB_LOG`
/// severity threshold (default `info`). The `ayb` CLI prints its progress
/// through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrObserver;

impl FlowObserver for StderrObserver {
    fn on_stage_start(&mut self, stage: FlowStage) {
        ayb_obs::log_to_stderr(
            &Event::new(Severity::Info, "flow", event_kind::STAGE_START)
                .detail(format!("stage {} started", stage.name())),
        );
    }

    fn on_stage_complete(&mut self, stage: FlowStage, elapsed: Duration) {
        ayb_obs::log_to_stderr(
            &Event::new(Severity::Info, "flow", event_kind::STAGE_COMPLETE)
                .value(elapsed.as_secs_f64())
                .detail(format!(
                    "stage {} completed in {:.2}s",
                    stage.name(),
                    elapsed.as_secs_f64()
                )),
        );
    }

    fn on_checkpoint_written(&mut self, generation: usize, _path: &Path) {
        ayb_obs::log_to_stderr(
            &Event::new(Severity::Info, "flow", event_kind::CHECKPOINT)
                .value(generation as f64)
                .detail(format!("checkpoint written for generation {generation}")),
        );
    }

    fn on_transport_degraded(&mut self, stage: FlowStage, shard: usize, detail: &str) {
        ayb_obs::log_to_stderr(
            &Event::new(Severity::Warn, "flow", event_kind::SHARD_DEGRADED)
                .shard(shard as u64)
                .detail(format!(
                    "{}: shard {shard} degraded: {detail}",
                    stage.name()
                )),
        );
    }
}

// ---------------------------------------------------------------------------
// FlowBuilder and its staged execution types
// ---------------------------------------------------------------------------

/// Builder for the model-generation flow with pluggable stages.
///
/// Construction selects the configuration, the optimiser and the observers;
/// [`FlowBuilder::optimize`] then starts staged execution
/// (`.optimize()?.analyze_variation()?.build_model()?`), or
/// [`FlowBuilder::run`] executes all stages in one call.
///
/// Attaching a [`Store`] with [`FlowBuilder::with_store`] makes the run
/// durable: a manifest records the configuration, every optimiser generation
/// is checkpointed to disk, and the final [`FlowResult`] is persisted. A run
/// interrupted at any point — killed, crashed or deliberately halted with
/// [`FlowBuilder::halt_after_checkpoints`] / [`FlowBuilder::halt_when`] —
/// continues from its latest checkpoint via [`FlowBuilder::resume`] and
/// produces a result identical to the uninterrupted run.
///
/// A durable run is *claimed* (`claim.json` lock file) for the whole
/// execution, so two processes — a stray `ayb resume` racing a job-server
/// worker, say — can never execute the same run concurrently: the loser gets
/// [`StoreError::RunClaimed`] before touching any state.
pub struct FlowBuilder {
    config: FlowConfig,
    optimizer: OptimizerConfig,
    seed: Option<u64>,
    store: Option<Store>,
    run_id: Option<String>,
    resume_from: Option<(RunHandle, Option<Checkpoint>)>,
    halt_after_checkpoints: Option<usize>,
    claim_owner: Option<String>,
    session: RunSession,
}

impl FlowBuilder {
    /// Creates a builder running the paper's WBGA with `config.ga` settings.
    pub fn new(config: FlowConfig) -> Self {
        let optimizer = OptimizerConfig::Wbga(config.ga);
        FlowBuilder {
            config,
            optimizer,
            seed: None,
            store: None,
            run_id: None,
            resume_from: None,
            halt_after_checkpoints: None,
            claim_owner: None,
            session: RunSession::default(),
        }
    }

    /// Recreates a builder for a stored run, resuming from its newest
    /// usable checkpoint, or from scratch when it has none (a torn or
    /// zero-length checkpoint counts as absent, see
    /// [`RunHandle::latest_checkpoint`]). Configuration, optimiser selection
    /// and seed are restored from the run's manifest, so the resumed flow
    /// produces a [`FlowResult`] identical to the same-seed uninterrupted
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`AybError::Store`] when the run does not exist or its
    /// manifest/checkpoints cannot be read.
    pub fn resume(store: &Store, run_id: &str) -> Result<FlowBuilder, AybError> {
        let handle = store.run(run_id)?;
        let manifest: Manifest<FlowConfig> = handle.manifest()?;
        let checkpoint = handle.latest_checkpoint()?;
        Ok(FlowBuilder {
            optimizer: manifest.optimizer,
            seed: Some(manifest.seed),
            store: Some(store.clone()),
            resume_from: Some((handle, checkpoint)),
            ..FlowBuilder::new(manifest.flow)
        })
    }

    /// The checkpoint generation a builder made by [`FlowBuilder::resume`]
    /// continues from: the newest usable one. `None` when the run restarts
    /// from scratch, or the builder is not a resume.
    pub fn resume_generation(&self) -> Option<usize> {
        let (_, checkpoint) = self.resume_from.as_ref()?;
        checkpoint
            .as_ref()
            .map(|checkpoint| checkpoint.next_generation)
    }

    /// Selects a different optimisation algorithm (step 2 of the flow).
    ///
    /// An explicit seed set via [`FlowBuilder::with_seed`] survives this call
    /// regardless of ordering: the seed is re-applied to the incoming
    /// optimiser configuration.
    #[must_use]
    pub fn with_optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.optimizer = match self.seed {
            Some(seed) => optimizer.with_seed(seed),
            None => optimizer,
        };
        self
    }

    /// Registers a progress observer (may be called multiple times).
    #[must_use]
    pub fn with_observer(mut self, observer: impl FlowObserver + 'static) -> Self {
        self.session.observers.push(Box::new(observer));
        self
    }

    /// Seeds the optimiser *and* the Monte Carlo engine for end-to-end
    /// determinism: two runs with the same configuration and seed produce
    /// identical archives, fronts and variation data.
    ///
    /// Order-independent with respect to [`FlowBuilder::with_optimizer`]:
    /// the seed applies to whichever optimiser ends up selected.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self.config.ga.seed = seed;
        self.config.monte_carlo.seed = seed;
        self.optimizer = self.optimizer.with_seed(seed);
        self
    }

    /// Attaches a run store: the flow writes a manifest, per-generation
    /// checkpoints and the final result under `runs/<run_id>/`.
    #[must_use]
    pub fn with_store(mut self, store: &Store) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// Chooses the run id inside the attached store (default: the store
    /// allocates a sequential `run-NNNN` id).
    #[must_use]
    pub fn with_run_id(mut self, run_id: impl Into<String>) -> Self {
        self.run_id = Some(run_id.into());
        self
    }

    /// Deliberately halts the optimisation after `count` checkpoints have
    /// been written, leaving the run in the store with status
    /// [`RunStatus::Interrupted`]. The flow then returns
    /// [`AybError::Checkpoint`] wrapping
    /// [`ayb_moo::CheckpointError::Halted`].
    ///
    /// This is the deterministic stand-in for a kill/crash — the on-disk
    /// state is indistinguishable apart from the recorded status — used by
    /// the resume integration tests and the `ayb run --halt-after` flag.
    /// Requires an attached store to be meaningful.
    #[must_use]
    pub fn halt_after_checkpoints(mut self, count: usize) -> Self {
        self.halt_after_checkpoints = Some(count.max(1));
        self
    }

    /// Registers an external halt signal: whenever `signal` reads `true` at
    /// a checkpoint boundary — an optimiser generation checkpoint, or a
    /// variation-stage point boundary — the run stops gracefully exactly as
    /// [`FlowBuilder::halt_after_checkpoints`] would — status
    /// [`RunStatus::Interrupted`], every checkpoint on disk, resumable to a
    /// bit-identical result. This is how a job server drains its workers on
    /// shutdown without losing (or perturbing) any run, whichever stage they
    /// are in.
    #[must_use]
    pub fn halt_when(mut self, signal: Arc<AtomicBool>) -> Self {
        self.session.halt_signal = Some(signal);
        self
    }

    /// Registers a deterministic fault-injection hook over the variation
    /// stage's boundaries (see [`VariationBoundary`]): whenever the hook
    /// returns `true` the flow halts at that exact boundary, leaving on-disk
    /// state indistinguishable from a crash there (apart from the recorded
    /// [`RunStatus::Interrupted`] status) and resumable to a bit-identical
    /// result. This is the variation-stage counterpart of
    /// [`FlowBuilder::halt_after_checkpoints`], used by the chaos test
    /// harness to script crash schedules.
    #[must_use]
    pub fn halt_variation_when(mut self, hook: VariationHaltHook) -> Self {
        self.session.variation_halt = Some(hook);
        self
    }

    /// Attaches an event recorder: the flow emits structured run events
    /// (stage boundaries, checkpoints, shard claim/fence/degrade traffic)
    /// and metrics through it, and — for durable runs — persists the
    /// events to `runs/<id>/events.jsonl` alongside the result. Telemetry
    /// is strictly observational: enabling it never changes a
    /// [`FlowResult::determinism_digest`]. Without this call a flow
    /// records through a private recorder of its own; pass one explicitly
    /// to share it (a job server funnelling many runs into one stream, a
    /// test asserting on events).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.session.recorder = recorder;
        self
    }

    /// Labels the execution claim this flow takes on its stored run
    /// (default: `flow-<pid>`). Purely diagnostic — the claim itself is
    /// always taken; the label shows up in `ayb status` and in
    /// [`StoreError::RunClaimed`] errors.
    #[must_use]
    pub fn with_claim_owner(mut self, owner: impl Into<String>) -> Self {
        self.claim_owner = Some(owner.into());
        self
    }

    /// Enables (or disables) sharded batch evaluation
    /// ([`FlowConfig::sharded`]): optimiser populations are split into
    /// shards published under the durable run's directory, where any
    /// `ayb serve` worker sharing the store — including on other machines —
    /// can claim and evaluate them. The submitting flow participates too,
    /// so a sharded run completes even with no workers, and results are
    /// bit-identical to unsharded execution either way. Requires an attached
    /// store to have any effect.
    #[must_use]
    pub fn sharded(mut self, sharded: bool) -> Self {
        self.config.sharded = sharded;
        self
    }

    /// Sets the maximum number of candidates per shard
    /// ([`FlowConfig::shard_size`]; minimum 1).
    #[must_use]
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.config.shard_size = shard_size.max(1);
        self
    }

    /// The configuration this builder will run with.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The optimiser selection this builder will run with.
    pub fn optimizer(&self) -> &OptimizerConfig {
        &self.optimizer
    }

    /// Stage 1–3: builds the sizing problem, runs the selected optimiser and
    /// extracts the Pareto front.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoFeasibleCandidates`] (wrapped in [`AybError`])
    /// when not a single candidate evaluated successfully.
    pub fn optimize(self) -> Result<OptimizedFlow, AybError> {
        let FlowBuilder {
            config,
            optimizer,
            store,
            run_id,
            resume_from,
            halt_after_checkpoints,
            claim_owner,
            mut session,
            ..
        } = self;
        let problem = OtaSizingProblem::new(config.testbench, config.sweep.clone())
            .with_threads(config.threads);

        // Open (resume) or create the durable run when a store is attached.
        // Either way the run is *claimed* for the whole execution: a second
        // process resuming (or a job-server worker picking up) the same run
        // fails fast with `StoreError::RunClaimed` while the holder is live,
        // and takes a dead or hung holder's claim over. The session releases
        // the claim at every exit.
        let owner = claim_owner.unwrap_or_else(|| format!("flow-{}", std::process::id()));
        let resume_checkpoint = match (store, resume_from) {
            (_, Some((handle, checkpoint))) => {
                let claim = handle.try_claim(&owner)?;
                // Under the claim, re-check for a result: the run may have
                // been completed by another worker between this builder's
                // construction and the claim; re-executing it would be
                // wasted (if bit-identical) work.
                let handle = session.open(handle, claim);
                let started = if handle.has_result() {
                    Err(StoreError::AlreadyCompleted(handle.id().to_string()))
                } else {
                    handle.set_status(RunStatus::Running)
                };
                if let Err(error) = started {
                    let _ = session.end(None);
                    return Err(error.into());
                }
                checkpoint
            }
            (Some(store), None) => {
                let seed = optimizer.seed();
                let handle = match &run_id {
                    Some(id) => store.create_run_with_id(id, seed, &optimizer, &config),
                    None => store.create_run(seed, &optimizer, &config),
                }?;
                let claim = handle.try_claim(&owner)?;
                session.open(handle, claim);
                None
            }
            (None, None) => None,
        };
        session.recorder.emit(
            session
                .event(Severity::Info, event_kind::FLOW_START)
                .detail(format!("flow started (owner `{owner}`)")),
        );
        session.stage_start(FlowStage::Optimize);
        session.open_plane(&config);

        // Degradations inside the optimiser's batch evaluations are buffered
        // (the evaluator is shared behind `&self` while the checkpoint sink
        // holds the session) and recorded at the next generation's
        // checkpoint, the rest once the optimiser returns.
        let degraded: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
        let report_degraded = |session: &mut RunSession| {
            let buffered = std::mem::take(&mut *degraded.lock().expect("degradation event lock"));
            for (shard, detail) in buffered {
                session.degraded(FlowStage::Optimize, shard, &detail);
            }
        };
        // With a shard data plane, batch evaluation goes through it; results
        // are identical sharded or not (see `ayb_moo::sharding`).
        let sharded = session.transport().map(|transport| {
            let sink = Arc::clone(&degraded);
            WithEvaluator::new(
                &problem,
                ShardedEvaluator::new(transport, config.shard_size).with_degraded_hook(Arc::new(
                    move |shard, error| {
                        let ShardError::Transport(detail) = error;
                        sink.lock()
                            .expect("degradation event lock")
                            .push((shard, detail.clone()));
                    },
                )),
            )
        });
        let sizing: &dyn SizingProblem = match &sharded {
            Some(wrapped) => wrapped,
            None => &problem,
        };

        let t0 = Instant::now();
        let mut written = 0usize;
        let mut write_error: Option<StoreError> = None;
        let outcome = optimizer.run_checkpointed(
            sizing,
            resume_checkpoint,
            &mut |checkpoint: &Checkpoint| {
                report_degraded(&mut session);
                match session.checkpoint_generation(checkpoint) {
                    Ok(false) => CheckpointControl::Continue,
                    Ok(true) => {
                        written += 1;
                        let count_reached =
                            matches!(halt_after_checkpoints, Some(limit) if written >= limit);
                        if count_reached || session.halt_signalled() {
                            CheckpointControl::Halt
                        } else {
                            CheckpointControl::Continue
                        }
                    }
                    Err(error) => {
                        write_error = Some(error);
                        CheckpointControl::Halt
                    }
                }
            },
        );
        let optimization_time = t0.elapsed();
        drop(sharded); // ends the wrapper's borrow of `problem`
        report_degraded(&mut session);
        if let Some(error) = write_error {
            return Err(session.stop(error));
        }
        let optimization = match outcome {
            Ok(optimization) => optimization,
            Err(error) => return Err(session.stop(error)),
        };
        if optimization.archive.is_empty() {
            return Err(session.stop(FlowError::NoFeasibleCandidates));
        }
        let pareto = optimization.pareto_front();
        let selected = subsample_front(&pareto, config.max_pareto_points);
        session.stage_complete(FlowStage::Optimize, optimization_time);

        Ok(OptimizedFlow {
            config,
            problem,
            optimization,
            pareto,
            selected,
            session,
            timings: FlowTimings {
                optimization: optimization_time,
                ..FlowTimings::default()
            },
        })
    }

    /// Runs all stages (`optimize -> analyze_variation -> build_model`).
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's [`AybError`].
    pub fn run(self) -> Result<FlowResult, AybError> {
        self.optimize()?.analyze_variation()?.build_model()
    }
}

/// Flow state after the optimisation stage: archive and Pareto front exist,
/// variation analysis has not run yet.
pub struct OptimizedFlow {
    config: FlowConfig,
    problem: OtaSizingProblem,
    optimization: OptimizationResult,
    pareto: Vec<Evaluation>,
    selected: Vec<Evaluation>,
    session: RunSession,
    timings: FlowTimings,
}

/// Why the variation stage stopped before every pending point was
/// recorded.
enum VariationStop {
    /// A halt signal or fault-injection hook stopped the stage at a
    /// boundary; every recorded point is safely on disk.
    Halted,
    /// A variation checkpoint could not be persisted.
    Failed(StoreError),
}

fn recorded_points(slots: &[Option<VariationPointRecord>]) -> usize {
    slots.iter().filter(|slot| slot.is_some()).count()
}

/// Restores the per-point checkpoints of an interrupted predecessor into
/// `slots`. A torn or zero-length record, which a machine crash can leave,
/// counts as absent: its point is analysed again.
fn restore_points(
    handle: &RunHandle,
    slots: &mut [Option<VariationPointRecord>],
) -> Result<(), StoreError> {
    for index in handle.variation_checkpoint_indices()? {
        if index >= slots.len() {
            continue;
        }
        match handle.load_variation_checkpoint(index) {
            Ok(record) => slots[index] = Some(record),
            Err(StoreError::Json { .. }) => {}
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

impl OptimizedFlow {
    /// Every successful evaluation the optimiser performed.
    pub fn archive(&self) -> &[Evaluation] {
        &self.optimization.archive
    }

    /// The Pareto front extracted from the archive.
    pub fn pareto(&self) -> &[Evaluation] {
        &self.pareto
    }

    /// The subset of Pareto points selected for Monte Carlo analysis.
    pub fn selected(&self) -> &[Evaluation] {
        &self.selected
    }

    /// Stage 4: Monte Carlo variation analysis of every selected Pareto
    /// point.
    ///
    /// Each point is analysed with its own derived seed ([`point_mc_seed`]),
    /// so points are independent of each other and of execution order. For
    /// durable runs every analysed point is persisted as
    /// `checkpoints/variation_NNNN.json` the moment it lands — the stage
    /// checkpoints, and a flow killed mid-stage resumes here without
    /// re-analysing completed points. With [`FlowConfig::sharded`] the stage
    /// additionally distributes pending points through the run's shard data
    /// plane (one task per [`FlowConfig::variation_batch`] points), where
    /// any `ayb serve` worker on that plane helps out; the submitter
    /// participates exactly like sharded population evaluation, so the
    /// stage completes with zero workers and the result is bit-identical to
    /// the serial path either way.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InsufficientParetoData`] (wrapped in
    /// [`AybError`]) when fewer than three points survive the analysis,
    /// [`AybError::Checkpoint`] ([`CheckpointError::Halted`]) when a halt
    /// signal or fault hook stopped the stage at a point boundary, and
    /// [`AybError::Store`] when a variation checkpoint cannot be persisted.
    pub fn analyze_variation(mut self) -> Result<AnalyzedFlow, AybError> {
        self.session.stage_start(FlowStage::AnalyzeVariation);
        let t0 = Instant::now();
        let total = self.selected.len();
        let mut slots: Vec<Option<VariationPointRecord>> = vec![None; total];

        // Points an interrupted predecessor checkpointed are *not*
        // re-analysed: their derived seeds make the remainder independent of
        // them, so the final result is still bit-identical to an
        // uninterrupted run.
        if let Some(handle) = self.session.run() {
            if let Err(error) = restore_points(handle, &mut slots) {
                return Err(self.session.stop(error));
            }
        }

        let pending: Vec<usize> = (0..total).filter(|&index| slots[index].is_none()).collect();
        // The plane built in `optimize`, so traffic and fencing stats keep
        // accumulating across stages.
        let analysed = match self.session.transport() {
            Some(plane) if pending.len() > 1 => {
                self.variation_sharded(plane.as_ref(), &pending, &mut slots)
            }
            _ => self.variation_serial(&pending, &mut slots),
        };
        if let Err(stop) = analysed {
            let error = match stop {
                VariationStop::Halted => AybError::Checkpoint(CheckpointError::Halted {
                    generation: recorded_points(&slots),
                }),
                VariationStop::Failed(error) => AybError::Store(error),
            };
            return Err(self.session.stop(error));
        }

        let mut pareto_data = Vec::with_capacity(total);
        let mut mc_point_seconds = 0.0f64;
        for slot in slots {
            let record = slot.expect("every selected point was analysed or restored");
            mc_point_seconds += record.elapsed_seconds;
            if let Some(data) = record.data {
                pareto_data.push(data);
            }
        }
        self.timings.monte_carlo = t0.elapsed();
        self.timings.mc_points = total;
        self.timings.mc_point_seconds = mc_point_seconds;
        self.session
            .stage_complete(FlowStage::AnalyzeVariation, self.timings.monte_carlo);
        if pareto_data.len() < 3 {
            let error = FlowError::InsufficientParetoData(pareto_data.len());
            return Err(self.session.stop(error));
        }
        Ok(AnalyzedFlow {
            config: self.config,
            optimization: self.optimization,
            pareto: self.pareto,
            pareto_data,
            session: self.session,
            timings: self.timings,
        })
    }

    /// Analyses one selected point in-process (the shared kernel of both
    /// paths), timing the work.
    fn analyse_one(&self, index: usize) -> VariationPointRecord {
        let t0 = Instant::now();
        let data = analyse_variation_point(
            &self.problem,
            &self.selected[index].parameters,
            &self.config,
            point_mc_seed(self.config.monte_carlo.seed, index),
        );
        VariationPointRecord {
            data,
            elapsed_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The serial variation path: analyse pending points in index order,
    /// checkpointing each as it completes.
    fn variation_serial(
        &mut self,
        pending: &[usize],
        slots: &mut [Option<VariationPointRecord>],
    ) -> Result<(), VariationStop> {
        for &index in pending {
            if self
                .session
                .halts_at(VariationBoundary::Claim { point: index })
            {
                return Err(VariationStop::Halted);
            }
            let record = self.analyse_one(index);
            self.session
                .record_point(slots, index, record)
                .map_err(VariationStop::Failed)?;
            if self
                .session
                .halts_at(VariationBoundary::ResultWrite { point: index })
            {
                return Err(VariationStop::Halted);
            }
        }
        Ok(())
    }

    /// The sharded variation path: chunk the pending points into
    /// [`FlowConfig::variation_batch`]-sized tasks, publish them into a
    /// variation epoch on the run's shard data plane, then participate in
    /// the generic claim-poll-recover drive ([`drive_epoch`]) exactly like
    /// sharded population evaluation. Transport failures degrade to the
    /// serial path — the stage always completes, with identical results.
    fn variation_sharded(
        &mut self,
        plane: &dyn ShardTransport,
        pending: &[usize],
        slots: &mut [Option<VariationPointRecord>],
    ) -> Result<(), VariationStop> {
        let batch_size = self.config.variation_batch.max(1);
        let batches: Vec<Vec<usize>> = pending
            .chunks(batch_size)
            .map(|chunk| chunk.to_vec())
            .collect();
        let base_seed = self.config.monte_carlo.seed;
        let selected = &self.selected;
        let published = publish_epoch(plane, ShardWorkKind::Variation, batches.len(), |shard| {
            ShardWork::VariationBatch {
                points: batches[shard]
                    .iter()
                    .map(|&index| VariationPointWork {
                        parameters: selected[index].parameters.clone(),
                        mc_seed: point_mc_seed(base_seed, index),
                    })
                    .collect(),
            }
        });
        let epoch = match published {
            Ok(epoch) => epoch,
            Err((shard, ShardError::Transport(detail))) => {
                // Every pending point is analysed serially instead.
                let point = batches[shard][0];
                self.session
                    .degraded(FlowStage::AnalyzeVariation, point, &detail);
                return self.variation_serial(pending, slots);
            }
        };

        let mut work = VariationEpochWork {
            flow: self,
            plane,
            epoch: &epoch,
            batches: &batches,
            slots,
            stop: None,
        };
        let driven = drive_epoch(&mut work, batches.len());
        let stop = work.stop;
        match driven {
            Some(_) => {
                if self.session.halts_at(VariationBoundary::EpochClose) {
                    // Halt *before* disposal, like a crash at this boundary:
                    // the leftover epoch is swept when the run resumes.
                    return Err(VariationStop::Halted);
                }
                let _ = plane.close_epoch(&epoch);
                Ok(())
            }
            // Aborted mid-epoch: leave the epoch on disk (exactly what a
            // crash leaves behind); the resumed flow sweeps it.
            None => Err(stop.unwrap_or(VariationStop::Halted)),
        }
    }
}

/// [`EpochWork`] binding of the variation stage: one shard = one batch of
/// pending Pareto points, transported as [`ShardWork::VariationBatch`] over
/// the run's shard plane (disk or TCP). Landing a batch writes each point's
/// variation checkpoint in batch order and ticks the flow's observers —
/// identical bookkeeping to the serial path, with a halt boundary between
/// every point.
struct VariationEpochWork<'a> {
    flow: &'a mut OptimizedFlow,
    plane: &'a dyn ShardTransport,
    epoch: &'a str,
    /// Pending point indices, chunked as published (`batches[shard]`).
    batches: &'a [Vec<usize>],
    slots: &'a mut [Option<VariationPointRecord>],
    stop: Option<VariationStop>,
}

impl EpochWork for VariationEpochWork<'_> {
    type Output = Vec<VariationPointRecord>;

    fn fetch(&mut self, shard: usize) -> Result<Option<Vec<VariationPointRecord>>, ShardError> {
        let Some(ShardOutcome::VariationBatch { points }) =
            self.plane.fetch_outcome(self.epoch, shard)?
        else {
            return Ok(None);
        };
        if points.len() != self.batches[shard].len() {
            // A mis-shaped payload leaves the shard pending (it will be
            // claimed and re-analysed locally) instead of failing the stage.
            return Ok(None);
        }
        let records: Option<Vec<VariationPointRecord>> = points
            .iter()
            .map(VariationPointRecord::from_outcome)
            .collect();
        // Same treatment for a malformed point payload.
        Ok(records)
    }

    fn try_claim(&mut self, shard: usize) -> Result<bool, ShardError> {
        self.plane.try_claim(self.epoch, shard)
    }

    fn evaluate(&mut self, shard: usize) -> Vec<VariationPointRecord> {
        self.batches[shard]
            .iter()
            .map(|&index| self.flow.analyse_one(index))
            .collect()
    }

    fn submit(
        &mut self,
        shard: usize,
        records: &Vec<VariationPointRecord>,
    ) -> Result<(), ShardError> {
        let outcome = ShardOutcome::VariationBatch {
            points: records
                .iter()
                .map(VariationPointRecord::to_outcome)
                .collect(),
        };
        self.plane.submit_outcome(self.epoch, shard, &outcome)
    }

    fn on_claimed(&mut self, shard: usize) -> bool {
        // Check the claim boundary of every point in the batch up front: a
        // scripted halt at any of them stops before the batch is analysed
        // (its unrecorded points are re-analysed on resume, with unchanged
        // results thanks to the per-point seeds).
        for &point in &self.batches[shard] {
            if self
                .flow
                .session
                .halts_at(VariationBoundary::Claim { point })
            {
                self.stop = Some(VariationStop::Halted);
                return false;
            }
        }
        true
    }

    fn on_result(&mut self, shard: usize, records: &Vec<VariationPointRecord>) -> bool {
        // Record batch points sequentially, honouring the result-write halt
        // boundary between points exactly like the serial path: a mid-batch
        // halt leaves the earlier points durably checkpointed and the rest
        // for the resumed flow.
        let session = &mut self.flow.session;
        for (&index, record) in self.batches[shard].iter().zip(records) {
            if let Err(error) = session.record_point(self.slots, index, record.clone()) {
                self.stop = Some(VariationStop::Failed(error));
                return false;
            }
            if session.halts_at(VariationBoundary::ResultWrite { point: index }) {
                self.stop = Some(VariationStop::Halted);
                return false;
            }
        }
        true
    }

    fn on_degraded(&mut self, shard: usize, error: &ShardError) {
        let ShardError::Transport(detail) = error;
        let point = self.batches[shard][0];
        self.flow
            .session
            .degraded(FlowStage::AnalyzeVariation, point, detail);
    }
}

/// Flow state after variation analysis: per-point variation data exists, the
/// combined model has not been built yet.
pub struct AnalyzedFlow {
    config: FlowConfig,
    optimization: OptimizationResult,
    pareto: Vec<Evaluation>,
    pareto_data: Vec<ParetoPointData>,
    session: RunSession,
    timings: FlowTimings,
}

impl AnalyzedFlow {
    /// The Pareto points annotated with Monte Carlo variation (Table 2 data).
    pub fn pareto_data(&self) -> &[ParetoPointData] {
        &self.pareto_data
    }

    /// Stage 5: builds the combined performance + variation model and
    /// finishes the flow.
    ///
    /// # Errors
    ///
    /// Returns the [`ModelError`] (wrapped in [`AybError`]) when the model
    /// cannot be constructed from the analysed points.
    pub fn build_model(mut self) -> Result<FlowResult, AybError> {
        self.session.stage_start(FlowStage::BuildModel);
        let t0 = Instant::now();
        let model = match CombinedOtaModel::from_pareto_data(
            self.pareto_data.clone(),
            self.config.sigma_level,
        ) {
            Ok(model) => model,
            Err(error) => return Err(self.session.stop(error)),
        };
        self.timings.model_build = t0.elapsed();
        self.session
            .stage_complete(FlowStage::BuildModel, self.timings.model_build);
        // Shard-plane accounting, accumulated over every stage. Timings are
        // excluded from determinism digests, so recording traffic here can
        // never perturb a result.
        if let Some(stats) = self.session.transport().map(|plane| plane.stats()) {
            self.timings.shard_requests = stats.requests;
            self.timings.shard_request_seconds = stats.request_seconds;
            self.timings.shards_fenced = stats.fenced_rejections;
        }
        self.timings.shards_degraded = self.session.incidents.len();
        let result = FlowResult {
            archive: self.optimization.archive.clone(),
            pareto: self.pareto,
            pareto_data: self.pareto_data,
            model,
            timings: self.timings,
            optimization: self.optimization,
        };
        if let Err(error) = self.session.persist(&result) {
            return Err(self.session.stop(error));
        }
        self.session.end(Some(RunStatus::Completed))?;
        Ok(result)
    }
}

/// Counter of the bytes a flow's generation checkpoints wrote, on the
/// flow's recorder (a job server's recorder, and so `/v1/metrics`, for
/// service runs).
pub const CHECKPOINT_BYTES_METRIC: &str = "ayb_flow_checkpoint_bytes_total";

/// Histogram of the seconds each generation checkpoint save took, on the
/// flow's recorder.
pub const CHECKPOINT_SECONDS_METRIC: &str = "ayb_flow_checkpoint_seconds";

/// Interval at which a flow refreshes its run claim's heartbeat (see
/// [`ayb_store::ClaimHeartbeat`]): recovery thresholds are tens of seconds,
/// so one touch per second gives ample margin.
const CLAIM_HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// The shard data plane a sharded flow drives its epochs through, selected
/// by [`FlowConfig::transport`]: the store's on-disk plane (workers share
/// the filesystem) or a TCP coordinator (workers share nothing but the
/// network). Both implement [`ShardTransport`], so the eval and variation
/// stages are transport-agnostic — and bit-identical, since shard payloads
/// and reassembly order never depend on how they travelled. The one shared
/// transport carries every stage, so its counters cover the whole flow.
struct ShardPlane {
    transport: Arc<dyn ShardTransport>,
    /// Where the plane lives, for diagnostics: "disk" or the `tcp://` URL.
    label: String,
}

/// One shard's degradation to local evaluation: the record behind
/// [`FlowObserver::on_transport_degraded`], persisted in the run's
/// [`TransportReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportIncident {
    /// Stage the degradation happened in (`optimize` / `analyze_variation`).
    pub stage: String,
    /// Shard index within its epoch (eval) or Pareto-point index
    /// (variation).
    pub shard: usize,
    /// The transport error that tipped the shard into local evaluation.
    pub detail: String,
}

/// Diagnostic summary of a sharded run's data-plane behaviour, persisted as
/// `transport.json` next to the result and shown by `ayb status`. Purely
/// observational: results and digests never depend on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportReport {
    /// Where the data plane lived ("disk" or a `tcp://host:port` URL).
    pub transport: String,
    /// Every shard that degraded to local evaluation, with its cause.
    pub incidents: Vec<TransportIncident>,
    /// Shard requests sent over the wire (TCP planes; 0 on disk).
    pub requests: u64,
    /// Summed request round-trip seconds (TCP planes; 0 on disk).
    pub request_seconds: f64,
    /// Late writes from stolen claims this flow's plane discarded.
    pub fenced_rejections: u64,
}

/// The run a flow carries through its three stages, in one place: who
/// hears about it (observers and recorder), what degraded on the way, when
/// to halt and — for a stored run — the run itself.
///
/// Each stage start and end, checkpoint, variation point and degradation is
/// reported here to the observers and the recorder together, every durable
/// write passes the session's fence check first, and every exit — success,
/// failure or halt — ends the run through [`RunSession::end`].
#[derive(Default)]
struct RunSession {
    observers: Vec<Box<dyn FlowObserver>>,
    recorder: Recorder,
    /// Every shard that degraded to local production, for the run's
    /// [`TransportReport`].
    incidents: Vec<TransportIncident>,
    halt_signal: Option<Arc<AtomicBool>>,
    variation_halt: Option<VariationHaltHook>,
    /// Summed stage wall clock of this attempt (what
    /// [`FlowTimings::total`] reports), the value of the `run_completed`
    /// event.
    elapsed: Duration,
    durable: Option<DurableRun>,
}

/// The stored part of a [`RunSession`], held from the claim to the end of
/// the run.
struct DurableRun {
    handle: RunHandle,
    /// The fenced claim minted for this execution. Every durable write
    /// re-checks it, so a claim that presumed this process hung and took the
    /// run over fences this writer off instead of letting two executors
    /// fight over one run's files.
    claim: ClaimInfo,
    /// Refreshes the claim's heartbeat, so claimants and recovery passes —
    /// here or on other hosts — can tell this live execution from a dead
    /// one.
    heartbeat: ClaimHeartbeat,
    /// Keeps the run's `events.jsonl` attached to the recorder until the
    /// run ends (detached on drop).
    _events: SinkGuard,
    /// The shard data plane of a sharded run.
    plane: Option<ShardPlane>,
}

/// A run's `events.jsonl` sink: appends only the events of that run.
struct RunEvents {
    run_id: String,
    file: JsonlSink,
}

impl EventSink for RunEvents {
    fn record(&mut self, event: &Event) {
        if event.run_id.as_deref() == Some(self.run_id.as_str()) {
            self.file.record(event);
        }
    }
}

impl DurableRun {
    /// Pre-write fence check for durable-run files: verifies this flow still
    /// holds the claim it minted, so a fenced-off (stolen-claim) writer
    /// fails instead of corrupting its successor's state — with
    /// [`StoreError::RunClaimed`] naming the claim that holds the run, or,
    /// once that successor has released it, [`StoreError::AlreadyCompleted`]
    /// when the run has a result and [`StoreError::ClaimLost`] when not. The
    /// check-then-write window is a single stat — the successor's first act
    /// is its own fence-stamped claim, which this comparison can never match.
    fn fence(&self) -> Result<(), StoreError> {
        let run_id = self.handle.id().to_string();
        match self.handle.claim()? {
            Some(held) if held == self.claim => Ok(()),
            Some(held) => Err(StoreError::RunClaimed {
                run_id,
                owner: held.owner,
            }),
            None if self.handle.has_result() => Err(StoreError::AlreadyCompleted(run_id)),
            None => Err(StoreError::ClaimLost(run_id)),
        }
    }
}

impl RunSession {
    /// The stored run, when there is one.
    fn run(&self) -> Option<&RunHandle> {
        self.durable.as_ref().map(|durable| &durable.handle)
    }

    /// The shard data plane's transport, when the run has one.
    fn transport(&self) -> Option<Arc<dyn ShardTransport>> {
        let plane = self.durable.as_ref()?.plane.as_ref()?;
        Some(Arc::clone(&plane.transport))
    }

    /// An [`Event`] stamped with the flow's source label and, for a stored
    /// run, its id.
    fn event(&self, severity: Severity, kind: &str) -> Event {
        let event = Event::new(severity, "flow", kind);
        match self.run() {
            Some(handle) => event.run(handle.id()),
            None => event,
        }
    }

    /// Opens the stored part of the session on a freshly claimed run: starts
    /// the claim heartbeat and attaches the run's `events.jsonl` to the
    /// recorder. The sink is scoped to the run and keeps only the events
    /// stamped with its id, so on a recorder shared across runs (a job
    /// server's) each run's file holds that run's events alone; every
    /// (re-)entry marks a new attempt boundary in the file with its
    /// `flow_start` event, which `ayb trace` splits on.
    fn open(&mut self, handle: RunHandle, claim: ClaimInfo) -> &RunHandle {
        let heartbeat = handle.start_claim_heartbeat(CLAIM_HEARTBEAT_INTERVAL);
        let events = self.recorder.add_scoped_sink(Box::new(RunEvents {
            run_id: handle.id().to_string(),
            file: JsonlSink::new(handle.events_path()),
        }));
        &self
            .durable
            .insert(DurableRun {
                handle,
                claim,
                heartbeat,
                _events: events,
                plane: None,
            })
            .handle
    }

    /// Builds the shard data plane of a sharded stored run — the store's
    /// disk plane, or a TCP coordinator when the config names one — once,
    /// so its traffic and fencing counters cover every stage. Runs that are
    /// not sharded, or not stored, get none.
    fn open_plane(&mut self, config: &FlowConfig) {
        if !config.sharded || self.durable.is_none() {
            return;
        }
        let tcp = match config.transport.as_deref().map(TcpTransport::from_url) {
            Some(Ok(transport)) => Some(transport),
            Some(Err(reason)) => {
                // A malformed selector degrades to the disk plane — noisily,
                // so a typo'd URL never passes for a working coordinator (the
                // CLI validates up front; this guards configs edited by hand).
                let detail = format!("{reason}; using the disk data plane");
                self.degraded(FlowStage::Optimize, 0, &detail);
                None
            }
            None => None,
        };
        let recorder = self.recorder.clone();
        let Some(durable) = self.durable.as_mut() else {
            return;
        };
        // This flow holds the run's exclusive claim, so any shard epochs
        // still on disk belong to a dead predecessor.
        let _ = durable.handle.sweep_shards();
        durable.plane = Some(match tcp {
            Some(transport) => ShardPlane {
                label: transport.url(),
                transport: Arc::new(
                    transport
                        .with_run_context(durable.handle.id(), Serialize::to_value(config))
                        .with_recorder(recorder),
                ),
            },
            None => ShardPlane {
                label: "disk".to_string(),
                transport: Arc::new(durable.handle.shard_plane().with_recorder(recorder)),
            },
        });
    }

    /// Reports the start of `stage` to the observers and the recorder.
    fn stage_start(&mut self, stage: FlowStage) {
        for observer in &mut self.observers {
            observer.on_stage_start(stage);
        }
        self.recorder.emit(
            self.event(Severity::Info, event_kind::STAGE_START)
                .detail(stage.name()),
        );
    }

    /// Reports the completion of `stage` after `elapsed` to the observers
    /// and the recorder.
    fn stage_complete(&mut self, stage: FlowStage, elapsed: Duration) {
        self.elapsed += elapsed;
        for observer in &mut self.observers {
            observer.on_stage_complete(stage, elapsed);
        }
        self.recorder.emit(
            self.event(Severity::Info, event_kind::STAGE_COMPLETE)
                .value(elapsed.as_secs_f64())
                .detail(stage.name()),
        );
    }

    /// Records one shard's degradation to local production, once for
    /// everyone: the observers hear it, the recorder gets a
    /// `shard_degraded` event, and the incident lands in the run's persisted
    /// [`TransportReport`] (see [`FlowObserver::on_transport_degraded`]).
    fn degraded(&mut self, stage: FlowStage, shard: usize, detail: &str) {
        for observer in &mut self.observers {
            observer.on_transport_degraded(stage, shard, detail);
        }
        self.recorder.emit(
            self.event(Severity::Warn, event_kind::SHARD_DEGRADED)
                .shard(shard as u64)
                .detail(format!("{}: {detail}", stage.name())),
        );
        self.incidents.push(TransportIncident {
            stage: stage.name().to_string(),
            shard,
            detail: detail.to_string(),
        });
    }

    /// Whether the external halt signal is raised. Only stored runs honour
    /// it: halting a store-less flow would discard everything with nothing
    /// to resume, which is worse than finishing.
    fn halt_signalled(&self) -> bool {
        self.durable.is_some()
            && self
                .halt_signal
                .as_ref()
                .is_some_and(|signal| signal.load(Ordering::Relaxed))
    }

    /// Whether the flow halts at variation `boundary`: the fault-injection
    /// hook decides unconditionally (it exists precisely to script halts),
    /// the halt signal as [`RunSession::halt_signalled`] says.
    fn halts_at(&self, boundary: VariationBoundary) -> bool {
        self.variation_halt
            .as_ref()
            .is_some_and(|hook| hook(boundary))
            || self.halt_signalled()
    }

    /// Persists a generation checkpoint of a stored run behind the fence and
    /// reports it. `Ok(false)`: a store-less run keeps no checkpoints.
    fn checkpoint_generation(&mut self, checkpoint: &Checkpoint) -> Result<bool, StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(false);
        };
        let started = Instant::now();
        durable.fence()?;
        let saved = durable.handle.save_checkpoint(checkpoint)?;
        let metrics = self.recorder.metrics();
        metrics.add(CHECKPOINT_BYTES_METRIC, saved.bytes);
        metrics.observe(CHECKPOINT_SECONDS_METRIC, started.elapsed().as_secs_f64());
        let generation = checkpoint.next_generation;
        for observer in &mut self.observers {
            observer.on_checkpoint_written(generation, &saved.path);
        }
        self.recorder.emit(
            self.event(Severity::Debug, event_kind::CHECKPOINT)
                .value(generation as f64)
                .detail(format!("generation {generation} checkpoint written")),
        );
        Ok(true)
    }

    /// Persists (stored runs, behind the fence) and slots one landed
    /// variation point, ticking the progress observers.
    fn record_point(
        &mut self,
        slots: &mut [Option<VariationPointRecord>],
        index: usize,
        record: VariationPointRecord,
    ) -> Result<(), StoreError> {
        if let Some(durable) = &self.durable {
            durable.fence()?;
            durable.handle.save_variation_checkpoint(index, &record)?;
        }
        let elapsed_seconds = record.elapsed_seconds;
        slots[index] = Some(record);
        let done = recorded_points(slots);
        let total = slots.len();
        for observer in &mut self.observers {
            observer.on_progress(FlowStage::AnalyzeVariation, done, total);
        }
        self.recorder.emit(
            self.event(Severity::Debug, event_kind::VARIATION_POINT)
                .shard(index as u64)
                .value(elapsed_seconds)
                .detail(format!("point {index} analysed ({done}/{total})")),
        );
        Ok(())
    }

    /// Persists the result of a stored run behind the fence, with the
    /// transport report of a sharded run beside it. Store-less runs persist
    /// nothing.
    fn persist(&self, result: &FlowResult) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        // The fence comes first: if another claim took the run over (this
        // flow was presumed hung), a successor owns these files now and
        // this writer must not touch them — not even to sweep.
        durable.fence()?;
        // Every epoch was assembled (or abandoned) by now; anything left
        // under `shards/` is debris from an epoch disposal that lost the
        // race against a worker's in-flight claim.
        let _ = durable.handle.sweep_shards();
        if let Some(plane) = &durable.plane {
            // Diagnostic only — failure to write the report must not fail a
            // completed flow.
            let _ = durable.handle.save_transport_report(&TransportReport {
                transport: plane.label.clone(),
                incidents: self.incidents.clone(),
                requests: result.timings.shard_requests,
                request_seconds: result.timings.shard_request_seconds,
                fenced_rejections: result.timings.shards_fenced,
            });
        }
        durable.handle.save_result(result)
    }

    /// Ends the run at a failure or halt exit and hands back the error for
    /// the stage to return: a halt ([`CheckpointError::Halted`]) leaves the
    /// run [`RunStatus::Interrupted`], anything else [`RunStatus::Failed`].
    fn stop(self, error: impl Into<AybError>) -> AybError {
        let error = error.into();
        let status = match error {
            AybError::Checkpoint(CheckpointError::Halted { .. }) => RunStatus::Interrupted,
            _ => RunStatus::Failed,
        };
        let _ = self.end(Some(status));
        error
    }

    /// Ends a stored run: stops the claim heartbeat, emits the run event of
    /// the terminal `status`, records the status and breaks the claim.
    /// `None` ends a run that never started — a resume that found a result
    /// or could not mark the run running — by releasing the claim alone.
    ///
    /// A claim that is no longer on disk as minted — another claim took it
    /// over from this presumed-hung process — leaves the run to its successor
    /// untouched: no run event in its `events.jsonl`, no status over its
    /// `Running`, no release of its claim. That is exactly the split-brain
    /// the fencing tokens exist to prevent. A store-less run has nothing to
    /// end.
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] of recording the status.
    fn end(self, status: Option<RunStatus>) -> Result<(), StoreError> {
        let Some(durable) = self.durable else {
            return Ok(());
        };
        drop(durable.heartbeat);
        if !durable.handle.claim_is(&durable.claim).unwrap_or(false) {
            return Ok(());
        }
        if let Some(status) = status {
            let (severity, kind) = match status {
                RunStatus::Completed => (Severity::Info, event_kind::RUN_COMPLETED),
                RunStatus::Interrupted => (Severity::Warn, event_kind::RUN_INTERRUPTED),
                _ => (Severity::Error, event_kind::RUN_FAILED),
            };
            let event = Event::new(severity, "flow", kind).run(durable.handle.id());
            self.recorder.emit(match status {
                RunStatus::Completed => event.value(self.elapsed.as_secs_f64()),
                _ => event,
            });
        }
        let recorded = status.map_or(Ok(()), |status| durable.handle.set_status(status));
        // Compare-and-delete: releases only the claim this flow minted.
        let _ = durable.handle.break_claim(&durable.claim);
        recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered_front(n: usize) -> Vec<Evaluation> {
        (0..n)
            .map(|i| Evaluation::new(vec![i as f64], vec![i as f64, n as f64 - i as f64]))
            .collect()
    }

    #[test]
    fn subsample_preserves_ends_and_order() {
        let front = numbered_front(50);
        let sub = subsample_front(&front, 10);
        assert_eq!(sub.len(), 10);
        assert_eq!(sub[0].objectives[0], 0.0);
        assert_eq!(sub[9].objectives[0], 49.0);
        assert!(sub
            .windows(2)
            .all(|w| w[0].objectives[0] < w[1].objectives[0]));
        // Limits larger than the front return it unchanged.
        assert_eq!(subsample_front(&front, 100).len(), 50);
    }

    #[test]
    fn subsample_limit_one_selects_a_representative_middle_point() {
        let front = numbered_front(9);
        let sub = subsample_front(&front, 1);
        assert_eq!(sub.len(), 1);
        // The knee-region (middle) point, not the first point.
        assert_eq!(sub[0].objectives[0], 4.0);
        // Still well-defined for the smallest front that can be subsampled.
        let pair = numbered_front(2);
        assert_eq!(subsample_front(&pair, 1)[0].objectives[0], 1.0);
    }

    #[test]
    fn subsample_limit_two_keeps_both_ends() {
        let front = numbered_front(17);
        let sub = subsample_front(&front, 2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].objectives[0], 0.0);
        assert_eq!(sub[1].objectives[0], 16.0);
    }

    #[test]
    fn subsample_limit_zero_and_empty_front_are_identity() {
        let front = numbered_front(5);
        assert_eq!(subsample_front(&front, 0).len(), 5);
        assert!(subsample_front(&[], 3).is_empty());
    }

    // The full reduced-scale flow is exercised by the workspace-level
    // integration tests (tests/full_flow.rs); unit tests here stay cheap.
    #[test]
    fn flow_error_display() {
        let e = FlowError::InsufficientParetoData(1);
        assert!(e.to_string().contains('1'));
        assert!(FlowError::NoFeasibleCandidates
            .to_string()
            .contains("no feasible"));
    }

    #[test]
    fn flow_summary_without_timing_zeroes_only_the_clocks() {
        let summary = FlowSummary {
            generations: 8,
            evaluation_samples: 100,
            pareto_points: 12,
            analysed_pareto_points: 8,
            mc_samples_per_point: 16,
            cpu_time_seconds: 3.25,
            mc_work_seconds: 2.5,
        };
        let stripped = summary.without_timing();
        assert_eq!(stripped.cpu_time_seconds, 0.0);
        assert_eq!(stripped.mc_work_seconds, 0.0);
        assert_eq!(stripped.generations, summary.generations);
        assert_eq!(stripped.evaluation_samples, summary.evaluation_samples);
        assert_eq!(
            stripped.analysed_pareto_points,
            summary.analysed_pareto_points
        );
    }

    #[test]
    fn point_mc_seeds_are_distinct_and_reproducible() {
        let seeds: Vec<u64> = (0..64).map(|i| point_mc_seed(2008, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-point seeds never collide");
        // Pure function of (base, index): same inputs, same seed.
        assert_eq!(point_mc_seed(2008, 7), seeds[7]);
        // A different base seed moves every point's stream.
        assert!((0..64).all(|i| point_mc_seed(2009, i) != seeds[i]));
    }

    #[test]
    fn flow_timings_deserialize_defaults_missing_work_fields() {
        // A result persisted before the per-point accounting existed lacks
        // `mc_points`/`mc_point_seconds`; it must still load.
        let timings = FlowTimings {
            optimization: Duration::from_secs(2),
            monte_carlo: Duration::from_secs(3),
            model_build: Duration::from_secs(1),
            mc_points: 9,
            mc_point_seconds: 2.75,
            shard_requests: 40,
            shard_request_seconds: 0.5,
            shards_fenced: 1,
            shards_degraded: 2,
        };
        let serde::Value::Object(mut pairs) = serde::Serialize::to_value(&timings) else {
            panic!("FlowTimings serializes to an object");
        };
        pairs.retain(|(key, _)| {
            key != "mc_points"
                && key != "mc_point_seconds"
                && key != "shard_requests"
                && key != "shard_request_seconds"
                && key != "shards_fenced"
                && key != "shards_degraded"
        });
        let legacy = serde::Value::Object(pairs);
        let back: FlowTimings = serde::Deserialize::from_value(&legacy).expect("legacy loads");
        assert_eq!(back.mc_points, 0);
        assert_eq!(back.mc_point_seconds, 0.0);
        assert_eq!(back.shard_requests, 0);
        assert_eq!(back.shard_request_seconds, 0.0);
        assert_eq!(back.shards_fenced, 0);
        assert_eq!(back.shards_degraded, 0);
        assert_eq!(back.monte_carlo, timings.monte_carlo);

        // And the current shape round-trips unchanged.
        let roundtrip: FlowTimings =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&timings)).unwrap();
        assert_eq!(roundtrip, timings);

        // A result persisted with the retired evaluation-cache counters
        // loads as one without them.
        let serde::Value::Object(mut pairs) = serde::Serialize::to_value(&timings) else {
            panic!("FlowTimings serializes to an object");
        };
        pairs.push(("eval_cache_hits".to_string(), serde::Value::Int(12)));
        pairs.push(("eval_cache_lookups".to_string(), serde::Value::Int(30)));
        let retired: FlowTimings = serde::Deserialize::from_value(&serde::Value::Object(pairs))
            .expect("a result with the retired counters loads");
        assert_eq!(retired, timings);
    }

    #[test]
    fn variation_point_record_survives_the_wire_format() {
        use ayb_circuit::DesignPoint;
        let record = VariationPointRecord {
            data: Some(ParetoPointData {
                gain_db: 61.25,
                phase_margin_deg: 58.5,
                gain_delta_percent: 3.125,
                pm_delta_percent: 1.75,
                unity_gain_hz: 8.5e6,
                parameters: DesignPoint::new().with("w1", 2.5e-6),
            }),
            elapsed_seconds: 0.25,
        };
        let back = VariationPointRecord::from_outcome(&record.to_outcome())
            .expect("well-formed outcome parses");
        assert_eq!(back, record, "bit-identical through the shard wire");

        let none = VariationPointRecord {
            data: None,
            elapsed_seconds: 0.125,
        };
        let back = VariationPointRecord::from_outcome(&none.to_outcome()).unwrap();
        assert_eq!(back, none, "failed-analysis records round-trip too");
    }

    #[test]
    fn builder_records_configuration_and_optimizer() {
        let config = FlowConfig::reduced();
        let builder = FlowBuilder::new(config.clone());
        assert_eq!(builder.optimizer().name(), "wbga");
        assert_eq!(builder.config().ga.seed, config.ga.seed);

        let reseeded = FlowBuilder::new(config)
            .with_optimizer(OptimizerConfig::RandomSearch {
                budget: 64,
                seed: 1,
            })
            .with_seed(0xabcd);
        assert_eq!(reseeded.optimizer().seed(), 0xabcd);
        assert_eq!(reseeded.config().monte_carlo.seed, 0xabcd);
        assert_eq!(reseeded.optimizer().name(), "random_search");
    }

    #[test]
    fn with_seed_applies_regardless_of_call_order() {
        let config = FlowConfig::reduced();
        let optimizer = OptimizerConfig::RandomSearch {
            budget: 64,
            seed: 1,
        };

        let seed_first = FlowBuilder::new(config.clone())
            .with_seed(0x5eed)
            .with_optimizer(optimizer.clone());
        let seed_last = FlowBuilder::new(config)
            .with_optimizer(optimizer)
            .with_seed(0x5eed);

        assert_eq!(seed_first.optimizer().seed(), 0x5eed);
        assert_eq!(seed_last.optimizer().seed(), 0x5eed);
        assert_eq!(seed_first.optimizer(), seed_last.optimizer());
        assert_eq!(
            seed_first.config().monte_carlo.seed,
            seed_last.config().monte_carlo.seed
        );
    }

    /// A malformed coordinator URL falls back to the disk plane and is
    /// recorded like every other degradation: the observers hear it, and
    /// the run's events, transport report and timings count it.
    #[test]
    fn a_malformed_transport_url_is_recorded_like_any_degradation() {
        #[derive(Clone, Default)]
        struct Heard(Arc<Mutex<Vec<String>>>);
        impl FlowObserver for Heard {
            fn on_transport_degraded(&mut self, stage: FlowStage, shard: usize, detail: &str) {
                let line = format!("{} {shard}: {detail}", stage.name());
                self.0.lock().unwrap().push(line);
            }
        }

        let root = std::env::temp_dir().join(format!("ayb-flow-malformed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        let mut config = FlowConfig::reduced();
        config.ga.generations = 3;
        config.monte_carlo.samples = 4;
        config.max_pareto_points = 4;
        config.transport = Some("udp://127.0.0.1:1".to_string());
        let heard = Heard::default();
        let result = FlowBuilder::new(config)
            .with_store(&store)
            .with_run_id("malformed")
            .sharded(true)
            .with_observer(heard.clone())
            .run()
            .expect("the flow completes on the disk plane");

        let heard = heard.0.lock().unwrap().clone();
        assert_eq!(heard.len(), 1, "{heard:?}");
        assert!(heard[0].starts_with("optimize 0: transport `udp://127.0.0.1:1`"));
        assert!(heard[0].ends_with("; using the disk data plane"));
        assert_eq!(result.timings.shards_degraded, 1);
        let handle = store.run("malformed").unwrap();
        let events = ayb_obs::read_events(&handle.events_path()).unwrap();
        let degraded: Vec<&Event> = events
            .iter()
            .filter(|event| event.kind == event_kind::SHARD_DEGRADED)
            .collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].shard, Some(0));
        assert!(degraded[0].detail.ends_with("; using the disk data plane"));
        let report = handle.transport_report_value().unwrap().unwrap();
        let report = TransportReport::from_value(&report).unwrap();
        assert_eq!(report.transport, "disk");
        assert_eq!(report.incidents.len(), 1);
        let _ = std::fs::remove_dir_all(root);
    }
}
