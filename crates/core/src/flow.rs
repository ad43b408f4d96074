//! The end-to-end model-generation flow (paper §3, Figure 3).
//!
//! The five steps of the proposed algorithm are executed in order:
//!
//! 1. netlist / objective generation ([`OtaSizingProblem`]),
//! 2. multi-objective optimisation (§3.2) behind the
//!    [`Optimizer`](ayb_moo::Optimizer) trait — the paper's WBGA by default,
//!    NSGA-II or random search via [`OptimizerConfig`],
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
//! [`generate_model`] remains as a thin compatibility wrapper that runs all
//! stages with the default (WBGA) optimiser.
//!
//! Flows become *durable* by attaching a run store
//! ([`FlowBuilder::with_store`]): the configuration is recorded in a
//! manifest, every optimiser generation is checkpointed to disk, the final
//! [`FlowResult`] is persisted, and an interrupted run is continued with
//! [`FlowBuilder::resume`] — producing a result bit-identical to the
//! same-seed uninterrupted run (see `tests/resumable_flow.rs`).

use crate::config::FlowConfig;
use crate::error::AybError;
use crate::ota_problem::{measure_testbench, OtaSizingProblem};
use ayb_behavioral::{CombinedOtaModel, ModelError, ParetoPointData};
use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters};
use ayb_moo::{
    drive_epoch, CachedProblem, Checkpoint, CheckpointControl, CheckpointError, EpochWork,
    Evaluation, OptimizationResult, OptimizerConfig, ShardError, ShardOutcome, ShardTransport,
    ShardWork, ShardWorkKind, ShardedEvaluator, ShardingOptions, SizingProblem, VariationOutcome,
    VariationPointWork, WithEvaluator,
};
use ayb_net::TcpTransport;
use ayb_obs::{kind as event_kind, Event, JsonlSink, Recorder, Severity, SinkGuard};
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
    /// Persisting or resuming a durable run failed.
    Persistence(String),
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
            FlowError::Persistence(e) => write!(f, "run persistence failed: {e}"),
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
///
/// `Deserialize` is implemented by hand so results persisted before the
/// per-point work accounting existed still load (absent fields default to
/// zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
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
    pub mc_points: usize,
    /// Summed per-point analysis wall-clock seconds, counted by whichever
    /// process analysed each point — so serial and sharded runs report
    /// comparable work even though their submitter wall clocks differ.
    pub mc_point_seconds: f64,
    /// Shard requests this flow sent over a TCP data plane (0 for disk
    /// planes and unsharded flows).
    pub shard_requests: u64,
    /// Summed round-trip seconds of those shard requests.
    pub shard_request_seconds: f64,
    /// Late writes from stolen shard claims the data plane fenced off and
    /// discarded during this flow.
    pub shards_fenced: u64,
    /// Shards that degraded from the data plane to local production (each
    /// one also lands in the run's transport report with its cause).
    pub shards_degraded: usize,
    /// Optimiser evaluations answered by the in-process evaluation cache
    /// (0 when [`FlowConfig::eval_cache`](crate::FlowConfig::eval_cache) is
    /// off). Timing-only accounting: served values are bit-identical to
    /// recomputation, so the determinism digest never depends on this.
    pub eval_cache_hits: u64,
    /// Optimiser evaluations that consulted the cache (hits + misses).
    pub eval_cache_lookups: u64,
}

impl FlowTimings {
    /// Total flow time.
    pub fn total(&self) -> Duration {
        self.optimization + self.monte_carlo + self.model_build
    }
}

impl Deserialize for FlowTimings {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The per-point accounting postdates the first persisted results;
        // absent fields mean "not recorded", not a malformed file.
        let mc_points = match value.get("mc_points") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        let mc_point_seconds = match value.get("mc_point_seconds") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0.0,
        };
        let shard_requests = match value.get("shard_requests") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        let shard_request_seconds = match value.get("shard_request_seconds") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0.0,
        };
        let shards_fenced = match value.get("shards_fenced") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        let shards_degraded = match value.get("shards_degraded") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        let eval_cache_hits = match value.get("eval_cache_hits") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        let eval_cache_lookups = match value.get("eval_cache_lookups") {
            Some(field) => Deserialize::from_value(field)?,
            None => 0,
        };
        Ok(FlowTimings {
            optimization: Deserialize::from_value(serde::__field(value, "optimization")?)?,
            monte_carlo: Deserialize::from_value(serde::__field(value, "monte_carlo")?)?,
            model_build: Deserialize::from_value(serde::__field(value, "model_build")?)?,
            mc_points,
            mc_point_seconds,
            shard_requests,
            shard_request_seconds,
            shards_fenced,
            shards_degraded,
            eval_cache_hits,
            eval_cache_lookups,
        })
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

/// Runs the Monte Carlo variation analysis (§3.4) for one Pareto point with
/// the flow's base Monte Carlo seed.
///
/// Standalone-analysis convenience over [`analyse_variation_point`]; the
/// flow's variation *stage* derives a per-point seed with [`point_mc_seed`]
/// instead, so its points are statistically independent.
pub fn analyse_pareto_point(
    problem: &OtaSizingProblem,
    point: &Evaluation,
    config: &FlowConfig,
) -> Option<ParetoPointData> {
    analyse_variation_point(problem, &point.parameters, config, config.monte_carlo.seed)
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
    observers: Vec<Box<dyn FlowObserver>>,
    seed: Option<u64>,
    store: Option<Store>,
    run_id: Option<String>,
    resume_from: Option<(RunHandle, Option<Checkpoint>)>,
    halt_after_checkpoints: Option<usize>,
    halt_signal: Option<Arc<AtomicBool>>,
    variation_halt: Option<VariationHaltHook>,
    claim_owner: Option<String>,
    recorder: Option<Recorder>,
}

impl FlowBuilder {
    /// Creates a builder running the paper's WBGA with `config.ga` settings.
    pub fn new(config: FlowConfig) -> Self {
        let optimizer = OptimizerConfig::Wbga(config.ga);
        FlowBuilder {
            config,
            optimizer,
            observers: Vec::new(),
            seed: None,
            store: None,
            run_id: None,
            resume_from: None,
            halt_after_checkpoints: None,
            halt_signal: None,
            variation_halt: None,
            claim_owner: None,
            recorder: None,
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
            config: manifest.flow,
            optimizer: manifest.optimizer,
            observers: Vec::new(),
            seed: Some(manifest.seed),
            store: Some(store.clone()),
            run_id: None,
            resume_from: Some((handle, checkpoint)),
            halt_after_checkpoints: None,
            halt_signal: None,
            variation_halt: None,
            claim_owner: None,
            recorder: None,
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
        self.observers.push(Box::new(observer));
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
        self.halt_signal = Some(signal);
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
        self.variation_halt = Some(hook);
        self
    }

    /// Attaches an event recorder: the flow emits structured run events
    /// (stage boundaries, checkpoints, shard claim/fence/degrade traffic)
    /// and metrics through it, and — for durable runs — persists the
    /// events to `runs/<id>/events.jsonl` alongside the result. Telemetry
    /// is strictly observational: enabling it never changes a
    /// [`FlowResult::determinism_digest`]. Without this call a durable run
    /// records through a private recorder of its own; pass one explicitly
    /// to share it (a job server funnelling many runs into one stream, a
    /// test asserting on events).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
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
    pub fn optimize(mut self) -> Result<OptimizedFlow, AybError> {
        let problem = OtaSizingProblem::new(self.config.testbench, self.config.sweep.clone())
            .with_threads(self.config.threads);
        let recorder = self.recorder.take().unwrap_or_default();

        notify_start(&mut self.observers, FlowStage::Optimize);

        // Open (resume) or create the durable run when a store is attached.
        // Either way the run is *claimed* for the whole execution: a second
        // process resuming (or a job-server worker picking up) the same run
        // fails fast with `StoreError::RunClaimed` instead of silently
        // executing it twice. The claim is released at every terminal state.
        let claim_owner = self
            .claim_owner
            .take()
            .unwrap_or_else(|| format!("flow-{}", std::process::id()));
        // The fenced `ClaimInfo` minted by `try_claim` is kept for the whole
        // execution: every durable write below re-checks it, so a recovery
        // pass that presumed this process hung and stole the claim fences
        // this writer off instead of letting two executors fight over one
        // run's files.
        let (run, run_claim, resume_checkpoint) =
            match (self.store.as_ref(), self.resume_from.take()) {
                (_, Some((handle, checkpoint))) => {
                    let minted = handle.try_claim(&claim_owner)?;
                    // Under the claim, re-check for a result: the run may
                    // have been completed by another worker between this
                    // builder's construction and the claim; re-executing it
                    // would be wasted (if bit-identical) work.
                    if handle.has_result() {
                        let _ = handle.break_claim(&minted);
                        return Err(AybError::Store(StoreError::AlreadyCompleted(
                            handle.id().to_string(),
                        )));
                    }
                    if let Err(error) = handle.set_status(RunStatus::Running) {
                        let _ = handle.break_claim(&minted);
                        return Err(error.into());
                    }
                    (Some(handle), Some(minted), checkpoint)
                }
                (Some(store), None) => {
                    let seed = self.optimizer.seed();
                    let handle = match &self.run_id {
                        Some(id) => {
                            store.create_run_with_id(id, seed, &self.optimizer, &self.config)
                        }
                        None => store.create_run(seed, &self.optimizer, &self.config),
                    }?;
                    let minted = handle.try_claim(&claim_owner)?;
                    (Some(handle), Some(minted), None)
                }
                (None, None) => (None, None, None),
            };

        // Heartbeat the run claim for as long as this flow holds it (all
        // stages), so recovery passes — here or on other hosts — can tell
        // this live execution from a dead one.
        let claim_heartbeat = run
            .as_ref()
            .map(|handle| handle.start_claim_heartbeat(CLAIM_HEARTBEAT_INTERVAL));

        // Durable runs persist their event stream next to the result. The
        // sink is scoped: carried through all stages and detached when the
        // flow ends, so a recorder shared across runs (a job server's) never
        // leaks one run's sink into the next. Every (re-)entry marks a new
        // attempt boundary in the file — `ayb trace` splits on it.
        let events_guard = run
            .as_ref()
            .map(|handle| recorder.add_scoped_sink(Box::new(JsonlSink::new(handle.events_path()))));
        recorder.emit(
            flow_event(run.as_ref(), Severity::Info, event_kind::FLOW_START)
                .detail(format!("flow started (owner `{claim_owner}`)")),
        );
        recorder.emit(
            flow_event(run.as_ref(), Severity::Info, event_kind::STAGE_START)
                .detail(FlowStage::Optimize.name()),
        );

        // With sharding enabled (and a durable run to host the data plane),
        // batch evaluation goes through the shard data plane — on disk, or
        // over TCP when the config selects a coordinator. The plane is built
        // once and carried through all stages, so its traffic and fencing
        // counters cover the whole flow.
        let shard_plane = match &run {
            Some(handle) if self.config.sharded => {
                // This flow holds the run's exclusive claim, so any shard
                // epochs still on disk belong to a dead predecessor.
                let _ = handle.sweep_shards();
                let tcp = self.config.transport.as_deref().and_then(|url| {
                    TcpTransport::from_url(url)
                        .map_err(|reason| {
                            // A malformed selector degrades to the disk
                            // plane — noisily, so a typo'd URL never passes
                            // for a working coordinator (the CLI validates
                            // up front; this guards configs edited by hand).
                            let detail = format!("{reason}; using the disk data plane");
                            for observer in &mut self.observers {
                                observer.on_transport_degraded(FlowStage::Optimize, 0, &detail);
                            }
                        })
                        .ok()
                });
                Some(match tcp {
                    Some(transport) => {
                        let context = serde::Serialize::to_value(&self.config);
                        ShardPlane {
                            label: transport.url(),
                            transport: Arc::new(
                                transport
                                    .with_run_context(handle.id(), context)
                                    .with_recorder(recorder.clone()),
                            ),
                        }
                    }
                    None => ShardPlane {
                        label: "disk".to_string(),
                        transport: Arc::new(
                            handle
                                .shard_plane(SHARD_CLAIM_STALE_AFTER)
                                .with_recorder(recorder.clone()),
                        ),
                    },
                })
            }
            _ => None,
        };

        // Degradations inside the optimiser's batch evaluations are buffered
        // (the evaluator is shared behind `&self` while the checkpoint sink
        // holds the observers) and drained into the observers at every exit
        // from this stage.
        let degraded_events: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
        // Optional cross-generation evaluation cache under the optimiser:
        // repeated candidates skip the solve. A hit is served only for
        // bit-identical raw parameters, so enabling the cache never changes
        // results or the determinism digest (see `ayb_moo::evalcache`).
        let eval_cache = self
            .config
            .eval_cache
            .map(|step| CachedProblem::new(&problem, step));
        let base: &dyn SizingProblem = match &eval_cache {
            Some(cached) => cached,
            None => &problem,
        };
        // The wrapper borrows `problem` (through the cache, when enabled),
        // so the optimisation runs in its own scope; results are identical
        // sharded or not (see `ayb_moo::sharding`).
        let sharded = shard_plane.as_ref().map(|plane| {
            let sink = Arc::clone(&degraded_events);
            WithEvaluator::new(
                base,
                ShardedEvaluator::new(
                    Arc::clone(&plane.transport),
                    ShardingOptions::with_shard_size(self.config.shard_size),
                )
                .with_degraded_hook(Arc::new(move |shard, error| {
                    let ShardError::Transport(detail) = error;
                    sink.lock()
                        .expect("degradation event lock")
                        .push((shard, detail.clone()));
                })),
            )
        });
        let sizing: &dyn SizingProblem = match &sharded {
            Some(wrapped) => wrapped,
            None => base,
        };

        let t0 = Instant::now();
        let mut transport_incidents: Vec<TransportIncident> = Vec::new();
        let optimizer = self.optimizer.build();
        let optimization = match &run {
            None => optimizer.run(sizing),
            Some(handle) => {
                let mut written = 0usize;
                let mut write_error: Option<StoreError> = None;
                let observers = &mut self.observers;
                let halt_after = self.halt_after_checkpoints;
                let halt_signal = self.halt_signal.clone();
                let minted = run_claim.as_ref();
                let sink_recorder = recorder.clone();
                let mut sink = |checkpoint: &Checkpoint| {
                    let started = Instant::now();
                    match guard_claim(handle, minted)
                        .and_then(|()| handle.save_checkpoint(checkpoint))
                    {
                        Ok(saved) => {
                            let metrics = sink_recorder.metrics();
                            metrics.add(CHECKPOINT_BYTES_METRIC, saved.bytes);
                            metrics.observe(
                                CHECKPOINT_SECONDS_METRIC,
                                started.elapsed().as_secs_f64(),
                            );
                            written += 1;
                            for observer in observers.iter_mut() {
                                observer
                                    .on_checkpoint_written(checkpoint.next_generation, &saved.path);
                            }
                            sink_recorder.emit(
                                Event::new(Severity::Debug, "flow", event_kind::CHECKPOINT)
                                    .run(handle.id())
                                    .value(checkpoint.next_generation as f64)
                                    .detail(format!(
                                        "generation {} checkpoint written",
                                        checkpoint.next_generation
                                    )),
                            );
                            let count_reached =
                                matches!(halt_after, Some(limit) if written >= limit);
                            let signalled = halt_signal
                                .as_ref()
                                .is_some_and(|signal| signal.load(Ordering::Relaxed));
                            if count_reached || signalled {
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
                };
                let outcome = optimizer.run_checkpointed(sizing, resume_checkpoint, &mut sink);
                drain_degraded(
                    &mut self.observers,
                    &degraded_events,
                    &mut transport_incidents,
                );
                if let Some(error) = write_error {
                    finish_run(&recorder, handle, run_claim.as_ref(), RunStatus::Failed);
                    return Err(AybError::Store(error));
                }
                match outcome {
                    Ok(result) => result,
                    Err(halted @ CheckpointError::Halted { .. }) => {
                        finish_run(
                            &recorder,
                            handle,
                            run_claim.as_ref(),
                            RunStatus::Interrupted,
                        );
                        return Err(AybError::Checkpoint(halted));
                    }
                    Err(error) => {
                        finish_run(&recorder, handle, run_claim.as_ref(), RunStatus::Failed);
                        return Err(AybError::Checkpoint(error));
                    }
                }
            }
        };
        let optimization_time = t0.elapsed();
        drop(sharded); // ends the wrapper's borrow of the (cached) problem
        let (eval_cache_hits, eval_cache_lookups) = eval_cache
            .as_ref()
            .map(|cache| (cache.hits(), cache.lookups()))
            .unwrap_or((0, 0));
        drop(eval_cache); // ends the cache's borrow of `problem`
        drain_degraded(
            &mut self.observers,
            &degraded_events,
            &mut transport_incidents,
        );
        if optimization.archive.is_empty() {
            if let Some(handle) = &run {
                finish_run(&recorder, handle, run_claim.as_ref(), RunStatus::Failed);
            }
            return Err(AybError::Flow(FlowError::NoFeasibleCandidates));
        }
        let pareto = optimization.pareto_front();
        let selected = subsample_front(&pareto, self.config.max_pareto_points);
        notify_complete(&mut self.observers, FlowStage::Optimize, optimization_time);
        recorder.emit(
            flow_event(run.as_ref(), Severity::Info, event_kind::STAGE_COMPLETE)
                .value(optimization_time.as_secs_f64())
                .detail(FlowStage::Optimize.name()),
        );

        Ok(OptimizedFlow {
            config: self.config,
            observers: self.observers,
            problem,
            optimization,
            pareto,
            selected,
            run,
            run_claim,
            shard_plane,
            transport_incidents,
            claim_heartbeat,
            halt_signal: self.halt_signal,
            variation_halt: self.variation_halt,
            recorder,
            events_guard,
            timings: FlowTimings {
                optimization: optimization_time,
                eval_cache_hits,
                eval_cache_lookups,
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
    observers: Vec<Box<dyn FlowObserver>>,
    problem: OtaSizingProblem,
    optimization: OptimizationResult,
    pareto: Vec<Evaluation>,
    selected: Vec<Evaluation>,
    run: Option<RunHandle>,
    run_claim: Option<ClaimInfo>,
    shard_plane: Option<ShardPlane>,
    transport_incidents: Vec<TransportIncident>,
    claim_heartbeat: Option<ClaimHeartbeat>,
    halt_signal: Option<Arc<AtomicBool>>,
    variation_halt: Option<VariationHaltHook>,
    recorder: Recorder,
    events_guard: Option<SinkGuard>,
    timings: FlowTimings,
}

/// How the variation stage's analysis loop ended.
enum VariationStageOutcome {
    /// Every pending point was analysed and recorded.
    Done,
    /// A halt signal or fault-injection hook stopped the stage at a
    /// boundary; `analysed` points are safely on disk.
    Halted {
        /// Points recorded (restored + newly analysed) at the halt.
        analysed: usize,
    },
    /// A variation checkpoint could not be persisted.
    Failed(StoreError),
}

fn recorded_points(slots: &[Option<VariationPointRecord>]) -> usize {
    slots.iter().filter(|slot| slot.is_some()).count()
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
        notify_start(&mut self.observers, FlowStage::AnalyzeVariation);
        self.recorder.emit(
            flow_event(self.run.as_ref(), Severity::Info, event_kind::STAGE_START)
                .detail(FlowStage::AnalyzeVariation.name()),
        );
        let t0 = Instant::now();
        let total = self.selected.len();
        let mut slots: Vec<Option<VariationPointRecord>> = vec![None; total];

        // Restore per-point checkpoints of an interrupted predecessor: those
        // points are *not* re-analysed (their derived seeds make the
        // remainder independent of them, so the final result is still
        // bit-identical to an uninterrupted run). A torn or zero-length
        // record, which a machine crash can leave, counts as absent: its
        // point is analysed again.
        if let Some(handle) = &self.run {
            let restored = (|| -> Result<(), StoreError> {
                for index in handle.variation_checkpoint_indices()? {
                    if index >= total {
                        continue;
                    }
                    match handle.load_variation_checkpoint(index) {
                        Ok(record) => slots[index] = Some(record),
                        Err(StoreError::Json { .. }) => {}
                        Err(error) => return Err(error),
                    }
                }
                Ok(())
            })();
            if let Err(error) = restored {
                drop(self.claim_heartbeat.take());
                finish_run(
                    &self.recorder,
                    handle,
                    self.run_claim.as_ref(),
                    RunStatus::Failed,
                );
                return Err(AybError::Store(error));
            }
        }

        let pending: Vec<usize> = (0..total).filter(|&index| slots[index].is_none()).collect();
        let outcome = if pending.is_empty() {
            VariationStageOutcome::Done
        } else if self.config.sharded && self.run.is_some() && pending.len() > 1 {
            self.variation_sharded(&pending, &mut slots)
        } else {
            self.variation_serial(&pending, &mut slots)
        };
        match outcome {
            VariationStageOutcome::Done => {}
            VariationStageOutcome::Halted { analysed } => {
                drop(self.claim_heartbeat.take());
                if let Some(handle) = &self.run {
                    finish_run(
                        &self.recorder,
                        handle,
                        self.run_claim.as_ref(),
                        RunStatus::Interrupted,
                    );
                }
                return Err(AybError::Checkpoint(CheckpointError::Halted {
                    generation: analysed,
                }));
            }
            VariationStageOutcome::Failed(error) => {
                drop(self.claim_heartbeat.take());
                if let Some(handle) = &self.run {
                    finish_run(
                        &self.recorder,
                        handle,
                        self.run_claim.as_ref(),
                        RunStatus::Failed,
                    );
                }
                return Err(AybError::Store(error));
            }
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
        notify_complete(
            &mut self.observers,
            FlowStage::AnalyzeVariation,
            self.timings.monte_carlo,
        );
        self.recorder.emit(
            flow_event(
                self.run.as_ref(),
                Severity::Info,
                event_kind::STAGE_COMPLETE,
            )
            .value(self.timings.monte_carlo.as_secs_f64())
            .detail(FlowStage::AnalyzeVariation.name()),
        );
        if pareto_data.len() < 3 {
            drop(self.claim_heartbeat.take());
            if let Some(handle) = &self.run {
                finish_run(
                    &self.recorder,
                    handle,
                    self.run_claim.as_ref(),
                    RunStatus::Failed,
                );
            }
            return Err(AybError::Flow(FlowError::InsufficientParetoData(
                pareto_data.len(),
            )));
        }
        Ok(AnalyzedFlow {
            config: self.config,
            observers: self.observers,
            optimization: self.optimization,
            pareto: self.pareto,
            pareto_data,
            run: self.run,
            run_claim: self.run_claim,
            shard_plane: self.shard_plane,
            transport_incidents: self.transport_incidents,
            claim_heartbeat: self.claim_heartbeat,
            recorder: self.recorder,
            events_guard: self.events_guard,
            timings: self.timings,
        })
    }

    /// Whether the flow must halt at `boundary` (fault hook or external halt
    /// signal).
    ///
    /// The external halt signal is only honoured by durable runs: halting a
    /// store-less flow would discard everything with nothing to resume,
    /// which is worse than finishing the stage. The fault-injection hook is
    /// unconditional — it exists precisely to script halts.
    fn variation_should_halt(&self, boundary: VariationBoundary) -> bool {
        if self
            .variation_halt
            .as_ref()
            .is_some_and(|hook| hook(boundary))
        {
            return true;
        }
        self.run.is_some()
            && self
                .halt_signal
                .as_ref()
                .is_some_and(|signal| signal.load(Ordering::Relaxed))
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

    /// Reports one shard's degradation to local production: observers hear
    /// it immediately, and the incident lands in the run's persisted
    /// [`TransportReport`].
    fn note_transport_degraded(&mut self, stage: FlowStage, shard: usize, detail: &str) {
        for observer in &mut self.observers {
            observer.on_transport_degraded(stage, shard, detail);
        }
        self.recorder.emit(
            flow_event(
                self.run.as_ref(),
                Severity::Warn,
                event_kind::SHARD_DEGRADED,
            )
            .shard(shard as u64)
            .detail(format!("{}: {detail}", stage.name())),
        );
        self.transport_incidents.push(TransportIncident {
            stage: stage.name().to_string(),
            shard,
            detail: detail.to_string(),
        });
    }

    /// Persists (durable runs) and slots one landed point, ticking the
    /// progress observers.
    fn record_point(
        &mut self,
        slots: &mut [Option<VariationPointRecord>],
        index: usize,
        record: VariationPointRecord,
    ) -> Result<(), StoreError> {
        if let Some(handle) = &self.run {
            guard_claim(handle, self.run_claim.as_ref())?;
            handle.save_variation_checkpoint(index, &record)?;
        }
        let elapsed_seconds = record.elapsed_seconds;
        slots[index] = Some(record);
        let done = recorded_points(slots);
        let total = slots.len();
        for observer in &mut self.observers {
            observer.on_progress(FlowStage::AnalyzeVariation, done, total);
        }
        self.recorder.emit(
            flow_event(
                self.run.as_ref(),
                Severity::Debug,
                event_kind::VARIATION_POINT,
            )
            .shard(index as u64)
            .value(elapsed_seconds)
            .detail(format!("point {index} analysed ({done}/{total})")),
        );
        Ok(())
    }

    /// The serial variation path: analyse pending points in index order,
    /// checkpointing each as it completes.
    fn variation_serial(
        &mut self,
        pending: &[usize],
        slots: &mut [Option<VariationPointRecord>],
    ) -> VariationStageOutcome {
        for &index in pending {
            if self.variation_should_halt(VariationBoundary::Claim { point: index }) {
                return VariationStageOutcome::Halted {
                    analysed: recorded_points(slots),
                };
            }
            let record = self.analyse_one(index);
            if let Err(error) = self.record_point(slots, index, record) {
                return VariationStageOutcome::Failed(error);
            }
            if self.variation_should_halt(VariationBoundary::ResultWrite { point: index }) {
                return VariationStageOutcome::Halted {
                    analysed: recorded_points(slots),
                };
            }
        }
        VariationStageOutcome::Done
    }

    /// The sharded variation path: chunk the pending points into
    /// [`FlowConfig::variation_batch`]-sized tasks, publish them into a
    /// variation epoch on the run's shard data plane, then participate in
    /// the generic claim-poll-recover drive ([`drive_epoch`]) exactly like
    /// sharded population evaluation. Transport failures degrade to the
    /// serial path — the stage always completes, with identical results.
    fn variation_sharded(
        &mut self,
        pending: &[usize],
        slots: &mut [Option<VariationPointRecord>],
    ) -> VariationStageOutcome {
        // The transport built in `optimize`, so traffic and fencing stats
        // keep accumulating across stages.
        let Some(plane) = self
            .shard_plane
            .as_ref()
            .map(|plane| Arc::clone(&plane.transport))
        else {
            return self.variation_serial(pending, slots);
        };
        let batch_size = self.config.variation_batch.max(1);
        let batches: Vec<Vec<usize>> = pending
            .chunks(batch_size)
            .map(|chunk| chunk.to_vec())
            .collect();
        let Ok(epoch) = plane.open_typed_epoch(ShardWorkKind::Variation, batches.len()) else {
            let detail = "variation epoch could not be opened; analysing serially".to_string();
            self.note_transport_degraded(FlowStage::AnalyzeVariation, 0, &detail);
            return self.variation_serial(pending, slots);
        };
        let base_seed = self.config.monte_carlo.seed;
        for (shard, batch) in batches.iter().enumerate() {
            let point_work = |&index: &usize| VariationPointWork {
                parameters: self.selected[index].parameters.clone(),
                mc_seed: point_mc_seed(base_seed, index),
            };
            let work = ShardWork::VariationBatch {
                points: batch.iter().map(point_work).collect(),
            };
            if plane.publish_work(&epoch, shard, &work).is_err() {
                // A half-published epoch is unusable; dispose of it and fall
                // back to the serial path.
                let _ = plane.close_epoch(&epoch);
                return self.variation_serial(pending, slots);
            }
        }

        let options = ShardingOptions::default();
        let shard_count = batches.len();
        let mut work = VariationEpochWork {
            flow: self,
            plane: plane.as_ref(),
            epoch: &epoch,
            batches: &batches,
            slots,
            abort: None,
        };
        let driven = drive_epoch(&mut work, shard_count, &options);
        let abort = work.abort;
        match driven {
            Some(_) => {
                if self.variation_should_halt(VariationBoundary::EpochClose) {
                    // Halt *before* disposal, like a crash at this boundary:
                    // the leftover epoch is swept when the run resumes.
                    return VariationStageOutcome::Halted {
                        analysed: recorded_points(slots),
                    };
                }
                let _ = plane.close_epoch(&epoch);
                VariationStageOutcome::Done
            }
            // Aborted mid-epoch: leave the epoch on disk (exactly what a
            // crash leaves behind); the resumed flow sweeps it.
            None => match abort {
                Some(VariationAbort::Failed(error)) => VariationStageOutcome::Failed(error),
                _ => VariationStageOutcome::Halted {
                    analysed: recorded_points(slots),
                },
            },
        }
    }
}

/// Why a variation epoch drive aborted (see [`VariationEpochWork`]).
enum VariationAbort {
    /// A halt signal or fault hook fired at a boundary.
    Halted,
    /// A variation checkpoint could not be persisted.
    Failed(StoreError),
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
    abort: Option<VariationAbort>,
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

    fn recover(&mut self, shard: usize) -> Result<bool, ShardError> {
        self.plane.recover(self.epoch, shard)
    }

    fn on_claimed(&mut self, shard: usize) -> bool {
        // Check the claim boundary of every point in the batch up front: a
        // scripted halt at any of them stops before the batch is analysed
        // (its unrecorded points are re-analysed on resume, with unchanged
        // results thanks to the per-point seeds).
        for &point in &self.batches[shard] {
            if self
                .flow
                .variation_should_halt(VariationBoundary::Claim { point })
            {
                self.abort = Some(VariationAbort::Halted);
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
        for (&index, record) in self.batches[shard].iter().zip(records) {
            if let Err(error) = self.flow.record_point(self.slots, index, record.clone()) {
                self.abort = Some(VariationAbort::Failed(error));
                return false;
            }
            let boundary = VariationBoundary::ResultWrite { point: index };
            if self.flow.variation_should_halt(boundary) {
                self.abort = Some(VariationAbort::Halted);
                return false;
            }
        }
        true
    }

    fn on_degraded(&mut self, shard: usize, error: &ShardError) {
        let ShardError::Transport(detail) = error;
        let point = self.batches[shard][0];
        self.flow
            .note_transport_degraded(FlowStage::AnalyzeVariation, point, detail);
    }
}

/// Flow state after variation analysis: per-point variation data exists, the
/// combined model has not been built yet.
pub struct AnalyzedFlow {
    config: FlowConfig,
    observers: Vec<Box<dyn FlowObserver>>,
    optimization: OptimizationResult,
    pareto: Vec<Evaluation>,
    pareto_data: Vec<ParetoPointData>,
    run: Option<RunHandle>,
    run_claim: Option<ClaimInfo>,
    shard_plane: Option<ShardPlane>,
    transport_incidents: Vec<TransportIncident>,
    claim_heartbeat: Option<ClaimHeartbeat>,
    recorder: Recorder,
    /// Held, not read: keeps the run's events.jsonl sink attached to the
    /// recorder until the flow ends (detached on drop).
    #[allow(dead_code)]
    events_guard: Option<SinkGuard>,
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
        notify_start(&mut self.observers, FlowStage::BuildModel);
        self.recorder.emit(
            flow_event(self.run.as_ref(), Severity::Info, event_kind::STAGE_START)
                .detail(FlowStage::BuildModel.name()),
        );
        let t0 = Instant::now();
        let model = match CombinedOtaModel::from_pareto_data(
            self.pareto_data.clone(),
            self.config.sigma_level,
        ) {
            Ok(model) => model,
            Err(error) => {
                drop(self.claim_heartbeat.take());
                if let Some(handle) = &self.run {
                    finish_run(
                        &self.recorder,
                        handle,
                        self.run_claim.as_ref(),
                        RunStatus::Failed,
                    );
                }
                return Err(error.into());
            }
        };
        self.timings.model_build = t0.elapsed();
        notify_complete(
            &mut self.observers,
            FlowStage::BuildModel,
            self.timings.model_build,
        );
        self.recorder.emit(
            flow_event(
                self.run.as_ref(),
                Severity::Info,
                event_kind::STAGE_COMPLETE,
            )
            .value(self.timings.model_build.as_secs_f64())
            .detail(FlowStage::BuildModel.name()),
        );
        // Shard-plane accounting, accumulated over every stage. Timings are
        // excluded from determinism digests, so recording traffic here can
        // never perturb a result.
        let plane_stats = self
            .shard_plane
            .as_ref()
            .map(|plane| plane.transport.stats());
        if let Some(stats) = plane_stats {
            self.timings.shard_requests = stats.requests;
            self.timings.shard_request_seconds = stats.request_seconds;
            self.timings.shards_fenced = stats.fenced_rejections;
        }
        self.timings.shards_degraded = self.transport_incidents.len();
        let result = FlowResult {
            archive: self.optimization.archive.clone(),
            pareto: self.pareto,
            pareto_data: self.pareto_data,
            model,
            timings: self.timings,
            optimization: self.optimization,
        };
        drop(self.claim_heartbeat.take());
        if let Some(handle) = &self.run {
            // Every epoch was assembled (or abandoned) by now; anything left
            // under `shards/` is debris from an epoch disposal that lost the
            // race against a worker's in-flight claim. Re-verify the claim
            // first: if a recovery pass stole it (this flow was presumed
            // hung), a successor owns these files now and this writer must
            // not touch them — not even to sweep.
            let persisted = guard_claim(handle, self.run_claim.as_ref()).and_then(|()| {
                let _ = handle.sweep_shards();
                if let (Some(plane), Some(stats)) = (&self.shard_plane, plane_stats) {
                    // Diagnostic only — failure to write the report must not
                    // fail a completed flow.
                    let _ = handle.save_transport_report(&TransportReport {
                        transport: plane.label.clone(),
                        incidents: self.transport_incidents.clone(),
                        requests: stats.requests,
                        request_seconds: stats.request_seconds,
                        fenced_rejections: stats.fenced_rejections,
                    });
                }
                handle.save_result(&result)?;
                handle.set_status(RunStatus::Completed)
            });
            if persisted.is_ok() {
                self.recorder.emit(
                    Event::new(Severity::Info, "flow", event_kind::RUN_COMPLETED)
                        .run(handle.id())
                        .value(result.timings.total().as_secs_f64()),
                );
            }
            // Compare-and-delete: releases only the claim this flow minted,
            // never a successor's.
            if let Some(minted) = self.run_claim.as_ref() {
                let _ = handle.break_claim(minted);
            }
            persisted?;
        }
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

/// How long a *shard* claim may go without a heartbeat before the submitter
/// presumes its holder dead and re-evaluates the shard. Duplicate shard
/// evaluation is benign (pure evaluations, atomic result writes), so this is
/// deliberately more aggressive than run-claim recovery; workers heartbeat
/// their shard claims every second while evaluating.
const SHARD_CLAIM_STALE_AFTER: Duration = Duration::from_secs(60);

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

/// Terminal-state bookkeeping for a durable run: record the status and
/// release the execution claim taken in [`FlowBuilder::optimize`].
///
/// When the minted claim is known and no longer on disk — a recovery pass
/// stole it from this presumed-hung process — the run now belongs to a
/// successor and is left entirely alone: writing a terminal status over the
/// successor's `Running` (or deleting its claim) is exactly the split-brain
/// the fencing tokens exist to prevent.
fn finish_run(
    recorder: &Recorder,
    handle: &RunHandle,
    minted: Option<&ClaimInfo>,
    status: RunStatus,
) {
    let (severity, kind) = match status {
        RunStatus::Completed => (Severity::Info, event_kind::RUN_COMPLETED),
        RunStatus::Interrupted => (Severity::Warn, event_kind::RUN_INTERRUPTED),
        _ => (Severity::Error, event_kind::RUN_FAILED),
    };
    recorder.emit(Event::new(severity, "flow", kind).run(handle.id()));
    if let Some(minted) = minted {
        if !handle.claim_is(minted).unwrap_or(false) {
            return;
        }
        let _ = handle.set_status(status);
        let _ = handle.break_claim(minted);
    } else {
        let _ = handle.set_status(status);
        let _ = handle.release_claim();
    }
}

/// Drains eval-stage degradation events buffered by the sharded evaluator's
/// hook into the observers and the flow's incident record (see
/// [`FlowObserver::on_transport_degraded`]).
fn drain_degraded(
    observers: &mut [Box<dyn FlowObserver>],
    events: &Arc<Mutex<Vec<(usize, String)>>>,
    incidents: &mut Vec<TransportIncident>,
) {
    for (shard, detail) in events.lock().expect("degradation event lock").drain(..) {
        for observer in observers.iter_mut() {
            observer.on_transport_degraded(FlowStage::Optimize, shard, &detail);
        }
        incidents.push(TransportIncident {
            stage: FlowStage::Optimize.name().to_string(),
            shard,
            detail,
        });
    }
}

/// Pre-write fence check for durable-run files: verifies this flow still
/// holds the claim it minted, so a fenced-off (stolen-claim) writer fails
/// with [`StoreError::RunClaimed`] instead of corrupting its successor's
/// state. The check-then-write window is a single stat — the successor's
/// first act is its own fence-stamped claim, which this comparison can never
/// match.
fn guard_claim(handle: &RunHandle, minted: Option<&ClaimInfo>) -> Result<(), StoreError> {
    let Some(minted) = minted else {
        return Ok(());
    };
    if handle.claim_is(minted)? {
        return Ok(());
    }
    let owner = handle
        .claim()
        .ok()
        .flatten()
        .map_or_else(|| "unknown".to_string(), |claim| claim.owner);
    Err(StoreError::RunClaimed {
        run_id: handle.id().to_string(),
        owner,
    })
}

/// An [`Event`] stamped with the flow's source label and, when the run is
/// durable, its run id.
fn flow_event(run: Option<&RunHandle>, severity: Severity, kind: &str) -> Event {
    let event = Event::new(severity, "flow", kind);
    match run {
        Some(handle) => event.run(handle.id()),
        None => event,
    }
}

fn notify_start(observers: &mut [Box<dyn FlowObserver>], stage: FlowStage) {
    for observer in observers {
        observer.on_stage_start(stage);
    }
}

fn notify_complete(observers: &mut [Box<dyn FlowObserver>], stage: FlowStage, elapsed: Duration) {
    for observer in observers {
        observer.on_stage_complete(stage, elapsed);
    }
}

/// Runs the complete model-generation flow with the paper's WBGA.
///
/// Thin compatibility wrapper over [`FlowBuilder`]: `generate_model(&config)`
/// is exactly `FlowBuilder::new(config.clone()).run()` with the error
/// projected onto [`FlowError`], and produces an identical [`FlowResult`].
///
/// # Errors
///
/// Returns an error if the optimisation finds no feasible candidates, too few
/// Pareto points survive the variation analysis, or model construction fails.
pub fn generate_model(config: &FlowConfig) -> Result<FlowResult, FlowError> {
    FlowBuilder::new(config.clone())
        .run()
        .map_err(AybError::into_flow_error)
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
            eval_cache_hits: 12,
            eval_cache_lookups: 30,
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
                && key != "eval_cache_hits"
                && key != "eval_cache_lookups"
        });
        let legacy = serde::Value::Object(pairs);
        let back: FlowTimings = serde::Deserialize::from_value(&legacy).expect("legacy loads");
        assert_eq!(back.mc_points, 0);
        assert_eq!(back.mc_point_seconds, 0.0);
        assert_eq!(back.shard_requests, 0);
        assert_eq!(back.shard_request_seconds, 0.0);
        assert_eq!(back.shards_fenced, 0);
        assert_eq!(back.shards_degraded, 0);
        assert_eq!(back.eval_cache_hits, 0);
        assert_eq!(back.eval_cache_lookups, 0);
        assert_eq!(back.monte_carlo, timings.monte_carlo);

        // And the current shape round-trips unchanged.
        let roundtrip: FlowTimings =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&timings)).unwrap();
        assert_eq!(roundtrip, timings);
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
    fn eval_cache_is_digest_neutral_and_observable_in_timings() {
        let mut config = FlowConfig::reduced();
        config.ga.generations = 3;
        config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
        config.monte_carlo.samples = 4;
        config.max_pareto_points = 4;

        let off = FlowBuilder::new(config.clone())
            .with_seed(5)
            .run()
            .expect("uncached flow completes");
        config.eval_cache = Some(1e-9);
        let on = FlowBuilder::new(config)
            .with_seed(5)
            .run()
            .expect("cached flow completes");

        assert_eq!(
            off.determinism_digest(),
            on.determinism_digest(),
            "the evaluation cache must never change results"
        );
        // The cache is off by default (no lookups recorded)…
        assert_eq!(off.timings.eval_cache_lookups, 0);
        assert_eq!(off.timings.eval_cache_hits, 0);
        // …and on when configured: every optimiser evaluation consults it.
        assert!(on.timings.eval_cache_lookups > 0);
        assert!(on.timings.eval_cache_hits <= on.timings.eval_cache_lookups);
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
}
