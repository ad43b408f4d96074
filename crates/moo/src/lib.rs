//! # ayb-moo — multi-objective optimisation for analogue sizing
//!
//! This crate implements the optimisation machinery of the paper's flow
//! (§2.1, §3.2, §3.3) behind an engine-style public API:
//!
//! * [`SizingProblem`] — the problem abstraction over normalised `[0, 1]`
//!   parameter vectors, with a batch evaluation entry point
//!   ([`SizingProblem::evaluate_batch`] / [`evaluate_batch_parallel`]) so
//!   expensive evaluations use every core,
//! * [`OptimizerConfig`] — the serde-friendly selection of an algorithm and
//!   its settings; [`OptimizerConfig::run`] and
//!   [`OptimizerConfig::run_checkpointed`] drive every algorithm through one
//!   generation loop (the [`optimizer`] module) to an [`OptimizationResult`],
//! * the algorithms, each only its breeding and selection: the
//!   weight-based genetic algorithm the paper uses ([`wbga`]), where the GA
//!   string carries designable parameters *and* objective weights
//!   (normalised per eq. 4) and fitness is the normalised weighted sum
//!   (eq. 5); the NSGA-II baseline for optimiser comparisons ([`nsga2`]);
//!   and a uniform-sampling baseline ([`random_search`]),
//! * [`pareto`] — dominance tests, Pareto-front extraction (§3.3), fast
//!   non-dominated sorting, crowding distance and 2-D hypervolume,
//! * [`checkpoint`] — the serializable [`Checkpoint`] that is the loop's
//!   whole state (population, archive, RNG stream): a [`CheckpointSink`]
//!   sees it at every generation boundary, and resuming from any snapshot
//!   gives bit-identical results; combined with the optional [`EarlyStop`]
//!   convergence criterion this is the substrate for durable, resumable
//!   flows (see the `ayb_store` crate),
//! * [`sharding`] — the [`ShardTransport`] data-plane interface with its
//!   typed [`ShardWork`]/[`ShardOutcome`] payloads, and the
//!   [`ShardedEvaluator`] under [`SizingProblem::evaluate_batch`], which
//!   distributes batches as deterministic shards over a transport (the run
//!   store's on-disk plane or the TCP coordinator, in production) so any
//!   number of worker processes — on any number of machines sharing the
//!   transport — evaluate one optimiser's populations, with results
//!   bit-identical to single-process runs.
//!
//! # Examples
//!
//! Optimising a two-objective toy trade-off with the paper's algorithm:
//!
//! ```
//! use ayb_moo::{FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig};
//!
//! let problem = FnProblem::new(
//!     1,
//!     vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
//!     |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
//! );
//! let result = OptimizerConfig::Wbga(GaConfig::small_test()).run(&problem);
//! let front = result.pareto_front();
//! assert!(!front.is_empty());
//! ```
//!
//! Checkpointing a run and resuming it from its first checkpoint:
//!
//! ```
//! use ayb_moo::{
//!     Checkpoint, CheckpointControl, DiscardCheckpoints, FnProblem, GaConfig, ObjectiveSpec,
//!     OptimizerConfig,
//! };
//!
//! let problem = FnProblem::new(
//!     1,
//!     vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
//!     |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
//! );
//! let config = OptimizerConfig::Nsga2(GaConfig::small_test());
//! let mut first: Option<Checkpoint> = None;
//! let mut halt_at_first = |checkpoint: &Checkpoint| {
//!     first = Some(checkpoint.clone());
//!     CheckpointControl::Halt
//! };
//! assert!(config.run_checkpointed(&problem, None, &mut halt_at_first).is_err());
//! let resumed = config
//!     .run_checkpointed(&problem, first, &mut DiscardCheckpoints)
//!     .unwrap();
//! assert_eq!(resumed.archive, config.run(&problem).archive);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod config;
pub mod nsga2;
pub mod operators;
pub mod optimizer;
pub mod pareto;
pub mod problem;
pub mod random_search;
pub mod sharding;
pub mod wbga;

pub use checkpoint::{
    Checkpoint, CheckpointControl, CheckpointError, CheckpointIndividual, CheckpointSink,
    DiscardCheckpoints,
};
pub use config::{EarlyStop, GaConfig, GenerationStats};
pub use optimizer::{OptimizationResult, OptimizerConfig};
pub use pareto::{
    crowding_distance, dominates, fast_non_dominated_sort, hypervolume_2d, non_dominated_indices,
    pareto_front, FrontTracker,
};
pub use problem::{
    evaluate_batch_parallel, Evaluation, FnProblem, ObjectiveSpec, Sense, SizingProblem,
};
pub use sharding::{
    drive_epoch, publish_epoch, DegradedHook, EpochWork, ShardError, ShardOutcome, ShardResults,
    ShardTransport, ShardWork, ShardWorkKind, ShardedEvaluator, TransportStats, VariationOutcome,
    VariationPointWork, WithEvaluator, SHARD_CLAIM_STALE_AFTER,
};
pub use wbga::normalize_weights;
