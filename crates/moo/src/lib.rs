//! # ayb-moo — multi-objective optimisation for analogue sizing
//!
//! This crate implements the optimisation machinery of the paper's flow
//! (§2.1, §3.2, §3.3) behind an engine-style public API:
//!
//! * [`SizingProblem`] — the problem abstraction over normalised `[0, 1]`
//!   parameter vectors, with a batch evaluation entry point
//!   ([`SizingProblem::evaluate_batch`] / [`evaluate_batch_parallel`]) so
//!   expensive evaluations use every core,
//! * [`Optimizer`] — the common interface every search algorithm implements;
//!   algorithms are interchangeable behind `&dyn Optimizer` and selected with
//!   the serde-friendly [`OptimizerConfig`] enum,
//! * [`Wbga`] — the weight-based genetic algorithm the paper uses, where the
//!   GA string carries designable parameters *and* objective weights
//!   (normalised per eq. 4) and fitness is the normalised weighted sum (eq. 5),
//! * [`Nsga2`] — the NSGA-II baseline for optimiser comparisons,
//! * [`RandomSearch`] / [`random_search()`](random_search::random_search) — a uniform-sampling baseline,
//! * [`pareto`] — dominance tests, Pareto-front extraction (§3.3), fast
//!   non-dominated sorting, crowding distance and 2-D hypervolume,
//! * [`checkpoint`] — serializable per-generation [`Checkpoint`]s: every
//!   optimiser supports [`Optimizer::run_checkpointed`], which snapshots its
//!   complete state (population, archive, RNG stream) between generations
//!   and resumes from any snapshot with bit-identical results; combined with
//!   the optional [`EarlyStop`] convergence criterion this is the substrate
//!   for durable, resumable flows (see the `ayb_store` crate),
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
//! use ayb_moo::{FnProblem, GaConfig, ObjectiveSpec, Wbga};
//!
//! let problem = FnProblem::new(
//!     1,
//!     vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
//!     |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
//! );
//! let result = Wbga::new(GaConfig::small_test()).run(&problem);
//! let front = result.pareto_front();
//! assert!(!front.is_empty());
//! ```
//!
//! Selecting the algorithm at run time through the [`Optimizer`] trait:
//!
//! ```
//! use ayb_moo::{FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig};
//!
//! let problem = FnProblem::new(
//!     1,
//!     vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
//!     |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
//! );
//! let config = OptimizerConfig::Nsga2(GaConfig::small_test());
//! let result = config.build().run(&problem);
//! assert_eq!(result.optimizer, "nsga2");
//! assert!(!result.pareto_front().is_empty());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod config;
pub mod evalcache;
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
pub use evalcache::CachedProblem;
pub use nsga2::{Nsga2, Nsga2Result};
pub use optimizer::{OptimizationResult, Optimizer, OptimizerConfig};
pub use pareto::{
    crowding_distance, dominates, fast_non_dominated_sort, hypervolume_2d, non_dominated_indices,
    pareto_front, FrontTracker,
};
/// Backwards-compatible alias for [`SizingProblem`] (the pre-redesign name).
pub use problem::SizingProblem as MultiObjectiveProblem;
pub use problem::{
    evaluate_batch_parallel, Evaluation, FnProblem, ObjectiveSpec, Sense, SizingProblem,
};
pub use random_search::{random_search, RandomSearch, RandomSearchResult};
pub use sharding::{
    drive_epoch, DegradedHook, EpochWork, ShardError, ShardOutcome, ShardResults, ShardTransport,
    ShardWork, ShardWorkKind, ShardedEvaluator, ShardingOptions, TransportStats, VariationOutcome,
    VariationPointWork, WithEvaluator,
};
pub use wbga::{normalize_weights, Wbga, WbgaIndividual, WbgaResult};
