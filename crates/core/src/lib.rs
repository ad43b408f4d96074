//! # ayb-core — the combined yield / performance modelling flow
//!
//! End-to-end implementation of *"A New Approach for Combining Yield and
//! Performance in Behavioural Models for Analogue Integrated Circuits"*
//! (Ali, Wilcock, Wilson, Brown — DATE 2008) on top of the AYB substrate
//! crates.
//!
//! The public API is engine-style: the *problem*
//! ([`OtaSizingProblem`], an `ayb_moo::SizingProblem`), the *optimiser*
//! (WBGA, NSGA-II or random search, selected with `ayb_moo::OptimizerConfig`) and
//! the *flow* ([`FlowBuilder`]) are decoupled layers:
//!
//! * [`FlowBuilder`] — staged execution of the five-step flow of Figure 3
//!   (`.optimize()?.analyze_variation()?.build_model()?`), with pluggable
//!   optimisers, per-stage [`FlowObserver`] progress callbacks and explicit
//!   RNG seeding ([`FlowBuilder::with_seed`]) for end-to-end determinism;
//!   attaching an [`ayb_store::Store`] ([`FlowBuilder::with_store`]) makes
//!   runs durable — manifest, per-generation checkpoints and result on disk
//!   — and [`FlowBuilder::resume`] continues an interrupted run from its
//!   latest checkpoint with a bit-identical [`FlowResult`]; durable runs can
//!   additionally shard their batch evaluation across any number of worker
//!   processes and machines sharing the store
//!   ([`FlowBuilder::sharded`], `ayb serve --shards-only`) — still
//!   bit-identical,
//! * [`generate_model`] — thin compatibility wrapper running all stages with
//!   the paper's WBGA,
//! * [`AybError`] — the unified error that wraps `FlowError`, `ModelError`,
//!   `SimError`, `TableError` and `CircuitError` with `From` impls,
//! * [`OtaSizingProblem`] — the paper's benchmark problem: size the
//!   symmetrical OTA for open-loop gain and phase margin (§3.1, §4.1), with
//!   multi-threaded batch evaluation for the optimiser populations,
//! * [`verify`] — transistor-level accuracy (Table 4) and yield verification,
//! * [`filter_design`] — the hierarchical 2nd-order anti-aliasing filter
//!   application of §5,
//! * [`conventional`] — the simulation-in-the-loop baseline used for the
//!   speed/efficiency comparison,
//! * [`report`] — text renderers for every table and figure of the paper.
//!
//! # Examples
//!
//! Running the whole flow at reduced scale (seconds, not hours):
//!
//! ```no_run
//! use ayb_core::{FlowBuilder, FlowConfig};
//!
//! # fn main() -> Result<(), ayb_core::AybError> {
//! let config = FlowConfig::reduced();
//! let result = FlowBuilder::new(config.clone())
//!     .optimize()?
//!     .analyze_variation()?
//!     .build_model()?;
//! println!("{} Pareto points", result.pareto.len());
//! println!("{}", ayb_core::report::render_table2(&result.pareto_data));
//! # Ok(())
//! # }
//! ```
//!
//! Swapping the optimiser while keeping every other stage identical:
//!
//! ```no_run
//! use ayb_core::{FlowBuilder, FlowConfig};
//! use ayb_moo::{GaConfig, OptimizerConfig};
//!
//! # fn main() -> Result<(), ayb_core::AybError> {
//! let result = FlowBuilder::new(FlowConfig::reduced())
//!     .with_optimizer(OptimizerConfig::Nsga2(GaConfig::small_test()))
//!     .run()?;
//! assert_eq!(result.optimization.optimizer, "nsga2");
//! # Ok(())
//! # }
//! ```
//!
//! Builder configuration is plain data — seeding, optimiser selection and
//! sharding knobs are inspectable before anything expensive runs:
//!
//! ```
//! use ayb_core::{FlowBuilder, FlowConfig};
//! use ayb_moo::OptimizerConfig;
//!
//! let builder = FlowBuilder::new(FlowConfig::reduced())
//!     .with_optimizer(OptimizerConfig::RandomSearch { budget: 64, seed: 1 })
//!     .with_seed(2008)
//!     .sharded(true)
//!     .shard_size(8);
//! assert_eq!(builder.optimizer().seed(), 2008);
//! assert_eq!(builder.config().monte_carlo.seed, 2008);
//! assert!(builder.config().sharded);
//! assert_eq!(builder.config().shard_size, 8);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod conventional;
pub mod error;
pub mod filter_design;
pub mod flow;
pub mod ota_problem;
pub mod report;
pub mod verify;

pub use config::FlowConfig;
pub use conventional::{compare_approaches, conventional_ota_yield, ApproachComparison};
pub use error::AybError;
pub use filter_design::{design_filter, verify_filter_yield, FilterDesignResult};
pub use flow::{
    analyse_pareto_point, analyse_variation_point, generate_model, point_mc_seed, AnalyzedFlow,
    FlowBuilder, FlowError, FlowObserver, FlowResult, FlowStage, FlowSummary, FlowTimings,
    OptimizedFlow, StderrObserver, TransportIncident, TransportReport, VariationBoundary,
    VariationHaltHook, VariationPointRecord, CHECKPOINT_BYTES_METRIC, CHECKPOINT_SECONDS_METRIC,
};
pub use ota_problem::{
    evaluate_ota, measure_testbench, measure_testbench_with, OtaPerformance, OtaSizingProblem,
};
pub use verify::{verify_accuracy, verify_ota_yield, AccuracyReport, YieldReport};
