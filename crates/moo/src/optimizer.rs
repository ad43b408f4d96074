//! The engine-style optimiser abstraction.
//!
//! The paper frames its flow as "netlist/objective generation" (the problem)
//! followed by "optimisation" (the search algorithm) — steps 1–2 of Figure 3
//! — without tying either to the other. This module makes that separation a
//! stable public API:
//!
//! * [`Optimizer`] — anything that can drive a [`SizingProblem`] to a set of
//!   evaluated candidates: the paper's [`Wbga`], the [`Nsga2`] baseline and
//!   [`RandomSearch`] all implement it,
//! * [`OptimizationResult`] — the optimiser-independent result (archive,
//!   history, counters, senses) every implementation returns,
//! * [`OptimizerConfig`] — a serde-friendly description of *which* optimiser
//!   to run with *what* settings, so flows, benches and config files select
//!   the algorithm through one code path.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointSink};
use crate::config::{GaConfig, GenerationStats};
use crate::nsga2::{Nsga2, Nsga2Result};
use crate::pareto::pareto_front;
use crate::problem::{Evaluation, Sense, SizingProblem};
use crate::random_search::{RandomSearch, RandomSearchResult};
use crate::wbga::{Wbga, WbgaResult};
use serde::{Deserialize, Serialize};

/// An optimisation algorithm that can drive any [`SizingProblem`].
///
/// Implementations are interchangeable behind `&dyn Optimizer` / `Box<dyn
/// Optimizer>`: the model-generation flow, the filter design and the
/// integration tests all run optimisers exclusively through this trait.
pub trait Optimizer {
    /// Stable machine-readable identifier (e.g. `"wbga"`).
    fn name(&self) -> &'static str;

    /// Runs the optimisation against `problem`.
    fn run(&self, problem: &dyn SizingProblem) -> OptimizationResult;

    /// Runs the optimisation with per-generation checkpointing.
    ///
    /// `sink` receives a [`Checkpoint`] at every generation boundary and may
    /// halt the run; `resume` continues a previous run from its latest
    /// checkpoint, producing a result identical to the uninterrupted run.
    /// Every optimiser in this crate overrides this; the default rejects
    /// resumption and otherwise falls back to a plain (un-checkpointed)
    /// [`Optimizer::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when `resume` is incompatible with the
    /// optimiser/problem/configuration, checkpointing is unsupported, or the
    /// sink halted the run.
    fn run_checkpointed(
        &self,
        problem: &dyn SizingProblem,
        resume: Option<Checkpoint>,
        sink: &mut dyn CheckpointSink,
    ) -> Result<OptimizationResult, CheckpointError> {
        let _ = sink;
        if resume.is_some() {
            return Err(CheckpointError::Unsupported(self.name().to_string()));
        }
        Ok(self.run(problem))
    }
}

/// Optimiser-independent result of one optimisation run.
///
/// This is the common denominator of [`WbgaResult`], [`Nsga2Result`] and
/// [`RandomSearchResult`]; the algorithm-specific result types convert into
/// it with `From`/`Into`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizationResult {
    /// Identifier of the optimiser that produced this result.
    pub optimizer: String,
    /// Every successful evaluation performed during the run.
    pub archive: Vec<Evaluation>,
    /// The optimiser's final population, when the algorithm maintains one.
    pub final_population: Option<Vec<Evaluation>>,
    /// Per-generation statistics (empty for non-generational algorithms).
    pub history: Vec<GenerationStats>,
    /// Number of evaluation attempts, including failures.
    pub evaluations: usize,
    /// Number of failed (infeasible) evaluations.
    pub failed_evaluations: usize,
    /// Objective senses copied from the problem, for Pareto extraction.
    pub senses: Vec<Sense>,
}

impl OptimizationResult {
    /// Extracts the Pareto front (§3.3) from the evaluation archive.
    pub fn pareto_front(&self) -> Vec<Evaluation> {
        pareto_front(&self.archive, &self.senses)
    }

    /// The archived evaluation with the best value of objective `index`.
    pub fn best_by_objective(&self, index: usize) -> Option<&Evaluation> {
        let sense = *self.senses.get(index)?;
        self.archive.iter().max_by(|a, b| {
            let (va, vb) = (a.objectives[index], b.objectives[index]);
            let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
            match sense {
                Sense::Maximize => ord,
                Sense::Minimize => ord.reverse(),
            }
        })
    }
}

impl From<WbgaResult> for OptimizationResult {
    fn from(result: WbgaResult) -> Self {
        OptimizationResult {
            optimizer: "wbga".to_string(),
            archive: result.archive,
            final_population: None,
            history: result.history,
            evaluations: result.evaluations,
            failed_evaluations: result.failed_evaluations,
            senses: result.senses,
        }
    }
}

impl From<Nsga2Result> for OptimizationResult {
    fn from(result: Nsga2Result) -> Self {
        OptimizationResult {
            optimizer: "nsga2".to_string(),
            archive: result.archive,
            final_population: Some(result.final_population),
            history: result.history,
            evaluations: result.evaluations,
            failed_evaluations: result.failed_evaluations,
            senses: result.senses,
        }
    }
}

impl From<RandomSearchResult> for OptimizationResult {
    fn from(result: RandomSearchResult) -> Self {
        OptimizationResult {
            optimizer: "random_search".to_string(),
            archive: result.archive,
            final_population: None,
            history: Vec::new(),
            evaluations: result.evaluations,
            failed_evaluations: result.failed_evaluations,
            senses: result.senses,
        }
    }
}

/// Serde-friendly selection of an optimisation algorithm and its settings.
///
/// ```
/// use ayb_moo::{FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig};
///
/// let problem = FnProblem::new(
///     1,
///     vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
///     |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
/// );
/// for config in [
///     OptimizerConfig::Wbga(GaConfig::small_test()),
///     OptimizerConfig::Nsga2(GaConfig::small_test()),
///     OptimizerConfig::RandomSearch { budget: 64, seed: 7 },
/// ] {
///     let result = config.build().run(&problem);
///     assert!(!result.pareto_front().is_empty(), "{}", config.name());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerConfig {
    /// The paper's weight-based genetic algorithm (§3.2).
    Wbga(GaConfig),
    /// The NSGA-II baseline.
    Nsga2(GaConfig),
    /// Uniform random sampling at a fixed evaluation budget.
    RandomSearch {
        /// Number of evaluation attempts.
        budget: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl OptimizerConfig {
    /// Stable identifier of the selected algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerConfig::Wbga(_) => "wbga",
            OptimizerConfig::Nsga2(_) => "nsga2",
            OptimizerConfig::RandomSearch { .. } => "random_search",
        }
    }

    /// The RNG seed the selected algorithm will use.
    pub fn seed(&self) -> u64 {
        match self {
            OptimizerConfig::Wbga(ga) | OptimizerConfig::Nsga2(ga) => ga.seed,
            OptimizerConfig::RandomSearch { seed, .. } => *seed,
        }
    }

    /// Returns a copy with a different RNG seed (end-to-end determinism).
    #[must_use]
    pub fn with_seed(mut self, new_seed: u64) -> Self {
        match &mut self {
            OptimizerConfig::Wbga(ga) | OptimizerConfig::Nsga2(ga) => ga.seed = new_seed,
            OptimizerConfig::RandomSearch { seed, .. } => *seed = new_seed,
        }
        self
    }

    /// Upper bound on the number of evaluations the configuration implies.
    pub fn evaluation_budget(&self) -> usize {
        match self {
            OptimizerConfig::Wbga(ga) | OptimizerConfig::Nsga2(ga) => ga.evaluation_budget(),
            OptimizerConfig::RandomSearch { budget, .. } => *budget,
        }
    }

    /// The early-stopping criterion of the selected algorithm, if any
    /// (random search has no generational convergence notion).
    pub fn early_stop(&self) -> Option<crate::config::EarlyStop> {
        match self {
            OptimizerConfig::Wbga(ga) | OptimizerConfig::Nsga2(ga) => ga.early_stop,
            OptimizerConfig::RandomSearch { .. } => None,
        }
    }

    /// Instantiates the configured optimiser.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match self {
            OptimizerConfig::Wbga(ga) => Box::new(Wbga::new(*ga)),
            OptimizerConfig::Nsga2(ga) => Box::new(Nsga2::new(*ga)),
            OptimizerConfig::RandomSearch { budget, seed } => {
                Box::new(RandomSearch::new(*budget, *seed))
            }
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::Wbga(GaConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnProblem, ObjectiveSpec};

    fn tradeoff() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>> + Sync> {
        FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
        )
    }

    fn all_variants() -> Vec<OptimizerConfig> {
        vec![
            OptimizerConfig::Wbga(GaConfig::small_test()),
            OptimizerConfig::Nsga2(GaConfig::small_test()),
            OptimizerConfig::RandomSearch {
                budget: 128,
                seed: 7,
            },
        ]
    }

    #[test]
    fn every_variant_builds_and_runs_through_the_trait_object() {
        let problem = tradeoff();
        for config in all_variants() {
            let optimizer = config.build();
            assert_eq!(optimizer.name(), config.name());
            let result = optimizer.run(&problem);
            assert_eq!(result.optimizer, config.name());
            assert!(result.evaluations > 0);
            assert!(!result.pareto_front().is_empty(), "{}", config.name());
            assert!(result.evaluations <= config.evaluation_budget());
        }
    }

    #[test]
    fn with_seed_rewrites_every_variant() {
        for config in all_variants() {
            let reseeded = config.clone().with_seed(0xfeed);
            assert_eq!(reseeded.seed(), 0xfeed);
            assert_eq!(reseeded.name(), config.name());
        }
    }

    #[test]
    fn trait_runs_match_inherent_runs() {
        let problem = tradeoff();
        let ga = GaConfig::small_test();

        let direct = Wbga::new(ga).run(&problem);
        let via_trait = OptimizerConfig::Wbga(ga).build().run(&problem);
        assert_eq!(direct.archive, via_trait.archive);
        assert_eq!(direct.evaluations, via_trait.evaluations);

        let direct = Nsga2::new(ga).run(&problem);
        let via_trait = OptimizerConfig::Nsga2(ga).build().run(&problem);
        assert_eq!(direct.archive, via_trait.archive);
        assert_eq!(Some(direct.final_population), via_trait.final_population);
    }

    #[test]
    fn checkpointed_trait_runs_match_plain_trait_runs() {
        use crate::checkpoint::{Checkpoint, CheckpointControl, DiscardCheckpoints};

        let problem = tradeoff();
        for config in all_variants() {
            let optimizer = config.build();
            let plain = optimizer.run(&problem);
            let fresh = optimizer
                .run_checkpointed(&problem, None, &mut DiscardCheckpoints)
                .expect("fresh checkpointed run succeeds");
            assert_eq!(plain.archive, fresh.archive, "{}", config.name());
            assert_eq!(plain.evaluations, fresh.evaluations, "{}", config.name());

            // Resuming from the first emitted checkpoint reproduces the run
            // through the trait object as well.
            let mut first: Option<Checkpoint> = None;
            let mut sink = |cp: &Checkpoint| {
                first.get_or_insert_with(|| cp.clone());
                CheckpointControl::Continue
            };
            optimizer
                .run_checkpointed(&problem, None, &mut sink)
                .expect("checkpointed run succeeds");
            let first = first.expect("at least one checkpoint was emitted");
            let resumed = optimizer
                .run_checkpointed(&problem, Some(first), &mut DiscardCheckpoints)
                .expect("resume succeeds");
            assert_eq!(plain.archive, resumed.archive, "{}", config.name());
        }
    }

    #[test]
    fn early_stop_accessor_reflects_ga_configs_only() {
        use crate::config::EarlyStop;
        let ga = GaConfig::small_test().with_early_stop(EarlyStop::after_stalled_generations(3));
        assert_eq!(OptimizerConfig::Wbga(ga).early_stop().unwrap().patience, 3);
        assert_eq!(OptimizerConfig::Nsga2(ga).early_stop().unwrap().patience, 3);
        assert!(OptimizerConfig::RandomSearch { budget: 8, seed: 1 }
            .early_stop()
            .is_none());
    }

    #[test]
    fn config_serializes_roundtrip() {
        for config in all_variants() {
            let json = serde_json::to_string(&config).expect("serializes");
            let back: OptimizerConfig = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, config);
        }
    }

    #[test]
    fn best_by_objective_respects_sense_on_unified_result() {
        let problem = tradeoff();
        let result: OptimizationResult = OptimizerConfig::RandomSearch {
            budget: 200,
            seed: 3,
        }
        .build()
        .run(&problem);
        let best = result.best_by_objective(0).unwrap().objectives[0];
        assert!(result
            .archive
            .iter()
            .all(|e| e.objectives[0] <= best + 1e-12));
        assert!(result.best_by_objective(9).is_none());
    }
}
