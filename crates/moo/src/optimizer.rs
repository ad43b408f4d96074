//! One generation loop for every optimiser.
//!
//! The paper frames its flow as "netlist/objective generation" (the problem)
//! followed by "optimisation" (the search algorithm) — steps 1–2 of Figure 3
//! — without tying either to the other. This module is that seam:
//!
//! * [`OptimizerConfig`] — a serde-friendly description of *which* optimiser
//!   to run with *what* settings; [`OptimizerConfig::run`] and
//!   [`OptimizerConfig::run_checkpointed`] are the one entry point for
//!   flows, benches and config files,
//! * [`OptimizationResult`] — the optimiser-independent result (archive,
//!   history, counters, senses),
//! * the generation loop behind both entry points. It owns what every
//!   algorithm shares: state started fresh or restored from a
//!   [`Checkpoint`], batch evaluation into the archive, the early-stop
//!   tracker, the halt-aware checkpoint boundary and the result. Its state
//!   *is* a [`Checkpoint`], so a boundary lends it to the sink without
//!   copying the archive. The [`wbga`](crate::wbga),
//!   [`nsga2`](crate::nsga2) and [`random_search`](crate::random_search)
//!   modules supply only their breeding and selection.

use crate::checkpoint::{
    Checkpoint, CheckpointControl, CheckpointError, CheckpointIndividual, CheckpointSink,
    DiscardCheckpoints,
};
use crate::config::{EarlyStop, GaConfig, GenerationStats};
use crate::nsga2::Nsga2;
use crate::pareto::{pareto_front, FrontTracker};
use crate::problem::{Evaluation, Sense, SizingProblem};
use crate::random_search::RandomSearch;
use crate::wbga::Wbga;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// What one algorithm adds to the generation loop: its initial population,
/// how it closes a generation, breeds from it and selects the next one.
///
/// Population members are [`CheckpointIndividual`]s, so the loop keeps its
/// whole state in one [`Checkpoint`].
pub(crate) trait Search {
    /// Number of generations the loop runs (random search: evaluation
    /// chunks), which bounds a restored checkpoint's `next_generation`.
    fn generations(&self) -> usize;

    /// Rejects a restored population this algorithm cannot continue.
    fn check_population(
        &self,
        _population: &[CheckpointIndividual],
        _objectives: usize,
    ) -> Result<(), CheckpointError> {
        Ok(())
    }

    /// The unevaluated initial population (empty when there is none).
    fn initial(
        &mut self,
        rng: &mut StdRng,
        parameters: usize,
        objectives: usize,
    ) -> Vec<CheckpointIndividual>;

    /// Closes generation `generation`, the evaluated `population`: ranks
    /// it for breeding and returns its statistics. `None` means the
    /// algorithm keeps no population, and a generation is a batch still to
    /// be drawn.
    fn close(
        &mut self,
        generation: usize,
        population: &[CheckpointIndividual],
        senses: &[Sense],
    ) -> Option<GenerationStats>;

    /// Breeds the unevaluated candidates of the next batch.
    fn breed(
        &mut self,
        rng: &mut StdRng,
        generation: usize,
        population: &[CheckpointIndividual],
        parameters: usize,
    ) -> Vec<CheckpointIndividual>;

    /// The next population, from the current one and the evaluated
    /// `offspring`.
    fn select(
        &mut self,
        population: Vec<CheckpointIndividual>,
        offspring: Vec<CheckpointIndividual>,
        senses: &[Sense],
    ) -> Vec<CheckpointIndividual>;

    /// The final population the result reports, if the algorithm has one.
    fn final_population(&self, _population: &[CheckpointIndividual]) -> Option<Vec<Evaluation>> {
        None
    }
}

/// Optimiser-independent result of one optimisation run.
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
///     let result = config.run(&problem);
///     assert_eq!(result.optimizer, config.name());
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
    /// Selects an algorithm by its command-line / service name
    /// (`wbga`, `nsga2`, `random` or `random_search`), with the GA settings
    /// `ga`; random search takes `ga`'s evaluation budget and seed.
    ///
    /// # Errors
    ///
    /// Returns the message naming the accepted spellings for any other name.
    pub fn from_name(name: &str, ga: GaConfig) -> Result<Self, String> {
        match name {
            "wbga" => Ok(OptimizerConfig::Wbga(ga)),
            "nsga2" => Ok(OptimizerConfig::Nsga2(ga)),
            "random" | "random_search" => Ok(OptimizerConfig::RandomSearch {
                budget: ga.evaluation_budget(),
                seed: ga.seed,
            }),
            other => Err(format!("unknown optimizer `{other}` (wbga|nsga2|random)")),
        }
    }

    /// Stable identifier of the selected algorithm, recorded in its
    /// results and checkpoints.
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
    pub fn early_stop(&self) -> Option<EarlyStop> {
        match self {
            OptimizerConfig::Wbga(ga) | OptimizerConfig::Nsga2(ga) => ga.early_stop,
            OptimizerConfig::RandomSearch { .. } => None,
        }
    }

    /// Runs the selected algorithm against `problem`.
    ///
    /// Every batch of candidates is evaluated through
    /// [`SizingProblem::evaluate_batch`], so problems that override it
    /// (circuit simulation, sharding) spread the work without changing
    /// the result.
    pub fn run(&self, problem: &dyn SizingProblem) -> OptimizationResult {
        self.run_checkpointed(problem, None, &mut DiscardCheckpoints)
            .expect("a fresh run whose sink never halts cannot fail")
    }

    /// Runs the selected algorithm with a checkpoint at every generation
    /// boundary, optionally resuming from a previous one.
    ///
    /// `sink` receives the complete state after every bred-and-evaluated
    /// generation (random search: after every evaluated chunk but the
    /// last) and may halt the run there. Resuming from any of those
    /// checkpoints continues the identical run — same RNG stream, archive
    /// and result — and with [`DiscardCheckpoints`] and no `resume` this is
    /// exactly [`OptimizerConfig::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when `resume` does not fit this
    /// optimiser, problem or configuration, or [`CheckpointError::Halted`]
    /// when the sink requested a stop.
    pub fn run_checkpointed(
        &self,
        problem: &dyn SizingProblem,
        resume: Option<Checkpoint>,
        sink: &mut dyn CheckpointSink,
    ) -> Result<OptimizationResult, CheckpointError> {
        match *self {
            OptimizerConfig::Wbga(ga) => self.drive(Wbga::new(ga), problem, resume, sink),
            OptimizerConfig::Nsga2(ga) => self.drive(Nsga2::new(ga), problem, resume, sink),
            OptimizerConfig::RandomSearch { budget, .. } => {
                self.drive(RandomSearch::new(budget), problem, resume, sink)
            }
        }
    }

    /// The generation loop every algorithm runs through.
    fn drive<S: Search>(
        &self,
        mut search: S,
        problem: &dyn SizingProblem,
        resume: Option<Checkpoint>,
        sink: &mut dyn CheckpointSink,
    ) -> Result<OptimizationResult, CheckpointError> {
        let parameters = problem.parameter_count();
        let senses: Vec<Sense> = problem.objectives().iter().map(|o| o.sense).collect();
        let generations = search.generations();
        // `state.rng_state` is brought up to date at each boundary only.
        let (mut rng, mut state) = match resume {
            Some(checkpoint) => {
                checkpoint.validate(self.name(), parameters, &senses, generations)?;
                search.check_population(&checkpoint.population, senses.len())?;
                (StdRng::from_state(checkpoint.rng_state), checkpoint)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(self.seed());
                let mut state = Checkpoint {
                    optimizer: self.name().to_string(),
                    next_generation: 0,
                    rng_state: rng.state(),
                    population: Vec::new(),
                    archive: Vec::with_capacity(self.evaluation_budget()),
                    history: Vec::with_capacity(generations),
                    evaluations: 0,
                    failed_evaluations: 0,
                    stall_generations: 0,
                    senses: senses.clone(),
                };
                let initial = search.initial(&mut rng, parameters, senses.len());
                state.population = evaluate(problem, initial, &mut state);
                (rng, state)
            }
        };

        // Early-stopping front tracker: replaying the archive reproduces the
        // exact tracker state the uninterrupted run had at this point.
        let early_stop = self.early_stop();
        let mut tracker = early_stop.map(|_| FrontTracker::from_archive(&state.archive, &senses));

        for generation in state.next_generation..generations {
            // A population is recorded every generation; the last one is
            // never bred from.
            if let Some(stats) = search.close(generation, &state.population, &senses) {
                state.history.push(stats);
                if generation + 1 == generations {
                    break;
                }
            }
            if early_stop.is_some_and(|stop| state.stall_generations >= stop.effective_patience()) {
                break;
            }

            let offspring = search.breed(&mut rng, generation, &state.population, parameters);
            let archived_before = state.archive.len();
            let offspring = evaluate(problem, offspring, &mut state);
            if let Some(tracker) = tracker.as_mut() {
                let mut improved = false;
                for evaluation in &state.archive[archived_before..] {
                    improved |= tracker.insert(evaluation);
                }
                state.stall_generations = if improved {
                    0
                } else {
                    state.stall_generations + 1
                };
            }
            let population = std::mem::take(&mut state.population);
            state.population = search.select(population, offspring, &senses);

            // Random search's last chunk completes the run; nothing is left
            // to resume, so no checkpoint is needed.
            if generation + 1 == generations {
                break;
            }
            state.next_generation = generation + 1;
            state.rng_state = rng.state();
            if sink.on_checkpoint(&state) == CheckpointControl::Halt {
                return Err(CheckpointError::Halted {
                    generation: generation + 1,
                });
            }
        }

        Ok(OptimizationResult {
            final_population: search.final_population(&state.population),
            optimizer: state.optimizer,
            archive: state.archive,
            history: state.history,
            evaluations: state.evaluations,
            failed_evaluations: state.failed_evaluations,
            senses: state.senses,
        })
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::Wbga(GaConfig::default())
    }
}

/// Evaluates `members` as one batch, recording each success in the archive
/// and every attempt in the counters. An empty batch (random search has no
/// initial population) never reaches the problem.
fn evaluate(
    problem: &dyn SizingProblem,
    mut members: Vec<CheckpointIndividual>,
    state: &mut Checkpoint,
) -> Vec<CheckpointIndividual> {
    if members.is_empty() {
        return members;
    }
    let batch: Vec<Vec<f64>> = members.iter().map(|m| m.parameters.clone()).collect();
    for (member, result) in members.iter_mut().zip(problem.evaluate_batch(&batch)) {
        state.evaluations += 1;
        match result {
            Some(evaluation) => {
                member.objectives = Some(evaluation.objectives.clone());
                state.archive.push(evaluation);
            }
            None => {
                state.failed_evaluations += 1;
                member.objectives = None;
            }
        }
    }
    members
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::EarlyStop;
    use crate::problem::{FnProblem, ObjectiveSpec};
    use crate::random_search::RANDOM_SEARCH_CHECKPOINT_CHUNK;

    fn tradeoff() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>> + Sync> {
        FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
        )
    }

    /// Every algorithm, with the number of checkpoints a run emits: one per
    /// bred generation, or per evaluated chunk but the last (a budget of
    /// three chunks plus a partial tail).
    fn all_variants() -> Vec<(OptimizerConfig, usize)> {
        let ga = GaConfig::small_test();
        vec![
            (OptimizerConfig::Wbga(ga), ga.generations - 1),
            (OptimizerConfig::Nsga2(ga), ga.generations - 1),
            (
                OptimizerConfig::RandomSearch {
                    budget: 3 * RANDOM_SEARCH_CHECKPOINT_CHUNK + 17,
                    seed: 7,
                },
                3,
            ),
        ]
    }

    /// Results compare through their JSON: every field, bit for bit.
    fn json(result: &OptimizationResult) -> String {
        serde_json::to_string(result).expect("serializes")
    }

    #[test]
    fn every_variant_runs_through_its_config() {
        let problem = tradeoff();
        for (config, _) in all_variants() {
            let result = config.run(&problem);
            assert_eq!(result.optimizer, config.name());
            assert!(result.evaluations > 0);
            assert!(!result.pareto_front().is_empty(), "{}", config.name());
            assert!(result.evaluations <= config.evaluation_budget());
        }
    }

    #[test]
    fn with_seed_rewrites_every_variant() {
        for (config, _) in all_variants() {
            let reseeded = config.clone().with_seed(0xfeed);
            assert_eq!(reseeded.seed(), 0xfeed);
            assert_eq!(reseeded.name(), config.name());
        }
    }

    /// Runs `config` plainly and with a sink that keeps every checkpoint,
    /// asserts that both runs give the same result and returns it with the
    /// checkpoints.
    pub(crate) fn run_keeping_checkpoints(
        config: &OptimizerConfig,
        problem: &dyn SizingProblem,
    ) -> (OptimizationResult, Vec<Checkpoint>) {
        let plain = config.run(problem);
        let mut checkpoints = Vec::new();
        let mut sink = |checkpoint: &Checkpoint| {
            checkpoints.push(checkpoint.clone());
            CheckpointControl::Continue
        };
        let checkpointed = config.run_checkpointed(problem, None, &mut sink).unwrap();
        assert_eq!(json(&plain), json(&checkpointed), "{}", config.name());
        (plain, checkpoints)
    }

    /// Resumes `config` from every checkpoint of a full run and asserts that
    /// each resumed run reproduces the full run's result. Returns that
    /// result and the number of checkpoints.
    pub(crate) fn assert_every_checkpoint_resumes_to_the_full_run(
        config: &OptimizerConfig,
        problem: &dyn SizingProblem,
    ) -> (OptimizationResult, usize) {
        let (full, checkpoints) = run_keeping_checkpoints(config, problem);
        let count = checkpoints.len();
        for checkpoint in checkpoints {
            let generation = checkpoint.next_generation;
            let resumed = config
                .run_checkpointed(problem, Some(checkpoint), &mut DiscardCheckpoints)
                .unwrap_or_else(|e| panic!("{}: resume from {generation}: {e}", config.name()));
            assert_eq!(
                json(&resumed),
                json(&full),
                "{} gen {generation}",
                config.name()
            );
        }
        (full, count)
    }

    /// Every algorithm's run through the [`Search`] loop gives the same
    /// result with a checkpoint sink as without one.
    #[test]
    fn checkpointed_trait_runs_match_plain_trait_runs() {
        let problem = tradeoff();
        for (config, checkpoint_count) in all_variants() {
            let name = config.name();
            let (plain, checkpoints) = run_keeping_checkpoints(&config, &problem);
            assert_eq!(checkpoints.len(), checkpoint_count, "{name}");
            assert_eq!(
                plain.final_population.is_some(),
                matches!(config, OptimizerConfig::Nsga2(_)),
                "{name}: only NSGA-II reports a final population"
            );
        }
    }

    /// The loop reproduces, field for field, the results of the separate
    /// per-algorithm loops it replaced: FNV-1a 64 of each result's compact
    /// JSON, as those loops' own `run` produced it.
    #[test]
    fn trait_runs_match_inherent_runs() {
        fn fnv1a64(text: &str) -> String {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in text.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            format!("{hash:016x}")
        }

        let problem = tradeoff();
        let pinned = ["cfcbf5974872a152", "c76273724c2acc31", "564bbed5db48119b"];
        for ((config, _), digest) in all_variants().into_iter().zip(pinned) {
            assert_eq!(
                fnv1a64(&json(&config.run(&problem))),
                digest,
                "{}",
                config.name()
            );
        }
    }

    #[test]
    fn early_stop_accessor_reflects_ga_configs_only() {
        let ga = GaConfig::small_test().with_early_stop(EarlyStop::after_stalled_generations(3));
        assert_eq!(OptimizerConfig::Wbga(ga).early_stop().unwrap().patience, 3);
        assert_eq!(OptimizerConfig::Nsga2(ga).early_stop().unwrap().patience, 3);
        assert!(OptimizerConfig::RandomSearch { budget: 8, seed: 1 }
            .early_stop()
            .is_none());
    }

    #[test]
    fn config_serializes_roundtrip() {
        for (config, _) in all_variants() {
            let json = serde_json::to_string(&config).expect("serializes");
            let back: OptimizerConfig = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, config);
        }
    }

    #[test]
    fn from_name_accepts_every_spelling_and_lists_them_otherwise() {
        let ga = GaConfig::small_test();
        assert_eq!(
            OptimizerConfig::from_name("wbga", ga),
            Ok(OptimizerConfig::Wbga(ga))
        );
        assert_eq!(
            OptimizerConfig::from_name("nsga2", ga),
            Ok(OptimizerConfig::Nsga2(ga))
        );
        let random = OptimizerConfig::RandomSearch {
            budget: ga.evaluation_budget(),
            seed: ga.seed,
        };
        assert_eq!(OptimizerConfig::from_name("random", ga), Ok(random.clone()));
        assert_eq!(OptimizerConfig::from_name("random_search", ga), Ok(random));
        assert_eq!(
            OptimizerConfig::from_name("sgd", ga),
            Err("unknown optimizer `sgd` (wbga|nsga2|random)".to_string())
        );
    }
}
