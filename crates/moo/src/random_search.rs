//! Uniform random search baseline.
//!
//! The simplest "conventional simulation-based approach": sample the design
//! space uniformly and keep the non-dominated points. Used to show what the
//! same evaluation budget buys without an evolutionary search. It runs
//! through [`OptimizerConfig::RandomSearch`](crate::OptimizerConfig::RandomSearch).

use crate::checkpoint::CheckpointIndividual;
use crate::config::GenerationStats;
use crate::optimizer::Search;
use crate::problem::Sense;
use rand::rngs::StdRng;
use rand::Rng;

/// Number of evaluations between two checkpoints of a random search.
/// Candidates are drawn and evaluated in chunks of this size, which
/// produces exactly the same stream (and therefore the same result) as
/// drawing the whole budget up front.
pub const RANDOM_SEARCH_CHECKPOINT_CHUNK: usize = 64;

/// Random search keeps no population: each generation of the loop draws
/// and evaluates one chunk of [`RANDOM_SEARCH_CHECKPOINT_CHUNK`] candidates,
/// so a checkpoint's `next_generation` counts completed chunks.
pub(crate) struct RandomSearch {
    /// Number of evaluation attempts.
    budget: usize,
}

impl RandomSearch {
    pub(crate) fn new(budget: usize) -> Self {
        RandomSearch { budget }
    }
}

impl Search for RandomSearch {
    fn generations(&self) -> usize {
        self.budget.div_ceil(RANDOM_SEARCH_CHECKPOINT_CHUNK)
    }

    fn initial(&mut self, _: &mut StdRng, _: usize, _: usize) -> Vec<CheckpointIndividual> {
        Vec::new()
    }

    fn close(
        &mut self,
        _: usize,
        _: &[CheckpointIndividual],
        _: &[Sense],
    ) -> Option<GenerationStats> {
        None
    }

    fn breed(
        &mut self,
        rng: &mut StdRng,
        chunk: usize,
        _population: &[CheckpointIndividual],
        parameters: usize,
    ) -> Vec<CheckpointIndividual> {
        let offset = chunk * RANDOM_SEARCH_CHECKPOINT_CHUNK;
        let len = RANDOM_SEARCH_CHECKPOINT_CHUNK.min(self.budget - offset);
        (0..len)
            .map(|_| CheckpointIndividual {
                parameters: (0..parameters).map(|_| rng.gen::<f64>()).collect(),
                weight_genes: Vec::new(),
                objectives: None,
            })
            .collect()
    }

    fn select(
        &mut self,
        _: Vec<CheckpointIndividual>,
        _: Vec<CheckpointIndividual>,
        _: &[Sense],
    ) -> Vec<CheckpointIndividual> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::RANDOM_SEARCH_CHECKPOINT_CHUNK;
    use crate::config::GaConfig;
    use crate::optimizer::tests::assert_every_checkpoint_resumes_to_the_full_run;
    use crate::optimizer::OptimizerConfig;
    use crate::pareto::hypervolume_2d;
    use crate::problem::{FnProblem, ObjectiveSpec};

    fn tradeoff() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>>> {
        FnProblem::new(
            3,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |x: &[f64]| {
                // Only the first variable matters for the front; the others
                // penalise f2, making blind sampling inefficient.
                let penalty = (x[1] + x[2]) / 2.0;
                Some(vec![x[0], (1.0 - x[0] * x[0]) * (1.0 - 0.8 * penalty)])
            },
        )
    }

    #[test]
    fn budget_and_reproducibility() {
        let search = OptimizerConfig::RandomSearch {
            budget: 100,
            seed: 5,
        };
        let a = search.run(&tradeoff());
        let b = search.run(&tradeoff());
        assert_eq!(a.archive, b.archive);
        assert_eq!(a.evaluations, 100);
        assert_eq!(a.failed_evaluations, 0);
        assert!(!a.pareto_front().is_empty());
    }

    #[test]
    fn resume_from_any_chunk_reproduces_the_full_run() {
        // A budget that is not a multiple of the chunk size, so the last
        // chunk is partial.
        let budget = 3 * RANDOM_SEARCH_CHECKPOINT_CHUNK + 17;
        let search = OptimizerConfig::RandomSearch { budget, seed: 11 };
        let (full, checkpoints) =
            assert_every_checkpoint_resumes_to_the_full_run(&search, &tradeoff());
        assert_eq!(full.evaluations, budget);
        // One checkpoint per completed chunk except the last.
        assert_eq!(checkpoints, 3);
    }

    #[test]
    fn wbga_front_dominates_random_search_front_on_equal_budget() {
        let problem = tradeoff();
        let cfg = GaConfig {
            population_size: 20,
            generations: 20,
            ..GaConfig::small_test()
        };
        let wbga = OptimizerConfig::Wbga(cfg).run(&problem);
        let random = OptimizerConfig::RandomSearch {
            budget: cfg.evaluation_budget(),
            seed: cfg.seed,
        }
        .run(&problem);
        let senses = wbga.senses.clone();
        let hv_wbga = hypervolume_2d(&wbga.pareto_front(), [0.0, -1.0], &senses);
        let hv_rand = hypervolume_2d(&random.pareto_front(), [0.0, -1.0], &senses);
        assert!(
            hv_wbga >= hv_rand * 0.98,
            "WBGA should not be clearly worse: {hv_wbga} vs {hv_rand}"
        );
    }
}
