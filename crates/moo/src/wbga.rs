//! Weight-based genetic algorithm (WBGA), the optimiser of the paper (§3.2).
//!
//! The defining feature of the WBGA (Hajela & Lin, paper ref. \[9\]) is that the
//! objective weights are part of the chromosome itself: the GA string carries
//! the normalised designable parameters *and* the weight vector (Figure 4/6).
//! Each individual therefore scalarises the objectives with its own weights
//! (normalised by eq. 4) and the population explores many weightings at once,
//! which is what spreads the evaluated points along the trade-off curve and
//! avoids the manual weight-selection problem of classical weighted sums.
//!
//! Fitness is the normalised weighted sum of eq. 5:
//!
//! ```text
//! O_w(x_i) = Σ_j w_j^(i) · (f_j(x_i) − f_j^min) / (f_j^max − f_j^min)
//! ```
//!
//! with the min/max taken over the feasible individuals of the current
//! generation and the normalisation flipped for minimisation objectives.
//! It runs through [`OptimizerConfig::Wbga`](crate::OptimizerConfig::Wbga);
//! this module holds its breeding and selection.

use crate::checkpoint::{CheckpointError, CheckpointIndividual};
use crate::config::{GaConfig, GenerationStats};
use crate::operators::{blend_crossover, gaussian_mutation, random_genes, tournament_select};
use crate::optimizer::Search;
use crate::problem::Sense;
use rand::rngs::StdRng;
use rand::Rng;

/// Normalises a weight vector so its entries sum to one (paper eq. 4).
///
/// A uniform weighting is returned when every gene is (numerically) zero.
pub fn normalize_weights(weight_genes: &[f64]) -> Vec<f64> {
    let sum: f64 = weight_genes.iter().map(|w| w.max(0.0)).sum();
    if sum < 1e-12 {
        return vec![1.0 / weight_genes.len() as f64; weight_genes.len()];
    }
    weight_genes.iter().map(|w| w.max(0.0) / sum).collect()
}

/// The weight-based genetic algorithm's breeding and selection. An
/// individual is a [`CheckpointIndividual`]: normalised designable
/// parameters (the `P` part of the GA string) plus raw weight genes (the
/// `W` part).
pub(crate) struct Wbga {
    config: GaConfig,
    /// Eq.-5 fitness of the population last closed.
    fitness: Vec<f64>,
}

impl Wbga {
    pub(crate) fn new(config: GaConfig) -> Self {
        Wbga {
            config,
            fitness: Vec::new(),
        }
    }
}

impl Search for Wbga {
    fn generations(&self) -> usize {
        self.config.generations
    }

    fn check_population(
        &self,
        population: &[CheckpointIndividual],
        objectives: usize,
    ) -> Result<(), CheckpointError> {
        for individual in population {
            if individual.weight_genes.len() != objectives {
                return Err(CheckpointError::Incompatible(format!(
                    "WBGA individual has {} weight genes, problem has {} objectives",
                    individual.weight_genes.len(),
                    objectives
                )));
            }
        }
        Ok(())
    }

    fn initial(
        &mut self,
        rng: &mut StdRng,
        parameters: usize,
        objectives: usize,
    ) -> Vec<CheckpointIndividual> {
        // Initial population: random parameters and random weight genes.
        (0..self.config.population_size)
            .map(|_| CheckpointIndividual {
                parameters: random_genes(rng, parameters),
                weight_genes: random_genes(rng, objectives),
                objectives: None,
            })
            .collect()
    }

    fn close(
        &mut self,
        generation: usize,
        population: &[CheckpointIndividual],
        senses: &[Sense],
    ) -> Option<GenerationStats> {
        self.fitness = fitness(population, senses);
        Some(generation_stats(generation, population, &self.fitness))
    }

    fn breed(
        &mut self,
        rng: &mut StdRng,
        _generation: usize,
        population: &[CheckpointIndividual],
        parameters: usize,
    ) -> Vec<CheckpointIndividual> {
        let cfg = &self.config;
        let elites = cfg.elitism.min(population.len());
        // Generate the full set of offspring first, then evaluate them as
        // one batch.
        let mut offspring: Vec<CheckpointIndividual> = Vec::with_capacity(cfg.population_size);
        while elites + offspring.len() < cfg.population_size {
            let pa = &population[tournament_select(rng, &self.fitness, cfg.tournament_size)];
            let pb = &population[tournament_select(rng, &self.fitness, cfg.tournament_size)];
            // Crossover acts on the full GA string (parameters + weights),
            // exactly as in Figure 4 of the paper.
            let genome_a: Vec<f64> = pa
                .parameters
                .iter()
                .chain(pa.weight_genes.iter())
                .copied()
                .collect();
            let genome_b: Vec<f64> = pb
                .parameters
                .iter()
                .chain(pb.weight_genes.iter())
                .copied()
                .collect();
            let (mut child_a, mut child_b) = if rng.gen::<f64>() < cfg.crossover_rate {
                blend_crossover(rng, &genome_a, &genome_b, 0.3)
            } else {
                (genome_a.clone(), genome_b.clone())
            };
            gaussian_mutation(rng, &mut child_a, cfg.mutation_rate, cfg.mutation_sigma);
            gaussian_mutation(rng, &mut child_b, cfg.mutation_rate, cfg.mutation_sigma);
            for child in [child_a, child_b] {
                if elites + offspring.len() >= cfg.population_size {
                    break;
                }
                offspring.push(CheckpointIndividual {
                    parameters: child[..parameters].to_vec(),
                    weight_genes: child[parameters..].to_vec(),
                    objectives: None,
                });
            }
        }
        offspring
    }

    fn select(
        &mut self,
        population: Vec<CheckpointIndividual>,
        offspring: Vec<CheckpointIndividual>,
        _senses: &[Sense],
    ) -> Vec<CheckpointIndividual> {
        // Elitism: carry over the best individuals unchanged (they are not
        // re-evaluated and not re-archived).
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| {
            self.fitness[b]
                .partial_cmp(&self.fitness[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut next: Vec<CheckpointIndividual> = order
            .iter()
            .take(self.config.elitism.min(population.len()))
            .map(|&idx| population[idx].clone())
            .collect();
        next.extend(offspring);
        next
    }
}

/// Eq.-5 fitness of every individual of a population (−∞ when infeasible).
fn fitness(population: &[CheckpointIndividual], senses: &[Sense]) -> Vec<f64> {
    let n_obj = senses.len();
    // Objective ranges over the feasible part of the population.
    let mut min = vec![f64::INFINITY; n_obj];
    let mut max = vec![f64::NEG_INFINITY; n_obj];
    for individual in population {
        if let Some(objectives) = &individual.objectives {
            for (j, &value) in objectives.iter().enumerate() {
                min[j] = min[j].min(value);
                max[j] = max[j].max(value);
            }
        }
    }
    population
        .iter()
        .map(|individual| match &individual.objectives {
            None => f64::NEG_INFINITY,
            Some(objectives) => {
                let weights = normalize_weights(&individual.weight_genes);
                objectives
                    .iter()
                    .enumerate()
                    .map(|(j, &value)| {
                        let span = (max[j] - min[j]).max(1e-30);
                        let normalized = match senses[j] {
                            Sense::Maximize => (value - min[j]) / span,
                            Sense::Minimize => (max[j] - value) / span,
                        };
                        weights[j] * normalized
                    })
                    .sum()
            }
        })
        .collect()
}

fn generation_stats(
    generation: usize,
    population: &[CheckpointIndividual],
    fitness: &[f64],
) -> GenerationStats {
    let feasible: Vec<f64> = population
        .iter()
        .zip(fitness)
        .filter(|(i, _)| i.objectives.is_some())
        .map(|(_, &f)| f)
        .collect();
    // An all-infeasible generation records 0.0, not -inf: checkpoints are
    // JSON and non-finite floats do not survive the round-trip, which would
    // break bit-identical resume.
    let best = if feasible.is_empty() {
        0.0
    } else {
        feasible.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    };
    let mean = if feasible.is_empty() {
        0.0
    } else {
        feasible.iter().sum::<f64>() / feasible.len() as f64
    };
    GenerationStats {
        generation,
        best_fitness: best,
        mean_fitness: mean,
        feasible: feasible.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CheckpointControl, DiscardCheckpoints};
    use crate::optimizer::tests::{
        assert_every_checkpoint_resumes_to_the_full_run, run_keeping_checkpoints,
    };
    use crate::optimizer::OptimizerConfig;
    use crate::problem::{FnProblem, ObjectiveSpec};

    /// A two-objective problem with a known concave trade-off:
    /// maximise f1 = x and f2 = 1 − x² over x ∈ [0, 1].
    fn tradeoff_problem() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>>> {
        FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |x: &[f64]| Some(vec![x[0], 1.0 - x[0] * x[0]]),
        )
    }

    #[test]
    fn weight_normalization_follows_equation_four() {
        let w = normalize_weights(&[0.2, 0.6]);
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 0.75).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Degenerate all-zero weights fall back to uniform.
        let w = normalize_weights(&[0.0, 0.0, 0.0]);
        assert!(w.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn archive_size_matches_evaluation_budget() {
        let config = GaConfig::small_test();
        let result = OptimizerConfig::Wbga(config).run(&tradeoff_problem());
        assert_eq!(result.evaluations, config.exact_evaluations());
        assert_eq!(result.archive.len(), result.evaluations);
        assert_eq!(result.failed_evaluations, 0);
        assert_eq!(result.history.len(), config.generations);

        // With elitism disabled (the paper configuration) the evaluation count
        // equals population × generations exactly.
        let mut no_elite = config;
        no_elite.elitism = 0;
        no_elite.population_size = 10;
        no_elite.generations = 5;
        let result = OptimizerConfig::Wbga(no_elite).run(&tradeoff_problem());
        assert_eq!(result.evaluations, 50);
    }

    #[test]
    fn run_is_reproducible_with_fixed_seed() {
        let config = GaConfig::small_test();
        let a = OptimizerConfig::Wbga(config).run(&tradeoff_problem());
        let b = OptimizerConfig::Wbga(config).run(&tradeoff_problem());
        assert_eq!(a.archive, b.archive);
        let c = OptimizerConfig::Wbga(config.with_seed(99)).run(&tradeoff_problem());
        assert_ne!(a.archive, c.archive);
    }

    #[test]
    fn pareto_front_approaches_known_tradeoff_curve() {
        let result = OptimizerConfig::Wbga(GaConfig::small_test()).run(&tradeoff_problem());
        let front = result.pareto_front();
        assert!(!front.is_empty());
        // Every front point satisfies f2 = 1 − f1² by construction; the front
        // should span a reasonable part of the trade-off.
        for point in &front {
            let (f1, f2) = (point.objectives[0], point.objectives[1]);
            assert!((f2 - (1.0 - f1 * f1)).abs() < 1e-9);
        }
        let span = front.last().unwrap().objectives[0] - front[0].objectives[0];
        assert!(
            span > 0.3,
            "front should spread along the trade-off, span = {span}"
        );
    }

    #[test]
    fn fitness_improves_over_generations() {
        let result = OptimizerConfig::Wbga(GaConfig::small_test()).run(&tradeoff_problem());
        let first = result.history.first().unwrap().best_fitness;
        let last = result.history.last().unwrap().best_fitness;
        assert!(
            last >= first - 1e-9,
            "best fitness degraded: {first} -> {last}"
        );
    }

    /// A linear trade-off that is infeasible below `x = 0.5`.
    fn half_feasible_problem() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>>> {
        FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |x: &[f64]| {
                if x[0] < 0.5 {
                    None
                } else {
                    Some(vec![x[0], 1.0 - x[0]])
                }
            },
        )
    }

    #[test]
    fn infeasible_evaluations_are_counted_and_skipped() {
        let result = OptimizerConfig::Wbga(GaConfig::small_test()).run(&half_feasible_problem());
        assert!(result.failed_evaluations > 0);
        assert_eq!(
            result.archive.len() + result.failed_evaluations,
            result.evaluations
        );
        // Archived points are all feasible.
        assert!(result.archive.iter().all(|e| e.parameters[0] >= 0.5));
    }

    #[test]
    fn checkpointed_run_without_resume_equals_plain_run() {
        // Infeasible members travel through the checkpoints too.
        let config = GaConfig::small_test();
        let (plain, checkpoints) =
            run_keeping_checkpoints(&OptimizerConfig::Wbga(config), &half_feasible_problem());
        assert!(plain.failed_evaluations > 0);
        // One checkpoint per bred generation.
        assert_eq!(checkpoints.len(), config.generations - 1);
    }

    #[test]
    fn resume_from_any_checkpoint_reproduces_the_full_run() {
        let config = GaConfig::small_test();
        let (_, checkpoints) = assert_every_checkpoint_resumes_to_the_full_run(
            &OptimizerConfig::Wbga(config),
            &tradeoff_problem(),
        );
        assert_eq!(checkpoints, config.generations - 1);
    }

    #[test]
    fn halt_request_stops_at_the_boundary_and_resume_completes_the_run() {
        let problem = tradeoff_problem();
        let wbga = OptimizerConfig::Wbga(GaConfig::small_test());
        let full = wbga.run(&problem);

        let mut last: Option<Checkpoint> = None;
        let mut sink = |cp: &Checkpoint| {
            last = Some(cp.clone());
            if cp.next_generation == 4 {
                CheckpointControl::Halt
            } else {
                CheckpointControl::Continue
            }
        };
        let halted = wbga.run_checkpointed(&problem, None, &mut sink);
        assert!(matches!(
            halted,
            Err(CheckpointError::Halted { generation: 4 })
        ));
        let resumed = wbga
            .run_checkpointed(&problem, last, &mut DiscardCheckpoints)
            .unwrap();
        assert_eq!(resumed.archive, full.archive);
        assert_eq!(resumed.history, full.history);
    }

    #[test]
    fn resume_rejects_foreign_and_misshapen_checkpoints() {
        let problem = tradeoff_problem();
        let wbga = OptimizerConfig::Wbga(GaConfig::small_test());
        let mut checkpoint = None;
        let mut sink = |cp: &Checkpoint| {
            checkpoint.get_or_insert_with(|| cp.clone());
            CheckpointControl::Continue
        };
        wbga.run_checkpointed(&problem, None, &mut sink).unwrap();
        let checkpoint = checkpoint.unwrap();

        let mut foreign = checkpoint.clone();
        foreign.optimizer = "nsga2".to_string();
        assert!(matches!(
            wbga.run_checkpointed(&problem, Some(foreign), &mut DiscardCheckpoints),
            Err(CheckpointError::OptimizerMismatch { .. })
        ));

        let mut misshapen = checkpoint;
        misshapen.population[0].weight_genes.push(0.5);
        assert!(matches!(
            wbga.run_checkpointed(&problem, Some(misshapen), &mut DiscardCheckpoints),
            Err(CheckpointError::Incompatible(_))
        ));
    }

    #[test]
    fn early_stopping_cuts_a_stalled_run_short() {
        use crate::config::EarlyStop;
        // Constant objectives: the front never improves after the first
        // feasible evaluation, so the run stalls immediately.
        let problem = FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::maximize("f2")],
            |_: &[f64]| Some(vec![1.0, 1.0]),
        );
        let config =
            GaConfig::small_test().with_early_stop(EarlyStop::after_stalled_generations(2));
        let result = OptimizerConfig::Wbga(config).run(&problem);
        // The run stalls from the first breeding, so it stops after
        // `patience + 1` recorded generations.
        assert_eq!(result.history.len(), 3);
        // On the trade-off problem every distinct point is non-dominated
        // (f2 is a decreasing function of f1), so the front keeps improving
        // and the same criterion never triggers.
        let improving = OptimizerConfig::Wbga(config).run(&tradeoff_problem());
        assert_eq!(improving.history.len(), config.generations);
    }
}
