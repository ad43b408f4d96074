//! NSGA-II baseline optimiser.
//!
//! The paper chooses the WBGA; NSGA-II (Deb, paper ref. \[8\]) is the standard
//! alternative for multi-objective analogue sizing and is provided here as the
//! comparison baseline (`ayb run --optimizer nsga2`, then `ayb report`): same
//! evaluation budget, front quality compared via hypervolume. It runs
//! through [`OptimizerConfig::Nsga2`](crate::OptimizerConfig::Nsga2); this
//! module holds its breeding and selection.

use crate::checkpoint::CheckpointIndividual;
use crate::config::{GaConfig, GenerationStats};
use crate::operators::{blend_crossover, gaussian_mutation, random_genes};
use crate::optimizer::Search;
use crate::pareto::{crowding_distance, fast_non_dominated_sort};
use crate::problem::{Evaluation, Sense};
use rand::rngs::StdRng;
use rand::Rng;

/// NSGA-II's breeding and selection. A candidate is a
/// [`CheckpointIndividual`] without weight genes.
pub(crate) struct Nsga2 {
    config: GaConfig,
    /// Non-domination rank of each member of the population last closed.
    ranks: Vec<usize>,
    /// Crowding distance of each member of the population last closed.
    crowding: Vec<f64>,
}

impl Nsga2 {
    pub(crate) fn new(config: GaConfig) -> Self {
        Nsga2 {
            config,
            ranks: Vec::new(),
            crowding: Vec::new(),
        }
    }
}

fn candidate(genes: Vec<f64>) -> CheckpointIndividual {
    CheckpointIndividual {
        parameters: genes,
        weight_genes: Vec::new(),
        objectives: None,
    }
}

impl Search for Nsga2 {
    fn generations(&self) -> usize {
        self.config.generations
    }

    fn initial(
        &mut self,
        rng: &mut StdRng,
        parameters: usize,
        _objectives: usize,
    ) -> Vec<CheckpointIndividual> {
        (0..self.config.population_size)
            .map(|_| candidate(random_genes(rng, parameters)))
            .collect()
    }

    fn close(
        &mut self,
        generation: usize,
        population: &[CheckpointIndividual],
        senses: &[Sense],
    ) -> Option<GenerationStats> {
        // Rank the population to drive mating selection.
        (self.ranks, self.crowding) = rank_population(population, senses);
        Some(stats(generation, population, senses))
    }

    fn breed(
        &mut self,
        rng: &mut StdRng,
        _generation: usize,
        population: &[CheckpointIndividual],
        _parameters: usize,
    ) -> Vec<CheckpointIndividual> {
        let cfg = &self.config;
        // Generate the full offspring genome set, then evaluate one batch.
        let mut offspring: Vec<CheckpointIndividual> = Vec::with_capacity(cfg.population_size);
        while offspring.len() < cfg.population_size {
            let pa = binary_tournament(rng, &self.ranks, &self.crowding);
            let pb = binary_tournament(rng, &self.ranks, &self.crowding);
            let (mut child_a, mut child_b) = if rng.gen::<f64>() < cfg.crossover_rate {
                blend_crossover(
                    rng,
                    &population[pa].parameters,
                    &population[pb].parameters,
                    0.3,
                )
            } else {
                (
                    population[pa].parameters.clone(),
                    population[pb].parameters.clone(),
                )
            };
            gaussian_mutation(rng, &mut child_a, cfg.mutation_rate, cfg.mutation_sigma);
            gaussian_mutation(rng, &mut child_b, cfg.mutation_rate, cfg.mutation_sigma);
            for child in [child_a, child_b] {
                if offspring.len() >= cfg.population_size {
                    break;
                }
                offspring.push(candidate(child));
            }
        }
        offspring
    }

    fn select(
        &mut self,
        population: Vec<CheckpointIndividual>,
        offspring: Vec<CheckpointIndividual>,
        senses: &[Sense],
    ) -> Vec<CheckpointIndividual> {
        // Environmental selection over parents + offspring.
        let mut combined = population;
        combined.extend(offspring);
        environmental_selection(combined, self.config.population_size, senses)
    }

    fn final_population(&self, population: &[CheckpointIndividual]) -> Option<Vec<Evaluation>> {
        Some(
            population
                .iter()
                .filter_map(|c| {
                    c.objectives
                        .as_ref()
                        .map(|obj| Evaluation::new(c.parameters.clone(), obj.clone()))
                })
                .collect(),
        )
    }
}

/// Worst-possible objective vector used to park infeasible candidates at the
/// bottom of the ranking without special cases.
fn penalty_objectives(senses: &[Sense]) -> Vec<f64> {
    senses
        .iter()
        .map(|s| match s {
            Sense::Maximize => -1e300,
            Sense::Minimize => 1e300,
        })
        .collect()
}

fn rank_population(
    population: &[CheckpointIndividual],
    senses: &[Sense],
) -> (Vec<usize>, Vec<f64>) {
    let objectives: Vec<Vec<f64>> = population
        .iter()
        .map(|c| {
            c.objectives
                .clone()
                .unwrap_or_else(|| penalty_objectives(senses))
        })
        .collect();
    let fronts = fast_non_dominated_sort(&objectives, senses);
    let mut ranks = vec![0usize; population.len()];
    let mut crowding = vec![0.0f64; population.len()];
    for (rank, front) in fronts.iter().enumerate() {
        let distances = crowding_distance(&objectives, front);
        for (&idx, &dist) in front.iter().zip(distances.iter()) {
            ranks[idx] = rank;
            crowding[idx] = dist;
        }
    }
    (ranks, crowding)
}

fn binary_tournament<R: Rng + ?Sized>(rng: &mut R, ranks: &[usize], crowding: &[f64]) -> usize {
    let a = rng.gen_range(0..ranks.len());
    let b = rng.gen_range(0..ranks.len());
    if ranks[a] < ranks[b] {
        a
    } else if ranks[b] < ranks[a] {
        b
    } else if crowding[a] >= crowding[b] {
        a
    } else {
        b
    }
}

fn environmental_selection(
    combined: Vec<CheckpointIndividual>,
    target: usize,
    senses: &[Sense],
) -> Vec<CheckpointIndividual> {
    let objectives: Vec<Vec<f64>> = combined
        .iter()
        .map(|c| {
            c.objectives
                .clone()
                .unwrap_or_else(|| penalty_objectives(senses))
        })
        .collect();
    let fronts = fast_non_dominated_sort(&objectives, senses);
    let mut selected: Vec<usize> = Vec::with_capacity(target);
    for front in fronts {
        if selected.len() + front.len() <= target {
            selected.extend_from_slice(&front);
        } else {
            let distances = crowding_distance(&objectives, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| {
                distances[b]
                    .partial_cmp(&distances[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &k in order.iter().take(target - selected.len()) {
                selected.push(front[k]);
            }
        }
        if selected.len() >= target {
            break;
        }
    }
    selected.into_iter().map(|i| combined[i].clone()).collect()
}

fn stats(
    generation: usize,
    population: &[CheckpointIndividual],
    senses: &[Sense],
) -> GenerationStats {
    let values: Vec<f64> = population
        .iter()
        .filter_map(|c| c.objectives.as_ref().map(|o| o[0]))
        .collect();
    // An all-infeasible generation records 0.0, not ±inf: checkpoints are
    // JSON and non-finite floats do not survive the round-trip, which would
    // break bit-identical resume.
    let best = if values.is_empty() {
        0.0
    } else {
        match senses[0] {
            Sense::Maximize => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            Sense::Minimize => values.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    };
    let mean = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    };
    GenerationStats {
        generation,
        best_fitness: best,
        mean_fitness: mean,
        feasible: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::tests::assert_every_checkpoint_resumes_to_the_full_run;
    use crate::optimizer::OptimizerConfig;
    use crate::pareto::pareto_front;
    use crate::problem::{FnProblem, ObjectiveSpec};

    /// ZDT1-like problem with three variables (both objectives minimised).
    fn zdt1() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>>> {
        FnProblem::new(
            3,
            vec![ObjectiveSpec::minimize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                let f1 = x[0];
                let g = 1.0 + 9.0 * (x[1] + x[2]) / 2.0;
                let f2 = g * (1.0 - (f1 / g).sqrt());
                Some(vec![f1, f2])
            },
        )
    }

    #[test]
    fn nsga2_converges_towards_zdt1_front() {
        let mut cfg = GaConfig::small_test();
        cfg.population_size = 24;
        cfg.generations = 30;
        let result = OptimizerConfig::Nsga2(cfg).run(&zdt1());
        assert_eq!(result.evaluations, cfg.evaluation_budget());
        let final_population = result
            .final_population
            .expect("NSGA-II reports its population");
        let front = pareto_front(&final_population, &result.senses);
        assert!(!front.is_empty());
        // On the true front g = 1, i.e. f2 = 1 − sqrt(f1). Check proximity.
        let mean_violation: f64 = front
            .iter()
            .map(|e| (e.objectives[1] - (1.0 - e.objectives[0].sqrt())).abs())
            .sum::<f64>()
            / front.len() as f64;
        assert!(
            mean_violation < 0.6,
            "front too far from optimum: {mean_violation}"
        );
    }

    #[test]
    fn final_population_size_is_bounded() {
        let cfg = GaConfig::small_test();
        let result = OptimizerConfig::Nsga2(cfg).run(&zdt1());
        assert!(result.final_population.unwrap().len() <= cfg.population_size);
        assert_eq!(result.history.len(), cfg.generations);
    }

    #[test]
    fn infeasible_points_never_reach_the_front() {
        let problem = FnProblem::new(
            2,
            vec![ObjectiveSpec::minimize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                if x[0] > 0.8 {
                    None
                } else {
                    Some(vec![x[0], 1.0 - x[0] + x[1]])
                }
            },
        );
        let result = OptimizerConfig::Nsga2(GaConfig::small_test()).run(&problem);
        assert!(result.failed_evaluations > 0);
        assert!(result.pareto_front().iter().all(|e| e.parameters[0] <= 0.8));
    }

    #[test]
    fn resume_from_any_checkpoint_reproduces_the_full_run() {
        let config = GaConfig::small_test();
        let (full, checkpoints) = assert_every_checkpoint_resumes_to_the_full_run(
            &OptimizerConfig::Nsga2(config),
            &zdt1(),
        );
        assert_eq!(checkpoints, config.generations - 1);
        assert!(full.final_population.is_some());
    }

    #[test]
    fn reproducible_with_same_seed() {
        let cfg = GaConfig::small_test();
        let a = OptimizerConfig::Nsga2(cfg).run(&zdt1());
        let b = OptimizerConfig::Nsga2(cfg).run(&zdt1());
        assert_eq!(a.archive, b.archive);
    }
}
