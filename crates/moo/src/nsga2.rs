//! NSGA-II baseline optimiser.
//!
//! The paper chooses the WBGA; NSGA-II (Deb, paper ref. \[8\]) is the standard
//! alternative for multi-objective analogue sizing and is provided here as the
//! comparison baseline (`ayb run --optimizer nsga2`, then `ayb report`): same
//! evaluation budget, front quality compared via hypervolume.

use crate::checkpoint::{
    Checkpoint, CheckpointControl, CheckpointError, CheckpointIndividual, CheckpointSink,
    DiscardCheckpoints,
};
use crate::config::{GaConfig, GenerationStats};
use crate::operators::{blend_crossover, gaussian_mutation, random_genes};
use crate::optimizer::{OptimizationResult, Optimizer};
use crate::pareto::{crowding_distance, fast_non_dominated_sort, pareto_front, FrontTracker};
use crate::problem::{Evaluation, Sense, SizingProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of an NSGA-II run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nsga2Result {
    /// Every successful evaluation performed during the run.
    pub archive: Vec<Evaluation>,
    /// The final population (after the last environmental selection).
    pub final_population: Vec<Evaluation>,
    /// Per-generation statistics (best/mean of the first objective).
    pub history: Vec<GenerationStats>,
    /// Number of evaluation attempts, including failures.
    pub evaluations: usize,
    /// Number of failed evaluations.
    pub failed_evaluations: usize,
    /// Objective senses copied from the problem.
    pub senses: Vec<Sense>,
}

impl Nsga2Result {
    /// Pareto front over the complete evaluation archive.
    pub fn pareto_front(&self) -> Vec<Evaluation> {
        pareto_front(&self.archive, &self.senses)
    }
}

#[derive(Debug, Clone)]
struct Candidate {
    genes: Vec<f64>,
    objectives: Option<Vec<f64>>,
}

/// The NSGA-II optimiser.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: GaConfig,
}

impl Nsga2 {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        Nsga2 { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the optimisation.
    ///
    /// Populations are evaluated through [`SizingProblem::evaluate_batch`],
    /// so problems with a parallel batch implementation use every core.
    pub fn run<P: SizingProblem + ?Sized>(&self, problem: &P) -> Nsga2Result {
        self.run_resumable(problem, None, &mut DiscardCheckpoints)
            .expect("a fresh NSGA-II run cannot fail")
    }

    /// Runs the optimisation with per-generation checkpointing, optionally
    /// resuming from a previously captured [`Checkpoint`].
    ///
    /// Semantics match [`Wbga::run_resumable`](crate::Wbga::run_resumable):
    /// with [`DiscardCheckpoints`] and no resume state this is exactly
    /// [`Nsga2::run`], and resuming from any emitted checkpoint reproduces
    /// the uninterrupted run bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on an incompatible `resume` state or
    /// [`CheckpointError::Halted`] when the sink requested a stop.
    pub fn run_resumable<P: SizingProblem + ?Sized>(
        &self,
        problem: &P,
        resume: Option<Checkpoint>,
        sink: &mut dyn CheckpointSink,
    ) -> Result<Nsga2Result, CheckpointError> {
        let cfg = &self.config;
        let n_params = problem.parameter_count();
        let senses: Vec<Sense> = problem.objectives().iter().map(|o| o.sense).collect();

        let evaluate_batch = |genomes: Vec<Vec<f64>>,
                              archive: &mut Vec<Evaluation>,
                              evaluations: &mut usize,
                              failed: &mut usize| {
            let results = problem.evaluate_batch(&genomes);
            genomes
                .into_iter()
                .zip(results)
                .map(|(genes, result)| {
                    *evaluations += 1;
                    let objectives = match result {
                        Some(evaluation) => {
                            let objectives = evaluation.objectives.clone();
                            archive.push(evaluation);
                            Some(objectives)
                        }
                        None => {
                            *failed += 1;
                            None
                        }
                    };
                    Candidate { genes, objectives }
                })
                .collect::<Vec<Candidate>>()
        };

        let mut rng;
        let mut archive;
        let mut history;
        let mut evaluations;
        let mut failed;
        let mut stall;
        let mut population;
        let start_generation;

        match resume {
            None => {
                rng = StdRng::seed_from_u64(cfg.seed);
                archive = Vec::new();
                history = Vec::new();
                evaluations = 0usize;
                failed = 0usize;
                stall = 0usize;
                start_generation = 0;
                let genomes: Vec<Vec<f64>> = (0..cfg.population_size)
                    .map(|_| random_genes(&mut rng, n_params))
                    .collect();
                population = evaluate_batch(genomes, &mut archive, &mut evaluations, &mut failed);
            }
            Some(checkpoint) => {
                checkpoint.validate("nsga2", n_params, &senses, cfg.generations)?;
                rng = StdRng::from_state(checkpoint.rng_state);
                population = checkpoint
                    .population
                    .into_iter()
                    .map(|individual| Candidate {
                        genes: individual.parameters,
                        objectives: individual.objectives,
                    })
                    .collect();
                archive = checkpoint.archive;
                history = checkpoint.history;
                evaluations = checkpoint.evaluations;
                failed = checkpoint.failed_evaluations;
                stall = checkpoint.stall_generations;
                start_generation = checkpoint.next_generation;
            }
        }

        let mut tracker = cfg
            .early_stop
            .map(|_| FrontTracker::from_archive(&archive, &senses));

        for generation in start_generation..cfg.generations {
            history.push(stats(generation, &population, &senses));
            if generation + 1 == cfg.generations {
                break;
            }
            if let Some(early_stop) = &cfg.early_stop {
                if stall >= early_stop.effective_patience() {
                    break;
                }
            }
            // Rank the current population to drive mating selection.
            let (ranks, crowding) = rank_population(&population, &senses);

            // Generate the full offspring genome set, then evaluate one batch.
            let mut offspring_genomes: Vec<Vec<f64>> = Vec::with_capacity(cfg.population_size);
            while offspring_genomes.len() < cfg.population_size {
                let pa = binary_tournament(&mut rng, &ranks, &crowding);
                let pb = binary_tournament(&mut rng, &ranks, &crowding);
                let (mut child_a, mut child_b) = if rng.gen::<f64>() < cfg.crossover_rate {
                    blend_crossover(&mut rng, &population[pa].genes, &population[pb].genes, 0.3)
                } else {
                    (population[pa].genes.clone(), population[pb].genes.clone())
                };
                gaussian_mutation(
                    &mut rng,
                    &mut child_a,
                    cfg.mutation_rate,
                    cfg.mutation_sigma,
                );
                gaussian_mutation(
                    &mut rng,
                    &mut child_b,
                    cfg.mutation_rate,
                    cfg.mutation_sigma,
                );
                for child in [child_a, child_b] {
                    if offspring_genomes.len() >= cfg.population_size {
                        break;
                    }
                    offspring_genomes.push(child);
                }
            }
            let archived_before = archive.len();
            let offspring = evaluate_batch(
                offspring_genomes,
                &mut archive,
                &mut evaluations,
                &mut failed,
            );
            if let Some(tracker) = tracker.as_mut() {
                let mut improved = false;
                for evaluation in &archive[archived_before..] {
                    improved |= tracker.insert(evaluation);
                }
                stall = if improved { 0 } else { stall + 1 };
            }

            // Environmental selection over parents + offspring.
            let mut combined = population;
            combined.extend(offspring);
            population = environmental_selection(combined, cfg.population_size, &senses);

            if sink.wants_checkpoints() {
                let checkpoint = Checkpoint {
                    optimizer: "nsga2".to_string(),
                    next_generation: generation + 1,
                    rng_state: rng.state(),
                    population: population
                        .iter()
                        .map(|candidate| CheckpointIndividual {
                            parameters: candidate.genes.clone(),
                            weight_genes: Vec::new(),
                            objectives: candidate.objectives.clone(),
                        })
                        .collect(),
                    archive: archive.clone(),
                    history: history.clone(),
                    evaluations,
                    failed_evaluations: failed,
                    stall_generations: stall,
                    senses: senses.clone(),
                };
                if sink.on_checkpoint(&checkpoint) == CheckpointControl::Halt {
                    return Err(CheckpointError::Halted {
                        generation: generation + 1,
                    });
                }
            }
        }

        let final_population = population
            .iter()
            .filter_map(|c| {
                c.objectives
                    .as_ref()
                    .map(|obj| Evaluation::new(c.genes.clone(), obj.clone()))
            })
            .collect();

        Ok(Nsga2Result {
            archive,
            final_population,
            history,
            evaluations,
            failed_evaluations: failed,
            senses,
        })
    }
}

impl Optimizer for Nsga2 {
    fn name(&self) -> &'static str {
        "nsga2"
    }

    fn run(&self, problem: &dyn SizingProblem) -> OptimizationResult {
        Nsga2::run(self, problem).into()
    }

    fn run_checkpointed(
        &self,
        problem: &dyn SizingProblem,
        resume: Option<Checkpoint>,
        sink: &mut dyn CheckpointSink,
    ) -> Result<OptimizationResult, CheckpointError> {
        self.run_resumable(problem, resume, sink).map(Into::into)
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

fn rank_population(population: &[Candidate], senses: &[Sense]) -> (Vec<usize>, Vec<f64>) {
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
    combined: Vec<Candidate>,
    target: usize,
    senses: &[Sense],
) -> Vec<Candidate> {
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

fn stats(generation: usize, population: &[Candidate], senses: &[Sense]) -> GenerationStats {
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
        let result = Nsga2::new(cfg).run(&zdt1());
        assert_eq!(result.evaluations, cfg.evaluation_budget());
        let front = pareto_front(&result.final_population, &result.senses);
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
        let result = Nsga2::new(cfg).run(&zdt1());
        assert!(result.final_population.len() <= cfg.population_size);
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
        let result = Nsga2::new(GaConfig::small_test()).run(&problem);
        assert!(result.failed_evaluations > 0);
        assert!(result.pareto_front().iter().all(|e| e.parameters[0] <= 0.8));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let cfg = GaConfig::small_test();
        let a = Nsga2::new(cfg).run(&zdt1());
        let b = Nsga2::new(cfg).run(&zdt1());
        assert_eq!(a.archive, b.archive);
    }

    #[test]
    fn resume_from_any_checkpoint_reproduces_the_full_run() {
        let problem = zdt1();
        let nsga2 = Nsga2::new(GaConfig::small_test());
        let full = nsga2.run(&problem);
        let mut checkpoints = Vec::new();
        let mut sink = |cp: &Checkpoint| {
            checkpoints.push(cp.clone());
            CheckpointControl::Continue
        };
        let checkpointed = nsga2.run_resumable(&problem, None, &mut sink).unwrap();
        assert_eq!(checkpointed.archive, full.archive);
        assert_eq!(checkpointed.final_population, full.final_population);

        for checkpoint in checkpoints {
            let generation = checkpoint.next_generation;
            let resumed = nsga2
                .run_resumable(&problem, Some(checkpoint), &mut DiscardCheckpoints)
                .unwrap_or_else(|e| panic!("resume from generation {generation} failed: {e}"));
            assert_eq!(resumed.archive, full.archive, "gen {generation}");
            assert_eq!(
                resumed.final_population, full.final_population,
                "gen {generation}"
            );
            assert_eq!(resumed.history, full.history, "gen {generation}");
        }
    }
}
