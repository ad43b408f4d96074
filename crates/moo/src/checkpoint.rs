//! Per-generation optimiser checkpointing.
//!
//! Every optimiser in this crate runs through one generation loop
//! ([`OptimizerConfig::run_checkpointed`](crate::OptimizerConfig::run_checkpointed))
//! whose whole state is a serializable [`Checkpoint`]: WBGA and NSGA-II
//! snapshot it between generations, random search between evaluation
//! chunks. Resuming from one continues the *exact* run: the RNG stream is
//! restored bit-for-bit (via the xoshiro256++ state exposed by the vendored
//! `rand`), the population round-trips losslessly (JSON floats use
//! shortest-round-trip formatting), and a resumed run therefore produces a
//! result identical to the uninterrupted run with the same seed.
//!
//! At each boundary the loop lends its state to a [`CheckpointSink`]
//! without copying the archive; the sink can request a
//! [`CheckpointControl::Halt`] to stop the run there (used by the flow
//! layer to simulate crashes deterministically and to pause runs).

use crate::config::GenerationStats;
use crate::problem::{Evaluation, Sense};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One population member inside a [`Checkpoint`].
///
/// This is the optimiser-independent projection of a population slot: WBGA
/// individuals carry weight genes, NSGA-II candidates leave them empty, and
/// the fitness assigned by WBGA is intentionally *not* stored — it is a pure
/// function of the population's objectives and is reassigned on resume (which
/// also keeps non-finite fitness values out of the JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointIndividual {
    /// Normalised designable parameters in `[0, 1]^n`.
    pub parameters: Vec<f64>,
    /// Raw weight genes (WBGA only; empty for other optimisers).
    pub weight_genes: Vec<f64>,
    /// Raw objective values, `None` if the evaluation was infeasible.
    pub objectives: Option<Vec<f64>>,
}

/// A complete, serializable optimiser state captured at a generation boundary.
///
/// A checkpoint with `next_generation = g` is taken after the population of
/// generation `g` has been bred and evaluated, but before its fitness
/// assignment; resuming from it re-enters the generation loop at `g` and
/// continues the identical run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Stable identifier of the optimiser that produced this checkpoint
    /// (`"wbga"`, `"nsga2"`, `"random_search"`); resume refuses a mismatch.
    pub optimizer: String,
    /// Index of the next generation to run (for random search: the next
    /// evaluation chunk).
    pub next_generation: usize,
    /// xoshiro256++ state of the optimiser RNG at the snapshot point.
    pub rng_state: [u64; 4],
    /// Current population (empty for non-populational optimisers).
    pub population: Vec<CheckpointIndividual>,
    /// Every successful evaluation performed so far.
    pub archive: Vec<Evaluation>,
    /// Per-generation statistics recorded so far.
    pub history: Vec<GenerationStats>,
    /// Number of evaluation attempts so far, including failures.
    pub evaluations: usize,
    /// Number of failed (infeasible) evaluations so far.
    pub failed_evaluations: usize,
    /// Consecutive generations without a Pareto-front improvement (the
    /// early-stopping stall counter; see [`EarlyStop`](crate::EarlyStop)).
    pub stall_generations: usize,
    /// Objective senses copied from the problem.
    pub senses: Vec<Sense>,
}

/// Errors produced when resuming from (or halting at) a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The checkpoint was produced by a different optimiser.
    OptimizerMismatch {
        /// Name of the optimiser asked to resume.
        expected: String,
        /// Name recorded in the checkpoint.
        found: String,
    },
    /// The checkpoint does not fit the problem or configuration.
    Incompatible(String),
    /// The run was stopped by the sink at a checkpoint boundary (not an
    /// error in the usual sense: the checkpoint with this generation index
    /// holds the complete state and the run can be resumed from it).
    Halted {
        /// `next_generation` of the checkpoint the run stopped at.
        generation: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::OptimizerMismatch { expected, found } => write!(
                f,
                "checkpoint was produced by optimiser `{found}`, cannot resume with `{expected}`"
            ),
            CheckpointError::Incompatible(reason) => {
                write!(f, "checkpoint is incompatible: {reason}")
            }
            CheckpointError::Halted { generation } => {
                write!(
                    f,
                    "run halted at generation {generation} by the checkpoint sink"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Whether a checkpointed run continues past a checkpoint boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointControl {
    /// Keep running.
    Continue,
    /// Stop at this boundary; the run returns
    /// [`CheckpointError::Halted`] and can be resumed from the checkpoint
    /// that was just emitted.
    Halt,
}

/// Receives a [`Checkpoint`] after every completed generation.
pub trait CheckpointSink {
    /// Called once per generation boundary with the optimiser's state,
    /// borrowed for the call.
    fn on_checkpoint(&mut self, checkpoint: &Checkpoint) -> CheckpointControl;
}

impl<F: FnMut(&Checkpoint) -> CheckpointControl> CheckpointSink for F {
    fn on_checkpoint(&mut self, checkpoint: &Checkpoint) -> CheckpointControl {
        self(checkpoint)
    }
}

/// A [`CheckpointSink`] that discards every checkpoint and never halts —
/// checkpointed execution with this sink is exactly a plain run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardCheckpoints;

impl CheckpointSink for DiscardCheckpoints {
    fn on_checkpoint(&mut self, _checkpoint: &Checkpoint) -> CheckpointControl {
        CheckpointControl::Continue
    }
}

impl Checkpoint {
    /// Validates the parts of a checkpoint every optimiser shares: the
    /// optimiser name, the problem's parameter/objective shape, and the
    /// generation bound.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::OptimizerMismatch`] or
    /// [`CheckpointError::Incompatible`] when the checkpoint cannot drive
    /// the given problem/configuration.
    pub fn validate(
        &self,
        expected_optimizer: &str,
        parameter_count: usize,
        senses: &[Sense],
        max_generation: usize,
    ) -> Result<(), CheckpointError> {
        if self.optimizer != expected_optimizer {
            return Err(CheckpointError::OptimizerMismatch {
                expected: expected_optimizer.to_string(),
                found: self.optimizer.clone(),
            });
        }
        if self.senses != senses {
            return Err(CheckpointError::Incompatible(format!(
                "objective senses differ (checkpoint has {}, problem has {})",
                self.senses.len(),
                senses.len()
            )));
        }
        if self.next_generation > max_generation {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint is at generation {} but the configuration only runs {}",
                self.next_generation, max_generation
            )));
        }
        for individual in &self.population {
            if individual.parameters.len() != parameter_count {
                return Err(CheckpointError::Incompatible(format!(
                    "population individual has {} parameters, problem has {}",
                    individual.parameters.len(),
                    parameter_count
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            optimizer: "wbga".to_string(),
            next_generation: 3,
            rng_state: [1, 2, 3, u64::MAX],
            population: vec![
                CheckpointIndividual {
                    parameters: vec![0.25, 0.5],
                    weight_genes: vec![0.1, 0.9],
                    objectives: Some(vec![1.5, -2.25]),
                },
                CheckpointIndividual {
                    parameters: vec![0.75, 0.125],
                    weight_genes: vec![0.4, 0.6],
                    objectives: None,
                },
            ],
            archive: vec![Evaluation::new(vec![0.25, 0.5], vec![1.5, -2.25])],
            history: vec![GenerationStats {
                generation: 0,
                best_fitness: 0.75,
                mean_fitness: 0.5,
                feasible: 1,
            }],
            evaluations: 4,
            failed_evaluations: 1,
            stall_generations: 2,
            senses: vec![Sense::Maximize, Sense::Minimize],
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let checkpoint = sample_checkpoint();
        let json = serde_json::to_string(&checkpoint).expect("serializes");
        let back: Checkpoint = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn validate_accepts_matching_shape() {
        let checkpoint = sample_checkpoint();
        let senses = [Sense::Maximize, Sense::Minimize];
        assert!(checkpoint.validate("wbga", 2, &senses, 10).is_ok());
    }

    #[test]
    fn validate_rejects_mismatches() {
        let checkpoint = sample_checkpoint();
        let senses = [Sense::Maximize, Sense::Minimize];
        assert!(matches!(
            checkpoint.validate("nsga2", 2, &senses, 10),
            Err(CheckpointError::OptimizerMismatch { .. })
        ));
        assert!(matches!(
            checkpoint.validate("wbga", 3, &senses, 10),
            Err(CheckpointError::Incompatible(_))
        ));
        assert!(matches!(
            checkpoint.validate("wbga", 2, &[Sense::Maximize], 10),
            Err(CheckpointError::Incompatible(_))
        ));
        assert!(matches!(
            checkpoint.validate("wbga", 2, &senses, 2),
            Err(CheckpointError::Incompatible(_))
        ));
    }

    #[test]
    fn closures_and_discard_are_sinks() {
        let mut seen = 0usize;
        let mut sink = |_: &Checkpoint| {
            seen += 1;
            CheckpointControl::Continue
        };
        let checkpoint = sample_checkpoint();
        assert_eq!(
            CheckpointSink::on_checkpoint(&mut sink, &checkpoint),
            CheckpointControl::Continue
        );
        assert_eq!(seen, 1);
        assert_eq!(
            DiscardCheckpoints.on_checkpoint(&checkpoint),
            CheckpointControl::Continue
        );
    }

    #[test]
    fn errors_display_their_cause() {
        let e = CheckpointError::OptimizerMismatch {
            expected: "wbga".into(),
            found: "nsga2".into(),
        };
        assert!(e.to_string().contains("nsga2"));
        assert!(CheckpointError::Halted { generation: 7 }
            .to_string()
            .contains('7'));
    }
}
