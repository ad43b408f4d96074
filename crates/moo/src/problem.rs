//! The multi-objective problem abstraction.

use serde::{Deserialize, Serialize};

/// Optimisation direction of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Larger values are better (e.g. open-loop gain).
    Maximize,
    /// Smaller values are better (e.g. power, area).
    Minimize,
}

impl Sense {
    /// Returns `true` if `a` is at least as good as `b` under this sense.
    pub fn at_least_as_good(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Maximize => a >= b,
            Sense::Minimize => a <= b,
        }
    }

    /// Returns `true` if `a` is strictly better than `b` under this sense.
    pub fn strictly_better(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Maximize => a > b,
            Sense::Minimize => a < b,
        }
    }
}

/// Name and direction of one objective function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpec {
    /// Human-readable name (e.g. `"gain_db"`).
    pub name: String,
    /// Optimisation direction.
    pub sense: Sense,
}

impl ObjectiveSpec {
    /// Creates a maximisation objective.
    pub fn maximize(name: impl Into<String>) -> Self {
        ObjectiveSpec {
            name: name.into(),
            sense: Sense::Maximize,
        }
    }

    /// Creates a minimisation objective.
    pub fn minimize(name: impl Into<String>) -> Self {
        ObjectiveSpec {
            name: name.into(),
            sense: Sense::Minimize,
        }
    }
}

/// A sizing problem: a multi-objective optimisation problem over normalised
/// parameters.
///
/// Parameters are presented to the optimiser as a vector in `[0, 1]^n`
/// (mirroring the paper's normalised GA string, Figure 6); the problem
/// implementation is responsible for mapping them to physical values.
///
/// `evaluate` returns `None` for infeasible points (for example a bias point
/// that does not converge); the optimisers treat these as worst-possible
/// candidates rather than aborting.
///
/// The trait is object safe — every optimiser run
/// ([`OptimizerConfig::run`](crate::OptimizerConfig::run)) consumes a
/// `&dyn SizingProblem` — and requires [`Sync`] so that batches can be
/// evaluated on worker threads (see [`SizingProblem::evaluate_batch`] and
/// [`evaluate_batch_parallel`]).
pub trait SizingProblem: Sync {
    /// Number of designable parameters (dimension of the normalised vector).
    fn parameter_count(&self) -> usize;

    /// Objective specifications, fixing the number and direction of objectives.
    fn objectives(&self) -> &[ObjectiveSpec];

    /// Evaluates the raw objective values at a normalised parameter vector.
    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>>;

    /// Number of objectives (derived from [`SizingProblem::objectives`]).
    fn objective_count(&self) -> usize {
        self.objectives().len()
    }

    /// Evaluates a whole batch of candidates, returning one entry per input
    /// in the same order (`None` marks an infeasible candidate).
    ///
    /// The default implementation loops over [`SizingProblem::evaluate`].
    /// Problems with expensive evaluations (such as circuit simulation)
    /// override this with [`evaluate_batch_parallel`] so that *optimiser*
    /// populations — not just Monte Carlo samples — use every core.
    fn evaluate_batch(&self, batch: &[Vec<f64>]) -> Vec<Option<Evaluation>> {
        batch
            .iter()
            .map(|parameters| {
                self.evaluate(parameters)
                    .map(|objectives| Evaluation::new(parameters.clone(), objectives))
            })
            .collect()
    }
}

/// Shared references delegate every method — including any overridden
/// `evaluate_batch` — so wrappers like
/// [`WithEvaluator`](crate::sharding::WithEvaluator) can borrow a problem
/// without losing its parallel (or sharded) batch evaluation.
impl<P: SizingProblem + ?Sized> SizingProblem for &P {
    fn parameter_count(&self) -> usize {
        (**self).parameter_count()
    }

    fn objectives(&self) -> &[ObjectiveSpec] {
        (**self).objectives()
    }

    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>> {
        (**self).evaluate(parameters)
    }

    fn objective_count(&self) -> usize {
        (**self).objective_count()
    }

    fn evaluate_batch(&self, batch: &[Vec<f64>]) -> Vec<Option<Evaluation>> {
        (**self).evaluate_batch(batch)
    }
}

/// Evaluates a batch on `threads` scoped worker threads, preserving order.
///
/// Work is distributed through an atomic-index work queue (work stealing)
/// rather than fixed chunks: each worker repeatedly claims the next
/// unevaluated candidate, so variable-cost evaluations — a handful of
/// slow-to-converge bias points amongst fast ones — no longer leave threads
/// idle behind an unlucky chunk split.
///
/// Results are identical to the sequential default (candidate evaluation is
/// pure and every result lands in its input slot), so parallel batch
/// evaluation never perturbs reproducibility. With `threads <= 1` — or
/// batches too small to be worth splitting — the batch is evaluated inline.
pub fn evaluate_batch_parallel<P: SizingProblem + ?Sized>(
    problem: &P,
    batch: &[Vec<f64>],
    threads: usize,
) -> Vec<Option<Evaluation>> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = threads.max(1).min(batch.len().max(1));
    if threads == 1 {
        return batch
            .iter()
            .map(|parameters| {
                problem
                    .evaluate(parameters)
                    .map(|objectives| Evaluation::new(parameters.clone(), objectives))
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Evaluation>> = Vec::with_capacity(batch.len());
    slots.resize_with(batch.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Option<Evaluation>)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= batch.len() {
                            break;
                        }
                        let parameters = &batch[index];
                        let result = problem
                            .evaluate(parameters)
                            .map(|objectives| Evaluation::new(parameters.clone(), objectives));
                        local.push((index, result));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            for (index, result) in worker.join().expect("evaluation worker panicked") {
                slots[index] = result;
            }
        }
    });
    slots
}

/// A point that has been evaluated: normalised parameters plus raw objective values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Normalised parameter vector in `[0, 1]^n`.
    pub parameters: Vec<f64>,
    /// Raw objective values in the order declared by the problem.
    pub objectives: Vec<f64>,
}

impl Evaluation {
    /// Creates an evaluation record.
    pub fn new(parameters: Vec<f64>, objectives: Vec<f64>) -> Self {
        Evaluation {
            parameters,
            objectives,
        }
    }
}

/// A closure-backed problem, convenient for tests and small studies.
pub struct FnProblem<F> {
    parameter_count: usize,
    objectives: Vec<ObjectiveSpec>,
    function: F,
}

impl<F> FnProblem<F>
where
    F: Fn(&[f64]) -> Option<Vec<f64>>,
{
    /// Wraps a closure as a [`SizingProblem`].
    pub fn new(parameter_count: usize, objectives: Vec<ObjectiveSpec>, function: F) -> Self {
        FnProblem {
            parameter_count,
            objectives,
            function,
        }
    }
}

impl<F> SizingProblem for FnProblem<F>
where
    F: Fn(&[f64]) -> Option<Vec<f64>> + Sync,
{
    fn parameter_count(&self) -> usize {
        self.parameter_count
    }

    fn objectives(&self) -> &[ObjectiveSpec] {
        &self.objectives
    }

    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>> {
        (self.function)(parameters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_comparisons() {
        assert!(Sense::Maximize.strictly_better(2.0, 1.0));
        assert!(!Sense::Maximize.strictly_better(1.0, 1.0));
        assert!(Sense::Maximize.at_least_as_good(1.0, 1.0));
        assert!(Sense::Minimize.strictly_better(1.0, 2.0));
        assert!(Sense::Minimize.at_least_as_good(1.0, 1.0));
    }

    #[test]
    fn fn_problem_delegates() {
        let p = FnProblem::new(
            2,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| Some(vec![x[0] + x[1], x[0] - x[1]]),
        );
        assert_eq!(p.parameter_count(), 2);
        assert_eq!(p.objective_count(), 2);
        assert_eq!(p.objectives()[0].name, "f1");
        assert_eq!(p.evaluate(&[0.25, 0.5]), Some(vec![0.75, -0.25]));
    }

    #[test]
    fn evaluation_holds_both_vectors() {
        let e = Evaluation::new(vec![0.1, 0.2], vec![50.0, 75.0]);
        assert_eq!(e.parameters.len(), 2);
        assert_eq!(e.objectives[1], 75.0);
    }

    fn batch_problem() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>> + Sync> {
        FnProblem::new(
            2,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                if x[0] > 0.9 {
                    None
                } else {
                    Some(vec![x[0] + x[1], x[0] * x[1]])
                }
            },
        )
    }

    #[test]
    fn default_batch_evaluation_preserves_order_and_failures() {
        let p = batch_problem();
        let batch = vec![vec![0.1, 0.2], vec![0.95, 0.0], vec![0.5, 0.5]];
        let results = p.evaluate_batch(&batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().parameters, batch[0]);
        assert!(results[1].is_none(), "infeasible candidate maps to None");
        assert_eq!(results[2].as_ref().unwrap().objectives, vec![1.0, 0.25]);
    }

    #[test]
    fn parallel_batch_matches_sequential_for_any_thread_count() {
        let p = batch_problem();
        let batch: Vec<Vec<f64>> = (0..37)
            .map(|i| vec![(i as f64) / 40.0, ((i * 7) % 40) as f64 / 40.0])
            .collect();
        let sequential = p.evaluate_batch(&batch);
        for threads in [0, 1, 2, 3, 8, 64] {
            let parallel = evaluate_batch_parallel(&p, &batch, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
        // Empty batches are handled without panicking.
        assert!(evaluate_batch_parallel(&p, &[], 4).is_empty());
    }

    #[test]
    fn work_stealing_matches_sequential_under_skewed_costs() {
        // Candidate cost varies by three orders of magnitude: a fixed chunk
        // split would serialise the expensive tail on one thread, and any
        // indexing bug in the work queue would scramble the output order.
        let p = FnProblem::new(
            1,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                let spins = if x[0] > 0.9 { 200_000 } else { 200 };
                let mut acc = x[0];
                for _ in 0..spins {
                    acc = (acc * 1.000_001).min(1e6);
                }
                Some(vec![x[0], acc])
            },
        );
        let batch: Vec<Vec<f64>> = (0..64).map(|i| vec![(i as f64) / 64.0]).collect();
        let sequential = p.evaluate_batch(&batch);
        for threads in [2, 4, 7] {
            assert_eq!(
                evaluate_batch_parallel(&p, &batch, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn sizing_problem_is_object_safe() {
        let p = batch_problem();
        let dynamic: &dyn SizingProblem = &p;
        assert_eq!(dynamic.parameter_count(), 2);
        assert_eq!(dynamic.objective_count(), 2);
        assert!(dynamic.evaluate(&[0.2, 0.2]).is_some());
        assert_eq!(dynamic.evaluate_batch(&[vec![0.2, 0.2]]).len(), 1);
    }
}
