//! Shard-aware batch evaluation: the [`ShardTransport`] vocabulary and the
//! [`ShardedEvaluator`] that distributes populations over it.
//!
//! The optimisers in this crate evaluate whole populations through
//! [`SizingProblem::evaluate_batch`] and nothing else, so distributing that
//! one method distributes the optimisation without the optimisers noticing:
//!
//! * [`ShardedEvaluator`] — splits a batch into deterministic, index-ordered
//!   shards, publishes each shard as a typed [`ShardWork`] task through a
//!   [`ShardTransport`] (the run store's on-disk plane in `ayb_store`, or the
//!   TCP coordinator client in `ayb_net`), and assembles shard results back
//!   in index order. Any number of worker processes — on this machine or on
//!   other hosts sharing the transport — may claim and evaluate shards
//!   concurrently; the submitting process itself participates too, so a
//!   sharded batch always completes even with zero external workers;
//! * [`WithEvaluator`] — binds a problem to a [`ShardedEvaluator`] behind
//!   the [`SizingProblem`] trait, so Wbga/Nsga2/RandomSearch stay
//!   shard-agnostic.
//!
//! ## Determinism
//!
//! Sharding never changes results: shards are consecutive index ranges,
//! every candidate's evaluation is pure, and results are reassembled in
//! index order — so a sharded batch is element-for-element identical to the
//! unsharded one, whatever the number of workers, hosts or crashes along the
//! way. Duplicate evaluation of a shard (after a worker is presumed dead but
//! was merely slow) is benign for the same reason: both writers produce
//! identical results.
//!
//! Binding a problem to a transport, and the shard layout it gets:
//!
//! ```
//! use ayb_moo::{ShardTransport, ShardedEvaluator, SizingProblem, WithEvaluator};
//! use std::sync::Arc;
//!
//! /// Every optimiser run on the result evaluates its populations in shards
//! /// of at most 3 candidates over `transport`.
//! fn sharded<P: SizingProblem>(problem: P, transport: Arc<dyn ShardTransport>) -> impl SizingProblem {
//!     WithEvaluator::new(problem, ShardedEvaluator::new(transport, 3))
//! }
//!
//! assert_eq!(ShardedEvaluator::shard_ranges(7, 3), vec![0..3, 3..6, 6..7]);
//! ```

use crate::problem::{Evaluation, ObjectiveSpec, SizingProblem};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Per-shard evaluation results: one entry per candidate, in input order
/// (`None` marks an infeasible candidate).
pub type ShardResults = Vec<Option<Evaluation>>;

/// Errors produced by a [`ShardTransport`].
///
/// The [`ShardedEvaluator`] treats transport errors as degradation, not
/// failure: affected shards are evaluated locally so a batch always
/// completes with the same (deterministic) results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The underlying transport (filesystem, network, ...) failed.
    Transport(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Transport(message) => write!(f, "shard transport error: {message}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The kind of work a shard (or a whole epoch) carries.
///
/// Epoch identifiers start with their kind's [`ShardWorkKind::epoch_prefix`]
/// (`ep-` for evaluation, `var-` for variation), so listings like
/// `ayb status` can tell the stages apart without reading any payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardWorkKind {
    /// GA population evaluation (one shard = a consecutive candidate range).
    Eval,
    /// Monte Carlo variation analysis (one shard = a batch of Pareto points).
    Variation,
}

impl ShardWorkKind {
    /// Human-readable kind name (`eval` / `variation`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardWorkKind::Eval => "eval",
            ShardWorkKind::Variation => "variation",
        }
    }

    /// The prefix every epoch identifier of this kind starts with.
    pub fn epoch_prefix(self) -> &'static str {
        match self {
            ShardWorkKind::Eval => "ep-",
            ShardWorkKind::Variation => "var-",
        }
    }

    /// Classifies an epoch identifier by its prefix (unknown prefixes are
    /// evaluation epochs, the original, untagged kind).
    pub fn of_epoch(epoch: &str) -> ShardWorkKind {
        if epoch.starts_with(ShardWorkKind::Variation.epoch_prefix()) {
            ShardWorkKind::Variation
        } else {
            ShardWorkKind::Eval
        }
    }
}

/// Typed payload of one shard task: what a claiming worker must do.
///
/// Task payloads are ephemeral (an epoch is disposed of as soon as its
/// batch is assembled), so the shape may change without a migration: a
/// payload no variant matches fails to decode and its task is declined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardWork {
    /// Evaluate a consecutive range of a GA population: normalised candidate
    /// parameter vectors, in shard-local order.
    Eval {
        /// One parameter vector per candidate.
        parameters: Vec<Vec<f64>>,
    },
    /// Run the Monte Carlo variation analysis of one or more Pareto points
    /// (larger tasks amortise claim/commit overhead without changing any
    /// result: each point carries its own derived seed).
    VariationBatch {
        /// The points of this batch, in submitter order.
        points: Vec<VariationPointWork>,
    },
}

/// One point of a [`ShardWork::VariationBatch`] task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationPointWork {
    /// The point's normalised parameter vector.
    pub parameters: Vec<f64>,
    /// The point's own Monte Carlo seed (derived by the submitter from the
    /// flow's `monte_carlo.seed` and the point index, so any process
    /// analysing this point draws the identical sample sequence).
    pub mc_seed: u64,
}

impl ShardWork {
    /// This payload's kind.
    pub fn kind(&self) -> ShardWorkKind {
        match self {
            ShardWork::Eval { .. } => ShardWorkKind::Eval,
            ShardWork::VariationBatch { .. } => ShardWorkKind::Variation,
        }
    }
}

/// Wire form of one analysed Pareto point.
///
/// The analysed data is carried as opaque JSON (`serde::Value`): the planes
/// move it between processes byte-faithfully without depending on the
/// behavioural-model types that define it (`ayb_core` converts both ways).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationOutcome {
    /// The analysed point's variation data; `None` when the point could not
    /// be re-simulated (a legitimate, deterministic result, not an error).
    pub data: Option<Value>,
    /// Wall-clock seconds the analysing process spent on this point, so the
    /// submitter can account work done on other hosts.
    pub elapsed_seconds: f64,
}

/// Typed output of one shard, mirroring [`ShardWork`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardOutcome {
    /// Evaluations of a population shard, one entry per candidate in
    /// shard-local order (`None` marks an infeasible candidate).
    Eval {
        /// The candidate evaluations.
        results: ShardResults,
    },
    /// The analysed points of a [`ShardWork::VariationBatch`] task, in task
    /// order (one entry per point of the batch).
    VariationBatch {
        /// The per-point outcomes.
        points: Vec<VariationOutcome>,
    },
}

/// Cumulative counters of one transport, shared by its clones. The flow
/// folds them into its timings and its `transport.json` report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Requests attempted (successful or not); 0 for planes without a
    /// request shape, like files on disk.
    pub requests: u64,
    /// Wall-clock seconds spent in request round-trips, cumulatively.
    pub request_seconds: f64,
    /// Submissions of this transport that were fenced off (their claim had
    /// changed hands) and discarded.
    pub fenced_rejections: u64,
}

/// The data plane sharded stages distribute their work over.
///
/// One *epoch* holds one batch of typed work: the submitter opens an epoch,
/// publishes every shard's [`ShardWork`] into it, and polls for
/// [`ShardOutcome`]s while claiming unclaimed shards for local production.
/// Workers on the same plane do the mirror image: find a published shard,
/// claim it, service it, submit the outcome. Population evaluation
/// ([`ShardedEvaluator`]) and the `ayb_core` variation stage both drive
/// their epochs through this one interface.
///
/// Every implementation follows one claim rule, the lease-plus-fencing-token
/// discipline of Gray & Cheriton, "Leases" (SOSP 1989). A claim is *live*
/// while its holder is alive and has been heard from within the plane's
/// staleness bound ([`SHARD_CLAIM_STALE_AFTER`] for a flow's planes):
///
/// * a claim is granted if and only if the shard is published, has no
///   outcome, and has no live claim; a refused claim mints nothing;
/// * a claim granted over a stale claim mints the shard's next token and
///   reports `shard_recover`, so a claim is the only way a shard changes
///   hands;
/// * a submit is accepted if and only if its claim is still the shard's
///   newest one; a superseded holder's submit is discarded and counted in
///   [`TransportStats::fenced_rejections`].
///
/// Claims are exclusive — of any number of processes racing
/// [`ShardTransport::try_claim`] for one shard, exactly one wins — and an
/// outcome visible through [`ShardTransport::fetch_outcome`] is complete,
/// never torn.
///
/// The implementations are the run store's on-disk plane (`ayb_store`:
/// epoch directories, hard-link claim files) and the TCP client of the
/// in-memory coordinator (`ayb_net`); tests use in-memory transports.
pub trait ShardTransport: Send + Sync {
    /// Opens a new epoch of `kind`-tagged work for `shard_count` shards,
    /// returning its identifier (unique within the transport, starting with
    /// [`ShardWorkKind::epoch_prefix`]).
    fn open_typed_epoch(
        &self,
        kind: ShardWorkKind,
        shard_count: usize,
    ) -> Result<String, ShardError>;

    /// Publishes shard `shard`'s work into `epoch`.
    fn publish_work(&self, epoch: &str, shard: usize, work: &ShardWork) -> Result<(), ShardError>;

    /// Attempts to claim shard `shard` for production by this process,
    /// taking over a stale claim. Returns `false` when the claim rule
    /// refuses it: the shard is unpublished, finished, live-claimed or gone.
    fn try_claim(&self, epoch: &str, shard: usize) -> Result<bool, ShardError>;

    /// Stores shard `shard`'s outcome and releases this process's claim on
    /// it; silently discards the outcome when that claim was stolen.
    fn submit_outcome(
        &self,
        epoch: &str,
        shard: usize,
        outcome: &ShardOutcome,
    ) -> Result<(), ShardError>;

    /// Fetches shard `shard`'s outcome, if some worker has submitted it.
    fn fetch_outcome(&self, epoch: &str, shard: usize) -> Result<Option<ShardOutcome>, ShardError>;

    /// Disposes of the epoch's tasks, claims and outcomes once the batch has
    /// been assembled.
    fn close_epoch(&self, epoch: &str) -> Result<(), ShardError>;

    /// A snapshot of this transport's cumulative counters (all zero unless
    /// the implementation keeps them).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// How long a shard claim may go unheard from before it is stale and the
/// shard's next claim takes it over: the bound of a flow's planes, of disk
/// workers and of `ayb coordinate`. Workers heartbeat their shard claims
/// every second while evaluating, so only a dead or hung holder goes this
/// long unheard.
pub const SHARD_CLAIM_STALE_AFTER: Duration = Duration::from_secs(60);

/// One submitter-side stage binding for [`drive_epoch`]: how to fetch,
/// claim, locally produce and submit one epoch's shards, plus boundary
/// hooks fired as the drive progresses.
///
/// This is the *generic* claim→evaluate→poll protocol shared by
/// every distributed stage — GA population evaluation
/// ([`ShardedEvaluator`]) and per-Pareto-point variation analysis (the
/// `ayb_core` flow) bind it to their own payloads. Implementations are
/// single-threaded (the driver calls them from one thread); concurrency
/// comes from *other processes* racing for the same shards through the
/// underlying transport.
pub trait EpochWork {
    /// One shard's finished output.
    type Output;

    /// Fetches shard `shard`'s output if some worker has submitted it.
    /// Implementations validate the payload (shape, length) and map anything
    /// unusable to `Ok(None)` so the shard stays pending.
    fn fetch(&mut self, shard: usize) -> Result<Option<Self::Output>, ShardError>;

    /// Attempts to claim shard `shard` for local production (taking over a
    /// stale claim, by the [`ShardTransport`] claim rule).
    fn try_claim(&mut self, shard: usize) -> Result<bool, ShardError>;

    /// Produces shard `shard`'s output in-process (the submitter
    /// participates, so an epoch always completes even with zero workers).
    fn evaluate(&mut self, shard: usize) -> Self::Output;

    /// Publishes a locally produced output (failure is benign: the local
    /// copy is used regardless).
    fn submit(&mut self, shard: usize, output: &Self::Output) -> Result<(), ShardError>;

    /// Boundary hook: this process just won shard `shard`'s claim. Returning
    /// `false` aborts the drive (the fault-injection seam used by the chaos
    /// harness to simulate a crash between a claim and its result).
    fn on_claimed(&mut self, shard: usize) -> bool {
        let _ = shard;
        true
    }

    /// Boundary hook: shard `shard`'s output just landed (fetched from a
    /// worker or produced locally), in landing order. This is where stages
    /// persist per-shard progress (checkpoints) and tick observers.
    /// Returning `false` aborts the drive.
    fn on_result(&mut self, shard: usize, output: &Self::Output) -> bool {
        let _ = (shard, output);
        true
    }

    /// Boundary hook: the transport failed three times for shard `shard` and
    /// the driver is about to produce it locally instead. `error` is the
    /// *last* transport error — the one that tipped the shard into
    /// degradation — so stages can surface *why* the data plane was bypassed
    /// instead of degrading silently.
    fn on_degraded(&mut self, shard: usize, error: &ShardError) {
        let _ = (shard, error);
    }
}

/// How long [`drive_epoch`] sleeps after a pass that made no progress:
/// every remaining shard is live-claimed by other workers.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Drives one epoch of `shard_count` published shards to completion: the
/// generic claim-poll loop extracted from [`ShardedEvaluator`] and shared
/// with the variation stage.
///
/// Each pass over the pending shards fetches finished results, claims and
/// locally evaluates claimable ones — a dead or hung worker's stale claim
/// is taken over by that claim — and falls back to pure local evaluation
/// for any shard whose transport errored three times (a broken data plane
/// must never wedge an epoch — duplicate production is benign because
/// outputs are deterministic).
///
/// Returns the outputs in shard-index order, or `None` when a boundary hook
/// aborted the drive (simulated crash): already-landed outputs were already
/// seen by [`EpochWork::on_result`], so an aborted drive loses nothing that
/// was persisted there.
pub fn drive_epoch<W: EpochWork>(work: &mut W, shard_count: usize) -> Option<Vec<W::Output>> {
    let mut slots: Vec<Option<W::Output>> = Vec::with_capacity(shard_count);
    slots.resize_with(shard_count, || None);
    let mut errors = vec![0usize; shard_count];
    let mut last_error: Vec<Option<ShardError>> = vec![None; shard_count];
    while slots.iter().any(Option::is_none) {
        let mut progressed = false;
        for index in 0..shard_count {
            if slots[index].is_some() {
                continue;
            }
            match work.fetch(index) {
                Ok(Some(output)) => {
                    if !work.on_result(index, &output) {
                        return None;
                    }
                    slots[index] = Some(output);
                    progressed = true;
                    continue;
                }
                Ok(None) => {}
                Err(error) => {
                    errors[index] += 1;
                    last_error[index] = Some(error);
                }
            }
            match work.try_claim(index) {
                Ok(true) => {
                    if !work.on_claimed(index) {
                        return None;
                    }
                    let output = work.evaluate(index);
                    let _ = work.submit(index, &output);
                    if !work.on_result(index, &output) {
                        return None;
                    }
                    slots[index] = Some(output);
                    progressed = true;
                }
                Ok(false) => {}
                Err(error) => {
                    errors[index] += 1;
                    last_error[index] = Some(error);
                }
            }
            // A repeatedly failing transport must not wedge the epoch: fall
            // back to producing the shard in-process. Worst case a worker
            // produces it concurrently — identical output. The degradation
            // is reported through `on_degraded` with the error that caused
            // it, never swallowed silently.
            if slots[index].is_none() && errors[index] >= 3 {
                let error = last_error[index].take().unwrap_or_else(|| {
                    ShardError::Transport("repeated transport failures".to_string())
                });
                work.on_degraded(index, &error);
                let output = work.evaluate(index);
                if !work.on_result(index, &output) {
                    return None;
                }
                slots[index] = Some(output);
                progressed = true;
            }
        }
        if slots.iter().all(Option::is_some) {
            break;
        }
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    Some(
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard slot was filled"))
            .collect(),
    )
}

/// Opens an epoch of `shard_count` shards of `kind` on `transport` and
/// publishes `work(i)` as shard `i`, in index order: the publishing half of
/// every sharded stage, before [`drive_epoch`] collects the outputs.
///
/// # Errors
///
/// Returns the shard it failed at with the transport's error — shard 0 when
/// the epoch cannot be opened, shard `i` when publishing shard `i` fails.
/// A half-published epoch is unusable, so it is closed before returning;
/// the caller produces the whole stage locally and reports the fallback.
pub fn publish_epoch(
    transport: &dyn ShardTransport,
    kind: ShardWorkKind,
    shard_count: usize,
    mut work: impl FnMut(usize) -> ShardWork,
) -> Result<String, (usize, ShardError)> {
    let epoch = transport
        .open_typed_epoch(kind, shard_count)
        .map_err(|error| (0, error))?;
    for shard in 0..shard_count {
        if let Err(error) = transport.publish_work(&epoch, shard, &work(shard)) {
            let _ = transport.close_epoch(&epoch);
            return Err((shard, error));
        }
    }
    Ok(epoch)
}

/// Shard-aware batch evaluation over a [`ShardTransport`].
///
/// [`evaluate_batch`](ShardedEvaluator::evaluate_batch) splits the batch into
/// consecutive shards of at most `shard_size` candidates, publishes them as
/// tasks, and then *participates* in their evaluation through
/// [`drive_epoch`]: it repeatedly fetches finished results, claims any
/// claimable shard — taking over a dead worker's stale claim — and evaluates
/// it in-process (through the problem's own `evaluate_batch`, so the local
/// work-stealing scheduler still applies inside a shard). Results are
/// reassembled in shard-index order, making the output bit-identical to an
/// unsharded evaluation.
///
/// Transport failures degrade gracefully to local evaluation, each reported
/// to the degraded hook; a sharded batch therefore completes (with
/// identical results) even when the data plane misbehaves or no external
/// worker ever shows up.
pub struct ShardedEvaluator {
    transport: Arc<dyn ShardTransport>,
    shard_size: usize,
    degraded_hook: Option<DegradedHook>,
}

/// Callback fired when a shard degrades to local evaluation (see
/// [`EpochWork::on_degraded`]): `(shard index, the transport error that
/// caused it)`. Shared, because the evaluator is called behind `&self` from
/// optimiser threads.
pub type DegradedHook = Arc<dyn Fn(usize, &ShardError) + Send + Sync>;

impl ShardedEvaluator {
    /// Creates a sharded evaluator over `transport` (shared, so the caller
    /// can keep driving other epochs and reading its counters) that splits
    /// batches into shards of at most `shard_size` candidates (minimum 1).
    /// Batches at most one shard long are evaluated locally without touching
    /// the transport.
    pub fn new(transport: Arc<dyn ShardTransport>, shard_size: usize) -> Self {
        ShardedEvaluator {
            transport,
            shard_size: shard_size.max(1),
            degraded_hook: None,
        }
    }

    /// Installs a hook observing transport degradations: every shard that
    /// falls back to local evaluation reports the error that caused it.
    #[must_use]
    pub fn with_degraded_hook(mut self, hook: DegradedHook) -> Self {
        self.degraded_hook = Some(hook);
        self
    }

    /// Splits `len` candidates into consecutive shard ranges of at most
    /// `shard_size` elements (the deterministic shard layout).
    pub fn shard_ranges(len: usize, shard_size: usize) -> Vec<std::ops::Range<usize>> {
        let shard_size = shard_size.max(1);
        (0..len)
            .step_by(shard_size)
            .map(|start| start..(start + shard_size).min(len))
            .collect()
    }

    /// Evaluates `batch` against `problem`, one result slot per input, in
    /// input order; the results equal `problem.evaluate_batch(batch)`.
    pub fn evaluate_batch(&self, problem: &dyn SizingProblem, batch: &[Vec<f64>]) -> ShardResults {
        let ranges = Self::shard_ranges(batch.len(), self.shard_size);
        if ranges.len() < 2 {
            return problem.evaluate_batch(batch);
        }
        let shards: Vec<&[Vec<f64>]> = ranges.iter().map(|r| &batch[r.clone()]).collect();

        let published = publish_epoch(
            self.transport.as_ref(),
            ShardWorkKind::Eval,
            shards.len(),
            |index| ShardWork::Eval {
                parameters: shards[index].to_vec(),
            },
        );
        let epoch = match published {
            Ok(epoch) => epoch,
            Err((shard, error)) => {
                // The whole batch falls back to local evaluation.
                if let Some(hook) = &self.degraded_hook {
                    hook(shard, &error);
                }
                return problem.evaluate_batch(batch);
            }
        };

        let mut work = EvalEpochWork {
            transport: self.transport.as_ref(),
            epoch: &epoch,
            problem,
            shards: &shards,
            degraded_hook: self.degraded_hook.as_ref(),
        };
        let slots =
            drive_epoch(&mut work, shards.len()).expect("evaluation epochs have no aborting hooks");
        let _ = self.transport.close_epoch(&epoch);

        let mut assembled = Vec::with_capacity(batch.len());
        for results in slots {
            assembled.extend(results);
        }
        assembled
    }
}

/// [`EpochWork`] binding of population evaluation: payloads are
/// [`ShardWork::Eval`] candidate slices, outputs are [`ShardResults`].
struct EvalEpochWork<'a> {
    transport: &'a dyn ShardTransport,
    epoch: &'a str,
    problem: &'a dyn SizingProblem,
    shards: &'a [&'a [Vec<f64>]],
    degraded_hook: Option<&'a DegradedHook>,
}

impl EpochWork for EvalEpochWork<'_> {
    type Output = ShardResults;

    fn fetch(&mut self, shard: usize) -> Result<Option<ShardResults>, ShardError> {
        match self.transport.fetch_outcome(self.epoch, shard)? {
            Some(ShardOutcome::Eval { results }) if results.len() == self.shards[shard].len() => {
                Ok(Some(results))
            }
            // An outcome of the wrong shape is unusable; leave the shard
            // pending so it is (re-)evaluated instead.
            _ => Ok(None),
        }
    }

    fn try_claim(&mut self, shard: usize) -> Result<bool, ShardError> {
        self.transport.try_claim(self.epoch, shard)
    }

    fn evaluate(&mut self, shard: usize) -> ShardResults {
        self.problem.evaluate_batch(self.shards[shard])
    }

    fn submit(&mut self, shard: usize, results: &ShardResults) -> Result<(), ShardError> {
        let outcome = ShardOutcome::Eval {
            results: results.clone(),
        };
        self.transport.submit_outcome(self.epoch, shard, &outcome)
    }

    fn on_degraded(&mut self, shard: usize, error: &ShardError) {
        if let Some(hook) = self.degraded_hook {
            hook(shard, error);
        }
    }
}

/// Binds a [`SizingProblem`] to a [`ShardedEvaluator`] behind the problem
/// trait itself, so every optimiser run — which only ever
/// sees `&dyn SizingProblem` — is shard-agnostic.
///
/// Single-candidate [`SizingProblem::evaluate`] calls go straight to the
/// wrapped problem; only whole-batch evaluation is sharded.
pub struct WithEvaluator<P> {
    problem: P,
    evaluator: ShardedEvaluator,
}

impl<P: SizingProblem> WithEvaluator<P> {
    /// Binds `problem` to `evaluator`.
    pub fn new(problem: P, evaluator: ShardedEvaluator) -> Self {
        WithEvaluator { problem, evaluator }
    }
}

impl<P: SizingProblem> SizingProblem for WithEvaluator<P> {
    fn parameter_count(&self) -> usize {
        self.problem.parameter_count()
    }

    fn objectives(&self) -> &[ObjectiveSpec] {
        self.problem.objectives()
    }

    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>> {
        self.problem.evaluate(parameters)
    }

    fn evaluate_batch(&self, batch: &[Vec<f64>]) -> ShardResults {
        self.evaluator.evaluate_batch(&self.problem, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn problem() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>> + Sync> {
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

    fn batch(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i as f64) / (n as f64), ((i * 7) % n) as f64 / (n as f64)])
            .collect()
    }

    #[derive(Default)]
    struct MemShard {
        work: Option<ShardWork>,
        claimed: bool,
        dead_claim: bool,
        outcome: Option<ShardOutcome>,
    }

    /// An in-memory transport; knobs simulate foreign workers and crashes.
    #[derive(Default)]
    struct MemTransport {
        epochs: Mutex<HashMap<String, Vec<MemShard>>>,
        next_epoch: AtomicUsize,
        /// When set, every shard starts out with a claim held by a "dead"
        /// foreign worker, so only a takeover can make progress.
        claim_all_as_dead: AtomicBool,
        /// When set, every fetch answers with a variation outcome, the
        /// wrong shape for an evaluation epoch.
        wrong_shape: AtomicBool,
        /// Claims granted over a dead worker's claim.
        takeovers: AtomicUsize,
        closed: AtomicUsize,
    }

    impl ShardTransport for MemTransport {
        fn open_typed_epoch(
            &self,
            kind: ShardWorkKind,
            shard_count: usize,
        ) -> Result<String, ShardError> {
            let id = format!(
                "{}{}",
                kind.epoch_prefix(),
                self.next_epoch.fetch_add(1, Ordering::Relaxed)
            );
            let dead = self.claim_all_as_dead.load(Ordering::Relaxed);
            let shards = (0..shard_count)
                .map(|_| MemShard {
                    claimed: dead,
                    dead_claim: dead,
                    ..MemShard::default()
                })
                .collect();
            self.epochs.lock().unwrap().insert(id.clone(), shards);
            Ok(id)
        }

        fn publish_work(
            &self,
            epoch: &str,
            shard: usize,
            work: &ShardWork,
        ) -> Result<(), ShardError> {
            let mut epochs = self.epochs.lock().unwrap();
            let shards = epochs
                .get_mut(epoch)
                .ok_or_else(|| ShardError::Transport("no epoch".into()))?;
            shards[shard].work = Some(work.clone());
            Ok(())
        }

        /// The claim rule: a published, unfinished shard is granted unless
        /// a live claim holds it; a dead worker's claim is taken over.
        fn try_claim(&self, epoch: &str, shard: usize) -> Result<bool, ShardError> {
            let mut epochs = self.epochs.lock().unwrap();
            let Some(shards) = epochs.get_mut(epoch) else {
                return Ok(false);
            };
            let slot = &mut shards[shard];
            if slot.work.is_none() || slot.outcome.is_some() || slot.claimed && !slot.dead_claim {
                return Ok(false);
            }
            if slot.dead_claim {
                slot.dead_claim = false;
                self.takeovers.fetch_add(1, Ordering::Relaxed);
            }
            slot.claimed = true;
            Ok(true)
        }

        fn submit_outcome(
            &self,
            epoch: &str,
            shard: usize,
            outcome: &ShardOutcome,
        ) -> Result<(), ShardError> {
            let mut epochs = self.epochs.lock().unwrap();
            if let Some(shards) = epochs.get_mut(epoch) {
                shards[shard].outcome = Some(outcome.clone());
                shards[shard].claimed = false;
            }
            Ok(())
        }

        fn fetch_outcome(
            &self,
            epoch: &str,
            shard: usize,
        ) -> Result<Option<ShardOutcome>, ShardError> {
            if self.wrong_shape.load(Ordering::Relaxed) {
                return Ok(Some(ShardOutcome::VariationBatch { points: Vec::new() }));
            }
            let epochs = self.epochs.lock().unwrap();
            Ok(epochs
                .get(epoch)
                .and_then(|shards| shards[shard].outcome.clone()))
        }

        fn close_epoch(&self, epoch: &str) -> Result<(), ShardError> {
            self.closed.fetch_add(1, Ordering::Relaxed);
            self.epochs.lock().unwrap().remove(epoch);
            Ok(())
        }
    }

    fn broken<T>() -> Result<T, ShardError> {
        Err(ShardError::Transport("broken".into()))
    }

    /// A transport whose every operation fails.
    struct BrokenTransport;

    impl ShardTransport for BrokenTransport {
        fn open_typed_epoch(&self, _: ShardWorkKind, _: usize) -> Result<String, ShardError> {
            broken()
        }
        fn publish_work(&self, _: &str, _: usize, _: &ShardWork) -> Result<(), ShardError> {
            broken()
        }
        fn try_claim(&self, _: &str, _: usize) -> Result<bool, ShardError> {
            broken()
        }
        fn submit_outcome(&self, _: &str, _: usize, _: &ShardOutcome) -> Result<(), ShardError> {
            broken()
        }
        fn fetch_outcome(&self, _: &str, _: usize) -> Result<Option<ShardOutcome>, ShardError> {
            broken()
        }
        fn close_epoch(&self, _: &str) -> Result<(), ShardError> {
            broken()
        }
    }

    #[test]
    fn the_retired_single_point_variation_shape_fails_to_decode() {
        let error = serde_json::from_str::<ShardWork>(
            r#"{"Variation": {"parameters": [0.5, 0.5], "mc_seed": 7}}"#,
        )
        .expect_err("a single-point variation task no longer decodes");
        assert!(error.to_string().contains("`Variation`"), "{error}");
    }

    #[test]
    fn shard_ranges_cover_every_index_exactly_once() {
        for (len, size) in [(0, 4), (1, 4), (4, 4), (5, 4), (37, 5), (10, 1), (3, 100)] {
            let ranges = ShardedEvaluator::shard_ranges(len, size);
            let covered: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(
                covered,
                (0..len).collect::<Vec<_>>(),
                "len={len} size={size}"
            );
            assert!(ranges.iter().all(|r| r.len() <= size.max(1)));
        }
        // A shard size of zero is clamped, not a division by zero.
        assert_eq!(ShardedEvaluator::shard_ranges(3, 0).len(), 3);
    }

    #[test]
    fn sharded_evaluation_matches_local_evaluation() {
        let p = problem();
        let input = batch(23);
        let expected = p.evaluate_batch(&input);
        let sharded = ShardedEvaluator::new(Arc::new(MemTransport::default()), 4);
        let bound = WithEvaluator::new(&p, sharded);
        assert_eq!(bound.evaluate_batch(&input), expected);
        // Single-candidate evaluation delegates to the problem unchanged.
        assert_eq!(bound.evaluate(&input[0]), p.evaluate(&input[0]));
        assert_eq!(bound.parameter_count(), 2);
        assert_eq!(bound.objective_count(), 2);
    }

    #[test]
    fn small_batches_bypass_the_transport() {
        let p = problem();
        let transport = MemTransport::default();
        let input = batch(3);
        let expected = p.evaluate_batch(&input);
        let sharded = ShardedEvaluator::new(Arc::new(transport), 4);
        // One shard's worth of work: evaluated locally, no epoch opened.
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
    }

    #[test]
    fn external_workers_service_shards_concurrently() {
        let p = problem();
        let input = batch(40);
        let expected = p.evaluate_batch(&input);
        let transport = Arc::new(MemTransport::default());

        // A "remote" worker thread mirroring what `ayb serve --shards-only`
        // does: scan, claim, evaluate, submit.
        let worker_transport = Arc::clone(&transport);
        let stop = Arc::new(AtomicBool::new(false));
        let worker_stop = Arc::clone(&stop);
        let worker_problem = problem();
        let worker = std::thread::spawn(move || {
            let mut serviced = 0usize;
            while !worker_stop.load(Ordering::Relaxed) {
                let task = {
                    let mut epochs = worker_transport.epochs.lock().unwrap();
                    epochs.iter_mut().find_map(|(epoch, shards)| {
                        shards.iter_mut().enumerate().find_map(|(index, shard)| {
                            match (&shard.work, shard.claimed, &shard.outcome) {
                                (Some(ShardWork::Eval { parameters }), false, None) => {
                                    shard.claimed = true;
                                    Some((epoch.clone(), index, parameters.clone()))
                                }
                                _ => None,
                            }
                        })
                    })
                };
                match task {
                    Some((epoch, index, parameters)) => {
                        let outcome = ShardOutcome::Eval {
                            results: worker_problem.evaluate_batch(&parameters),
                        };
                        worker_transport
                            .submit_outcome(&epoch, index, &outcome)
                            .expect("in-memory submit succeeds");
                        serviced += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            serviced
        });

        let sharded = ShardedEvaluator::new(Arc::clone(&transport) as Arc<dyn ShardTransport>, 4);
        for _ in 0..3 {
            assert_eq!(
                sharded.evaluate_batch(&p, &input),
                expected,
                "concurrent workers never change results"
            );
        }
        stop.store(true, Ordering::Relaxed);
        let _ = worker.join().unwrap();
        assert_eq!(
            transport.closed.load(Ordering::Relaxed),
            3,
            "every epoch was disposed after assembly"
        );
        assert!(
            transport.epochs.lock().unwrap().is_empty(),
            "no epoch state lingers"
        );
    }

    #[test]
    fn dead_worker_claims_are_recovered() {
        let p = problem();
        let input = batch(12);
        let expected = p.evaluate_batch(&input);
        let transport = Arc::new(MemTransport::default());
        transport.claim_all_as_dead.store(true, Ordering::Relaxed);
        let sharded = ShardedEvaluator::new(Arc::clone(&transport) as Arc<dyn ShardTransport>, 4);
        // Every shard starts claimed by a dead worker; only a claim that
        // takes the dead claim over can finish the batch.
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
        assert_eq!(transport.takeovers.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn outcomes_of_another_shape_are_declined_and_reevaluated() {
        let p = problem();
        let input = batch(12);
        let transport = MemTransport::default();
        transport.wrong_shape.store(true, Ordering::Relaxed);
        let sharded = ShardedEvaluator::new(Arc::new(transport), 4);
        assert_eq!(sharded.evaluate_batch(&p, &input), p.evaluate_batch(&input));
    }

    #[test]
    fn broken_transport_degrades_to_local_evaluation() {
        let p = problem();
        let input = batch(17);
        let expected = p.evaluate_batch(&input);
        let sharded = ShardedEvaluator::new(Arc::new(BrokenTransport), 4);
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
    }

    #[test]
    fn degraded_shards_report_their_transport_error() {
        /// Epochs open and publish fine, but every claim/fetch fails — the
        /// shape of a coordinator that died *after* the epoch was set up.
        struct DeadAfterOpen {
            inner: MemTransport,
        }
        impl ShardTransport for DeadAfterOpen {
            fn open_typed_epoch(
                &self,
                kind: ShardWorkKind,
                shard_count: usize,
            ) -> Result<String, ShardError> {
                self.inner.open_typed_epoch(kind, shard_count)
            }
            fn publish_work(&self, e: &str, s: usize, w: &ShardWork) -> Result<(), ShardError> {
                self.inner.publish_work(e, s, w)
            }
            fn try_claim(&self, _: &str, _: usize) -> Result<bool, ShardError> {
                Err(ShardError::Transport("connection refused".into()))
            }
            fn submit_outcome(
                &self,
                _: &str,
                _: usize,
                _: &ShardOutcome,
            ) -> Result<(), ShardError> {
                Err(ShardError::Transport("connection refused".into()))
            }
            fn fetch_outcome(&self, _: &str, _: usize) -> Result<Option<ShardOutcome>, ShardError> {
                Err(ShardError::Transport("connection refused".into()))
            }
            fn close_epoch(&self, e: &str) -> Result<(), ShardError> {
                self.inner.close_epoch(e)
            }
        }

        let p = problem();
        let input = batch(8);
        let expected = p.evaluate_batch(&input);
        let events: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
        let sink = Arc::clone(&events);
        let sharded = ShardedEvaluator::new(
            Arc::new(DeadAfterOpen {
                inner: MemTransport::default(),
            }),
            4,
        )
        .with_degraded_hook(Arc::new(move |shard, error| {
            let ShardError::Transport(message) = error;
            sink.lock().unwrap().push((shard, message.clone()));
        }));
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2, "both shards degraded");
        assert!(events.iter().any(|(_, m)| m.contains("connection refused")));
    }

    #[test]
    fn a_batch_that_cannot_be_published_is_evaluated_locally_and_reported() {
        /// Refuses the first epoch open, then the publish of shard 1.
        struct RefusesToPublish {
            inner: MemTransport,
            opens: AtomicUsize,
        }
        impl ShardTransport for RefusesToPublish {
            fn open_typed_epoch(
                &self,
                kind: ShardWorkKind,
                shard_count: usize,
            ) -> Result<String, ShardError> {
                if self.opens.fetch_add(1, Ordering::Relaxed) == 0 {
                    return Err(ShardError::Transport("open refused".into()));
                }
                self.inner.open_typed_epoch(kind, shard_count)
            }
            fn publish_work(&self, e: &str, s: usize, w: &ShardWork) -> Result<(), ShardError> {
                if s == 1 {
                    return Err(ShardError::Transport("publish refused".into()));
                }
                self.inner.publish_work(e, s, w)
            }
            fn try_claim(&self, e: &str, s: usize) -> Result<bool, ShardError> {
                self.inner.try_claim(e, s)
            }
            fn submit_outcome(
                &self,
                e: &str,
                s: usize,
                o: &ShardOutcome,
            ) -> Result<(), ShardError> {
                self.inner.submit_outcome(e, s, o)
            }
            fn fetch_outcome(&self, e: &str, s: usize) -> Result<Option<ShardOutcome>, ShardError> {
                self.inner.fetch_outcome(e, s)
            }
            fn close_epoch(&self, e: &str) -> Result<(), ShardError> {
                self.inner.close_epoch(e)
            }
        }

        let p = problem();
        let input = batch(8);
        let expected = p.evaluate_batch(&input);
        let transport = Arc::new(RefusesToPublish {
            inner: MemTransport::default(),
            opens: AtomicUsize::new(0),
        });
        let events: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
        let sink = Arc::clone(&events);
        let sharded = ShardedEvaluator::new(Arc::clone(&transport) as Arc<dyn ShardTransport>, 3)
            .with_degraded_hook(Arc::new(move |shard, error| {
                let ShardError::Transport(message) = error;
                sink.lock().unwrap().push((shard, message.clone()));
            }));
        // First batch: the epoch cannot open. Second: shard 1 cannot publish.
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
        assert_eq!(sharded.evaluate_batch(&p, &input), expected);
        assert_eq!(
            *events.lock().unwrap(),
            vec![
                (0, "open refused".to_string()),
                (1, "publish refused".to_string())
            ]
        );
        assert_eq!(
            transport.inner.closed.load(Ordering::Relaxed),
            1,
            "the half-published epoch is closed"
        );
        assert!(transport.inner.epochs.lock().unwrap().is_empty());
    }

    /// A direct [`EpochWork`] stub: everything is produced locally, hooks
    /// record landing order and can veto.
    struct CountWork {
        landed: Vec<usize>,
        claimed: Vec<usize>,
        abort_after_results: Option<usize>,
        abort_on_claim: Option<usize>,
        fail_transport: bool,
    }

    impl CountWork {
        fn new() -> CountWork {
            CountWork {
                landed: Vec::new(),
                claimed: Vec::new(),
                abort_after_results: None,
                abort_on_claim: None,
                fail_transport: false,
            }
        }
    }

    impl EpochWork for CountWork {
        type Output = usize;

        fn fetch(&mut self, _shard: usize) -> Result<Option<usize>, ShardError> {
            if self.fail_transport {
                return Err(ShardError::Transport("down".into()));
            }
            Ok(None)
        }

        fn try_claim(&mut self, _shard: usize) -> Result<bool, ShardError> {
            if self.fail_transport {
                return Err(ShardError::Transport("down".into()));
            }
            Ok(true)
        }

        fn evaluate(&mut self, shard: usize) -> usize {
            shard * 10
        }

        fn submit(&mut self, _shard: usize, _output: &usize) -> Result<(), ShardError> {
            if self.fail_transport {
                return Err(ShardError::Transport("down".into()));
            }
            Ok(())
        }

        fn on_claimed(&mut self, shard: usize) -> bool {
            self.claimed.push(shard);
            self.abort_on_claim != Some(shard)
        }

        fn on_result(&mut self, shard: usize, _output: &usize) -> bool {
            self.landed.push(shard);
            match self.abort_after_results {
                Some(limit) => self.landed.len() < limit,
                None => true,
            }
        }
    }

    #[test]
    fn drive_epoch_collects_outputs_in_index_order() {
        let mut work = CountWork::new();
        let outputs = drive_epoch(&mut work, 5);
        assert_eq!(outputs, Some(vec![0, 10, 20, 30, 40]));
        assert_eq!(work.claimed, vec![0, 1, 2, 3, 4]);
        assert_eq!(work.landed, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drive_epoch_aborts_when_the_result_hook_vetoes() {
        let mut work = CountWork::new();
        work.abort_after_results = Some(2);
        assert_eq!(drive_epoch(&mut work, 5), None);
        // Exactly two results landed before the simulated crash.
        assert_eq!(work.landed, vec![0, 1]);
    }

    #[test]
    fn drive_epoch_aborts_when_the_claim_hook_vetoes() {
        let mut work = CountWork::new();
        work.abort_on_claim = Some(3);
        assert_eq!(drive_epoch(&mut work, 5), None);
        // Shards 0..=2 landed; the crash hit between claiming 3 and
        // producing it.
        assert_eq!(work.landed, vec![0, 1, 2]);
        assert_eq!(work.claimed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drive_epoch_survives_a_dead_transport_via_local_fallback() {
        let mut work = CountWork::new();
        work.fail_transport = true;
        // Every transport call errors; after three strikes per shard the
        // driver produces each shard locally — the epoch still completes
        // with identical outputs, and every landing still fires the hook.
        let outputs = drive_epoch(&mut work, 3);
        assert_eq!(outputs, Some(vec![0, 10, 20]));
        assert_eq!(work.landed.len(), 3);
    }

    #[test]
    fn optimizers_are_shard_agnostic() {
        use crate::config::GaConfig;
        use crate::optimizer::OptimizerConfig;

        let plain = problem();
        for config in [
            OptimizerConfig::Wbga(GaConfig::small_test()),
            OptimizerConfig::Nsga2(GaConfig::small_test()),
            OptimizerConfig::RandomSearch {
                budget: 96,
                seed: 9,
            },
        ] {
            let reference = config.run(&plain);
            let sharded = WithEvaluator::new(
                &plain,
                ShardedEvaluator::new(Arc::new(MemTransport::default()), 3),
            );
            let distributed = config.run(&sharded);
            assert_eq!(
                reference.archive,
                distributed.archive,
                "{}: sharding must not change the archive",
                config.name()
            );
            assert_eq!(reference.evaluations, distributed.evaluations);
        }
    }
}
