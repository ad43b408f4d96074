//! # ayb-jobs — a job server over the run store
//!
//! [`JobServer`] turns the persistent run store (`ayb_store`) into a work
//! queue: runs are *submitted* (written to the store with status
//! [`RunStatus::Queued`], by `ayb submit` or [`JobServer::submit`]) and a
//! pool of worker threads claims and executes them with
//! `ayb_core::FlowBuilder::resume`, checkpointing every optimiser generation.
//! The store stays the single source of truth — the server keeps no state
//! that is not reconstructible from disk, so any number of server processes
//! can share one store and a killed server loses nothing.
//!
//! The guarantees, in order of importance:
//!
//! * **exactly-once execution** — a worker only runs a job it has *claimed*
//!   (an atomic `claim.json` lock file, see [`ayb_store::RunHandle::try_claim`]);
//!   two workers, or two whole server processes, racing for the same run see
//!   exactly one winner, and the loser just moves on;
//! * **crash recovery** — at startup ([`JobServer::run`]) and periodically
//!   thereafter ([`JobServerConfig::recovery_interval`]) the server
//!   re-queues `Interrupted` runs and stale `Running` runs (their claim
//!   holder is dead, or they have no claim and have not been touched
//!   recently), so even work stranded by a peer that died *after* this
//!   server started is adopted; each resumes from its latest checkpoint and
//!   produces a result **bit-identical** to an uninterrupted run of the
//!   same seed;
//! * **graceful shutdown** — [`ShutdownHandle::shutdown`] stops every
//!   in-flight run at its next checkpoint boundary (via
//!   `FlowBuilder::halt_when` and the optimiser's `CheckpointSink` halt
//!   mechanism), leaving runs `Interrupted` and immediately resumable;
//! * **determinism under concurrency** — worker count and scheduling order
//!   never change any run's result: every run is seeded from its manifest
//!   and executed in isolation, so N runs through a multi-worker server
//!   digest identically to the same seeds run sequentially.
//!
//! Beyond whole runs (the control plane), workers also service the **shard
//! data plane**: sharded flows publish each optimiser population — and each
//! Pareto point of the Monte Carlo variation stage — as claimable, typed
//! shard tasks (see `ayb_store::shards`), and idle workers service them
//! *shard-first* — before taking new runs — so every in-flight run keeps
//! progressing even when all run-executing workers are occupied. A server
//! started with [`JobServerConfig::shards_only`] (`ayb serve --shards-only`)
//! is a pure shard worker: extra machines sharing the store run in this mode
//! to scale one flow's batch evaluation and variation analysis.
//!
//! A drain-mode server over an empty store starts, scans and returns
//! immediately — the smallest possible end-to-end example:
//!
//! ```
//! use ayb_jobs::{JobServer, JobServerConfig};
//! use ayb_store::Store;
//!
//! # fn main() -> Result<(), ayb_jobs::JobError> {
//! let root = std::env::temp_dir().join(format!("ayb-jobs-doc-{}", std::process::id()));
//! let server = JobServer::new(Store::open(&root)?, JobServerConfig::drain_with_workers(2));
//! let report = server.run()?; // nothing queued: drains instantly
//! assert!(report.completed.is_empty() && report.failed.is_empty());
//! # let _ = std::fs::remove_dir_all(root);
//! # Ok(())
//! # }
//! ```
//!
//! Submitting real work looks like this (not run here — it executes whole
//! flows):
//!
//! ```no_run
//! use ayb_core::FlowConfig;
//! use ayb_jobs::{JobServer, JobServerConfig};
//! use ayb_moo::OptimizerConfig;
//! use ayb_store::Store;
//!
//! # fn main() -> Result<(), ayb_jobs::JobError> {
//! let store = Store::open("./ayb-store")?;
//! let config = FlowConfig::reduced();
//! let server = JobServer::new(store, JobServerConfig::drain_with_workers(2));
//! for seed in [1, 2, 3] {
//!     let optimizer = OptimizerConfig::Wbga(config.ga).with_seed(seed);
//!     server.submit(seed, &optimizer, &config)?;
//! }
//! let report = server.run()?; // executes all three, then returns
//! println!("completed: {:?}", report.completed);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod sched;

pub use sched::{Priority, QueuePolicy, TenantPolicy, WrrQueue};

use ayb_core::{AybError, FlowBuilder, FlowConfig, OtaSizingProblem};
use ayb_moo::{
    CheckpointError, OptimizerConfig, ShardOutcome, ShardWork, ShardWorkKind, SizingProblem,
    VariationOutcome,
};
use ayb_net::TcpTransport;
use ayb_obs::{Event, Recorder, Severity};
use ayb_store::{
    ClaimHeartbeat, Manifest, RunHandle, RunStatus, Store, StoreError, CLAIM_MAX_HEARTBEAT_AGE,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Errors produced by the job server (all wrap the store layer — flow errors
/// of individual runs are *reported*, not propagated, so one failing run
/// never takes the server down).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// A store operation failed.
    Store(StoreError),
    /// The configured coordinator URL ([`JobServerConfig::transport`]) is
    /// malformed. (An unreachable-but-well-formed coordinator is *not* an
    /// error: workers simply find no network shards until it comes up.)
    Transport(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Store(e) => write!(f, "job server store error: {e}"),
            JobError::Transport(e) => write!(f, "job server transport error: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Store(e) => Some(e),
            JobError::Transport(_) => None,
        }
    }
}

impl From<StoreError> for JobError {
    fn from(e: StoreError) -> Self {
        JobError::Store(e)
    }
}

/// Configuration of a [`JobServer`].
#[derive(Debug, Clone)]
pub struct JobServerConfig {
    /// Number of worker threads executing runs concurrently (min 1). Each
    /// run additionally parallelises its own batch evaluation with the
    /// `threads` recorded in its manifest.
    pub workers: usize,
    /// How often the server re-scans the store for newly submitted runs
    /// (worker completions wake it early).
    pub poll_interval: Duration,
    /// When `true`, [`JobServer::run`] returns once the queue is empty and
    /// every worker is idle (batch mode, used by `ayb serve --drain` and the
    /// tests). When `false` it serves until [`ShutdownHandle::shutdown`].
    pub drain: bool,
    /// Label recorded in claim files (`<owner>/worker-N`) for diagnostics.
    pub owner: String,
    /// How recently a claimless `Running` run's manifest must have been
    /// updated for recovery to leave it alone (it may be mid-creation).
    /// Claimed runs use the claim holder's liveness instead.
    pub reclaim_grace: Duration,
    /// How often a long-lived (non-drain) server repeats the recovery pass,
    /// so runs stranded *after* startup — a peer server shut down or died —
    /// are picked up without waiting for a restart.
    pub recovery_interval: Duration,
    /// When `true`, the server never claims whole runs — it is a pure
    /// evaluation worker servicing shard tasks (`ayb serve --shards-only`).
    /// Extra machines sharing the store run in this mode to scale a sharded
    /// flow's batch evaluation without competing for run claims.
    pub shards_only: bool,
    /// Coordinator URL (`tcp://host:port`) of a network shard data plane
    /// (see the `ayb_net` crate). When set, workers also poll the
    /// coordinator for network shard tasks — *store-free*: each task carries
    /// its submitter's flow configuration, so a worker machine needs no
    /// filesystem shared with the submitter (`ayb serve --transport
    /// tcp://…`). `None` (the default) services the on-disk plane only.
    pub transport: Option<String>,
    /// Weights and running caps of the weighted round-robin that orders
    /// queued runs for dispatch (see [`sched`]). Tenant and priority come
    /// from the optional `tenant`/`priority` keys of each run's manifest;
    /// runs without them dispatch as tenant `default` at normal priority,
    /// in submission order.
    pub queue_policy: QueuePolicy,
}

impl Default for JobServerConfig {
    fn default() -> Self {
        JobServerConfig {
            workers: 2,
            poll_interval: Duration::from_millis(200),
            drain: false,
            owner: format!("ayb-serve-{}", std::process::id()),
            reclaim_grace: CLAIM_MAX_HEARTBEAT_AGE,
            recovery_interval: Duration::from_secs(30),
            shards_only: false,
            transport: None,
            queue_policy: QueuePolicy::default(),
        }
    }
}

impl JobServerConfig {
    /// Batch-mode configuration: `workers` threads, exit when idle.
    pub fn drain_with_workers(workers: usize) -> Self {
        JobServerConfig {
            workers,
            drain: true,
            ..JobServerConfig::default()
        }
    }

    /// Pure evaluation-worker configuration: `workers` threads servicing
    /// shard tasks only, never claiming whole runs.
    pub fn shards_only_with_workers(workers: usize) -> Self {
        JobServerConfig {
            workers,
            shards_only: true,
            ..JobServerConfig::default()
        }
    }
}

/// Progress notifications emitted by the server (see
/// [`JobServer::set_event_hook`]).
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// Recovery re-queued an interrupted or stale-running run at startup.
    Requeued {
        /// The run.
        run_id: String,
        /// Status the run had before it was re-queued.
        from: RunStatus,
    },
    /// A queued run was picked up into the in-memory dispatch queue.
    Enqueued {
        /// The run.
        run_id: String,
    },
    /// A worker started (or resumed) executing a run.
    Started {
        /// The run.
        run_id: String,
        /// Index of the executing worker.
        worker: usize,
    },
    /// A run finished; its result and `Completed` status are on disk.
    Completed {
        /// The run.
        run_id: String,
        /// Index of the executing worker.
        worker: usize,
        /// The result's determinism digest.
        digest: u64,
    },
    /// A run halted gracefully at a checkpoint boundary (server shutdown);
    /// it is `Interrupted` on disk and will resume on the next start.
    Interrupted {
        /// The run.
        run_id: String,
        /// Index of the executing worker.
        worker: usize,
    },
    /// A worker skipped a run: another process claimed it first, or it
    /// already has a result.
    Skipped {
        /// The run.
        run_id: String,
        /// Index of the worker that skipped.
        worker: usize,
        /// Why the run was skipped.
        reason: String,
    },
    /// A run failed; its `Failed` status is on disk.
    Failed {
        /// The run.
        run_id: String,
        /// Index of the executing worker.
        worker: usize,
        /// The flow error.
        message: String,
    },
    /// A worker serviced one shard of a sharded flow (the data plane; see
    /// `ayb_store::shards`) — a population-evaluation shard or a variation
    /// (Monte Carlo) point, per `work`.
    ShardServiced {
        /// The run whose batch the shard belongs to.
        run_id: String,
        /// The epoch (one optimiser batch, or one variation stage).
        epoch: String,
        /// The shard's index within its epoch.
        shard: usize,
        /// The kind of work the shard carried.
        work: ShardWorkKind,
        /// Number of candidates evaluated (evaluation shards) or Pareto
        /// points analysed (variation shards).
        candidates: usize,
        /// Index of the servicing worker.
        worker: usize,
    },
}

impl JobEvent {
    /// The run this event concerns.
    pub fn run_id(&self) -> &str {
        match self {
            JobEvent::Requeued { run_id, .. }
            | JobEvent::Enqueued { run_id }
            | JobEvent::Started { run_id, .. }
            | JobEvent::Completed { run_id, .. }
            | JobEvent::Interrupted { run_id, .. }
            | JobEvent::Skipped { run_id, .. }
            | JobEvent::Failed { run_id, .. }
            | JobEvent::ShardServiced { run_id, .. } => run_id,
        }
    }
}

/// Maps a [`JobEvent`] onto a structured telemetry event (`job_*` kinds,
/// source `jobs`), carrying the run id and — for shard service — the shard
/// coordinates.
fn job_obs_event(event: &JobEvent) -> Event {
    let (severity, kind) = match event {
        JobEvent::Requeued { .. } => (Severity::Warn, "job_requeued"),
        JobEvent::Enqueued { .. } => (Severity::Info, "job_enqueued"),
        JobEvent::Started { .. } => (Severity::Info, "job_started"),
        JobEvent::Completed { .. } => (Severity::Info, "job_completed"),
        JobEvent::Interrupted { .. } => (Severity::Warn, "job_interrupted"),
        JobEvent::Skipped { .. } => (Severity::Info, "job_skipped"),
        JobEvent::Failed { .. } => (Severity::Error, "job_failed"),
        JobEvent::ShardServiced { .. } => (Severity::Info, "job_shard_serviced"),
    };
    let out = Event::new(severity, "jobs", kind).run(event.run_id());
    match event {
        JobEvent::Requeued { from, .. } => out.detail(format!("re-queued from {from:?}")),
        JobEvent::Started { worker, .. } => out.detail(format!("worker {worker}")),
        JobEvent::Completed { worker, digest, .. } => {
            out.detail(format!("worker {worker}, digest {digest:016x}"))
        }
        JobEvent::Interrupted { worker, .. } => out.detail(format!("worker {worker}")),
        JobEvent::Skipped { worker, reason, .. } => {
            out.detail(format!("worker {worker}: {reason}"))
        }
        JobEvent::Failed {
            worker, message, ..
        } => out.detail(format!("worker {worker}: {message}")),
        JobEvent::ShardServiced {
            epoch,
            shard,
            work,
            candidates,
            worker,
            ..
        } => {
            let what = match work {
                ShardWorkKind::Eval => {
                    format!("serviced shard {shard} of {epoch} ({candidates} candidates)")
                }
                ShardWorkKind::Variation => {
                    format!("serviced variation point {shard} of {epoch}")
                }
            };
            out.epoch(epoch)
                .shard(*shard as u64)
                .value(*candidates as f64)
                .detail(format!("worker {worker} {what}"))
        }
        JobEvent::Enqueued { .. } => out,
    }
}

/// Summary of one [`JobServer::run`] invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobReport {
    /// Runs that completed (result + `Completed` status on disk).
    pub completed: Vec<String>,
    /// Runs halted gracefully by shutdown (resumable, `Interrupted`).
    pub interrupted: Vec<String>,
    /// Runs that failed.
    pub failed: Vec<String>,
    /// Runs skipped because another process claimed them first (or they
    /// were already completed).
    pub skipped: Vec<String>,
    /// Runs re-queued by startup recovery.
    pub requeued: Vec<String>,
    /// Number of shard evaluation tasks serviced (the data plane).
    pub shards_serviced: usize,
    /// Number of shard results discarded because this server's claim was
    /// stolen mid-service (the fence check refused the late write).
    pub shards_fenced: usize,
}

impl JobReport {
    /// Number of runs this server actually executed (to any terminal state).
    pub fn executed(&self) -> usize {
        self.completed.len() + self.interrupted.len() + self.failed.len()
    }
}

/// Requests a graceful stop of a running [`JobServer`] from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Stops the server: workers take no new runs, every in-flight run halts
    /// at its next checkpoint boundary (status `Interrupted`, claim
    /// released), and [`JobServer::run`] returns once all workers are done.
    pub fn shutdown(&self) {
        self.shared.halt_runs.store(true, Ordering::SeqCst);
        self.shared.signal_stop();
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.stop_workers.load(Ordering::SeqCst)
    }
}

type EventHook = Box<dyn Fn(&JobEvent) + Send + Sync>;

struct QueueState {
    /// Run ids waiting for a worker, in the round-robin's dispatch order.
    queue: WrrQueue,
    /// Every id this server has ever enqueued (so the poll scan never
    /// enqueues a run twice, including runs another process is executing).
    seen: HashSet<String>,
    /// Number of workers currently executing a run.
    busy: usize,
}

struct Shared {
    store: Store,
    queue: Mutex<QueueState>,
    wake: Condvar,
    /// Workers stop taking new runs (drain finished or shutdown requested).
    stop_workers: AtomicBool,
    /// In-flight flows halt at their next checkpoint (shutdown only).
    halt_runs: Arc<AtomicBool>,
    events: Mutex<Option<EventHook>>,
    /// Telemetry: every [`JobEvent`] lands here as a structured event (and
    /// a per-kind counter), and workers' flows record through it too.
    recorder: Recorder,
}

impl Shared {
    fn emit(&self, event: JobEvent) {
        self.recorder.emit(job_obs_event(&event));
        if let Some(hook) = &*self.events.lock().expect("event hook lock") {
            hook(&event);
        }
    }

    /// Raises `stop_workers` *while holding the queue mutex*, then notifies.
    /// Workers check the flag under the same mutex before waiting, so the
    /// store-then-notify can never slip into the gap between a worker's
    /// check and its `wait` — a plain atomic store there would be a classic
    /// lost wakeup, hanging `run()` forever.
    fn signal_stop(&self) {
        let _state = self.queue.lock().expect("queue lock");
        self.stop_workers.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }
}

/// What one worker execution of one run amounted to.
enum Outcome {
    Completed(u64),
    Interrupted,
    Skipped(String),
    Failed(String),
}

/// A tenant round-robin queue + worker pool executing durable runs from a
/// [`Store`].
///
/// See the crate docs for the execution and recovery guarantees. The server
/// is driven by [`JobServer::run`], which blocks until drained (batch mode)
/// or shut down via [`JobServer::shutdown_handle`].
pub struct JobServer {
    shared: Arc<Shared>,
    config: JobServerConfig,
}

impl JobServer {
    /// Creates a server over `store` (no threads start until
    /// [`JobServer::run`]).
    pub fn new(store: Store, config: JobServerConfig) -> Self {
        JobServer::new_with_recorder(store, config, Recorder::new())
    }

    /// [`JobServer::new`] recording into a caller-supplied [`Recorder`]
    /// instead of a fresh one — an embedding layer (the `ayb-svc` HTTP
    /// front-end) shares one metrics registry and event ring across its own
    /// plane and the job server's.
    pub fn new_with_recorder(store: Store, config: JobServerConfig, recorder: Recorder) -> Self {
        JobServer {
            shared: Arc::new(Shared {
                store,
                queue: Mutex::new(QueueState {
                    queue: WrrQueue::new(config.queue_policy.clone()),
                    seen: HashSet::new(),
                    busy: 0,
                }),
                wake: Condvar::new(),
                stop_workers: AtomicBool::new(false),
                halt_runs: Arc::new(AtomicBool::new(false)),
                events: Mutex::new(None),
                recorder,
            }),
            config,
        }
    }

    /// The server's event recorder: every [`JobEvent`] is mirrored into it
    /// as a structured event, and each worker's flow records through it
    /// (durable runs still persist their own `events.jsonl`). Attach a sink
    /// (e.g. [`ayb_obs::StderrSink`]) to surface the stream.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The store this server executes from.
    pub fn store(&self) -> &Store {
        &self.shared.store
    }

    /// Registers a callback receiving every [`JobEvent`] (replacing any
    /// previous hook). The hook is called from server and worker threads.
    pub fn set_event_hook(&self, hook: impl Fn(&JobEvent) + Send + Sync + 'static) {
        *self.shared.events.lock().expect("event hook lock") = Some(Box::new(hook));
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submits a run: records it in the store with status
    /// [`RunStatus::Queued`] and returns its id. Any server process polling
    /// the same store (including this one, once running) will execute it.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Store`] when the run cannot be recorded.
    pub fn submit<C: Serialize>(
        &self,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
    ) -> Result<String, JobError> {
        let handle = self.shared.store.enqueue_run(seed, optimizer, flow)?;
        Ok(handle.id().to_string())
    }

    /// Withdraws a run from this server's dispatch queue so no worker will
    /// ever execute it, returning `true` when that is now guaranteed: the
    /// run was removed from the in-memory queue, or it had not been scanned
    /// in yet and is now permanently excluded. Returns `false` when a worker
    /// already dispatched it (it may be executing right now) — the caller
    /// decides what an in-flight cancellation means.
    ///
    /// The caller is responsible for the run's *durable* state (e.g. marking
    /// it [`RunStatus::Failed`] in the store); this method only controls
    /// this server's scheduling. Only call it for runs known to be queued:
    /// for an id this server never saw *and* never will (a completed
    /// stranger), the exclusion is recorded but meaningless.
    pub fn cancel_queued(&self, run_id: &str) -> bool {
        let mut state = self.shared.queue.lock().expect("queue lock");
        if state.queue.remove(run_id) {
            return true;
        }
        // Not in the queue: either never scanned in (insert returns true —
        // the `seen` entry blocks any future enqueue) or already dispatched
        // (insert returns false — too late to cancel the dispatch).
        state.seen.insert(run_id.to_string())
    }

    /// Runs the server: recovery pass, then worker pool + queue polling.
    ///
    /// Blocks until the queue is drained (with
    /// [`JobServerConfig::drain`]) or [`ShutdownHandle::shutdown`] is
    /// called, then joins all workers and returns what happened.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Store`] when the store itself becomes unusable
    /// (individual run failures are reported in the [`JobReport`] instead).
    pub fn run(&self) -> Result<JobReport, JobError> {
        let report = Mutex::new(JobReport::default());
        // A malformed coordinator URL fails fast, before any thread starts;
        // an unreachable coordinator does not (workers just poll into the
        // void until it comes up — that is the fleet's normal startup order).
        let net = match &self.config.transport {
            Some(url) => Some(TcpTransport::from_url(url).map_err(JobError::Transport)?),
            None => None,
        };
        if !self.config.shards_only {
            self.recover_and_requeue(&report)?;
        }

        let outcome = std::thread::scope(|scope| {
            for worker in 0..self.config.workers.max(1) {
                let shared = Arc::clone(&self.shared);
                let config = self.config.clone();
                let net = net.clone();
                let report = &report;
                scope.spawn(move || worker_loop(&shared, &config, worker, net.as_ref(), report));
            }
            let result = self.serve_loop(net.as_ref(), &report);
            // Drain finished or shutdown requested (or the store broke):
            // stop the workers either way, then let the scope join them.
            self.shared.signal_stop();
            result
        });
        outcome?;
        Ok(report.into_inner().expect("report lock"))
    }

    /// Runs a recovery pass and makes its re-queued runs eligible for this
    /// server's own queue again (they may have been `seen` in a previous
    /// life, e.g. skipped because a peer held their claim).
    fn recover_and_requeue(&self, report: &Mutex<JobReport>) -> Result<(), JobError> {
        let requeued = self.recover()?;
        if requeued.is_empty() {
            return Ok(());
        }
        {
            let mut state = self.shared.queue.lock().expect("queue lock");
            for id in &requeued {
                state.seen.remove(id);
            }
        }
        report
            .lock()
            .expect("report lock")
            .requeued
            .extend(requeued);
        Ok(())
    }

    /// The management loop: scan for queued runs, feed the workers, decide
    /// when a drain-mode server is done. Long-lived servers also repeat the
    /// recovery pass every [`JobServerConfig::recovery_interval`] so work
    /// stranded by a dead or shut-down peer is adopted without a restart.
    fn serve_loop(
        &self,
        net: Option<&TcpTransport>,
        report: &Mutex<JobReport>,
    ) -> Result<(), JobError> {
        // Terminal runs are remembered so each poll reads only live
        // manifests — a store full of old completed runs costs one scan,
        // not one scan per tick.
        let mut terminal = HashSet::new();
        let mut last_recovery = std::time::Instant::now();
        loop {
            if !self.config.drain
                && !self.config.shards_only
                && last_recovery.elapsed() >= self.config.recovery_interval
            {
                self.recover_and_requeue(report)?;
                last_recovery = std::time::Instant::now();
            }
            let mut no_new_work = true;
            let (queue_empty, busy) = if self.config.shards_only {
                let state = self.shared.queue.lock().expect("queue lock");
                (true, state.busy)
            } else {
                // The scan reads every live manifest outside the queue lock
                // (the first scan of a loaded store may carry thousands of
                // fresh runs, and workers must not stall on that file I/O);
                // tenant and priority come from the manifests it parsed.
                let scan = self.shared.store.poll_queued(&mut terminal)?;
                let mut fresh = Vec::new();
                let snapshot = {
                    let mut state = self.shared.queue.lock().expect("queue lock");
                    for (id, manifest) in scan {
                        if state.seen.insert(id.clone()) {
                            let (tenant, priority) = dispatch_meta(&manifest);
                            state.queue.push(id.clone(), tenant, priority);
                            fresh.push(id);
                        }
                    }
                    let metrics = self.shared.recorder.metrics();
                    metrics.set_gauge("ayb_job_queue_depth", state.queue.len() as f64);
                    metrics.set_gauge("ayb_job_busy_workers", state.busy as f64);
                    (state.queue.is_empty(), state.busy)
                };
                no_new_work = fresh.is_empty();
                if !no_new_work {
                    self.shared.wake.notify_all();
                }
                for id in fresh {
                    self.shared.emit(JobEvent::Enqueued { run_id: id });
                }
                snapshot
            };
            if self.shared.stop_workers.load(Ordering::SeqCst) {
                return Ok(());
            }
            if self.config.drain && no_new_work && queue_empty && busy == 0 {
                // A drain server is done only when the data plane is
                // drained too — the on-disk one and, with a transport
                // configured, the coordinator's (an unreachable coordinator
                // counts as drained: there is nothing this server could
                // service there anyway).
                let disk_drained = self.shared.store.open_shard_tasks()?.is_empty();
                let net_drained = match net {
                    Some(net) => net
                        .coordinator_stats()
                        .map(|stats| stats.open_shards == 0)
                        .unwrap_or(true),
                    None => true,
                };
                if disk_drained && net_drained {
                    return Ok(());
                }
            }
            let state = self.shared.queue.lock().expect("queue lock");
            let _ = self
                .shared
                .wake
                .wait_timeout(state, self.config.poll_interval)
                .expect("queue lock");
        }
    }

    /// Startup recovery: release claims whose holder died, and re-queue
    /// every resumable run — `Interrupted` ones and `Running` ones whose
    /// executor is provably gone. Returns the re-queued ids.
    fn recover(&self) -> Result<Vec<String>, JobError> {
        let mut requeued = Vec::new();
        for id in self.shared.store.run_ids()? {
            let Ok(handle) = self.shared.store.run(&id) else {
                continue; // torn creation: directory without a manifest
            };
            let Ok(status) = handle.status() else {
                continue;
            };
            match status {
                RunStatus::Completed | RunStatus::Failed => continue,
                RunStatus::Queued => {
                    // A worker killed between claiming and starting leaves a
                    // stale claim on a still-queued run; break it (the break
                    // is compare-and-delete, so a claim legitimately
                    // re-taken in the window survives).
                    if let Ok(Some(stale)) = handle.stale_claim(self.config.reclaim_grace) {
                        let _ = handle.break_claim(&stale);
                    }
                }
                RunStatus::Running | RunStatus::Interrupted => {
                    if handle.has_result() {
                        continue; // completed but died before the status flip
                    }
                    match handle.claim() {
                        Ok(Some(_)) => {
                            // Claimed: recover any stalled holder — a dead
                            // pid, a lapsed foreign-host heartbeat, or an
                            // alive-but-hung process whose heartbeat went
                            // quiet. Stealing from a hung-but-alive holder is
                            // safe now that run claims carry fencing tokens:
                            // if the zombie wakes, its fenced-off writes are
                            // discarded, not merged. The break is
                            // compare-and-delete: a lost race means another
                            // recovery pass (or its worker) already owns this
                            // run.
                            let stale = match handle.stalled_claim(self.config.reclaim_grace) {
                                Ok(Some(stale)) => stale,
                                _ => continue,
                            };
                            if !handle.break_claim(&stale).unwrap_or(false) {
                                continue;
                            }
                        }
                        Ok(None) if status == RunStatus::Running => {
                            // No claim on a Running run: a dead executor —
                            // unless the manifest is fresh enough that its
                            // creator may still be inside the create→claim
                            // window.
                            if manifest_age_secs(&handle) < self.config.reclaim_grace.as_secs() {
                                continue;
                            }
                        }
                        Ok(None) => {}
                        Err(_) => continue,
                    }
                    if handle.set_status(RunStatus::Queued).is_ok() {
                        self.shared.emit(JobEvent::Requeued {
                            run_id: id.clone(),
                            from: status,
                        });
                        requeued.push(id);
                    }
                }
            }
        }
        Ok(requeued)
    }
}

/// The tenant and priority a queued run dispatches under, from the optional
/// `tenant`/`priority` extras of its manifest (written by the service plane
/// at submission). Runs without them — every directly `ayb submit`ted run —
/// dispatch as tenant `default` at normal priority; so does a malformed
/// extra, which degrades scheduling, never dispatch.
fn dispatch_meta(manifest: &Value) -> (&str, Priority) {
    let tenant = match manifest.get("tenant") {
        Some(Value::Str(tenant)) => tenant.as_str(),
        _ => "default",
    };
    let priority = match manifest.get("priority") {
        Some(Value::Str(name)) => Priority::parse(name).unwrap_or_default(),
        _ => Priority::Normal,
    };
    (tenant, priority)
}

/// Seconds since the run's manifest was last updated (0 when unreadable, so
/// unreadable manifests are treated as fresh and left alone).
fn manifest_age_secs(handle: &RunHandle) -> u64 {
    let updated = handle
        .manifest_value()
        .ok()
        .and_then(|value| value.get("updated_unix").cloned())
        .and_then(|value| u64::from_value(&value).ok());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    match updated {
        Some(updated) => now.saturating_sub(updated),
        None => 0,
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    config: &JobServerConfig,
    worker: usize,
    net: Option<&TcpTransport>,
    report: &Mutex<JobReport>,
) {
    loop {
        if shared.stop_workers.load(Ordering::SeqCst) {
            return;
        }
        // Shard-first priority: drain the data plane before taking new
        // control-plane work. Runs executing on other workers (here or in
        // other processes) block on their shards; servicing those first
        // keeps every in-flight run progressing even when all run-executing
        // workers are occupied.
        if service_one_shard(shared, config, worker, report) {
            continue;
        }
        // The network data plane gets the same priority: a coordinator task
        // is some run's in-flight population or variation point.
        if let Some(net) = net {
            if service_one_net_shard(shared, config, worker, net, report) {
                continue;
            }
        }
        let run_id = {
            let mut state = shared.queue.lock().expect("queue lock");
            if shared.stop_workers.load(Ordering::SeqCst) {
                return;
            }
            let id = if config.shards_only {
                None
            } else {
                state.queue.pop()
            };
            match id {
                Some(id) => {
                    state.busy += 1;
                    id
                }
                None => {
                    // Idle: sleep until new work is signalled — but only
                    // with a timeout, because shard tasks appear on disk
                    // without any in-process notification.
                    let _ = shared
                        .wake
                        .wait_timeout(state, config.poll_interval)
                        .expect("queue lock");
                    continue;
                }
            }
        };
        let outcome = execute_run(shared, config, worker, &run_id);
        {
            let mut state = shared.queue.lock().expect("queue lock");
            // Release the tenant's running slot whatever the outcome — a
            // skipped or failed run must not pin its tenant's cap forever.
            state.queue.finished(&run_id);
            state.busy -= 1;
        }
        shared.wake.notify_all();
        let mut report = report.lock().expect("report lock");
        match outcome {
            Outcome::Completed(digest) => {
                report.completed.push(run_id.clone());
                shared.emit(JobEvent::Completed {
                    run_id,
                    worker,
                    digest,
                });
            }
            Outcome::Interrupted => {
                report.interrupted.push(run_id.clone());
                shared.emit(JobEvent::Interrupted { run_id, worker });
            }
            Outcome::Skipped(reason) => {
                report.skipped.push(run_id.clone());
                shared.emit(JobEvent::Skipped {
                    run_id,
                    worker,
                    reason,
                });
            }
            Outcome::Failed(message) => {
                report.failed.push(run_id.clone());
                shared.emit(JobEvent::Failed {
                    run_id,
                    worker,
                    message,
                });
            }
        }
    }
}

/// Produces a shard's outcome in-process, exactly as the submitting flow
/// would: evaluation shards through `SizingProblem::evaluate_batch`,
/// variation shards through `ayb_core::analyse_variation_point` with each
/// point's own seed. `flow` is the submitting run's configuration, so the
/// rebuilt problem is identical to the submitter's whichever process
/// services the shard. Returns the outcome and how many candidates or
/// points it covers.
fn service_work(flow: &FlowConfig, work: &ShardWork) -> (ShardOutcome, usize) {
    let problem =
        OtaSizingProblem::new(flow.testbench, flow.sweep.clone()).with_threads(flow.threads);
    match work {
        ShardWork::Eval { parameters } => (
            ShardOutcome::Eval {
                results: problem.evaluate_batch(parameters),
            },
            parameters.len(),
        ),
        ShardWork::VariationBatch { points } => (
            ShardOutcome::VariationBatch {
                points: points
                    .iter()
                    .map(|point| {
                        let t0 = std::time::Instant::now();
                        let data = ayb_core::analyse_variation_point(
                            &problem,
                            &point.parameters,
                            flow,
                            point.mc_seed,
                        );
                        VariationOutcome {
                            data: data.as_ref().map(Serialize::to_value),
                            elapsed_seconds: t0.elapsed().as_secs_f64(),
                        }
                    })
                    .collect(),
            },
            points.len(),
        ),
    }
}

/// Services one claimed shard on either plane — `at` is its run, epoch and
/// index plus the servicing worker — by producing its outcome with
/// [`service_work`], handing it to `submit`, and accounting what came of it.
/// A fenced-off submit (`Ok(false)`: this worker was presumed hung and its
/// claim re-issued; the successor's identical outcome stands) is counted in
/// [`JobReport::shards_fenced`]; a failed one (the epoch closed mid-service,
/// or the plane is unreachable) is a silent skip. Returns whether the
/// outcome was accepted, having announced it.
fn service_claimed<E>(
    shared: &Shared,
    report: &Mutex<JobReport>,
    at: (&str, &str, usize, usize),
    flow: &FlowConfig,
    work: &ShardWork,
    submit: impl FnOnce(&ShardOutcome) -> Result<bool, E>,
) -> bool {
    let (run_id, epoch, shard, worker) = at;
    let (outcome, candidates) = service_work(flow, work);
    match submit(&outcome) {
        Ok(true) => {}
        Ok(false) => {
            report.lock().expect("report lock").shards_fenced += 1;
            return false;
        }
        Err(_) => return false,
    }
    shared.emit(JobEvent::ShardServiced {
        run_id: run_id.to_string(),
        epoch: epoch.to_string(),
        shard,
        work: work.kind(),
        candidates,
        worker,
    });
    true
}

/// Claims and services at most one on-disk shard task — a
/// population-evaluation shard or a batch of variation (Monte Carlo)
/// points — returning whether one was serviced. The flow configuration is
/// read from the owning run's manifest. A task whose payload cannot be
/// loaded (the epoch was closed, or its shape is unknown to this build) is
/// declined: its claim is released for the submitter to service.
fn service_one_shard(
    shared: &Arc<Shared>,
    config: &JobServerConfig,
    worker: usize,
    report: &Mutex<JobReport>,
) -> bool {
    let Ok(tasks) = shared.store.open_shard_tasks() else {
        return false;
    };
    for mut task in tasks {
        match task.try_claim(&format!("{}/worker-{}", config.owner, worker)) {
            Ok(true) => {}
            _ => continue,
        }
        {
            let mut state = shared.queue.lock().expect("queue lock");
            state.busy += 1;
        }
        // Heartbeat the shard claim while evaluating, so a slow evaluation
        // never goes stale and is never taken over by another claim.
        let heartbeat = task.start_claim_heartbeat(Duration::from_secs(1));
        let serviced = match task.load_work() {
            Ok(Some(work)) => run_flow(&shared.store, task.run_id()).is_some_and(|flow| {
                let at = (task.run_id(), task.epoch(), task.shard(), worker);
                service_claimed(shared, report, at, &flow, &work, |outcome| {
                    task.submit_outcome(outcome)
                })
            }),
            // The epoch was closed, or the payload does not decode.
            _ => false,
        };
        drop(heartbeat);
        if !serviced {
            task.release();
        }
        {
            let mut state = shared.queue.lock().expect("queue lock");
            state.busy -= 1;
        }
        shared.wake.notify_all();
        if serviced {
            report.lock().expect("report lock").shards_serviced += 1;
            return true;
        }
    }
    false
}

/// Claims and services at most one *network* shard task from the
/// coordinator, returning whether one was serviced.
///
/// Unlike the on-disk plane, the task is self-contained: it carries the
/// submitting run's flow configuration, so the problem is rebuilt from the
/// task itself and the worker never touches the submitter's store — this is
/// what lets a fleet run with no shared filesystem at all. A task without a
/// usable configuration is left to go stale, and the submitter's next claim
/// takes it over.
fn service_one_net_shard(
    shared: &Arc<Shared>,
    config: &JobServerConfig,
    worker: usize,
    net: &TcpTransport,
    report: &Mutex<JobReport>,
) -> bool {
    let owner = format!("{}/worker-{}", config.owner, worker);
    let task = match net.claim_next(&owner) {
        Ok(Some(task)) => task,
        // Nothing claimable, or the coordinator is unreachable — either way
        // there is no network work for this worker right now.
        _ => return false,
    };
    {
        let mut state = shared.queue.lock().expect("queue lock");
        state.busy += 1;
    }
    // Heartbeat the claim while evaluating, so a slow evaluation never goes
    // stale and is never taken over by another claim.
    let (transport, epoch, shard, token) =
        (net.clone(), task.epoch.clone(), task.shard, task.token);
    let pulse = ClaimHeartbeat::new(Duration::from_secs(1), move || {
        // Best effort: a missed beat at worst lets the claim be stolen,
        // which fencing makes safe.
        let _ = transport.heartbeat(&epoch, shard, token);
    });
    let serviced = match task.context.as_ref().map(FlowConfig::from_value) {
        Some(Ok(flow)) => {
            let at = (&*task.run_id, &*task.epoch, task.shard, worker);
            service_claimed(shared, report, at, &flow, &task.work, |outcome| {
                net.submit_task(&task, outcome)
            })
        }
        _ => false,
    };
    drop(pulse);
    // An abandoned claim needs no release call: once its heartbeat stops,
    // it goes stale and the shard's next claim takes it over.
    {
        let mut state = shared.queue.lock().expect("queue lock");
        state.busy -= 1;
    }
    shared.wake.notify_all();
    if serviced {
        report.lock().expect("report lock").shards_serviced += 1;
    }
    serviced
}

/// The flow configuration a run's sharded flow works with, from its
/// manifest.
fn run_flow(store: &Store, run_id: &str) -> Option<FlowConfig> {
    let manifest: Manifest<FlowConfig> = store.run(run_id).ok()?.manifest().ok()?;
    Some(manifest.flow)
}

/// Executes one run to a terminal state. The claim is taken (and released)
/// by the flow itself, so a run another process claimed first comes back as
/// [`Outcome::Skipped`] without this worker having touched any state.
fn execute_run(
    shared: &Arc<Shared>,
    config: &JobServerConfig,
    worker: usize,
    run_id: &str,
) -> Outcome {
    let handle = match shared.store.run(run_id) {
        Ok(handle) => handle,
        Err(error) => return Outcome::Failed(error.to_string()),
    };
    if handle.has_result() {
        return Outcome::Skipped("already completed".to_string());
    }
    shared.emit(JobEvent::Started {
        run_id: run_id.to_string(),
        worker,
    });
    let builder = match FlowBuilder::resume(&shared.store, run_id) {
        Ok(builder) => builder,
        Err(error) => return Outcome::Failed(error.to_string()),
    };
    let outcome = builder
        .with_claim_owner(format!("{}/worker-{}", config.owner, worker))
        .halt_when(Arc::clone(&shared.halt_runs))
        .with_recorder(shared.recorder.clone())
        .run();
    match outcome {
        Ok(result) => Outcome::Completed(result.determinism_digest()),
        Err(AybError::Checkpoint(CheckpointError::Halted { .. })) => Outcome::Interrupted,
        Err(AybError::Store(StoreError::RunClaimed { owner, .. })) => {
            Outcome::Skipped(format!("claimed by {owner}"))
        }
        Err(AybError::Store(StoreError::AlreadyCompleted(_))) => {
            Outcome::Skipped("already completed".to_string())
        }
        Err(error) => Outcome::Failed(error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = JobServerConfig::default();
        assert!(config.workers >= 1);
        assert!(!config.drain);
        assert!(config.owner.contains(&std::process::id().to_string()));
        assert!(!config.shards_only);
        let drain = JobServerConfig::drain_with_workers(4);
        assert_eq!(drain.workers, 4);
        assert!(drain.drain);
        let shards = JobServerConfig::shards_only_with_workers(3);
        assert_eq!(shards.workers, 3);
        assert!(shards.shards_only && !shards.drain);
        assert!(config.transport.is_none());
    }

    #[test]
    fn report_counts_executed_runs() {
        let report = JobReport {
            completed: vec!["a".into(), "b".into()],
            interrupted: vec!["c".into()],
            failed: vec![],
            skipped: vec!["d".into()],
            requeued: vec!["c".into()],
            shards_serviced: 5,
            shards_fenced: 0,
        };
        assert_eq!(report.executed(), 3);
    }

    #[test]
    fn events_name_their_run() {
        let event = JobEvent::Completed {
            run_id: "run-0001".into(),
            worker: 0,
            digest: 7,
        };
        assert_eq!(event.run_id(), "run-0001");
        let event = JobEvent::Requeued {
            run_id: "run-0002".into(),
            from: RunStatus::Interrupted,
        };
        assert_eq!(event.run_id(), "run-0002");
    }

    #[test]
    fn shutdown_handle_flips_the_flags() {
        let store =
            Store::open(std::env::temp_dir().join(format!("ayb-jobs-unit-{}", std::process::id())))
                .unwrap();
        let server = JobServer::new(store, JobServerConfig::default());
        let handle = server.shutdown_handle();
        assert!(!handle.is_shutdown());
        handle.shutdown();
        assert!(handle.is_shutdown());
        assert!(server.shared.halt_runs.load(Ordering::SeqCst));
    }
}
