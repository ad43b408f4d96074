//! The on-disk shard data plane: distributed batch evaluation over a shared
//! store.
//!
//! PR 3's job server distributes whole *runs* (the control plane); this
//! module distributes the *evaluation work inside one run* (the data plane).
//! A sharded flow splits each optimiser population into deterministic,
//! index-ordered shards and publishes them under its run directory:
//!
//! ```text
//! <root>/runs/<run_id>/shards/<epoch>/
//!     shard_0000.task.json     # candidate parameters of shard 0
//!     shard_0000.claim.json    # present while a worker evaluates shard 0
//!     shard_0000.result.json   # evaluations of shard 0, once done
//!     shard_0001.task.json
//!     ...
//! ```
//!
//! One *epoch* directory corresponds to one `evaluate_batch` call (one
//! optimiser generation, typically) and is disposed of once the submitter
//! has assembled every shard's results. Claims use the same atomic
//! hard-link lock files as run claims, so any number of worker processes —
//! `ayb serve` on this machine or on other hosts mounting the same store —
//! race safely for shards: exactly one wins each, and the claim of a worker
//! that dies or hangs mid-shard is taken over by the shard's next claim once
//! it goes stale, without changing any result, because candidate evaluation
//! is pure and results are written atomically.
//!
//! [`ShardDataPlane`] is the submitter's view — it implements
//! [`ayb_moo::ShardTransport`], the one typed interface both the sharded
//! evaluator and the variation stage drive. [`ShardTask`] /
//! [`Store::open_shard_tasks`] are the worker's view: scan, claim, service,
//! submit. Both views claim and commit through the same two helpers, so the
//! claim rule of [`ayb_moo::ShardTransport`] exists once on disk.
//!
//! ```
//! use ayb_store::ShardDataPlane;
//! use ayb_moo::{Evaluation, ShardOutcome, ShardTransport, ShardWork, ShardWorkKind};
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("ayb-shard-doc-{}", std::process::id()));
//! let plane = ShardDataPlane::open(&dir, Duration::from_secs(30));
//! let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
//! let work = ShardWork::Eval { parameters: vec![vec![0.5, 0.5]] };
//! plane.publish_work(&epoch, 0, &work).unwrap();
//! assert!(plane.try_claim(&epoch, 0).unwrap());
//! let results = vec![Some(Evaluation::new(vec![0.5, 0.5], vec![1.0]))];
//! plane.submit_outcome(&epoch, 0, &ShardOutcome::Eval { results }).unwrap();
//! assert!(plane.fetch_outcome(&epoch, 0).unwrap().is_some());
//! plane.close_epoch(&epoch).unwrap();
//! # let _ = std::fs::remove_dir_all(dir);
//! ```

use crate::{
    break_claim_file, file_mtime_age, io_error, next_fence, read_claim_file, read_json,
    take_claim_file, write_json, ClaimHealth, ClaimInfo, RunHandle, RunStatus, Store, StoreError,
};
use ayb_moo::{
    ShardError, ShardOutcome, ShardTransport, ShardWork, ShardWorkKind, TransportStats,
    SHARD_CLAIM_STALE_AFTER,
};
use ayb_obs::{kind as event_kind, Event, Recorder, Severity};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Subdirectory of a run holding its shard epochs.
const SHARD_DIR: &str = "shards";

fn task_name(shard: usize) -> String {
    format!("shard_{shard:04}.task.json")
}

fn claim_name(shard: usize) -> String {
    format!("shard_{shard:04}.claim.json")
}

fn result_name(shard: usize) -> String {
    format!("shard_{shard:04}.result.json")
}

/// Per-shard fence counter file: every successful claim of the shard
/// advances it and stamps the new value into its `ClaimInfo` (see
/// [`ClaimInfo::fence`]), so successive claims on one shard are always
/// distinguishable — the precondition for discarding a fenced-off writer's
/// late result.
fn fence_name(shard: usize) -> String {
    format!("shard_{shard:04}.fence.json")
}

/// Parses `shard_NNNN.task.json` back into `NNNN`.
fn parse_task_name(name: &str) -> Option<usize> {
    name.strip_prefix("shard_")?
        .strip_suffix(".task.json")?
        .parse()
        .ok()
}

/// Claims shard `shard` of the epoch in `epoch_dir` for `owner` by the
/// claim rule of [`ShardTransport`]: a shard with a result, without a task
/// or with a live claim is refused before anything is minted; a claim whose
/// holder is [`ClaimHealth::Hung`] or [`ClaimHealth::Dead`] by
/// `stale_after` is broken (compare-and-delete). Then the shard's next fence
/// is minted and the claim file taken stamped with it. Returns the new claim
/// and the stale claim it took over; `Ok(None)` is a refusal, a lost race —
/// or an epoch disposed of in the meantime, which is the same clean miss.
fn claim_shard(
    epoch_dir: &Path,
    shard: usize,
    owner: &str,
    stale_after: Duration,
) -> Result<Option<(ClaimInfo, Option<ClaimInfo>)>, StoreError> {
    if epoch_dir.join(result_name(shard)).is_file() || !epoch_dir.join(task_name(shard)).is_file() {
        return Ok(None);
    }
    let path = epoch_dir.join(claim_name(shard));
    let taken_over = match read_claim_file(&path)? {
        Some(held) => {
            let age = file_mtime_age(&path).unwrap_or(Duration::MAX);
            if held.health(age, stale_after) == ClaimHealth::Alive
                || !break_claim_file(epoch_dir, &path, &held)?
            {
                return Ok(None);
            }
            Some(held)
        }
        None => None,
    };
    let Ok(fence) = next_fence(&epoch_dir.join(fence_name(shard))) else {
        return Ok(None);
    };
    let info = ClaimInfo::for_this_process(owner).with_fence(fence);
    let taken = take_claim_file(epoch_dir, &path, &info)?;
    Ok(taken.then_some((info, taken_over)))
}

/// Commits shard `shard`'s outcome and releases the claim — *unless* the
/// claim this writer took (`mine`) has changed hands since (its holder went
/// stale and a later claim took it over): then nothing is written and
/// `Ok(false)` says the outcome was fenced off. The thief's own
/// outcome is identical by determinism, and a fenced-off writer must never
/// overwrite anything. A filesystem cannot make the re-check and the write
/// one atomic step (the TCP coordinator's token check can, and does), but
/// the re-check shrinks the stale-writer window from a whole evaluation to
/// a single stat-and-rename — and duplicate *identical* writes are benign
/// anyway.
fn commit_outcome(
    epoch_dir: &Path,
    shard: usize,
    mine: Option<&ClaimInfo>,
    outcome: &ShardOutcome,
) -> Result<bool, StoreError> {
    let claim_path = epoch_dir.join(claim_name(shard));
    if let Some(mine) = mine {
        if read_claim_file(&claim_path)?.as_ref() != Some(mine) {
            return Ok(false);
        }
    }
    write_json(&epoch_dir.join(result_name(shard)), outcome)?;
    let _ = fs::remove_file(claim_path);
    Ok(true)
}

fn transport_error(error: StoreError) -> ShardError {
    ShardError::Transport(error.to_string())
}

/// A plane's in-flight fenced claims keyed by `(epoch, shard)`: the claim it
/// wrote, plus when it was taken (feeds the claim-to-submit histogram).
type HeldClaims = Arc<Mutex<HashMap<(String, usize), (ClaimInfo, Instant)>>>;

/// The submitter's handle on a run's shard directory; implements
/// [`ShardTransport`] so an [`ayb_moo::ShardedEvaluator`] can distribute its
/// batches through the store (see [`RunHandle::shard_plane`]).
#[derive(Debug, Clone)]
pub struct ShardDataPlane {
    dir: PathBuf,
    stale_after: Duration,
    /// Fenced claims this plane took and has not submitted yet, per
    /// `(epoch, shard)`; shared across clones. Submits re-check the claim
    /// file against the remembered claim and *discard* the result when it
    /// changed hands (this holder was presumed hung and superseded).
    claims: HeldClaims,
    /// Results this plane discarded because its claim had been stolen.
    fenced: Arc<AtomicU64>,
    /// Optional telemetry handle: claim/submit/fence/recover events and the
    /// claim-to-submit histogram. `None` costs nothing on the hot path.
    recorder: Option<Recorder>,
    /// The run this plane belongs to (derived from its directory), stamped
    /// into emitted events.
    run_id: Option<String>,
}

impl ShardDataPlane {
    /// Opens a shard plane rooted at `dir` (usually
    /// `runs/<id>/shards`, via [`RunHandle::shard_plane`]); this plane's
    /// claims take over a shard claim whose heartbeat is older than
    /// `stale_after`, or whose holder is dead.
    pub fn open(dir: impl Into<PathBuf>, stale_after: Duration) -> ShardDataPlane {
        let dir = dir.into();
        let run_id = dir
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
            .map(String::from);
        ShardDataPlane {
            dir,
            stale_after,
            claims: Arc::new(Mutex::new(HashMap::new())),
            fenced: Arc::new(AtomicU64::new(0)),
            recorder: None,
            run_id,
        }
    }

    /// Attaches a telemetry recorder: the plane emits
    /// `shard_claim`/`shard_submit`/`shard_fenced`/`shard_recover` events
    /// and feeds the `ayb_claim_to_submit_seconds` histogram. Telemetry is
    /// diagnostic only — it never changes what the plane reads or writes.
    pub fn with_recorder(mut self, recorder: Recorder) -> ShardDataPlane {
        self.recorder = Some(recorder);
        self
    }

    /// Builds an epoch event pre-stamped with this plane's run id.
    fn epoch_event(&self, severity: Severity, kind: &str, epoch: &str) -> Event {
        let event = Event::new(severity, "shards", kind).epoch(epoch);
        match &self.run_id {
            Some(run_id) => event.run(run_id),
            None => event,
        }
    }

    /// Builds a shard event pre-stamped with this plane's run id and the
    /// shard coordinates.
    fn shard_event(&self, severity: Severity, kind: &str, epoch: &str, shard: usize) -> Event {
        self.epoch_event(severity, kind, epoch).shard(shard as u64)
    }

    /// Emits `event` when a recorder is attached.
    fn emit(&self, event: Event) {
        if let Some(recorder) = &self.recorder {
            recorder.emit(event);
        }
    }

    fn epoch_dir(&self, epoch: &str) -> PathBuf {
        self.dir.join(epoch)
    }
}

impl ShardTransport for ShardDataPlane {
    /// Creates the epoch directory, named after `kind` so listings can tell
    /// evaluation from variation epochs with a single readdir (the shard
    /// count is implicit in the published task files).
    fn open_typed_epoch(
        &self,
        kind: ShardWorkKind,
        _shard_count: usize,
    ) -> Result<String, ShardError> {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let epoch = format!(
            "{}{}-{}-{}",
            kind.epoch_prefix(),
            crate::now_unix(),
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        );
        let dir = self.epoch_dir(&epoch);
        fs::create_dir_all(&dir).map_err(|e| transport_error(io_error(&dir, e)))?;
        self.emit(
            self.epoch_event(Severity::Debug, event_kind::EPOCH_OPEN, &epoch)
                .detail(format!("{} epoch opened", kind.as_str())),
        );
        Ok(epoch)
    }

    fn publish_work(&self, epoch: &str, shard: usize, work: &ShardWork) -> Result<(), ShardError> {
        let path = self.epoch_dir(epoch).join(task_name(shard));
        write_json(&path, work).map_err(transport_error)
    }

    /// Claims by the rule of [`ShardTransport`]; a claim that takes over a
    /// stale claim reports `shard_recover` with that claim's fence and owner
    /// before its own `shard_claim`.
    fn try_claim(&self, epoch: &str, shard: usize) -> Result<bool, ShardError> {
        let claimed = claim_shard(
            &self.epoch_dir(epoch),
            shard,
            "shard-submitter",
            self.stale_after,
        )
        .map_err(transport_error)?;
        let Some((info, taken_over)) = claimed else {
            return Ok(false);
        };
        if let Some(stale) = taken_over {
            self.emit(
                self.shard_event(Severity::Warn, event_kind::SHARD_RECOVER, epoch, shard)
                    .fence(stale.fence)
                    .detail(format!("stale claim of `{}` taken over", stale.owner)),
            );
        }
        self.emit(
            self.shard_event(Severity::Debug, event_kind::SHARD_CLAIM, epoch, shard)
                .fence(info.fence),
        );
        self.claims
            .lock()
            .expect("shard claim table lock")
            .insert((epoch.to_string(), shard), (info, Instant::now()));
        Ok(true)
    }

    /// Commits the outcome unless this plane's claim was stolen meanwhile;
    /// a fenced-off outcome is discarded and counted (see
    /// [`TransportStats::fenced_rejections`]), not reported as an error.
    fn submit_outcome(
        &self,
        epoch: &str,
        shard: usize,
        outcome: &ShardOutcome,
    ) -> Result<(), ShardError> {
        let key = (epoch.to_string(), shard);
        let mine = self
            .claims
            .lock()
            .expect("shard claim table lock")
            .get(&key)
            .cloned();
        let committed = commit_outcome(
            &self.epoch_dir(epoch),
            shard,
            mine.as_ref().map(|(claim, _)| claim),
            outcome,
        )
        .map_err(transport_error)?;
        self.claims
            .lock()
            .expect("shard claim table lock")
            .remove(&key);
        if !committed {
            // Fenced off (or the epoch is gone): discard silently.
            self.fenced.fetch_add(1, Ordering::Relaxed);
            let fence = mine.map_or(0, |(claim, _)| claim.fence);
            self.emit(
                self.shard_event(Severity::Warn, event_kind::SHARD_FENCED, epoch, shard)
                    .fence(fence)
                    .detail("stale submit discarded: claim changed hands"),
            );
            return Ok(());
        }
        if let Some(recorder) = &self.recorder {
            let mut event =
                self.shard_event(Severity::Debug, event_kind::SHARD_SUBMIT, epoch, shard);
            if let Some((mine, claimed_at)) = &mine {
                let elapsed = claimed_at.elapsed().as_secs_f64();
                event = event.fence(mine.fence).value(elapsed);
                recorder
                    .metrics()
                    .observe("ayb_claim_to_submit_seconds", elapsed);
            }
            recorder.emit(event);
        }
        Ok(())
    }

    fn fetch_outcome(&self, epoch: &str, shard: usize) -> Result<Option<ShardOutcome>, ShardError> {
        let path = self.epoch_dir(epoch).join(result_name(shard));
        if !path.is_file() {
            return Ok(None);
        }
        read_json(&path).map(Some).map_err(transport_error)
    }

    fn close_epoch(&self, epoch: &str) -> Result<(), ShardError> {
        remove_epoch_dir(&self.epoch_dir(epoch)).map_err(transport_error)?;
        self.emit(self.epoch_event(Severity::Debug, event_kind::EPOCH_CLOSE, epoch));
        // Opportunistically drop the now-empty `shards/` parent, so idle
        // workers can dismiss this run with a single stat instead of a
        // directory scan (fails harmlessly if another epoch is open).
        let _ = fs::remove_dir(&self.dir);
        Ok(())
    }

    /// Only the fence counter is kept: per-file I/O is not request-shaped,
    /// so requests and round-trip seconds stay zero.
    fn stats(&self) -> TransportStats {
        TransportStats {
            fenced_rejections: self.fenced.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

/// Removes one epoch directory, absorbing the claim race: a worker that
/// scanned the epoch just before disposal may still be staging a claim file
/// inside it, which can make a single `remove_dir_all` pass fail with
/// `ENOTEMPTY`. Each retry deletes whatever reappeared; the worker's
/// follow-up (load task, submit result) finds the directory gone and backs
/// off, so a few attempts always win.
fn remove_epoch_dir(dir: &Path) -> Result<(), StoreError> {
    const ATTEMPTS: usize = 8;
    for attempt in 0..ATTEMPTS {
        match fs::remove_dir_all(dir) {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) if attempt + 1 == ATTEMPTS => return Err(io_error(dir, e)),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    unreachable!("the loop returns on its final attempt");
}

/// Counts of a run's open shard work (see [`RunHandle::shard_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Open epochs of any kind under the run.
    pub epochs: usize,
    /// Open variation-analysis epochs (the remainder are evaluation
    /// epochs) — `ayb status` uses this to label what stage a run's shard
    /// work belongs to.
    pub variation_epochs: usize,
    /// Published shard tasks across all open epochs.
    pub tasks: usize,
    /// Shards currently claimed by a worker.
    pub claimed: usize,
    /// Shards whose results have been submitted.
    pub completed: usize,
}

impl RunHandle {
    fn shards_dir(&self) -> PathBuf {
        self.dir().join(SHARD_DIR)
    }

    /// The run's shard data plane, ready to plug into an
    /// [`ayb_moo::ShardedEvaluator`]; see [`ShardDataPlane::open`] for
    /// `stale_after`.
    pub fn shard_plane(&self, stale_after: Duration) -> ShardDataPlane {
        ShardDataPlane::open(self.shards_dir(), stale_after)
    }

    /// Counts the run's open shard epochs, tasks, claims and results (for
    /// `ayb status` and monitoring).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when a directory scan fails.
    pub fn shard_summary(&self) -> Result<ShardSummary, StoreError> {
        let mut summary = ShardSummary::default();
        let shards = self.shards_dir();
        if !shards.is_dir() {
            return Ok(summary);
        }
        for epoch in read_dir_sorted(&shards)? {
            if !epoch.is_dir() {
                continue;
            }
            summary.epochs += 1;
            let kind = epoch
                .file_name()
                .and_then(|n| n.to_str())
                .map(ShardWorkKind::of_epoch)
                .unwrap_or(ShardWorkKind::Eval);
            if kind == ShardWorkKind::Variation {
                summary.variation_epochs += 1;
            }
            for path in read_dir_sorted(&epoch)? {
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if name.ends_with(".task.json") {
                    summary.tasks += 1;
                } else if name.ends_with(".claim.json") {
                    summary.claimed += 1;
                } else if name.ends_with(".result.json") {
                    summary.completed += 1;
                }
            }
        }
        Ok(summary)
    }

    /// Removes every shard epoch under the run, returning how many were
    /// swept.
    ///
    /// Only safe for the run's exclusive owner (claim holder) or for
    /// housekeeping of terminal runs: a sharded flow sweeps leftovers from a
    /// dead predecessor when it starts, and `ayb gc` sweeps the shards of
    /// completed runs.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when an epoch directory cannot be removed.
    pub fn sweep_shards(&self) -> Result<usize, StoreError> {
        let shards = self.shards_dir();
        if !shards.is_dir() {
            return Ok(0);
        }
        let mut swept = 0;
        for epoch in read_dir_sorted(&shards)? {
            if !epoch.is_dir() {
                continue;
            }
            remove_epoch_dir(&epoch)?;
            swept += 1;
        }
        // Drop the empty parent too, so worker scans dismiss this run with
        // one stat (harmless failure if an epoch opened concurrently).
        let _ = fs::remove_dir(&shards);
        Ok(swept)
    }
}

/// Directory entries of `dir`, sorted by name for deterministic scans.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| io_error(dir, e))?;
    let mut paths = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| io_error(dir, e))?.path());
    }
    paths.sort();
    Ok(paths)
}

/// A claimable shard evaluation task, as seen by a worker (see
/// [`Store::open_shard_tasks`]): claim it, load its parameters, evaluate
/// them, submit the results.
#[derive(Debug, Clone)]
pub struct ShardTask {
    run_id: String,
    epoch: String,
    shard: usize,
    epoch_dir: PathBuf,
    /// The fenced claim this task holds after a successful
    /// [`ShardTask::try_claim`]; submits re-check it against the claim file
    /// and discard the result when it changed hands.
    claimed: Option<ClaimInfo>,
}

impl ShardTask {
    /// The run this shard belongs to.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The evaluation epoch (one optimiser batch) this shard belongs to.
    pub fn epoch(&self) -> &str {
        &self.epoch
    }

    /// The shard's index within its epoch.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The kind of work this shard carries, judged from its epoch's name
    /// (cheap — no file read; the task file's payload tag is authoritative).
    pub fn work_kind(&self) -> ShardWorkKind {
        ShardWorkKind::of_epoch(&self.epoch)
    }

    fn claim_path(&self) -> PathBuf {
        self.epoch_dir.join(claim_name(self.shard))
    }

    /// Atomically claims the shard for evaluation by this process, minting a
    /// fencing token for the claim (see [`ClaimInfo::fence`]), by the same
    /// rule as [`ShardDataPlane`]'s claims with the flow's
    /// [`SHARD_CLAIM_STALE_AFTER`] bound. Returns `false` when the rule
    /// refuses it: another worker holds a live claim, the shard is finished,
    /// or the epoch has been disposed of in the meantime.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on filesystem
    /// failures other than the ordinary lost race.
    pub fn try_claim(&mut self, owner: &str) -> Result<bool, StoreError> {
        let claimed = claim_shard(&self.epoch_dir, self.shard, owner, SHARD_CLAIM_STALE_AFTER)?;
        let Some((info, _)) = claimed else {
            return Ok(false);
        };
        self.claimed = Some(info);
        Ok(true)
    }

    /// Starts a heartbeat on this shard's claim (see [`crate::ClaimHeartbeat`]),
    /// so a slow evaluation never goes stale and is not taken over.
    pub fn start_claim_heartbeat(&self, interval: Duration) -> crate::ClaimHeartbeat {
        crate::ClaimHeartbeat::start(self.claim_path(), interval)
    }

    /// Loads the shard's typed payload; `None` when the epoch was closed
    /// (the submitter assembled the batch without this shard — nothing left
    /// to do).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Json`] when an existing task file is malformed
    /// or carries a shape this build does not know (such as the retired
    /// single-point variation task): the worker declines it.
    pub fn load_work(&self) -> Result<Option<ShardWork>, StoreError> {
        let path = self.epoch_dir.join(task_name(self.shard));
        if !path.is_file() {
            return Ok(None);
        }
        let work: ShardWork = read_json(&path)?;
        Ok(Some(work))
    }

    /// Atomically writes the shard's typed outcome and releases this
    /// worker's claim. Returns whether the result was accepted: `false`
    /// means this worker's claim was taken over while it worked (it went
    /// stale) and the result was **discarded** — the thief
    /// re-services the shard with an identical outcome, so the caller
    /// treats this as a skip, not a failure.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the result
    /// cannot be written (e.g. the epoch was closed mid-evaluation; the
    /// submitter no longer needs the result, so callers treat this as a
    /// skip too).
    pub fn submit_outcome(&self, outcome: &ShardOutcome) -> Result<bool, StoreError> {
        commit_outcome(&self.epoch_dir, self.shard, self.claimed.as_ref(), outcome)
    }

    /// Releases this worker's claim without submitting a result (e.g. the
    /// task file vanished after the claim). Compare-and-delete: a claim
    /// that already changed hands is left untouched.
    pub fn release(&self) {
        match &self.claimed {
            Some(mine) => {
                let _ = break_claim_file(&self.epoch_dir, &self.claim_path(), mine);
            }
            None => {
                let _ = fs::remove_file(self.claim_path());
            }
        }
    }
}

impl Store {
    /// Scans for claimable shard evaluation tasks: published shards of
    /// `Running` runs that have no result and no claim yet, in deterministic
    /// (run, epoch, shard) order.
    ///
    /// Workers iterate the list and [`ShardTask::try_claim`] each candidate;
    /// a lost race simply moves on to the next. A shard whose claim holder
    /// died is not offered: the submitter's next claim of it takes the
    /// stale claim over.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the runs directory cannot be read
    /// (individual unreadable runs are skipped).
    pub fn open_shard_tasks(&self) -> Result<Vec<ShardTask>, StoreError> {
        let mut tasks = Vec::new();
        for run_id in self.run_ids()? {
            // Cheap checks first: workers poll this scan every tick, and a
            // store full of finished runs must cost stats, not JSON manifest
            // parses. Runs without open epochs (the overwhelming majority —
            // `close_epoch`/`sweep_shards` remove empty `shards/` dirs) are
            // dismissed before their manifest is ever read.
            let Ok(handle) = self.run(&run_id) else {
                continue;
            };
            let shards = handle.shards_dir();
            if !shards.is_dir() {
                continue;
            }
            let Ok(epochs) = read_dir_sorted(&shards) else {
                continue;
            };
            if epochs.is_empty() {
                continue;
            }
            // Only the claim-holding flow of a Running run publishes shards;
            // anything else has no live epochs worth scanning.
            if handle.status().ok() != Some(RunStatus::Running) {
                continue;
            }
            for epoch_dir in epochs {
                if !epoch_dir.is_dir() {
                    continue;
                }
                let Some(epoch) = epoch_dir
                    .file_name()
                    .and_then(|n| n.to_str())
                    .map(String::from)
                else {
                    continue;
                };
                let Ok(entries) = read_dir_sorted(&epoch_dir) else {
                    continue;
                };
                for path in entries {
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    let Some(shard) = parse_task_name(name) else {
                        continue;
                    };
                    if epoch_dir.join(result_name(shard)).is_file()
                        || epoch_dir.join(claim_name(shard)).is_file()
                    {
                        continue;
                    }
                    tasks.push(ShardTask {
                        run_id: run_id.clone(),
                        epoch: epoch.clone(),
                        shard,
                        epoch_dir: epoch_dir.clone(),
                        claimed: None,
                    });
                }
            }
        }
        Ok(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_moo::{Evaluation, GaConfig, OptimizerConfig, VariationOutcome, VariationPointWork};
    use serde::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store() -> (PathBuf, Store) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "ayb-shards-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let root = std::env::temp_dir().join(unique);
        let store = Store::open(&root).expect("store opens");
        (root, store)
    }

    fn running_run(store: &Store) -> RunHandle {
        store
            .create_run(
                7,
                &OptimizerConfig::Wbga(GaConfig::small_test()),
                &"flow-config",
            )
            .expect("run created")
    }

    fn evaluation(x: f64) -> Option<Evaluation> {
        Some(Evaluation::new(vec![x], vec![x * 2.0]))
    }

    fn eval_work(parameters: &[Vec<f64>]) -> ShardWork {
        ShardWork::Eval {
            parameters: parameters.to_vec(),
        }
    }

    fn eval_outcome(results: Vec<Option<Evaluation>>) -> ShardOutcome {
        ShardOutcome::Eval { results }
    }

    #[test]
    fn publish_claim_submit_fetch_roundtrip() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));

        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 2).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.1], vec![0.2]]))
            .unwrap();
        plane
            .publish_work(&epoch, 1, &eval_work(&[vec![0.3]]))
            .unwrap();
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), None);

        assert!(plane.try_claim(&epoch, 0).unwrap());
        assert!(!plane.try_claim(&epoch, 0).unwrap(), "claims are exclusive");

        let outcome = eval_outcome(vec![evaluation(0.1), None]);
        plane.submit_outcome(&epoch, 0, &outcome).unwrap();
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), Some(outcome));
        // Submitting released the claim, and a finished shard is not
        // claimable again.
        assert!(!plane.try_claim(&epoch, 0).unwrap());

        let summary = run.shard_summary().unwrap();
        assert_eq!(summary.epochs, 1);
        assert_eq!(summary.tasks, 2);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.claimed, 0);

        plane.close_epoch(&epoch).unwrap();
        assert_eq!(run.shard_summary().unwrap(), ShardSummary::default());
        // Closing twice is fine.
        plane.close_epoch(&epoch).unwrap();
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn workers_discover_claim_and_service_tasks() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 2).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.1]]))
            .unwrap();
        plane
            .publish_work(&epoch, 1, &eval_work(&[vec![0.2]]))
            .unwrap();

        let tasks = store.open_shard_tasks().unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].run_id(), run.id());
        assert_eq!(tasks[0].epoch(), epoch);
        assert_eq!((tasks[0].shard(), tasks[1].shard()), (0, 1));

        // Worker services shard 0 end to end.
        let mut tasks = tasks;
        assert!(tasks[0].try_claim("worker-a").unwrap());
        {
            let mut rival = tasks[0].clone();
            assert!(!rival.try_claim("worker-b").unwrap());
        }
        let task = &tasks[0];
        assert_eq!(task.load_work().unwrap(), Some(eval_work(&[vec![0.1]])));
        assert!(task
            .submit_outcome(&eval_outcome(vec![evaluation(0.1)]))
            .unwrap());
        assert_eq!(
            plane.fetch_outcome(&epoch, 0).unwrap(),
            Some(eval_outcome(vec![evaluation(0.1)]))
        );

        // Serviced and claimed shards disappear from the scan.
        assert!(tasks[1].try_claim("worker-c").unwrap());
        assert!(store.open_shard_tasks().unwrap().is_empty());
        tasks[1].release();
        assert_eq!(store.open_shard_tasks().unwrap().len(), 1);

        // Tasks of non-Running runs are never offered.
        run.set_status(RunStatus::Interrupted).unwrap();
        assert!(store.open_shard_tasks().unwrap().is_empty());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fenced_off_stale_writer_result_is_discarded() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let zombie = run.shard_plane(Duration::from_secs(30));
        let epoch = zombie.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        zombie
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();
        assert!(zombie.try_claim(&epoch, 0).unwrap());

        // The zombie's heartbeat lapses past the steward's bound, so the
        // steward's claim takes the shard over at a higher fence.
        let steward = run.shard_plane(Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(80));
        assert!(steward.try_claim(&epoch, 0).unwrap());

        // The zombie wakes up and submits: discarded, not written.
        zombie
            .submit_outcome(&epoch, 0, &eval_outcome(vec![evaluation(-1.0)]))
            .unwrap();
        assert_eq!(zombie.stats().fenced_rejections, 1);
        assert_eq!(steward.fetch_outcome(&epoch, 0).unwrap(), None);

        // The steward's own submission lands as usual.
        steward
            .submit_outcome(&epoch, 0, &eval_outcome(vec![evaluation(0.5)]))
            .unwrap();
        assert_eq!(steward.stats().fenced_rejections, 0);
        assert_eq!(
            steward.fetch_outcome(&epoch, 0).unwrap(),
            Some(eval_outcome(vec![evaluation(0.5)]))
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fenced_off_stale_worker_task_submit_reports_discard() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();

        let mut tasks = store.open_shard_tasks().unwrap();
        assert!(tasks[0].try_claim("worker-hung").unwrap());

        // The hung worker's claim is broken, as a takeover breaks it, and a
        // rival claims the shard.
        let claim_path = root
            .join("runs")
            .join(run.id())
            .join("shards")
            .join(&epoch)
            .join(claim_name(0));
        fs::remove_file(&claim_path).unwrap();
        let mut rival = tasks[0].clone();
        assert!(rival.try_claim("worker-fresh").unwrap());

        // The hung worker finally finishes: its write is refused, and the
        // rival's claim file survives untouched.
        assert!(!tasks[0]
            .submit_outcome(&eval_outcome(vec![evaluation(-1.0)]))
            .unwrap());
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), None);
        assert!(claim_path.is_file(), "successor's claim must survive");

        assert!(rival
            .submit_outcome(&eval_outcome(vec![evaluation(0.5)]))
            .unwrap());
        assert_eq!(
            plane.fetch_outcome(&epoch, 0).unwrap(),
            Some(eval_outcome(vec![evaluation(0.5)]))
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn claiming_a_closed_epoch_is_a_clean_miss() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();
        let tasks = store.open_shard_tasks().unwrap();
        assert_eq!(tasks.len(), 1);

        // The submitter assembles and closes the epoch before the worker
        // gets to the task: the claim must fail gracefully, not error.
        plane.close_epoch(&epoch).unwrap();
        let mut tasks = tasks;
        assert!(!tasks[0].try_claim("late-worker").unwrap());
        assert_eq!(tasks[0].load_work().unwrap(), None);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn dead_worker_shard_claims_are_recovered() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let recorder = Recorder::new();
        let plane = run
            .shard_plane(Duration::from_secs(30))
            .with_recorder(recorder.clone());
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();

        // Forge a claim from a dead process on this host (no Linux pid is
        // ever u32::MAX), at fence 1.
        let dead = ClaimInfo {
            owner: "dead-shard-worker".to_string(),
            pid: u32::MAX,
            host: crate::local_host().to_string(),
            claimed_unix: crate::now_unix(),
            fence: 1,
        };
        let epoch_dir = run.shards_dir().join(&epoch);
        crate::write_json(&epoch_dir.join(fence_name(0)), &1u64).unwrap();
        crate::write_json(&epoch_dir.join(claim_name(0)), &dead).unwrap();

        // The next claim takes the dead claim over at the next fence and
        // reports the takeover.
        assert!(plane.try_claim(&epoch, 0).unwrap());
        let held = read_claim_file(&epoch_dir.join(claim_name(0))).unwrap();
        assert_eq!(
            held.map(|claim| (claim.pid, claim.fence)),
            Some((std::process::id(), 2))
        );
        let recovered: Vec<_> = recorder
            .recent()
            .into_iter()
            .filter(|event| event.kind == event_kind::SHARD_RECOVER)
            .collect();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].fence, Some(1));
        assert!(recovered[0].detail.contains("dead-shard-worker"));
        // A live claim (ours) is never taken over: fresh heartbeat, live pid.
        assert!(!plane.try_claim(&epoch, 0).unwrap());
        assert!(!run
            .shard_plane(Duration::from_secs(30))
            .try_claim(&epoch, 0)
            .unwrap());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn foreign_host_claims_go_stale_by_heartbeat_age() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_millis(50));
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();

        let foreign = ClaimInfo {
            owner: "worker-on-another-box".to_string(),
            pid: std::process::id(), // same pid, *different* host
            host: "some-other-host".to_string(),
            claimed_unix: crate::now_unix(),
            fence: 1,
        };
        let claim_path = run.shards_dir().join(&epoch).join(claim_name(0));
        crate::write_json(&claim_path, &foreign).unwrap();

        // Fresh heartbeat: the foreign worker is presumed alive.
        assert!(!plane.try_claim(&epoch, 0).unwrap());
        // Stale heartbeat: presumed dead, claim taken over.
        std::thread::sleep(Duration::from_millis(80));
        assert!(plane.try_claim(&epoch, 0).unwrap());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn sweep_shards_clears_stale_epochs() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));
        for _ in 0..3 {
            let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
            plane
                .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
                .unwrap();
        }
        assert_eq!(run.shard_summary().unwrap().epochs, 3);
        assert_eq!(run.sweep_shards().unwrap(), 3);
        assert_eq!(run.shard_summary().unwrap(), ShardSummary::default());
        assert_eq!(run.sweep_shards().unwrap(), 0, "second sweep is a no-op");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn typed_variation_work_roundtrips_over_the_plane() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));

        let epoch = plane.open_typed_epoch(ShardWorkKind::Variation, 1).unwrap();
        assert!(
            epoch.starts_with("var-"),
            "variation epochs are name-tagged: {epoch}"
        );
        let work = ShardWork::VariationBatch {
            points: vec![VariationPointWork {
                parameters: vec![0.25, 0.75],
                mc_seed: 0xfeed_beef,
            }],
        };
        plane.publish_work(&epoch, 0, &work).unwrap();

        // The worker view sees the typed payload.
        let tasks = store.open_shard_tasks().unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].work_kind(), ShardWorkKind::Variation);
        assert_eq!(tasks[0].load_work().unwrap(), Some(work.clone()));
        assert_eq!(work.kind(), ShardWorkKind::Variation);

        // Claim, service, fetch: the opaque data payload survives verbatim.
        let mut tasks = tasks;
        assert!(tasks[0].try_claim("variation-worker").unwrap());
        let outcome = ShardOutcome::VariationBatch {
            points: vec![VariationOutcome {
                data: Some(Value::Object(vec![(
                    "gain_db".to_string(),
                    Value::Float(61.5),
                )])),
                elapsed_seconds: 0.125,
            }],
        };
        assert!(tasks[0].submit_outcome(&outcome).unwrap());
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), Some(outcome));

        let summary = run.shard_summary().unwrap();
        assert_eq!(summary.epochs, 1);
        assert_eq!(summary.variation_epochs, 1);
        assert_eq!(summary.tasks, 1);
        assert_eq!(summary.completed, 1);

        plane.close_epoch(&epoch).unwrap();
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn eval_epochs_stay_untagged_and_uncounted_as_variation() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let plane = run.shard_plane(Duration::from_secs(30));
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        assert!(epoch.starts_with("ep-"));
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.5]]))
            .unwrap();
        let summary = run.shard_summary().unwrap();
        assert_eq!(summary.epochs, 1);
        assert_eq!(summary.variation_epochs, 0);
        assert_eq!(
            store.open_shard_tasks().unwrap()[0].work_kind(),
            ShardWorkKind::Eval
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn variation_checkpoints_roundtrip_and_sweep() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        assert!(run.variation_checkpoint_indices().unwrap().is_empty());

        // Record types are the caller's own; the store is agnostic.
        run.save_variation_checkpoint(7, &vec![1.5f64, 2.5])
            .unwrap();
        run.save_variation_checkpoint(2, &vec![0.5f64]).unwrap();
        assert_eq!(run.variation_checkpoint_indices().unwrap(), vec![2, 7]);
        let restored: Vec<f64> = run.load_variation_checkpoint(7).unwrap();
        assert_eq!(restored, vec![1.5, 2.5]);

        // Generation checkpoints and variation checkpoints never collide.
        assert!(run.checkpoint_generations().unwrap().is_empty());

        assert_eq!(run.sweep_variation_checkpoints().unwrap(), 2);
        assert!(run.variation_checkpoint_indices().unwrap().is_empty());
        assert_eq!(run.sweep_variation_checkpoints().unwrap(), 0);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn plane_telemetry_reconciles_with_its_counters() {
        let (root, store) = temp_store();
        let run = running_run(&store);
        let recorder = Recorder::new();
        let plane = run
            .shard_plane(Duration::from_secs(30))
            .with_recorder(recorder.clone());
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 2).unwrap();
        for shard in 0..2 {
            plane
                .publish_work(&epoch, shard, &eval_work(&[vec![0.5]]))
                .unwrap();
        }
        assert!(plane.try_claim(&epoch, 0).unwrap());

        // Steal the claim; the plane's own submit must be fenced and the
        // event stream must say so, at the same count as the counter.
        let claim_path = run.shards_dir().join(&epoch).join(claim_name(0));
        fs::remove_file(&claim_path).unwrap();
        let thief = run.shard_plane(Duration::from_secs(30));
        assert!(thief.try_claim(&epoch, 0).unwrap());
        plane
            .submit_outcome(&epoch, 0, &eval_outcome(vec![evaluation(0.5)]))
            .unwrap();
        assert_eq!(plane.stats().fenced_rejections, 1);

        let events = recorder.recent();
        let fenced: Vec<_> = events
            .iter()
            .filter(|e| e.kind == event_kind::SHARD_FENCED)
            .collect();
        assert_eq!(fenced.len() as u64, plane.stats().fenced_rejections);
        assert_eq!(fenced[0].epoch.as_deref(), Some(epoch.as_str()));
        assert_eq!(fenced[0].shard, Some(0));
        assert_eq!(fenced[0].run_id.as_deref(), Some(run.id()));
        assert!(fenced[0].fence.is_some());
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == event_kind::SHARD_CLAIM)
                .count(),
            1
        );

        // A clean claim/submit cycle feeds the claim-to-submit histogram.
        assert!(plane.try_claim(&epoch, 1).unwrap());
        plane
            .submit_outcome(&epoch, 1, &eval_outcome(vec![evaluation(0.5)]))
            .unwrap();
        let histogram = recorder
            .metrics()
            .histogram("ayb_claim_to_submit_seconds")
            .expect("histogram exists");
        assert_eq!(histogram.count(), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn task_names_roundtrip() {
        assert_eq!(parse_task_name(&task_name(0)), Some(0));
        assert_eq!(parse_task_name(&task_name(123)), Some(123));
        assert_eq!(parse_task_name("shard_0001.result.json"), None);
        assert_eq!(parse_task_name("shard_x.task.json"), None);
        assert_eq!(parse_task_name("claim.json"), None);
    }
}
