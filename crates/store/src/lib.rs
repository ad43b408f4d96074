//! # ayb-store — a filesystem-backed persistent run store
//!
//! The model-generation flow is long-running and seed-deterministic; this
//! crate makes its runs *durable* and *addressable* so that a crash, kill or
//! deliberate pause loses nothing. A [`Store`] lays every run out on disk as
//!
//! ```text
//! <root>/runs/<run_id>/
//!     manifest.json              # id, seed, optimiser + flow config, status
//!     checkpoints/gen_0001.json  # one snapshot per completed generation
//!     checkpoints/gen_0002.json
//!     ...
//!     checkpoints/archive.jsonl  # the evaluation archive, appended per save
//!     result.json                # the final FlowResult, once completed
//! ```
//!
//! * the **manifest** ([`Manifest`]) records everything needed to recreate
//!   the run: the RNG seed, the serialized
//!   [`ayb_moo::OptimizerConfig`] (including any
//!   early-stopping criterion) and the flow configuration — the latter as a
//!   caller-supplied type parameter so this crate stays independent of the
//!   flow layer;
//! * **checkpoints** store the [`ayb_moo::Checkpoint`] emitted at every
//!   generation boundary as a small snapshot plus the evaluations the
//!   generation added, appended to one archive log; resuming from the
//!   latest one continues the exact run (bit-identical result to an
//!   uninterrupted run). [`RunHandle::save_checkpoint`] and
//!   [`RunHandle::latest_checkpoint`] give the layout, the replay and the
//!   torn-file rules;
//! * the **result** is whatever serializable artefact the flow produces.
//!
//! All files are JSON via the workspace's vendored `serde_json` (floats use
//! shortest-round-trip formatting, so `f64` state survives losslessly):
//! indented for manifests, compact for everything else. Every write but the
//! archive log's append is atomic (temp file + rename), so a run killed
//! mid-write never leaves a torn manifest or snapshot behind — at worst a
//! stale `.tmp` file that readers ignore (and [`Store::sweep_tmp_files`]
//! removes) or log bytes past the newest snapshot, which readers ignore and
//! the next save truncates.
//!
//! ## Serving many runs
//!
//! The store is also the source of truth for the job-server layer
//! (`ayb_jobs`): runs can be *enqueued* ([`Store::enqueue_run`], status
//! [`RunStatus::Queued`]) without being executed, scanned in FIFO order
//! ([`Store::queued_run_ids`]) and *claimed* for exclusive execution
//! ([`RunHandle::try_claim`]). A claim is a `claim.json` lock file created
//! atomically (`hard_link` of a fully written temp file, so claims are both
//! exclusive and never torn): two workers — or two server processes — racing
//! for the same run see exactly one winner. Claims record the owning process
//! so that claims left behind by a killed worker can be detected
//! ([`ClaimInfo::holder_alive`]) and the run re-queued.
//!
//! Claims carry a *heartbeat*: holders refresh the claim file's modification
//! time from a background thread ([`ClaimHeartbeat`],
//! [`RunHandle::start_claim_heartbeat`]), so recovery can tell a
//! slow-but-alive holder (fresh heartbeat) from a hung or vanished one
//! (stale heartbeat) — including holders on *other machines*, whose pids
//! cannot be probed ([`RunHandle::claim_health`], [`ClaimHealth`]).
//!
//! ## Sharded evaluation (the data plane)
//!
//! Queued runs distribute whole flows; the [`shards`] module additionally
//! distributes the *evaluation work inside one run*: a sharded flow
//! publishes each optimiser population as claimable shard tasks under
//! `runs/<id>/shards/`, and any number of worker processes — on this or
//! other machines sharing the store — evaluate them
//! ([`ShardDataPlane`], [`ShardTask`], [`Store::open_shard_tasks`]).
//!
//! The flow layer (`ayb_core::FlowBuilder::with_store` / `resume`), the job
//! server (`ayb_jobs::JobServer`) and the `ayb` CLI (`run` / `resume` /
//! `serve` / `submit` / `status` / `list` / `show` / `gc`) are the consumers.
//!
//! ```
//! use ayb_moo::{GaConfig, OptimizerConfig};
//! use ayb_store::{RunStatus, Store};
//!
//! # fn main() -> Result<(), ayb_store::StoreError> {
//! let root = std::env::temp_dir().join(format!("ayb-store-doc-{}", std::process::id()));
//! let store = Store::open(&root)?;
//! let run = store.create_run(7, &OptimizerConfig::Wbga(GaConfig::small_test()), &"config")?;
//! assert_eq!(run.id(), "run-0001");
//! assert_eq!(store.run_ids()?, vec!["run-0001".to_string()]);
//!
//! // Claim the run for exclusive execution, then finish it.
//! let claim = run.try_claim("docs-worker")?;
//! assert_eq!(claim.pid, std::process::id());
//! run.save_result(&"the result")?;
//! run.set_status(RunStatus::Completed)?;
//! run.release_claim()?;
//! # let _ = std::fs::remove_dir_all(root);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
mod checkpoints;
pub mod shards;

pub use ayb_moo::{
    ShardOutcome, ShardWork, ShardWorkKind, TransportStats, VariationOutcome, VariationPointWork,
};
pub use cache::{CacheEntry, CacheGcReport, ResultCache};
pub use checkpoints::SavedCheckpoint;
pub use shards::{ShardDataPlane, ShardSummary, ShardTask};

use ayb_moo::OptimizerConfig;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Errors produced by store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying error message.
        message: String,
    },
    /// A file held malformed JSON or JSON of the wrong shape.
    Json {
        /// Path of the offending file.
        path: PathBuf,
        /// Underlying error message.
        message: String,
    },
    /// The requested run does not exist.
    RunNotFound(String),
    /// A run with the requested id already exists.
    RunExists(String),
    /// The run id contains characters unsafe for a directory name.
    InvalidRunId(String),
    /// The run has no `result.json` (it never completed).
    NoResult(String),
    /// The run already has a result; executing it again is pointless.
    AlreadyCompleted(String),
    /// The run is claimed for execution by another worker or process.
    RunClaimed {
        /// Id of the claimed run.
        run_id: String,
        /// Owner label recorded in the claim file.
        owner: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store I/O error at {}: {message}", path.display())
            }
            StoreError::Json { path, message } => {
                write!(f, "store JSON error at {}: {message}", path.display())
            }
            StoreError::RunNotFound(id) => write!(f, "run `{id}` not found in the store"),
            StoreError::RunExists(id) => write!(f, "run `{id}` already exists in the store"),
            StoreError::InvalidRunId(id) => write!(
                f,
                "invalid run id `{id}`: use 1-64 characters from [A-Za-z0-9._-], not starting with `.`"
            ),
            StoreError::NoResult(id) => write!(f, "run `{id}` has no result yet"),
            StoreError::AlreadyCompleted(id) => {
                write!(f, "run `{id}` already has a result; nothing to execute")
            }
            StoreError::RunClaimed { run_id, owner } => {
                write!(f, "run `{run_id}` is claimed by `{owner}`")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_error(path: &Path, error: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: error.to_string(),
    }
}

fn json_error(path: &Path, error: impl fmt::Display) -> StoreError {
    StoreError::Json {
        path: path.to_path_buf(),
        message: error.to_string(),
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A staging-file name segment unique across threads, processes *and hosts*
/// sharing one store: hostname hash + pid + per-process counter. Pids alone
/// collide between machines mounting the same store path, and a shared
/// staging name would let one writer truncate another's temp file mid-write
/// — publishing a torn "atomic" file.
fn unique_write_token() -> String {
    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static HOST_HASH: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let host_hash = HOST_HASH.get_or_init(|| {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in local_host().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    });
    format!(
        "{:08x}-{}-{}",
        host_hash & 0xffff_ffff,
        std::process::id(),
        NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    )
}

/// Writes `text` to `path` atomically (temp file in the same directory,
/// then rename), so concurrent readers and crashes never observe a torn
/// file. The temp name is unique per writer ([`unique_write_token`]), so
/// even two processes writing the *same* target concurrently — e.g. a
/// recovered shard re-evaluated while its slow original worker finishes —
/// each rename a complete file (last one wins, both readable).
fn write_atomic(path: &Path, text: &str) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".{}.tmp", unique_write_token()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, text).map_err(|e| io_error(&tmp, e))?;
    let renamed = fs::rename(&tmp, path).map_err(|e| io_error(path, e));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, StoreError> {
    let text = fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    serde_json::from_str(&text).map_err(|e| json_error(path, e))
}

/// Writes `value` as compact JSON: checkpoints, results, cache files and
/// shard files are read by programs, and indentation only adds bytes to
/// every write and read.
fn write_json<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), StoreError> {
    let text = serde_json::to_string(value).map_err(|e| json_error(path, e))?;
    write_atomic(path, &text)
}

/// Writes `value` as indented JSON, for the files people read: manifests.
fn write_json_pretty<T: Serialize + ?Sized>(path: &Path, value: &T) -> Result<(), StoreError> {
    let text = serde_json::to_string_pretty(value).map_err(|e| json_error(path, e))?;
    write_atomic(path, &text)
}

// ---------------------------------------------------------------------------
// Claim machinery (shared by run claims and shard claims)
// ---------------------------------------------------------------------------

/// Atomically takes the claim lock file at `path` (scratch files staged in
/// `dir`): `Ok(true)` when this process now holds the claim, `Ok(false)`
/// when somebody else does — or the parent directory disappeared, which for
/// claims means the claimable thing itself is gone.
fn take_claim_file(dir: &Path, path: &Path, info: &ClaimInfo) -> Result<bool, StoreError> {
    let text = serde_json::to_string_pretty(info).map_err(|e| json_error(path, e))?;
    let tmp = dir.join(format!(".claim-{}.tmp", unique_write_token()));
    match fs::write(&tmp, text) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_error(&tmp, e)),
    }
    let linked = fs::hard_link(&tmp, path);
    let _ = fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_error(path, e)),
    }
}

/// Mints the next fencing token from a fence file (a JSON counter living
/// next to the claim file it fences): reads the current value (0 when the
/// file does not exist yet), advances it, writes it back atomically and
/// returns it. Callers stamp the token into their [`ClaimInfo`] *before*
/// taking the claim, so by the time a claim with token `t` is visible, the
/// counter is at least `t` and every later successful claim carries a
/// different token. (Two racing minters can read the same value, but only
/// one of them wins the claim link — the loser's token is never written
/// into a claim, so claim tokens stay unique.)
///
/// # Errors
///
/// Returns [`StoreError::Io`]/[`StoreError::Json`] when the fence file
/// exists but cannot be read, or cannot be written.
pub fn next_fence(fence_path: &Path) -> Result<u64, StoreError> {
    let current: u64 = if fence_path.is_file() {
        read_json(fence_path)?
    } else {
        0
    };
    let fence = current + 1;
    write_json(fence_path, &fence)?;
    Ok(fence)
}

/// Reads the claim at `path`, `None` when no claim exists.
fn read_claim_file(path: &Path) -> Result<Option<ClaimInfo>, StoreError> {
    match fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| json_error(path, e)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_error(path, e)),
    }
}

/// Compare-and-delete of the claim at `path` (scratch staged in `dir`): the
/// claim is broken only if it still matches `expected`. See
/// [`RunHandle::break_claim`] for the race analysis.
fn break_claim_file(dir: &Path, path: &Path, expected: &ClaimInfo) -> Result<bool, StoreError> {
    // Cheap pre-check: if the claim already changed hands since the caller
    // read it (recovery scans can be seconds old), never touch the file.
    if read_claim_file(path)?.as_ref() != Some(expected) {
        return Ok(false);
    }
    let staging = dir.join(format!("claim.breaking-{}", unique_write_token()));
    match fs::rename(path, &staging) {
        Ok(()) => {}
        // Already released or broken by somebody else.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_error(path, e)),
    }
    let current: Option<ClaimInfo> = fs::read_to_string(&staging)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    if current.as_ref() == Some(expected) {
        let _ = fs::remove_file(&staging);
        return Ok(true);
    }
    // The claim changed hands between the pre-check and the rename —
    // restore it. The hard_link only fails if yet another claim landed in
    // the meantime, in which case the newer claim stays authoritative.
    let _ = fs::hard_link(&staging, path);
    let _ = fs::remove_file(&staging);
    Ok(false)
}

/// Modification-time age of the file at `path` (the claim heartbeat signal),
/// `None` when the file does not exist or the clock is unreadable.
fn file_mtime_age(path: &Path) -> Option<Duration> {
    let mtime = fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(mtime).ok()
}

/// Refreshes the modification time of the claim file at `path` to "now".
/// Errors (e.g. the claim was released concurrently) are ignored — a missed
/// heartbeat tick is harmless.
fn touch_claim_file(path: &Path) {
    if let Ok(file) = fs::OpenOptions::new().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

/// A background thread refreshing a claim — the claim *heartbeat* — every
/// `interval`, until the guard is dropped: [`ClaimHeartbeat::start`]
/// touches the claim file's modification time, and [`ClaimHeartbeat::new`]
/// runs any beat, such as a network claim's heartbeat to its coordinator.
///
/// Liveness of a claim holder is judged two ways: by pid (authoritative, but
/// only on the holder's own host) and by the claim file's modification time
/// (works across hosts sharing the store, and distinguishes a *slow but
/// alive* holder — fresh heartbeat — from a *hung or vanished* one — stale
/// heartbeat). Long-running holders keep a heartbeat guard alive for as long
/// as they hold the claim; see [`RunHandle::start_claim_heartbeat`].
#[derive(Debug)]
pub struct ClaimHeartbeat {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ClaimHeartbeat {
    /// Starts a heartbeat thread touching `path` every `interval`.
    pub fn start(path: PathBuf, interval: Duration) -> ClaimHeartbeat {
        ClaimHeartbeat::new(interval, move || touch_claim_file(&path))
    }

    /// Starts a heartbeat thread calling `beat` every `interval`. The beat
    /// runs without the guard's lock held, so dropping the guard waits for
    /// at most the beat in flight.
    pub fn new(interval: Duration, mut beat: impl FnMut() + Send + 'static) -> ClaimHeartbeat {
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (lock, wake) = &*thread_stop;
            loop {
                let stopped = lock.lock().expect("heartbeat lock");
                let (stopped, _) = wake
                    .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                    .expect("heartbeat lock");
                if *stopped {
                    return;
                }
                drop(stopped);
                beat();
            }
        });
        ClaimHeartbeat {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for ClaimHeartbeat {
    fn drop(&mut self) {
        let (lock, wake) = &*self.stop;
        *lock.lock().expect("heartbeat lock") = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Lifecycle state of a stored run.
///
/// A killed process cannot update its own manifest, so a crashed run keeps
/// the `Running` status it had when it died — `Interrupted` is only recorded
/// for *deliberate* halts at a checkpoint boundary. Both resume the same way.
///
/// `Queued` runs have a manifest but were never started: `ayb submit` /
/// [`Store::enqueue_run`] create them for a job server to claim and execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunStatus {
    /// The run is waiting in the queue; no process has executed it yet.
    Queued,
    /// The flow is (or was, if the process died) executing.
    Running,
    /// The flow was deliberately halted at a checkpoint boundary.
    Interrupted,
    /// The flow finished and `result.json` was written.
    Completed,
    /// The flow failed with an error.
    Failed,
}

impl RunStatus {
    /// Stable lower-case name for display and scripting.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Interrupted => "interrupted",
            RunStatus::Completed => "completed",
            RunStatus::Failed => "failed",
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The durable description of one run (`manifest.json`).
///
/// `C` is the flow-level configuration type (the flow layer uses its
/// `FlowConfig`); keeping it generic lets this crate sit below the flow in
/// the dependency graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest<C> {
    /// Identifier of the run (also its directory name).
    pub run_id: String,
    /// Lifecycle state.
    pub status: RunStatus,
    /// RNG seed the optimiser ran with (also recorded inside `optimizer`).
    pub seed: u64,
    /// Creation time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Last status change, seconds since the Unix epoch.
    pub updated_unix: u64,
    /// The optimisation algorithm and its full settings, including any
    /// early-stopping criterion — a resumed run honours them exactly.
    pub optimizer: OptimizerConfig,
    /// The flow-level configuration.
    pub flow: C,
}

/// A filesystem-backed store of runs (see the crate docs for the layout).
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

const MANIFEST_FILE: &str = "manifest.json";
const RESULT_FILE: &str = "result.json";
const CLAIM_FILE: &str = "claim.json";
const CLAIM_FENCE_FILE: &str = "claim.fence.json";

/// Per-run transport diagnostic report (see
/// [`RunHandle::save_transport_report`]).
const TRANSPORT_REPORT_FILE: &str = "transport.json";
/// Per-run append-only telemetry log (see [`RunHandle::events_path`]).
const EVENTS_FILE: &str = "events.jsonl";
const CHECKPOINT_DIR: &str = "checkpoints";
const VARIATION_CHECKPOINT_PREFIX: &str = "variation_";

/// Attempts [`Store::create_run`] makes before giving up when racing other
/// creators for sequential ids.
const CREATE_RUN_ATTEMPTS: usize = 256;

/// Sort key that orders `run-9999` before `run-10000`: the id is split into
/// a stem and its trailing decimal digits, and the digits compare
/// numerically. Ids without a numeric suffix fall back to plain string
/// order; the full id breaks remaining ties (e.g. `run-001` vs `run-1`).
fn run_id_sort_key(id: &str) -> (&str, Option<u64>, &str) {
    let digits = id.chars().rev().take_while(char::is_ascii_digit).count();
    let (stem, suffix) = id.split_at(id.len() - digits);
    (stem, suffix.parse::<u64>().ok(), id)
}

/// Whether `key` is one of the core `Manifest` fields, which extras may
/// never shadow (a `status` "extra" silently diverging from the real status
/// would corrupt the lifecycle).
fn manifest_core_key(key: &str) -> bool {
    matches!(
        key,
        "run_id" | "status" | "seed" | "created_unix" | "updated_unix" | "optimizer" | "flow"
    )
}

fn valid_run_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && !id.starts_with('.')
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Store {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        let runs = root.join("runs");
        fs::create_dir_all(&runs).map_err(|e| io_error(&runs, e))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn runs_dir(&self) -> PathBuf {
        self.root.join("runs")
    }

    /// All run ids in the store, sorted with numeric awareness: sequential
    /// ids order by their number (`run-9999` before `run-10000`), so listings
    /// and "latest run" consumers stay correct past four digits; ids without
    /// a numeric suffix sort lexicographically among themselves.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the runs directory cannot be read.
    pub fn run_ids(&self) -> Result<Vec<String>, StoreError> {
        let runs = self.runs_dir();
        let entries = fs::read_dir(&runs).map_err(|e| io_error(&runs, e))?;
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&runs, e))?;
            let is_dir = entry
                .file_type()
                .map_err(|e| io_error(&entry.path(), e))?
                .is_dir();
            if !is_dir {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if valid_run_id(name) {
                    ids.push(name.to_string());
                }
            }
        }
        ids.sort_by(|a, b| run_id_sort_key(a).cmp(&run_id_sort_key(b)));
        Ok(ids)
    }

    /// The next sequential run id (`run-0001`, `run-0002`, ...) that
    /// [`Store::create_run`] would allocate.
    ///
    /// The id is not reserved; a concurrent creator racing for it is
    /// resolved by [`Store::create_run_with_id`] failing with
    /// [`StoreError::RunExists`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the runs directory cannot be read.
    pub fn next_run_id(&self) -> Result<String, StoreError> {
        let highest = self
            .run_ids()?
            .iter()
            .filter_map(|id| id.strip_prefix("run-")?.parse::<u64>().ok())
            .max()
            .unwrap_or(0);
        Ok(format!("run-{:04}", highest + 1))
    }

    /// Creates a run with a fresh sequential id and writes its manifest
    /// (status [`RunStatus::Running`]).
    ///
    /// Safe under concurrency: when several creators race for the same
    /// sequential id, the losers transparently retry with the next id
    /// instead of surfacing a spurious [`StoreError::RunExists`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on filesystem or
    /// serialization failures.
    pub fn create_run<C: Serialize>(
        &self,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
    ) -> Result<RunHandle, StoreError> {
        self.create_sequential(seed, optimizer, flow, RunStatus::Running, &[])
    }

    /// Creates a run with a fresh sequential id and status
    /// [`RunStatus::Queued`]: the run is recorded but not executed, waiting
    /// for a job server's worker to claim it. Retries on id races exactly
    /// like [`Store::create_run`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on filesystem or
    /// serialization failures.
    pub fn enqueue_run<C: Serialize>(
        &self,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
    ) -> Result<RunHandle, StoreError> {
        self.enqueue_run_with_extras(seed, optimizer, flow, &[])
    }

    /// [`Store::enqueue_run`] with additional manifest keys written
    /// atomically alongside the core manifest — there is no window in which
    /// the run is visible to a polling job server without them. The service
    /// plane uses this for its `tenant`/`priority`/`submission_digest`
    /// annotations; [`RunHandle::set_status`] and every other manifest
    /// rewrite preserve such extra keys. Extras shadowing a core manifest
    /// key (`run_id`, `status`, `seed`, `created_unix`, `updated_unix`,
    /// `optimizer`, `flow`) are ignored.
    ///
    /// # Errors
    ///
    /// As [`Store::enqueue_run`].
    pub fn enqueue_run_with_extras<C: Serialize>(
        &self,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
        extras: &[(String, Value)],
    ) -> Result<RunHandle, StoreError> {
        self.create_sequential(seed, optimizer, flow, RunStatus::Queued, extras)
    }

    /// Creates a run under a caller-chosen id with status
    /// [`RunStatus::Queued`] (the scripting companion of
    /// [`Store::enqueue_run`]).
    ///
    /// # Errors
    ///
    /// As [`Store::create_run_with_id`].
    pub fn enqueue_run_with_id<C: Serialize>(
        &self,
        id: &str,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
    ) -> Result<RunHandle, StoreError> {
        self.create(id, seed, optimizer, flow, RunStatus::Queued, &[])
    }

    fn create_sequential<C: Serialize>(
        &self,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
        status: RunStatus,
        extras: &[(String, Value)],
    ) -> Result<RunHandle, StoreError> {
        let mut id = self.next_run_id()?;
        for _ in 0..CREATE_RUN_ATTEMPTS {
            match self.create(&id, seed, optimizer, flow, status, extras) {
                Err(StoreError::RunExists(taken)) => {
                    // Lost the id to a concurrent creator; advance past it.
                    let n = taken
                        .strip_prefix("run-")
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(0);
                    id = format!("run-{:04}", n + 1);
                }
                other => return other,
            }
        }
        Err(StoreError::RunExists(id))
    }

    /// Creates a run under a caller-chosen id (useful for scripting).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRunId`] for unsafe ids,
    /// [`StoreError::RunExists`] when the id is taken, and
    /// [`StoreError::Io`]/[`StoreError::Json`] on filesystem or
    /// serialization failures.
    pub fn create_run_with_id<C: Serialize>(
        &self,
        id: &str,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
    ) -> Result<RunHandle, StoreError> {
        self.create(id, seed, optimizer, flow, RunStatus::Running, &[])
    }

    fn create<C: Serialize>(
        &self,
        id: &str,
        seed: u64,
        optimizer: &OptimizerConfig,
        flow: &C,
        status: RunStatus,
        extras: &[(String, Value)],
    ) -> Result<RunHandle, StoreError> {
        if !valid_run_id(id) {
            return Err(StoreError::InvalidRunId(id.to_string()));
        }
        let dir = self.runs_dir().join(id);
        fs::create_dir(&dir).map_err(|e| {
            if e.kind() == io::ErrorKind::AlreadyExists {
                StoreError::RunExists(id.to_string())
            } else {
                io_error(&dir, e)
            }
        })?;
        let checkpoints = dir.join(CHECKPOINT_DIR);
        fs::create_dir(&checkpoints).map_err(|e| io_error(&checkpoints, e))?;

        let now = now_unix();
        let manifest = Manifest {
            run_id: id.to_string(),
            status,
            seed,
            created_unix: now,
            updated_unix: now,
            optimizer: optimizer.clone(),
            flow,
        };
        let handle = RunHandle {
            run_id: id.to_string(),
            dir,
            archive_log: Arc::default(),
        };
        let mut value = manifest.to_value();
        if let Value::Object(pairs) = &mut value {
            for (key, extra) in extras {
                if manifest_core_key(key) || pairs.iter().any(|(k, _)| k == key) {
                    continue;
                }
                pairs.push((key.clone(), extra.clone()));
            }
        }
        write_json_pretty(&handle.manifest_path(), &value)?;
        Ok(handle)
    }

    /// Opens an existing run.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RunNotFound`] when no such run directory (with
    /// a manifest) exists.
    pub fn run(&self, id: &str) -> Result<RunHandle, StoreError> {
        if !valid_run_id(id) {
            return Err(StoreError::InvalidRunId(id.to_string()));
        }
        let dir = self.runs_dir().join(id);
        if !dir.join(MANIFEST_FILE).is_file() {
            return Err(StoreError::RunNotFound(id.to_string()));
        }
        Ok(RunHandle {
            run_id: id.to_string(),
            dir,
            archive_log: Arc::default(),
        })
    }

    /// Ids of all [`RunStatus::Queued`] runs in FIFO order (creation time,
    /// then id order for same-second submissions). Runs whose manifest is
    /// unreadable — e.g. a creator killed between `mkdir` and the manifest
    /// write — are skipped rather than failing the scan.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the runs directory cannot be read.
    pub fn queued_run_ids(&self) -> Result<Vec<String>, StoreError> {
        let queued = self.poll_queued(&mut HashSet::new())?;
        Ok(queued.into_iter().map(|(id, _)| id).collect())
    }

    /// [`Store::queued_run_ids`] for repeated polling, each id with the
    /// manifest the scan parsed (so a caller reads, e.g., its extras without
    /// a second read). Ids in `terminal` are skipped without touching their
    /// manifests, and runs observed `Completed`/`Failed` are added to it. A
    /// job server polling a store with thousands of finished runs therefore
    /// reads each dead manifest once, not once per tick — each poll is
    /// O(live runs).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the runs directory cannot be read.
    pub fn poll_queued(
        &self,
        terminal: &mut HashSet<String>,
    ) -> Result<Vec<(String, Value)>, StoreError> {
        let mut queued: Vec<(u64, usize, String, Value)> = Vec::new();
        for (index, id) in self.run_ids()?.into_iter().enumerate() {
            if terminal.contains(&id) {
                continue;
            }
            let Ok(handle) = self.run(&id) else { continue };
            let Ok(value) = handle.manifest_value() else {
                continue;
            };
            let status = value
                .get("status")
                .and_then(|s| RunStatus::from_value(s).ok());
            match status {
                Some(RunStatus::Queued) => {
                    let created = value
                        .get("created_unix")
                        .and_then(|v| u64::from_value(v).ok())
                        .unwrap_or(0);
                    queued.push((created, index, id, value));
                }
                Some(RunStatus::Completed) | Some(RunStatus::Failed) => {
                    terminal.insert(id);
                }
                _ => {}
            }
        }
        queued.sort_by_key(|(created, index, _, _)| (*created, *index));
        Ok(queued
            .into_iter()
            .map(|(_, _, id, value)| (id, value))
            .collect())
    }

    /// Removes stale `*.tmp` files left behind by killed writers, in every
    /// run directory and checkpoint directory. Only files whose modification
    /// time is at least `min_age` old are touched, so a writer that is
    /// mid-`rename` right now is never raced; pass [`Duration::ZERO`] to
    /// sweep unconditionally. Claim-machinery scratch files are always kept
    /// for at least a minute regardless of `min_age` — deleting one
    /// mid-claim would fail a live worker. Returns the removed paths.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when a directory scan or removal fails
    /// (a file that disappears concurrently is not an error).
    pub fn sweep_tmp_files(&self, min_age: Duration) -> Result<Vec<PathBuf>, StoreError> {
        let mut removed = Vec::new();
        for id in self.run_ids()? {
            let dir = self.runs_dir().join(&id);
            sweep_tmp_dir(&dir, min_age, &mut removed)?;
            sweep_tmp_dir(&dir.join(CHECKPOINT_DIR), min_age, &mut removed)?;
        }
        Ok(removed)
    }
}

/// Claim-machinery scratch files (`.claim-*.tmp` staging for `try_claim`,
/// `claim.breaking-*` staging for `break_claim`) are never swept younger
/// than this, whatever `min_age` the caller asked for: deleting one
/// mid-operation would make a concurrent worker's claim fail spuriously
/// (and the run be reported failed). They only linger when their process
/// died mid-claim, so a minute is plenty.
const CLAIM_SWEEP_FLOOR: Duration = Duration::from_secs(60);

/// Removes `*.tmp` (and orphaned `claim.breaking-*`) files older than
/// `min_age` directly inside `dir`.
fn sweep_tmp_dir(
    dir: &Path,
    min_age: Duration,
    removed: &mut Vec<PathBuf>,
) -> Result<(), StoreError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| io_error(dir, e))?;
    let now = SystemTime::now();
    for entry in entries {
        let entry = entry.map_err(|e| io_error(dir, e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let is_claim_scratch = name.starts_with(".claim-") || name.starts_with("claim.breaking-");
        let sweepable = name.ends_with(".tmp") || name.starts_with("claim.breaking-");
        if !sweepable || !path.is_file() {
            continue;
        }
        let required_age = if is_claim_scratch {
            min_age.max(CLAIM_SWEEP_FLOOR)
        } else {
            min_age
        };
        let age = entry
            .metadata()
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|mtime| now.duration_since(mtime).ok())
            .unwrap_or(Duration::MAX);
        if age < required_age {
            continue;
        }
        match fs::remove_file(&path) {
            Ok(()) => removed.push(path),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_error(&path, e)),
        }
    }
    Ok(())
}

/// Handle to one run directory inside a [`Store`].
///
/// Clones share where the handle's last checkpoint save left the archive
/// log (see [`RunHandle::save_checkpoint`]).
#[derive(Debug, Clone)]
pub struct RunHandle {
    run_id: String,
    dir: PathBuf,
    archive_log: Arc<StdMutex<Option<checkpoints::LogCursor>>>,
}

impl RunHandle {
    /// The run's identifier.
    pub fn id(&self) -> &str {
        &self.run_id
    }

    /// The run's directory on disk.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn result_path(&self) -> PathBuf {
        self.dir.join(RESULT_FILE)
    }

    /// The run's append-only telemetry log (`events.jsonl`). The file is
    /// created by the first event sink aimed at it; it may legitimately not
    /// exist (telemetry disabled, or a run predating the telemetry plane).
    /// Every writer appends complete single-`write` lines (`ayb_obs`'s
    /// `JsonlSink`), so concurrent appends from several processes never
    /// tear.
    pub fn events_path(&self) -> PathBuf {
        self.dir.join(EVENTS_FILE)
    }

    /// Loads the typed manifest.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the manifest is
    /// missing or malformed.
    pub fn manifest<C: Deserialize>(&self) -> Result<Manifest<C>, StoreError> {
        read_json(&self.manifest_path())
    }

    /// Loads the manifest as an untyped JSON value (for listings that do not
    /// know the flow-configuration type).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the manifest is
    /// missing or malformed.
    pub fn manifest_value(&self) -> Result<Value, StoreError> {
        read_json(&self.manifest_path())
    }

    /// The run's current lifecycle status.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Json`] when the manifest lacks a valid status.
    pub fn status(&self) -> Result<RunStatus, StoreError> {
        let value = self.manifest_value()?;
        let status = value
            .get("status")
            .ok_or_else(|| json_error(&self.manifest_path(), "manifest has no `status` field"))?;
        RunStatus::from_value(status).map_err(|e| json_error(&self.manifest_path(), e))
    }

    /// Updates the manifest's status (and `updated_unix`) in place, without
    /// needing to know the flow-configuration type.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the manifest
    /// cannot be read back or rewritten.
    pub fn set_status(&self, status: RunStatus) -> Result<(), StoreError> {
        let mut value = self.manifest_value()?;
        let Value::Object(pairs) = &mut value else {
            return Err(json_error(
                &self.manifest_path(),
                "manifest is not an object",
            ));
        };
        for (key, field) in pairs.iter_mut() {
            match key.as_str() {
                "status" => *field = status.to_value(),
                "updated_unix" => *field = now_unix().to_value(),
                _ => {}
            }
        }
        write_json_pretty(&self.manifest_path(), &value)
    }

    /// Upserts extra (non-core) keys into the manifest, atomically and
    /// without disturbing the typed fields — the read-modify-rewrite
    /// counterpart of [`Store::enqueue_run_with_extras`] for annotations
    /// that change after creation (the service plane's `cancelled` marker).
    /// Keys shadowing a core manifest field are
    /// ignored. Existing extra keys are replaced, new ones appended.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the manifest
    /// cannot be read back or rewritten.
    pub fn merge_manifest_extras(&self, extras: &[(String, Value)]) -> Result<(), StoreError> {
        let mut value = self.manifest_value()?;
        let Value::Object(pairs) = &mut value else {
            return Err(json_error(
                &self.manifest_path(),
                "manifest is not an object",
            ));
        };
        for (key, extra) in extras {
            if manifest_core_key(key) {
                continue;
            }
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, field)) => *field = extra.clone(),
                None => pairs.push((key.clone(), extra.clone())),
            }
        }
        write_json_pretty(&self.manifest_path(), &value)
    }

    /// Reads one extra manifest key (as written by
    /// [`Store::enqueue_run_with_extras`] or
    /// [`RunHandle::merge_manifest_extras`]), or `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the manifest is
    /// missing or malformed.
    pub fn manifest_extra(&self, key: &str) -> Result<Option<Value>, StoreError> {
        Ok(self.manifest_value()?.get(key).cloned())
    }

    fn variation_checkpoint_path(&self, index: usize) -> PathBuf {
        self.dir
            .join(CHECKPOINT_DIR)
            .join(format!("{VARIATION_CHECKPOINT_PREFIX}{index:04}.json"))
    }

    /// Persists one analysed Pareto point's record as
    /// `checkpoints/variation_NNNN.json` (atomically), returning the written
    /// path. The record type is the flow's own (the store is agnostic to
    /// it), typically `ayb_core`'s per-point variation record.
    ///
    /// These per-point checkpoints are what lets an interrupted flow resume
    /// *mid variation stage*: points already on disk are restored instead of
    /// re-analysed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on write failures.
    pub fn save_variation_checkpoint<T: Serialize>(
        &self,
        index: usize,
        record: &T,
    ) -> Result<PathBuf, StoreError> {
        let path = self.variation_checkpoint_path(index);
        write_json(&path, record)?;
        Ok(path)
    }

    /// The Pareto-point indices of all stored variation checkpoints, sorted
    /// ascending. Stale `.tmp` files from a killed writer are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the checkpoint directory cannot be
    /// read.
    pub fn variation_checkpoint_indices(&self) -> Result<Vec<usize>, StoreError> {
        let dir = self.dir.join(CHECKPOINT_DIR);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let entries = fs::read_dir(&dir).map_err(|e| io_error(&dir, e))?;
        let mut indices = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(VARIATION_CHECKPOINT_PREFIX)
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            if let Ok(index) = stem.parse::<usize>() {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        Ok(indices)
    }

    /// Loads the variation checkpoint of a specific Pareto-point index.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when the file is
    /// missing or malformed.
    pub fn load_variation_checkpoint<T: Deserialize>(&self, index: usize) -> Result<T, StoreError> {
        read_json(&self.variation_checkpoint_path(index))
    }

    /// Removes every variation checkpoint, returning how many were removed.
    /// Housekeeping for *completed* runs (`ayb gc`): once `result.json`
    /// exists, the per-point records are dead weight.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when a checkpoint file cannot be removed.
    pub fn sweep_variation_checkpoints(&self) -> Result<usize, StoreError> {
        let indices = self.variation_checkpoint_indices()?;
        let mut removed = 0;
        for &index in &indices {
            let path = self.variation_checkpoint_path(index);
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_error(&path, e)),
            }
        }
        Ok(removed)
    }

    /// Persists the run's final result as `result.json` (atomically).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on write failures.
    pub fn save_result<R: Serialize>(&self, result: &R) -> Result<(), StoreError> {
        write_json(&self.result_path(), result)
    }

    /// Whether the run has a stored result.
    pub fn has_result(&self) -> bool {
        self.result_path().is_file()
    }

    /// Bytes on disk of the run's `result.json`, `None` when it has none.
    pub fn result_bytes(&self) -> Option<u64> {
        fs::metadata(self.result_path()).ok().map(|m| m.len())
    }

    /// Persists the run's transport report as `transport.json` (atomically):
    /// a diagnostic record of the shard data plane's traffic and every
    /// degradation to local evaluation, written by the flow and shown by
    /// `ayb status`. The report never affects results or digests.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on write failures.
    pub fn save_transport_report<R: Serialize>(&self, report: &R) -> Result<(), StoreError> {
        write_json(&self.dir.join(TRANSPORT_REPORT_FILE), report)
    }

    /// Loads the run's transport report as raw JSON, or `None` when the run
    /// never wrote one (unsharded flows, or flows predating the report).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// report is unreadable.
    pub fn transport_report_value(&self) -> Result<Option<Value>, StoreError> {
        let path = self.dir.join(TRANSPORT_REPORT_FILE);
        if !path.is_file() {
            return Ok(None);
        }
        read_json(&path).map(Some)
    }

    /// Loads the run's result.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoResult`] when the run never completed, and
    /// [`StoreError::Io`]/[`StoreError::Json`] on unreadable or malformed
    /// files.
    pub fn load_result<R: Deserialize>(&self) -> Result<R, StoreError> {
        if !self.has_result() {
            return Err(StoreError::NoResult(self.run_id.clone()));
        }
        read_json(&self.result_path())
    }

    fn claim_path(&self) -> PathBuf {
        self.dir.join(CLAIM_FILE)
    }

    /// Atomically claims the run for exclusive execution.
    ///
    /// The claim is a `claim.json` lock file created with `hard_link` from a
    /// fully written temp file: creation is atomic *and* exclusive, so of any
    /// number of workers (in any number of processes) racing for the run,
    /// exactly one gets `Ok` — and a reader never observes a torn claim.
    /// The claim records this process and `owner` so that stale claims left
    /// by a killed worker can be detected ([`ClaimInfo::holder_alive`]) and
    /// broken by a recovery pass.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RunClaimed`] when the run is already claimed,
    /// or [`StoreError::Io`]/[`StoreError::Json`] on filesystem failures.
    pub fn try_claim(&self, owner: &str) -> Result<ClaimInfo, StoreError> {
        let fence = next_fence(&self.dir.join(CLAIM_FENCE_FILE))?;
        let info = ClaimInfo::for_this_process(owner).with_fence(fence);
        if take_claim_file(&self.dir, &self.claim_path(), &info)? {
            Ok(info)
        } else {
            let owner = self
                .claim()
                .ok()
                .flatten()
                .map_or_else(|| "unknown".to_string(), |claim| claim.owner);
            Err(StoreError::RunClaimed {
                run_id: self.run_id.clone(),
                owner,
            })
        }
    }

    /// The run's current claim, if any.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// claim file cannot be read (claims are written atomically, so this
    /// indicates external corruption, not a torn write).
    pub fn claim(&self) -> Result<Option<ClaimInfo>, StoreError> {
        read_claim_file(&self.claim_path())
    }

    /// Age of the run claim's last heartbeat (its file modification time),
    /// `None` when the run is unclaimed.
    ///
    /// Claim holders refresh the heartbeat with
    /// [`RunHandle::start_claim_heartbeat`]; readers combine this age with
    /// [`ClaimInfo::holder_alive`] through [`RunHandle::claim_health`].
    pub fn claim_heartbeat_age(&self) -> Option<Duration> {
        file_mtime_age(&self.claim_path())
    }

    /// Starts a heartbeat thread refreshing this run's claim file every
    /// `interval`, for as long as the returned guard lives.
    ///
    /// Meant to be called by the claim *holder* right after a successful
    /// [`RunHandle::try_claim`]; drop the guard before releasing the claim.
    pub fn start_claim_heartbeat(&self, interval: Duration) -> ClaimHeartbeat {
        ClaimHeartbeat::start(self.claim_path(), interval)
    }

    /// Judges the run claim's health, combining the pid liveness check
    /// (authoritative on the holder's own host) with the heartbeat age
    /// (meaningful across hosts): see [`ClaimHealth`]. Returns `None` when
    /// the run is unclaimed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// claim file cannot be read.
    pub fn claim_health(
        &self,
        max_heartbeat_age: Duration,
    ) -> Result<Option<(ClaimInfo, ClaimHealth)>, StoreError> {
        let Some(claim) = self.claim()? else {
            return Ok(None);
        };
        let age = self.claim_heartbeat_age().unwrap_or(Duration::MAX);
        let health = claim.health(age, max_heartbeat_age);
        Ok(Some((claim, health)))
    }

    /// The run's claim *if* its holder is provably gone
    /// ([`ClaimHealth::Dead`]): a dead pid on this host, or — for claims
    /// from other hosts, where pids cannot be probed — a heartbeat older
    /// than `max_heartbeat_age`.
    ///
    /// A *hung* holder (alive pid, stale heartbeat) is deliberately not
    /// reported here: use [`RunHandle::stalled_claim`] when the caller's
    /// writes are fence-guarded and stealing from a process that may yet
    /// wake up is therefore safe.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// claim file cannot be read.
    pub fn stale_claim(
        &self,
        max_heartbeat_age: Duration,
    ) -> Result<Option<ClaimInfo>, StoreError> {
        Ok(self
            .claim_health(max_heartbeat_age)?
            .and_then(|(claim, health)| (health == ClaimHealth::Dead).then_some(claim)))
    }

    /// The run's claim *if* its holder has stalled — [`ClaimHealth::Dead`]
    /// (provably gone) **or** [`ClaimHealth::Hung`] (alive pid, heartbeat
    /// older than `max_heartbeat_age`). This is the steal set of a
    /// *fencing-aware* recovery pass: stealing from a hung-but-alive holder
    /// is safe since claims carry fencing tokens ([`ClaimInfo::fence`]) and
    /// every holder guards its durable writes by re-checking the claim file
    /// still holds *its* claim — a stolen holder that wakes up discards its
    /// own late writes instead of persisting them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// claim file cannot be read.
    pub fn stalled_claim(
        &self,
        max_heartbeat_age: Duration,
    ) -> Result<Option<ClaimInfo>, StoreError> {
        Ok(self
            .claim_health(max_heartbeat_age)?
            .and_then(|(claim, health)| (health != ClaimHealth::Alive).then_some(claim)))
    }

    /// Whether the claim file still holds exactly `expected` — the fencing
    /// check a claim holder performs immediately before every durable write
    /// (checkpoint, variation point, result). `false` means the claim was
    /// stolen (or released): the holder must discard the write and stop.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] when an existing
    /// claim file cannot be read.
    pub fn claim_is(&self, expected: &ClaimInfo) -> Result<bool, StoreError> {
        Ok(self.claim()?.as_ref() == Some(expected))
    }

    /// Releases the run's claim. Returns whether a claim file existed.
    ///
    /// This is for the claim's *owner*; a recovery pass breaking somebody
    /// else's stale claim must use [`RunHandle::break_claim`] instead, which
    /// re-checks that the claim has not changed hands.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the claim file exists but cannot be
    /// removed.
    pub fn release_claim(&self) -> Result<bool, StoreError> {
        match fs::remove_file(self.claim_path()) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_error(&self.claim_path(), e)),
        }
    }

    /// Breaks a (presumed stale) claim *only if* it still matches
    /// `expected`, as previously read via [`RunHandle::claim`]. Returns
    /// whether the claim was broken.
    ///
    /// A blind `release_claim` here would be a check-then-act race: between
    /// reading the stale claim and deleting the file, another recovery pass
    /// may have already broken it and a new worker legitimately re-claimed
    /// the run — deleting *that* claim would let two processes execute the
    /// run concurrently. Instead the claim is re-read immediately before
    /// the break (a changed claim aborts without touching the file), then
    /// atomically renamed to a unique name (exactly one racing breaker wins
    /// the rename), compared once more, and on a mismatch the live claim is
    /// restored. A sub-microsecond window remains in which a live claim is
    /// renamed away and restored — closing it entirely needs an ownership
    /// heartbeat, which the ROADMAP tracks; every realistic interleaving
    /// (two recovery passes racing, a worker re-claiming mid-break) resolves
    /// to exactly one execution.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on rename failures other than the claim
    /// being gone already.
    pub fn break_claim(&self, expected: &ClaimInfo) -> Result<bool, StoreError> {
        break_claim_file(&self.dir, &self.claim_path(), expected)
    }
}

/// Heartbeat age past which a run claim no longer proves a live holder
/// ([`ClaimHealth`]): the one threshold that `ayb status`, the service's
/// admission rebuild, a job server's default `reclaim_grace` and a resume's
/// dead-claim check all judge claims by. Holders refresh the heartbeat
/// every second, so this leaves a loaded host ample margin.
pub const CLAIM_MAX_HEARTBEAT_AGE: Duration = Duration::from_secs(30);

/// Health judgment of a claim, combining pid liveness and heartbeat age
/// (see [`RunHandle::claim_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimHealth {
    /// The holder is alive: a live pid on this host, or a fresh heartbeat
    /// from anywhere.
    Alive,
    /// The holder's pid is alive on this host but its heartbeat went stale:
    /// the process is hung (or never heartbeats), and may yet wake up. Shard
    /// claims and recovery passes steal it, because their holders' writes
    /// are fenced ([`ClaimInfo::fence`]); a resume does not
    /// ([`RunHandle::stale_claim`]).
    Hung,
    /// The holder is provably (or presumably) gone: dead pid on this host,
    /// or a foreign-host claim whose heartbeat went stale. Recovery may
    /// break the claim.
    Dead,
}

/// Contents of a run's `claim.json` lock file: who is executing the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimInfo {
    /// Caller-supplied label of the claiming worker (for diagnostics).
    pub owner: String,
    /// OS process id of the claiming process.
    pub pid: u32,
    /// Hostname of the claiming process — pid liveness checks are only
    /// meaningful on the claimant's own host; stores shared between machines
    /// rely on the claim heartbeat instead. Claims written before the field
    /// existed read as *this* host, which keeps their pid-based liveness.
    #[serde(default = "this_host")]
    pub host: String,
    /// Claim time, seconds since the Unix epoch.
    pub claimed_unix: u64,
    /// Fencing token: a counter (kept in a fence file next to the claim)
    /// that every successful claim advances. Two claims on the same resource
    /// are therefore never equal — even re-claims by the same process within
    /// the same second — which is what lets a *writer* verify, immediately
    /// before a durable write, that the claim file still holds *its* claim
    /// and not a successor's. That check is how stealing a Hung (alive-pid,
    /// stale-heartbeat) claim becomes safe: if the hung holder wakes up
    /// after the steal, its claim no longer matches and its late write is
    /// discarded. Claims written before fencing deserialize with token 0.
    #[serde(default)]
    pub fence: u64,
}

impl ClaimInfo {
    /// A claim record describing this process (the normal way claims are
    /// minted; [`RunHandle::try_claim`] uses it).
    pub fn for_this_process(owner: &str) -> ClaimInfo {
        ClaimInfo {
            owner: owner.to_string(),
            pid: std::process::id(),
            host: this_host(),
            claimed_unix: now_unix(),
            fence: 0,
        }
    }

    /// The same claim stamped with fencing token `fence` (see
    /// [`ClaimInfo::fence`]); claim takers mint the token with
    /// [`next_fence`] right before linking the claim into place.
    #[must_use]
    pub fn with_fence(mut self, fence: u64) -> ClaimInfo {
        self.fence = fence;
        self
    }

    /// Whether the claim was minted on this host (making its pid probeable).
    pub fn same_host(&self) -> bool {
        self.host == local_host()
    }

    /// Whether this claim's pid can be probed *authoritatively*: its own
    /// process always can; other same-host pids only where `/proc` exists.
    /// Everywhere else liveness must be judged by heartbeat age instead.
    fn pid_probe_is_authoritative(&self) -> bool {
        self.same_host() && (self.pid == std::process::id() || cfg!(target_os = "linux"))
    }

    /// Whether the claiming process still appears to be alive.
    ///
    /// The claiming process itself always sees `true`. For other pids on
    /// *this host* the check is `/proc/<pid>` on Linux (an hour's grace on
    /// platforms without `/proc`). Claims minted on **other hosts** are
    /// conservatively considered alive — a foreign pid cannot be probed;
    /// judge those by heartbeat age instead ([`ClaimInfo::health`],
    /// [`RunHandle::claim_health`]).
    pub fn holder_alive(&self) -> bool {
        if self.pid == std::process::id() && self.same_host() {
            return true;
        }
        if !self.same_host() {
            return true;
        }
        #[cfg(target_os = "linux")]
        {
            Path::new("/proc").join(self.pid.to_string()).is_dir()
        }
        #[cfg(not(target_os = "linux"))]
        {
            now_unix().saturating_sub(self.claimed_unix) < 3600
        }
    }

    /// Judges this claim's health given its heartbeat age (the claim file's
    /// modification-time age) and the staleness threshold.
    ///
    /// Where the pid can be probed authoritatively (same host with `/proc`,
    /// or the holder is this very process) the pid decides dead-vs-alive and
    /// the heartbeat only distinguishes [`ClaimHealth::Hung`]. Everywhere
    /// else — other hosts, or platforms without `/proc` — the heartbeat is
    /// the only trustworthy signal, so a fresh heartbeat always means
    /// [`ClaimHealth::Alive`] (a long-running holder is never mistaken for
    /// dead just because a pid guess timed out).
    pub fn health(&self, heartbeat_age: Duration, max_heartbeat_age: Duration) -> ClaimHealth {
        if self.pid_probe_is_authoritative() {
            if !self.holder_alive() {
                ClaimHealth::Dead
            } else if heartbeat_age > max_heartbeat_age {
                ClaimHealth::Hung
            } else {
                ClaimHealth::Alive
            }
        } else if heartbeat_age > max_heartbeat_age {
            ClaimHealth::Dead
        } else {
            ClaimHealth::Alive
        }
    }
}

/// [`local_host`], owned.
fn this_host() -> String {
    local_host().to_string()
}

/// This machine's hostname, as recorded in claim files: read once from
/// `/proc/sys/kernel/hostname` (Linux) or the `HOSTNAME` environment
/// variable, falling back to `"unknown-host"`.
pub fn local_host() -> &'static str {
    static HOST: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    HOST.get_or_init(|| {
        fs::read_to_string("/proc/sys/kernel/hostname")
            .ok()
            .map(|name| name.trim().to_string())
            .filter(|name| !name.is_empty())
            .or_else(|| std::env::var("HOSTNAME").ok().filter(|h| !h.is_empty()))
            .unwrap_or_else(|| "unknown-host".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_moo::{
        Checkpoint, CheckpointIndividual, EarlyStop, Evaluation, GaConfig, GenerationStats, Sense,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A flow-configuration stand-in for the generic manifest parameter.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct FakeFlowConfig {
        threads: usize,
        sigma_level: f64,
        label: String,
    }

    fn fake_flow() -> FakeFlowConfig {
        FakeFlowConfig {
            threads: 4,
            sigma_level: 3.0,
            label: "reduced \"scale\"".to_string(),
        }
    }

    fn optimizer() -> OptimizerConfig {
        OptimizerConfig::Wbga(
            GaConfig::small_test().with_early_stop(EarlyStop::after_stalled_generations(5)),
        )
    }

    fn temp_store() -> (PathBuf, Store) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "ayb-store-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let root = std::env::temp_dir().join(unique);
        let store = Store::open(&root).expect("store opens");
        (root, store)
    }

    fn sample_checkpoint(generation: usize) -> Checkpoint {
        Checkpoint {
            optimizer: "wbga".to_string(),
            next_generation: generation,
            rng_state: [9, 8, 7, 6],
            population: vec![CheckpointIndividual {
                parameters: vec![0.5, 0.25],
                weight_genes: vec![0.3, 0.7],
                objectives: Some(vec![1.25, 2.5]),
            }],
            archive: vec![Evaluation::new(vec![0.5, 0.25], vec![1.25, 2.5])],
            history: vec![GenerationStats {
                generation: 0,
                best_fitness: 1.0,
                mean_fitness: 0.5,
                feasible: 1,
            }],
            evaluations: 2,
            failed_evaluations: 1,
            stall_generations: 0,
            senses: vec![Sense::Maximize, Sense::Maximize],
        }
    }

    #[test]
    fn manifest_extras_are_atomic_and_survive_every_rewrite() {
        let (root, store) = temp_store();
        let extras = vec![
            ("tenant".to_string(), Value::Str("acme".to_string())),
            ("submission_digest".to_string(), Value::Str("abc".into())),
            // Core keys may not be shadowed; this one must be dropped.
            ("status".to_string(), Value::Str("completed".into())),
        ];
        let handle = store
            .enqueue_run_with_extras(7, &optimizer(), &fake_flow(), &extras)
            .unwrap();
        assert_eq!(handle.status().unwrap(), RunStatus::Queued);
        assert_eq!(
            handle.manifest_extra("tenant").unwrap(),
            Some(Value::Str("acme".into()))
        );
        assert_eq!(handle.manifest_extra("absent").unwrap(), None);

        // The typed manifest still parses (extras are invisible to it).
        let manifest: Manifest<FakeFlowConfig> = handle.manifest().unwrap();
        assert_eq!(manifest.seed, 7);
        assert_eq!(manifest.flow, fake_flow());

        // A status flip preserves the extras...
        handle.set_status(RunStatus::Running).unwrap();
        assert_eq!(
            handle.manifest_extra("tenant").unwrap(),
            Some(Value::Str("acme".into()))
        );
        // ...and merges upsert without disturbing core fields.
        handle
            .merge_manifest_extras(&[
                ("dedup_hits".to_string(), 3u64.to_value()),
                ("tenant".to_string(), Value::Str("acme-2".into())),
                ("seed".to_string(), 999u64.to_value()),
            ])
            .unwrap();
        assert_eq!(
            handle.manifest_extra("dedup_hits").unwrap(),
            Some(3u64.to_value())
        );
        assert_eq!(
            handle.manifest_extra("tenant").unwrap(),
            Some(Value::Str("acme-2".into()))
        );
        let manifest: Manifest<FakeFlowConfig> = handle.manifest().unwrap();
        assert_eq!(manifest.seed, 7, "core keys are never shadowed");
        assert_eq!(manifest.status, RunStatus::Running);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn create_load_and_list_runs() {
        let (root, store) = temp_store();
        let a = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        let b = store.create_run(8, &optimizer(), &fake_flow()).unwrap();
        assert_eq!(a.id(), "run-0001");
        assert_eq!(b.id(), "run-0002");
        assert_eq!(store.run_ids().unwrap(), vec!["run-0001", "run-0002"]);

        let manifest: Manifest<FakeFlowConfig> = store.run("run-0002").unwrap().manifest().unwrap();
        assert_eq!(manifest.run_id, "run-0002");
        assert_eq!(manifest.seed, 8);
        assert_eq!(manifest.status, RunStatus::Running);
        assert_eq!(manifest.optimizer, optimizer());
        assert_eq!(manifest.flow, fake_flow());
        assert!(manifest.created_unix > 0);

        assert!(matches!(
            store.run("run-0003"),
            Err(StoreError::RunNotFound(_))
        ));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn explicit_ids_are_validated_and_unique() {
        let (root, store) = temp_store();
        let run = store
            .create_run_with_id("nightly_a.1", 1, &optimizer(), &fake_flow())
            .unwrap();
        assert_eq!(run.id(), "nightly_a.1");
        assert!(matches!(
            store.create_run_with_id("nightly_a.1", 1, &optimizer(), &fake_flow()),
            Err(StoreError::RunExists(_))
        ));
        for bad in ["", "../escape", "a/b", ".hidden", "x".repeat(65).as_str()] {
            assert!(
                matches!(
                    store.create_run_with_id(bad, 1, &optimizer(), &fake_flow()),
                    Err(StoreError::InvalidRunId(_))
                ),
                "id {bad:?} should be rejected"
            );
        }
        // Sequential allocation is not confused by foreign ids.
        let next = store.create_run(2, &optimizer(), &fake_flow()).unwrap();
        assert_eq!(next.id(), "run-0001");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn status_updates_preserve_the_rest_of_the_manifest() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        run.set_status(RunStatus::Interrupted).unwrap();
        assert_eq!(run.status().unwrap(), RunStatus::Interrupted);
        run.set_status(RunStatus::Completed).unwrap();

        let manifest: Manifest<FakeFlowConfig> = run.manifest().unwrap();
        assert_eq!(manifest.status, RunStatus::Completed);
        assert_eq!(manifest.seed, 7);
        assert_eq!(manifest.flow, fake_flow());
        assert!(manifest.updated_unix >= manifest.created_unix);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn checkpoints_roundtrip_and_latest_wins() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        assert!(run.latest_checkpoint().unwrap().is_none());

        for generation in [1usize, 2, 3, 10] {
            let saved = run.save_checkpoint(&sample_checkpoint(generation)).unwrap();
            assert!(saved.path.ends_with(format!("gen_{generation:04}.json")));
        }
        assert_eq!(run.checkpoint_generations().unwrap(), vec![1, 2, 3, 10]);
        assert_eq!(
            run.load_checkpoint(2).unwrap(),
            sample_checkpoint(2),
            "checkpoints survive the JSON round-trip bit-for-bit"
        );
        assert_eq!(
            run.latest_checkpoint().unwrap(),
            Some(sample_checkpoint(10))
        );

        // A stale temp file from a killed writer is ignored.
        fs::write(run.dir().join("checkpoints/gen_0011.json.tmp"), "{").unwrap();
        assert_eq!(run.checkpoint_generations().unwrap(), vec![1, 2, 3, 10]);
        assert_eq!(
            run.latest_checkpoint().unwrap(),
            Some(sample_checkpoint(10))
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn results_roundtrip_and_absence_is_reported() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        assert!(!run.has_result());
        assert!(matches!(
            run.load_result::<FakeFlowConfig>(),
            Err(StoreError::NoResult(_))
        ));

        let result = vec![fake_flow(), fake_flow()];
        run.save_result(&result).unwrap();
        assert!(run.has_result());
        let loaded: Vec<FakeFlowConfig> = run.load_result().unwrap();
        assert_eq!(loaded, result);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn run_ids_sort_numerically_past_four_digits() {
        let (root, store) = temp_store();
        for id in ["run-10000", "run-9999", "run-0002", "custom-b", "custom-a"] {
            store
                .create_run_with_id(id, 1, &optimizer(), &fake_flow())
                .unwrap();
        }
        // Numeric suffixes order numerically (the lexicographic order would
        // put run-10000 first); non-numeric ids keep string order.
        assert_eq!(
            store.run_ids().unwrap(),
            vec!["custom-a", "custom-b", "run-0002", "run-9999", "run-10000"]
        );
        // The next sequential id continues past the numeric maximum.
        assert_eq!(store.next_run_id().unwrap(), "run-10001");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn concurrent_create_run_never_collides() {
        let (root, store) = temp_store();
        let created: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = store.clone();
                    scope.spawn(move || {
                        (0..4)
                            .map(|_| {
                                store
                                    .create_run(7, &optimizer(), &fake_flow())
                                    .expect("concurrent create_run retries id races")
                                    .id()
                                    .to_string()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut unique = created.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), created.len(), "every creator got its own id");
        assert_eq!(store.run_ids().unwrap().len(), 32);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn claims_are_exclusive_and_released() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        assert_eq!(run.claim().unwrap(), None);

        let claim = run.try_claim("worker-1").unwrap();
        assert_eq!(claim.owner, "worker-1");
        assert_eq!(claim.pid, std::process::id());
        assert!(claim.holder_alive(), "our own claim is alive");
        assert_eq!(run.claim().unwrap(), Some(claim));

        let second = run.try_claim("worker-2");
        assert!(
            matches!(
                &second,
                Err(StoreError::RunClaimed { run_id, owner })
                    if run_id == run.id() && owner == "worker-1"
            ),
            "double claim must fail, got {second:?}"
        );

        assert!(run.release_claim().unwrap());
        assert!(!run.release_claim().unwrap(), "second release is a no-op");
        run.try_claim("worker-2").unwrap();
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn concurrent_claims_have_exactly_one_winner() {
        let (root, store) = temp_store();
        store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        let wins: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let store = store.clone();
                    scope.spawn(move || {
                        let run = store.run("run-0001").unwrap();
                        match run.try_claim(&format!("worker-{i}")) {
                            Ok(_) => 1usize,
                            Err(StoreError::RunClaimed { .. }) => 0,
                            Err(e) => panic!("unexpected claim error: {e}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1, "exactly one of 16 racing workers claims the run");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn break_claim_is_compare_and_delete() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();

        // Matching claim: broken.
        let stale = run.try_claim("dead-worker").unwrap();
        assert!(run.break_claim(&stale).unwrap());
        assert_eq!(run.claim().unwrap(), None);

        // Claim changed hands between the read and the break: the newer
        // claim survives and the break reports failure.
        let old = run.try_claim("worker-1").unwrap();
        run.release_claim().unwrap();
        let newer = run.try_claim("worker-2").unwrap();
        assert!(!run.break_claim(&old).unwrap());
        assert_eq!(run.claim().unwrap(), Some(newer.clone()));

        // No claim at all: nothing to break.
        run.release_claim().unwrap();
        assert!(!run.break_claim(&newer).unwrap());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn sweep_never_touches_fresh_claim_scratch_files() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        // A concurrent try_claim/break_claim mid-operation: even an
        // unconditional sweep must leave these alone (they get a one-minute
        // floor), or a live worker's claim would fail spuriously.
        let claim_tmp = run.dir().join(".claim-12345-0.tmp");
        let breaking = run.dir().join("claim.breaking-12345-0");
        fs::write(&claim_tmp, "{}").unwrap();
        fs::write(&breaking, "{}").unwrap();
        let removed = store.sweep_tmp_files(Duration::ZERO).unwrap();
        assert!(removed.is_empty(), "removed: {removed:?}");
        assert!(claim_tmp.is_file());
        assert!(breaking.is_file());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn stale_claims_from_dead_processes_are_detected() {
        let claim = ClaimInfo {
            owner: "dead-worker".to_string(),
            // No Linux pid can be u32::MAX (pid_max tops out at 2^22), so
            // this claimant is reliably "not running".
            pid: u32::MAX,
            host: local_host().to_string(),
            claimed_unix: now_unix(),
            fence: 1,
        };
        assert!(claim.same_host());
        #[cfg(target_os = "linux")]
        assert!(!claim.holder_alive());
        let own = ClaimInfo::for_this_process("me");
        assert_eq!(own.pid, std::process::id());
        assert!(own.holder_alive());
        // A claim from another host cannot be probed by pid: conservatively
        // alive, judged by heartbeat age instead.
        let foreign = ClaimInfo {
            host: "some-other-host".to_string(),
            ..claim.clone()
        };
        assert!(!foreign.same_host());
        assert!(foreign.holder_alive());
        assert_eq!(
            foreign.health(Duration::from_secs(1), Duration::from_secs(30)),
            ClaimHealth::Alive
        );
        assert_eq!(
            foreign.health(Duration::from_secs(60), Duration::from_secs(30)),
            ClaimHealth::Dead
        );
        #[cfg(target_os = "linux")]
        assert_eq!(
            claim.health(Duration::ZERO, Duration::from_secs(30)),
            ClaimHealth::Dead,
            "a dead pid on this host is dead however fresh the file looks"
        );
        assert_eq!(
            own.health(Duration::from_secs(60), Duration::from_secs(30)),
            ClaimHealth::Hung,
            "an alive pid that stopped heartbeating is hung, not dead"
        );
    }

    #[test]
    fn a_claim_without_host_and_fence_loads_as_this_hosts_unfenced_claim() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        fs::write(
            run.dir().join("claim.json"),
            r#"{"owner": "old-worker", "pid": 4242, "claimed_unix": 1700000000}"#,
        )
        .unwrap();
        let claim = run.claim().unwrap().expect("the legacy claim loads");
        assert_eq!(claim.owner, "old-worker");
        assert_eq!(claim.pid, 4242);
        assert_eq!(claim.host, local_host());
        assert_eq!(claim.fence, 0);
        assert_eq!(claim.claimed_unix, 1_700_000_000);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn claim_heartbeat_refreshes_mtime_and_recovery_respects_it() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        run.try_claim("heartbeating-worker").unwrap();

        // Age the claim file artificially, then let the heartbeat refresh it.
        let claim_path = run.dir().join(CLAIM_FILE);
        let past = SystemTime::now() - Duration::from_secs(600);
        fs::OpenOptions::new()
            .append(true)
            .open(&claim_path)
            .unwrap()
            .set_modified(past)
            .unwrap();
        assert!(run.claim_heartbeat_age().unwrap() > Duration::from_secs(500));
        // Slow-but-alive holders look hung once their heartbeat lapses...
        let (_, health) = run.claim_health(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(health, ClaimHealth::Hung);
        // ...but a hung same-host holder with a live pid is never *stolen*.
        assert_eq!(run.stale_claim(Duration::from_secs(30)).unwrap(), None);

        let heartbeat = run.start_claim_heartbeat(Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(120));
        assert!(
            run.claim_heartbeat_age().unwrap() < Duration::from_secs(10),
            "heartbeat thread refreshed the claim mtime"
        );
        let (_, health) = run.claim_health(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(health, ClaimHealth::Alive);
        drop(heartbeat);

        // A foreign-host claim is judged purely by heartbeat age.
        run.release_claim().unwrap();
        let foreign = ClaimInfo {
            owner: "remote".to_string(),
            pid: 1,
            host: "another-host".to_string(),
            claimed_unix: now_unix(),
            fence: 1,
        };
        write_json(&claim_path, &foreign).unwrap();
        assert_eq!(
            run.stale_claim(Duration::from_secs(3600)).unwrap(),
            None,
            "fresh foreign claim is presumed alive"
        );
        fs::OpenOptions::new()
            .append(true)
            .open(&claim_path)
            .unwrap()
            .set_modified(past)
            .unwrap();
        assert_eq!(
            run.stale_claim(Duration::from_secs(30)).unwrap(),
            Some(foreign),
            "stale foreign claim is recoverable"
        );

        // An unclaimed run has no heartbeat and no health.
        run.release_claim().unwrap();
        assert_eq!(run.claim_heartbeat_age(), None);
        assert_eq!(run.claim_health(Duration::from_secs(30)).unwrap(), None);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn enqueued_runs_scan_in_fifo_order() {
        let (root, store) = temp_store();
        let a = store.enqueue_run(1, &optimizer(), &fake_flow()).unwrap();
        let b = store.enqueue_run(2, &optimizer(), &fake_flow()).unwrap();
        store
            .enqueue_run_with_id("priority-job", 3, &optimizer(), &fake_flow())
            .unwrap();
        let running = store.create_run(4, &optimizer(), &fake_flow()).unwrap();

        assert_eq!(a.status().unwrap(), RunStatus::Queued);
        assert_eq!(running.status().unwrap(), RunStatus::Running);

        // All queued runs, none of the running one; FIFO by creation time
        // with id order breaking same-second ties.
        let queued = store.queued_run_ids().unwrap();
        assert_eq!(queued.len(), 3);
        assert!(queued.contains(&"priority-job".to_string()));
        let a_pos = queued.iter().position(|id| id == a.id()).unwrap();
        let b_pos = queued.iter().position(|id| id == b.id()).unwrap();
        assert!(a_pos < b_pos, "run-0001 queues ahead of run-0002");

        // Claiming or completing removes a run from the queue scan.
        b.set_status(RunStatus::Running).unwrap();
        assert!(!store
            .queued_run_ids()
            .unwrap()
            .contains(&b.id().to_string()));

        // A torn creation (directory without manifest) is skipped.
        fs::create_dir(store.root().join("runs/torn")).unwrap();
        assert_eq!(store.queued_run_ids().unwrap().len(), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn sweep_removes_stale_tmp_files_but_respects_min_age() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        run.save_checkpoint(&sample_checkpoint(1)).unwrap();
        // Torn writes from killed writers: partial JSON in both locations.
        let torn_manifest = run.dir().join("manifest.json.tmp");
        let torn_checkpoint = run.dir().join("checkpoints/gen_0002.json.tmp");
        fs::write(&torn_manifest, "{\"partial").unwrap();
        fs::write(&torn_checkpoint, "{").unwrap();

        // Readers ignore the torn files...
        assert_eq!(run.checkpoint_generations().unwrap(), vec![1]);
        assert_eq!(run.status().unwrap(), RunStatus::Running);

        // ...a min_age larger than their age leaves them alone...
        assert!(store
            .sweep_tmp_files(Duration::from_secs(3600))
            .unwrap()
            .is_empty());
        assert!(torn_manifest.is_file());

        // ...and an unconditional sweep removes exactly them.
        let mut removed = store.sweep_tmp_files(Duration::ZERO).unwrap();
        removed.sort();
        assert_eq!(removed, {
            let mut expected = vec![torn_manifest.clone(), torn_checkpoint.clone()];
            expected.sort();
            expected
        });
        assert!(!torn_manifest.exists());
        assert!(!torn_checkpoint.exists());
        assert_eq!(run.checkpoint_generations().unwrap(), vec![1]);
        assert!(run.dir().join("manifest.json").is_file());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn prune_checkpoints_keeps_the_newest_k() {
        let (root, store) = temp_store();
        let run = store.create_run(7, &optimizer(), &fake_flow()).unwrap();
        for generation in 1..=5 {
            run.save_checkpoint(&sample_checkpoint(generation)).unwrap();
        }
        assert_eq!(run.prune_checkpoints(2).unwrap(), vec![1, 2, 3]);
        assert_eq!(run.checkpoint_generations().unwrap(), vec![4, 5]);
        // The latest checkpoint — the only one resume needs — survives.
        assert_eq!(run.latest_checkpoint().unwrap(), Some(sample_checkpoint(5)));
        // Pruning with a larger budget than stored checkpoints is a no-op.
        assert!(run.prune_checkpoints(10).unwrap().is_empty());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn errors_display_their_context() {
        let e = StoreError::RunNotFound("run-0042".into());
        assert!(e.to_string().contains("run-0042"));
        let e = StoreError::InvalidRunId("../x".into());
        assert!(e.to_string().contains("../x"));
        let e = StoreError::RunClaimed {
            run_id: "run-0007".into(),
            owner: "worker-3".into(),
        };
        assert!(e.to_string().contains("run-0007") && e.to_string().contains("worker-3"));
        let (root, store) = temp_store();
        let run = store.create_run(1, &optimizer(), &fake_flow()).unwrap();
        fs::write(run.dir().join(MANIFEST_FILE), "not json").unwrap();
        assert!(matches!(run.status(), Err(StoreError::Json { .. })));
        let _ = fs::remove_dir_all(root);
    }
}
