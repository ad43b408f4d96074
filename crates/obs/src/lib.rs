//! The unified telemetry plane: structured run events, fleet metrics, and
//! timeline reconstruction.
//!
//! Before this crate, the forensics for a slow or hung fleet were scattered
//! fragments: `FlowTimings` in `result.json`, `JobEvent` callbacks that died
//! with the process, transport counters readable only in-process. `ayb-obs`
//! gives every plane one vocabulary:
//!
//! * **[`Event`]** — a structured record (monotonic + wall timestamps,
//!   severity, source plane, kind, and the run/epoch/shard/fence coordinates
//!   that locate it in the fleet) emitted through a cheap cloneable
//!   [`Recorder`] handle. The recorder keeps a bounded in-memory ring and
//!   forwards every event to pluggable [`EventSink`]s — notably
//!   [`JsonlSink`], which appends each event as one JSON line so durable
//!   runs accumulate a `runs/<id>/events.jsonl` forensic log that multiple
//!   processes can append to safely (`O_APPEND`, one `write` per line).
//! * **[`Metrics`]** — a registry of counters, gauges and fixed-bucket
//!   histograms with a text exposition format, served live over the wire by
//!   the coordinator's `Metrics` request.
//! * **[`trace`]** — pure functions that rebuild a per-stage / per-shard
//!   timeline (claim → fence → steal chains included) from a parsed event
//!   log; the `ayb trace` CLI command is a thin renderer over them.
//!
//! Telemetry is strictly digest-neutral: nothing in this crate feeds
//! `determinism_digest`, wall-clock never enters checkpointed state, and
//! enabling or disabling every sink changes no run output — property-tested
//! in the workspace root.

#![deny(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Histogram, Metrics, LATENCY_BUCKETS_SECONDS};

use std::collections::VecDeque;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::Value;

/// Event severity, ordered from chattiest to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (per-request, per-point).
    Debug,
    /// Normal lifecycle milestones (stages, claims, completions).
    Info,
    /// Something degraded but the run continues (fenced write, fallback).
    Warn,
    /// A run or request failed.
    Error,
}

impl Severity {
    /// The lowercase wire/name form (`"debug"`, `"info"`, `"warn"`,
    /// `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the lowercase name form; `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl serde::Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for Severity {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Str(s) => Severity::parse(s)
                .ok_or_else(|| serde::Error::msg(format!("unknown severity `{s}`"))),
            other => Err(serde::Error::msg(format!(
                "severity must be a string, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Well-known event kinds, shared by emitters and the trace reconstruction
/// so the vocabulary stays in one place.
pub mod kind {
    /// A flow attempt began (`optimize()` entry). Marks a session boundary
    /// in `events.jsonl`: everything after the *last* `flow_start` belongs
    /// to the attempt that produced the final result.
    pub const FLOW_START: &str = "flow_start";
    /// A flow stage started (`detail` names the stage).
    pub const STAGE_START: &str = "stage_start";
    /// A flow stage completed; `value` is the elapsed seconds.
    pub const STAGE_COMPLETE: &str = "stage_complete";
    /// An optimizer checkpoint was written; `value` is the generation.
    pub const CHECKPOINT: &str = "checkpoint_written";
    /// A Monte Carlo variation point finished; `shard` is the point index.
    pub const VARIATION_POINT: &str = "variation_point";
    /// The run completed and its result was persisted.
    pub const RUN_COMPLETED: &str = "run_completed";
    /// The run was deliberately interrupted at a checkpoint boundary.
    pub const RUN_INTERRUPTED: &str = "run_interrupted";
    /// The run failed; `detail` carries the error.
    pub const RUN_FAILED: &str = "run_failed";
    /// A shard claim was granted; `fence` is the minted token.
    pub const SHARD_CLAIM: &str = "shard_claim";
    /// A shard outcome was accepted; `fence` is the submitting token.
    pub const SHARD_SUBMIT: &str = "shard_submit";
    /// A shard outcome was rejected because its fencing token was stale.
    pub const SHARD_FENCED: &str = "shard_fenced";
    /// A hung or dead claim was expired so the shard can be re-claimed.
    pub const SHARD_RECOVER: &str = "shard_recover";
    /// The submitter gave up on a shard's transport and serviced it
    /// locally.
    pub const SHARD_DEGRADED: &str = "shard_degraded";
    /// One transport request completed; `value` is the latency in seconds.
    pub const SHARD_REQUEST: &str = "shard_request";
    /// A shard epoch was opened; `value` is the shard count.
    pub const EPOCH_OPEN: &str = "epoch_open";
    /// A shard epoch was closed.
    pub const EPOCH_CLOSE: &str = "epoch_close";
    /// A job-server lifecycle event (`job_enqueued`, `job_started`, …);
    /// see `ayb_jobs` for the mapping from `JobEvent`.
    pub const JOB_PREFIX: &str = "job_";
    /// The service plane accepted a submission; `run` is the created run,
    /// `detail` names the tenant.
    pub const SVC_SUBMIT: &str = "svc_submit";
    /// A submission was answered from the content-addressed dedup index;
    /// `run` is the canonical run it was folded into.
    pub const SVC_DEDUP_HIT: &str = "svc_dedup_hit";
    /// A submission was answered from the persistent result cache (the run
    /// had already completed, possibly in a previous server life); `run` is
    /// the completed run whose result was served.
    pub const SVC_CACHE_HIT: &str = "svc_cache_hit";
    /// A submission was rejected by a per-tenant quota; `detail` names the
    /// tenant and the exhausted limit.
    pub const SVC_QUOTA_REJECTED: &str = "svc_quota_rejected";
    /// A queued run was cancelled through the service plane.
    pub const SVC_CANCELLED: &str = "svc_cancelled";
    /// A malformed or oversized HTTP request was refused (`detail` carries
    /// the parser's reason) — the connection was answered or closed cleanly.
    pub const SVC_BAD_REQUEST: &str = "svc_bad_request";
}

/// One structured telemetry record.
///
/// `mono_us` orders events emitted by one process (it is microseconds since
/// a process-global origin, so it is monotonic per `pid` even across flow
/// attempts); `wall_unix` is display-only. The optional `run_id` / `epoch` /
/// `shard` / `fence` fields locate the event in the fleet, `value` carries a
/// numeric payload (seconds, generation, …) and `detail` a human-readable
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the emitting process's telemetry origin.
    pub mono_us: u64,
    /// Wall-clock seconds since the Unix epoch (display only).
    pub wall_unix: u64,
    /// The emitting process id, so per-writer ordering survives
    /// interleaved appends from several processes.
    pub pid: u32,
    /// How urgent the event is.
    pub severity: Severity,
    /// The emitting plane: `flow`, `shards`, `net`, `coordinator`, `jobs`,
    /// `cli`.
    pub source: String,
    /// The event vocabulary entry — see [`kind`].
    pub kind: String,
    /// The durable run this event belongs to, when known.
    pub run_id: Option<String>,
    /// The shard epoch (`ep-*` / `var-*`) this event belongs to.
    pub epoch: Option<String>,
    /// The shard index (or variation point index) this event belongs to.
    pub shard: Option<u64>,
    /// The fencing token involved, for claim/submit/fenced events.
    pub fence: Option<u64>,
    /// A numeric payload: seconds for latencies, a generation for
    /// checkpoints, a count for epoch opens.
    pub value: Option<f64>,
    /// A human-readable payload.
    pub detail: String,
}

fn mono_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Microseconds since the process-global telemetry origin. Monotonic within
/// a process; the first call fixes the origin.
pub fn mono_us_now() -> u64 {
    mono_origin().elapsed().as_micros() as u64
}

fn wall_unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Event {
    /// Creates an event stamped with the current monotonic + wall clocks
    /// and this process's pid.
    pub fn new(severity: Severity, source: &str, kind: &str) -> Self {
        Event {
            mono_us: mono_us_now(),
            wall_unix: wall_unix_now(),
            pid: std::process::id(),
            severity,
            source: source.to_string(),
            kind: kind.to_string(),
            run_id: None,
            epoch: None,
            shard: None,
            fence: None,
            value: None,
            detail: String::new(),
        }
    }

    /// Sets the run id.
    pub fn run(mut self, run_id: &str) -> Self {
        self.run_id = Some(run_id.to_string());
        self
    }

    /// Sets the epoch name.
    pub fn epoch(mut self, epoch: &str) -> Self {
        self.epoch = Some(epoch.to_string());
        self
    }

    /// Sets the shard index.
    pub fn shard(mut self, shard: u64) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Sets the fencing token.
    pub fn fence(mut self, fence: u64) -> Self {
        self.fence = Some(fence);
        self
    }

    /// Sets the numeric payload.
    pub fn value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }

    /// Sets the human-readable payload.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Renders the event as the one human-readable line every stderr path
    /// shares: `kind-or-detail (run=… epoch=… shard=… fence=… value)`.
    pub fn render(&self) -> String {
        let mut line = if self.detail.is_empty() {
            self.kind.clone()
        } else {
            self.detail.clone()
        };
        let mut ctx = Vec::new();
        if let Some(run) = &self.run_id {
            ctx.push(format!("run={run}"));
        }
        if let Some(epoch) = &self.epoch {
            ctx.push(format!("epoch={epoch}"));
        }
        if let Some(shard) = self.shard {
            ctx.push(format!("shard={shard}"));
        }
        if let Some(fence) = self.fence {
            ctx.push(format!("fence={fence}"));
        }
        if let Some(value) = self.value {
            ctx.push(format!("value={value:.6}"));
        }
        if !ctx.is_empty() {
            line.push_str(" (");
            line.push_str(&ctx.join(" "));
            line.push(')');
        }
        line
    }
}

impl serde::Serialize for Event {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("mono_us".to_string(), Value::UInt(self.mono_us)),
            ("wall_unix".to_string(), Value::UInt(self.wall_unix)),
            ("pid".to_string(), Value::UInt(u64::from(self.pid))),
            (
                "severity".to_string(),
                serde::Serialize::to_value(&self.severity),
            ),
            ("source".to_string(), Value::Str(self.source.clone())),
            ("kind".to_string(), Value::Str(self.kind.clone())),
        ];
        if let Some(run_id) = &self.run_id {
            fields.push(("run_id".to_string(), Value::Str(run_id.clone())));
        }
        if let Some(epoch) = &self.epoch {
            fields.push(("epoch".to_string(), Value::Str(epoch.clone())));
        }
        if let Some(shard) = self.shard {
            fields.push(("shard".to_string(), Value::UInt(shard)));
        }
        if let Some(fence) = self.fence {
            fields.push(("fence".to_string(), Value::UInt(fence)));
        }
        if let Some(value) = self.value {
            fields.push(("value".to_string(), Value::Float(value)));
        }
        if !self.detail.is_empty() {
            fields.push(("detail".to_string(), Value::Str(self.detail.clone())));
        }
        Value::Object(fields)
    }
}

fn opt_str(value: &Value, key: &str) -> Result<Option<String>, serde::Error> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(serde::Error::msg(format!(
            "field `{key}` must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, serde::Error> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(n)) => Ok(Some(*n)),
        Some(Value::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(other) => Err(serde::Error::msg(format!(
            "field `{key}` must be a non-negative integer, got {}",
            other.type_name()
        ))),
    }
}

fn req_u64(value: &Value, key: &str) -> Result<u64, serde::Error> {
    opt_u64(value, key)?.ok_or_else(|| serde::Error::msg(format!("missing required field `{key}`")))
}

fn req_str(value: &Value, key: &str) -> Result<String, serde::Error> {
    opt_str(value, key)?
        .filter(|s| !s.is_empty())
        .ok_or_else(|| serde::Error::msg(format!("missing required field `{key}`")))
}

impl serde::Deserialize for Event {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let severity_value = value
            .get("severity")
            .ok_or_else(|| serde::Error::msg("missing required field `severity`"))?;
        let opt_f64 = match value.get("value") {
            None | Some(Value::Null) => None,
            Some(Value::Float(f)) => Some(*f),
            Some(Value::Int(n)) => Some(*n as f64),
            Some(Value::UInt(n)) => Some(*n as f64),
            Some(other) => {
                return Err(serde::Error::msg(format!(
                    "field `value` must be a number, got {}",
                    other.type_name()
                )))
            }
        };
        Ok(Event {
            mono_us: req_u64(value, "mono_us")?,
            wall_unix: req_u64(value, "wall_unix")?,
            pid: req_u64(value, "pid")? as u32,
            severity: serde::Deserialize::from_value(severity_value)?,
            source: req_str(value, "source")?,
            kind: req_str(value, "kind")?,
            run_id: opt_str(value, "run_id")?,
            epoch: opt_str(value, "epoch")?,
            shard: opt_u64(value, "shard")?,
            fence: opt_u64(value, "fence")?,
            value: opt_f64,
            detail: opt_str(value, "detail")?.unwrap_or_default(),
        })
    }
}

/// A destination for recorded events. Sinks run under the recorder's sink
/// lock, so `record` should stay cheap (a formatted write, not a network
/// round-trip).
pub trait EventSink: Send {
    /// Receives one event. Failures must be swallowed — telemetry never
    /// takes down the plane it observes.
    fn record(&mut self, event: &Event);
}

/// Appends each event as one JSON line to a file.
///
/// The file is opened with `O_APPEND | O_CREATE` and every event is written
/// as a single complete `write` of `line + '\n'`, which is the same
/// atomic-append discipline the store relies on: several processes can aim
/// a `JsonlSink` at the same `events.jsonl` and lines never interleave
/// mid-record. Write errors are swallowed (telemetry must never fail the
/// run); the sink re-opens the file on the next event after an error.
pub struct JsonlSink {
    path: PathBuf,
    file: Option<std::fs::File>,
}

impl JsonlSink {
    /// Creates a sink appending to `path`. The file (but not its parent
    /// directory) is created on first write.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlSink {
            path: path.into(),
            file: None,
        }
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if self.file.is_none() {
            self.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let Ok(mut line) = serde_json::to_string(event) else {
            return;
        };
        line.push('\n');
        if file.write_all(line.as_bytes()).is_err() {
            self.file = None;
        }
    }
}

/// Parses the `AYB_LOG` environment variable into the minimum severity the
/// stderr paths print (`debug`, `info`, `warn`, `error`; default `info`).
pub fn stderr_min_severity() -> Severity {
    std::env::var("AYB_LOG")
        .ok()
        .and_then(|v| Severity::parse(v.trim()))
        .unwrap_or(Severity::Info)
}

/// Formats `event` in the shared stderr line format:
/// `[ayb severity source] rendered-event`.
pub fn stderr_line(event: &Event) -> String {
    format!(
        "[ayb {} {}] {}",
        event.severity,
        event.source,
        event.render()
    )
}

/// Writes `event` to stderr in the shared format, honouring the `AYB_LOG`
/// severity filter. This is the one formatting path behind
/// `StderrObserver` (the CLI's run progress), the CLI's notes and the
/// job/coordinator console output.
pub fn log_to_stderr(event: &Event) {
    if event.severity >= stderr_min_severity() {
        eprintln!("{}", stderr_line(event));
    }
}

/// An [`EventSink`] that prints events to stderr through
/// [`log_to_stderr`]'s shared format, with a configurable minimum
/// severity.
pub struct StderrSink {
    min: Severity,
}

impl StderrSink {
    /// Creates a sink honouring the `AYB_LOG` environment filter.
    pub fn from_env() -> Self {
        StderrSink {
            min: stderr_min_severity(),
        }
    }

    /// Creates a sink with an explicit minimum severity.
    pub fn with_min(min: Severity) -> Self {
        StderrSink { min }
    }
}

impl EventSink for StderrSink {
    fn record(&mut self, event: &Event) {
        if event.severity >= self.min {
            eprintln!("{}", stderr_line(event));
        }
    }
}

const DEFAULT_RING_CAPACITY: usize = 1024;

struct RecorderInner {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    sinks: Mutex<Vec<(u64, Box<dyn EventSink>)>>,
    next_sink_id: AtomicU64,
    metrics: Metrics,
}

/// A cheap cloneable handle through which every plane emits [`Event`]s.
///
/// Clones share one bounded in-memory ring (the most recent events, for
/// `ayb top`-style snapshots), one sink list, and one [`Metrics`] registry.
/// Emitting is lock-sparing: a short ring lock, then the sink lock only
/// while fanning out. Every emit also bumps the `ayb_events_total` and
/// per-kind `ayb_events_<kind>_total` counters, so the metrics view and the
/// event log reconcile by construction.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Recorder {
    /// Creates a recorder with the default ring capacity (1024 events).
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a recorder keeping the most recent `capacity` events in
    /// memory.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
                capacity: capacity.max(1),
                sinks: Mutex::new(Vec::new()),
                next_sink_id: AtomicU64::new(1),
                metrics: Metrics::new(),
            }),
        }
    }

    /// The shared metrics registry behind this recorder and its clones.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Emits one event: counts it, keeps it in the ring, and forwards it to
    /// every sink.
    ///
    /// The `mono_us` stamp is (re)assigned here, *under the sink lock*: an
    /// event's timestamp and its position in the sinks' output are one
    /// atomic step, so a recorder's JSONL stream is monotonically ordered
    /// even when several threads emit concurrently (a stamp taken at
    /// `Event::new` could be written after a later one raced past it).
    pub fn emit(&self, mut event: Event) {
        self.inner.metrics.inc("ayb_events_total");
        self.inner
            .metrics
            .inc(&format!("ayb_events_{}_total", event.kind));
        let mut sinks = self.inner.sinks.lock().expect("recorder sinks poisoned");
        event.mono_us = mono_us_now();
        {
            let mut ring = self.inner.ring.lock().expect("recorder ring poisoned");
            if ring.len() >= self.inner.capacity {
                ring.pop_front();
            }
            ring.push_back(event.clone());
        }
        for (_, sink) in sinks.iter_mut() {
            sink.record(&event);
        }
    }

    /// Adds a sink for the rest of the recorder's lifetime.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        let id = self.inner.next_sink_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sinks
            .lock()
            .expect("recorder sinks poisoned")
            .push((id, sink));
    }

    /// Adds a sink that is detached again when the returned [`SinkGuard`]
    /// drops — how a shared (e.g. job-server) recorder gains a per-run
    /// `events.jsonl` sink only for the duration of that run.
    pub fn add_scoped_sink(&self, sink: Box<dyn EventSink>) -> SinkGuard {
        let id = self.inner.next_sink_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .sinks
            .lock()
            .expect("recorder sinks poisoned")
            .push((id, sink));
        SinkGuard {
            recorder: self.clone(),
            id,
        }
    }

    /// A snapshot of the most recent events (oldest first).
    pub fn recent(&self) -> Vec<Event> {
        self.inner
            .ring
            .lock()
            .expect("recorder ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// Detaches a scoped sink from its [`Recorder`] on drop.
pub struct SinkGuard {
    recorder: Recorder,
    id: u64,
}

impl fmt::Debug for SinkGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkGuard").field("id", &self.id).finish()
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut sinks = self
            .recorder
            .inner
            .sinks
            .lock()
            .expect("recorder sinks poisoned");
        sinks.retain(|(id, _)| *id != self.id);
    }
}

/// Reads and validates an `events.jsonl` file: every non-empty line must
/// parse as a well-formed [`Event`]. Returns the events in file order, or a
/// message naming the first offending line.
pub fn read_events(path: &Path) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    parse_events(&text).map_err(|err| format!("{}: {err}", path.display()))
}

/// Parses JSONL text into events; see [`read_events`].
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Event =
            serde_json::from_str(line).map_err(|err| format!("line {}: {err}", index + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Checks that `mono_us` never decreases within any single writer (pid).
/// Interleaved appends from different processes are expected and fine; a
/// regression within one pid means the log is corrupt.
pub fn check_monotonic_per_pid(events: &[Event]) -> Result<(), String> {
    let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for (index, event) in events.iter().enumerate() {
        if let Some(prev) = last.get(&event.pid) {
            if event.mono_us < *prev {
                return Err(format!(
                    "event {} (pid {}): mono_us {} < previous {}",
                    index, event.pid, event.mono_us, prev
                ));
            }
        }
        last.insert(event.pid, event.mono_us);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(Severity::parse("loud"), None);
    }

    #[test]
    fn event_roundtrips_through_json() {
        let event = Event::new(Severity::Warn, "shards", kind::SHARD_FENCED)
            .run("run-0001")
            .epoch("ep-0000")
            .shard(3)
            .fence(7)
            .value(0.25)
            .detail("stale token rejected");
        let line = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&line).expect("roundtrip");
        assert_eq!(back, event);
    }

    #[test]
    fn sparse_event_roundtrips_without_optional_fields() {
        let event = Event::new(Severity::Info, "flow", kind::STAGE_START);
        let line = serde_json::to_string(&event).unwrap();
        assert!(
            !line.contains("run_id"),
            "sparse event stays sparse: {line}"
        );
        let back: Event = serde_json::from_str(&line).expect("roundtrip");
        assert_eq!(back, event);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let good = serde_json::to_string(&Event::new(Severity::Info, "flow", "x")).unwrap();
        let text = format!("{good}\n{{\"kind\":\"missing-everything\"}}\n");
        let err = parse_events(&text).unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");
    }

    #[test]
    fn mono_us_is_monotonic_within_a_process() {
        let a = Event::new(Severity::Info, "flow", "a");
        let b = Event::new(Severity::Info, "flow", "b");
        assert!(b.mono_us >= a.mono_us);
        check_monotonic_per_pid(&[a, b]).expect("monotonic");
    }

    #[test]
    fn monotonicity_check_is_per_pid() {
        let mut a = Event::new(Severity::Info, "flow", "a");
        let mut b = Event::new(Severity::Info, "flow", "b");
        a.pid = 10;
        a.mono_us = 100;
        b.pid = 20;
        b.mono_us = 5; // other writer, earlier origin: fine
        check_monotonic_per_pid(&[a.clone(), b]).expect("cross-pid interleaving is fine");
        let mut c = Event::new(Severity::Info, "flow", "c");
        c.pid = 10;
        c.mono_us = 50; // same writer going backwards: corrupt
        assert!(check_monotonic_per_pid(&[a, c]).is_err());
    }

    #[test]
    fn recorder_ring_is_bounded_and_shared_across_clones() {
        let recorder = Recorder::with_capacity(4);
        let clone = recorder.clone();
        for i in 0..10 {
            clone.emit(Event::new(Severity::Info, "test", "tick").value(i as f64));
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].value, Some(6.0));
        assert_eq!(recorder.metrics().counter("ayb_events_total"), 10);
        assert_eq!(recorder.metrics().counter("ayb_events_tick_total"), 10);
    }

    #[test]
    fn scoped_sinks_detach_on_drop() {
        struct CountSink(Arc<AtomicU64>);
        impl EventSink for CountSink {
            fn record(&mut self, _event: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let recorder = Recorder::new();
        let count = Arc::new(AtomicU64::new(0));
        let guard = recorder.add_scoped_sink(Box::new(CountSink(count.clone())));
        recorder.emit(Event::new(Severity::Info, "test", "one"));
        drop(guard);
        recorder.emit(Event::new(Severity::Info, "test", "two"));
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jsonl_sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!(
            "ayb-obs-test-{}-{}",
            std::process::id(),
            mono_us_now()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let recorder = Recorder::new();
        recorder.add_sink(Box::new(JsonlSink::new(&path)));
        recorder.emit(Event::new(Severity::Info, "test", "first").run("r1"));
        recorder.emit(Event::new(Severity::Warn, "test", "second").shard(2));
        let events = read_events(&path).expect("valid log");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "first");
        assert_eq!(events[1].shard, Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_includes_context() {
        let event = Event::new(Severity::Info, "flow", kind::STAGE_START)
            .run("run-7")
            .detail("stage optimize started");
        let line = stderr_line(&event);
        assert!(line.starts_with("[ayb info flow] stage optimize started"));
        assert!(line.contains("run=run-7"));
    }
}
