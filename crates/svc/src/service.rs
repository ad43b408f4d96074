//! The multi-tenant HTTP/JSON service plane.
//!
//! [`SvcServer`] binds an HTTP/1.1 listener over a run [`Store`] and (when
//! configured with workers) an embedded [`JobServer`] executing what the
//! HTTP plane admits. The layer between the two is the *admission* state:
//!
//! ```text
//!            POST /v1/runs
//!                 │
//!      ┌──────────▼──────────┐   dedup hit → 200 (existing live run)
//!      │  dedup index        │
//!      │  (live submissions) │
//!      ├─────────────────────┤   cache hit → 200 (served_from_cache)
//!      │  result cache       │
//!      │  (completed digests)│
//!      ├─────────────────────┤   over quota → 429 (nothing written)
//!      │  per-tenant quotas  │
//!      │  (queued / running) │
//!      ├─────────────────────┤   admitted → 201, manifest carries
//!      │  store enqueue      │   tenant / priority / digest extras
//!      └──────────┬──────────┘
//!                 │ (store poll)
//!        JobServer — weighted round-robin across tenants,
//!        priority lanes, per-tenant running caps
//! ```
//!
//! Endpoints:
//!
//! | method & path              | success | errors                          |
//! |----------------------------|---------|---------------------------------|
//! | `POST /v1/runs`            | 201 new, 200 dedup or cache hit | 400 bad body, 429 over quota |
//! | `GET /v1/runs/{id}`        | 200     | 404 unknown run                 |
//! | `GET /v1/runs/{id}/result` | 200     | 404 unknown, 409 not completed  |
//! | `POST /v1/runs/{id}/cancel`| 200     | 404 unknown, 409 not cancellable|
//! | `GET /v1/metrics`          | 200     | —                               |
//!
//! The tenant is taken from the `x-ayb-tenant` request header (default
//! `default`). Cancellation of a still-queued run frees its quota slot and
//! drops its dedup-index entry, so an identical submission executes fresh.
//!
//! The in-memory dedup index covers *live* (non-terminal) runs only. When a
//! run completes, its digest graduates to the store's persistent
//! [`ResultCache`] (one `cache/entries/<digest>.json` file plus a result
//! blob per digest), which survives restarts and run-directory garbage
//! collection — so a byte-identical resubmission of any completed digest
//! answers 200 with `served_from_cache: true` and never re-executes, even on
//! a freshly started server with an empty dedup index. A hit reads one small
//! entry file and checks that the result exists without parsing it, so its
//! cost under the admission mutex does not grow with the size of the result
//! or of the cache; it is counted in the entry's `hits` and in
//! `ayb_svc_cache_hits_total`, not in the run's manifest.
//!
//! With `workers: 0` the server is *admission-only*: it accepts, dedups,
//! quota-checks and records runs but executes nothing — the deterministic
//! mode the scheduler tests drive (a separate `ayb serve` fleet sharing the
//! store can still execute).

use crate::digest::{digest_hex, parse_digest_hex, submission_digest};
use crate::http::{self, HttpError, Request};
use ayb_core::FlowConfig;
use ayb_jobs::{
    JobEvent, JobServer, JobServerConfig, Priority, QueuePolicy, ShutdownHandle, TenantPolicy,
};
use ayb_moo::OptimizerConfig;
use ayb_obs::{kind, Event, Recorder, Severity};
use ayb_store::{
    ClaimHealth, ResultCache, RunHandle, RunStatus, Store, StoreError, CLAIM_MAX_HEARTBEAT_AGE,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-connection socket IO timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Accept-loop poll interval while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// The single optimisation problem the service currently exposes; part of
/// the dedup key so a second problem can never collide with the first.
const PROBLEM_ID: &str = "ota";

/// Queued/running admission limits for one tenant (`0` = unlimited).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum runs waiting in the queue; submissions beyond it get 429.
    pub max_queued: usize,
    /// Maximum runs executing concurrently (enforced by the scheduler's
    /// per-tenant running cap, not by rejecting submissions).
    pub max_running: usize,
}

/// Configuration of a [`SvcServer`].
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub bind: String,
    /// Embedded worker threads executing admitted runs. `0` = admission
    /// only: no [`JobServer`] is started.
    pub workers: usize,
    /// Maximum concurrently open HTTP connections; further clients get an
    /// immediate 503 instead of wedging the accept loop.
    pub max_connections: usize,
    /// Quota applied to tenants without an explicit entry in
    /// [`SvcConfig::quotas`].
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, TenantQuota)>,
    /// Per-tenant scheduler-weight overrides; every other tenant has
    /// weight 1.
    pub weights: Vec<(String, u32)>,
    /// Store poll interval of the embedded job server.
    pub poll_interval: Duration,
    /// Claim-owner label of the embedded job server.
    pub owner: String,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: 256,
            default_quota: TenantQuota::default(),
            quotas: Vec::new(),
            weights: Vec::new(),
            poll_interval: Duration::from_millis(25),
            owner: format!("ayb-svc-{}", std::process::id()),
        }
    }
}

impl SvcConfig {
    /// The quota in force for `tenant`.
    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.quotas
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }

    /// Translates the service's weights and quotas into the job server's
    /// queue policy (weighted round-robin with per-tenant running caps).
    fn queue_policy(&self) -> QueuePolicy {
        let policy_of = |name: &str| TenantPolicy {
            weight: self
                .weights
                .iter()
                .find(|(n, _)| n == name)
                .map_or(1, |(_, w)| *w),
            max_running: self.quota_for(name).max_running,
        };
        let mut tenants: Vec<(String, TenantPolicy)> = Vec::new();
        let named = self.weights.iter().map(|(n, _)| n);
        for name in named.chain(self.quotas.iter().map(|(n, _)| n)) {
            if !tenants.iter().any(|(n, _)| n == name) {
                tenants.push((name.clone(), policy_of(name)));
            }
        }
        QueuePolicy {
            default: TenantPolicy {
                max_running: self.default_quota.max_running,
                ..TenantPolicy::default()
            },
            tenants,
        }
    }
}

/// Live queued/running counters for one tenant.
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounts {
    queued: usize,
    running: usize,
}

/// The admission state shared between the HTTP handlers and the job
/// server's event hook. One mutex guards all four maps so dedup + quota +
/// enqueue are atomic; holders never call back into the job server (the
/// reverse — the hook locking this while a worker runs — happens on every
/// dispatch, and lock-ordering discipline is what keeps that deadlock-free).
#[derive(Debug, Default)]
struct Admission {
    /// Submission digest → canonical run id, for *live* (non-terminal) runs
    /// only; completed digests live in the persistent [`ResultCache`].
    dedup: HashMap<u64, String>,
    /// Tenant → live counters.
    tenants: HashMap<String, TenantCounts>,
    /// Run id → owning tenant (for the event hook and cancellation).
    run_tenants: HashMap<String, String>,
    /// `(tenant, run_id)` in worker-dispatch order; the fairness tests read
    /// this to assert the weighted round-robin's starvation bound.
    dispatch_log: Vec<(String, String)>,
}

/// State shared by every connection handler thread.
struct SvcShared {
    store: Store,
    cache: ResultCache,
    recorder: Recorder,
    admission: Arc<Mutex<Admission>>,
    config: SvcConfig,
    stop: AtomicBool,
    open_connections: AtomicUsize,
    job_server: Option<Arc<JobServer>>,
}

/// A routed response: status code, content type, body bytes.
struct Routed(u16, &'static str, String);

fn json_body(pairs: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Object(pairs)).expect("json render")
}

fn error_body(error: &str, detail: impl Into<String>) -> String {
    json_body(vec![
        ("error".to_string(), Value::Str(error.to_string())),
        ("detail".to_string(), Value::Str(detail.into())),
    ])
}

fn pair(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

/// A tenant name is constrained like a run id: short and filesystem/URL
/// safe, so it can be embedded in manifests and metrics labels verbatim.
fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.')
}

impl SvcShared {
    fn emit(&self, severity: Severity, event_kind: &str, detail: String, run: Option<&str>) {
        let mut event = Event::new(severity, "svc", event_kind).detail(detail);
        if let Some(run_id) = run {
            event = event.run(run_id);
        }
        self.recorder.emit(event);
    }

    /// Routes one parsed request. Never panics; every arm returns a
    /// complete response.
    fn route(&self, req: &Request) -> Routed {
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/v1/metrics") => Routed(
                200,
                "text/plain; charset=utf-8",
                self.recorder.metrics().render_text(),
            ),
            ("POST", "/v1/runs") => self.handle_submit(req),
            (method, path) if path.starts_with("/v1/runs/") => {
                let rest = &path["/v1/runs/".len()..];
                match (
                    method,
                    rest.strip_suffix("/result"),
                    rest.strip_suffix("/cancel"),
                ) {
                    ("GET", Some(id), _) => self.handle_result(id),
                    ("POST", _, Some(id)) => self.handle_cancel(id),
                    ("GET", None, None) if !rest.contains('/') => self.handle_status(rest),
                    _ => Routed(
                        405,
                        "application/json",
                        error_body("method_not_allowed", format!("{method} {path}")),
                    ),
                }
            }
            (_, path) => Routed(
                404,
                "application/json",
                error_body("not_found", format!("no route for {path}")),
            ),
        }
    }

    /// `POST /v1/runs` — dedup, quota check, enqueue.
    fn handle_submit(&self, req: &Request) -> Routed {
        let tenant = req.header("x-ayb-tenant").unwrap_or("default").to_string();
        if !valid_tenant(&tenant) {
            return self.bad_request("invalid x-ayb-tenant header");
        }
        let body = match std::str::from_utf8(&req.body) {
            Ok(text) => text,
            Err(_) => return self.bad_request("body is not utf-8"),
        };
        let value: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => return self.bad_request(format!("body is not json: {e}")),
        };
        let submission = match parse_submission(&value) {
            Ok(s) => s,
            Err(e) => return self.bad_request(e),
        };
        let Submission {
            seed,
            flow,
            optimizer,
            priority,
        } = submission;
        let digest = submission_digest(PROBLEM_ID, seed, &optimizer, &flow);

        let hex = digest_hex(digest);
        let metrics = self.recorder.metrics();
        let mut admission = self.admission.lock().expect("admission lock");

        // Content-addressed dedup: an identical live submission returns the
        // canonical run instead of enqueueing a duplicate. A failed (or
        // cancelled) canonical run does not count — the resubmission
        // replaces it and executes fresh. The hit is counted in the metric
        // only, so it never writes the manifest under this lock.
        if let Some(existing) = admission.dedup.get(&digest).cloned() {
            if let Ok(handle) = self.store.run(&existing) {
                if let Ok(status) = handle.status() {
                    // A run that completed before its completion event
                    // moved it into the cache is moved here, and answered
                    // from the cache below like every completed digest.
                    let cached = status == RunStatus::Completed
                        && cache_completed(&self.cache, &handle, &hex);
                    if status != RunStatus::Failed && !cached {
                        metrics.inc("ayb_svc_dedup_hits_total");
                        drop(admission);
                        self.emit(
                            Severity::Debug,
                            kind::SVC_DEDUP_HIT,
                            format!("tenant={tenant} digest={}", digest_hex(digest)),
                            Some(&existing),
                        );
                        return Routed(
                            200,
                            "application/json",
                            json_body(vec![
                                pair("run_id", Value::Str(existing)),
                                pair("status", Value::Str(status.as_str().to_string())),
                                pair("deduped", Value::Bool(true)),
                                pair("digest", Value::Str(digest_hex(digest))),
                            ]),
                        );
                    }
                }
            }
            admission.dedup.remove(&digest);
        }

        // Persistent result cache: a digest completed in this server life
        // — or any previous one — answers with the finished run, consuming
        // neither queue slot nor quota. The entry outlives restarts and run
        // directory GC, so identical resubmissions never re-execute. A hit
        // is one entry read, one existence check and one hit count (under
        // this lock, so counts stay exact); the result itself is never read.
        if let Ok(Some(entry)) = self.cache.lookup(&hex) {
            if self.cache.has_result(&entry) {
                let _ = self.cache.record_hit(&hex);
                metrics.inc("ayb_svc_cache_hits_total");
                drop(admission);
                self.emit(
                    Severity::Debug,
                    kind::SVC_CACHE_HIT,
                    format!("tenant={tenant} digest={hex}"),
                    Some(&entry.run_id),
                );
                return Routed(
                    200,
                    "application/json",
                    json_body(vec![
                        pair("run_id", Value::Str(entry.run_id)),
                        pair("status", Value::Str("completed".to_string())),
                        pair("deduped", Value::Bool(true)),
                        pair("served_from_cache", Value::Bool(true)),
                        pair("digest", Value::Str(hex)),
                    ]),
                );
            }
            // An entry whose result vanished entirely (blob and run dir both
            // gone) is dead weight: drop it and execute fresh.
            let _ = self.cache.remove(&hex);
        }

        // Quota: reject before anything touches the store.
        let quota = self.config.quota_for(&tenant);
        let counts = admission.tenants.entry(tenant.clone()).or_default();
        if quota.max_queued > 0 && counts.queued >= quota.max_queued {
            metrics.inc("ayb_svc_quota_rejections_total");
            drop(admission);
            self.emit(
                Severity::Warn,
                kind::SVC_QUOTA_REJECTED,
                format!("tenant={tenant} max_queued={}", quota.max_queued),
                None,
            );
            return Routed(
                429,
                "application/json",
                json_body(vec![
                    pair("error", Value::Str("quota_exceeded".to_string())),
                    pair("tenant", Value::Str(tenant)),
                    pair("max_queued", (quota.max_queued as u64).to_value()),
                ]),
            );
        }

        let extras = vec![
            pair("tenant", Value::Str(tenant.clone())),
            pair("priority", Value::Str(priority.as_str().to_string())),
            pair("submission_digest", Value::Str(digest_hex(digest))),
        ];
        let handle = match self
            .store
            .enqueue_run_with_extras(seed, &optimizer, &flow, &extras)
        {
            Ok(handle) => handle,
            Err(e) => {
                drop(admission);
                return Routed(
                    500,
                    "application/json",
                    error_body("store_error", e.to_string()),
                );
            }
        };
        let run_id = handle.id().to_string();
        admission.dedup.insert(digest, run_id.clone());
        admission.run_tenants.insert(run_id.clone(), tenant.clone());
        admission.tenants.entry(tenant.clone()).or_default().queued += 1;
        metrics.inc("ayb_svc_submissions_total");
        drop(admission);
        self.emit(
            Severity::Info,
            kind::SVC_SUBMIT,
            format!("tenant={tenant} seed={seed} digest={}", digest_hex(digest)),
            Some(&run_id),
        );
        Routed(
            201,
            "application/json",
            json_body(vec![
                pair("run_id", Value::Str(run_id)),
                pair("status", Value::Str("queued".to_string())),
                pair("deduped", Value::Bool(false)),
                pair("digest", Value::Str(digest_hex(digest))),
            ]),
        )
    }

    /// `GET /v1/runs/{id}`.
    fn handle_status(&self, id: &str) -> Routed {
        let handle = match self.open_run(id) {
            Ok(handle) => handle,
            Err(routed) => {
                // A garbage-collected run whose result graduated to the
                // cache is still answerable — completion outlives the dir.
                if let Ok(Some(entry)) = self.cache.find_by_run(id) {
                    return Routed(
                        200,
                        "application/json",
                        json_body(vec![
                            pair("run_id", Value::Str(id.to_string())),
                            pair("status", Value::Str("completed".to_string())),
                            pair("submission_digest", Value::Str(entry.digest)),
                            pair("served_from_cache", Value::Bool(true)),
                        ]),
                    );
                }
                return routed;
            }
        };
        let status = match handle.status() {
            Ok(status) => status,
            Err(e) => {
                return Routed(
                    500,
                    "application/json",
                    error_body("store_error", e.to_string()),
                )
            }
        };
        let mut pairs = vec![
            pair("run_id", Value::Str(id.to_string())),
            pair("status", Value::Str(status.as_str().to_string())),
        ];
        for key in ["tenant", "priority", "submission_digest", "cancelled"] {
            if let Ok(Some(value)) = handle.manifest_extra(key) {
                pairs.push(pair(key, value));
            }
        }
        Routed(200, "application/json", json_body(pairs))
    }

    /// `GET /v1/runs/{id}/result`.
    fn handle_result(&self, id: &str) -> Routed {
        let handle = match self.open_run(id) {
            Ok(handle) => handle,
            Err(routed) => {
                if let Some(cached) = self.cached_result_for_run(id) {
                    return cached;
                }
                return routed;
            }
        };
        match handle.status() {
            Ok(RunStatus::Completed) => {}
            Ok(status) => {
                return Routed(
                    409,
                    "application/json",
                    json_body(vec![
                        pair("error", Value::Str("not_completed".to_string())),
                        pair("status", Value::Str(status.as_str().to_string())),
                    ]),
                )
            }
            Err(e) => {
                return Routed(
                    500,
                    "application/json",
                    error_body("store_error", e.to_string()),
                )
            }
        }
        match handle.load_result::<Value>() {
            Ok(result) => Routed(
                200,
                "application/json",
                serde_json::to_string(&result).expect("result render"),
            ),
            Err(StoreError::NoResult(_)) => match self.cached_result_for_run(id) {
                Some(cached) => cached,
                None => Routed(
                    409,
                    "application/json",
                    error_body("not_completed", "result not yet on disk"),
                ),
            },
            Err(e) => Routed(
                500,
                "application/json",
                error_body("store_error", e.to_string()),
            ),
        }
    }

    /// The cached result blob for `run_id`, when the cache has one — the
    /// answer of record once the run directory (or its `result.json`) is
    /// garbage-collected.
    fn cached_result_for_run(&self, run_id: &str) -> Option<Routed> {
        let entry = self.cache.find_by_run(run_id).ok().flatten()?;
        let result = self.cache.load_result(&entry.digest).ok().flatten()?;
        Some(Routed(
            200,
            "application/json",
            serde_json::to_string(&result).expect("result render"),
        ))
    }

    /// `POST /v1/runs/{id}/cancel` — only still-queued runs are
    /// cancellable; dispatched or terminal runs answer 409.
    fn handle_cancel(&self, id: &str) -> Routed {
        let handle = match self.open_run(id) {
            Ok(handle) => handle,
            Err(routed) => return routed,
        };
        let status = match handle.status() {
            Ok(status) => status,
            Err(e) => {
                return Routed(
                    500,
                    "application/json",
                    error_body("store_error", e.to_string()),
                )
            }
        };
        let conflict = |status: RunStatus| {
            Routed(
                409,
                "application/json",
                json_body(vec![
                    pair("error", Value::Str("not_cancellable".to_string())),
                    pair("status", Value::Str(status.as_str().to_string())),
                ]),
            )
        };
        if status != RunStatus::Queued {
            return conflict(status);
        }
        // With an embedded job server, win the race against dispatch first:
        // `cancel_queued` removes the run from the in-memory queue (or marks
        // a not-yet-scanned id as seen) — once it returns `true`, no worker
        // will ever start this run. Called *before* taking the admission
        // lock (lock ordering: never hold admission while entering the job
        // server).
        let won = match &self.job_server {
            Some(server) => server.cancel_queued(id),
            None => true,
        };
        if !won {
            return conflict(RunStatus::Running);
        }
        if let Err(e) = handle.set_status(RunStatus::Failed) {
            return Routed(
                500,
                "application/json",
                error_body("store_error", e.to_string()),
            );
        }
        let _ = handle.merge_manifest_extras(&[pair("cancelled", Value::Bool(true))]);
        let digest = handle
            .manifest_extra("submission_digest")
            .ok()
            .flatten()
            .and_then(|v| match v {
                Value::Str(s) => parse_digest_hex(&s),
                _ => None,
            });
        {
            let mut admission = self.admission.lock().expect("admission lock");
            let tenant = admission
                .run_tenants
                .get(id)
                .cloned()
                .unwrap_or_else(|| "default".to_string());
            if let Some(counts) = admission.tenants.get_mut(&tenant) {
                counts.queued = counts.queued.saturating_sub(1);
            }
            if let Some(key) = digest {
                if admission.dedup.get(&key).map(String::as_str) == Some(id) {
                    admission.dedup.remove(&key);
                }
            }
        }
        self.recorder.metrics().inc("ayb_svc_cancellations_total");
        self.emit(Severity::Info, kind::SVC_CANCELLED, String::new(), Some(id));
        Routed(
            200,
            "application/json",
            json_body(vec![
                pair("run_id", Value::Str(id.to_string())),
                pair("status", Value::Str("failed".to_string())),
                pair("cancelled", Value::Bool(true)),
            ]),
        )
    }

    fn open_run(&self, id: &str) -> Result<ayb_store::RunHandle, Routed> {
        match self.store.run(id) {
            Ok(handle) => Ok(handle),
            Err(StoreError::RunNotFound(_)) | Err(StoreError::InvalidRunId(_)) => Err(Routed(
                404,
                "application/json",
                error_body("not_found", format!("no run `{id}`")),
            )),
            Err(e) => Err(Routed(
                500,
                "application/json",
                error_body("store_error", e.to_string()),
            )),
        }
    }

    fn bad_request(&self, detail: impl Into<String>) -> Routed {
        let detail = detail.into();
        self.recorder.metrics().inc("ayb_svc_bad_requests_total");
        self.emit(Severity::Warn, kind::SVC_BAD_REQUEST, detail.clone(), None);
        Routed(400, "application/json", error_body("bad_request", detail))
    }
}

/// A parsed, seed-normalised submission.
struct Submission {
    seed: u64,
    flow: FlowConfig,
    optimizer: OptimizerConfig,
    priority: Priority,
}

/// Parses a `POST /v1/runs` body. The seed is mandatory; scale, optimizer,
/// an explicit flow configuration, and priority are optional. The seed is
/// pushed into `ga.seed`, `monte_carlo.seed` and the optimizer *before* the
/// dedup digest is computed, so every spelling of the same run collapses to
/// one key (`FlowBuilder::with_seed` semantics).
fn parse_submission(value: &Value) -> Result<Submission, String> {
    if !matches!(value, Value::Object(_)) {
        return Err(format!(
            "expected a json object, found {}",
            value.type_name()
        ));
    }
    let seed = match value.get("seed") {
        Some(v) => u64::from_value(v).map_err(|e| format!("bad seed: {e}"))?,
        None => return Err("missing required field `seed`".to_string()),
    };
    let mut flow = match value.get("flow") {
        Some(v) => FlowConfig::from_value(v).map_err(|e| format!("bad flow config: {e}"))?,
        None => match value.get("scale") {
            None => FlowConfig::reduced(),
            Some(Value::Str(scale)) => FlowConfig::from_scale(scale)?,
            Some(other) => {
                return Err(format!(
                    "bad scale: expected string, found {}",
                    other.type_name()
                ))
            }
        },
    };
    let optimizer_name = match value.get("optimizer") {
        None => "wbga".to_string(),
        Some(Value::Str(name)) => name.clone(),
        Some(other) => {
            return Err(format!(
                "bad optimizer: expected string, found {}",
                other.type_name()
            ))
        }
    };
    let mut optimizer = OptimizerConfig::from_name(&optimizer_name, flow.ga)?;
    let priority = match value.get("priority") {
        None => Priority::Normal,
        Some(Value::Str(p)) => Priority::parse(p).map_err(|e| format!("bad priority: {e}"))?,
        Some(other) => {
            return Err(format!(
                "bad priority: expected string, found {}",
                other.type_name()
            ))
        }
    };
    flow.ga.seed = seed;
    flow.monte_carlo.seed = seed;
    optimizer = optimizer.with_seed(seed);
    Ok(Submission {
        seed,
        flow,
        optimizer,
        priority,
    })
}

/// The running service: HTTP listener, admission state, and (optionally)
/// an embedded job server. Shuts down on drop.
pub struct SvcServer {
    shared: Arc<SvcShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    job_thread: Option<JoinHandle<()>>,
    job_shutdown: Option<ShutdownHandle>,
}

impl SvcServer {
    /// Binds the listener, rebuilds the admission state from the store's
    /// manifests, and (with `workers > 0`) starts the embedded job server.
    ///
    /// # Errors
    ///
    /// Fails when the bind address is unusable or the store cannot be
    /// scanned.
    pub fn start(store: Store, config: SvcConfig) -> io::Result<SvcServer> {
        let recorder = Recorder::new();
        let cache = ResultCache::open(&store).map_err(io::Error::other)?;
        let admission = Arc::new(Mutex::new(
            rebuild_admission(&store, &cache).map_err(io::Error::other)?,
        ));
        recorder.metrics().set_gauge(
            "ayb_svc_result_cache_entries",
            cache.entry_count().unwrap_or(0) as f64,
        );

        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let (job_server, job_thread, job_shutdown) = if config.workers > 0 {
            let job_config = JobServerConfig {
                workers: config.workers,
                poll_interval: config.poll_interval,
                owner: config.owner.clone(),
                queue_policy: config.queue_policy(),
                ..JobServerConfig::default()
            };
            let server = Arc::new(JobServer::new_with_recorder(
                store.clone(),
                job_config,
                recorder.clone(),
            ));
            let hook_admission = Arc::clone(&admission);
            let hook_store = store.clone();
            let hook_cache = cache.clone();
            let hook_metrics = recorder.metrics().clone();
            server.set_event_hook(move |event| {
                let run_id = event.run_id().to_string();
                {
                    let mut admission = hook_admission.lock().expect("admission lock");
                    let tenant = admission
                        .run_tenants
                        .get(&run_id)
                        .cloned()
                        .unwrap_or_else(|| "default".to_string());
                    match event {
                        JobEvent::Started { .. } => {
                            let counts = admission.tenants.entry(tenant.clone()).or_default();
                            counts.queued = counts.queued.saturating_sub(1);
                            counts.running += 1;
                            admission.dispatch_log.push((tenant, run_id.clone()));
                        }
                        JobEvent::Completed { .. }
                        | JobEvent::Failed { .. }
                        | JobEvent::Interrupted { .. }
                        | JobEvent::Skipped { .. } => {
                            let counts = admission.tenants.entry(tenant).or_default();
                            counts.running = counts.running.saturating_sub(1);
                        }
                        _ => {}
                    }
                }
                // A completed run graduates from the live dedup index to the
                // persistent result cache: insert first, *then* drop the
                // dedup key, so a racing submission always finds the digest
                // in one of the two.
                if matches!(event, JobEvent::Completed { .. }) {
                    let Ok(handle) = hook_store.run(&run_id) else {
                        return;
                    };
                    let Ok(Some(Value::Str(hex))) = handle.manifest_extra("submission_digest")
                    else {
                        return;
                    };
                    if cache_completed(&hook_cache, &handle, &hex) {
                        if let Ok(count) = hook_cache.entry_count() {
                            hook_metrics.set_gauge("ayb_svc_result_cache_entries", count as f64);
                        }
                    }
                    if let Some(key) = parse_digest_hex(&hex) {
                        let mut admission = hook_admission.lock().expect("admission lock");
                        if admission.dedup.get(&key).map(String::as_str) == Some(run_id.as_str()) {
                            admission.dedup.remove(&key);
                        }
                    }
                }
            });
            let shutdown = server.shutdown_handle();
            let run_server = Arc::clone(&server);
            let run_recorder = recorder.clone();
            let thread = thread::Builder::new()
                .name("ayb-svc-jobs".to_string())
                .spawn(move || {
                    if let Err(e) = run_server.run() {
                        run_recorder.emit(
                            Event::new(Severity::Error, "svc", "svc_job_server_failed")
                                .detail(e.to_string()),
                        );
                    }
                })?;
            (Some(server), Some(thread), Some(shutdown))
        } else {
            (None, None, None)
        };

        let shared = Arc::new(SvcShared {
            store,
            cache,
            recorder,
            admission,
            config,
            stop: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            job_server,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("ayb-svc-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener))?;

        Ok(SvcServer {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            job_thread,
            job_shutdown,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's base URL (`http://host:port`).
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The telemetry recorder shared by the HTTP plane and the embedded job
    /// server.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.shared.store
    }

    /// The persistent result cache the admission plane consults.
    pub fn result_cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The live `(queued, running)` admission counters for `tenant` —
    /// what the quota checks see. Restart tests assert the rebuilt ledger
    /// through this.
    pub fn admission_counts(&self, tenant: &str) -> (usize, usize) {
        let admission = self.shared.admission.lock().expect("admission lock");
        admission
            .tenants
            .get(tenant)
            .map(|c| (c.queued, c.running))
            .unwrap_or((0, 0))
    }

    /// `(tenant, run_id)` pairs in worker-dispatch order — the observable
    /// the fairness tests assert the weighted round-robin bound on.
    pub fn dispatch_log(&self) -> Vec<(String, String)> {
        self.shared
            .admission
            .lock()
            .expect("admission lock")
            .dispatch_log
            .clone()
    }

    /// Stops the HTTP listener and the embedded job server (idempotent).
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(handle) = self.job_shutdown.take() {
            handle.shutdown();
        }
        if let Some(thread) = self.job_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SvcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Puts a completed run's result into the persistent cache under its
/// submission digest `hex`, unless the digest is cached already. Returns
/// whether the cache now holds it.
fn cache_completed(cache: &ResultCache, handle: &RunHandle, hex: &str) -> bool {
    if matches!(cache.lookup(hex), Ok(Some(_))) {
        return true;
    }
    handle
        .load_result::<Value>()
        .is_ok_and(|result| cache.insert(hex, handle.id(), &result).is_ok())
}

/// Rebuilds the dedup index and tenant counters from the manifests on disk,
/// so a restarted service keeps deduplicating against (and counting) runs
/// admitted by a previous life.
///
/// Live (non-terminal) digests go back into the dedup index; completed
/// digests are backfilled into the persistent result cache instead, so
/// resubmissions are answered from the cache even for runs completed by an
/// external `ayb serve` fleet (or before the cache existed). Quota is
/// rebuilt only from runs that still hold it: queued manifests, and running
/// manifests whose claim holder is demonstrably alive — a `Running` corpse
/// left by a killed server must not consume a tenant's slots forever.
fn rebuild_admission(store: &Store, cache: &ResultCache) -> Result<Admission, StoreError> {
    let mut admission = Admission::default();
    for id in store.run_ids()? {
        let Ok(handle) = store.run(&id) else { continue };
        let Ok(status) = handle.status() else {
            continue;
        };
        let tenant = match handle.manifest_extra("tenant") {
            Ok(Some(Value::Str(t))) => t,
            _ => "default".to_string(),
        };
        if let Ok(Some(Value::Str(hex))) = handle.manifest_extra("submission_digest") {
            match status {
                RunStatus::Completed => {
                    cache_completed(cache, &handle, &hex);
                }
                RunStatus::Failed => {}
                _ => {
                    if let Some(key) = parse_digest_hex(&hex) {
                        admission.dedup.insert(key, id.clone());
                    }
                }
            }
        }
        match status {
            RunStatus::Queued => {
                admission.tenants.entry(tenant.clone()).or_default().queued += 1;
            }
            RunStatus::Running => {
                let holder_alive = matches!(
                    handle.claim_health(CLAIM_MAX_HEARTBEAT_AGE),
                    Ok(Some((_, ClaimHealth::Alive | ClaimHealth::Hung)))
                );
                if holder_alive {
                    admission.tenants.entry(tenant.clone()).or_default().running += 1;
                }
            }
            _ => {}
        }
        admission.run_tenants.insert(id, tenant);
    }
    Ok(admission)
}

/// Polls the non-blocking listener, enforcing the connection cap, until the
/// stop flag is raised.
fn accept_loop(shared: &Arc<SvcShared>, listener: &TcpListener) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let open = shared.open_connections.load(Ordering::SeqCst);
                if open >= shared.config.max_connections {
                    // Reject instantly instead of queueing: an overloaded
                    // service must stay observable, and a bounded pool is
                    // what keeps `/v1/metrics` answering during a flood.
                    shared
                        .recorder
                        .metrics()
                        .inc("ayb_svc_overload_rejections_total");
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    let _ = http::write_json(
                        &mut stream,
                        503,
                        &error_body("overloaded", "connection limit reached"),
                    );
                    continue;
                }
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("ayb-svc-conn".to_string())
                    .spawn(move || {
                        handle_connection(&conn_shared, stream);
                        conn_shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves one keep-alive connection until EOF, error, or shutdown. A
/// protocol violation answers 400/413 and closes; it never takes the
/// listener down with it.
fn handle_connection(shared: &Arc<SvcShared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let metrics = shared.recorder.metrics().clone();
    metrics.set_gauge(
        "ayb_svc_open_connections",
        shared.open_connections.load(Ordering::SeqCst) as f64,
    );
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let started = Instant::now();
                let close = req.wants_close();
                let Routed(status, content_type, body) = shared.route(&req);
                metrics.inc("ayb_svc_requests_total");
                metrics.inc(&format!("ayb_svc_responses_{status}_total"));
                metrics.observe("ayb_svc_request_seconds", started.elapsed().as_secs_f64());
                if http::write_response(&mut writer, status, content_type, body.as_bytes()).is_err()
                {
                    return;
                }
                if close {
                    return;
                }
            }
            Err(HttpError::Malformed(detail)) => {
                metrics.inc("ayb_svc_requests_total");
                metrics.inc("ayb_svc_responses_400_total");
                shared.emit(Severity::Warn, kind::SVC_BAD_REQUEST, detail, None);
                let _ = http::write_json(
                    &mut writer,
                    400,
                    &error_body("bad_request", "malformed http"),
                );
                return;
            }
            Err(HttpError::TooLarge(detail)) => {
                metrics.inc("ayb_svc_requests_total");
                metrics.inc("ayb_svc_responses_413_total");
                shared.emit(Severity::Warn, kind::SVC_BAD_REQUEST, detail, None);
                let _ = http::write_json(
                    &mut writer,
                    413,
                    &error_body("too_large", "message exceeds limits"),
                );
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SvcClient;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    /// Fresh store directory per test (removed on drop).
    struct TempStore {
        root: PathBuf,
    }

    impl TempStore {
        fn new(label: &str) -> TempStore {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "ayb-svc-{label}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::SeqCst)
            ));
            TempStore { root }
        }

        fn open(&self) -> Store {
            Store::open(&self.root).expect("open store")
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    /// Admission-only server (no workers): deterministic scheduler-state
    /// tests without any flow execution.
    fn admission_server(temp: &TempStore, config: SvcConfig) -> SvcServer {
        SvcServer::start(
            temp.open(),
            SvcConfig {
                workers: 0,
                ..config
            },
        )
        .expect("start service")
    }

    fn str_field(value: &Value, key: &str) -> String {
        match value.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("expected string `{key}`, found {other:?}"),
        }
    }

    #[test]
    fn quota_rejects_with_429_and_cancel_frees_the_slot() {
        let temp = TempStore::new("quota");
        let mut server = admission_server(
            &temp,
            SvcConfig {
                default_quota: TenantQuota {
                    max_queued: 2,
                    max_running: 0,
                },
                ..SvcConfig::default()
            },
        );
        let flood = SvcClient::new(&server.url()).unwrap().with_tenant("flood");

        let (status, first) = flood.submit_seed(1, "reduced").unwrap();
        assert_eq!(status, 201);
        let (status, _) = flood.submit_seed(2, "reduced").unwrap();
        assert_eq!(status, 201);
        // Third distinct submission: over max_queued → structured 429.
        let (status, body) = flood.submit_seed(3, "reduced").unwrap();
        assert_eq!(status, 429);
        assert_eq!(str_field(&body, "error"), "quota_exceeded");
        assert_eq!(str_field(&body, "tenant"), "flood");
        // Quotas are per tenant: another tenant still gets in.
        let other = SvcClient::new(&server.url()).unwrap().with_tenant("calm");
        let (status, _) = other.submit_seed(3, "reduced").unwrap();
        assert_eq!(status, 201);

        // Cancelling a queued run frees its quota slot…
        let first_id = str_field(&first, "run_id");
        let (status, body) = flood.cancel(&first_id).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("cancelled"), Some(&Value::Bool(true)));
        let (status, _) = flood.submit_seed(4, "reduced").unwrap();
        assert_eq!(status, 201, "cancel must free the quota slot");

        // …and a second cancel of the same run is a 409, not a double-free.
        let (status, _) = flood.cancel(&first_id).unwrap();
        assert_eq!(status, 409);

        let metrics = flood.metrics_text().unwrap();
        assert!(metrics.contains("ayb_svc_quota_rejections_total"));
        server.shutdown();
    }

    #[test]
    fn identical_submissions_dedup_to_one_run_and_cancel_forgets_the_key() {
        let temp = TempStore::new("dedup");
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap().with_tenant("t0");

        let (status, first) = client.submit_seed(7, "reduced").unwrap();
        assert_eq!(status, 201);
        assert_eq!(first.get("deduped"), Some(&Value::Bool(false)));
        let run_id = str_field(&first, "run_id");

        // Same submission → 200, same run, hit counted in the metric.
        let (status, second) = client.submit_seed(7, "reduced").unwrap();
        assert_eq!(status, 200);
        assert_eq!(second.get("deduped"), Some(&Value::Bool(true)));
        assert_eq!(str_field(&second, "run_id"), run_id);
        assert_eq!(str_field(&second, "digest"), str_field(&first, "digest"));

        // Dedup crosses tenants (the run is content-addressed, not
        // tenant-scoped) and spellings: an explicit optimizer/priority-free
        // body with the same seed+scale is the same key.
        let other = SvcClient::new(&server.url()).unwrap().with_tenant("t1");
        let (status, third) = other
            .submit_raw("{\"scale\": \"reduced\", \"seed\": 7}")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(str_field(&third, "run_id"), run_id);

        let (status, info) = client.run_status(&run_id).unwrap();
        assert_eq!(status, 200);
        let metrics = client.metrics_text().unwrap();
        assert!(
            metrics.lines().any(|l| l == "ayb_svc_dedup_hits_total 2"),
            "{metrics}"
        );
        assert_eq!(str_field(&info, "tenant"), "t0");

        // A different seed is a different run.
        let (status, fresh) = client.submit_seed(8, "reduced").unwrap();
        assert_eq!(status, 201);
        assert_ne!(str_field(&fresh, "run_id"), run_id);

        // Cancelling the canonical run forgets the dedup key: the next
        // identical submission executes fresh instead of returning a
        // cancelled corpse.
        let (status, _) = client.cancel(&run_id).unwrap();
        assert_eq!(status, 200);
        let (status, revived) = client.submit_seed(7, "reduced").unwrap();
        assert_eq!(status, 201);
        assert_ne!(str_field(&revived, "run_id"), run_id);
        server.shutdown();
    }

    #[test]
    fn dedup_index_survives_a_service_restart() {
        let temp = TempStore::new("restart");
        let run_id = {
            let mut server = admission_server(&temp, SvcConfig::default());
            let client = SvcClient::new(&server.url()).unwrap();
            let (status, body) = client.submit_seed(11, "reduced").unwrap();
            assert_eq!(status, 201);
            server.shutdown();
            str_field(&body, "run_id")
        };
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let (status, body) = client.submit_seed(11, "reduced").unwrap();
        assert_eq!(status, 200, "restart must rebuild the dedup index");
        assert_eq!(str_field(&body, "run_id"), run_id);
        // The rebuilt quota ledger still counts the queued run.
        let (status, _) = client.submit_seed(12, "reduced").unwrap();
        assert_eq!(status, 201);
        server.shutdown();
    }

    #[test]
    fn resubmission_after_restart_is_served_from_the_persistent_cache() {
        let temp = TempStore::new("cache");
        // Life 1: admit a run, then stop — the in-memory dedup index dies
        // with the server.
        let run_id = {
            let mut server = admission_server(&temp, SvcConfig::default());
            let client = SvcClient::new(&server.url()).unwrap();
            let (status, body) = client.submit_seed(21, "reduced").unwrap();
            assert_eq!(status, 201);
            server.shutdown();
            str_field(&body, "run_id")
        };
        // Complete it out-of-band, the way an external `ayb serve` fleet
        // sharing the store would.
        let store = temp.open();
        let result: Value = serde_json::from_str("{\"answer\": 42}").unwrap();
        {
            let handle = store.run(&run_id).unwrap();
            handle.save_result(&result).unwrap();
            handle.set_status(RunStatus::Completed).unwrap();
        }
        let dirs_before = store.run_ids().unwrap().len();

        // Life 2: empty dedup index — the persistent cache must answer,
        // without creating any run directory.
        {
            let mut server = admission_server(&temp, SvcConfig::default());
            let client = SvcClient::new(&server.url()).unwrap();
            let (status, body) = client.submit_seed(21, "reduced").unwrap();
            assert_eq!(status, 200, "completed digest must hit the cache");
            assert_eq!(body.get("served_from_cache"), Some(&Value::Bool(true)));
            assert_eq!(body.get("deduped"), Some(&Value::Bool(true)));
            assert_eq!(str_field(&body, "run_id"), run_id);
            assert_eq!(
                store.run_ids().unwrap().len(),
                dirs_before,
                "a cache hit must not enqueue anything"
            );
            // The hit is counted once, in the cache entry.
            let (status, _) = client.run_status(&run_id).unwrap();
            assert_eq!(status, 200);
            let entry = server
                .result_cache()
                .lookup(&str_field(&body, "digest"))
                .unwrap()
                .expect("cache entry");
            assert_eq!(entry.hits, 1);
            // And the result endpoint serves the stored result.
            let (status, body) = client.run_result(&run_id).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, result);
            let metrics = client.metrics_text().unwrap();
            assert!(metrics.contains("ayb_svc_cache_hits_total"));
            server.shutdown();
        }

        // Life 3: the run directory itself is garbage-collected. The cache
        // blob keeps every endpoint answering.
        std::fs::remove_dir_all(store.root().join("runs").join(&run_id)).unwrap();
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let (status, body) = client.submit_seed(21, "reduced").unwrap();
        assert_eq!(status, 200, "cache must outlive the run directory");
        assert_eq!(body.get("served_from_cache"), Some(&Value::Bool(true)));
        let (status, info) = client.run_status(&run_id).unwrap();
        assert_eq!(status, 200);
        assert_eq!(str_field(&info, "status"), "completed");
        let (status, body) = client.run_result(&run_id).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, result);
        server.shutdown();
    }

    #[test]
    fn rebuild_releases_quota_of_dead_running_and_interrupted_runs() {
        let temp = TempStore::new("deadquota");
        let config = SvcConfig {
            default_quota: TenantQuota {
                max_queued: 3,
                max_running: 0,
            },
            ..SvcConfig::default()
        };
        // Life 1: three distinct runs admitted for one tenant.
        let ids: Vec<String> = {
            let mut server = admission_server(&temp, config.clone());
            let client = SvcClient::new(&server.url()).unwrap().with_tenant("t");
            let ids = [31, 32, 33]
                .iter()
                .map(|seed| {
                    let (status, body) = client.submit_seed(*seed, "reduced").unwrap();
                    assert_eq!(status, 201);
                    str_field(&body, "run_id")
                })
                .collect();
            server.shutdown();
            ids
        };
        // Rewrite their fates behind the server's back: one Running corpse
        // with no claim (its server was SIGKILLed), one Interrupted, one
        // Running legitimately claimed by a live process (this one).
        let store = temp.open();
        store
            .run(&ids[0])
            .unwrap()
            .set_status(RunStatus::Running)
            .unwrap();
        store
            .run(&ids[1])
            .unwrap()
            .set_status(RunStatus::Interrupted)
            .unwrap();
        let live = store.run(&ids[2]).unwrap();
        live.set_status(RunStatus::Running).unwrap();
        let _claim = live.try_claim("live-holder").unwrap();

        // Life 2: the rebuilt ledger counts only runs that still hold
        // their slot — the corpse and the interrupted run release quota,
        // the legitimately claimed run keeps its running slot.
        let mut server = admission_server(&temp, config);
        assert_eq!(server.admission_counts("t"), (0, 1));
        let client = SvcClient::new(&server.url()).unwrap().with_tenant("t");
        // All three queued slots are free again.
        for seed in [34, 35, 36] {
            let (status, _) = client.submit_seed(seed, "reduced").unwrap();
            assert_eq!(status, 201, "released quota must admit seed {seed}");
        }
        // The interrupted run stays dedup-addressable (it is resumable) …
        let (status, body) = client.submit_seed(32, "reduced").unwrap();
        assert_eq!(status, 200);
        assert_eq!(str_field(&body, "run_id"), ids[1]);
        // … and never re-executes as a duplicate.
        assert_eq!(body.get("deduped"), Some(&Value::Bool(true)));
        server.shutdown();
    }

    #[test]
    fn a_run_completed_before_its_completion_event_is_answered_from_the_cache() {
        let temp = TempStore::new("completed-live");
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let (status, first) = client.submit_seed(7, "reduced").unwrap();
        assert_eq!(status, 201);
        let run_id = str_field(&first, "run_id");
        // The state between a flow's final status write and the completion
        // event that moves the run into the cache.
        let handle = temp.open().run(&run_id).unwrap();
        handle.save_result(&Value::Str("done".to_string())).unwrap();
        handle.set_status(RunStatus::Completed).unwrap();

        let (status, hit) = client.submit_seed(7, "reduced").unwrap();
        assert_eq!(status, 200, "{hit:?}");
        assert_eq!(hit.get("served_from_cache"), Some(&Value::Bool(true)));
        assert_eq!(str_field(&hit, "run_id"), run_id);
        let entry = ResultCache::open(&temp.open())
            .unwrap()
            .lookup(&str_field(&first, "digest"))
            .unwrap()
            .expect("the completed run is cached");
        assert_eq!(entry.hits, 1);
        server.shutdown();
    }

    #[test]
    fn http_status_mapping_is_distinct_per_failure() {
        let temp = TempStore::new("statuses");
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();

        // 404: unknown run, for status, result and cancel alike.
        for (status, _) in [
            client.run_status("run-9999").unwrap(),
            client.run_result("run-9999").unwrap(),
            client.cancel("run-9999").unwrap(),
        ] {
            assert_eq!(status, 404);
        }
        // 400: bodies that are not a valid submission.
        for body in [
            "",
            "not json",
            "{}",
            "{\"seed\": -1}",
            "{\"seed\": 1, \"scale\": \"galactic\"}",
            "{\"seed\": 1, \"optimizer\": \"sgd\"}",
            "{\"seed\": 1, \"priority\": \"urgent\"}",
        ] {
            let (status, _) = client.submit_raw(body).unwrap();
            assert_eq!(status, 400, "body {body:?} must be a 400");
        }
        // An unknown scale or optimizer is named with the message the CLI
        // prints too.
        for (body, message) in [
            (
                "{\"seed\": 1, \"scale\": \"galactic\"}",
                FlowConfig::from_scale("galactic").unwrap_err(),
            ),
            (
                "{\"seed\": 1, \"optimizer\": \"sgd\"}",
                OptimizerConfig::from_name("sgd", FlowConfig::reduced().ga).unwrap_err(),
            ),
        ] {
            let (_, answer) = client.submit_raw(body).unwrap();
            assert_eq!(str_field(&answer, "detail"), message, "body {body:?}");
        }
        // 409: result of a run that has not completed.
        let (_, submitted) = client.submit_seed(1, "reduced").unwrap();
        let run_id = str_field(&submitted, "run_id");
        let (status, body) = client.run_result(&run_id).unwrap();
        assert_eq!(status, 409);
        assert_eq!(str_field(&body, "error"), "not_completed");
        // 405: known resource, wrong method.
        let (status, _) = client
            .request("POST", &format!("/v1/runs/{run_id}"), None)
            .unwrap();
        assert_eq!(status, 405);
        // 404: unknown route.
        let (status, _) = client.request("GET", "/v2/nope", None).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn a_result_cached_before_eval_cache_was_deleted_is_still_served() {
        let temp = TempStore::new("retired-key");
        // The key `{"seed": 42}` had while `FlowConfig` carried `eval_cache`.
        ResultCache::open(&temp.open())
            .unwrap()
            .insert("8993e2ec1c97a525", "run-0001", &Value::Int(42))
            .unwrap();
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let (status, body) = client.submit_raw(r#"{"seed": 42}"#).unwrap();
        server.shutdown();
        assert_eq!(status, 200);
        assert_eq!(body.get("served_from_cache"), Some(&Value::Bool(true)));
    }

    #[test]
    fn a_result_over_the_request_body_bound_is_served_whole() {
        let temp = TempStore::new("big-result");
        // A paper-scale result is ~2.7 MB; this one renders to ~3.8 MB.
        let result = Value::Array(
            (0..150_000u32)
                .map(|i| {
                    Value::Array(vec![
                        Value::Int(i64::from(i)),
                        Value::Float(f64::from(i) / 7.0),
                    ])
                })
                .collect(),
        );
        let stored = serde_json::to_string(&result).unwrap();
        assert!(stored.len() > http::MAX_BODY_BYTES);
        ResultCache::open(&temp.open())
            .unwrap()
            .insert("00000000000000b1", "run-big", &result)
            .unwrap();
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let (status, body) = client.run_result("run-big").unwrap();
        assert_eq!(status, 200);
        assert_eq!(serde_json::to_string(&body).unwrap(), stored);
        server.shutdown();
    }

    #[test]
    fn a_flow_on_the_sparse_kernel_is_a_400_that_enqueues_nothing() {
        let temp = TempStore::new("sparse-flow");
        let mut server = admission_server(&temp, SvcConfig::default());
        let client = SvcClient::new(&server.url()).unwrap();
        let Value::Object(mut flow) = FlowConfig::reduced().to_value() else {
            panic!("FlowConfig serializes to an object");
        };
        for (key, value) in &mut flow {
            if key == "solver" {
                *value = Value::Str("Sparse".to_string());
            }
        }
        let body = json_body(vec![
            pair("seed", Value::Int(1)),
            pair("flow", Value::Object(flow)),
        ]);
        let (status, reply) = client.submit_raw(&body).unwrap();
        assert_eq!(status, 400, "{reply:?}");
        assert_eq!(str_field(&reply, "error"), "bad_request");
        let detail = str_field(&reply, "detail");
        assert!(detail.contains("Sparse"), "got: {detail}");
        assert!(temp.open().run_ids().unwrap().is_empty());
        server.shutdown();
    }
}
