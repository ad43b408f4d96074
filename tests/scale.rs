//! Scale tests for the `ayb-svc` service plane: hundreds of concurrent HTTP
//! clients push thousands of submissions through a live `SvcServer` (real
//! sockets, embedded worker pool) while the test asserts the service's
//! contract under load —
//!
//! * admission stays correct: every response is 200/201/429, never a 5xx,
//!   and the flooding tenant's quota produces structured 429s;
//! * content-addressed dedup collapses duplicate submissions to one run;
//! * the weighted round-robin dispatcher honours its starvation bound for a
//!   victim tenant competing with a flooder;
//! * every run the service *executed* is digest-identical to the same seed
//!   run serially through `FlowBuilder` — the service plane is allowed to
//!   reorder work, never to change results;
//! * a result-cache hit costs admission the same whatever the size of the
//!   cached result, counts every hit exactly once, and a torn cache entry
//!   is a miss that the next completion repairs.

use ayb_core::{FlowBuilder, FlowConfig};
use ayb_moo::OptimizerConfig;
use ayb_store::{ResultCache, RunStatus, Store};
use ayb_svc::{digest_hex, submission_digest, SvcClient, SvcConfig, SvcServer, TenantQuota};
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The admission-latency test times wall-clock answers, so it runs alone:
/// it holds this lock for writing while every other test holds it for
/// reading.
static LATENCY_GATE: RwLock<()> = RwLock::new(());

fn shared_slot() -> RwLockReadGuard<'static, ()> {
    LATENCY_GATE.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_slot() -> RwLockWriteGuard<'static, ()> {
    LATENCY_GATE.write().unwrap_or_else(PoisonError::into_inner)
}

fn temp_store(label: &str) -> (PathBuf, Store) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "ayb-scale-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let store = Store::open(&root).expect("store opens");
    (root, store)
}

/// The cheapest full five-stage flow: every stage runs, wall clock is tens
/// of milliseconds, and the determinism digest is still seed-sensitive.
fn tiny_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.ga.population_size = 6;
    config.ga.generations = 2;
    config.ga.tournament_size = 2;
    config.ga.elitism = 1;
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 3);
    config.monte_carlo.samples = 3;
    config.max_pareto_points = 3;
    config.threads = 1;
    config
}

/// Serial (store-less) reference digest for a seed under [`tiny_config`].
fn reference_digest(seed: u64) -> u64 {
    FlowBuilder::new(tiny_config())
        .with_seed(seed)
        .run()
        .expect("reference flow completes")
        .determinism_digest()
}

/// Submission body pinning the full tiny flow config (so the service and
/// the serial reference agree on every knob, not just the preset).
fn tiny_body(seed: u64) -> String {
    let flow = serde_json::to_string(&tiny_config()).expect("flow renders");
    format!("{{\"seed\": {seed}, \"flow\": {flow}}}")
}

/// The submission digest the service computes for [`tiny_body`]: seed
/// normalisation pins the GA and Monte Carlo seeds to the submission seed.
fn tiny_body_digest(seed: u64) -> String {
    let mut flow = tiny_config();
    flow.ga.seed = seed;
    flow.monte_carlo.seed = seed;
    let optimizer = OptimizerConfig::Wbga(flow.ga);
    digest_hex(submission_digest("ota", seed, &optimizer, &flow))
}

fn str_field(value: &Value, key: &str) -> String {
    match value.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected string `{key}`, found {other:?}"),
    }
}

/// Asserts that every `Completed` run in the store digests identically to
/// the serial reference for its manifest seed; returns how many it checked.
fn assert_completed_runs_match_serial_references(store: &Store) -> usize {
    let mut references: HashMap<u64, u64> = HashMap::new();
    let mut checked = 0;
    for id in store.run_ids().expect("run ids") {
        let handle = store.run(&id).expect("run opens");
        if handle.status().expect("status reads") != RunStatus::Completed {
            continue;
        }
        let manifest = handle.manifest::<FlowConfig>().expect("manifest parses");
        let expected = *references
            .entry(manifest.seed)
            .or_insert_with(|| reference_digest(manifest.seed));
        let result: ayb_core::FlowResult = handle.load_result().expect("result loads");
        assert_eq!(
            result.determinism_digest(),
            expected,
            "run {id} (seed {}) diverged from the serial reference",
            manifest.seed
        );
        checked += 1;
    }
    checked
}

/// What one load-client thread saw, merged for the global assertions.
#[derive(Default)]
struct ClientOutcome {
    statuses: Vec<u16>,
    dedup_hits: usize,
    run_ids: Vec<String>,
    errors: Vec<String>,
}

/// Phase A — the flood: over 100 concurrent clients across seven tenants
/// submit over 1000 runs (mostly distinct, some duplicated, one tenant way
/// over quota) against a live server executing in the background.
#[test]
fn a_thousand_submissions_from_a_hundred_clients_stay_correct() {
    let _shared = shared_slot();
    let (root, store) = temp_store("flood");
    let mut server = SvcServer::start(
        store.clone(),
        SvcConfig {
            workers: 1,
            quotas: vec![(
                "flood".to_string(),
                TenantQuota {
                    max_queued: 5,
                    max_running: 1,
                },
            )],
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let url = server.url();

    // 120 well-behaved clients (unique seeds plus one shared duplicate
    // seed each) + 10 flooding clients hammering one quota-capped tenant.
    const GOOD_CLIENTS: usize = 120;
    const FLOOD_CLIENTS: usize = 10;
    const REQUESTS_PER_CLIENT: usize = 10;
    const DUPLICATE_SEED: u64 = 500_000;

    let outcomes = Mutex::new(Vec::<ClientOutcome>::new());
    std::thread::scope(|scope| {
        for client_index in 0..(GOOD_CLIENTS + FLOOD_CLIENTS) {
            let url = &url;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let flooding = client_index >= GOOD_CLIENTS;
                let tenant = if flooding {
                    "flood".to_string()
                } else {
                    format!("tenant-{}", client_index % 6)
                };
                let client = SvcClient::new(url)
                    .expect("client url")
                    .with_tenant(&tenant);
                let mut outcome = ClientOutcome::default();
                for request in 0..REQUESTS_PER_CLIENT {
                    // Last request of every good client is the shared
                    // duplicate; everything else is a globally unique seed.
                    let seed = if !flooding && request == REQUESTS_PER_CLIENT - 1 {
                        DUPLICATE_SEED
                    } else {
                        1 + (client_index * REQUESTS_PER_CLIENT + request) as u64
                    };
                    match client.submit_raw(&tiny_body(seed)) {
                        Ok((status, value)) => {
                            outcome.statuses.push(status);
                            if value.get("deduped") == Some(&Value::Bool(true)) {
                                outcome.dedup_hits += 1;
                            }
                            if status == 201 {
                                outcome.run_ids.push(str_field(&value, "run_id"));
                            }
                        }
                        Err(e) => outcome.errors.push(e),
                    }
                }
                // The read side rides the same load: poll a run's status
                // and the metrics endpoint mid-flood.
                if let Some(run_id) = outcome.run_ids.first().cloned() {
                    match client.run_status(&run_id) {
                        Ok((status, _)) => assert_eq!(status, 200, "status of own run"),
                        Err(e) => outcome.errors.push(e),
                    }
                }
                if client_index % 25 == 0 {
                    match client.metrics_text() {
                        Ok(text) => assert!(text.contains("ayb_svc_requests_total")),
                        Err(e) => outcome.errors.push(e),
                    }
                }
                outcomes.lock().expect("outcomes lock").push(outcome);
            });
        }
    });

    let outcomes = outcomes.into_inner().expect("outcomes lock");
    let all_statuses: Vec<u16> = outcomes.iter().flat_map(|o| o.statuses.clone()).collect();
    let errors: Vec<&String> = outcomes.iter().flat_map(|o| &o.errors).collect();
    assert!(errors.is_empty(), "transport errors under load: {errors:?}");
    assert_eq!(
        all_statuses.len(),
        (GOOD_CLIENTS + FLOOD_CLIENTS) * REQUESTS_PER_CLIENT,
        "every submission got an answer"
    );
    assert!(
        all_statuses.iter().all(|s| [200, 201, 429].contains(s)),
        "only 200/201/429 are acceptable under load: {:?}",
        all_statuses
            .iter()
            .filter(|s| ![200, 201, 429].contains(*s))
            .collect::<Vec<_>>()
    );

    // Dedup: the shared seed was submitted 110 times but created one run.
    let dedup_hits: usize = outcomes.iter().map(|o| o.dedup_hits).sum();
    assert!(
        dedup_hits >= GOOD_CLIENTS - 1,
        "expected ≥{} dedup hits, saw {dedup_hits}",
        GOOD_CLIENTS - 1
    );

    // Quota: the flooding tenant pushed 100 submissions through a
    // 5-queued quota while the single worker drains slowly — the vast
    // majority must have been rejected with 429.
    let rejections = all_statuses.iter().filter(|s| **s == 429).count();
    assert!(
        rejections > 0,
        "the flooding tenant must have seen quota rejections"
    );

    // Scale floor: >1000 runs actually landed in the store's queue.
    let created: usize = outcomes.iter().map(|o| o.run_ids.len()).sum();
    assert!(
        created >= 1000,
        "expected ≥1000 created runs, got {created}"
    );
    let run_count = store.run_ids().expect("run ids").len();
    assert!(
        run_count >= 1000,
        "expected ≥1000 admitted runs, store has {run_count}"
    );

    // Fairness, weakly (the deterministic bound is the next test): the
    // worker that ran during the flood served more than one tenant.
    let dispatched = server.dispatch_log();
    if dispatched.len() >= 8 {
        let tenants: std::collections::HashSet<&String> =
            dispatched.iter().map(|(tenant, _)| tenant).collect();
        assert!(
            tenants.len() > 1,
            "WRR must interleave tenants, got only {tenants:?}"
        );
    }

    // Let the worker finish a few runs before stopping, so the digest
    // check below has completed work to verify.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let completed = store
            .run_ids()
            .expect("run ids")
            .into_iter()
            .filter(|id| {
                store.run(id).expect("run").status().expect("status") == RunStatus::Completed
            })
            .count();
        if completed >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker completed no runs during the flood"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    // Whatever the worker finished mid-flood must match serial execution.
    let checked = assert_completed_runs_match_serial_references(&store);
    assert!(checked >= 3, "the worker should have completed some runs");
    let _ = std::fs::remove_dir_all(root);
}

/// Phase B — deterministic fairness: a flooding tenant enqueues 30
/// submissions (10 distinct runs × 3 duplicates) before a victim tenant's 4
/// runs; a single-worker server must dispatch the victim's k-th run within
/// the weighted round-robin bound (position 2k for equal weights) instead
/// of draining the flood first, and every run's outcome must match serial
/// execution: completed runs digest-identical, failed runs (seeds whose
/// tiny flow legitimately yields too few Pareto points) failing serially
/// too — the service may reorder work, never change what a seed computes.
#[test]
fn wrr_dispatch_bounds_the_victims_wait_and_preserves_digests() {
    let _shared = shared_slot();
    let (root, store) = temp_store("fairness");

    // Stage 1: admission only (no workers) — build the full backlog first
    // so dispatch order is a pure function of the queue, not of timing.
    {
        let mut admission = SvcServer::start(
            store.clone(),
            SvcConfig {
                workers: 0,
                ..SvcConfig::default()
            },
        )
        .expect("admission service starts");
        let flood = SvcClient::new(&admission.url())
            .expect("client url")
            .with_tenant("flood");
        let victim = SvcClient::new(&admission.url())
            .expect("client url")
            .with_tenant("victim");
        for round in 0..3 {
            for seed in 9000..9010u64 {
                let (status, value) = flood.submit_raw(&tiny_body(seed)).expect("flood submits");
                if round == 0 {
                    assert_eq!(status, 201, "{value:?}");
                } else {
                    assert_eq!(status, 200, "duplicate must dedup: {value:?}");
                }
            }
        }
        for seed in 9100..9104u64 {
            let (status, _) = victim.submit_raw(&tiny_body(seed)).expect("victim submits");
            assert_eq!(status, 201);
        }
        // 10 flood runs × 2 extra submissions, counted at admission.
        let metrics = flood.metrics_text().expect("metrics scrape");
        assert!(
            metrics.lines().any(|l| l == "ayb_svc_dedup_hits_total 20"),
            "{metrics}"
        );
        admission.shutdown();
    }
    assert_eq!(store.queued_run_ids().expect("queued").len(), 14);

    // Stage 2: a fresh single-worker server adopts the backlog. Its first
    // store scan sees all 14 runs at once, so the weighted round-robin is
    // deterministic: equal weights alternate flood/victim strictly while
    // both lanes are non-empty.
    let mut server = SvcServer::start(
        store.clone(),
        SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        },
    )
    .expect("dispatch service starts");
    let client = SvcClient::new(&server.url()).expect("client url");

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let queued = store.queued_run_ids().expect("queued");
        let running =
            store.run_ids().expect("ids").into_iter().any(|id| {
                store.run(&id).expect("run").status().expect("status") == RunStatus::Running
            });
        if queued.is_empty() && !running {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backlog did not drain: {queued:?} still queued"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Starvation bound: with equal weights the victim's k-th dispatch must
    // appear within the first 2k slots (±1 for the scan/pop race on the
    // very first dispatch).
    let log = server.dispatch_log();
    assert_eq!(log.len(), 14, "all queued runs dispatched: {log:?}");
    let victim_positions: Vec<usize> = log
        .iter()
        .enumerate()
        .filter(|(_, (tenant, _))| tenant == "victim")
        .map(|(position, _)| position)
        .collect();
    assert_eq!(victim_positions.len(), 4, "log: {log:?}");
    for (k, position) in victim_positions.iter().enumerate() {
        assert!(
            *position <= 2 * (k + 1),
            "victim run {} dispatched at position {position}, beyond the \
             WRR bound {} — log: {log:?}",
            k + 1,
            2 * (k + 1)
        );
    }

    // Result endpoint serves a completed run's artefact over HTTP.
    let completed_id = store
        .run_ids()
        .expect("ids")
        .into_iter()
        .find(|id| store.run(id).expect("run").status().expect("status") == RunStatus::Completed)
        .expect("at least one completed run");
    let (status, result) = client.run_result(&completed_id).expect("result fetch");
    assert_eq!(status, 200);
    assert!(result.get("pareto_points").is_some() || matches!(result, Value::Object(_)));

    server.shutdown();
    // Outcome parity with serial execution. A seed whose optimizer archive
    // is too thin for the variation model fails deterministically — the
    // service must reproduce that failure, not mask or invent it.
    let checked = assert_completed_runs_match_serial_references(&store);
    let mut failed_seeds = Vec::new();
    for id in store.run_ids().expect("ids") {
        let handle = store.run(&id).expect("run opens");
        if handle.status().expect("status") == RunStatus::Failed {
            failed_seeds.push(handle.manifest::<FlowConfig>().expect("manifest").seed);
        }
    }
    for &seed in &failed_seeds {
        assert!(
            FlowBuilder::new(tiny_config())
                .with_seed(seed)
                .run()
                .is_err(),
            "run for seed {seed} failed under the service but completes \
             serially — the service changed the outcome"
        );
    }
    assert_eq!(
        checked + failed_seeds.len(),
        14,
        "every dispatched run must reach a terminal state matching serial \
         execution ({checked} completed, {failed_seeds:?} failed)"
    );
    assert!(
        checked >= 10,
        "most seeds must complete; only {checked} did (failed: {failed_seeds:?})"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// Phase C — the full submission lifecycle at the HTTP layer: a cancelled
/// digest re-executes fresh, while a completed digest graduates into the
/// persistent result cache and keeps answering — same run id, no new run
/// directory — across a server restart and even after the run directory
/// itself is garbage-collected. This is the regression test for the bug
/// where identical resubmissions re-executed once the in-memory dedup
/// entry dropped.
#[test]
fn http_lifecycle_cancel_reexecutes_and_completion_caches_across_restart_and_gc() {
    let _shared = shared_slot();
    let (root, store) = temp_store("lifecycle");
    // The tiny flow legitimately fails for some seeds (archive too thin for
    // the variation model); pick one that completes serially so "completed"
    // below is the only acceptable terminal state.
    let seed = (41_000..41_050u64)
        .find(|&s| FlowBuilder::new(tiny_config()).with_seed(s).run().is_ok())
        .expect("a seed that completes the tiny flow serially");
    let body = tiny_body(seed);

    // Life 1 (admission only): cancellation releases the content address.
    let cancelled_id;
    {
        let mut server = SvcServer::start(
            store.clone(),
            SvcConfig {
                workers: 0,
                ..SvcConfig::default()
            },
        )
        .expect("service starts");
        let client = SvcClient::new(&server.url()).expect("client url");
        let (status, first) = client.submit_raw(&body).expect("submit");
        assert_eq!(status, 201, "{first:?}");
        cancelled_id = str_field(&first, "run_id");

        // While the run is live, an identical body dedups — not a cache hit.
        let (status, dup) = client.submit_raw(&body).expect("duplicate");
        assert_eq!(status, 200);
        assert_eq!(dup.get("deduped"), Some(&Value::Bool(true)));
        assert_eq!(
            dup.get("served_from_cache"),
            None,
            "a queued run is dedup, not cache: {dup:?}"
        );

        // After cancellation the same bytes must execute fresh.
        let (status, _) = client.cancel(&cancelled_id).expect("cancel");
        assert_eq!(status, 200);
        let (status, fresh) = client.submit_raw(&body).expect("resubmit after cancel");
        assert_eq!(status, 201, "cancelled digest must re-execute: {fresh:?}");
        assert_ne!(str_field(&fresh, "run_id"), cancelled_id);
        server.shutdown();
    }

    // Life 2 (one worker): the resubmitted run completes, graduating the
    // digest from the live dedup index into the persistent result cache.
    let run_id;
    let reference;
    {
        let mut server = SvcServer::start(
            store.clone(),
            SvcConfig {
                workers: 1,
                ..SvcConfig::default()
            },
        )
        .expect("service restarts with a worker");
        let client = SvcClient::new(&server.url()).expect("client url");
        run_id = store
            .run_ids()
            .expect("ids")
            .into_iter()
            .find(|id| *id != cancelled_id)
            .expect("the resubmitted run exists");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (code, value) = client.run_status(&run_id).expect("status");
            assert_eq!(code, 200);
            if value.get("status") == Some(&Value::Str("completed".to_string())) {
                break;
            }
            assert!(Instant::now() < deadline, "run did not complete: {value:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        let (code, result) = client.run_result(&run_id).expect("result");
        assert_eq!(code, 200);
        reference = serde_json::to_string(&result).expect("result renders");
        // The worker's flow counted its checkpoint saves on the service's
        // recorder.
        let metrics = client.metrics_text().expect("metrics scrape");
        for name in [
            "ayb_flow_checkpoint_bytes_total ",
            "ayb_flow_checkpoint_seconds_count ",
        ] {
            assert!(metrics.contains(name), "{name}missing: {metrics}");
        }

        // Same life, same bytes: answered from the cache, no new run.
        let runs_before = store.run_ids().expect("ids").len();
        let (code, hit) = client.submit_raw(&body).expect("resubmit after completion");
        assert_eq!(code, 200, "{hit:?}");
        assert_eq!(hit.get("served_from_cache"), Some(&Value::Bool(true)));
        assert_eq!(hit.get("deduped"), Some(&Value::Bool(true)));
        assert_eq!(str_field(&hit, "run_id"), run_id);
        assert_eq!(store.run_ids().expect("ids").len(), runs_before);
        server.shutdown();
    }

    // GC the run directory entirely; the cache index and blob survive.
    std::fs::remove_dir_all(root.join("runs").join(&run_id)).expect("gc removes the run dir");

    // Life 3: a fresh process (empty in-memory index, no workers). The
    // identical body is still a cache hit, and the status/result endpoints
    // keep answering for the collected run.
    {
        let mut server = SvcServer::start(
            store.clone(),
            SvcConfig {
                workers: 0,
                ..SvcConfig::default()
            },
        )
        .expect("service restarts after gc");
        let client = SvcClient::new(&server.url()).expect("client url");
        let runs_before = store.run_ids().expect("ids").len();
        let (code, hit) = client.submit_raw(&body).expect("resubmit after gc");
        assert_eq!(code, 200, "{hit:?}");
        assert_eq!(hit.get("served_from_cache"), Some(&Value::Bool(true)));
        assert_eq!(str_field(&hit, "run_id"), run_id);
        assert_eq!(
            store.run_ids().expect("ids").len(),
            runs_before,
            "a cache hit must not create a run directory"
        );

        let (code, status) = client.run_status(&run_id).expect("status after gc");
        assert_eq!(code, 200, "{status:?}");
        assert_eq!(status.get("served_from_cache"), Some(&Value::Bool(true)));
        let (code, result) = client.run_result(&run_id).expect("result after gc");
        assert_eq!(code, 200);
        assert_eq!(
            serde_json::to_string(&result).expect("result renders"),
            reference,
            "the cached blob must be byte-identical to the original result"
        );
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A synthetic result shaped like a paper-scale `result.json` as stores
/// wrote it before the archive was stored once: an archive of
/// `evaluations` float-vector evaluations, stored twice.
fn synthetic_paper_result(evaluations: usize) -> Value {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let archive = Value::Array(
        (0..evaluations)
            .map(|_| {
                let parameters = (0..8).map(|_| Value::Float(unit())).collect();
                let objectives = vec![
                    Value::Float(40.0 + 40.0 * unit()),
                    Value::Float(1e6 * unit()),
                ];
                Value::Object(vec![
                    ("parameters".to_string(), Value::Array(parameters)),
                    ("objectives".to_string(), Value::Array(objectives)),
                ])
            })
            .collect(),
    );
    Value::Object(vec![
        ("archive".to_string(), archive.clone()),
        (
            "optimization".to_string(),
            Value::Object(vec![("archive".to_string(), archive)]),
        ),
    ])
}

fn admission_only(store: &Store) -> SvcServer {
    SvcServer::start(
        store.clone(),
        SvcConfig {
            workers: 0,
            ..SvcConfig::default()
        },
    )
    .expect("service starts")
}

/// Phase D — a cache hit is an existence check: while one client resubmits
/// a study whose cached result is tens of megabytes, every distinct
/// submission of another tenant is still answered within a fixed bound.
/// Decoding the blob on each hit, under the admission mutex, would hold
/// every other tenant for as long as the decode takes.
#[test]
fn a_large_cached_result_stalls_no_other_tenant() {
    const BOUND: Duration = Duration::from_millis(100);
    const SUBMISSIONS: u64 = 20;
    // Evaluations per archive in the cached result: about 13 MB of the
    // store's compact JSON, which takes several times BOUND (~0.5 s) to
    // decode in the debug profile.
    const EVALUATIONS: usize = 30_000;
    let _alone = exclusive_slot();
    let (root, store) = temp_store("bigresult");
    let cached_seed = 43_000;
    let digest = tiny_body_digest(cached_seed);
    ResultCache::open(&store)
        .expect("cache opens")
        .insert(&digest, "run-big", &synthetic_paper_result(EVALUATIONS))
        .expect("large result caches");
    let blob = root
        .join("cache")
        .join("results")
        .join(format!("{digest}.json"));
    let blob_bytes = std::fs::metadata(blob).expect("blob written").len();
    let mut server = admission_only(&store);
    let url = server.url();

    let stop = AtomicBool::new(false);
    let hits = AtomicU64::new(0);
    let latencies = std::thread::scope(|scope| {
        scope.spawn(|| {
            let client = SvcClient::new(&url)
                .expect("client url")
                .with_tenant("repeat");
            let body = tiny_body(cached_seed);
            while !stop.load(Ordering::SeqCst) {
                let (status, answer) = client.submit_raw(&body).expect("resubmit");
                assert_eq!(status, 200, "{answer:?}");
                assert_eq!(answer.get("served_from_cache"), Some(&Value::Bool(true)));
                hits.fetch_add(1, Ordering::SeqCst);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(120);
        while hits.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let client = SvcClient::new(&url)
            .expect("client url")
            .with_tenant("fresh");
        // No panics before `stop` is set: the hitting client would spin on.
        let latencies: Vec<(Result<u16, String>, Duration)> = (0..SUBMISSIONS)
            .map(|index| {
                let started = Instant::now();
                let answer = client.submit_raw(&tiny_body(44_000 + index));
                (answer.map(|(status, _)| status), started.elapsed())
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        latencies
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);

    let worst = latencies
        .iter()
        .map(|(_, took)| *took)
        .max()
        .unwrap_or_default();
    eprintln!(
        "{} cache hits of a {blob_bytes}-byte result; worst distinct submission {worst:?}",
        hits.load(Ordering::SeqCst)
    );
    assert!(
        hits.load(Ordering::SeqCst) > 0,
        "the cached study never hit"
    );
    for (status, took) in latencies {
        assert_eq!(status, Ok(201));
        assert!(
            took < BOUND,
            "a distinct submission waited {took:?} behind cache hits (bound {BOUND:?})"
        );
    }
}

/// Concurrent resubmissions of one cached digest: every hit is counted
/// exactly once, in the cache entry and in the metrics counter alike.
#[test]
fn concurrent_cache_hits_are_counted_exactly() {
    const CLIENTS: usize = 16;
    let _shared = shared_slot();
    let (root, store) = temp_store("exacthits");
    let seed = 45_000;
    let digest = tiny_body_digest(seed);
    let cache = ResultCache::open(&store).expect("cache opens");
    cache
        .insert(&digest, "run-hits", &Value::Str("done".to_string()))
        .expect("result caches");
    let mut server = admission_only(&store);
    let url = server.url();
    let body = tiny_body(seed);
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let client = SvcClient::new(&url).expect("client url");
                start.wait();
                let (status, answer) = client.submit_raw(&body).expect("resubmit");
                assert_eq!(status, 200, "{answer:?}");
                assert_eq!(answer.get("served_from_cache"), Some(&Value::Bool(true)));
            });
        }
    });
    let hits = cache.lookup(&digest).expect("lookup").expect("entry").hits;
    let counted = server
        .recorder()
        .metrics()
        .counter("ayb_svc_cache_hits_total");
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    assert_eq!(hits, CLIENTS as u64);
    assert_eq!(counted, CLIENTS as u64);
}

/// A zero-length entry file (a torn write) is a miss, not a wedge: that
/// digest executes fresh and its completion writes a whole entry over the
/// torn one, other digests keep hitting meanwhile, and `gc` deletes
/// unparsable entry files.
#[test]
fn a_torn_cache_entry_is_a_miss_not_a_wedge() {
    let _shared = shared_slot();
    let (root, store) = temp_store("torn");
    let torn_seed = (42_000..42_050u64)
        .find(|&s| FlowBuilder::new(tiny_config()).with_seed(s).run().is_ok())
        .expect("a seed that completes the tiny flow serially");
    let cached_seed = 46_000;
    let torn = tiny_body_digest(torn_seed);
    let cache = ResultCache::open(&store).expect("cache opens");
    cache
        .insert(
            &tiny_body_digest(cached_seed),
            "run-cached",
            &Value::Str("done".to_string()),
        )
        .expect("result caches");
    let entries = root.join("cache").join("entries");
    std::fs::write(entries.join(format!("{torn}.json")), "").expect("tear the entry");

    let mut server = SvcServer::start(
        store.clone(),
        SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let client = SvcClient::new(&server.url()).expect("client url");
    let (status, fresh) = client.submit_raw(&tiny_body(torn_seed)).expect("submit");
    assert_eq!(status, 201, "a torn entry must execute fresh: {fresh:?}");
    let run_id = str_field(&fresh, "run_id");
    let (status, hit) = client.submit_raw(&tiny_body(cached_seed)).expect("submit");
    assert_eq!(status, 200, "other digests keep hitting: {hit:?}");
    assert_eq!(hit.get("served_from_cache"), Some(&Value::Bool(true)));

    let deadline = Instant::now() + Duration::from_secs(120);
    let entry = loop {
        if let Some(entry) = cache.lookup(&torn).expect("lookup") {
            break entry;
        }
        assert!(
            Instant::now() < deadline,
            "completion never re-cached {torn}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(entry.run_id, run_id);
    let (status, hit) = client.submit_raw(&tiny_body(torn_seed)).expect("resubmit");
    assert_eq!(status, 200, "{hit:?}");
    assert_eq!(str_field(&hit, "run_id"), run_id);
    server.shutdown();

    let garbled = entries.join("00000000000000aa.json");
    std::fs::write(&garbled, "{\"digest\": ").expect("garble an entry");
    let report = cache.gc(None).expect("gc sweeps");
    assert_eq!(report.entries_removed, 1);
    assert_eq!(report.entries_kept, 2);
    assert!(!garbled.exists());
    let _ = std::fs::remove_dir_all(root);
}
