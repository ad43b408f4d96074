//! `svc_mixed`: an in-process `SvcServer` (one worker) under a closed loop
//! of two tenants with one client each, in lockstep rounds.
//!
//! Each round, tenant `fresh` submits a never-seen reduced-scale study,
//! polls until it completes and fetches its result, while tenant `repeat`
//! resubmits a study completed in set-up (answered from the result cache)
//! and fetches its result. Both tenants make the same number of
//! submissions, so half of all submissions are cache hits.

use crate::host::{dir_bytes, peak_rss_mb, MB};
use crate::probe::{self, RunFiles};
use crate::stats::{describe, median};
use crate::trace::Tracer;
use crate::{mix, repeat_setup, timed, Ctx, Outcome};
use ayb_core::{FlowBuilder, FlowConfig, FlowResult};
use ayb_moo::OptimizerConfig;
use ayb_obs::{Event, EventSink};
use ayb_store::Store;
use ayb_svc::{http, submission_digest, SvcClient, SvcConfig, SvcServer};
use serde::Value;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Studies completed in set-up and resubmitted by tenant `repeat`.
const FIXTURES: usize = 4;
/// Seed of the studies tenant `repeat` resubmits. It is the same in every
/// run, so hit latency does not depend on `--seed` through the size of the
/// cached results; tenant `fresh` draws its studies from `--seed`.
const FIXTURE_SEED: u64 = 2008;
/// Rounds per second of `--seconds` (a round takes about 0.15 s on a
/// 2-vCPU Xeon).
const ROUNDS_PER_SECOND: f64 = 10.0;
/// Rounds at least, so p90 of each tenant's latencies is supported.
const MIN_ROUNDS: usize = 100;
/// Pause between status polls of a fresh study.
const POLL: Duration = Duration::from_millis(2);
/// A study that has not completed after this long counts as failed.
const STUDY_TIMEOUT: Duration = Duration::from_secs(60);

/// The studies both tenants submit: reduced scale on one thread.
fn study() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.threads = 1;
    config
}

fn body(seed: u64) -> String {
    let flow = serde_json::to_string(&study()).expect("flow config serializes");
    format!("{{\"seed\": {seed}, \"flow\": {flow}}}")
}

/// FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `GET /v1/runs/{id}/result`, returning the status and the hash of the
/// body bytes as served. The body is not decoded: the check compares bytes,
/// and the client's own JSON decode is not service latency.
fn fetch_result(url: &str, run_id: &str) -> Result<(u16, u64), String> {
    let authority = url.trim_start_matches("http://");
    let stream = TcpStream::connect(authority).map_err(|e| format!("connect {authority}: {e}"))?;
    stream
        .set_read_timeout(Some(STUDY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let headers = [
        ("host".to_string(), authority.to_string()),
        ("connection".to_string(), "close".to_string()),
    ];
    let path = format!("/v1/runs/{run_id}/result");
    http::write_request(&mut writer, "GET", &path, &headers, None)
        .map_err(|e| format!("send GET {path}: {e}"))?;
    let response = http::read_response(&mut BufReader::new(stream))
        .map_err(|e| format!("read GET {path}: {e}"))?;
    Ok((response.status, fnv1a(&response.body)))
}

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match value.get(key) {
        Some(Value::Str(text)) => Some(text),
        _ => None,
    }
}

/// Forwards `(run id, completed?)` of every job that ends to a channel.
struct Completions(mpsc::Sender<(String, bool)>);

impl EventSink for Completions {
    fn record(&mut self, event: &Event) {
        let completed = match event.kind.as_str() {
            "job_completed" => true,
            "job_failed" => false,
            _ => return,
        };
        if let Some(run_id) = &event.run_id {
            let _ = self.0.send((run_id.clone(), completed));
        }
    }
}

struct Fixture {
    run_id: String,
    body: String,
}

struct Pool {
    server: SvcServer,
    store: Store,
    fixtures: Vec<Fixture>,
}

fn serve(store: &Store) -> Result<SvcServer, String> {
    let config = SvcConfig {
        workers: 1,
        ..SvcConfig::default()
    };
    SvcServer::start(store.clone(), config).map_err(|e| format!("start server: {e}"))
}

/// Completes the fixture studies through a first server, waiting on its
/// completion events, then stops it: its shutdown joins the worker, so
/// every completed digest is in the result cache when the second server,
/// the one the timed phase talks to, starts on the same store.
fn set_up(dir: &Path) -> Result<Pool, String> {
    let store = Store::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?;
    let mut first = serve(&store)?;
    let (sender, ended) = mpsc::channel();
    first.recorder().add_sink(Box::new(Completions(sender)));
    let client = SvcClient::new(&first.url())?.with_tenant("repeat");
    let mut fixtures = Vec::new();
    let mut pending = BTreeMap::new();
    let mut lane = 0;
    // A study whose front is too sparse for a model fails (rarely, at this
    // scale); the next seed replaces it.
    while fixtures.len() < FIXTURES {
        while fixtures.len() + pending.len() < FIXTURES {
            let body = body(mix(FIXTURE_SEED, lane));
            lane += 1;
            let (status, answer) = client.submit_raw(&body)?;
            match (status, field(&answer, "run_id")) {
                (201, Some(run_id)) => pending.insert(run_id.to_string(), body),
                (status, _) => return Err(format!("fixture submit answered {status}")),
            };
        }
        let (run_id, ok) = ended
            .recv_timeout(STUDY_TIMEOUT)
            .map_err(|_| "fixture studies did not end".to_string())?;
        if let Some(body) = pending.remove(&run_id) {
            if ok {
                fixtures.push(Fixture { run_id, body });
            }
        }
    }
    first.shutdown();
    drop(first);
    let server = serve(&store)?;
    Ok(Pool {
        server,
        store,
        fixtures,
    })
}

#[derive(Default)]
struct Tally {
    /// `endpoint status` → requests.
    requests: BTreeMap<String, u64>,
    errors: Vec<String>,
}

impl Tally {
    fn count(&mut self, endpoint: &str, status: u16) {
        *self
            .requests
            .entry(format!("{endpoint} {status}"))
            .or_insert(0) += 1;
    }
}

#[derive(Default)]
struct Fresh {
    submit_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    result_ms: Vec<f64>,
    served: Vec<(String, u64)>,
    /// Studies whose flow failed in the service, by seed; each must fail
    /// the same way in process.
    failed_studies: Vec<(String, u64)>,
    tally: Tally,
}

#[derive(Default)]
struct Repeat {
    hit_ms: Vec<f64>,
    result_ms: Vec<f64>,
    served: Vec<(usize, u64)>,
    digests: BTreeMap<usize, String>,
    tally: Tally,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One fresh study: submit, poll to completion, fetch the result.
fn fresh_round(
    client: &SvcClient,
    url: &str,
    seed: u64,
    tracer: &Tracer,
    round: u64,
    fresh: &mut Fresh,
) {
    let started = Instant::now();
    let submitted = tracer.span("svc.submit", round, || client.submit_raw(&body(seed)));
    let run_id = match submitted {
        Ok((201, answer)) => {
            fresh.submit_ms.push(ms(started));
            fresh.tally.count("submit", 201);
            field(&answer, "run_id").unwrap_or_default().to_string()
        }
        Ok((status, _)) => {
            fresh.tally.count("submit", status);
            fresh
                .tally
                .errors
                .push(format!("fresh submit answered {status}"));
            return;
        }
        Err(e) => {
            fresh.tally.errors.push(format!("fresh submit: {e}"));
            return;
        }
    };
    let accepted = Instant::now();
    let mut running = None;
    let outcome = tracer.span("jobs.wait", round, || loop {
        let polled = tracer.span("svc.status", round, || client.run_status(&run_id));
        match polled {
            Ok((200, answer)) => {
                fresh.tally.count("status", 200);
                match field(&answer, "status") {
                    Some("completed") => return Ok(true),
                    Some("failed") => return Ok(false),
                    Some("running") if running.is_none() => running = Some(Instant::now()),
                    Some("queued" | "running") => {}
                    other => return Err(format!("{run_id} reached status {other:?}")),
                }
            }
            Ok((status, _)) => {
                fresh.tally.count("status", status);
                return Err(format!("status of {run_id} answered {status}"));
            }
            Err(e) => return Err(format!("status of {run_id}: {e}")),
        }
        if accepted.elapsed() > STUDY_TIMEOUT {
            return Err(format!("{run_id} did not complete"));
        }
        std::thread::sleep(POLL);
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            fresh.failed_studies.push((run_id, seed));
            return;
        }
        Err(e) => {
            fresh.tally.errors.push(e);
            return;
        }
    }
    let completed = Instant::now();
    fresh.turnaround_ms.push(ms(started));
    let running = running.unwrap_or(completed);
    fresh
        .queue_ms
        .push((running - accepted).as_secs_f64() * 1e3);
    fresh
        .exec_ms
        .push((completed - running).as_secs_f64() * 1e3);
    let fetch = Instant::now();
    match tracer.span("svc.result", round, || fetch_result(url, &run_id)) {
        Ok((200, hash)) => {
            fresh.result_ms.push(ms(fetch));
            fresh.tally.count("result", 200);
            fresh.served.push((run_id, hash));
        }
        Ok((status, _)) => {
            fresh.tally.count("result", status);
            fresh
                .tally
                .errors
                .push(format!("result of {run_id} answered {status}"));
        }
        Err(e) => fresh.tally.errors.push(format!("result of {run_id}: {e}")),
    }
}

/// One resubmission of a completed study, then its result.
fn repeat_round(
    client: &SvcClient,
    url: &str,
    pool: &Pool,
    index: usize,
    tracer: &Tracer,
    round: u64,
    repeat: &mut Repeat,
) {
    let fixture = &pool.fixtures[index];
    let started = Instant::now();
    match tracer.span("svc.hit", round, || client.submit_raw(&fixture.body)) {
        Ok((200, answer)) => {
            repeat.hit_ms.push(ms(started));
            let cached = matches!(answer.get("served_from_cache"), Some(Value::Bool(true)));
            repeat.tally.count("submit", 200);
            if !cached || field(&answer, "run_id") != Some(fixture.run_id.as_str()) {
                repeat.tally.errors.push(format!(
                    "resubmission of {} was not served from the cache",
                    fixture.run_id
                ));
            }
            if let Some(digest) = field(&answer, "digest") {
                repeat.digests.insert(index, digest.to_string());
            }
        }
        Ok((status, _)) => {
            repeat.tally.count("submit", status);
            repeat
                .tally
                .errors
                .push(format!("resubmission answered {status}"));
            return;
        }
        Err(e) => {
            repeat.tally.errors.push(format!("resubmission: {e}"));
            return;
        }
    }
    let fetch = Instant::now();
    match tracer.span("svc.result", round, || fetch_result(url, &fixture.run_id)) {
        Ok((200, hash)) => {
            repeat.result_ms.push(ms(fetch));
            repeat.tally.count("result", 200);
            repeat.served.push((index, hash));
        }
        Ok((status, _)) => {
            repeat.tally.count("result", status);
            repeat
                .tally
                .errors
                .push(format!("result of {} answered {status}", fixture.run_id));
        }
        Err(e) => repeat
            .tally
            .errors
            .push(format!("result of {}: {e}", fixture.run_id)),
    }
}

struct Schedule {
    seconds: f64,
    fresh: Fresh,
    repeat: Repeat,
    root: Option<u64>,
}

/// Runs `rounds` lockstep rounds; fresh seeds start at lane `first_lane`.
fn schedule(
    pool: &Pool,
    rounds: usize,
    seed: u64,
    first_lane: u64,
    tracer: &Tracer,
) -> Result<Schedule, String> {
    let url = pool.server.url();
    let fresh_client = SvcClient::new(&url)?.with_tenant("fresh");
    let repeat_client = SvcClient::new(&url)?.with_tenant("repeat");
    let barrier = Barrier::new(2);
    let mut fresh = Fresh::default();
    let started = Instant::now();
    let (repeat, root) = tracer.span("run", 0, || {
        let root = tracer.current();
        std::thread::scope(|scope| {
            let repeater = scope.spawn(|| {
                let mut repeat = Repeat::default();
                tracer.span_under(root, "svc.repeat_tenant", 0, || {
                    for round in 0..rounds {
                        barrier.wait();
                        let index = round % pool.fixtures.len();
                        repeat_round(
                            &repeat_client,
                            &url,
                            pool,
                            index,
                            tracer,
                            round as u64,
                            &mut repeat,
                        );
                    }
                });
                repeat
            });
            for round in 0..rounds {
                barrier.wait();
                let seed = mix(seed, first_lane + round as u64);
                fresh_round(&fresh_client, &url, seed, tracer, round as u64, &mut fresh);
            }
            (repeater.join().expect("repeat tenant thread"), root)
        })
    });
    Ok(Schedule {
        seconds: started.elapsed().as_secs_f64(),
        fresh,
        repeat,
        root,
    })
}

/// Checks every answer of a schedule against the runs on disk.
fn check(pool: &Pool, schedule: &Schedule, out: &mut Outcome) {
    for error in schedule
        .fresh
        .tally
        .errors
        .iter()
        .chain(&schedule.repeat.tally.errors)
    {
        out.fail(error.clone());
    }
    let tallies = [&schedule.fresh.tally, &schedule.repeat.tally];
    for (key, count) in tallies.iter().flat_map(|t| t.requests.iter()) {
        if key
            .split_once(' ')
            .is_some_and(|(_, status)| status.starts_with('5'))
        {
            out.fail(format!("{count} requests answered {key}"));
        }
    }
    for (run_id, seed) in &schedule.fresh.failed_studies {
        if FlowBuilder::new(study()).with_seed(*seed).run().is_ok() {
            out.fail(format!(
                "{run_id} failed in the service but completes in process"
            ));
        }
    }
    // The service answers with the run's result re-rendered as compact
    // JSON; render the file the same way and compare bytes.
    let on_disk = |run_id: &str| -> Option<u64> {
        let value = pool.store.run(run_id).ok()?.load_result::<Value>().ok()?;
        serde_json::to_string(&value)
            .ok()
            .map(|text| fnv1a(text.as_bytes()))
    };
    let originals: Vec<Option<u64>> = pool.fixtures.iter().map(|f| on_disk(&f.run_id)).collect();
    for (index, hash) in &schedule.repeat.served {
        if originals[*index] != Some(*hash) {
            out.fail(format!(
                "served result of {} differs from the original",
                pool.fixtures[*index].run_id
            ));
        }
    }
    for (run_id, hash) in &schedule.fresh.served {
        if on_disk(run_id) != Some(*hash) {
            out.fail(format!(
                "served result of {run_id} differs from its result.json"
            ));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        op_name: "cache hit (repeat submit -> 200)",
        ..Outcome::default()
    };
    let (pool, setup_s) = repeat_setup(ctx, |dir| set_up(&dir))?;
    out.setup_s = setup_s;
    let rounds = ((ctx.seconds * ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);

    let mut untraced_run_s = 0.0;
    let mut lane = 1_000;
    if ctx.trace {
        let untraced = schedule(&pool, rounds, ctx.seed, lane, &Tracer::new(false))?;
        check(&pool, &untraced, &mut out);
        untraced_run_s = untraced.seconds;
        lane += rounds as u64;
    }
    let tracer = Tracer::new(ctx.trace);
    let before = dir_bytes(pool.store.root());
    let measured = schedule(&pool, rounds, ctx.seed, lane, &tracer)?;
    out.peak_rss_mb = peak_rss_mb();
    out.attempted += 2 * rounds as u64;
    out.run_s = measured.seconds;
    let completed = measured.fresh.served.len().max(1);
    out.store_mb =
        dir_bytes(pool.store.root()).saturating_sub(before) as f64 / MB / completed as f64;
    check(&pool, &measured, &mut out);
    let (fresh, repeat) = (&measured.fresh, &measured.repeat);
    out.note(format!(
        "rounds: {rounds} (fresh and repeat submissions each); fresh studies whose flow failed \
         (too few Pareto points), failing in process too: {}",
        fresh.failed_studies.len()
    ));
    out.note(describe(
        "submit_ms (fresh submit -> 201)",
        "ms",
        &fresh.submit_ms,
    ));
    out.note(describe(
        "turnaround_ms (fresh submit -> completed)",
        "ms",
        &fresh.turnaround_ms,
    ));
    out.note(describe(
        "hit_ms (repeat submit -> 200 from cache)",
        "ms",
        &repeat.hit_ms,
    ));
    let results: Vec<f64> = fresh
        .result_ms
        .iter()
        .chain(&repeat.result_ms)
        .copied()
        .collect();
    out.note(describe(
        "result_ms (GET result, both tenants)",
        "ms",
        &results,
    ));
    out.note(describe(
        "queue_wait_ms (201 -> first running)",
        "ms",
        &fresh.queue_ms,
    ));
    out.note(describe(
        "exec_ms (running -> completed)",
        "ms",
        &fresh.exec_ms,
    ));
    out.op_ms = repeat.hit_ms.clone();

    if ctx.trace {
        let spans = tracer.spans();
        out.account(&spans, measured.root.ok_or("no root span")?, untraced_run_s);
        out.layer("jobs.queue_wait_ms_p50", median(&fresh.queue_ms));
        out.layer("jobs.exec_ms_p50", median(&fresh.exec_ms));
        let mut requests = 0;
        let mut errors = 0;
        for (key, count) in fresh.tally.requests.iter().chain(&repeat.tally.requests) {
            requests += count;
            if !key.ends_with(" 200") && !key.ends_with(" 201") {
                errors += count;
            }
        }
        out.layer("svc.requests", requests as f64);
        out.layer("svc.errors", errors as f64);
        let count = |tally: &Tally, key: &str| tally.requests.get(key).copied().unwrap_or(0) as f64;
        out.layer("svc.submit_201", count(&fresh.tally, "submit 201"));
        out.layer("svc.submit_200_cached", count(&repeat.tally, "submit 200"));
        out.layer("svc.status_200", count(&fresh.tally, "status 200"));
        out.layer(
            "svc.result_200",
            count(&fresh.tally, "result 200") + count(&repeat.tally, "result 200"),
        );
        layer_probes(&pool, repeat, ctx.seed, &mut out)?;
        let files: Vec<RunFiles> = fresh
            .served
            .iter()
            .map(|(run_id, _)| RunFiles::of(&pool.store.root().join("runs").join(run_id)))
            .collect();
        RunFiles::mean(&files).record(&mut out);
        let (run_id, _) = fresh.served.first().ok_or("no fresh study completed")?;
        let handle = pool.store.run(run_id).map_err(|e| e.to_string())?;
        probe::read_events(&handle, &mut out);
        let result = handle
            .load_result::<FlowResult>()
            .map_err(|e| format!("load_result: {e}"))?;
        let manifest = handle.manifest_value().map_err(|e| e.to_string())?;
        let config = manifest
            .get("config")
            .map(serde::Deserialize::from_value)
            .transpose()
            .map_err(|e: serde::Error| e.to_string())?
            .unwrap_or_else(study);
        probe::flow(&result, &config, None, &mut out);
    }
    Ok(out)
}

/// The service-plane probes: the request floor, the submission digest, the
/// three result-cache calls admission makes, and the server's own counters.
fn layer_probes(pool: &Pool, repeat: &Repeat, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let client = SvcClient::new(&pool.server.url())?;
    let floor: Vec<f64> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let answered = client.metrics_text().is_ok();
            if !answered {
                out.fail("GET /v1/metrics failed");
            }
            ms(started)
        })
        .collect();
    out.note(describe("svc floor (GET /v1/metrics)", "ms", &floor));
    out.layer("svc.floor_ms_p50", median(&floor));

    let digest_us: Vec<f64> = (0..200)
        .map(|lane| {
            let mut flow = study();
            let seed = mix(seed, lane);
            flow.ga.seed = seed;
            flow.monte_carlo.seed = seed;
            let optimizer = OptimizerConfig::Wbga(flow.ga);
            timed(|| submission_digest("ota", seed, &optimizer, &flow)).1 * 1e6
        })
        .collect();
    out.layer("svc.digest_us_p50", median(&digest_us));

    let cache = pool.server.result_cache();
    let (mut lookup, mut load, mut record) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        for hex in repeat.digests.values() {
            let (found, took) = timed(|| cache.lookup(hex));
            lookup.push(took * 1e3);
            if !matches!(found, Ok(Some(_))) {
                out.fail(format!("cache lookup of {hex} missed"));
            }
            let (loaded, took) = timed(|| cache.load_result(hex));
            load.push(took * 1e3);
            if !matches!(loaded, Ok(Some(_))) {
                out.fail(format!("cache blob of {hex} missing"));
            }
            record.push(timed(|| cache.record_hit(hex)).1 * 1e3);
        }
    }
    out.layer("store.cache_lookup_ms_p50", median(&lookup));
    out.layer("store.cache_load_ms_p50", median(&load));
    out.layer("store.cache_record_hit_ms_p50", median(&record));

    let metrics = client.metrics_text()?;
    let counter = |name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    out.layer("svc.cache_hits", counter("ayb_svc_cache_hits_total "));
    out.layer("svc.dedup_hits", counter("ayb_svc_dedup_hits_total "));
    Ok(())
}
