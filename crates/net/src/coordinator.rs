//! The coordinator: a TCP server owning shard-epoch state in memory.
//!
//! One [`Coordinator`] replaces the shared store directory as the meeting
//! point of a sharded run: the submitting flow opens epochs and publishes
//! work here, workers claim and submit here, and nobody touches anybody
//! else's filesystem. State is deliberately *in memory only* — an epoch is
//! scratch space for one batch, and the flow's `drive_epoch` loop already
//! survives total state loss (every request errors, the per-shard fallback
//! services the work locally, the digest is unchanged). What the coordinator
//! adds over the disk plane is an atomic **fence check**: both planes follow
//! the claim rule of [`ShardTransport`](ayb_moo::ShardTransport) — every
//! claim carries a per-shard monotonic token, a claim whose heartbeat lapses
//! is taken over by the next claim at a higher token, and a submission is
//! accepted only from the highest token ever issued — but here the check
//! and the write are one step under one lock, so a hung worker that wakes
//! up after its claim was taken over has its late write *rejected*, never
//! merged.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ayb_moo::{ShardOutcome, ShardWork, ShardWorkKind};
use ayb_obs::{kind as event_kind, Event, Recorder, Severity};
use serde::Value;

use crate::wire::{
    read_frame, write_frame, CoordinatorStats, NetShardTask, Request, Response, MAX_EPOCH_SHARDS,
};

/// Tuning knobs for a [`Coordinator`].
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// A claim whose heartbeat is older than this is stale: the shard's next
    /// claim takes it over at a higher fencing token.
    pub stale_after: Duration,
}

impl Default for CoordinatorConfig {
    /// The flow's bound, [`ayb_moo::SHARD_CLAIM_STALE_AFTER`].
    fn default() -> Self {
        CoordinatorConfig {
            stale_after: ayb_moo::SHARD_CLAIM_STALE_AFTER,
        }
    }
}

/// A live claim on one shard.
struct ClaimSlot {
    /// The fencing token minted for this claim.
    token: u64,
    /// Label of the claiming worker (diagnostics).
    owner: String,
    /// Last heartbeat (claim or explicit heartbeat request).
    heartbeat: Instant,
}

/// One shard of one epoch.
#[derive(Default)]
struct ShardSlot {
    work: Option<ShardWork>,
    outcome: Option<ShardOutcome>,
    claim: Option<ClaimSlot>,
    /// Highest fencing token ever issued for this shard. Submissions are
    /// accepted only at exactly this token.
    last_token: u64,
}

/// A claim [`ShardSlot::grant`] handed out.
struct Grant {
    /// The fencing token minted for it.
    token: u64,
    /// The stale claim it took over, if any.
    taken_over: Option<ClaimSlot>,
}

impl ShardSlot {
    /// Grants `owner` a claim at the shard's next fencing token by the claim
    /// rule: when the shard is published, unfinished and holds no claim
    /// heard from within `stale_after`. A stale claim is taken over; the
    /// token counter is never rewound, which is what fences its holder off.
    fn grant(&mut self, owner: &str, stale_after: Duration) -> Option<Grant> {
        let live = |claim: &ClaimSlot| claim.heartbeat.elapsed() <= stale_after;
        if self.work.is_none() || self.outcome.is_some() || self.claim.as_ref().is_some_and(live) {
            return None;
        }
        self.last_token += 1;
        let taken_over = self.claim.replace(ClaimSlot {
            token: self.last_token,
            owner: owner.to_string(),
            heartbeat: Instant::now(),
        });
        Some(Grant {
            token: self.last_token,
            taken_over,
        })
    }
}

/// One open epoch.
struct EpochSlot {
    kind: ShardWorkKind,
    run_id: String,
    context: Option<Value>,
    shards: Vec<ShardSlot>,
}

/// Everything behind the mutex.
struct CoordState {
    /// Open epochs, ordered by name so `ClaimNext` scans deterministically.
    epochs: BTreeMap<String, EpochSlot>,
    /// Epoch name counter, never rewound (not even by [`Coordinator::wipe_state`]).
    next_epoch: u64,
    /// Incremented by [`Coordinator::wipe_state`] and baked into epoch
    /// names, so a "restarted" coordinator can never re-mint a pre-restart
    /// epoch name (a real restart achieves the same with its fresh process).
    boot: u64,
    claims_issued: u64,
    fenced_rejections: u64,
}

impl CoordState {
    /// The counters every stats view reports: `Coordinator::stats`, the
    /// `Stats` request and the metrics gauges.
    fn stats(&self) -> CoordinatorStats {
        CoordinatorStats {
            epochs: self.epochs.len(),
            open_shards: self
                .epochs
                .values()
                .flat_map(|epoch| &epoch.shards)
                .filter(|slot| slot.work.is_some() && slot.outcome.is_none())
                .count(),
            claims_issued: self.claims_issued,
            fenced_rejections: self.fenced_rejections,
        }
    }
}

struct CoordShared {
    config: CoordinatorConfig,
    state: Mutex<CoordState>,
    /// Telemetry: request counters/latency histogram, claim/fence events.
    /// Lives outside the state mutex — the recorder's own locks are leaves.
    recorder: Recorder,
}

/// The coordinator server. Binding spawns an accept loop (plus one short
/// thread per connection); dropping the handle shuts the server down.
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<CoordShared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the coordinator to `addr` (e.g. `"127.0.0.1:4710"`, or port 0
    /// for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the address cannot be resolved or
    /// bound.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: CoordinatorConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(CoordShared {
            config,
            state: Mutex::new(CoordState {
                epochs: BTreeMap::new(),
                next_epoch: 0,
                boot: 0,
                claims_issued: 0,
                fenced_rejections: 0,
            }),
            recorder: Recorder::new(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("ayb-net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_stop))?;
        Ok(Coordinator {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the coordinator actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator's address as a `tcp://host:port` transport URL.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// The coordinator's event recorder. `ayb coordinate` attaches a
    /// stderr sink here so claim/fence events surface in the server log.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The coordinator's metrics registry rendered in the text exposition
    /// format, with the state gauges refreshed first — exactly what a
    /// [`Request::Metrics`] frame returns over the wire.
    pub fn metrics_text(&self) -> String {
        let state = self.shared.state.lock().expect("coordinator state lock");
        refresh_state_gauges(&self.shared.recorder, &state);
        drop(state);
        self.shared.recorder.metrics().render_text()
    }

    /// A snapshot of the coordinator's counters.
    pub fn stats(&self) -> CoordinatorStats {
        self.shared
            .state
            .lock()
            .expect("coordinator state lock")
            .stats()
    }

    /// Human-readable one-line descriptions of every open epoch (stage,
    /// submitting run, progress, live claims with their owners and tokens) —
    /// what `ayb coordinate` prints as its periodic status.
    pub fn describe(&self) -> Vec<String> {
        let state = self.shared.state.lock().expect("coordinator state lock");
        state
            .epochs
            .iter()
            .map(|(name, epoch)| {
                let stage = match epoch.kind {
                    ShardWorkKind::Eval => "eval",
                    ShardWorkKind::Variation => "var",
                };
                let done = epoch
                    .shards
                    .iter()
                    .filter(|slot| slot.outcome.is_some())
                    .count();
                let claims: Vec<String> = epoch
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(shard, slot)| {
                        slot.claim
                            .as_ref()
                            .map(|claim| format!("{shard}:{}#{}", claim.owner, claim.token))
                    })
                    .collect();
                let claims = if claims.is_empty() {
                    String::new()
                } else {
                    format!(" claims [{}]", claims.join(", "))
                };
                format!(
                    "{name} ({stage}, run {run}): {done}/{total} shards done{claims}",
                    run = epoch.run_id,
                    total = epoch.shards.len(),
                )
            })
            .collect()
    }

    /// Drops every epoch — claims, published work and results alike — as if
    /// the coordinator process had been killed and restarted (state is in
    /// memory only, so that is exactly what a restart does). The chaos
    /// harness uses this to script coordinator crashes without fighting the
    /// OS for the listening port. Epoch names stay unique across wipes, so
    /// a pre-wipe epoch identifier can never be resurrected.
    pub fn wipe_state(&self) {
        let mut state = self.shared.state.lock().expect("coordinator state lock");
        state.epochs.clear();
        state.boot += 1;
    }

    /// Stops the accept loop and joins it. Dropping the handle does the
    /// same; this form merely makes the shutdown point explicit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How long the accept loop sleeps between polls of the non-blocking
/// listener (also bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection socket timeouts: a peer that stalls longer than this
/// mid-frame is dropped (its claim, if any, expires by heartbeat).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn accept_loop(listener: &TcpListener, shared: &Arc<CoordShared>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("ayb-net-conn".to_string())
                    .spawn(move || serve_connection(stream, &shared));
                // Out of threads: drop the connection; the client retries or
                // falls back locally.
                drop(spawned);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<CoordShared>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Clients are connect-per-request, but serving until EOF costs nothing
    // and keeps the protocol honest for pipelined callers.
    while let Ok(request) = read_frame::<Request>(&mut stream) {
        let response = handle_request(shared, request);
        if write_frame(&mut stream, &response).is_err() {
            break;
        }
    }
}

/// Refreshes the gauges derived from coordinator state (epoch and open
/// shard counts). Called with the state lock held, immediately before a
/// metrics rendering, so scrapes always see current values.
fn refresh_state_gauges(recorder: &Recorder, state: &CoordState) {
    let stats = state.stats();
    let metrics = recorder.metrics();
    metrics.set_gauge("ayb_coord_epochs", stats.epochs as f64);
    metrics.set_gauge("ayb_coord_open_shards", stats.open_shards as f64);
}

/// An [`Event`] stamped with the coordinator's source label and the
/// shard coordinates every claim-lifecycle event shares.
fn coord_event(severity: Severity, kind: &str, run_id: &str, epoch: &str, shard: usize) -> Event {
    Event::new(severity, "coordinator", kind)
        .run(run_id)
        .epoch(epoch)
        .shard(shard as u64)
}

fn handle_request(shared: &CoordShared, request: Request) -> Response {
    let started = Instant::now();
    let label = request.label();
    let response = dispatch_request(shared, request);
    let metrics = shared.recorder.metrics();
    metrics.inc("ayb_coord_requests_total");
    metrics.inc(&format!("ayb_coord_requests_{label}_total"));
    metrics.observe("ayb_coord_request_seconds", started.elapsed().as_secs_f64());
    response
}

/// Counts and announces one granted claim, after a `shard_recover` event
/// for the stale claim it took over, if any.
fn note_claim(
    shared: &CoordShared,
    claims_issued: &mut u64,
    run_id: &str,
    epoch: &str,
    shard: usize,
    owner: &str,
    grant: &Grant,
) {
    *claims_issued += 1;
    shared.recorder.metrics().inc("ayb_coord_claims_total");
    let event = |severity: Severity, kind: &str| coord_event(severity, kind, run_id, epoch, shard);
    if let Some(stale) = &grant.taken_over {
        shared.recorder.emit(
            event(Severity::Warn, event_kind::SHARD_RECOVER)
                .fence(stale.token)
                .detail(format!("stale claim of `{}` taken over", stale.owner)),
        );
    }
    shared.recorder.emit(
        event(Severity::Debug, event_kind::SHARD_CLAIM)
            .fence(grant.token)
            .detail(format!("claim granted to `{owner}`")),
    );
}

fn dispatch_request(shared: &CoordShared, request: Request) -> Response {
    let mut guard = shared.state.lock().expect("coordinator state lock");
    let state = &mut *guard;
    let stale_after = shared.config.stale_after;
    match request {
        Request::OpenEpoch { shard_count, .. } if shard_count > MAX_EPOCH_SHARDS => {
            Response::Error {
                message: format!(
                    "an epoch of {shard_count} shards exceeds the {MAX_EPOCH_SHARDS}-shard bound"
                ),
            }
        }
        Request::OpenEpoch {
            kind,
            shard_count,
            run_id,
            context,
        } => {
            state.next_epoch += 1;
            let epoch = format!(
                "{}net-{}-{:04}",
                kind.epoch_prefix(),
                state.boot,
                state.next_epoch
            );
            let mut shards = Vec::with_capacity(shard_count);
            shards.resize_with(shard_count, ShardSlot::default);
            state.epochs.insert(
                epoch.clone(),
                EpochSlot {
                    kind,
                    run_id,
                    context,
                    shards,
                },
            );
            Response::EpochOpened { epoch }
        }
        Request::Publish { epoch, shard, work } => {
            match shard_slot(&mut state.epochs, &epoch, shard) {
                Some((slot, _)) => {
                    slot.work = Some(work);
                    Response::Ok
                }
                None => unknown_shard(&epoch, shard),
            }
        }
        Request::TryClaim {
            epoch,
            shard,
            owner,
        } => {
            let Some((slot, run_id)) = shard_slot(&mut state.epochs, &epoch, shard) else {
                return unknown_shard(&epoch, shard);
            };
            match slot.grant(&owner, stale_after) {
                Some(grant) => {
                    let issued = &mut state.claims_issued;
                    note_claim(shared, issued, run_id, &epoch, shard, &owner, &grant);
                    Response::ClaimGranted {
                        granted: true,
                        token: grant.token,
                    }
                }
                None => Response::ClaimGranted {
                    granted: false,
                    token: 0,
                },
            }
        }
        Request::Heartbeat {
            epoch,
            shard,
            token,
        } => {
            if let Some((slot, _)) = shard_slot(&mut state.epochs, &epoch, shard) {
                if let Some(claim) = &mut slot.claim {
                    if claim.token == token {
                        claim.heartbeat = Instant::now();
                    }
                }
            }
            // Advisory: a heartbeat against a stolen claim or a closed epoch
            // is not an error, just ineffective.
            Response::Ok
        }
        Request::Submit {
            epoch,
            shard,
            token,
            outcome,
        } => {
            let Some((slot, run_id)) = shard_slot(&mut state.epochs, &epoch, shard) else {
                return unknown_shard(&epoch, shard);
            };
            if token != slot.last_token {
                state.fenced_rejections += 1;
                shared.recorder.metrics().inc("ayb_coord_fenced_total");
                shared.recorder.emit(
                    coord_event(
                        Severity::Warn,
                        event_kind::SHARD_FENCED,
                        run_id,
                        &epoch,
                        shard,
                    )
                    .fence(token)
                    .detail("stale submit fenced off: token superseded"),
                );
                return Response::SubmitAck { accepted: false };
            }
            shared.recorder.emit(
                coord_event(
                    Severity::Debug,
                    event_kind::SHARD_SUBMIT,
                    run_id,
                    &epoch,
                    shard,
                )
                .fence(token),
            );
            if slot.outcome.is_none() {
                slot.outcome = Some(outcome);
            }
            if slot
                .claim
                .as_ref()
                .is_some_and(|claim| claim.token == token)
            {
                slot.claim = None;
            }
            Response::SubmitAck { accepted: true }
        }
        Request::Fetch { epoch, shard } => match shard_slot(&mut state.epochs, &epoch, shard) {
            Some((slot, _)) => Response::Outcome {
                outcome: slot.outcome.clone(),
            },
            None => unknown_shard(&epoch, shard),
        },
        Request::CloseEpoch { epoch } => {
            state.epochs.remove(&epoch);
            Response::Ok
        }
        Request::ClaimNext { owner } => {
            let claimed = state.epochs.iter_mut().find_map(|(name, epoch)| {
                epoch
                    .shards
                    .iter_mut()
                    .enumerate()
                    .find_map(|(shard, slot)| {
                        let grant = slot.grant(&owner, stale_after)?;
                        let task = NetShardTask {
                            run_id: epoch.run_id.clone(),
                            epoch: name.clone(),
                            shard,
                            token: grant.token,
                            work: slot.work.clone().expect("a granted shard has work"),
                            context: epoch.context.clone(),
                        };
                        Some((task, grant))
                    })
            });
            let task = claimed.map(|(task, grant)| {
                let issued = &mut state.claims_issued;
                let (run_id, epoch) = (&task.run_id, &task.epoch);
                note_claim(shared, issued, run_id, epoch, task.shard, &owner, &grant);
                task
            });
            Response::Task { task }
        }
        Request::Stats => Response::Stats {
            stats: state.stats(),
        },
        Request::Metrics => {
            refresh_state_gauges(&shared.recorder, state);
            Response::Metrics {
                text: shared.recorder.metrics().render_text(),
            }
        }
    }
}

/// Looks up one shard slot and the run id of its epoch.
fn shard_slot<'a>(
    epochs: &'a mut BTreeMap<String, EpochSlot>,
    epoch: &str,
    shard: usize,
) -> Option<(&'a mut ShardSlot, &'a str)> {
    let slot = epochs.get_mut(epoch)?;
    Some((slot.shards.get_mut(shard)?, &slot.run_id))
}

fn unknown_shard(epoch: &str, shard: usize) -> Response {
    Response::Error {
        message: format!(
            "unknown shard {shard} of epoch `{epoch}` (closed, or the coordinator restarted)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TcpTransport;
    use ayb_moo::{ShardTransport, VariationOutcome, VariationPointWork};

    fn eval_work(parameters: &[Vec<f64>]) -> ShardWork {
        ShardWork::Eval {
            parameters: parameters.to_vec(),
        }
    }

    fn eval_outcome(results: Vec<Option<ayb_moo::Evaluation>>) -> ShardOutcome {
        ShardOutcome::Eval { results }
    }

    fn coordinator(stale_after: Duration) -> Coordinator {
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig { stale_after })
            .expect("coordinator binds an ephemeral port")
    }

    fn transport(coordinator: &Coordinator) -> TcpTransport {
        TcpTransport::from_url(&coordinator.url()).expect("coordinator URL parses")
    }

    #[test]
    fn epoch_roundtrip_over_tcp() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 2).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![0.1, 0.2], vec![0.3, 0.4]]))
            .unwrap();
        plane
            .publish_work(&epoch, 1, &eval_work(&[vec![0.5, 0.6]]))
            .unwrap();
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), None);
        assert!(plane.try_claim(&epoch, 0).unwrap());
        assert!(!plane.try_claim(&epoch, 0).unwrap(), "claims are exclusive");
        plane
            .submit_outcome(&epoch, 0, &eval_outcome(vec![None, None]))
            .unwrap();
        assert_eq!(
            plane.fetch_outcome(&epoch, 0).unwrap(),
            Some(eval_outcome(vec![None, None]))
        );
        // A submitted shard cannot be re-claimed.
        assert!(!plane.try_claim(&epoch, 0).unwrap());
        plane.close_epoch(&epoch).unwrap();
        assert!(
            plane.fetch_outcome(&epoch, 0).is_err(),
            "a closed epoch is gone entirely"
        );
    }

    #[test]
    fn stale_claims_expire_and_reclaim_at_higher_token() {
        let coordinator = coordinator(Duration::from_millis(40));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![1.0]]))
            .unwrap();
        let first = plane
            .try_claim_token(&epoch, 0, "w1")
            .unwrap()
            .expect("first claim granted");
        // Heartbeats keep the claim alive across the staleness bound...
        std::thread::sleep(Duration::from_millis(25));
        plane.heartbeat(&epoch, 0, first).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(
            plane.try_claim_token(&epoch, 0, "w2").unwrap(),
            None,
            "heartbeat kept it fresh"
        );
        // ...then the worker hangs: the heartbeat lapses and the next claim
        // takes the claim over.
        std::thread::sleep(Duration::from_millis(60));
        let second = plane
            .try_claim_token(&epoch, 0, "w2")
            .unwrap()
            .expect("a stale claim is taken over");
        assert_eq!(second, first + 1, "a refused claim mints no token");
    }

    #[test]
    fn late_submission_from_stolen_claim_is_fenced_off() {
        let coordinator = coordinator(Duration::from_millis(30));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![1.0], vec![2.0]]))
            .unwrap();
        let zombie = plane
            .try_claim_token(&epoch, 0, "zombie")
            .unwrap()
            .expect("zombie claims first");
        std::thread::sleep(Duration::from_millis(60));
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .expect("steward takes the hung claim over");
        // The zombie wakes up and submits: rejected, nothing stored.
        let results = eval_outcome(vec![None, None]);
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), None);
        // The steward's submission (highest token) lands.
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        assert_eq!(
            plane.fetch_outcome(&epoch, 0).unwrap(),
            Some(eval_outcome(vec![None, None]))
        );
        let stats = coordinator.stats();
        assert_eq!(stats.fenced_rejections, 1);
        assert_eq!(stats.claims_issued, 2);
    }

    #[test]
    fn claim_next_hands_out_work_with_context() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator).with_run_context(
            "run-0042",
            Value::Object(vec![("threads".to_string(), Value::Int(2))]),
        );
        let epoch = plane.open_typed_epoch(ShardWorkKind::Variation, 1).unwrap();
        plane
            .publish_work(
                &epoch,
                0,
                &ShardWork::VariationBatch {
                    points: vec![VariationPointWork {
                        parameters: vec![0.5, 0.5],
                        mc_seed: 77,
                    }],
                },
            )
            .unwrap();
        let task = plane
            .claim_next("worker-a")
            .unwrap()
            .expect("published work is claimable");
        assert_eq!(task.run_id, "run-0042");
        assert_eq!(task.epoch, epoch);
        assert_eq!(task.shard, 0);
        assert!(task.context.is_some(), "flow context travels with the task");
        assert!(
            matches!(&task.work, ShardWork::VariationBatch { points } if points[0].mc_seed == 77)
        );
        // Nothing else to hand out while the claim is live.
        assert_eq!(plane.claim_next("worker-b").unwrap(), None);
        let description = coordinator.describe().join("\n");
        assert!(
            description.contains("run run-0042") && description.contains("worker-a#1"),
            "coordinator describes its claims: {description}"
        );
        let outcome = ShardOutcome::VariationBatch {
            points: vec![VariationOutcome {
                data: None,
                elapsed_seconds: 0.25,
            }],
        };
        assert!(plane.submit_task(&task, &outcome).unwrap());
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), Some(outcome));
    }

    #[test]
    fn wipe_state_forgets_epochs_but_not_names() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let before = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&before, 0, &eval_work(&[vec![1.0]]))
            .unwrap();
        coordinator.wipe_state();
        assert!(
            plane.fetch_outcome(&before, 0).is_err(),
            "pre-wipe epochs are unknown after the wipe"
        );
        let after = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        assert_ne!(before, after, "epoch names are never reused across wipes");
        assert_eq!(coordinator.stats().epochs, 1);
    }

    #[test]
    fn metrics_scrape_reports_claims_and_fences() {
        let coordinator = coordinator(Duration::from_millis(30));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![1.0]]))
            .unwrap();
        let zombie = plane.try_claim_token(&epoch, 0, "zombie").unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .unwrap();
        let results = eval_outcome(vec![None]);
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        let text = plane
            .coordinator_metrics()
            .expect("metrics scrape over the wire");
        assert!(text.contains("ayb_coord_claims_total 2"), "{text}");
        assert!(text.contains("ayb_coord_fenced_total 1"), "{text}");
        assert!(text.contains("ayb_coord_epochs 1"), "{text}");
        assert!(
            text.contains("ayb_coord_request_seconds_count"),
            "request latency histogram is exported: {text}"
        );
        // The local render agrees on the counters (the scrape itself has
        // bumped the request totals since, so no exact text equality).
        let local = coordinator.metrics_text();
        assert!(local.contains("ayb_coord_claims_total 2"), "{local}");
        assert!(local.contains("ayb_coord_fenced_total 1"), "{local}");
        // The coordinator's own event stream carries the fence forensics.
        let events = coordinator.recorder().recent();
        let fenced: Vec<_> = events
            .iter()
            .filter(|event| event.kind == event_kind::SHARD_FENCED)
            .collect();
        assert_eq!(fenced.len(), 1);
        assert_eq!(fenced[0].fence, Some(zombie));
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_CLAIM)
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_RECOVER)
                .count(),
            1
        );
    }

    #[test]
    fn transport_recorder_sees_both_sides_of_a_fenced_submit() {
        let coordinator = coordinator(Duration::from_millis(30));
        let recorder = Recorder::new();
        let plane = transport(&coordinator).with_recorder(recorder.clone());
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![1.0]]))
            .unwrap();
        let zombie = plane.try_claim_token(&epoch, 0, "zombie").unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let fresh = plane
            .try_claim_token(&epoch, 0, "steward")
            .unwrap()
            .unwrap();
        let results = eval_outcome(vec![None]);
        assert!(!plane
            .submit_with_token(&epoch, 0, zombie, &results)
            .unwrap());
        assert!(plane.submit_with_token(&epoch, 0, fresh, &results).unwrap());
        let events = recorder.recent();
        let fenced: Vec<_> = events
            .iter()
            .filter(|event| event.kind == event_kind::SHARD_FENCED)
            .collect();
        assert_eq!(fenced.len(), 1, "client records its own fenced submit");
        assert_eq!(fenced[0].fence, Some(zombie));
        assert_eq!(
            events
                .iter()
                .filter(|event| event.kind == event_kind::SHARD_SUBMIT)
                .count(),
            1
        );
        // Every round-trip landed in the latency histogram.
        let histogram = recorder
            .metrics()
            .histogram("ayb_shard_request_seconds")
            .expect("request latency histogram exists");
        assert_eq!(histogram.count(), plane.stats().requests);
    }

    #[test]
    fn malformed_frames_get_errors_and_leave_the_coordinator_serving() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        let frames = [
            Request::OpenEpoch {
                kind: ShardWorkKind::Eval,
                shard_count: usize::MAX,
                run_id: String::new(),
                context: None,
            },
            Request::OpenEpoch {
                kind: ShardWorkKind::Eval,
                shard_count: MAX_EPOCH_SHARDS + 1,
                run_id: String::new(),
                context: None,
            },
            Request::Publish {
                epoch: epoch.clone(),
                shard: 1,
                work: eval_work(&[vec![1.0]]),
            },
            Request::Publish {
                epoch: epoch.clone(),
                shard: usize::MAX,
                work: eval_work(&[vec![1.0]]),
            },
        ];
        for frame in &frames {
            let mut stream = TcpStream::connect(coordinator.local_addr()).unwrap();
            write_frame(&mut stream, frame).unwrap();
            let response: Response =
                read_frame(&mut stream).unwrap_or_else(|e| panic!("no response to {frame:?}: {e}"));
            assert!(
                matches!(response, Response::Error { .. }),
                "{frame:?} got {response:?}"
            );
        }
        // An ordinary epoch round trip still succeeds, and the state lock is
        // not poisoned.
        plane
            .publish_work(&epoch, 0, &eval_work(&[vec![1.0]]))
            .unwrap();
        assert!(plane.try_claim(&epoch, 0).unwrap());
        let outcome = eval_outcome(vec![None]);
        plane.submit_outcome(&epoch, 0, &outcome).unwrap();
        assert_eq!(plane.fetch_outcome(&epoch, 0).unwrap(), Some(outcome));
        plane.close_epoch(&epoch).unwrap();
        assert_eq!(coordinator.stats().epochs, 0);
    }

    #[test]
    fn requests_against_a_dead_coordinator_are_transport_errors() {
        let coordinator = coordinator(Duration::from_secs(60));
        let plane = transport(&coordinator);
        let epoch = plane.open_typed_epoch(ShardWorkKind::Eval, 1).unwrap();
        coordinator.shutdown();
        let error = plane.fetch_outcome(&epoch, 0).expect_err("socket is gone");
        let ayb_moo::ShardError::Transport(message) = error;
        assert!(!message.is_empty());
    }
}
