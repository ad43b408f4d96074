//! The client side: the TCP plane's [`ShardTransport`] for submitters and
//! its [`ShardSource`] for the job workers that poll it.
//!
//! A [`TcpTransport`] holds no connection — every call dials the
//! coordinator, exchanges exactly one request/response frame and closes.
//! That makes the client trivially `Clone + Send + Sync` (clones share the
//! token table and the stats), keeps the coordinator free of per-client
//! connection state, and makes every call an independent failure domain:
//! any socket or protocol error surfaces as
//! [`ShardError::Transport`], which `drive_epoch` already converts into
//! "service this shard locally" after three strikes.
//!
//! Fencing is transparent to the `ShardTransport` consumer: a granted claim's
//! token is remembered per `(epoch, shard)` and attached to the matching
//! submit; a submission the coordinator fences off is *dropped silently*
//! (the shard's accepted result is identical by determinism) but counted in
//! [`TransportStats::fenced_rejections`].

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ayb_moo::{
    ClaimedShard, ShardError, ShardOutcome, ShardSource, ShardTransport, ShardWork, ShardWorkKind,
    TransportStats,
};
use ayb_obs::{kind as event_kind, Event, Recorder, Severity};
use serde::Value;

use crate::wire::{read_frame, write_frame, Request, Response};

/// Per-call socket timeouts. Generous: a coordinator that takes longer than
/// this per request is effectively down, and the caller's fallback path is
/// the right response.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A [`ShardTransport`] speaking the wire protocol of an
/// [`ayb_net::Coordinator`](crate::Coordinator).
#[derive(Clone)]
pub struct TcpTransport {
    /// Coordinator socket address, `host:port`.
    addr: String,
    /// Run identifier announced when opening epochs.
    run_id: String,
    /// Submitter context forwarded to workers (the run's flow config).
    context: Option<Value>,
    /// Fencing tokens of claims this client holds, per `(epoch, shard)`.
    tokens: Arc<Mutex<HashMap<(String, usize), u64>>>,
    stats: Arc<Mutex<TransportStats>>,
    /// Optional telemetry: request latency and claim/fence events.
    recorder: Option<Recorder>,
}

impl TcpTransport {
    /// A transport dialing `addr` (`host:port`). No connection is made until
    /// the first call.
    pub fn connect(addr: impl Into<String>) -> TcpTransport {
        TcpTransport {
            addr: addr.into(),
            run_id: String::new(),
            context: None,
            tokens: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(Mutex::new(TransportStats::default())),
            recorder: None,
        }
    }

    /// Builds a transport from a `tcp://host:port` URL.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a malformed URL (wrong scheme,
    /// missing host or port).
    pub fn from_url(url: &str) -> Result<TcpTransport, String> {
        crate::parse_transport_url(url).map(TcpTransport::connect)
    }

    /// The coordinator address this transport dials, as a `tcp://` URL.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// Attaches the submitting run's identity and context (its serialized
    /// flow configuration); both travel inside every subsequently opened
    /// epoch so that workers can service its shards store-free.
    #[must_use]
    pub fn with_run_context(mut self, run_id: &str, context: Value) -> TcpTransport {
        self.run_id = run_id.to_string();
        self.context = Some(context);
        self
    }

    /// Attaches an event recorder: every request round-trip lands in the
    /// `ayb_shard_request_seconds` histogram, and claim/fence outcomes are
    /// emitted as events alongside the [`TransportStats`] counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> TcpTransport {
        self.recorder = Some(recorder);
        self
    }

    /// An [`Event`] stamped with this transport's source label and run id.
    fn event(&self, severity: Severity, kind: &str) -> Event {
        let event = Event::new(severity, "transport", kind);
        if self.run_id.is_empty() {
            event
        } else {
            event.run(&self.run_id)
        }
    }

    /// Emits `event` when a recorder is attached; a no-op otherwise.
    fn emit(&self, event: Event) {
        if let Some(recorder) = &self.recorder {
            recorder.emit(event);
        }
    }

    /// One request/response exchange, with stats accounting. Protocol-level
    /// [`Response::Error`]s are converted into [`ShardError::Transport`]
    /// here so callers only ever see the ordinary response variants.
    fn call(&self, request: &Request) -> Result<Response, ShardError> {
        let started = Instant::now();
        let outcome = self.call_inner(request);
        let elapsed = started.elapsed().as_secs_f64();
        {
            let mut stats = self.stats.lock().expect("transport stats lock");
            stats.requests += 1;
            stats.request_seconds += elapsed;
        }
        if let Some(recorder) = &self.recorder {
            recorder
                .metrics()
                .observe("ayb_shard_request_seconds", elapsed);
            recorder.emit(
                self.event(Severity::Debug, event_kind::SHARD_REQUEST)
                    .value(elapsed)
                    .detail(request.label()),
            );
        }
        match outcome? {
            Response::Error { message } => Err(ShardError::Transport(message)),
            response => Ok(response),
        }
    }

    fn call_inner(&self, request: &Request) -> Result<Response, ShardError> {
        let fail = |e: std::io::Error| ShardError::Transport(format!("{}: {e}", self.addr));
        let mut stream = TcpStream::connect(&self.addr).map_err(fail)?;
        stream.set_read_timeout(Some(CALL_TIMEOUT)).map_err(fail)?;
        stream.set_write_timeout(Some(CALL_TIMEOUT)).map_err(fail)?;
        write_frame(&mut stream, request).map_err(fail)?;
        read_frame(&mut stream).map_err(fail)
    }

    fn unexpected(response: &Response) -> ShardError {
        ShardError::Transport(format!("unexpected coordinator response: {response:?}"))
    }

    /// Attempts to claim shard `shard`, returning the claim's fencing token
    /// when granted (and remembering it for the matching submit).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn try_claim_token(
        &self,
        epoch: &str,
        shard: usize,
        owner: &str,
    ) -> Result<Option<u64>, ShardError> {
        match self.call(&Request::TryClaim {
            epoch: epoch.to_string(),
            shard,
            owner: owner.to_string(),
        })? {
            Response::ClaimGranted {
                granted: true,
                token,
            } => {
                self.tokens
                    .lock()
                    .expect("transport token lock")
                    .insert((epoch.to_string(), shard), token);
                self.emit(
                    self.event(Severity::Debug, event_kind::SHARD_CLAIM)
                        .epoch(epoch)
                        .shard(shard as u64)
                        .fence(token)
                        .detail(format!("claim granted to `{owner}`")),
                );
                Ok(Some(token))
            }
            Response::ClaimGranted { granted: false, .. } => Ok(None),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Submits a typed outcome under an explicit fencing token, returning
    /// whether the coordinator accepted it (`false`: fenced off).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the epoch is unknown or the
    /// coordinator is unreachable.
    pub fn submit_with_token(
        &self,
        epoch: &str,
        shard: usize,
        token: u64,
        outcome: &ShardOutcome,
    ) -> Result<bool, ShardError> {
        match self.call(&Request::Submit {
            epoch: epoch.to_string(),
            shard,
            token,
            outcome: outcome.clone(),
        })? {
            Response::SubmitAck { accepted } => {
                if !accepted {
                    self.stats
                        .lock()
                        .expect("transport stats lock")
                        .fenced_rejections += 1;
                    self.emit(
                        self.event(Severity::Warn, event_kind::SHARD_FENCED)
                            .epoch(epoch)
                            .shard(shard as u64)
                            .fence(token)
                            .detail("submit fenced off: claim was stolen"),
                    );
                } else {
                    self.emit(
                        self.event(Severity::Debug, event_kind::SHARD_SUBMIT)
                            .epoch(epoch)
                            .shard(shard as u64)
                            .fence(token),
                    );
                }
                Ok(accepted)
            }
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Requests the coordinator's counters.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable.
    pub fn coordinator_stats(&self) -> Result<crate::CoordinatorStats, ShardError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Scrapes the coordinator's metrics registry in the text exposition
    /// format — what `ayb top --transport tcp://…` renders for a live
    /// fleet view.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Transport`] when the coordinator is
    /// unreachable or predates the `Metrics` request.
    pub fn coordinator_metrics(&self) -> Result<String, ShardError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(Self::unexpected(&other)),
        }
    }
}

impl ShardTransport for TcpTransport {
    /// Opens the epoch on the coordinator, announcing this transport's run
    /// id and context so workers can service its shards store-free.
    fn open_typed_epoch(
        &self,
        kind: ShardWorkKind,
        shard_count: usize,
    ) -> Result<String, ShardError> {
        match self.call(&Request::OpenEpoch {
            kind,
            shard_count,
            run_id: self.run_id.clone(),
            context: self.context.clone(),
        })? {
            Response::EpochOpened { epoch } => Ok(epoch),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn publish_work(&self, epoch: &str, shard: usize, work: &ShardWork) -> Result<(), ShardError> {
        match self.call(&Request::Publish {
            epoch: epoch.to_string(),
            shard,
            work: work.clone(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn try_claim(&self, epoch: &str, shard: usize) -> Result<bool, ShardError> {
        self.try_claim_token(epoch, shard, "shard-submitter")
            .map(|token| token.is_some())
    }

    /// Submits under this client's remembered token for the shard (token 0,
    /// "never claimed", when there is none).
    fn submit_outcome(
        &self,
        epoch: &str,
        shard: usize,
        outcome: &ShardOutcome,
    ) -> Result<(), ShardError> {
        let token = self
            .tokens
            .lock()
            .expect("transport token lock")
            .get(&(epoch.to_string(), shard))
            .copied()
            .unwrap_or(0);
        self.submit_with_token(epoch, shard, token, outcome)
            .map(|_accepted| ())
    }

    fn fetch_outcome(&self, epoch: &str, shard: usize) -> Result<Option<ShardOutcome>, ShardError> {
        match self.call(&Request::Fetch {
            epoch: epoch.to_string(),
            shard,
        })? {
            Response::Outcome { outcome } => Ok(outcome),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn close_epoch(&self, epoch: &str) -> Result<(), ShardError> {
        match self.call(&Request::CloseEpoch {
            epoch: epoch.to_string(),
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Counters shared by every clone of this transport.
    fn stats(&self) -> TransportStats {
        *self.stats.lock().expect("transport stats lock")
    }
}

impl ShardSource for TcpTransport {
    /// One `ClaimNext` request: the coordinator finds and claims the shard
    /// under its lock. A task needs no access to the submitter's store.
    fn claim_next(&self, owner: &str) -> Result<Option<ClaimedShard>, ShardError> {
        match self.call(&Request::ClaimNext {
            owner: owner.to_string(),
        })? {
            Response::Task { task } => Ok(task),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// A heartbeat against a claim that was taken over is silently
    /// ineffective.
    fn heartbeat(&self, claimed: &ClaimedShard) -> Result<(), ShardError> {
        match self.call(&Request::Heartbeat {
            epoch: claimed.epoch.clone(),
            shard: claimed.shard,
            token: claimed.token,
        })? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn submit_claimed(
        &self,
        claimed: &ClaimedShard,
        outcome: &ShardOutcome,
    ) -> Result<bool, ShardError> {
        self.submit_with_token(&claimed.epoch, claimed.shard, claimed.token, outcome)
    }

    /// The coordinator's own count (see `CoordinatorStats::open_shards`).
    fn open_shards(&self) -> Result<usize, ShardError> {
        self.coordinator_stats().map(|stats| stats.open_shards)
    }
}
