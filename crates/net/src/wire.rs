//! The wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length followed
//! by that many bytes of JSON — the same JSON the disk plane writes into
//! task/result files, so a payload that round-trips through the store
//! round-trips through the socket byte-for-byte. Clients speak
//! connect-per-request: open a connection, write one [`Request`] frame, read
//! one [`Response`] frame, close. That keeps the coordinator's per-connection
//! state trivial (a request is never torn across reconnects) and means a
//! killed worker leaves nothing behind on the server but an eventually
//! expired claim.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use ayb_moo::{ShardOutcome, ShardWork, ShardWorkKind};
use serde::{Deserialize, Serialize, Value};

/// Hard upper bound on one frame's JSON payload (16 MiB). A peer announcing
/// a larger frame is malformed or hostile; the connection is dropped rather
/// than the allocation attempted.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Hard upper bound on one epoch's shard count (65 536), far above any
/// flow's: a paper-scale generation or variation stage has a few hundred
/// shards at most. A peer asking for more is malformed or hostile; it gets
/// a [`Response::Error`] rather than the allocation attempted.
pub const MAX_EPOCH_SHARDS: usize = 65_536;

/// Writes one frame: 4-byte big-endian length, then the JSON payload.
///
/// # Errors
///
/// Returns an [`io::Error`] when the payload exceeds [`MAX_FRAME_BYTES`],
/// cannot be serialized, or the socket write fails.
pub fn write_frame<T: Serialize + ?Sized>(stream: &mut TcpStream, message: &T) -> io::Result<()> {
    let body = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte bound",
                bytes.len()
            ),
        ));
    }
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame length overflows u32"))?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Reads one frame and decodes its JSON payload.
///
/// # Errors
///
/// Returns an [`io::Error`] on socket failure (including a peer that closed
/// mid-frame), an announced length above [`MAX_FRAME_BYTES`], or a payload
/// that is not valid JSON for `T`.
pub fn read_frame<T: Deserialize>(stream: &mut TcpStream) -> io::Result<T> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame, above the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    let text = String::from_utf8(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A request frame, client → coordinator. One request per connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens a new typed epoch of `shard_count` shards, at most
    /// [`MAX_EPOCH_SHARDS`]. `run_id` and `context` travel to workers
    /// verbatim through [`Request::ClaimNext`]; the context is the run's
    /// serialized flow configuration, which is what lets a worker rebuild
    /// the sizing problem with no access to the run store.
    OpenEpoch {
        /// The stage this epoch belongs to (evaluation or variation).
        kind: ShardWorkKind,
        /// Number of shards in the epoch.
        shard_count: usize,
        /// The submitting run's identifier (diagnostics, worker events).
        run_id: String,
        /// Opaque submitter context forwarded to workers (the flow config).
        context: Option<Value>,
    },
    /// Publishes shard `shard`'s work payload into `epoch`; a shard outside
    /// the epoch's `0..shard_count` gets a [`Response::Error`].
    Publish {
        /// Epoch identifier from [`Response::EpochOpened`].
        epoch: String,
        /// Shard index within the epoch.
        shard: usize,
        /// The typed work payload.
        work: ShardWork,
    },
    /// Attempts to claim shard `shard` of `epoch` for `owner`, by the claim
    /// rule of [`ShardTransport`](ayb_moo::ShardTransport): a stale claim is
    /// taken over. Granted claims carry a fencing token (see
    /// [`Response::ClaimGranted`]).
    TryClaim {
        /// Epoch identifier.
        epoch: String,
        /// Shard index within the epoch.
        shard: usize,
        /// Label of the claiming worker (diagnostics).
        owner: String,
    },
    /// Refreshes the heartbeat of the claim holding `token` on a shard.
    /// A mismatched token is ignored: the claim was already taken over.
    Heartbeat {
        /// Epoch identifier.
        epoch: String,
        /// Shard index within the epoch.
        shard: usize,
        /// The fencing token the heartbeating worker holds.
        token: u64,
    },
    /// Submits shard `shard`'s outcome under fencing token `token`. The
    /// coordinator accepts it only if `token` is the *highest* token ever
    /// issued for the shard — a zombie whose claim was taken over is fenced
    /// off.
    Submit {
        /// Epoch identifier.
        epoch: String,
        /// Shard index within the epoch.
        shard: usize,
        /// The fencing token the submitting worker holds.
        token: u64,
        /// The typed result payload.
        outcome: ShardOutcome,
    },
    /// Fetches shard `shard`'s outcome, if any worker has submitted one.
    Fetch {
        /// Epoch identifier.
        epoch: String,
        /// Shard index within the epoch.
        shard: usize,
    },
    /// Drops the epoch and all its state; the batch has been assembled.
    CloseEpoch {
        /// Epoch identifier.
        epoch: String,
    },
    /// Worker entry point: atomically finds *any* open epoch with a shard the
    /// claim rule grants, claims it for `owner`, and returns the work plus
    /// everything needed to service it store-free.
    ClaimNext {
        /// Label of the claiming worker (diagnostics).
        owner: String,
    },
    /// Requests the coordinator's counters (see [`CoordinatorStats`]).
    Stats,
    /// Requests the coordinator's full metrics registry rendered in the
    /// text exposition format (counters, gauges, request-latency
    /// histograms) — what `ayb top` scrapes for a live fleet view.
    Metrics,
}

impl Request {
    /// A short static label for this request kind, used as the metric
    /// suffix (`ayb_coord_requests_{label}_total`) and in request events.
    pub fn label(&self) -> &'static str {
        match self {
            Request::OpenEpoch { .. } => "open_epoch",
            Request::Publish { .. } => "publish",
            Request::TryClaim { .. } => "try_claim",
            Request::Heartbeat { .. } => "heartbeat",
            Request::Submit { .. } => "submit",
            Request::Fetch { .. } => "fetch",
            Request::CloseEpoch { .. } => "close_epoch",
            Request::ClaimNext { .. } => "claim_next",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
        }
    }
}

/// A response frame, coordinator → client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Generic success for requests with nothing to return.
    Ok,
    /// A new epoch was opened.
    EpochOpened {
        /// The epoch's identifier, unique for the coordinator's lifetime.
        epoch: String,
    },
    /// Outcome of a [`Request::TryClaim`].
    ClaimGranted {
        /// Whether the claim was granted (false: already claimed or done).
        granted: bool,
        /// The fencing token of the granted claim (0 when not granted).
        token: u64,
    },
    /// Outcome of a [`Request::Submit`].
    SubmitAck {
        /// Whether the result was accepted; `false` means the submitter's
        /// token was superseded and the result was discarded (fenced off).
        accepted: bool,
    },
    /// Outcome of a [`Request::Fetch`].
    Outcome {
        /// The shard's result, if one has been accepted.
        outcome: Option<ShardOutcome>,
    },
    /// Outcome of a [`Request::ClaimNext`].
    Task {
        /// The claimed work, or `None` when no shard is available.
        task: Option<NetShardTask>,
    },
    /// Outcome of a [`Request::Stats`].
    Stats {
        /// The coordinator's counters.
        stats: CoordinatorStats,
    },
    /// Outcome of a [`Request::Metrics`].
    Metrics {
        /// The metrics registry in text exposition format.
        text: String,
    },
    /// The request could not be honoured (unknown epoch, shard out of
    /// range). Clients surface the message as a transport error.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One claimed shard of network work, as handed to a worker by
/// [`Request::ClaimNext`]. Self-contained: the payload, the fencing token to
/// heartbeat and submit under, and the submitter's context (its serialized
/// flow configuration) — nothing else is needed to service the shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetShardTask {
    /// The submitting run's identifier.
    pub run_id: String,
    /// Epoch the shard belongs to.
    pub epoch: String,
    /// Shard index within the epoch.
    pub shard: usize,
    /// The fencing token of this claim.
    pub token: u64,
    /// The typed work payload.
    pub work: ShardWork,
    /// Opaque submitter context (the run's flow configuration as JSON).
    pub context: Option<Value>,
}

/// The coordinator's observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinatorStats {
    /// Epochs currently open.
    pub epochs: usize,
    /// Published shards still awaiting an accepted result.
    pub open_shards: usize,
    /// Claims issued over the coordinator's lifetime (== tokens minted).
    pub claims_issued: u64,
    /// Submissions rejected because their token had been superseded.
    pub fenced_rejections: u64,
}
