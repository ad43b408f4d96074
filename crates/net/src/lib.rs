//! The TCP shard data plane: shard epochs over a socket instead of a shared
//! filesystem.
//!
//! Sharded evaluation, the sharded variation stage and shard-first job
//! workers all speak one interface, [`ShardTransport`](ayb_moo::ShardTransport),
//! whose other implementation is the store's on-disk plane — which needs
//! every machine to mount the same store path. This crate removes that
//! requirement with three pieces, all built on `std::net` and the vendored
//! JSON stack (no new dependencies):
//!
//! * **[`wire`]** — a length-prefixed JSON frame format plus the
//!   request/response vocabulary spoken over it;
//! * **[`Coordinator`]** — a thread-per-connection TCP server owning epoch
//!   state *in memory*: it opens typed epochs ([`ShardWorkKind`]) of
//!   [`ShardWork`] payloads, hands out claims stamped with **monotonic
//!   fencing tokens**, lets the next claim take over a claim whose
//!   heartbeat lapsed, and accepts a
//!   shard's result only from the holder of the *highest* token ever issued
//!   for that shard — a late write from a stolen (hung, then superseded)
//!   claim is rejected, not merged;
//! * **[`TcpTransport`]** — the client: the TCP plane's one
//!   [`ShardTransport`](ayb_moo::ShardTransport) implementation, so
//!   `ShardedEvaluator`/`drive_epoch` and the variation stage run over TCP
//!   unchanged, plus a worker-facing [`TcpTransport::claim_next`] that
//!   carries the run's `FlowConfig` over the wire so workers need no access
//!   to the run store at all.
//!
//! Determinism is untouched: the coordinator stores opaque
//! [`ShardWork`]/[`ShardOutcome`] payloads and the submitting flow
//! reassembles results in index order exactly as it does over disk. If the
//! coordinator dies, every request errors, `drive_epoch`'s per-shard
//! fallback services the work locally, and the digest is unchanged — the
//! coordinator is an accelerator, never a correctness dependency.

#![deny(missing_docs)]

mod coordinator;
mod transport;
pub mod wire;

pub use ayb_moo::{
    ShardOutcome, ShardWork, ShardWorkKind, TransportStats, VariationOutcome, VariationPointWork,
};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use transport::TcpTransport;
pub use wire::{CoordinatorStats, NetShardTask, Request, Response};

/// Parses a `tcp://host:port` transport URL into its `host:port` socket
/// address, rejecting anything else.
///
/// This is the single parser behind [`TcpTransport::from_url`] and the CLI's
/// `--transport` flag, so both reject malformed selectors identically.
///
/// # Errors
///
/// Returns a human-readable message when `url` does not have the form
/// `tcp://host:port`.
pub fn parse_transport_url(url: &str) -> Result<String, String> {
    let Some(addr) = url.strip_prefix("tcp://") else {
        return Err(format!(
            "transport `{url}` is not supported: expected `tcp://host:port`"
        ));
    };
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| format!("transport `{url}` lacks a port: expected `tcp://host:port`"))?;
    if host.is_empty() {
        return Err(format!(
            "transport `{url}` lacks a host: expected `tcp://host:port`"
        ));
    }
    port.parse::<u16>()
        .map_err(|_| format!("transport `{url}` has an invalid port `{port}`"))?;
    Ok(addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::parse_transport_url;

    #[test]
    fn transport_urls_parse_or_reject() {
        assert_eq!(
            parse_transport_url("tcp://127.0.0.1:4710").unwrap(),
            "127.0.0.1:4710"
        );
        assert_eq!(
            parse_transport_url("tcp://coordinator.example:80").unwrap(),
            "coordinator.example:80"
        );
        for bad in [
            "127.0.0.1:4710",
            "udp://127.0.0.1:4710",
            "tcp://127.0.0.1",
            "tcp://:4710",
            "tcp://host:notaport",
            "tcp://host:70000",
        ] {
            assert!(
                parse_transport_url(bad).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
