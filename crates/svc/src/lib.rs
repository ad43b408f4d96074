//! `ayb-svc` — the multi-tenant HTTP/JSON service plane.
//!
//! Everything below `ayb serve` shares one filesystem: submitters and
//! workers mount the same run store. This crate adds the missing front
//! door — a std-only HTTP/1.1 service (`ayb serve-http`) that turns the
//! store + job server into a shared, *governed* facility:
//!
//! * **[`http`]** — minimal HTTP/1.1 framing with hard limits on every
//!   message dimension (request line, headers, body), so hostile input
//!   costs one connection, never the accept loop.
//! * **[`digest`]** — content-addressed submission digests: canonical-JSON
//!   FNV-1a over `(problem, optimizer, flow, seed)`. Identical submissions
//!   map to one run; the stability tests pin the key's field coverage.
//! * **[`service`]** — [`SvcServer`]: admission
//!   (dedup → per-tenant quotas → atomic enqueue with `tenant` / `priority`
//!   / `submission_digest` manifest extras) in front of an embedded
//!   [`JobServer`](ayb_jobs::JobServer), whose one dispatch queue is a
//!   weighted round-robin across tenants with priority lanes; the service
//!   sets its weights and per-tenant running caps
//!   ([`QueuePolicy`](ayb_jobs::QueuePolicy)).
//! * **[`client`]** — the blocking client the tests and the benchmark
//!   drive the service with.
//!
//! Everything rides the existing planes: results, checkpoints and claims
//! are untouched store artefacts; telemetry flows through the shared
//! `ayb-obs` recorder and is exposed verbatim at `GET /v1/metrics`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod digest;
pub mod http;
pub mod service;

pub use client::SvcClient;
pub use digest::{
    canonical_json, canonical_value, digest_hex, parse_digest_hex, submission_digest,
    submission_digest_value,
};
pub use service::{SvcConfig, SvcServer, TenantQuota};
