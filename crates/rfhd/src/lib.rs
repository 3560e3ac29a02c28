#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! `rfh-rfhd` — the fault-tolerant compile-service daemon.
//!
//! `rfhc serve` keeps a process resident with the full pipeline warm —
//! parser, lint, allocator, executor, timing model — and serves it over a
//! length-prefixed JSON protocol ([`proto`], schema `rfhd-v1`) on TCP or
//! a unix socket. `rfhc client` is the matching deterministic client.
//!
//! The crate is organized as concentric fault domains:
//!
//! * [`json`] — a hand-rolled, depth-limited JSON parser and writer (the
//!   workspace is hermetic: no serde). Insertion-ordered objects make
//!   rendering deterministic, which the cache keys rely on.
//! * [`proto`] — framing, the request/response schema, and the
//!   [`ErrorKind`](proto::ErrorKind) taxonomy whose classes carry the
//!   same stable codes `rfhc` uses as exit codes.
//! * [`handler`] — pure request decoding and op dispatch; every pipeline
//!   failure becomes a structured error frame.
//! * [`cache`] — the content-hash-keyed LRU result store (also reused by
//!   `rfh_experiments` for its memoization).
//! * [`server`] — listeners, the bounded worker pool, per-request panic
//!   isolation and wall-clock timeouts, load shedding with retry hints,
//!   and drain-then-exit shutdown.
//! * [`client`] — capped exponential backoff with seeded jitter, and the
//!   workload-replay load generator.
//!
//! The protocol chaos layer in `rfh_chaos` drives a live in-process
//! daemon through seeded fault injection (truncated frames, garbage
//! bytes, oversized length prefixes, mid-request disconnects, stalled
//! writers) and asserts the robustness trichotomy: well-formed requests
//! succeed, malformed ones get structured error frames, and neither
//! poisons the requests that follow.

pub mod cache;
pub mod client;
pub mod handler;
pub mod json;
pub mod proto;
pub mod server;

pub use cache::{fnv1a, CacheStats, Key, Store};
pub use client::{
    edit_replay, malformed_probe, replay_workloads, Client, ClientError, EditReplayReport,
    ReplayReport, RetryPolicy,
};
pub use handler::{decode_request, handle, handle_with, Budgets, Op, Request, StrandStore};
pub use json::Json;
pub use proto::{ErrorFrame, ErrorKind, SCHEMA};
pub use server::{Endpoint, Server, ServerConfig, ServerHandle, ServerReport};
