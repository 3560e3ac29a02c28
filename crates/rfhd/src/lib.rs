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
//! * [`json`] — the workspace's depth-limited JSON parser and writer
//!   (`rfh_testkit::json`, re-exported here). Insertion-ordered objects
//!   make rendering deterministic, which the cache keys rely on.
//! * [`proto`] — framing, the request/response schema, and the
//!   [`ErrorKind`](proto::ErrorKind) taxonomy whose classes carry the
//!   same stable codes `rfhc` uses as exit codes. Decoding a frame takes
//!   time linear in its length, so the frame cap
//!   ([`proto::DEFAULT_MAX_FRAME`], 4 MiB) bounds one request's parse
//!   work as well as its memory.
//! * [`handler`] — pure request decoding and op dispatch; every pipeline
//!   failure becomes a structured error frame.
//! * [`cache`] — the hash-pre-keyed LRU result store (also reused by
//!   `rfh_experiments` for its memoization).
//! * [`server`] — listeners, a reader thread per connection, the bounded
//!   worker pool that runs requests under panic isolation and wall-clock
//!   timeouts, load shedding with retry hints, and drain-then-exit
//!   shutdown.
//! * [`client`] — one request per call, with capped exponential backoff
//!   and seeded jitter. The daemon's load generator is rfhbench's
//!   `daemon_edit` workload, built on this client.
//!
//! The protocol chaos layer in `rfh_chaos` drives a live in-process
//! daemon through seeded fault injection (truncated frames, garbage
//! bytes, oversized length prefixes, mid-request disconnects, stalled
//! writers, ill-typed fields) and asserts the robustness trichotomy:
//! well-formed requests succeed, malformed ones get structured error
//! frames, and neither poisons the requests that follow.

pub mod cache;
pub mod client;
pub mod handler;
pub mod proto;
pub mod server;

pub use cache::{fnv1a, CacheStats, Key, Store};
pub use client::{malformed_probe, Client, ClientError, RetryPolicy};
pub use handler::{decode_request, handle_with, Budgets, Op, Request, StrandStore};
pub use proto::{ErrorFrame, ErrorKind, SCHEMA};
pub use rfh_testkit::json::{self, Json};
pub use server::{Endpoint, Server, ServerConfig, ServerHandle, ServerReport};
