#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-oracle — frozen differential oracles
//!
//! `rfh-sim` ships one executor and one timing engine. Each replaced an
//! original implementation whose semantics years of chaos and property
//! testing had hardened, and those originals live on here, unchanged, as
//! the ground truth the shipped engines are held to:
//!
//! * [`exec`] — the per-thread reference interpreter, against which the
//!   warp-batched SoA executor is checked by `tests/exec_differential.rs`
//!   and the chaos `run_exec_differential_layer`. It is also the one
//!   storage-faithful model of the hierarchy: its values really move
//!   through ORF entries and LRF banks, which the shipped executor only
//!   checks with a value-free tag model;
//! * [`timing`] — the original hand-woven scheduler loop, against which
//!   the flat per-cycle loop is checked by `tests/timing_differential.rs`
//!   and the chaos `run_timing_layer`.
//!
//! Both oracles reuse `rfh-sim`'s shared semantics — the ALU
//! ([`rfh_sim::exec::eval_alu`], [`rfh_sim::exec::eval_cmp`]), the poison
//! value, the launch validator ([`rfh_sim::exec::check_launchable`]) and
//! the deadlock snapshot's [`rfh_sim::timing::pending_latency`] — so they
//! can diverge from the shipped engines only in execution order and state
//! layout (and, for corrupted placements, in how the executor notices
//! them), which is what the differential suites pin.
//!
//! The crate is `publish = false` and only test code depends on it (the
//! root package's dev-dependencies and `rfh-chaos`), so no shipped binary
//! links either oracle.

pub mod exec;
pub mod timing;
