#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-alloc — compile-time register file hierarchy allocation
//!
//! The core contribution of *A Compile-Time Managed Multi-Level Register
//! File Hierarchy* (Gebhart, Keckler, Dally — MICRO 2011): compiler
//! algorithms that place register value instances across a three-level
//! LRF / ORF / MRF hierarchy to minimize energy.
//!
//! Allocation differs from classical register allocation in three ways
//! (paper §4):
//!
//! 1. placement determines access *energy*, not latency — the machine is
//!    pipelined to tolerate MRF access latency, so a value in the MRF costs
//!    no performance, just picojoules;
//! 2. the upper levels are temporally shared across threads: the ORF and
//!    LRF are invalidated at *strand* boundaries, so allocation is per
//!    strand and live-out values must also be written to the MRF when they
//!    are produced (never written back later);
//! 3. the structures are tiny (1–8 entries), so the greedy priority is
//!    *energy saved per static instruction slot occupied* (Figure 7).
//!
//! Implemented algorithms:
//!
//! * the baseline greedy ORF allocator (Figure 7) with the energy-savings
//!   functions of Figures 6 and 9;
//! * **partial range allocation** (§4.3) — when a full range does not fit,
//!   serve a prefix of the reads from the ORF and the rest from the MRF;
//! * **read operand allocation** (§4.4) — values read but not written in a
//!   strand are deposited into the ORF by their first MRF read;
//! * **forward-branch handling** (§4.5) — hammock-written values are
//!   co-allocated to one ORF entry (Figure 10c) or fall back to the MRF
//!   when a merge is tainted by a live-in path (Figure 10a/b); merge groups
//!   come from `rfh-analysis`;
//! * the **three-level extension** (§4.6) — LRF allocation first (unified
//!   or split per operand slot), then the ORF; a value goes to the LRF *or*
//!   the ORF, never both, and shared-datapath consumers exclude a value
//!   from the LRF.
//!
//! ## Example
//!
//! ```
//! use rfh_alloc::{allocate, AllocConfig};
//! use rfh_energy::EnergyModel;
//!
//! let mut kernel = rfh_isa::parse_kernel("
//! .kernel saxpy
//! BB0:
//!   mov r0, %tid.x
//!   ld.global r1 r0
//!   ffma r2 r1, r1, r1
//!   st.global r0, r2
//!   exit
//! ").unwrap();
//!
//! let stats = allocate(&mut kernel, &AllocConfig::three_level(3, true), &EnergyModel::paper())
//!     .expect("structurally valid kernel");
//! assert!(stats.orf_values + stats.lrf_values > 0);
//! // Every placement is proven consistent before `allocate` returns, but
//! // it can also be re-checked explicitly:
//! rfh_alloc::validate_placements(&kernel, &AllocConfig::three_level(3, true)).unwrap();
//! ```
//!
//! `allocate` never panics: invalid kernels are rejected with
//! [`AllocError`], and an internal placement-validation failure demotes the
//! kernel to the MRF-only baseline (reported via [`AllocStats::demoted`])
//! instead of aborting.

pub mod config;
pub mod costs;
pub mod error;
pub mod interval;
pub mod pass;
pub mod validate;

pub use config::{AllocConfig, LrfMode};
pub use costs::Costs;
pub use error::AllocError;
pub use pass::{
    allocate, allocate_incremental, allocate_with_hints, strand_fingerprint, AllocStats,
    IncrementalStats, StrandAllocation,
};
pub use validate::validate_placements;
