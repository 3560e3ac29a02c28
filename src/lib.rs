#![warn(missing_docs)]

//! # rfh — a compile-time managed multi-level GPU register file hierarchy
//!
//! A from-scratch reproduction of Gebhart, Keckler, Dally, *A Compile-Time
//! Managed Multi-Level Register File Hierarchy* (MICRO 2011): the compiler
//! algorithms that place GPU register values across an LRF / ORF / MRF
//! hierarchy to minimize energy, together with everything needed to
//! evaluate them — a SIMT ISA and kernel IR, compiler analyses, a
//! functional single-SM simulator with placement-checked execution, the
//! hardware register-file-cache baseline, a two-level warp scheduler
//! timing model, the paper's energy model, three benchmark suites, and an
//! experiment harness regenerating every table and figure.
//!
//! This crate re-exports the component crates:
//!
//! * [`isa`] — instruction set and kernel IR;
//! * [`analysis`] — dominators, liveness, strands, def-use;
//! * [`energy`] — the Tables 3/4 energy model;
//! * [`alloc`] — the allocation algorithms (the paper's contribution);
//! * [`sim`] — executor, HW cache models, scheduler timing;
//! * [`workloads`] — benchmark suites and the random kernel generator;
//! * [`experiments`] — per-figure/table experiment runners;
//! * [`lint`] — the static analyzer behind `rfhc lint` (RFH-L0xx codes);
//! * [`rfhd`] — the compile-service daemon behind `rfhc serve` and its
//!   deterministic client (`rfhc client`).
//!
//! ## Quickstart
//!
//! ```
//! use rfh::alloc::{allocate, AllocConfig};
//! use rfh::energy::EnergyModel;
//!
//! let mut kernel = rfh::isa::parse_kernel("
//! .kernel axpy
//! BB0:
//!   mov r0, %tid.x
//!   ld.global r1 r0
//!   ffma r2 r1, 2.0f, r1
//!   st.global r0, r2
//!   exit
//! ").unwrap();
//! let stats = allocate(&mut kernel, &AllocConfig::three_level(3, true), &EnergyModel::paper())
//!     .expect("structurally valid kernel");
//! assert!(stats.lrf_values + stats.orf_values > 0);
//! ```
//!
//! ## Robustness
//!
//! The pipeline is panic-free on arbitrary input: parsing, validation,
//! allocation, execution, and timing all return `Result`, unified under
//! [`RfhError`] with a stable exit-code mapping for drivers. See
//! `docs/ROBUSTNESS.md` for the error taxonomy and the `rfh-chaos`
//! fault-injection harness that enforces it.

pub mod error;

pub use error::{RfhError, EXIT_INTERNAL_PANIC};

pub use rfh_alloc as alloc;
pub use rfh_analysis as analysis;
pub use rfh_energy as energy;
pub use rfh_experiments as experiments;
pub use rfh_isa as isa;
pub use rfh_lint as lint;
pub use rfh_rfhd as rfhd;
pub use rfh_sim as sim;
pub use rfh_workloads as workloads;
