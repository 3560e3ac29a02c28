#![warn(missing_docs)]

//! # rfh-workloads — benchmark kernels and synthetic generators
//!
//! The paper evaluates on CUDA SDK 3.2, Parboil, and Rodinia applications
//! compiled to PTX (Table 1). Those binaries and their toolchain are not
//! available here, so this crate provides:
//!
//! * hand-ported kernels in the RFH IR, organized into the same three
//!   suites ([`suites`]), each with a deterministic input generator and a
//!   host reference implementation used to verify every simulated run
//!   end-to-end;
//! * a seeded random kernel generator ([`generator`]) for property-based
//!   testing of the compiler and simulator.
//!
//! The ports are written to reproduce the register usage regime the paper
//! measures (Figure 2): dataflow-chain arithmetic where most values are
//! consumed once, shortly after production, with global loads at strand
//! boundaries. `rfh-experiments::fig2` checks the resulting distributions
//! against the paper's.
//!
//! ## Example
//!
//! ```
//! let w = rfh_workloads::by_name("vectoradd").unwrap();
//! let mut mem = w.memory.clone();
//! rfh_sim::execute(
//!     &w.kernel,
//!     &w.launch,
//!     &mut mem,
//!     rfh_sim::ExecMode::Baseline,
//!     &mut [&mut rfh_sim::sink::NullSink],
//! ).unwrap();
//! (w.verify)(&w.memory, &mem).unwrap();
//! ```

pub mod generator;
pub mod registry;
pub mod spec;
pub mod suites;

pub use registry::{all, by_name};
pub use spec::{Suite, Workload};
