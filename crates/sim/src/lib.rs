#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-sim — single-SM GPU simulator
//!
//! The execution substrate of the reproduction: everything the paper
//! obtains from Ocelot's emulator plus its custom trace-based simulator
//! (§5.1), rebuilt from scratch:
//!
//! * [`machine`] — the simulated machine parameters (Table 2);
//! * [`mem`] — global/shared/parameter memory;
//! * [`exec`] — a functional SIMT executor with predication and
//!   divergence (post-dominator reconvergence), which in hierarchy mode
//!   checks the compiler's placements as it executes: a value-free tag
//!   model, with the upper levels poisoned at strand boundaries, rejects
//!   every read of a stale or poisoned entry, so a mis-allocated kernel
//!   fails instead of silently passing — plus a replay of one recorded
//!   baseline stream against allocated kernels, which steps the same tag
//!   model;
//! * [`sink`] — the instruction-trace observer interface (the executor
//!   takes a slice of sinks, so observers stack without a combinator);
//! * [`counts`] — access counting for software-managed hierarchies, by
//!   observing a run or by pricing a kernel from a recorded stream's
//!   issue counts;
//! * [`profile`] — per-strand energy attribution (accesses × energy
//!   model, bucketed by strand);
//! * [`trace`] — structured trace export (JSON lines / Chrome trace);
//! * [`rfc`] — the hardware register file cache baseline of prior work
//!   \[11\] (FIFO, allocate-on-miss, static-liveness writeback elision,
//!   flush on deschedule), in two- and three-level variants;
//! * [`usage`] — dynamic register value usage statistics (Figure 2);
//! * [`timing`] — a cycle-level model of the two-level warp scheduler on
//!   one SM with an ideal MRF, verifying the no-performance-loss claim:
//!   one flat per-cycle loop.
//!
//! The executor and the timing loop are each the only engine of their
//! layer. The originals they replaced are frozen in the test-only
//! `rfh-oracle` crate, which the differential suites hold them to; no
//! shipped binary links it.
//!
//! ## Example
//!
//! ```
//! use rfh_sim::{exec::{execute, ExecMode, Launch}, mem::GlobalMemory, counts::SwCounter};
//!
//! let kernel = rfh_isa::parse_kernel("
//! .kernel double
//! BB0:
//!   mov r0, %tid.x
//!   ld.global r1 r0
//!   iadd r2 r1, r1
//!   st.global r0, r2
//!   exit
//! ").unwrap();
//! let launch = Launch::new(1, 32);
//! let mut mem = GlobalMemory::new(64);
//! for i in 0..32 { mem.store(i, i); }
//! let mut counter = SwCounter::default();
//! execute(&kernel, &launch, &mut mem, ExecMode::Baseline, &mut [&mut counter]).unwrap();
//! assert_eq!(mem.load(3).unwrap(), 6);
//! assert!(counter.counts().mrf_read > 0);
//! ```

pub mod counts;
pub mod exec;
pub mod machine;
pub mod mem;
pub mod profile;
pub mod rfc;
pub mod sink;
pub mod timing;
pub mod trace;
pub mod usage;

pub use counts::SwCounter;
pub use exec::{execute, ExecError, ExecMode, ExecReport, Launch};
pub use machine::MachineConfig;
pub use mem::GlobalMemory;
pub use profile::EnergyProfiler;
pub use rfc::{HwCounter, RfcConfig};
pub use sink::TraceSink;
pub use timing::{
    check_resident, simulate_timing, ConfigError, DeadlockSnapshot, LatencyClass, OverResident,
    SchedPolicy, TimingConfig, TimingError, TimingResult, WarpSnapshot, DEFAULT_MAX_CYCLES,
};
pub use trace::TraceExporter;
pub use usage::UsageStats;
