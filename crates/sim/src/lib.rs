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
//!   divergence (post-dominator reconvergence), which can run in
//!   *hierarchy-faithful* mode: operand values actually move through
//!   modeled ORF/LRF storage according to the compiler's placements, and
//!   upper levels are poisoned at strand boundaries — so a mis-allocated
//!   kernel produces wrong results instead of silently passing — plus a
//!   replay of one recorded baseline stream against allocated kernels,
//!   whose tag model rejects every read of a stale or poisoned entry;
//! * [`sink`] — the instruction-trace observer interface, including the
//!   [`FanoutSink`] combinator for composing observer stacks;
//! * [`counts`] — access counting for software-managed hierarchies;
//! * [`profile`] — per-strand energy attribution (accesses × energy
//!   model, bucketed by strand);
//! * [`trace`] — structured trace export (JSON lines / Chrome trace);
//! * [`rfc`] — the hardware register file cache baseline of prior work
//!   \[11\] (FIFO, allocate-on-miss, static-liveness writeback elision,
//!   flush on deschedule), in two- and three-level variants;
//! * [`usage`] — dynamic register value usage statistics (Figure 2);
//! * [`timing`] — a cycle-level model of the two-level warp scheduler
//!   verifying the no-performance-loss claim, recomposed from
//!   latency-insensitive stage combinators ([`timing::stage`]) with the
//!   original engine frozen as a differential oracle
//!   ([`timing::reference`]), and scaled to N SMs sharing a memory model
//!   ([`timing::multi_sm`]).
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
pub use exec::{execute, execute_with_engine, Engine, ExecError, ExecMode, ExecReport, Launch};
pub use machine::MachineConfig;
pub use mem::GlobalMemory;
pub use profile::EnergyProfiler;
pub use rfc::{HwCounter, RfcConfig};
pub use sink::{FanoutSink, TraceSink};
pub use timing::{
    simulate_multi_sm, simulate_timing, simulate_timing_with_engine, BankPolicy, ConfigError,
    DeadlockSnapshot, Engine as TimingEngine, LatencyClass, MemoryModel, MultiSmConfig,
    MultiSmResult, SchedPolicy, SmResult, TimingConfig, TimingError, TimingResult, WarpSnapshot,
    DEFAULT_MAX_CYCLES,
};
pub use trace::TraceExporter;
pub use usage::UsageStats;
