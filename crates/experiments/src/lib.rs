#![warn(missing_docs)]

//! # rfh-experiments — regenerating every table and figure
//!
//! One module per experiment of the paper's evaluation (§6) and limit
//! study (§7). Each module exposes a `run(...)` function returning plain
//! data (so tests and benches can assert on it) plus a `print` helper used
//! by the `repro` binary:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig2`] | Figure 2: register value usage patterns per suite |
//! | [`fig11`] | Figure 11: 2-level read/write breakdowns, HW vs SW, 1–8 entries |
//! | [`fig12`] | Figure 12: 3-level read/write breakdowns |
//! | [`fig13`] | Figure 13: normalized energy of HW / HW-LRF / SW / SW-LRF-split |
//! | [`fig14`] | Figure 14: access vs wire energy breakdown of the best design |
//! | [`fig15`] | Figure 15: per-benchmark energy of the best design |
//! | [`tables`] | Tables 1–4 (inputs, printed for reference) |
//! | [`encoding`] | §6.5 instruction-encoding overhead analysis |
//! | [`perf`] | §6: two-level scheduler performance vs active warps |
//! | [`limit`] | §7: ideal bounds, variable ORF, backward branches, scheduling |
//! | [`ablation`] | design-choice ablations (optimizations, LRF shape, priority, RFC policy) |
//! | [`characterize`] | workload characterization (instruction mix, divergence, strands) |
//! | [`hints`] | last-use allocation hints: accesses/energy, `--hints` off vs on (not in `repro all`) |
//!
//! All experiments count full program executions (the paper's
//! methodology, §5.1), and every execution is *verified against the
//! workload's host reference*, so a counting result is never produced
//! from a mis-executed program.
//!
//! The experiment engine is **parallel and memoized**: each `run` takes a
//! shared [`ctx::ExperimentCtx`] that caches baseline counts and counted
//! cells per (workload, config), and fans the remaining independent sweep
//! cells out over `rfh_testkit::pool::par_map` (`RFH_JOBS` controls the
//! worker count). Each workload executes once: its verified baseline run
//! also records its distinct per-warp instruction traces. Every HW batch
//! and instruction mix replays that record (`rfh_sim::exec::replay`),
//! every timing trace is expanded from it, and every SW cell and hinted
//! kernel is priced from its issue counts
//! (`rfh_sim::counts::price_strands`), which the tests check against a
//! replay in which a value-free tag model checks every operand read; only
//! [`fig2`] executes on its own. The SW cells' per-strand counts also feed the §7
//! oracle. Results are folded in input order, so output is byte-identical
//! for any `RFH_JOBS` value.

pub mod ablation;
pub mod characterize;
pub mod csv;
pub mod ctx;
pub mod encoding;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod hints;
pub mod limit;
pub mod perf;
pub mod report;
pub mod runner;
pub mod tables;

pub use ctx::ExperimentCtx;
pub use runner::{baseline_counts, hw_counts, sw_counts};
