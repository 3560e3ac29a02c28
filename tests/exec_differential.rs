//! Differential conformance: the warp-batched SoA engine against the
//! frozen reference oracle (`rfh_oracle::exec`).
//!
//! Every case runs the same kernel, launch, and memory image through both
//! engines and demands identical observable behavior: the [`ExecReport`],
//! the final global-memory image, and the [`AccessCounts`] a [`SwCounter`]
//! accumulates (which pins the per-instruction event stream — the counter
//! folds every event's resolved plan, so a missing, extra, or re-ordered
//! event shows up as a count mismatch). Errors must match exactly too:
//! same variant, same location, same message.
//!
//! Knobs: `RFH_TESTKIT_SEED` replays the generator sweep from a given
//! base seed, `RFH_EXEC_DIFF_CASES` scales the number of generated
//! kernels (default 1000), and `RFH_JOBS` sets the worker count (outcomes
//! fold in case order, so failures are identical at any job count).

use rfh::alloc::{allocate, AllocConfig};
use rfh::energy::{AccessCounts, EnergyModel};
use rfh::isa::Kernel;
use rfh::sim::exec::{execute_with, ExecError, ExecMode, ExecReport, Launch};
use rfh::sim::machine::MachineConfig;
use rfh::sim::mem::GlobalMemory;
use rfh::sim::SwCounter;
use rfh::workloads::generator::{random_program, GenConfig};
use rfh_oracle::exec::Execute;
use rfh_testkit::pool::par_map;
use rfh_testkit::prelude::*;

/// Everything one engine run exposes to an observer.
struct Observed {
    report: ExecReport,
    counts: AccessCounts,
    mem: Vec<u32>,
}

fn run(
    engine: Execute,
    kernel: &Kernel,
    launch: &Launch,
    memory: &GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
) -> Result<Observed, ExecError> {
    let mut mem = memory.clone();
    let mut counter = SwCounter::default();
    let report = engine(kernel, launch, &mut mem, mode, machine, &mut [&mut counter])?;
    Ok(Observed {
        report,
        counts: counter.counts(),
        mem: mem.words().to_vec(),
    })
}

/// Runs `kernel` through both engines and compares every observable.
fn check_agreement(
    label: &str,
    kernel: &Kernel,
    launch: &Launch,
    memory: &GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
) -> Result<(), String> {
    let soa = run(execute_with, kernel, launch, memory, mode, machine);
    let oracle = run(
        rfh_oracle::exec::execute_with,
        kernel,
        launch,
        memory,
        mode,
        machine,
    );
    match (soa, oracle) {
        (Ok(s), Ok(o)) => {
            if s.report != o.report {
                return Err(format!(
                    "{label}: reports diverge: soa {:?} vs reference {:?}",
                    s.report, o.report
                ));
            }
            if s.counts != o.counts {
                return Err(format!(
                    "{label}: access counts diverge: soa {:?} vs reference {:?}",
                    s.counts, o.counts
                ));
            }
            if s.mem != o.mem {
                let word = s.mem.iter().zip(&o.mem).position(|(a, b)| a != b);
                return Err(format!(
                    "{label}: memory images diverge at word {word:?} (soa {:?} vs reference {:?})",
                    word.map(|i| s.mem[i]),
                    word.map(|i| o.mem[i]),
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "{label}: errors diverge: soa `{a}` vs reference `{b}`"
                ))
            }
        }
        (Ok(_), Err(e)) => Err(format!("{label}: SoA succeeded but reference failed: {e}")),
        (Err(e), Ok(_)) => Err(format!("{label}: SoA failed but reference succeeded: {e}")),
    }
}

/// Base seed: `RFH_TESTKIT_SEED` if set, else a fixed default.
fn base_seed() -> u64 {
    rfh_testkit::env::u64_knob("RFH_TESTKIT_SEED").unwrap_or(0xD1FF_5EED_CAFE_0001)
}

/// Generator case budget: `RFH_EXEC_DIFF_CASES` if set, else 1000.
fn diff_cases() -> usize {
    rfh_testkit::env::usize_knob("RFH_EXEC_DIFF_CASES").unwrap_or(1000)
}

/// Per-case seed stream: each case's seed is a deterministic function of
/// the base seed alone, so cases parallelize and replay individually.
fn case_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut seeder = SplitMix64::new(base);
    (0..n).map(|_| seeder.next_u64()).collect()
}

/// The full paper workload suite, unallocated and under two hierarchy
/// shapes, at each workload's own launch geometry.
#[test]
fn all_workloads_agree_on_both_engines() {
    let workloads = rfh::workloads::all();
    assert_eq!(workloads.len(), 35, "the paper's full workload suite");
    let machine = MachineConfig::paper();
    let failures: Vec<String> = par_map(&workloads, |w| {
        let mut errs = Vec::new();
        if let Err(e) = check_agreement(
            &format!("{} baseline", w.name),
            &w.kernel,
            &w.launch,
            &w.memory,
            ExecMode::Baseline,
            &machine,
        ) {
            errs.push(e);
        }
        for cfg in [AllocConfig::two_level(3), AllocConfig::three_level(3, true)] {
            let mut kernel = w.kernel.clone();
            allocate(&mut kernel, &cfg, &EnergyModel::paper()).unwrap();
            if let Err(e) = check_agreement(
                &format!("{} {cfg}", w.name),
                &kernel,
                &w.launch,
                &w.memory,
                ExecMode::Hierarchy(cfg),
                &machine,
            ) {
                errs.push(e);
            }
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One generated case: a random kernel (arithmetic chains, hammocks,
/// divergent guarded moves, bounded loops) at a randomized launch geometry
/// including partial trailing warps, checked unallocated and allocated.
fn generated_case(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = GenConfig {
        segments: rng.gen_range(2..10),
        run_len: rng.gen_range(2..8),
        max_trips: rng.gen_range(1..6),
        pool: rng.gen_range(4..10),
    };
    let (kernel, _, memory) = random_program(seed, shape);
    // Thread counts straddle warp boundaries so trailing warps run with a
    // partial active mask; multiple CTAs exercise shared-memory reset.
    let tpc = [32usize, 128, 1, 33, 96, 57][rng.gen_range(0..6)];
    let ctas = rng.gen_range(1..3);
    let launch = Launch::new(ctas, tpc);
    // A bounded budget keeps pathological loop nests fast; both engines
    // see the same budget, so budget errors must agree like any other.
    let mut machine = MachineConfig::paper();
    machine.max_warp_instructions = 200_000;

    check_agreement(
        &format!("gen seed {seed:#018x} baseline"),
        &kernel,
        &launch,
        &memory,
        ExecMode::Baseline,
        &machine,
    )?;

    let entries = rng.gen_range(1..=8);
    let mut cfg = match rng.gen_range(0..3) {
        0 => AllocConfig::two_level(entries),
        1 => AllocConfig::three_level(entries, false),
        _ => AllocConfig::three_level(entries, true),
    };
    cfg.partial_ranges = rng.gen();
    cfg.read_operands = rng.gen();
    let mut allocated = kernel.clone();
    allocate(&mut allocated, &cfg, &EnergyModel::paper())
        .map_err(|e| format!("gen seed {seed:#018x}: allocation failed: {e}"))?;
    check_agreement(
        &format!("gen seed {seed:#018x} {cfg}"),
        &allocated,
        &launch,
        &memory,
        ExecMode::Hierarchy(cfg),
        &machine,
    )
}

/// The generator sweep: 1000 seeded kernels (per `RFH_EXEC_DIFF_CASES`),
/// each checked in both execution modes on both engines.
#[test]
fn generated_kernels_agree_on_both_engines() {
    let base = base_seed();
    let seeds = case_seeds(base, diff_cases());
    let outcomes = par_map(&seeds, |&seed| generated_case(seed));
    let failures: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases diverged (base seed {base:#018x}; replay one case by \
         setting RFH_TESTKIT_SEED and RFH_EXEC_DIFF_CASES=1 after bisecting):\n{}",
        failures.len(),
        diff_cases(),
        failures.join("\n")
    );
}
