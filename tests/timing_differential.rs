//! Differential conformance: the flat timing engine
//! (`rfh::sim::timing::simulate_timing`) against the frozen reference
//! oracle (`rfh_oracle::timing::simulate`).
//!
//! Every case replays the same trace set through both engines and demands
//! exact agreement on the full `Result`: identical [`TimingResult`]s
//! (cycles, instructions, deschedules) on success, and field-for-field
//! identical [`TimingError`]s on failure — including the deadlock
//! snapshot, so a divergence in *how* the engines fail is caught as
//! loudly as a divergence in what they compute.
//!
//! Three sources of cases:
//!
//! * the full 35-workload paper suite, traced once per workload and
//!   replayed under a grid of scheduler configurations (single- and
//!   two-level, both policies, a tight cycle budget for error parity);
//! * a seeded generator of synthetic trace sets — random latency
//!   classes, units, long flags, register pressure, empty warps, and
//!   balanced *and deliberately unbalanced* barriers (the latter must
//!   deadlock identically);
//! * a wide variant of that generator — 33–96 warps under blocked,
//!   interleaved (`w % ctas`) or uneven CTA maps — which fills the
//!   single-level active set, the two-level pending queues and the
//!   per-CTA barrier counters with many warps.
//!
//! Knobs: `RFH_TESTKIT_SEED` replays both generator sweeps from a given
//! base seed, `RFH_TIMING_DIFF_CASES` scales each sweep's case count
//! (default 600), and `RFH_JOBS` sets the worker count (outcomes fold in
//! case order, so failures are identical at any job count).

use rfh::sim::exec::{execute_with, ExecMode, StreamRecorder};
use rfh::sim::machine::MachineConfig;
use rfh::sim::timing::{simulate_timing, CtaMap, SchedPolicy, TimingConfig, TraceCapture, TraceOp};
use rfh_testkit::pool::par_map;
use rfh_testkit::prelude::*;

/// Runs one trace set through both engines under one config and compares
/// the full `Result`.
fn check_agreement(
    label: &str,
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<(), String> {
    let flat = simulate_timing(traces, cta_of, config);
    let oracle = rfh_oracle::timing::simulate(traces, cta_of, config);
    match (&flat, &oracle) {
        _ if flat == oracle => Ok(()),
        (Ok(f), Ok(r)) => Err(format!(
            "{label}: results diverge: flat {f:?} vs reference {r:?}"
        )),
        (Err(f), Err(r)) => Err(format!(
            "{label}: errors diverge: flat `{f}` vs reference `{r}`"
        )),
        (Ok(f), Err(r)) => Err(format!(
            "{label}: flat succeeded ({f:?}) but reference failed: {r}"
        )),
        (Err(f), Ok(r)) => Err(format!(
            "{label}: flat failed ({f}) but reference succeeded ({r:?})"
        )),
    }
}

/// The scheduler configuration grid every captured workload replays
/// under: both levels, the active-set sweep of fig 9, both policies, and
/// a tight budget that must trip identically.
fn config_grid() -> Vec<(String, TimingConfig)> {
    let mut grid: Vec<(String, TimingConfig)> = Vec::new();
    grid.push(("single-level".into(), TimingConfig::single_level()));
    grid.push((
        "single-level greedy".into(),
        TimingConfig::single_level().with_policy(SchedPolicy::Greedy),
    ));
    for active in [1, 2, 4, 8, 16, 32] {
        grid.push((
            format!("two-level({active})"),
            TimingConfig::two_level(active),
        ));
    }
    for active in [4, 8] {
        grid.push((
            format!("two-level({active}) greedy"),
            TimingConfig::two_level(active).with_policy(SchedPolicy::Greedy),
        ));
    }
    grid.push((
        "two-level(8) budget=1000".into(),
        TimingConfig::two_level(8).with_max_cycles(1000),
    ));
    grid
}

/// The full paper workload suite: trace once, replay under the grid. A
/// `Stream` recorded by the same run must expand to the same traces.
#[test]
fn all_workloads_agree_on_both_engines() {
    let workloads = rfh::workloads::all();
    assert_eq!(workloads.len(), 35, "the paper's full workload suite");
    let machine = MachineConfig::paper();
    let grid = config_grid();
    let failures: Vec<String> = par_map(&workloads, |w| {
        let mut cap = TraceCapture::new(machine.clone(), w.launch.threads_per_cta);
        let mut rec = StreamRecorder::new(&w.kernel);
        let mut mem = w.memory.clone();
        if let Err(e) = execute_with(
            &w.kernel,
            &w.launch,
            &mut mem,
            ExecMode::Baseline,
            &machine,
            &mut [&mut cap, &mut rec],
        ) {
            return vec![format!("{}: trace capture failed: {e}", w.name)];
        }
        let ctas = CtaMap::new(&machine, w.launch.threads_per_cta);
        if rec.finish().timing_traces(&machine) != cap.traces
            || (0..cap.traces.len()).any(|wi| ctas.cta_of(wi) != cap.cta_of(wi))
        {
            return vec![format!("{}: stream traces differ from the capture", w.name)];
        }
        grid.iter()
            .filter_map(|(cfg_name, cfg)| {
                check_agreement(
                    &format!("{} {cfg_name}", w.name),
                    &cap.traces,
                    &|wi| cap.cta_of(wi),
                    cfg,
                )
                .err()
            })
            .collect()
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Base seed: `RFH_TESTKIT_SEED` if set, else a fixed default.
fn base_seed() -> u64 {
    rfh_testkit::env::u64_knob("RFH_TESTKIT_SEED").unwrap_or(0x71A1_5EED_CAFE_0010)
}

/// Generator case budget: `RFH_TIMING_DIFF_CASES` if set, else 600.
fn diff_cases() -> usize {
    rfh_testkit::env::usize_knob("RFH_TIMING_DIFF_CASES").unwrap_or(600)
}

/// Per-case seed stream: each case's seed is a deterministic function of
/// the base seed alone, so cases parallelize and replay individually.
fn case_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut seeder = SplitMix64::new(base);
    (0..n).map(|_| seeder.next_u64()).collect()
}

/// One random dynamic instruction: latency class, unit, long flag, and
/// register operands are all drawn independently (the engines must agree
/// on *any* trace, not just ones a real capture would produce).
fn random_op(rng: &mut SmallRng) -> TraceOp {
    use rfh::isa::Unit;
    let (unit, latency, long) = match rng.gen_range(0..100u32) {
        0..=59 => (Unit::Alu, 8, false),
        60..=69 => (Unit::Sfu, 20, false),
        70..=79 => (Unit::Mem, 20, false), // shared memory
        80..=89 => (Unit::Mem, 400, true), // DRAM
        90..=94 => (Unit::Tex, 400, true), // texture
        _ => {
            // An odd one: arbitrary latency, any unit, random long flag.
            let unit = [Unit::Alu, Unit::Sfu, Unit::Mem, Unit::Tex][rng.gen_range(0..4)];
            (unit, rng.gen_range(1..=500), rng.gen_range(0..10u32) < 3)
        }
    };
    let mut dsts = [None, None];
    for d in dsts.iter_mut().take(rng.gen_range(0..=2)) {
        *d = Some(rng.gen_range(0..24u16));
    }
    let mut srcs = [None, None, None];
    for s in srcs.iter_mut().take(rng.gen_range(0..=3)) {
        *s = Some(rng.gen_range(0..24u16));
    }
    TraceOp {
        latency,
        unit,
        long,
        barrier: false,
        dsts,
        srcs,
    }
}

fn barrier_op() -> TraceOp {
    TraceOp {
        latency: 1,
        unit: rfh::isa::Unit::Alu,
        long: false,
        barrier: true,
        dsts: [None, None],
        srcs: [None, None, None],
    }
}

/// Per-warp traces for `n` warps, each cut into `segments + 1` runs of
/// 0–8 random ops by barriers. Unbalanced sets give warp 0 one barrier
/// too few or too many, a CTA-level mismatch both engines must diagnose
/// identically; ~5% of warps are emptied (the empty-warp edge case).
fn random_traces(
    rng: &mut SmallRng,
    n: usize,
    segments: usize,
    balanced: bool,
) -> Vec<Vec<TraceOp>> {
    let mut traces: Vec<Vec<TraceOp>> = Vec::with_capacity(n);
    for wi in 0..n {
        let mut trace = Vec::new();
        let mut barriers = segments;
        if !balanced && wi == 0 {
            barriers = if segments > 0 && rng.gen::<bool>() {
                segments - 1
            } else {
                segments + 1
            };
        }
        for seg in 0..=barriers {
            for _ in 0..rng.gen_range(0..=8) {
                trace.push(random_op(rng));
            }
            if seg < barriers {
                trace.push(barrier_op());
            }
        }
        if rng.gen_range(0..100u32) < 5 {
            trace.clear();
        }
        traces.push(trace);
    }
    traces
}

/// A random scheduler config: two-level with 1–32 active warps ~70% of
/// the time, else single-level; greedy ~30%; a tight budget ~10%.
fn random_config(rng: &mut SmallRng) -> TimingConfig {
    let mut config = if rng.gen_range(0..10u32) < 7 {
        TimingConfig::two_level(rng.gen_range(1..=32))
    } else {
        TimingConfig::single_level()
    };
    if rng.gen_range(0..10u32) < 3 {
        config = config.with_policy(SchedPolicy::Greedy);
    }
    if rng.gen_range(0..10u32) < 1 {
        config = config.with_max_cycles(rng.gen_range(50..=2000));
    }
    config
}

/// One generated trace set: 1–3 CTAs of 1–4 warps, segmented by barriers
/// that are balanced within each CTA ~90% of the time — the unbalanced
/// rest must produce identical deadlock errors from both engines.
fn generated_case(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ctas = rng.gen_range(1..=3usize);
    let warps_per_cta = rng.gen_range(1..=4usize);
    let segments = rng.gen_range(0..=3usize);
    let balanced = rng.gen_range(0..10u32) < 9;

    let traces = random_traces(&mut rng, ctas * warps_per_cta, segments, balanced);
    let cta_of = move |w: usize| w / warps_per_cta;
    let config = random_config(&mut rng);
    check_agreement(&format!("gen seed {seed:#018x}"), &traces, &cta_of, &config)
}

/// One wide trace set: 33–96 warps, so the single-level active set and
/// the two-level pending queue hold many warps, under a CTA map that is
/// blocked, interleaved (`w % ctas`) or uneven (each warp in a random
/// CTA, so CTAs differ in size and some may be empty).
fn wide_case(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(33..=96usize);
    let ctas = rng.gen_range(1..=8usize);
    let segments = rng.gen_range(0..=3usize);
    let balanced = rng.gen_range(0..10u32) < 9;
    let (map, cta): (&str, Vec<usize>) = match rng.gen_range(0..3u32) {
        0 => ("blocked", (0..n).map(|w| w * ctas / n).collect()),
        1 => ("interleaved", (0..n).map(|w| w % ctas).collect()),
        _ => ("uneven", (0..n).map(|_| rng.gen_range(0..ctas)).collect()),
    };

    let traces = random_traces(&mut rng, n, segments, balanced);
    let config = random_config(&mut rng);
    check_agreement(
        &format!("wide seed {seed:#018x} ({n} warps, {map} over {ctas} CTAs)"),
        &traces,
        &|w| cta[w],
        &config,
    )
}

/// Runs `case` on every seed of the generator sweep and reports every
/// divergence.
fn sweep(case: fn(u64) -> Result<(), String>) {
    let base = base_seed();
    let seeds = case_seeds(base, diff_cases());
    let outcomes = par_map(&seeds, |&seed| case(seed));
    let failures: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases diverged (base seed {base:#018x}; replay one case by \
         setting RFH_TESTKIT_SEED and RFH_TIMING_DIFF_CASES=1 after bisecting):\n{}",
        failures.len(),
        diff_cases(),
        failures.join("\n")
    );
}

/// The generator sweep: 600 seeded trace sets (per
/// `RFH_TIMING_DIFF_CASES`), each replayed on both engines.
#[test]
fn generated_traces_agree_on_both_engines() {
    sweep(generated_case);
}

/// The wide sweep: as many seeded wide trace sets, with interleaved and
/// uneven CTA maps.
#[test]
fn wide_and_interleaved_traces_agree_on_both_engines() {
    sweep(wide_case);
}
