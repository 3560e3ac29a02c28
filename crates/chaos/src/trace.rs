//! Seeded mutators for captured timing traces and scheduler configs.
//!
//! These corrupt the *input of the timing model* — the per-warp dynamic
//! instruction streams a [`rfh_sim::timing::TraceCapture`] produces, and
//! the [`TimingConfig`] they replay under — the way [`crate::ir`]
//! corrupts kernels. The timing chaos layer
//! ([`crate::harness::run_timing_layer`]) drives every mutant through
//! both the flat engine and its frozen oracle: surviving traces must
//! produce identical results, malformed ones (unbalanced barriers,
//! degenerate configs, starved budgets) must produce identical
//! structured errors.
//!
//! Mutation kinds: reordered ops, perturbed latency classes (including
//! long-flag flips that move an op between the deschedule and
//! wait-in-place paths), scrambled operand registers, duplicated and
//! dropped ops, truncated and emptied warp streams, inserted and removed
//! barriers, and config corruptions (zero/oversized active sets, zeroed
//! latency classes, starved cycle budgets, policy flips).

use rfh_sim::timing::{SchedPolicy, TimingConfig, TraceOp};
use rfh_testkit::prelude::*;

use rfh_isa::Unit;

/// Applies 1–3 random mutations to a trace set and its config.
///
/// Mutations can be no-ops on degenerate inputs (an empty trace set has
/// nothing to reorder); the harness classifies those as *unchanged* by
/// comparing against the originals.
pub fn mutate_timing(traces: &mut [Vec<TraceOp>], config: &mut TimingConfig, rng: &mut SmallRng) {
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..12u32) {
            0 => reorder_ops(traces, rng),
            1 => perturb_latency(traces, rng),
            2 => flip_long(traces, rng),
            3 => swap_unit(traces, rng),
            4 => scramble_operands(traces, rng),
            5 => duplicate_op(traces, rng),
            6 => drop_op(traces, rng),
            7 => truncate_warp(traces, rng),
            8 => insert_barrier(traces, rng),
            9 => remove_barrier(traces, rng),
            10 => corrupt_active_set(config, rng),
            _ => corrupt_config(config, rng),
        }
    }
}

/// A random warp index with a nonempty trace, if any.
fn nonempty_warp(traces: &[Vec<TraceOp>], rng: &mut SmallRng) -> Option<usize> {
    let candidates: Vec<usize> = (0..traces.len())
        .filter(|&w| !traces[w].is_empty())
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

/// Swaps two ops within one warp's stream (a hazard-reordering fault).
fn reorder_ops(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let a = rng.gen_range(0..t.len());
        let b = rng.gen_range(0..t.len());
        t.swap(a, b);
    }
}

/// Rewrites one op's latency to another class's value (or an arbitrary
/// one), desynchronizing latency from unit.
fn perturb_latency(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        t[i].latency = match rng.gen_range(0..6u32) {
            0 => 1,
            1 => 8,
            2 => 20,
            3 => 400,
            4 => rng.gen_range(1..=997),
            // Latency 0 would mean a result ready the cycle it issues;
            // the engines must still terminate and agree.
            _ => rng.gen_range(0..=1),
        };
    }
}

/// Flips one op's long-latency flag, moving it between the
/// deschedule-on-dependence and wait-in-place scheduler paths.
fn flip_long(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        t[i].long = !t[i].long;
    }
}

/// Reassigns one op to a different execution unit (shared-datapath
/// pressure appears or disappears).
fn swap_unit(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        t[i].unit = [Unit::Alu, Unit::Sfu, Unit::Mem, Unit::Tex][rng.gen_range(0..4)];
    }
}

/// Rewrites one op's register operands (dependence edges move).
fn scramble_operands(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        for d in t[i].dsts.iter_mut() {
            if rng.gen::<bool>() {
                *d = if rng.gen_range(0..4u32) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..64u16))
                };
            }
        }
        for s in t[i].srcs.iter_mut() {
            if rng.gen::<bool>() {
                *s = if rng.gen_range(0..4u32) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..64u16))
                };
            }
        }
    }
}

/// Duplicates one op in place (double-issue fault; duplicating a barrier
/// unbalances the CTA).
fn duplicate_op(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        let op = t[i];
        t.insert(i, op);
    }
}

/// Drops one op (dropping a barrier unbalances the CTA).
fn drop_op(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..t.len());
        t.remove(i);
    }
}

/// Truncates one warp's stream — possibly to empty — as if the capture
/// was cut short mid-kernel.
fn truncate_warp(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let keep = rng.gen_range(0..t.len());
        t.truncate(keep);
    }
}

/// Inserts a barrier into one warp (its CTA peers never arrive).
fn insert_barrier(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let i = rng.gen_range(0..=t.len());
        t.insert(
            i,
            TraceOp {
                latency: 1,
                unit: Unit::Alu,
                long: false,
                barrier: true,
                dsts: [None, None],
                srcs: [None, None, None],
            },
        );
    }
}

/// Strips the barrier flag from one barrier op, if the chosen warp has
/// any (its CTA peers wait forever).
fn remove_barrier(traces: &mut [Vec<TraceOp>], rng: &mut SmallRng) {
    if let Some(w) = nonempty_warp(traces, rng) {
        let t = &mut traces[w];
        let barriers: Vec<usize> = (0..t.len()).filter(|&i| t[i].barrier).collect();
        if !barriers.is_empty() {
            t[barriers[rng.gen_range(0..barriers.len())]].barrier = false;
        }
    }
}

/// Corrupts the active-set size: zero, over-resident, or a random size
/// (the first two must be rejected up front by config validation).
fn corrupt_active_set(config: &mut TimingConfig, rng: &mut SmallRng) {
    config.two_level = true;
    config.active_warps = match rng.gen_range(0..3u32) {
        0 => 0,
        1 => config.machine.resident_warps + rng.gen_range(1..=8),
        _ => rng.gen_range(1..=config.machine.resident_warps),
    };
}

/// Corrupts other config knobs: zeroed latency classes (rejected),
/// starved cycle budgets (structured budget errors) and policy flips.
fn corrupt_config(config: &mut TimingConfig, rng: &mut SmallRng) {
    match rng.gen_range(0..8u32) {
        0 => config.machine.alu_latency = 0,
        1 => config.machine.dram_latency = 0,
        2 => config.machine.shared_mem_latency = 0,
        3 => config.max_cycles = rng.gen_range(0..=200),
        4 => config.policy = SchedPolicy::Greedy,
        5 => config.policy = SchedPolicy::RoundRobin,
        6 => config.machine.sfu_latency = 0,
        _ => config.machine.shared_issue_cycles = rng.gen_range(0..=16),
    }
}
