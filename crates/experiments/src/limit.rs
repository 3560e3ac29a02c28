//! §7: the register hierarchy limit study.
//!
//! Idealized upper bounds and design variants, each reported as normalized
//! energy (or savings) next to the realistic 3-entry split-LRF design:
//!
//! * **ideal all-LRF** — every access served by the LRF (paper: 87%
//!   savings bound);
//! * **ideal all-ORF(5)** — every access served by a 5-entry ORF (paper:
//!   61%);
//! * **variable ORF allocation (oracle)** — each strand keeps the ORF
//!   size that minimizes its own energy, as if the scheduler partitioned
//!   the physical ORF per warp exactly as requested (paper: ~6%); plus
//!   the 6-active-warp variant that scales upper-level access energy by
//!   6/8 (paper: ~6% more);
//! * **allocating past backward branches** — the HW cache flushing vs not
//!   flushing at backedges (paper: ~5% difference);
//! * **instruction scheduling bounds** — an 8-entry (resp. 5-entry) ORF
//!   charged at 3-entry access energy (paper: 9% and 6%), and the
//!   never-flush idealization in which LRF/ORF contents survive
//!   descheduling (paper: 8%).

use std::sync::Arc;

use rfh_alloc::AllocConfig;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_sim::rfc::RfcConfig;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{pct, Table};
use crate::runner::{self, mean, normalized_energy};

/// Per-strand oracle (§7 "variable allocation of ORF resources"): allocate
/// the kernel once per ORF size, count accesses per strand, and let every
/// strand keep its cheapest size — charging each strand the access energy
/// of the size it chose, as if the scheduler partitioned the physical ORF
/// per warp exactly as requested.
///
/// Allocation decisions depend on the energy model, so only the context's
/// own model reads the shared per-strand SW cells; the 6-warp variant
/// allocates and executes its own kernels.
fn per_strand_oracle(
    ctx: &ExperimentCtx,
    i: usize,
    base: &AccessCounts,
    model: &EnergyModel,
) -> f64 {
    let w = &ctx.workloads()[i];
    let per_k: Vec<Arc<[AccessCounts]>> = (1..=8usize)
        .map(|k| {
            let cfg = AllocConfig::three_level(k, true);
            if model == ctx.model() {
                return ctx.sw_strand_counts(i, &cfg);
            }
            let mut kernel = w.kernel.clone();
            rfh_alloc::allocate(&mut kernel, &cfg, model)
                .unwrap_or_else(|e| panic!("allocation failed: {e}"));
            runner::strand_counter(w, &kernel, &cfg).per_strand().into()
        })
        .collect();
    let strands = per_k[0].len();
    debug_assert!(per_k.iter().all(|v| v.len() == strands));
    let total: f64 = (0..strands)
        .map(|strand| {
            (1..=8usize)
                .map(|k| model.energy(&per_k[k - 1][strand], k).total())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total
        / model
            .baseline_energy(base.total_reads(), base.total_writes())
            .total()
}

/// All limit-study results (normalized energies; lower is better).
#[derive(Debug, Clone, Copy)]
pub struct LimitStudy {
    /// The realistic SW split-LRF design at 3 entries.
    pub realistic: f64,
    /// Every access from the LRF.
    pub ideal_all_lrf: f64,
    /// Every access from a 5-entry ORF.
    pub ideal_all_orf5: f64,
    /// Oracle per-strand ORF sizing.
    pub variable_orf: f64,
    /// Oracle sizing plus 6 active warps (ORF energy scaled by 6/8).
    pub variable_orf_6warps: f64,
    /// HW cache (6 entries) flushing at backward branches.
    pub hw_flush_backedge: f64,
    /// HW cache (6 entries) persisting across backward branches.
    pub hw_keep_backedge: f64,
    /// 8-entry ORF charged at 3-entry energy (scheduling bound).
    pub sched_8_at_3: f64,
    /// 5-entry ORF charged at 3-entry energy.
    pub sched_5_at_3: f64,
    /// Never-flush idealization (strands end only at backward branches).
    pub never_flush: f64,
}

fn ideal_counts_energy(base: &AccessCounts, model: &EnergyModel, lrf: bool) -> f64 {
    let ideal = if lrf {
        AccessCounts {
            lrf_read: base.total_reads(),
            lrf_write: base.total_writes(),
            ..Default::default()
        }
    } else {
        AccessCounts {
            orf_read_private: base.total_reads(),
            orf_write_private: base.total_writes(),
            ..Default::default()
        }
    };
    let entries = if lrf { 1 } else { 5 };
    model.energy(&ideal, entries).total()
        / model
            .baseline_energy(base.total_reads(), base.total_writes())
            .total()
}

/// Charged-at-3-entries energy: counts from a `k`-entry allocation, access
/// energy from the 3-entry table row.
fn charged_at_3(ctx: &ExperimentCtx, i: usize, base: &AccessCounts, k: usize) -> f64 {
    let c = ctx.sw_counts(i, &AllocConfig::three_level(k, true));
    normalized_energy(&c, base, ctx.model(), 3)
}

/// Runs the limit study. Workloads fan out over the `RFH_JOBS` pool; the
/// realistic design, the charged-at-3 bounds, and the HW backedge
/// variants all come from the shared context cache.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> LimitStudy {
    let model = ctx.model();

    // A 6-active-warp model: the upper-level structures shrink to 6/8 of
    // their size; scale their access energies accordingly (idealized).
    let model6 = {
        let mut m = model.clone();
        for row in m.orf_table.iter_mut() {
            row.read_pj *= 0.75;
            row.write_pj *= 0.75;
        }
        m.lrf_read_pj *= 0.75;
        m.lrf_write_pj *= 0.75;
        m
    };

    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    let rows: Vec<[f64; 10]> = par_map(&idx, |&i| {
        let base = ctx.baseline(i);

        // Backward-branch variants of the HW cache, counted by one run.
        let flush_cfg = RfcConfig {
            flush_on_backward_branch: true,
            ..RfcConfig::two_level(6)
        };
        let hw = ctx.hw_counts_many(i, &[RfcConfig::two_level(6), flush_cfg]);
        let (keep, flush) = (hw[0], hw[1]);
        let nf_cfg = AllocConfig {
            ideal_no_deschedule_split: true,
            ..AllocConfig::three_level(3, true)
        };
        [
            ctx.sw_normalized(i, &AllocConfig::three_level(3, true)),
            ideal_counts_energy(&base, model, true),
            ideal_counts_energy(&base, model, false),
            // Per-strand oracle ORF sizing (§7), with the 8-active-warp
            // and 6-active-warp energy tables.
            per_strand_oracle(ctx, i, &base, model),
            per_strand_oracle(ctx, i, &base, &model6),
            normalized_energy(&flush, &base, model, 6),
            normalized_energy(&keep, &base, model, 6),
            // Scheduling bounds.
            charged_at_3(ctx, i, &base, 8),
            charged_at_3(ctx, i, &base, 5),
            normalized_energy(&ctx.sw_counts(i, &nf_cfg), &base, model, 3),
        ]
    });
    let col = |c: usize| mean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
    LimitStudy {
        realistic: col(0),
        ideal_all_lrf: col(1),
        ideal_all_orf5: col(2),
        variable_orf: col(3),
        variable_orf_6warps: col(4),
        hw_flush_backedge: col(5),
        hw_keep_backedge: col(6),
        sched_8_at_3: col(7),
        sched_5_at_3: col(8),
        never_flush: col(9),
    }
}

/// Renders the study.
pub fn print(l: &LimitStudy) -> String {
    let mut t = Table::new(&["experiment", "normalized energy", "savings"]);
    let rows: Vec<(&str, f64)> = vec![
        ("realistic SW LRF-split @3", l.realistic),
        ("ideal: every access LRF", l.ideal_all_lrf),
        ("ideal: every access ORF(5)", l.ideal_all_orf5),
        ("oracle per-strand ORF sizing", l.variable_orf),
        ("oracle + 6 active warps", l.variable_orf_6warps),
        ("HW RFC(6), flush at backedges", l.hw_flush_backedge),
        ("HW RFC(6), keep across backedges", l.hw_keep_backedge),
        ("sched bound: 8 entries @3-entry cost", l.sched_8_at_3),
        ("sched bound: 5 entries @3-entry cost", l.sched_5_at_3),
        ("never flush on deschedule (ideal)", l.never_flush),
    ];
    for (name, v) in rows {
        t.row(&[name.into(), format!("{v:.3}"), pct(1.0 - v)]);
    }
    format!("§7 — register hierarchy limit study\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset() -> Vec<rfh_workloads::Workload> {
        ["vectoradd", "scalarprod", "mandelbrot", "backprop"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn bounds_order_correctly() {
        let ws = subset();
        let l = run(&ExperimentCtx::new(&ws));
        // The all-LRF bound is the floor; all-ORF(5) sits between it and
        // the realistic design; idealizations beat the realistic design.
        assert!(l.ideal_all_lrf < l.ideal_all_orf5);
        assert!(l.ideal_all_lrf < l.realistic);
        assert!(1.0 - l.ideal_all_lrf > 0.8, "paper: ~87% bound");
        assert!(l.variable_orf <= l.realistic + 1e-9);
        assert!(l.variable_orf_6warps <= l.variable_orf + 1e-9);
        assert!(l.never_flush <= l.realistic + 1e-9);
        assert!(l.sched_8_at_3 <= l.sched_5_at_3 + 0.02);
        // Keeping RFC contents across backedges can only help the HW
        // scheme.
        assert!(l.hw_keep_backedge <= l.hw_flush_backedge + 1e-9);
    }
}
