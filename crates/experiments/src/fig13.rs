//! Figure 13: normalized register file access + wire energy for the four
//! organizations — HW (RFC), HW LRF (3-level), SW (ORF), SW LRF Split —
//! across 1–8 upper-level entries per thread.
//!
//! Paper §6.4 headlines: HW best ≈ 34% savings (3 entries), SW two-level ≈
//! 45% (3 entries), HW LRF ≈ 41% (6 entries), SW LRF split ≈ 54% (3
//! entries); the SW three-level design is the overall winner.

use rfh_alloc::AllocConfig;
use rfh_energy::AccessCounts;
use rfh_sim::rfc::RfcConfig;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{norm, Table};
use crate::runner::{mean, normalized_energy};

/// Normalized energies for one entry count.
#[derive(Debug, Clone, Copy)]
pub struct EnergyPoint {
    /// Entries per thread.
    pub entries: usize,
    /// Hardware RFC (two-level).
    pub hw: f64,
    /// Hardware LRF + RFC (three-level).
    pub hw_lrf: f64,
    /// Software ORF (two-level, all optimizations).
    pub sw: f64,
    /// Software split-LRF + ORF (three-level).
    pub sw_lrf_split: f64,
}

/// The figure data plus the best configuration per scheme.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// One point per entry count, 1–8.
    pub points: Vec<EnergyPoint>,
}

impl Fig13 {
    /// `(entries, normalized energy)` of the best point for a selector.
    pub fn best(&self, f: impl Fn(&EnergyPoint) -> f64) -> (usize, f64) {
        self.points
            .iter()
            .map(|p| (p.entries, f(p)))
            // total_cmp: a NaN cell (degenerate energy ratio) must sort,
            // not panic the whole sweep.
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("Fig13 has at least one point")
    }
}

/// Runs the energy sweep. Each workload's sixteen HW configurations come
/// from one [`ExperimentCtx::hw_counts_many`] batch (cache hits after
/// `fig11` and `fig12`); the (entries × workload) cells — each covering
/// all four schemes — run in parallel over the `RFH_JOBS` pool with a
/// fixed fold order.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> Fig13 {
    let n = ctx.workloads().len();
    let idx: Vec<usize> = (0..n).collect();
    let hw_cfgs: Vec<RfcConfig> = (1..=8usize)
        .flat_map(|entries| {
            [
                RfcConfig::two_level(entries),
                RfcConfig::three_level(entries),
            ]
        })
        .collect();
    let hw_counted: Vec<Vec<AccessCounts>> = par_map(&idx, |&i| ctx.hw_counts_many(i, &hw_cfgs));
    let cells: Vec<(usize, usize)> = (1..=8usize)
        .flat_map(|entries| (0..n).map(move |i| (entries, i)))
        .collect();
    let norms: Vec<[f64; 4]> = par_map(&cells, |&(entries, i)| {
        let b = ctx.baseline(i);
        let model = ctx.model();
        let hw = &hw_counted[i][2 * (entries - 1)..];
        [
            normalized_energy(&hw[0], &b, model, entries),
            normalized_energy(&hw[1], &b, model, entries),
            ctx.sw_normalized(i, &AllocConfig::two_level(entries)),
            ctx.sw_normalized(i, &AllocConfig::three_level(entries, true)),
        ]
    });
    let points = norms
        .chunks(n)
        .enumerate()
        .map(|(e, per_entry)| {
            let col = |c: usize| mean(&per_entry.iter().map(|v| v[c]).collect::<Vec<_>>());
            EnergyPoint {
                entries: e + 1,
                hw: col(0),
                hw_lrf: col(1),
                sw: col(2),
                sw_lrf_split: col(3),
            }
        })
        .collect();
    Fig13 { points }
}

/// Also used by §6.4: the split-vs-unified LRF comparison at one size.
/// Baselines and the split-LRF cells come from the shared context cache,
/// so nothing already computed by [`run`] is counted again.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn split_vs_unified(ctx: &ExperimentCtx, entries: usize) -> (f64, f64) {
    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    let pairs: Vec<(f64, f64)> = par_map(&idx, |&i| {
        (
            ctx.sw_normalized(i, &AllocConfig::three_level(entries, true)),
            ctx.sw_normalized(i, &AllocConfig::three_level(entries, false)),
        )
    });
    let split: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let unified: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    (mean(&split), mean(&unified))
}

/// Renders the figure.
pub fn print(f: &Fig13) -> String {
    let mut t = Table::new(&["entries", "HW", "HW LRF", "SW", "SW LRF Split"]);
    for p in &f.points {
        t.row(&[
            p.entries.to_string(),
            norm(p.hw),
            norm(p.hw_lrf),
            norm(p.sw),
            norm(p.sw_lrf_split),
        ]);
    }
    let (he, hv) = f.best(|p| p.hw);
    let (se, sv) = f.best(|p| p.sw);
    let (h3e, h3v) = f.best(|p| p.hw_lrf);
    let (s3e, s3v) = f.best(|p| p.sw_lrf_split);
    format!(
        "Figure 13 — normalized access+wire energy\n{}\nbest: HW {:.1}% @{he} | HW LRF {:.1}% @{h3e} | SW {:.1}% @{se} | SW LRF Split {:.1}% @{s3e} (savings)\n",
        t.render(),
        (1.0 - hv) * 100.0,
        (1.0 - h3v) * 100.0,
        (1.0 - sv) * 100.0,
        (1.0 - s3v) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset() -> Vec<rfh_workloads::Workload> {
        ["vectoradd", "matrixmul", "nbody", "hotspot"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn orderings_match_the_paper() {
        let ws = subset();
        let f = run(&ExperimentCtx::new(&ws));
        assert_eq!(f.points.len(), 8);
        // At every size, SW beats HW and three levels beat two for SW.
        for p in &f.points {
            assert!(
                p.sw < p.hw + 0.02,
                "entries {}: SW {} vs HW {}",
                p.entries,
                p.sw,
                p.hw
            );
            assert!(p.sw_lrf_split <= p.sw + 0.02);
        }
        // All schemes save energy at their best point.
        assert!(f.best(|p| p.hw).1 < 1.0);
        assert!(f.best(|p| p.sw_lrf_split).1 < f.best(|p| p.hw).1);
    }

    #[test]
    fn split_lrf_not_worse_than_unified() {
        let ws = subset();
        let (split, unified) = split_vs_unified(&ExperimentCtx::new(&ws), 3);
        assert!(
            split <= unified + 0.01,
            "split {split} vs unified {unified}"
        );
    }
}
