//! Figure 15: per-benchmark normalized energy of the most efficient
//! configuration (3-entry ORF, split LRF, partial ranges + read operands),
//! sorted by savings.
//!
//! Paper §6.4 singles out `Reduction` and `ScalarProd` as the weakest
//! cases (25–30% savings): tight load/FMA loops whose frequent
//! descheduling keeps invalidating the LRF/ORF.

use rfh_alloc::AllocConfig;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{norm, Table};

/// One per-benchmark bar.
#[derive(Debug, Clone)]
pub struct BenchEnergy {
    /// Workload name.
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Normalized energy (lower is better).
    pub energy: f64,
}

/// Runs the best configuration on every workload, in parallel over the
/// `RFH_JOBS` pool. Baselines and the best-configuration cells come from
/// the shared context cache, so a benchmark already counted by another
/// experiment is never counted twice.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> Vec<BenchEnergy> {
    let cfg = AllocConfig::three_level(3, true);
    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    let mut rows: Vec<BenchEnergy> = par_map(&idx, |&i| {
        let w = &ctx.workloads()[i];
        BenchEnergy {
            name: w.name.clone(),
            suite: w.suite.to_string(),
            energy: ctx.sw_normalized(i, &cfg),
        }
    });
    // total_cmp: a NaN energy (degenerate ratio) must sort, not panic.
    rows.sort_by(|a, b| a.energy.total_cmp(&b.energy));
    rows
}

/// Renders the sorted bars.
pub fn print(rows: &[BenchEnergy]) -> String {
    let mut t = Table::new(&["benchmark", "suite", "normalized energy", "savings"]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.suite.clone(),
            norm(r.energy),
            format!("{:.1}%", (1.0 - r.energy) * 100.0),
        ]);
    }
    format!(
        "Figure 15 — per-benchmark energy, best configuration\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_saves_energy_and_worst_cases_match() {
        let ws = rfh_workloads::all();
        let rows = run(&ExperimentCtx::new(&ws));
        assert!(rows.len() >= 15);
        for r in &rows {
            assert!(
                r.energy < 1.0,
                "{} should save energy, got {}",
                r.name,
                r.energy
            );
        }
        assert!(
            rows.windows(2).all(|w| w[0].energy <= w[1].energy),
            "sorted"
        );
        // The paper's weakest benchmarks sit in the worst third for us too.
        let worst_third: Vec<&str> = rows[rows.len() * 2 / 3..]
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(
            worst_third.contains(&"scalarprod") || worst_third.contains(&"reduction"),
            "paper's worst cases should rank poorly, got {worst_third:?}"
        );
    }
}
