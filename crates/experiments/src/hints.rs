//! Compiler-assisted last-use allocation hints (`rfhc --hints`): SW
//! hierarchy accesses and normalized energy with the abstract-interpreter
//! hint pass off vs. on, per workload.
//!
//! The hint pass (`rfh_analysis::absint::last_use`) proves some reads
//! final, so the allocator can release ORF/LRF entries at the last read
//! instead of carrying them to the strand boundary — fewer MRF
//! write-backs on guarded chains the default liveness must keep alive.
//!
//! Deliberately **not** part of `repro all`: the default pipeline must
//! stay byte-identical to the committed goldens, and this arm exists
//! precisely to measure the non-default `--hints` path against it.
//! No kernel runs here: hints off is the context's memoized SW cell, and
//! hints on a tag-checked replay of the hint-allocated kernel.

use rfh_alloc::AllocConfig;
use rfh_energy::AccessCounts;
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::ExecMode;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{norm, Table};
use crate::runner::normalized_energy;

/// One workload's hints-off vs. hints-on comparison.
#[derive(Debug, Clone)]
pub struct HintsRow {
    /// Workload name.
    pub name: String,
    /// Hierarchy access counts with the default allocator.
    pub off: AccessCounts,
    /// Hierarchy access counts with last-use hints enabled.
    pub on: AccessCounts,
    /// Normalized energy with the default allocator.
    pub energy_off: f64,
    /// Normalized energy with last-use hints enabled.
    pub energy_on: f64,
}

impl HintsRow {
    /// MRF accesses (reads + writes) with hints off.
    pub fn mrf_off(&self) -> u64 {
        self.off.mrf_read + self.off.mrf_write
    }

    /// MRF accesses (reads + writes) with hints on.
    pub fn mrf_on(&self) -> u64 {
        self.on.mrf_read + self.on.mrf_write
    }
}

/// Counts every workload under the paper's best configuration twice —
/// default allocation and hint-guided allocation. Workloads fan out over
/// the `RFH_JOBS` pool.
///
/// # Panics
///
/// Panics if a baseline run fails to verify, or if either allocation
/// fails or is rejected by the tag model; the hinted pipeline is held to
/// the same bar as the default one.
pub fn run(ctx: &ExperimentCtx) -> Vec<HintsRow> {
    let cfg = AllocConfig::three_level(3, true);
    let model = ctx.model();
    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    par_map(&idx, |&i| {
        let w = &ctx.workloads()[i];
        let base = ctx.baseline(i);
        let off = ctx.sw_counts(i, &cfg);
        let mut kernel = w.kernel.clone();
        rfh_alloc::allocate_with_hints(&mut kernel, &cfg, model, true)
            .unwrap_or_else(|e| panic!("{}: allocation failed: {e}", w.name));
        let mut on = AccessCounts::default();
        ctx.replay(
            i,
            &kernel,
            ExecMode::Hierarchy(cfg),
            SwCounter::default,
            |c, warps| on += c.counts() * warps,
        );
        HintsRow {
            name: w.name.clone(),
            energy_off: normalized_energy(&off, &base, model, cfg.orf_entries),
            energy_on: normalized_energy(&on, &base, model, cfg.orf_entries),
            off,
            on,
        }
    })
}

/// Renders the comparison, one row per workload plus a mean row.
pub fn print(rows: &[HintsRow]) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "MRF accesses off",
        "MRF accesses on",
        "MRF delta",
        "energy off",
        "energy on",
        "energy delta",
    ]);
    for r in rows {
        let (m_off, m_on) = (r.mrf_off(), r.mrf_on());
        t.row(&[
            r.name.clone(),
            m_off.to_string(),
            m_on.to_string(),
            format!("{:+}", m_on as i64 - m_off as i64),
            norm(r.energy_off),
            norm(r.energy_on),
            format!("{:+.2}%", (r.energy_on - r.energy_off) * 100.0),
        ]);
    }
    let mean_off = crate::runner::mean(&rows.iter().map(|r| r.energy_off).collect::<Vec<_>>());
    let mean_on = crate::runner::mean(&rows.iter().map(|r| r.energy_on).collect::<Vec<_>>());
    format!(
        "Last-use hints — hierarchy accesses and energy, `--hints` off vs on\n{}\
         mean normalized energy: {:.4} off, {:.4} on ({:+.2}%)\n",
        t.render(),
        mean_off,
        mean_on,
        (mean_on - mean_off) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_never_hurt_and_help_somewhere() {
        let ws = rfh_workloads::all();
        let rows = run(&ExperimentCtx::new(&ws));
        assert!(rows.len() >= 15);
        for r in &rows {
            assert!(
                r.mrf_on() <= r.mrf_off(),
                "{}: hints must never add MRF accesses ({} -> {})",
                r.name,
                r.mrf_off(),
                r.mrf_on()
            );
            assert!(
                r.energy_on <= r.energy_off + 1e-12,
                "{}: hints must never cost energy ({} -> {})",
                r.name,
                r.energy_off,
                r.energy_on
            );
        }
        assert!(
            rows.iter().any(|r| r.mrf_on() < r.mrf_off()),
            "at least one workload should shed MRF accesses under hints"
        );
    }
}
