//! Figure 12: reads and writes of the three-level hierarchy (LRF + ORF/RFC
//! + MRF), normalized to the single-level baseline, for 1–8 ORF entries.
//!
//! Paper §6.2 headlines: the SW LRF captures ~30% of all reads despite its
//! single entry, and SW overhead writes drop from ~40% (HW) to under 10%.

use rfh_alloc::AllocConfig;
use rfh_energy::AccessCounts;
use rfh_sim::rfc::RfcConfig;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{pct, Table};
use crate::runner::mean;

/// Per-level read/write fractions for one scheme and size.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown3 {
    /// ORF entries per thread.
    pub entries: usize,
    /// LRF reads / baseline reads.
    pub lrf_reads: f64,
    /// ORF (or RFC) reads / baseline reads.
    pub orf_reads: f64,
    /// MRF reads / baseline reads.
    pub mrf_reads: f64,
    /// LRF writes / baseline writes.
    pub lrf_writes: f64,
    /// ORF writes / baseline writes.
    pub orf_writes: f64,
    /// MRF writes / baseline writes.
    pub mrf_writes: f64,
}

impl Breakdown3 {
    /// Total write traffic relative to baseline (values > 1 are overhead).
    pub fn total_writes(&self) -> f64 {
        self.lrf_writes + self.orf_writes + self.mrf_writes
    }
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Hardware LRF+RFC+MRF results.
    pub hw: Vec<Breakdown3>,
    /// Software LRF+ORF+MRF results (split LRF).
    pub sw: Vec<Breakdown3>,
}

fn fold(per_bench: &[(AccessCounts, AccessCounts)], entries: usize) -> Breakdown3 {
    let f = |g: &dyn Fn(&AccessCounts, &AccessCounts) -> f64| -> f64 {
        mean(&per_bench.iter().map(|(c, b)| g(c, b)).collect::<Vec<_>>())
    };
    Breakdown3 {
        entries,
        lrf_reads: f(&|c, b| c.lrf_read as f64 / b.total_reads().max(1) as f64),
        orf_reads: f(&|c, b| {
            (c.orf_read_private + c.orf_read_shared) as f64 / b.total_reads().max(1) as f64
        }),
        mrf_reads: f(&|c, b| c.mrf_read as f64 / b.total_reads().max(1) as f64),
        lrf_writes: f(&|c, b| c.lrf_write as f64 / b.total_writes().max(1) as f64),
        orf_writes: f(&|c, b| {
            (c.orf_write_private + c.orf_write_shared) as f64 / b.total_writes().max(1) as f64
        }),
        mrf_writes: f(&|c, b| c.mrf_write as f64 / b.total_writes().max(1) as f64),
    }
}

/// Runs the three-level sweep. Each workload's eight HW sizes are
/// counted by one batched replay; the (entries × workload) SW cells
/// run in parallel over the `RFH_JOBS` pool with a fixed fold order.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> Fig12 {
    let n = ctx.workloads().len();
    let idx: Vec<usize> = (0..n).collect();
    let hw_cfgs: Vec<RfcConfig> = (1..=8usize).map(RfcConfig::three_level).collect();
    let hw_counted: Vec<(Vec<AccessCounts>, AccessCounts)> = par_map(&idx, |&i| {
        (ctx.hw_counts_many(i, &hw_cfgs), ctx.baseline(i))
    });
    let cells: Vec<(usize, usize)> = (1..=8usize)
        .flat_map(|entries| (0..n).map(move |i| (entries, i)))
        .collect();
    let counted: Vec<(AccessCounts, AccessCounts, AccessCounts)> =
        par_map(&cells, |&(entries, i)| {
            let (hw, b) = &hw_counted[i];
            let sw = ctx.sw_counts(i, &AllocConfig::three_level(entries, true));
            (hw[entries - 1], sw, *b)
        });
    let mut hw = Vec::new();
    let mut sw = Vec::new();
    for (e, per_entry) in counted.chunks(n).enumerate() {
        let entries = e + 1;
        let hwc: Vec<(AccessCounts, AccessCounts)> =
            per_entry.iter().map(|(h, _, b)| (*h, *b)).collect();
        hw.push(fold(&hwc, entries));
        let swc: Vec<(AccessCounts, AccessCounts)> =
            per_entry.iter().map(|(_, s, b)| (*s, *b)).collect();
        sw.push(fold(&swc, entries));
    }
    Fig12 { hw, sw }
}

/// Renders both panels.
pub fn print(f: &Fig12) -> String {
    let mut t = Table::new(&[
        "entries", "scheme", "LRF rd", "ORF rd", "MRF rd", "LRF wr", "ORF wr", "MRF wr",
    ]);
    for (h, s) in f.hw.iter().zip(&f.sw) {
        t.row(&[
            h.entries.to_string(),
            "HW".into(),
            pct(h.lrf_reads),
            pct(h.orf_reads),
            pct(h.mrf_reads),
            pct(h.lrf_writes),
            pct(h.orf_writes),
            pct(h.mrf_writes),
        ]);
        t.row(&[
            s.entries.to_string(),
            "SW".into(),
            pct(s.lrf_reads),
            pct(s.orf_reads),
            pct(s.mrf_reads),
            pct(s.lrf_writes),
            pct(s.orf_writes),
            pct(s.mrf_writes),
        ]);
    }
    format!(
        "Figure 12 — three-level reads/writes (normalized to baseline)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset() -> Vec<rfh_workloads::Workload> {
        ["matrixmul", "backprop", "dct8x8", "sortingnetworks", "srad"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn lrf_captures_substantial_reads() {
        let ws = subset();
        let f = run(&ExperimentCtx::new(&ws));
        let s3 = &f.sw[2];
        assert!(
            s3.lrf_reads > 0.15,
            "SW LRF should capture a large read share, got {}",
            s3.lrf_reads
        );
        // SW write overhead (sum over levels minus 1) stays small compared
        // to the HW scheme's cache-everything behaviour.
        let h3 = &f.hw[2];
        assert!(s3.total_writes() < h3.total_writes());
    }

    #[test]
    fn read_totals_conserved_for_sw() {
        let ws = subset();
        let f = run(&ExperimentCtx::new(&ws));
        for s in &f.sw {
            let total = s.lrf_reads + s.orf_reads + s.mrf_reads;
            assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        }
    }
}
