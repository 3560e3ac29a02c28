//! Figure 11: reads and writes of the two-level hierarchy, normalized to
//! the single-level baseline, for 1–8 upper-level entries per thread.
//!
//! Compares the hardware register file cache (HW RFC/MRF) against the
//! software ORF (SW ORF/MRF). Paper §6.1 headlines:
//!
//! * the RFC performs ~20% more reads than baseline traffic at the upper
//!   level (writeback reads);
//! * the SW scheme reduces ORF writes by ~20% relative to the RFC
//!   (no dead-value writes);
//! * SW reduces MRF reads relative to HW for realistic sizes.

use rfh_alloc::AllocConfig;
use rfh_energy::AccessCounts;
use rfh_sim::rfc::RfcConfig;

use crate::ctx::ExperimentCtx;
use crate::report::{pct, Table};
use crate::runner::mean;

/// Read/write fractions (of baseline totals) at each level for one scheme
/// and size.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Entries per thread (1–8).
    pub entries: usize,
    /// Upper-level (RFC/ORF) reads over baseline reads.
    pub upper_reads: f64,
    /// MRF reads over baseline reads.
    pub mrf_reads: f64,
    /// Upper-level writes over baseline writes.
    pub upper_writes: f64,
    /// MRF writes over baseline writes.
    pub mrf_writes: f64,
}

impl Breakdown {
    /// Total read traffic relative to baseline (1.0 = no overhead).
    pub fn total_reads(&self) -> f64 {
        self.upper_reads + self.mrf_reads
    }
}

/// The full figure: HW and SW sweeps.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Hardware RFC results per entry count.
    pub hw: Vec<Breakdown>,
    /// Software ORF results per entry count.
    pub sw: Vec<Breakdown>,
}

fn fold(per_bench: &[(AccessCounts, AccessCounts)], entries: usize) -> Breakdown {
    let upper_reads: Vec<f64> = per_bench
        .iter()
        .map(|(c, b)| {
            (c.orf_read_private + c.orf_read_shared + c.lrf_read) as f64
                / b.total_reads().max(1) as f64
        })
        .collect();
    let mrf_reads: Vec<f64> = per_bench
        .iter()
        .map(|(c, b)| c.mrf_read as f64 / b.total_reads().max(1) as f64)
        .collect();
    let upper_writes: Vec<f64> = per_bench
        .iter()
        .map(|(c, b)| {
            (c.orf_write_private + c.orf_write_shared + c.lrf_write) as f64
                / b.total_writes().max(1) as f64
        })
        .collect();
    let mrf_writes: Vec<f64> = per_bench
        .iter()
        .map(|(c, b)| c.mrf_write as f64 / b.total_writes().max(1) as f64)
        .collect();
    Breakdown {
        entries,
        upper_reads: mean(&upper_reads),
        mrf_reads: mean(&mrf_reads),
        upper_writes: mean(&upper_writes),
        mrf_writes: mean(&mrf_writes),
    }
}

/// Runs the sweep over the context's workloads (use
/// `ExperimentCtx::new(&rfh_workloads::all())` to reproduce the figure).
/// Each workload's eight HW sizes are counted by one batched replay of
/// its recorded baseline run; the (entries × workload) SW cells run in
/// parallel over the `RFH_JOBS` pool. The fold order is fixed, so output
/// is identical at any job count.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> Fig11 {
    let [hw, sw] = ctx
        .entry_sweep(RfcConfig::two_level, AllocConfig::two_level)
        .map(|panel| panel.iter().zip(1..).map(|(p, e)| fold(p, e)).collect());
    Fig11 { hw, sw }
}

/// Renders both panels.
pub fn print(f: &Fig11) -> String {
    let mut t = Table::new(&[
        "entries",
        "HW RFC rd",
        "HW MRF rd",
        "SW ORF rd",
        "SW MRF rd",
        "HW RFC wr",
        "HW MRF wr",
        "SW ORF wr",
        "SW MRF wr",
    ]);
    for (h, s) in f.hw.iter().zip(&f.sw) {
        t.row(&[
            h.entries.to_string(),
            pct(h.upper_reads),
            pct(h.mrf_reads),
            pct(s.upper_reads),
            pct(s.mrf_reads),
            pct(h.upper_writes),
            pct(h.mrf_writes),
            pct(s.upper_writes),
            pct(s.mrf_writes),
        ]);
    }
    format!(
        "Figure 11 — two-level reads/writes (normalized to baseline)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset() -> Vec<rfh_workloads::Workload> {
        ["vectoradd", "scalarprod", "mandelbrot", "needle"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn hw_has_overhead_reads_and_sw_does_not() {
        let ws = subset();
        let f = run(&ExperimentCtx::new(&ws));
        assert_eq!(f.hw.len(), 8);
        for (h, s) in f.hw.iter().zip(&f.sw) {
            // SW read traffic is conserved exactly.
            assert!(
                (s.total_reads() - 1.0).abs() < 1e-9,
                "SW total reads = {}",
                s.total_reads()
            );
            // HW adds writeback reads at realistic sizes.
            if h.entries >= 2 {
                assert!(h.total_reads() >= 1.0);
            }
        }
        // At the paper's sizes the SW scheme writes the upper level less
        // than the HW scheme (which caches every produced value) — §6.1
        // quotes ~20% fewer ORF writes.
        let h3 = &f.hw[2];
        let s3 = &f.sw[2];
        assert!(s3.upper_writes < h3.upper_writes);
        // The HW scheme's extra reads are pure writeback overhead; its MRF
        // reads can undercut SW on loop-heavy kernels (the RFC persists
        // through ALU loops where the ORF cannot), but its *total* read
        // energy traffic is strictly larger.
        assert!(
            h3.total_reads() > s3.total_reads(),
            "HW {} vs SW {}",
            h3.total_reads(),
            s3.total_reads()
        );
    }

    #[test]
    fn more_entries_capture_more_reads() {
        let ws = subset();
        let f = run(&ExperimentCtx::new(&ws));
        assert!(f.sw[7].upper_reads >= f.sw[0].upper_reads);
        assert!(f.hw[7].mrf_reads <= f.hw[0].mrf_reads + 1e-9);
    }
}
