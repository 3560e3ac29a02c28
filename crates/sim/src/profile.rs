//! Per-strand energy attribution.
//!
//! [`SwCounter`](crate::counts::SwCounter) answers *how much* hierarchy
//! traffic a kernel generates; this profiler answers *where it comes
//! from*: every resolved access is attributed to the strand of its
//! instruction and priced through the [`EnergyModel`], yielding a
//! deterministic table of per-strand access counts, energy, and share of
//! the kernel total. Strands are the paper's allocation unit (§4.2), so
//! this is the natural granularity for asking "which piece of the kernel
//! pays for the MRF".

use rfh_energy::{AccessCounts, EnergyBreakdown, EnergyModel};
use rfh_isa::{BlockId, InstrRef, Kernel};

use crate::counts::StrandCounter;
use crate::sink::{InstrEvent, TraceSink};

/// A [`TraceSink`] that buckets every register-file access by the strand
/// of its instruction (a [`StrandCounter`]) and prices the buckets
/// through an [`EnergyModel`].
#[derive(Debug, Clone)]
pub struct EnergyProfiler {
    counter: StrandCounter,
    /// Warp instructions executed per strand.
    instrs: Vec<u64>,
    /// Each strand's first instruction, its label in reports.
    starts: Vec<InstrRef>,
    model: EnergyModel,
    orf_entries: usize,
}

impl EnergyProfiler {
    /// Builds a profiler for a kernel whose `ends_strand` bits are set
    /// (an unallocated kernel is one big strand). `orf_entries` sizes the
    /// ORF for pricing; like every pricing call, it must be a row of the
    /// model's ORF table.
    pub fn new(kernel: &Kernel, model: EnergyModel, orf_entries: usize) -> Self {
        let counter = StrandCounter::new(kernel);
        let n = counter.per_strand().len();
        let mut starts: Vec<Option<InstrRef>> = vec![None; n];
        for (at, _) in kernel.iter_instrs() {
            starts[counter.strand_of(at)].get_or_insert(at);
        }
        let first = InstrRef {
            block: BlockId::new(0),
            index: 0,
        };
        EnergyProfiler {
            counter,
            instrs: vec![0; n],
            starts: starts.into_iter().map(|s| s.unwrap_or(first)).collect(),
            model,
            orf_entries,
        }
    }

    /// The per-strand access counts, indexed by strand id.
    pub fn per_strand(&self) -> &[AccessCounts] {
        self.counter.per_strand()
    }

    /// The priced energy of one strand's traffic.
    pub fn energy_of(&self, strand: usize) -> EnergyBreakdown {
        self.model
            .energy(&self.per_strand()[strand], self.orf_entries)
    }

    /// Sum of all strands (equals a [`crate::counts::SwCounter`] over the
    /// same run).
    pub fn total_counts(&self) -> AccessCounts {
        self.counter.total()
    }

    /// The priced energy of the whole run.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.model.energy(&self.total_counts(), self.orf_entries)
    }

    /// Renders the deterministic attribution table: one row per strand
    /// (in strand order), then a totals row. Columns are tab-separated so
    /// the output diffs cleanly as a golden artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# per-strand energy attribution (orf_entries={})\n",
            self.orf_entries
        ));
        out.push_str(
            "strand\tstart\tinstrs\tmrf.r\tmrf.w\torf.r\torf.w\tlrf.r\tlrf.w\tenergy_pj\tshare\n",
        );
        let total = self.total_energy().total();
        for (sid, c) in self.per_strand().iter().enumerate() {
            let e = self.energy_of(sid).total();
            let share = if total > 0.0 { e / total } else { 0.0 };
            out.push_str(&format!(
                "{sid}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{e:.3}\t{share:.4}\n",
                self.starts[sid],
                self.instrs[sid],
                c.mrf_read,
                c.mrf_write,
                c.orf_read_private + c.orf_read_shared,
                c.orf_write_private + c.orf_write_shared,
                c.lrf_read,
                c.lrf_write,
            ));
        }
        let c = self.total_counts();
        out.push_str(&format!(
            "total\t-\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{total:.3}\t1.0000\n",
            self.instrs.iter().sum::<u64>(),
            c.mrf_read,
            c.mrf_write,
            c.orf_read_private + c.orf_read_shared,
            c.orf_write_private + c.orf_write_shared,
            c.lrf_read,
            c.lrf_write,
        ));
        out
    }
}

impl TraceSink for EnergyProfiler {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        self.instrs[self.counter.strand_of(event.at)] += 1;
        self.counter.on_instr(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::SwCounter;
    use crate::exec::{execute, ExecMode, Launch};
    use crate::mem::GlobalMemory;
    use rfh_alloc::AllocConfig;

    const KERNEL: &str = "
.kernel p
BB0:
  mov r0, %tid.x
  ld.global r9 r0
  iadd r1 r9, r0
  iadd r2 r1, r0
  iadd r3 r2, r0
  st.global r0, r3
  exit
";

    fn run(cfg: Option<AllocConfig>) -> (EnergyProfiler, SwCounter) {
        let mut kernel = rfh_isa::parse_kernel(KERNEL).unwrap();
        let (mode, entries) = match cfg {
            Some(cfg) => {
                rfh_alloc::allocate(&mut kernel, &cfg, &EnergyModel::paper()).unwrap();
                let entries = cfg.orf_entries;
                (ExecMode::Hierarchy(cfg), entries)
            }
            None => (ExecMode::Baseline, 1),
        };
        let mut prof = EnergyProfiler::new(&kernel, EnergyModel::paper(), entries);
        let mut sw = SwCounter::default();
        let mut mem = GlobalMemory::new(4096);
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            mode,
            &mut [&mut prof, &mut sw],
        )
        .unwrap();
        (prof, sw)
    }

    #[test]
    fn strand_totals_match_flat_counter() {
        let (prof, sw) = run(Some(AllocConfig::two_level(3)));
        assert_eq!(prof.total_counts(), sw.counts());
        assert!(prof.per_strand().len() > 1, "allocation split strands");
    }

    #[test]
    fn shares_sum_to_one() {
        let (prof, _) = run(Some(AllocConfig::two_level(3)));
        let total = prof.total_energy().total();
        let sum: f64 = (0..prof.per_strand().len())
            .map(|s| prof.energy_of(s).total())
            .sum();
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn render_is_stable_and_labeled() {
        let (prof, _) = run(None);
        let a = prof.render();
        let b = prof.render();
        assert_eq!(a, b);
        assert!(a.starts_with("# per-strand energy attribution"));
        assert!(a.contains("BB0[0]"));
        assert!(a.trim_end().ends_with("1.0000"));
    }

    #[test]
    #[should_panic(expected = "ORF size out of range")]
    fn zero_orf_config_is_rejected_not_clamped() {
        // Regression: this used to clamp 0 up to 1 and silently price the
        // run with the wrong Table 3 row.
        let kernel = rfh_isa::parse_kernel(KERNEL).unwrap();
        let prof = EnergyProfiler::new(&kernel, EnergyModel::paper(), 0);
        let _ = prof.total_energy();
    }
}
