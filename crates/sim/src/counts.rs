//! Access counting for software-managed hierarchies.

use rfh_energy::AccessCounts;

use crate::sink::{InstrEvent, TraceSink};

/// Tallies register file hierarchy accesses of an annotated kernel.
///
/// Every executed instruction arrives with its resolved
/// [`AccessPlan`](rfh_isa::AccessPlan) —
/// reads at the level each `ReadLoc` names, the ORF deposit of
/// read-operand fills (§4.4), and per-word destination writes (64-bit
/// values cost two accesses at each level written) — and is folded into
/// [`AccessCounts`], which splits ORF traffic by datapath for wire
/// energy.
#[derive(Debug, Default, Clone)]
pub struct SwCounter {
    counts: AccessCounts,
}

impl SwCounter {
    /// The accumulated counts.
    pub fn counts(&self) -> AccessCounts {
        self.counts
    }
}

impl TraceSink for SwCounter {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        self.counts.record_plan(event.plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecMode, Launch};
    use crate::mem::GlobalMemory;
    use rfh_alloc::AllocConfig;
    use rfh_energy::EnergyModel;

    fn count(text: &str, config: Option<AllocConfig>) -> AccessCounts {
        let mut kernel = rfh_isa::parse_kernel(text).unwrap();
        let mode = match config {
            Some(cfg) => {
                rfh_alloc::allocate(&mut kernel, &cfg, &EnergyModel::paper()).unwrap();
                ExecMode::Hierarchy(cfg)
            }
            None => ExecMode::Baseline,
        };
        let mut mem = GlobalMemory::new(4096);
        let mut counter = SwCounter::default();
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            mode,
            &mut [&mut counter],
        )
        .unwrap();
        counter.counts()
    }

    const CHAIN: &str = "
.kernel chain
BB0:
  mov r0, %tid.x
  iadd r1 r0, 1
  iadd r2 r1, 1
  st.global r0, r2
  exit
";

    #[test]
    fn baseline_counts_every_operand() {
        let c = count(CHAIN, None);
        // Reads: iadd(r0), iadd(r1), st(r0, r2) = 4 per warp.
        assert_eq!(c.mrf_read, 4);
        // Writes: mov, iadd, iadd = 3.
        assert_eq!(c.mrf_write, 3);
        assert_eq!(c.total_reads(), 4);
        assert_eq!(c.orf_read_private + c.lrf_read, 0);
    }

    #[test]
    fn allocated_kernel_moves_traffic_up() {
        let c = count(CHAIN, Some(AllocConfig::two_level(3)));
        assert!(c.orf_read_private + c.orf_read_shared > 0);
        assert!(c.mrf_read < 4);
        // Total read traffic is conserved (no writeback reads in SW).
        assert_eq!(c.total_reads(), 4);
        // Dying values never touch the MRF.
        assert!(c.mrf_write < 3);
    }

    #[test]
    fn shared_consumer_reads_counted_separately() {
        let c = count(
            "
.kernel sh
BB0:
  mov r0, %tid.x
  iadd r1 r0, 64
  ld.shared r2 r1
  st.global r0, r2
  exit
",
            Some(AllocConfig::two_level(3)),
        );
        assert!(
            c.orf_read_shared > 0,
            "the load consumes r1 on the shared datapath"
        );
    }

    #[test]
    fn fill_counts_read_and_write() {
        // r0 live-in, read 4 times in the second strand.
        let text = "
.kernel f
BB0:
  mov r0, %tid.x
  ld.global r9 r0
  iadd r1 r9, r0
  iadd r2 r1, r0
  iadd r3 r2, r0
  iadd r4 r3, r0
  st.global r0, r4
  exit
";
        let c = count(text, Some(AllocConfig::two_level(3)));
        let base = count(text, None);
        assert!(c.orf_read_private >= 3, "later reads of r0 served by ORF");
        // The fill shows up as one extra ORF write relative to the pure
        // write-allocation traffic, while total reads are conserved.
        assert_eq!(c.total_reads(), base.total_reads());
    }

    #[test]
    fn wide_writes_cost_two_accesses() {
        let c = count(
            "
.kernel w
BB0:
  mov r0, %tid.x
  ld.shared r4.w64 r0
  iadd r6 r4, r5
  st.global r0, r6
  exit
",
            None,
        );
        // mov(1) + wide ld(2) + iadd(1) = 4 write accesses.
        assert_eq!(c.mrf_write, 4);
    }
}

/// Per-strand access counting: like [`SwCounter`] but attributing every
/// access to the strand of its instruction (for the §7 variable-ORF
/// oracle, which sizes each strand's ORF independently).
#[derive(Debug, Clone)]
pub struct StrandCounter {
    map: Vec<Vec<u32>>,
    counts: Vec<AccessCounts>,
}

impl StrandCounter {
    /// Builds a counter from a kernel whose `ends_strand` bits are set.
    pub fn new(kernel: &rfh_isa::Kernel) -> Self {
        let map = rfh_analysis::strand::segment_ids(kernel);
        let strands = rfh_analysis::strand::segment_count(kernel).max(1);
        StrandCounter {
            map,
            counts: vec![AccessCounts::default(); strands],
        }
    }

    /// The strand of the instruction at `at`.
    pub fn strand_of(&self, at: rfh_isa::InstrRef) -> usize {
        self.map[at.block.index()][at.index] as usize
    }

    /// Per-strand counts, indexed by strand.
    pub fn per_strand(&self) -> &[AccessCounts] {
        &self.counts
    }

    /// Sum over all strands. Both counters fold every executed access plan
    /// exactly once, so this equals what a [`SwCounter`] observing the same
    /// run reports.
    pub fn total(&self) -> AccessCounts {
        self.counts
            .iter()
            .fold(AccessCounts::default(), |a, b| a + *b)
    }
}

impl TraceSink for StrandCounter {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        let sid = self.map[event.at.block.index()][event.at.index] as usize;
        self.counts[sid].record_plan(event.plan);
    }
}
