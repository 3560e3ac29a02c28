//! Access counting for software-managed hierarchies.

use rfh_energy::AccessCounts;
use rfh_isa::{AccessPlan, Kernel};

use crate::exec::{ExecError, Stream};
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

    /// r0 live-in, read 4 times in the second strand.
    const FILL: &str = "
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

    #[test]
    fn fill_counts_read_and_write() {
        let c = count(FILL, Some(AllocConfig::two_level(3)));
        let base = count(FILL, None);
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

    /// Per-lane trip counts (lane % 4 + 1) with 64-bit loads live across
    /// the loop: divergent warps, read-operand fills and two-word writes.
    const WIDE_LOOP: &str = "
.kernel wl
BB0:
  mov r0, %tid.x
  and r7 r0, 3
  mov r1, 0
  mov r6, 0
  ld.shared r4.w64 r0
BB1:
  iadd r1 r1, 1
  ld.shared r2.w64 r1
  iadd r6 r6, r2
  iadd r6 r6, r3
  iadd r6 r6, r4
  iadd r6 r6, r5
  iadd r6 r6, r0
  setp.le p0 r1, r7
  @p0 bra BB1
BB2:
  st.global r0, r6
  exit
";

    /// The recorded baseline stream of `kernel` over two CTAs of 64 threads.
    fn record(kernel: &rfh_isa::Kernel) -> Stream {
        let mut rec = crate::exec::StreamRecorder::new(kernel);
        execute(
            kernel,
            &Launch::new(2, 64),
            &mut GlobalMemory::new(4096),
            ExecMode::Baseline,
            &mut [&mut rec],
        )
        .unwrap();
        rec.finish()
    }

    #[test]
    fn priced_strands_equal_an_executed_strand_counter() {
        let model = EnergyModel::paper();
        let (mut wide_upper, mut fills) = (0, 0);
        for text in [CHAIN, FILL, WIDE_LOOP] {
            let base = rfh_isa::parse_kernel(text).unwrap();
            let stream = record(&base);
            let issues = stream.issue_counts();
            assert_eq!(issues.iter().sum::<u64>(), stream.warp_instructions());
            for cfg in [
                None,
                Some(AllocConfig::two_level(1)),
                Some(AllocConfig::two_level(3)),
                Some(AllocConfig::three_level(2, true)),
                Some(AllocConfig::three_level(3, false)),
            ] {
                let mut kernel = base.clone();
                let mode = match cfg {
                    Some(cfg) => {
                        rfh_alloc::allocate(&mut kernel, &cfg, &model).unwrap();
                        ExecMode::Hierarchy(cfg)
                    }
                    None => ExecMode::Baseline,
                };
                wide_upper += kernel
                    .iter_instrs()
                    .filter(|(_, i)| {
                        i.dst.is_some_and(|d| d.width == rfh_isa::Width::W64)
                            && i.write_loc.upper_level().is_some()
                    })
                    .count();
                fills += kernel
                    .iter_instrs()
                    .flat_map(|(_, i)| &i.read_locs)
                    .filter(|l| matches!(l, rfh_isa::ReadLoc::MrfFillOrf(_)))
                    .count();
                let mut executed = StrandCounter::new(&kernel);
                execute(
                    &kernel,
                    &Launch::new(2, 64),
                    &mut GlobalMemory::new(4096),
                    mode,
                    &mut [&mut executed],
                )
                .unwrap();
                let priced = price_strands(&kernel, &stream, &issues).unwrap();
                assert_eq!(priced, executed.per_strand(), "{cfg:?}");
            }
        }
        assert!(wide_upper > 0, "some 64-bit value is written above the MRF");
        assert!(fills > 0, "some read operand fills the ORF");
    }

    #[test]
    fn pricing_refuses_another_shape_or_issue_vector() {
        let kernel = rfh_isa::parse_kernel(WIDE_LOOP).unwrap();
        let stream = record(&kernel);
        let issues = stream.issue_counts();
        let chain = rfh_isa::parse_kernel(CHAIN).unwrap();
        let err = price_strands(&chain, &stream, &issues).unwrap_err();
        assert!(
            matches!(&err, ExecError::Unsupported { what, .. } if what.contains("differs")),
            "{err}"
        );
        let err = price_strands(&kernel, &stream, &issues[1..]).unwrap_err();
        assert!(
            matches!(&err, ExecError::Unsupported { what, .. } if what.contains("issue counts")),
            "{err}"
        );
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

/// Per-strand SW access counts of `kernel` (indexed by strand, as
/// [`StrandCounter::per_strand`]), *priced* from the issue counts of a
/// recorded baseline run instead of replayed from it.
///
/// Both counters fold one access plan per warp instruction whatever its
/// masks, and allocation never moves an instruction, so a kernel's counts
/// are a sum over its static instructions: each one's resolved
/// [`AccessPlan`], times how often it issued. `issues` is
/// `stream.issue_counts()`, which callers pricing many kernels compute
/// once. The result equals a [`StrandCounter`]
/// [`replay`](crate::exec::replay) of `stream` against `kernel` whenever
/// that replay accepts the kernel's placements; pricing checks none, so
/// callers price only placements the allocator validated.
///
/// # Errors
///
/// [`ExecError::Unsupported`] for a kernel whose shape differs from the
/// recorded one (as [`replay`](crate::exec::replay) refuses it), or for
/// issue counts of another length.
pub fn price_strands(
    kernel: &Kernel,
    stream: &Stream,
    issues: &[u64],
) -> Result<Vec<AccessCounts>, ExecError> {
    stream.check_shape(kernel)?;
    let instrs = kernel.blocks.iter().map(|b| b.instrs.len()).sum::<usize>();
    if issues.len() != instrs {
        return Err(ExecError::Unsupported {
            what: format!(
                "{} issue counts for a kernel of {instrs} instructions",
                issues.len()
            ),
            at: rfh_isa::InstrRef {
                block: rfh_isa::BlockId::new(0),
                index: 0,
            },
        });
    }
    let map = rfh_analysis::strand::segment_ids(kernel);
    let mut per_strand =
        vec![AccessCounts::default(); rfh_analysis::strand::segment_count(kernel).max(1)];
    let mut plan = AccessPlan::new();
    let strand_of = kernel
        .blocks
        .iter()
        .zip(&map)
        .flat_map(|(b, ids)| b.instrs.iter().zip(ids));
    for ((instr, &sid), &n) in strand_of.zip(issues) {
        if n == 0 {
            continue;
        }
        plan.resolve_into(instr);
        let mut once = AccessCounts::default();
        once.record_plan(&plan);
        per_strand[sid as usize] += once * n;
    }
    Ok(per_strand)
}
