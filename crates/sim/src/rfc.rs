//! The hardware register file cache baseline of prior work \[11\] (§2.2),
//! plus the hardware three-level (LRF + RFC + MRF) variant of §6.2.
//!
//! Per warp, a FIFO-replacement cache of `entries_per_thread` register
//! entries captures produced values and (optionally) read misses. Evicted
//! dirty values are written back to the MRF (one overhead RFC read plus one
//! MRF write) unless static liveness marked them dead. When the two-level
//! scheduler deschedules the warp — on a dependence on an outstanding
//! long-latency operation, or at a barrier — the live dirty contents are
//! flushed to the MRF.
//!
//! The §7 limit-study variants are flags: `flush_on_backward_branch`
//! (compare against RFC contents persisting around loops) and
//! `flush_on_deschedule: false` (the idealized never-flush experiment).

use std::collections::VecDeque;

use rfh_energy::AccessCounts;
use rfh_isa::access::{AccessSlot, Datapath};
use rfh_isa::Unit;

use crate::sink::{InstrEvent, TraceSink};

/// Configuration of the hardware-managed hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfcConfig {
    /// RFC entries per thread (the paper sweeps 1–8; prior work used 6).
    pub entries_per_thread: usize,
    /// Add the hardware last-result file in front of the RFC (§6.2).
    pub hw_lrf: bool,
    /// Also allocate RFC entries for read misses. The RFC of \[11\] as
    /// described in §2.2 allocates only produced values ("values produced
    /// by the function units are written into the RFC"), so this defaults
    /// to off; enabling it is an ablation.
    pub allocate_on_read_miss: bool,
    /// Flush live RFC contents when the warp is descheduled.
    pub flush_on_deschedule: bool,
    /// Also flush when executing a backward branch (§7 variant; prior work
    /// keeps contents and the paper reports only ~5% difference).
    pub flush_on_backward_branch: bool,
}

impl RfcConfig {
    /// The prior-work two-level RFC with `entries` per thread.
    pub fn two_level(entries: usize) -> Self {
        RfcConfig {
            entries_per_thread: entries,
            hw_lrf: false,
            allocate_on_read_miss: false,
            flush_on_deschedule: true,
            flush_on_backward_branch: false,
        }
    }

    /// The hardware three-level hierarchy (LRF + RFC + MRF) of §6.2.
    pub fn three_level(entries: usize) -> Self {
        RfcConfig {
            hw_lrf: true,
            ..RfcConfig::two_level(entries)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    reg: u16,
    dirty: bool,
    dead: bool,
}

#[derive(Debug, Default, Clone)]
struct WarpRfc {
    fifo: VecDeque<Line>,
    lrf: Option<Line>,
    /// Registers holding results of long-latency operations still "in
    /// flight" since the last deschedule point, without duplicates (a
    /// handful at most, so a list beats hashing).
    pending: Vec<u16>,
}

/// Counts hierarchy accesses under hardware caching.
#[derive(Debug, Clone)]
pub struct HwCounter {
    cfg: RfcConfig,
    counts: AccessCounts,
    /// Per-warp cache state, indexed by the executor's dense global warp
    /// id (`cta * warps_per_cta + warp_in_cta`); an entry is reset when its
    /// warp finishes.
    warps: Vec<WarpRfc>,
    /// Registers ever consumed by the shared datapath, indexed by register
    /// number. The HW LRF is not reachable from the shared units, so the
    /// compiler steers such values into the RFC instead (§6.2: "the
    /// compiler ensures that values accessed by the shared units will be
    /// available in the RFC or MRF").
    shared_regs: Vec<bool>,
    /// Number of deschedule (flush) events observed.
    pub deschedules: u64,
}

impl HwCounter {
    /// Creates a counter for the given cache configuration and kernel (the
    /// kernel is scanned for registers with shared-datapath consumers).
    pub fn new(cfg: RfcConfig, kernel: &rfh_isa::Kernel) -> Self {
        let mut shared_regs = vec![false; usize::from(kernel.num_regs())];
        for (_, i) in kernel.iter_instrs() {
            if i.op.unit().is_shared() {
                for (_, r) in i.reg_srcs() {
                    shared_regs[usize::from(r.index())] = true;
                }
            }
        }
        HwCounter {
            cfg,
            counts: AccessCounts::default(),
            warps: Vec::new(),
            shared_regs,
            deschedules: 0,
        }
    }

    /// The accumulated counts. RFC accesses appear in the ORF fields (the
    /// structures are the same size and read/write energy; the RFC's tag
    /// energy is not modeled, which favours the hardware scheme).
    pub fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn flush(counts: &mut AccessCounts, state: &mut WarpRfc) {
        if let Some(line) = state.lrf.take() {
            if line.dirty && !line.dead {
                counts.lrf_read += 1;
                counts.mrf_write += 1;
            }
        }
        for line in state.fifo.drain(..) {
            if line.dirty && !line.dead {
                counts.orf_read_private += 1;
                counts.mrf_write += 1;
            }
        }
    }

    fn evict_line(counts: &mut AccessCounts, line: Line) {
        if line.dirty && !line.dead {
            counts.orf_read_private += 1;
            counts.mrf_write += 1;
        }
    }

    /// Inserts (or refreshes) `reg` in the FIFO; returns nothing but counts
    /// the eviction writeback if one occurs.
    fn fifo_insert(
        cfg: &RfcConfig,
        counts: &mut AccessCounts,
        state: &mut WarpRfc,
        reg: u16,
        dirty: bool,
    ) {
        if let Some(line) = state.fifo.iter_mut().find(|l| l.reg == reg) {
            line.dirty |= dirty;
            line.dead = false;
            return;
        }
        if cfg.entries_per_thread == 0 {
            return;
        }
        if state.fifo.len() >= cfg.entries_per_thread {
            let victim = state.fifo.pop_front().expect("nonempty");
            Self::evict_line(counts, victim);
        }
        state.fifo.push_back(Line {
            reg,
            dirty,
            dead: false,
        });
    }
}

impl TraceSink for HwCounter {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        let instr = event.instr;
        let plan = event.plan;
        if event.warp >= self.warps.len() {
            self.warps.resize_with(event.warp + 1, WarpRfc::default);
        }
        let state = &mut self.warps[event.warp];
        let counts = &mut self.counts;

        // ---- deschedule detection (two-level scheduler) ----
        let blocks_on_pending = plan.reads().any(|a| state.pending.contains(&a.reg.index()));
        let barrier = instr.op.is_barrier();
        if blocks_on_pending || barrier {
            self.deschedules += 1;
            if self.cfg.flush_on_deschedule {
                Self::flush(counts, state);
            }
            state.pending.clear();
        }
        if self.cfg.flush_on_backward_branch
            && instr.op.is_branch()
            && instr.target.map(|t| t <= event.at.block).unwrap_or(false)
        {
            Self::flush(counts, state);
        }

        // ---- reads ----
        for a in plan.reads() {
            let AccessSlot::Src(slot) = a.slot else {
                continue;
            };
            let reg = a.reg.index();
            let dead = instr.dead_after[slot as usize];
            let consumer_shared = a.datapath == Datapath::Shared;
            let lrf_hit = self.cfg.hw_lrf
                && !consumer_shared
                && state.lrf.map(|l| l.reg == reg).unwrap_or(false);
            if lrf_hit {
                counts.lrf_read += 1;
                if dead {
                    if let Some(l) = state.lrf.as_mut() {
                        l.dead = true;
                    }
                }
                continue;
            }
            if let Some(line) = state.fifo.iter_mut().find(|l| l.reg == reg) {
                if consumer_shared {
                    counts.orf_read_shared += 1;
                } else {
                    counts.orf_read_private += 1;
                }
                if dead {
                    line.dead = true;
                }
                continue;
            }
            counts.mrf_read += 1;
            if self.cfg.allocate_on_read_miss && !dead {
                Self::fifo_insert(&self.cfg, counts, state, reg, false);
            }
        }

        // ---- writes ----
        for r in plan.written_words() {
            let reg = r.index();
            // Overwritten stale copies are dropped silently.
            state.fifo.retain(|l| l.reg != reg);
            if state.lrf.map(|l| l.reg == reg).unwrap_or(false) {
                state.lrf = None;
            }
            state.pending.retain(|&p| p != reg);

            if instr.op.is_long_latency() {
                // The result arrives after the warp was descheduled and
                // is deposited directly in the MRF.
                counts.mrf_write += 1;
                state.pending.push(reg);
            } else if self.cfg.hw_lrf
                && instr.op.unit() == Unit::Alu
                && !self
                    .shared_regs
                    .get(usize::from(reg))
                    .copied()
                    .unwrap_or(false)
            {
                counts.lrf_write += 1;
                if let Some(old) = state.lrf.replace(Line {
                    reg,
                    dirty: true,
                    dead: false,
                }) {
                    if old.dirty && !old.dead {
                        // LRF eviction moves the value into the RFC.
                        counts.lrf_read += 1;
                        counts.orf_write_private += 1;
                        Self::fifo_insert(&self.cfg, counts, state, old.reg, true);
                    }
                }
            } else {
                if instr.op.unit().is_shared() {
                    counts.orf_write_shared += 1;
                } else {
                    counts.orf_write_private += 1;
                }
                Self::fifo_insert(&self.cfg, counts, state, reg, true);
            }
        }
    }

    fn on_warp_done(&mut self, warp: usize) {
        // Values at thread exit are dead: no flush traffic.
        if let Some(state) = self.warps.get_mut(warp) {
            *state = WarpRfc::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecMode, Launch};
    use crate::mem::GlobalMemory;

    fn run(text: &str, cfg: RfcConfig) -> (AccessCounts, u64) {
        run_launch(text, cfg, &Launch::new(1, 32))
    }

    fn run_launch(text: &str, cfg: RfcConfig, launch: &Launch) -> (AccessCounts, u64) {
        let mut kernel = rfh_isa::parse_kernel(text).unwrap();
        // Liveness (dead_after) annotation, as the compiler provides in \[11\].
        let lv = rfh_analysis::Liveness::compute(&kernel);
        rfh_analysis::liveness::annotate_dead(&mut kernel, &lv);
        let mut mem = GlobalMemory::new(4096);
        let mut hw = HwCounter::new(cfg, &kernel);
        execute(
            &kernel,
            launch,
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut hw],
        )
        .unwrap();
        (hw.counts(), hw.deschedules)
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
    fn rfc_captures_producer_consumer_traffic() {
        let (c, _) = run(CHAIN, RfcConfig::two_level(6));
        // All three produced values are written to the RFC; all four reads
        // hit (r0 allocated at production by mov).
        assert_eq!(c.orf_write_private + c.orf_write_shared, 3);
        assert_eq!(c.orf_read_private + c.orf_read_shared, 4);
        assert_eq!(c.mrf_read, 0);
        // Dead values (liveness-elided) never write back.
        assert_eq!(c.mrf_write, 0);
    }

    #[test]
    fn warps_of_every_cta_keep_independent_state() {
        // Six warps over three CTAs (dense warp ids 0–5) each count exactly
        // what one warp alone counts: no state leaks between warps.
        let text = "
.kernel ds
BB0:
  mov r0, %tid.x
  iadd r1 r0, 1
  ld.global r2 r0
  iadd r3 r2, r1
  st.global r0, r3
  exit
";
        for cfg in [RfcConfig::two_level(1), RfcConfig::three_level(6)] {
            let (one, d1) = run(text, cfg);
            let (six, d6) = run_launch(text, cfg, &Launch::new(3, 64));
            assert_eq!(six, one + one + one + one + one + one);
            assert_eq!(d6, 6 * d1);
        }
    }

    #[test]
    fn eviction_writes_back_live_values() {
        // Produce 3 live values in a 1-entry RFC, then read them all:
        // evictions must write back, and the reads partially miss.
        let text = "
.kernel ev
BB0:
  mov r0, %tid.x
  iadd r1 r0, 1
  iadd r2 r0, 2
  iadd r3 r1, r2
  st.global r0, r3
  exit
";
        let (c, _) = run(text, RfcConfig::two_level(1));
        assert!(c.mrf_write > 0, "live evictions write back");
        assert!(c.mrf_read > 0, "evicted values must be re-read from MRF");
        // Writeback overhead reads: RFC read per live eviction.
        let (c6, _) = run(text, RfcConfig::two_level(6));
        assert!(c6.mrf_read < c.mrf_read);
    }

    #[test]
    fn deschedule_flushes_live_values() {
        let text = "
.kernel ds
BB0:
  mov r0, %tid.x
  iadd r1 r0, 1
  ld.global r2 r0
  iadd r3 r2, r1
  st.global r0, r3
  exit
";
        let (c, deschedules) = run(text, RfcConfig::two_level(6));
        assert_eq!(
            deschedules,
            32 / 32,
            "one deschedule per warp at the load consumer"
        );
        // r1 is live across the deschedule: flushed (RFC read + MRF write),
        // then re-read from the MRF.
        assert!(c.mrf_write >= 1);
        assert!(c.mrf_read >= 1);

        let no_flush = RfcConfig {
            flush_on_deschedule: false,
            ..RfcConfig::two_level(6)
        };
        let (c2, _) = run(text, no_flush);
        assert!(c2.mrf_read < c.mrf_read, "never-flush keeps r1 in the RFC");
    }

    #[test]
    fn long_latency_results_write_mrf_directly() {
        let text = "
.kernel ll
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r2 r1, 1
  st.global r0, r2
  exit
";
        let (c, _) = run(text, RfcConfig::two_level(6));
        // The load result goes to the MRF; its consumer reads the MRF.
        assert!(c.mrf_write >= 1);
        assert!(c.mrf_read >= 1);
    }

    #[test]
    fn hw_lrf_captures_back_to_back_values() {
        let (c2, _) = run(CHAIN, RfcConfig::two_level(6));
        let (c3, _) = run(CHAIN, RfcConfig::three_level(6));
        assert!(c3.lrf_read > 0, "back-to-back chain hits the HW LRF");
        assert!(c3.lrf_write > 0);
        assert!(
            c3.orf_read_private < c2.orf_read_private,
            "LRF hits replace RFC reads"
        );
    }

    #[test]
    fn backward_branch_flush_variant_costs_more() {
        let text = "
.kernel loop
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  iadd r2 r2, 3
  setp.lt p0 r1, 10
  @p0 bra BB1
BB2:
  st.global r0, r2
  exit
";
        let (keep, _) = run(text, RfcConfig::two_level(6));
        let flush_cfg = RfcConfig {
            flush_on_backward_branch: true,
            ..RfcConfig::two_level(6)
        };
        let (flush, _) = run(text, flush_cfg);
        assert!(
            flush.mrf_read + flush.mrf_write > keep.mrf_read + keep.mrf_write,
            "flushing at backedges forces loop-carried values through the MRF"
        );
    }

    #[test]
    fn shared_consumer_reads_use_shared_port() {
        let text = "
.kernel sc
BB0:
  mov r0, %tid.x
  iadd r1 r0, 64
  ld.shared r2 r1
  st.global r0, r2
  exit
";
        let (c, _) = run(text, RfcConfig::two_level(6));
        assert!(c.orf_read_shared > 0);
    }
}
