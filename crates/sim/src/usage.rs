//! Dynamic register value usage statistics (paper Figure 2 and §3.2).
//!
//! Tracks, over a full execution, how many times each produced value is
//! read before being overwritten, and the lifetime (in warp instructions)
//! of values read exactly once. These distributions are the empirical
//! foundation of the whole design: up to 70% of values are read once, and
//! 50% of all values are read once within three instructions of being
//! produced.

use std::ops::AddAssign;

use crate::sink::{InstrEvent, TraceSink};

/// Read-count histogram (Figure 2a buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadHistogram {
    /// Values never read before being overwritten (or at warp end).
    pub read0: u64,
    /// Values read exactly once.
    pub read1: u64,
    /// Values read exactly twice.
    pub read2: u64,
    /// Values read three or more times.
    pub read_more: u64,
}

impl AddAssign for ReadHistogram {
    fn add_assign(&mut self, other: Self) {
        self.read0 += other.read0;
        self.read1 += other.read1;
        self.read2 += other.read2;
        self.read_more += other.read_more;
    }
}

impl ReadHistogram {
    /// Total values produced.
    pub fn total(&self) -> u64 {
        self.read0 + self.read1 + self.read2 + self.read_more
    }
}

/// Lifetime histogram of read-once values (Figure 2b buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifetimeHistogram {
    /// Consumed by the next instruction.
    pub life1: u64,
    /// Consumed two instructions after production.
    pub life2: u64,
    /// Consumed three instructions after production.
    pub life3: u64,
    /// Consumed later than that.
    pub life_more: u64,
}

impl AddAssign for LifetimeHistogram {
    fn add_assign(&mut self, other: Self) {
        self.life1 += other.life1;
        self.life2 += other.life2;
        self.life3 += other.life3;
        self.life_more += other.life_more;
    }
}

impl LifetimeHistogram {
    /// Total read-once values.
    pub fn total(&self) -> u64 {
        self.life1 + self.life2 + self.life3 + self.life_more
    }
}

#[derive(Debug, Clone, Copy)]
struct ValueTrack {
    def_step: u64,
    reads: u64,
    last_read_step: u64,
    any_shared_read: bool,
    produced_on_shared: bool,
}

#[derive(Debug, Default)]
struct WarpTrack {
    step: u64,
    /// The live value of each register word, indexed by register number.
    values: Vec<Option<ValueTrack>>,
}

/// Collects Figure 2 statistics from the instruction trace.
#[derive(Debug, Default)]
pub struct UsageStats {
    /// Per-warp tracking state, indexed by the executor's dense global
    /// warp id; an entry is reset when its warp finishes.
    warps: Vec<WarpTrack>,
    /// Read-count distribution over all produced values.
    pub reads: ReadHistogram,
    /// Lifetime distribution over read-once values.
    pub lifetimes: LifetimeHistogram,
    /// Values with at least one shared-datapath consumer (§3.2: ~7%).
    pub shared_consumed: u64,
    /// Of those, values produced on the private datapath (§3.2: ~70%).
    pub shared_consumed_private_produced: u64,
}

impl UsageStats {
    fn finalize(&mut self, v: ValueTrack) {
        match v.reads {
            0 => self.reads.read0 += 1,
            1 => {
                self.reads.read1 += 1;
                match v.last_read_step - v.def_step {
                    0 | 1 => self.lifetimes.life1 += 1,
                    2 => self.lifetimes.life2 += 1,
                    3 => self.lifetimes.life3 += 1,
                    _ => self.lifetimes.life_more += 1,
                }
            }
            2 => self.reads.read2 += 1,
            _ => self.reads.read_more += 1,
        }
        if v.any_shared_read {
            self.shared_consumed += 1;
            if !v.produced_on_shared {
                self.shared_consumed_private_produced += 1;
            }
        }
    }
}

impl TraceSink for UsageStats {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        if event.warp >= self.warps.len() {
            self.warps.resize_with(event.warp + 1, WarpTrack::default);
        }
        let mut track = std::mem::take(&mut self.warps[event.warp]);
        track.step += 1;
        let step = track.step;
        let shared = event.instr.op.unit().is_shared();
        let plan = event.plan;

        for a in plan.reads() {
            if let Some(Some(v)) = track.values.get_mut(usize::from(a.reg.index())) {
                v.reads += 1;
                v.last_read_step = step;
                v.any_shared_read |= shared;
            }
        }

        // A 64-bit value is one value occupying two registers; both written
        // words get the same track and overwrite-finalize independently.
        for r in plan.written_words() {
            let r = usize::from(r.index());
            if let Some(old) = track.values.get_mut(r).and_then(Option::take) {
                self.finalize(old);
            }
        }
        for r in plan.written_words() {
            let r = usize::from(r.index());
            if r >= track.values.len() {
                track.values.resize(r + 1, None);
            }
            track.values[r] = Some(ValueTrack {
                def_step: step,
                reads: 0,
                last_read_step: step,
                any_shared_read: false,
                produced_on_shared: shared,
            });
        }
        self.warps[event.warp] = track;
    }

    fn on_warp_done(&mut self, warp: usize) {
        if let Some(track) = self.warps.get_mut(warp).map(std::mem::take) {
            for v in track.values.into_iter().flatten() {
                self.finalize(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecMode, Launch};
    use crate::mem::GlobalMemory;

    fn stats(text: &str) -> UsageStats {
        let kernel = rfh_isa::parse_kernel(text).unwrap();
        let mut mem = GlobalMemory::new(4096);
        let mut s = UsageStats::default();
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut s],
        )
        .unwrap();
        s
    }

    #[test]
    fn read_counts_bucketized() {
        let s = stats(
            "
.kernel rc
BB0:
  mov r0, 1
  mov r1, 2
  iadd r2 r1, r1
  iadd r3 r2, r1
  st.global r0, r3
  exit
",
        );
        // r0 read once (store addr), r1 read three times, r2 read once,
        // r3 read once.
        assert_eq!(s.reads.read1, 3);
        assert_eq!(s.reads.read_more, 1);
        assert_eq!(s.reads.read0, 0);
        assert_eq!(s.reads.total(), 4);
    }

    #[test]
    fn dead_value_counts_as_read0() {
        let s = stats(".kernel d\nBB0:\n  mov r0, 1\n  mov r1, 2\n  st.global r1, r1\n  exit\n");
        assert_eq!(s.reads.read0, 1, "r0 is never read");
    }

    #[test]
    fn lifetime_of_next_instruction_consumer() {
        let s = stats(
            "
.kernel lt
BB0:
  mov r0, 5
  iadd r1 r0, 1
  mov r2, 0
  mov r3, 0
  iadd r4 r1, 1
  st.global r2, r4
  exit
",
        );
        // r0 and r4 are consumed by the very next instruction → life1;
        // r1 and r2 are consumed three instructions after production.
        assert_eq!(s.lifetimes.life1, 2);
        assert_eq!(s.lifetimes.life3, 2);
    }

    #[test]
    fn overwrite_finalizes_value() {
        let s = stats(
            "
.kernel ow
BB0:
  mov r0, 1
  mov r0, 2
  st.global r0, r0
  exit
",
        );
        // First r0: read 0 times (overwritten); second: read twice.
        assert_eq!(s.reads.read0, 1);
        assert_eq!(s.reads.read2, 1);
    }

    #[test]
    fn shared_consumption_tracked() {
        let s = stats(
            "
.kernel sc
BB0:
  mov r0, %tid.x
  iadd r1 r0, 32
  ld.shared r2 r1
  st.global r0, r2
  exit
",
        );
        // r1 (private-produced) is consumed by the load; r0 by the store;
        // r2 (shared-produced) by the store.
        assert_eq!(s.shared_consumed, 3);
        assert_eq!(s.shared_consumed_private_produced, 2);
    }

    #[test]
    fn per_warp_independence() {
        let kernel =
            rfh_isa::parse_kernel(".kernel w\nBB0:\n  mov r0, 1\n  st.global r0, r0\n  exit\n")
                .unwrap();
        let mut mem = GlobalMemory::new(64);
        let mut s = UsageStats::default();
        execute(
            &kernel,
            &Launch::new(1, 128),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut s],
        )
        .unwrap();
        assert_eq!(s.reads.total(), 4, "one value per warp, four warps");
        assert_eq!(s.reads.read2, 4);
    }
}
