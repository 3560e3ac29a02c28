//! Register liveness analysis and the static-liveness annotation pass.
//!
//! The HW register file cache baseline (paper §2.2) relies on "static
//! liveness information encoded in the program binary to elide writebacks of
//! dead values"; [`annotate_dead`] computes exactly that, setting the
//! per-operand `dead_after` flags. The allocator uses block-level liveness
//! to decide whether a value instance is live out of its strand.
//!
//! Guarded (predicated) definitions do not kill a register: when the guard
//! is false the old value survives, so liveness and reaching definitions
//! treat guarded defs as weak updates.

use std::collections::HashSet;

use rfh_isa::{InstrRef, Instruction, Kernel};

use crate::bitset::RegSet;

/// A set of operand reads excluded from liveness `gen` sets, keyed by
/// `(instruction, source-operand index)`. Produced by
/// [`crate::absint::last_use`]: a *covered* read observes a guarded
/// definition earlier in the same strand (never the value flowing into the
/// block), so it is not upward-exposed and does not keep the register live
/// across the preceding program region.
pub type ExcludedReads = HashSet<(InstrRef, usize)>;

/// Block-level liveness sets for one kernel.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at each block entry, indexed by block.
    pub live_in: Vec<RegSet>,
    /// Registers live at each block exit, indexed by block.
    pub live_out: Vec<RegSet>,
    num_regs: u16,
}

/// Registers an instruction defines *strongly* (killing the old value):
/// unguarded destinations only.
fn strong_defs(i: &Instruction) -> impl Iterator<Item = rfh_isa::Reg> + '_ {
    let killing = i.guard.is_none();
    i.def_regs().filter(move |_| killing)
}

impl Liveness {
    /// Computes block-level liveness by iterating the backward dataflow
    /// equations to a fixed point.
    pub fn compute(kernel: &Kernel) -> Liveness {
        Self::compute_excluding(kernel, &ExcludedReads::new())
    }

    /// [`Liveness::compute`] with a set of reads excluded from the `gen`
    /// sets. Excluded reads are *covered* (see [`ExcludedReads`]): they
    /// provably observe an in-block guarded definition, not the block-entry
    /// value, so they are not upward-exposed uses.
    pub fn compute_excluding(kernel: &Kernel, excluded: &ExcludedReads) -> Liveness {
        let n = kernel.blocks.len();
        let num_regs = kernel.num_regs();
        let mut live_in = vec![RegSet::new(num_regs); n];
        let mut live_out = vec![RegSet::new(num_regs); n];

        // Per-block gen (upward-exposed uses) and kill (strong defs).
        let mut gen = vec![RegSet::new(num_regs); n];
        let mut kill = vec![RegSet::new(num_regs); n];
        for b in &kernel.blocks {
            let (g, k) = (&mut gen[b.id.index()], &mut kill[b.id.index()]);
            for (index, ins) in b.instrs.iter().enumerate() {
                let at = InstrRef { block: b.id, index };
                for (slot, r) in ins.reg_srcs() {
                    if excluded.contains(&(at, slot.index())) {
                        continue;
                    }
                    if !kill_contains(k, r) {
                        g.insert(r);
                    }
                }
                for r in strong_defs(ins) {
                    k.insert(r);
                }
            }
        }

        let mut changed = true;
        while changed {
            changed = false;
            for b in kernel.blocks.iter().rev() {
                let i = b.id.index();
                let mut out = RegSet::new(num_regs);
                for s in kernel.successors(b.id) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inn = out.clone();
                inn.subtract(&kill[i]);
                inn.union_with(&gen[i]);
                if inn != live_in[i] {
                    live_in[i] = inn;
                    changed = true;
                }
                live_out[i] = out;
            }
        }
        Liveness {
            live_in,
            live_out,
            num_regs,
        }
    }

    /// The register capacity of this analysis's sets.
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Registers live immediately *after* the instruction at `at` executes.
    ///
    /// Computed by a backward walk over the remainder of the block, so the
    /// cost is linear in the block length.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range for the kernel.
    pub fn live_after(&self, kernel: &Kernel, at: InstrRef) -> RegSet {
        self.live_after_excluding(kernel, at, &ExcludedReads::new())
    }

    /// [`Liveness::live_after`] under an excluded-read set: covered reads do
    /// not resurrect a register on the backward walk. Only meaningful when
    /// `self` was built by [`Liveness::compute_excluding`] with the same set.
    pub fn live_after_excluding(
        &self,
        kernel: &Kernel,
        at: InstrRef,
        excluded: &ExcludedReads,
    ) -> RegSet {
        let block = kernel.block(at.block);
        let mut live = self.live_out[at.block.index()].clone();
        for (index, ins) in block.instrs.iter().enumerate().skip(at.index + 1).rev() {
            let here = InstrRef {
                block: at.block,
                index,
            };
            for r in strong_defs(ins) {
                live.remove(r);
            }
            for (slot, r) in ins.reg_srcs() {
                if !excluded.contains(&(here, slot.index())) {
                    live.insert(r);
                }
            }
        }
        live
    }
}

fn kill_contains(k: &RegSet, r: rfh_isa::Reg) -> bool {
    k.contains(r)
}

/// Sets the `dead_after` flag on every source operand that statically reads
/// the last use of a value (paper §2.2: liveness encoded in the binary).
///
/// An operand is dead after its instruction when the register is not live
/// after the instruction — including the case where the instruction itself
/// strongly redefines the register it reads.
pub fn annotate_dead(kernel: &mut Kernel, liveness: &Liveness) {
    annotate_dead_excluding(kernel, liveness, &ExcludedReads::new());
}

/// [`annotate_dead`] under an excluded-read set: covered reads neither keep
/// a register live on the backward walk nor block an earlier read's
/// `dead_after` flag, so strictly more reads are marked dead. `liveness`
/// must have been built by [`Liveness::compute_excluding`] with the same
/// set, or the flags are unsound.
pub fn annotate_dead_excluding(kernel: &mut Kernel, liveness: &Liveness, excluded: &ExcludedReads) {
    let block_ids: Vec<_> = kernel.blocks.iter().map(|b| b.id).collect();
    for id in block_ids {
        let mut live = liveness.live_out[id.index()].clone();
        let block = kernel.block_mut(id);
        for (index, ins) in block.instrs.iter_mut().enumerate().rev() {
            let at = InstrRef { block: id, index };
            for r in strong_defs(ins) {
                live.remove(r);
            }
            let flags: Vec<bool> = ins
                .srcs
                .iter()
                .map(|s| s.as_reg().map(|r| !live.contains(r)).unwrap_or(false))
                .collect();
            ins.dead_after.copy_from_slice(&flags);
            for (slot, r) in ins.reg_srcs() {
                if !excluded.contains(&(at, slot.index())) {
                    live.insert(r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::{parse_kernel, BlockId, Reg};

    fn r(i: u16) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn straight_line_liveness() {
        let k = parse_kernel(
            "
.kernel s
BB0:
  iadd r1 r0, 1
  iadd r2 r1, 1
  st.global r2, r1
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        assert!(lv.live_in[0].contains(r(0)));
        assert!(!lv.live_in[0].contains(r(1)));
        assert!(lv.live_out[0].is_empty());
    }

    #[test]
    fn loop_carried_value_is_live_around_backedge() {
        let k = parse_kernel(
            "
.kernel l
BB0:
  mov r0, 0
  mov r1, 0
BB1:
  iadd r1 r1, 1
  iadd r0 r0, 2
  setp.lt p0 r0, 10
  @p0 bra BB1
BB2:
  st.global r0, r1
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        // r0 and r1 are live into and out of the loop body.
        assert!(lv.live_in[1].contains(r(0)));
        assert!(lv.live_in[1].contains(r(1)));
        assert!(lv.live_out[1].contains(r(0)));
        assert!(lv.live_out[1].contains(r(1)));
        assert!(lv.live_out[2].is_empty());
    }

    #[test]
    fn guarded_def_does_not_kill() {
        let k = parse_kernel(
            "
.kernel g
BB0:
  @p0 mov r0, 1
  st.global r1, r0
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        // r0 must be live-in: the guarded mov may not execute.
        assert!(lv.live_in[0].contains(r(0)));
    }

    #[test]
    fn live_after_mid_block() {
        let k = parse_kernel(
            "
.kernel m
BB0:
  iadd r1 r0, 1
  iadd r2 r0, 2
  st.global r1, r2
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        let after_first = lv.live_after(
            &k,
            InstrRef {
                block: BlockId::new(0),
                index: 0,
            },
        );
        assert!(after_first.contains(r(0)), "r0 still read by next instr");
        assert!(after_first.contains(r(1)));
        let after_second = lv.live_after(
            &k,
            InstrRef {
                block: BlockId::new(0),
                index: 1,
            },
        );
        assert!(!after_second.contains(r(0)), "r0 dead after its last read");
    }

    #[test]
    fn annotate_dead_marks_last_reads() {
        let mut k = parse_kernel(
            "
.kernel d
BB0:
  iadd r1 r0, 1
  iadd r2 r0, 2
  st.global r1, r2
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        annotate_dead(&mut k, &lv);
        let b = &k.blocks[0];
        assert!(!b.instrs[0].dead_after[0], "r0 read again later");
        assert!(b.instrs[1].dead_after[0], "second read of r0 is the last");
        assert!(b.instrs[2].dead_after[0], "store consumes r1 last");
        assert!(b.instrs[2].dead_after[1], "store consumes r2 last");
    }

    #[test]
    fn annotate_dead_self_redefinition() {
        let mut k = parse_kernel(
            "
.kernel sr
BB0:
  iadd r0 r0, 1
  st.global r1, r0
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        annotate_dead(&mut k, &lv);
        // The read of the *old* r0 is dead after the redefining add.
        assert!(k.blocks[0].instrs[0].dead_after[0]);
    }

    #[test]
    fn immediates_never_marked_dead() {
        let mut k = parse_kernel(
            "
.kernel i
BB0:
  iadd r1 r0, 5
  exit
",
        )
        .unwrap();
        let lv = Liveness::compute(&k);
        annotate_dead(&mut k, &lv);
        assert!(!k.blocks[0].instrs[0].dead_after[1]);
    }
}
