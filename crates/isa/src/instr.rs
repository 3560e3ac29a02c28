//! Instructions: the unit of execution and of allocation annotation.

use std::fmt;

use crate::kernel::BlockId;
use crate::opcode::Opcode;
use crate::operand::{Operand, Slot};
use crate::placement::{ReadLoc, WriteLoc};
use crate::reg::{PredReg, Reg, Width};

/// A destination register together with the width of the produced value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dst {
    /// The destination register (root of the pair for 64-bit values).
    pub reg: Reg,
    /// The produced value's width.
    pub width: Width,
}

impl Dst {
    /// A 32-bit destination.
    pub const fn w32(reg: Reg) -> Self {
        Dst {
            reg,
            width: Width::W32,
        }
    }

    /// A 64-bit destination occupying `(reg, reg+1)`.
    pub const fn w64(reg: Reg) -> Self {
        Dst {
            reg,
            width: Width::W64,
        }
    }

    /// The registers written: one for 32-bit values, two for 64-bit.
    pub fn regs(self) -> impl Iterator<Item = Reg> {
        let n = self.width.regs();
        (0..n).map(move |i| Reg::new(self.reg.index() + i))
    }
}

/// A predicate guard, `@p` or `@!p`, making an instruction conditional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredGuard {
    /// The guarding predicate register.
    pub reg: PredReg,
    /// Whether the guard is negated (`@!p`).
    pub negated: bool,
}

/// A single instruction.
///
/// Instructions carry the two kinds of compiler annotations central to the
/// paper:
///
/// * `ends_strand` — the extra bit (§4.1) marking strand endpoints,
///   computed by `rfh-analysis::strand` and set by `rfh-alloc`;
/// * `write_loc` / `read_locs` — the hierarchy placements (§4.2–4.6), set by
///   `rfh-alloc` (all-MRF by default, which is the single-level baseline);
/// * `dead_after` — static liveness flags (one per source operand) marking
///   the last read of a value, used by the *hardware* RFC baseline to elide
///   writebacks of dead values (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The opcode.
    pub op: Opcode,
    /// Destination register, for opcodes with [`Opcode::has_dst`].
    pub dst: Option<Dst>,
    /// Destination predicate, for `setp`/`fsetp`.
    pub pdst: Option<PredReg>,
    /// Source operands in slot order A, B, C.
    pub srcs: Vec<Operand>,
    /// Source predicate register (read by `sel`).
    pub psrc: Option<PredReg>,
    /// Predicate guard making the instruction conditional.
    pub guard: Option<PredGuard>,
    /// Branch target, for `bra`.
    pub target: Option<BlockId>,
    /// Compiler-set strand endpoint marker (paper §4.1).
    pub ends_strand: bool,
    /// Where the produced value is written (paper §3.1).
    pub write_loc: WriteLoc,
    /// Where each source operand is read from; parallel to `srcs` (entries
    /// for non-register operands are ignored).
    pub read_locs: Vec<ReadLoc>,
    /// Liveness flags parallel to `srcs`: `true` when this is statically the
    /// last read of the register's current value.
    pub dead_after: Vec<bool>,
}

impl Instruction {
    /// Creates an instruction with no operands; callers fill in fields via
    /// the `with_*` methods or the constructors in [`crate::ops`].
    pub fn new(op: Opcode) -> Self {
        Instruction {
            op,
            dst: None,
            pdst: None,
            srcs: Vec::new(),
            psrc: None,
            guard: None,
            target: None,
            ends_strand: false,
            write_loc: WriteLoc::default(),
            read_locs: Vec::new(),
            dead_after: Vec::new(),
        }
    }

    /// Sets the destination register (32-bit).
    pub fn with_dst(mut self, reg: Reg) -> Self {
        self.dst = Some(Dst::w32(reg));
        self
    }

    /// Sets a 64-bit destination register pair.
    pub fn with_dst64(mut self, reg: Reg) -> Self {
        self.dst = Some(Dst::w64(reg));
        self
    }

    /// Appends a source operand (and its default MRF read placement).
    pub fn with_src(mut self, src: impl Into<Operand>) -> Self {
        self.srcs.push(src.into());
        self.read_locs.push(ReadLoc::default());
        self.dead_after.push(false);
        self
    }

    /// Sets the destination predicate register.
    pub fn with_pdst(mut self, p: PredReg) -> Self {
        self.pdst = Some(p);
        self
    }

    /// Sets the source predicate register.
    pub fn with_psrc(mut self, p: PredReg) -> Self {
        self.psrc = Some(p);
        self
    }

    /// Guards the instruction with `@p` (or `@!p` when `negated`).
    pub fn guarded(mut self, reg: PredReg, negated: bool) -> Self {
        self.guard = Some(PredGuard { reg, negated });
        self
    }

    /// Sets the branch target.
    pub fn with_target(mut self, target: BlockId) -> Self {
        self.target = Some(target);
        self
    }

    /// Iterates over the register source operands as `(slot, reg)` pairs.
    ///
    /// Only register operands access the register file hierarchy; immediates
    /// and special registers are skipped.
    pub fn reg_srcs(&self) -> impl Iterator<Item = (Slot, Reg)> + '_ {
        self.srcs
            .iter()
            .enumerate()
            .filter_map(|(i, op)| op.as_reg().map(|r| (Slot::from_index(i), r)))
    }

    /// The general-purpose registers written by this instruction (two for
    /// 64-bit destinations).
    pub fn def_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.dst.into_iter().flat_map(|d| d.regs())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "@{}{} ", if g.negated { "!" } else { "" }, g.reg)?;
        }
        write!(f, "{}", self.op)?;
        if let Some(d) = &self.dst {
            write!(f, " {}", d.reg)?;
            if d.width == Width::W64 {
                write!(f, ".w64")?;
            }
        }
        if let Some(p) = &self.pdst {
            write!(f, " {p}")?;
        }
        let mut first = true;
        for s in &self.srcs {
            if first {
                write!(f, " {s}")?;
                first = false;
            } else {
                write!(f, ", {s}")?;
            }
        }
        if let Some(p) = &self.psrc {
            write!(f, ", {p}")?;
        }
        if let Some(t) = &self.target {
            if self.srcs.is_empty() && self.dst.is_none() && self.pdst.is_none() {
                write!(f, " {t}")?;
            } else {
                write!(f, ", {t}")?;
            }
        }
        if self.ends_strand {
            write!(f, " ;end")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{CmpOp, Space};

    #[test]
    fn with_src_keeps_annotations_parallel() {
        let i = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(0))
            .with_src(Reg::new(1))
            .with_src(2);
        assert_eq!(i.srcs.len(), 2);
        assert_eq!(i.read_locs.len(), 2);
        assert_eq!(i.dead_after.len(), 2);
    }

    #[test]
    fn reg_srcs_skips_immediates() {
        let i = Instruction::new(Opcode::IMad)
            .with_dst(Reg::new(0))
            .with_src(Reg::new(1))
            .with_src(5)
            .with_src(Reg::new(3));
        let srcs: Vec<_> = i.reg_srcs().collect();
        assert_eq!(srcs, vec![(Slot::A, Reg::new(1)), (Slot::C, Reg::new(3))]);
    }

    #[test]
    fn def_regs_expands_pairs() {
        let i = Instruction::new(Opcode::Ld(Space::Global))
            .with_dst64(Reg::new(4))
            .with_src(Reg::new(0));
        let defs: Vec<_> = i.def_regs().collect();
        assert_eq!(defs, vec![Reg::new(4), Reg::new(5)]);
    }

    #[test]
    fn display_smoke() {
        let i = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_pdst(PredReg::new(0))
            .with_src(Reg::new(1))
            .with_src(10);
        assert_eq!(i.to_string(), "setp.lt p0 r1, 10");

        let g = Instruction::new(Opcode::Bra)
            .with_target(BlockId::new(3))
            .guarded(PredReg::new(1), true);
        assert_eq!(g.to_string(), "@!p1 bra BB3");
    }
}
