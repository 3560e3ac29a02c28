//! An ergonomic builder DSL for writing kernels by hand.

use crate::instr::Instruction;
use crate::kernel::{BasicBlock, BlockId, Kernel};
use crate::opcode::{Opcode, Space};
use crate::operand::Operand;
use crate::reg::{PredReg, Reg};

/// Builds a [`Kernel`] block by block.
///
/// The builder starts with an empty entry block (`BB0`) selected. Blocks
/// must be created in layout order with [`KernelBuilder::add_block`]; they
/// can be created up front (to serve as forward branch targets) and filled
/// later via [`KernelBuilder::switch_to`].
///
/// # Examples
///
/// A two-block kernel with a forward branch:
///
/// ```
/// use rfh_isa::{KernelBuilder, ops, CmpOp, PredReg, Reg};
/// let r = Reg::new;
/// let p0 = PredReg::new(0);
///
/// let mut b = KernelBuilder::new("clamp");
/// let done = b.add_block();
/// b.switch_to(b.entry());
/// b.push(ops::setp(CmpOp::Lt, p0, r(0).into(), 0.into()));
/// b.push(ops::bra_if(p0, true, done));
/// // ... fallthrough work elided: entry falls through to `done`
/// b.switch_to(done);
/// b.push(ops::exit());
///
/// let k = b.finish();
/// rfh_isa::validate(&k).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    kernel: Kernel,
    current: BlockId,
    next_reg: u16,
    next_pred: u8,
}

impl KernelBuilder {
    /// Creates a builder with an empty entry block selected.
    pub fn new(name: impl Into<String>) -> Self {
        let mut kernel = Kernel::new(name);
        kernel.blocks.push(BasicBlock::new(BlockId::new(0)));
        KernelBuilder {
            kernel,
            current: BlockId::new(0),
            next_reg: 0,
            next_pred: 0,
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// The currently selected block id.
    pub fn current(&self) -> BlockId {
        self.current
    }

    /// Appends a new empty block (in layout order) and returns its id. The
    /// selection moves to the new block.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::new(self.kernel.blocks.len() as u32);
        self.kernel.blocks.push(BasicBlock::new(id));
        self.current = id;
        id
    }

    /// Selects an existing block to append instructions to.
    ///
    /// # Panics
    ///
    /// Panics if `id` names a block that has not been created.
    pub fn switch_to(&mut self, id: BlockId) {
        assert!(id.index() < self.kernel.blocks.len(), "unknown block {id}");
        self.current = id;
    }

    /// Appends an instruction to the selected block.
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        self.track_regs(&instr);
        self.kernel.blocks[self.current.index()].instrs.push(instr);
        self
    }

    /// Returns a fresh, previously unused general-purpose register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg::new(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Returns a fresh, previously unused predicate register.
    pub fn pred(&mut self) -> PredReg {
        let p = PredReg::new(self.next_pred);
        self.next_pred += 1;
        p
    }

    /// Finishes the kernel.
    ///
    /// The parameter count is the maximum of any explicit declaration and
    /// the highest `ld.param` immediate index used plus one.
    pub fn finish(mut self) -> Kernel {
        let inferred = self
            .kernel
            .iter_instrs()
            .filter(|(_, i)| i.op == Opcode::Ld(Space::Param))
            .filter_map(|(_, i)| match i.srcs.first() {
                Some(Operand::Imm(v)) if *v >= 0 => Some(*v as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        self.kernel.num_params = self.kernel.num_params.max(inferred);
        self.kernel
    }

    fn track_regs(&mut self, instr: &Instruction) {
        for r in instr.def_regs() {
            self.next_reg = self.next_reg.max(r.index() + 1);
        }
        for (_, r) in instr.reg_srcs() {
            self.next_reg = self.next_reg.max(r.index() + 1);
        }
        for p in instr
            .pdst
            .into_iter()
            .chain(instr.psrc)
            .chain(instr.guard.map(|g| g.reg))
        {
            self.next_pred = self.next_pred.max(p.index() + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::validate::validate;

    #[test]
    fn builds_entry_block_by_default() {
        let mut b = KernelBuilder::new("k");
        b.push(ops::exit());
        let k = b.finish();
        assert_eq!(k.blocks.len(), 1);
        assert_eq!(k.blocks[0].instrs.len(), 1);
        validate(&k).unwrap();
    }

    #[test]
    fn add_block_selects_new_block() {
        let mut b = KernelBuilder::new("k");
        let bb1 = b.add_block();
        assert_eq!(b.current(), bb1);
        b.push(ops::exit());
        b.switch_to(b.entry());
        b.push(ops::mov(Reg::new(0), 1.into()));
        let k = b.finish();
        assert_eq!(k.blocks[0].instrs.len(), 1);
        assert_eq!(k.blocks[1].instrs.len(), 1);
        validate(&k).unwrap();
    }

    #[test]
    fn fresh_registers_do_not_collide_with_pushed_code() {
        let mut b = KernelBuilder::new("k");
        b.push(ops::mov(Reg::new(7), 1.into()));
        assert_eq!(b.reg(), Reg::new(8));
        assert_eq!(b.reg(), Reg::new(9));
    }

    #[test]
    fn fresh_predicates_track_guards() {
        let mut b = KernelBuilder::new("k");
        b.push(ops::exit().guarded(PredReg::new(2), false));
        assert_eq!(b.pred(), PredReg::new(3));
    }

    #[test]
    fn param_count_inferred_from_ld_param() {
        let mut b = KernelBuilder::new("k");
        b.push(ops::ld_param(Reg::new(0), 3));
        b.push(ops::exit());
        assert_eq!(b.finish().num_params, 4);
    }

    #[test]
    #[should_panic]
    fn switch_to_unknown_block_panics() {
        let mut b = KernelBuilder::new("k");
        b.switch_to(BlockId::new(4));
    }
}
