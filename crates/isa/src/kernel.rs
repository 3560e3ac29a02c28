//! Kernels: basic blocks and the control flow graph.

use std::fmt;

use crate::instr::Instruction;
use crate::opcode::Opcode;

/// Identifier of a basic block within a kernel.
///
/// Blocks are numbered in source (layout) order; a branch to a block with an
/// id less than or equal to the branching block's id is a *backward branch*,
/// which terminates a strand (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from its index.
    pub const fn new(index: u32) -> Self {
        BlockId(index)
    }

    /// The block's index in [`Kernel::blocks`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BB{}", self.0)
    }
}

/// A reference to one instruction inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstrRef {
    /// The containing block.
    pub block: BlockId,
    /// The instruction's index within the block.
    pub index: usize,
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.block, self.index)
    }
}

/// A basic block: a straight-line instruction sequence.
///
/// Control transfer instructions (`bra`, unguarded `exit`) may only appear
/// as the last instruction (enforced by [`crate::validate()`]); guarded `exit`
/// may appear anywhere, since it does not alter block-level control flow.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// This block's id (equal to its index in [`Kernel::blocks`]).
    pub id: BlockId,
    /// The instructions.
    pub instrs: Vec<Instruction>,
}

impl BasicBlock {
    /// Creates an empty block.
    pub fn new(id: BlockId) -> Self {
        BasicBlock {
            id,
            instrs: Vec::new(),
        }
    }

    /// The block's terminator, if it has any instructions.
    pub fn terminator(&self) -> Option<&Instruction> {
        self.instrs.last()
    }
}

/// A kernel: a named CFG of basic blocks plus parameter metadata.
///
/// The entry block is always `BB0`. Register and predicate counts are
/// derived from the instructions; kernels carry no symbol tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// The kernel's name.
    pub name: String,
    /// Basic blocks in layout order; `blocks[i].id == BlockId(i)`.
    pub blocks: Vec<BasicBlock>,
    /// Number of kernel parameters (accessed via `ld.param`).
    pub num_params: usize,
}

impl Kernel {
    /// Creates an empty kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            blocks: Vec::new(),
            num_params: 0,
        }
    }

    /// The entry block id (`BB0`).
    pub fn entry(&self) -> BlockId {
        BlockId::new(0)
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// The instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn instr(&self, r: InstrRef) -> &Instruction {
        &self.blocks[r.block.index()].instrs[r.index]
    }

    /// Mutable access to the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn instr_mut(&mut self, r: InstrRef) -> &mut Instruction {
        &mut self.blocks[r.block.index()].instrs[r.index]
    }

    /// Iterates over all instructions in layout order with their positions.
    pub fn iter_instrs(&self) -> impl Iterator<Item = (InstrRef, &Instruction)> {
        self.blocks.iter().flat_map(|b| {
            b.instrs.iter().enumerate().map(move |(i, ins)| {
                (
                    InstrRef {
                        block: b.id,
                        index: i,
                    },
                    ins,
                )
            })
        })
    }

    /// Total static instruction count.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// The flat layout position of every block's first instruction: block
    /// `b` covers positions `starts[b]..starts[b] + len(b)` of the
    /// layout-order instruction sequence ([`Kernel::iter_instrs`]).
    pub fn block_starts(&self) -> Vec<usize> {
        let mut total = 0;
        let starts = self.blocks.iter().map(|b| {
            total += b.instrs.len();
            total - b.instrs.len()
        });
        starts.collect()
    }

    /// The CFG successors of `id`, derived from its terminator:
    ///
    /// * unguarded `bra` → `[target]`
    /// * guarded `bra` → `[target, fallthrough]`
    /// * unguarded `exit` → `[]`
    /// * anything else → `[fallthrough]`
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        let block = self.block(id);
        let next = BlockId::new(id.0 + 1);
        let has_next = next.index() < self.blocks.len();
        match block.terminator() {
            Some(t) if t.op == Opcode::Bra => {
                let target = t.target.expect("validated branch has a target");
                if t.guard.is_some() {
                    let mut succ = vec![target];
                    if has_next {
                        succ.push(next);
                    }
                    succ
                } else {
                    vec![target]
                }
            }
            Some(t) if t.op == Opcode::Exit && t.guard.is_none() => vec![],
            _ => {
                if has_next {
                    vec![next]
                } else {
                    vec![]
                }
            }
        }
    }

    /// Predecessor lists for every block, indexed by block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in self.successors(b.id) {
                preds[s.index()].push(b.id);
            }
        }
        preds
    }

    /// Whether the edge `from → to` is a backward branch (layout order).
    pub fn is_backward_edge(&self, from: BlockId, to: BlockId) -> bool {
        to <= from
    }

    /// One past the highest general-purpose register index used (i.e. the
    /// per-thread register demand).
    pub fn num_regs(&self) -> u16 {
        self.iter_instrs()
            .flat_map(|(_, i)| {
                i.def_regs()
                    .chain(i.reg_srcs().map(|(_, r)| r))
                    .map(|r| r.index() + 1)
            })
            .max()
            .unwrap_or(0)
    }

    /// One past the highest predicate register index used.
    pub fn num_preds(&self) -> u8 {
        self.iter_instrs()
            .flat_map(|(_, i)| {
                i.pdst
                    .into_iter()
                    .chain(i.psrc)
                    .chain(i.guard.map(|g| g.reg))
                    .map(|p| p.index() + 1)
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_kernel(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::reg::Reg;
    use crate::PredReg;

    /// BB0 → BB1 (cond) → BB1 (loop) / BB2.
    fn loop_kernel() -> Kernel {
        let mut k = Kernel::new("loop");
        let r = Reg::new;
        let mut bb0 = BasicBlock::new(BlockId::new(0));
        bb0.instrs.push(ops::mov(r(0), 0.into()));
        let mut bb1 = BasicBlock::new(BlockId::new(1));
        bb1.instrs.push(ops::iadd(r(0), r(0).into(), 1.into()));
        bb1.instrs.push(ops::setp(
            crate::CmpOp::Lt,
            PredReg::new(0),
            r(0).into(),
            10.into(),
        ));
        bb1.instrs
            .push(ops::bra_if(PredReg::new(0), false, BlockId::new(1)));
        let mut bb2 = BasicBlock::new(BlockId::new(2));
        bb2.instrs.push(ops::exit());
        k.blocks = vec![bb0, bb1, bb2];
        k
    }

    #[test]
    fn successors_of_loop() {
        let k = loop_kernel();
        assert_eq!(k.successors(BlockId::new(0)), vec![BlockId::new(1)]);
        assert_eq!(
            k.successors(BlockId::new(1)),
            vec![BlockId::new(1), BlockId::new(2)]
        );
        assert_eq!(k.successors(BlockId::new(2)), Vec::<BlockId>::new());
    }

    #[test]
    fn predecessors_inverse_of_successors() {
        let k = loop_kernel();
        let preds = k.predecessors();
        assert_eq!(preds[0], vec![]);
        assert_eq!(preds[1], vec![BlockId::new(0), BlockId::new(1)]);
        assert_eq!(preds[2], vec![BlockId::new(1)]);
    }

    #[test]
    fn backward_edge_detection() {
        let k = loop_kernel();
        assert!(k.is_backward_edge(BlockId::new(1), BlockId::new(1)));
        assert!(!k.is_backward_edge(BlockId::new(1), BlockId::new(2)));
        assert!(k.is_backward_edge(BlockId::new(2), BlockId::new(0)));
    }

    #[test]
    fn register_counts() {
        let k = loop_kernel();
        assert_eq!(k.num_regs(), 1);
        assert_eq!(k.num_preds(), 1);
        assert_eq!(k.instr_count(), 5);
    }

    #[test]
    fn iter_instrs_positions() {
        let k = loop_kernel();
        let refs: Vec<_> = k.iter_instrs().map(|(r, _)| r).collect();
        assert_eq!(refs.len(), 5);
        assert_eq!(
            refs[0],
            InstrRef {
                block: BlockId::new(0),
                index: 0
            }
        );
        assert_eq!(
            refs[3],
            InstrRef {
                block: BlockId::new(1),
                index: 2
            }
        );
    }
}
