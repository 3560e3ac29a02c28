//! Structural validation of kernels and instructions.

use crate::error::IsaError;
use crate::instr::Instruction;
use crate::kernel::{BlockId, Kernel};
use crate::opcode::Opcode;

/// Highest general-purpose register index a valid kernel may name.
///
/// The IR stores indices in `u16` and derives per-thread register demand as
/// `highest + 1` (with 64-bit pairs occupying `rN, rN+1`), so an uncapped
/// index would overflow the counters and let a hostile kernel demand
/// arbitrarily large per-warp state from the simulator. 4094 leaves room
/// for the pair high half and the `+ 1` in [`Kernel::num_regs`].
pub const MAX_REG_INDEX: u16 = 4094;

/// Highest predicate register index a valid kernel may name (same
/// overflow/resource argument as [`MAX_REG_INDEX`], for `u8` counters).
pub const MAX_PRED_INDEX: u8 = 127;

fn err(at: impl Into<String>, msg: impl Into<String>) -> IsaError {
    IsaError::Validate {
        at: at.into(),
        msg: msg.into(),
    }
}

/// Validates a single instruction's operand shape against its opcode.
///
/// # Errors
///
/// Returns [`IsaError::Validate`] when destination/predicate/source operand
/// presence or count does not match the opcode signature, or when the
/// placement/liveness annotation vectors are not parallel to the sources.
pub fn validate_instruction(i: &Instruction) -> Result<(), IsaError> {
    shape_error(i).map_or(Ok(()), |msg| Err(err(i.to_string(), msg)))
}

/// The first shape problem of `i`, if any. Checks without rendering the
/// instruction: a valid instruction costs no formatting, and the caller
/// renders it only to build the error.
fn shape_error(i: &Instruction) -> Option<String> {
    let msg = |m: &str| Some(m.to_string());
    if i.dst.is_some() != i.op.has_dst() {
        return msg("destination register presence does not match opcode");
    }
    if i.pdst.is_some() != i.op.has_pdst() {
        return msg("destination predicate presence does not match opcode");
    }
    if i.srcs.len() != i.op.num_srcs() {
        return Some(format!(
            "expected {} source operands, found {}",
            i.op.num_srcs(),
            i.srcs.len()
        ));
    }
    if i.psrc.is_some() != i.op.reads_pred_src() {
        return msg("source predicate presence does not match opcode");
    }
    if i.target.is_some() != i.op.is_branch() {
        return msg("branch target presence does not match opcode");
    }
    if i.read_locs.len() != i.srcs.len() {
        return msg("read placement annotations not parallel to sources");
    }
    if i.dead_after.len() != i.srcs.len() {
        return msg("liveness annotations not parallel to sources");
    }
    // Check the raw dst index before expanding pairs: `Dst::regs` computes
    // `index + 1` for 64-bit values, which must not be reachable with an
    // index near `u16::MAX`.
    if let Some(d) = i.dst {
        if d.reg.index() > MAX_REG_INDEX {
            return Some(format!(
                "register {} exceeds the maximum index {MAX_REG_INDEX}",
                d.reg
            ));
        }
    }
    for (_, r) in i.reg_srcs() {
        if r.index() > MAX_REG_INDEX {
            return Some(format!(
                "register {r} exceeds the maximum index {MAX_REG_INDEX}"
            ));
        }
    }
    for p in [i.pdst, i.psrc, i.guard.map(|g| g.reg)]
        .into_iter()
        .flatten()
    {
        if p.index() > MAX_PRED_INDEX {
            return Some(format!(
                "predicate {p} exceeds the maximum index {MAX_PRED_INDEX}"
            ));
        }
    }
    None
}

/// Validates a kernel's structure.
///
/// Checks, beyond per-instruction shape:
///
/// * block ids equal their indices and there is at least one block;
/// * control transfers (`bra`, unguarded `exit`) appear only as block
///   terminators;
/// * branch targets are in range;
/// * no block falls through past the end of the kernel.
///
/// # Errors
///
/// Returns the first [`IsaError::Validate`] found.
///
/// # Examples
///
/// ```
/// use rfh_isa::{KernelBuilder, ops, validate};
/// let mut b = KernelBuilder::new("ok");
/// b.push(ops::exit());
/// assert!(validate(&b.finish()).is_ok());
/// ```
pub fn validate(kernel: &Kernel) -> Result<(), IsaError> {
    if kernel.blocks.is_empty() {
        return Err(err(&kernel.name, "kernel has no blocks"));
    }
    for (i, b) in kernel.blocks.iter().enumerate() {
        if b.id != BlockId::new(i as u32) {
            return Err(err(
                format!("{}", b.id),
                "block id does not match its index",
            ));
        }
    }
    let n_blocks = kernel.blocks.len();
    for b in &kernel.blocks {
        if b.instrs.is_empty() {
            return Err(err(format!("{}", b.id), "block has no instructions"));
        }
        let last = b.instrs.len() - 1;
        for (idx, ins) in b.instrs.iter().enumerate() {
            if let Some(msg) = shape_error(ins) {
                return Err(err(format!("{}[{idx}]: {ins}", b.id), msg));
            }
            let is_terminator_op =
                ins.op == Opcode::Bra || (ins.op == Opcode::Exit && ins.guard.is_none());
            if is_terminator_op && idx != last {
                return Err(err(
                    format!("{}[{idx}]", b.id),
                    "control transfer before end of block",
                ));
            }
            if let Some(t) = ins.target {
                if t.index() >= n_blocks {
                    return Err(err(
                        format!("{}[{idx}]", b.id),
                        format!("branch target {t} out of range"),
                    ));
                }
            }
        }
        // A block may not fall through past the end of the kernel.
        let falls_through = match b.terminator() {
            Some(t) if t.op == Opcode::Bra && t.guard.is_none() => false,
            Some(t) if t.op == Opcode::Exit && t.guard.is_none() => false,
            _ => true,
        };
        if falls_through && b.id.index() + 1 >= n_blocks {
            return Err(err(
                format!("{}", b.id),
                "final block must end in exit or an unconditional branch",
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BasicBlock;
    use crate::ops;
    use crate::reg::{PredReg, Reg};

    fn single_block(instrs: Vec<Instruction>) -> Kernel {
        let mut k = Kernel::new("t");
        let mut b = BasicBlock::new(BlockId::new(0));
        b.instrs = instrs;
        k.blocks.push(b);
        k
    }

    #[test]
    fn accepts_minimal_kernel() {
        let k = single_block(vec![ops::exit()]);
        assert!(validate(&k).is_ok());
    }

    #[test]
    fn rejects_empty_kernel() {
        let k = Kernel::new("empty");
        assert!(validate(&k).is_err());
    }

    #[test]
    fn rejects_empty_block() {
        let mut k = single_block(vec![ops::exit()]);
        k.blocks.insert(0, BasicBlock::new(BlockId::new(0)));
        k.blocks[1].id = BlockId::new(1);
        let e = validate(&k).unwrap_err();
        assert!(e.to_string().contains("no instructions"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let bad = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(0))
            .with_src(1);
        assert!(validate_instruction(&bad).is_err());
    }

    #[test]
    fn rejects_missing_dst() {
        let bad = Instruction::new(Opcode::IAdd).with_src(1).with_src(2);
        assert!(validate_instruction(&bad).is_err());
    }

    #[test]
    fn rejects_mid_block_branch() {
        let k = single_block(vec![ops::bra(BlockId::new(0)), ops::exit()]);
        let e = validate(&k).unwrap_err();
        assert!(e.to_string().contains("control transfer"));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let k = single_block(vec![ops::bra(BlockId::new(9))]);
        assert!(validate(&k).is_err());
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let k = single_block(vec![ops::mov(Reg::new(0), 1.into())]);
        let e = validate(&k).unwrap_err();
        assert!(e.to_string().contains("final block"));
    }

    #[test]
    fn guarded_exit_allowed_mid_block() {
        let mut i = ops::exit();
        i = i.guarded(crate::PredReg::new(0), false);
        let k = single_block(vec![i, ops::exit()]);
        assert!(validate(&k).is_ok());
    }

    #[test]
    fn rejects_register_index_above_cap() {
        let bad = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(MAX_REG_INDEX + 1))
            .with_src(1)
            .with_src(2);
        let e = validate_instruction(&bad).unwrap_err();
        assert!(e.to_string().contains("maximum index"));
        let bad_src = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(0))
            .with_src(Reg::new(u16::MAX))
            .with_src(2);
        assert!(validate_instruction(&bad_src).is_err());
    }

    #[test]
    fn rejects_wide_pair_at_u16_max_without_overflow() {
        // A 64-bit destination rooted at u16::MAX must be rejected before
        // anything computes `index + 1`.
        let bad = crate::ops::ld_global_w64(Reg::new(u16::MAX), Reg::new(0).into());
        assert!(validate_instruction(&bad).is_err());
    }

    #[test]
    fn rejects_predicate_index_above_cap() {
        let bad = ops::exit().guarded(crate::PredReg::new(MAX_PRED_INDEX + 1), false);
        assert!(validate_instruction(&bad).is_err());
        let at_cap = ops::exit().guarded(crate::PredReg::new(MAX_PRED_INDEX), false);
        assert!(validate_instruction(&at_cap).is_ok());
    }

    #[test]
    fn accepts_register_index_at_cap() {
        let ok = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(MAX_REG_INDEX))
            .with_src(1)
            .with_src(2);
        assert!(validate_instruction(&ok).is_ok());
    }

    fn iadd() -> Instruction {
        ops::iadd(Reg::new(0), Reg::new(1).into(), 2.into())
    }

    /// Every `validate_instruction` failure kind, with its full message:
    /// the instruction is rendered only to build the error, so the text
    /// is pinned here.
    #[test]
    fn instruction_failure_messages_are_pinned() {
        let mut short_reads = iadd();
        short_reads.read_locs.pop();
        let mut long_liveness = iadd();
        long_liveness.dead_after.push(true);
        let cases = [
            (
                Instruction::new(Opcode::IAdd)
                    .with_src(Reg::new(1))
                    .with_src(2),
                "iadd r1, 2: destination register presence does not match opcode",
            ),
            (
                iadd().with_pdst(PredReg::new(0)),
                "iadd r0 p0 r1, 2: destination predicate presence does not match opcode",
            ),
            (
                Instruction::new(Opcode::IAdd)
                    .with_dst(Reg::new(0))
                    .with_src(1),
                "iadd r0 1: expected 2 source operands, found 1",
            ),
            (
                iadd().with_psrc(PredReg::new(1)),
                "iadd r0 r1, 2, p1: source predicate presence does not match opcode",
            ),
            (
                iadd().with_target(BlockId::new(0)),
                "iadd r0 r1, 2, BB0: branch target presence does not match opcode",
            ),
            (
                short_reads,
                "iadd r0 r1, 2: read placement annotations not parallel to sources",
            ),
            (
                long_liveness,
                "iadd r0 r1, 2: liveness annotations not parallel to sources",
            ),
            (
                ops::iadd(Reg::new(MAX_REG_INDEX + 1), Reg::new(1).into(), 2.into()),
                "iadd r4095 r1, 2: register r4095 exceeds the maximum index 4094",
            ),
            (
                ops::iadd(Reg::new(0), Reg::new(u16::MAX).into(), 2.into()),
                "iadd r0 r65535, 2: register r65535 exceeds the maximum index 4094",
            ),
            (
                iadd().guarded(PredReg::new(MAX_PRED_INDEX + 1), true),
                "@!p128 iadd r0 r1, 2: predicate p128 exceeds the maximum index 127",
            ),
        ];
        for (instr, want) in cases {
            let e = validate_instruction(&instr).unwrap_err();
            assert_eq!(e.to_string(), format!("invalid kernel at {want}"));
        }
    }

    /// Every block-level failure kind of `validate`, with its full
    /// message, including an instruction failure at its position.
    #[test]
    fn kernel_failure_messages_are_pinned() {
        let mut bad_id = single_block(vec![ops::exit()]);
        bad_id.blocks[0].id = BlockId::new(3);
        let mut empty_block = single_block(vec![ops::exit()]);
        empty_block
            .blocks
            .insert(0, BasicBlock::new(BlockId::new(0)));
        empty_block.blocks[1].id = BlockId::new(1);
        let short = Instruction::new(Opcode::IAdd)
            .with_dst(Reg::new(0))
            .with_src(1);
        let cases = [
            (Kernel::new("empty"), "empty: kernel has no blocks"),
            (bad_id, "BB3: block id does not match its index"),
            (empty_block, "BB0: block has no instructions"),
            (
                single_block(vec![iadd(), short, ops::exit()]),
                "BB0[1]: iadd r0 1: expected 2 source operands, found 1",
            ),
            (
                single_block(vec![ops::bra(BlockId::new(0)), ops::exit()]),
                "BB0[0]: control transfer before end of block",
            ),
            (
                single_block(vec![ops::bra(BlockId::new(9))]),
                "BB0[0]: branch target BB9 out of range",
            ),
            (
                single_block(vec![iadd()]),
                "BB0: final block must end in exit or an unconditional branch",
            ),
        ];
        for (kernel, want) in cases {
            let e = validate(&kernel).unwrap_err();
            assert_eq!(e.to_string(), format!("invalid kernel at {want}"));
        }
    }

    #[test]
    fn rejects_mismatched_block_id() {
        let mut k = Kernel::new("t");
        let mut b = BasicBlock::new(BlockId::new(5));
        b.instrs.push(ops::exit());
        k.blocks.push(b);
        assert!(validate(&k).is_err());
    }
}
