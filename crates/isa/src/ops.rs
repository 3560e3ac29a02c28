//! Free constructor functions for every opcode, for ergonomic kernel
//! construction.
//!
//! ```
//! use rfh_isa::{ops, Reg};
//! let r = Reg::new;
//! let fma = ops::ffma(r(3), r(0).into(), r(1).into(), r(2).into());
//! assert_eq!(fma.to_string(), "ffma r3 r0, r1, r2");
//! ```

use crate::instr::Instruction;
use crate::kernel::BlockId;
use crate::opcode::{CmpOp, Opcode, SfuOp, Space};
use crate::operand::Operand;
use crate::reg::{PredReg, Reg};

macro_rules! binary_op {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(d: Reg, a: Operand, b: Operand) -> Instruction {
            Instruction::new($op).with_dst(d).with_src(a).with_src(b)
        }
    };
}

macro_rules! unary_op {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(d: Reg, a: Operand) -> Instruction {
            Instruction::new($op).with_dst(d).with_src(a)
        }
    };
}

binary_op!(
    /// Integer add, `d = a + b`.
    iadd, Opcode::IAdd
);
binary_op!(
    /// Integer subtract, `d = a - b`.
    isub, Opcode::ISub
);
binary_op!(
    /// Integer multiply, `d = a * b`.
    imul, Opcode::IMul
);
binary_op!(
    /// Integer minimum.
    imin, Opcode::IMin
);
binary_op!(
    /// Integer maximum.
    imax, Opcode::IMax
);
binary_op!(
    /// Bitwise and.
    and, Opcode::And
);
binary_op!(
    /// Bitwise or.
    or, Opcode::Or
);
binary_op!(
    /// Bitwise xor.
    xor, Opcode::Xor
);
binary_op!(
    /// Shift left.
    shl, Opcode::Shl
);
binary_op!(
    /// Shift right (logical).
    shr, Opcode::Shr
);
binary_op!(
    /// Float add.
    fadd, Opcode::FAdd
);
binary_op!(
    /// Float subtract.
    fsub, Opcode::FSub
);
binary_op!(
    /// Float multiply.
    fmul, Opcode::FMul
);
binary_op!(
    /// Float minimum.
    fmin, Opcode::FMin
);
binary_op!(
    /// Float maximum.
    fmax, Opcode::FMax
);

unary_op!(
    /// Move, `d = a`.
    mov, Opcode::Mov
);
unary_op!(
    /// Signed int → float conversion.
    i2f, Opcode::I2F
);
unary_op!(
    /// Float → signed int conversion (truncating).
    f2i, Opcode::F2I
);

/// Integer multiply-add, `d = a * b + c`.
pub fn imad(d: Reg, a: Operand, b: Operand, c: Operand) -> Instruction {
    Instruction::new(Opcode::IMad)
        .with_dst(d)
        .with_src(a)
        .with_src(b)
        .with_src(c)
}

/// Fused multiply-add, `d = a * b + c`.
pub fn ffma(d: Reg, a: Operand, b: Operand, c: Operand) -> Instruction {
    Instruction::new(Opcode::FFma)
        .with_dst(d)
        .with_src(a)
        .with_src(b)
        .with_src(c)
}

/// Predicated select, `d = p ? a : b`.
pub fn sel(d: Reg, a: Operand, b: Operand, p: PredReg) -> Instruction {
    Instruction::new(Opcode::Sel)
        .with_dst(d)
        .with_src(a)
        .with_src(b)
        .with_psrc(p)
}

/// Integer compare, `p = a <cmp> b`.
pub fn setp(cmp: CmpOp, p: PredReg, a: Operand, b: Operand) -> Instruction {
    Instruction::new(Opcode::Setp(cmp))
        .with_pdst(p)
        .with_src(a)
        .with_src(b)
}

/// Float compare, `p = a <cmp> b`.
pub fn fsetp(cmp: CmpOp, p: PredReg, a: Operand, b: Operand) -> Instruction {
    Instruction::new(Opcode::FSetp(cmp))
        .with_pdst(p)
        .with_src(a)
        .with_src(b)
}

/// Special-function-unit operation, `d = f(a)`.
pub fn sfu(f: SfuOp, d: Reg, a: Operand) -> Instruction {
    Instruction::new(Opcode::Sfu(f)).with_dst(d).with_src(a)
}

/// Reciprocal, `d = 1/a` (SFU).
pub fn rcp(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Rcp, d, a)
}

/// Reciprocal square root (SFU).
pub fn rsqrt(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Rsqrt, d, a)
}

/// Square root (SFU).
pub fn sqrt(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Sqrt, d, a)
}

/// Sine (SFU).
pub fn sin(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Sin, d, a)
}

/// Cosine (SFU).
pub fn cos(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Cos, d, a)
}

/// Base-2 exponential (SFU).
pub fn ex2(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Ex2, d, a)
}

/// Base-2 logarithm (SFU).
pub fn lg2(d: Reg, a: Operand) -> Instruction {
    sfu(SfuOp::Lg2, d, a)
}

/// Load from global memory (long latency), `d = global[a]`.
pub fn ld_global(d: Reg, addr: Operand) -> Instruction {
    Instruction::new(Opcode::Ld(Space::Global))
        .with_dst(d)
        .with_src(addr)
}

/// 64-bit load from global memory into the pair `(d, d+1)`.
pub fn ld_global_w64(d: Reg, addr: Operand) -> Instruction {
    Instruction::new(Opcode::Ld(Space::Global))
        .with_dst64(d)
        .with_src(addr)
}

/// Load from shared memory (short latency), `d = shared[a]`.
pub fn ld_shared(d: Reg, addr: Operand) -> Instruction {
    Instruction::new(Opcode::Ld(Space::Shared))
        .with_dst(d)
        .with_src(addr)
}

/// Load kernel parameter `index` into `d`.
pub fn ld_param(d: Reg, index: i32) -> Instruction {
    Instruction::new(Opcode::Ld(Space::Param))
        .with_dst(d)
        .with_src(index)
}

/// Store to global memory, `global[a] = b`.
pub fn st_global(addr: Operand, value: Operand) -> Instruction {
    Instruction::new(Opcode::St(Space::Global))
        .with_src(addr)
        .with_src(value)
}

/// Store to shared memory, `shared[a] = b`.
pub fn st_shared(addr: Operand, value: Operand) -> Instruction {
    Instruction::new(Opcode::St(Space::Shared))
        .with_src(addr)
        .with_src(value)
}

/// Texture fetch (long latency), `d = tex[a]`.
pub fn tex(d: Reg, coord: Operand) -> Instruction {
    Instruction::new(Opcode::Tex).with_dst(d).with_src(coord)
}

/// Unconditional branch to `target`.
pub fn bra(target: BlockId) -> Instruction {
    Instruction::new(Opcode::Bra).with_target(target)
}

/// Conditional branch to `target` when `p` (or `!p` when `negated`) holds.
pub fn bra_if(p: PredReg, negated: bool, target: BlockId) -> Instruction {
    Instruction::new(Opcode::Bra)
        .with_target(target)
        .guarded(p, negated)
}

/// CTA-wide barrier.
pub fn bar() -> Instruction {
    Instruction::new(Opcode::Bar)
}

/// Thread exit.
pub fn exit() -> Instruction {
    Instruction::new(Opcode::Exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_instruction;

    #[test]
    fn constructors_produce_valid_instructions() {
        let r = Reg::new;
        let instrs = vec![
            iadd(r(0), r(1).into(), Operand::Imm(4)),
            imad(r(0), r(1).into(), r(2).into(), r(3).into()),
            ffma(r(0), r(1).into(), r(2).into(), r(3).into()),
            sel(r(0), r(1).into(), r(2).into(), PredReg::new(0)),
            setp(CmpOp::Lt, PredReg::new(1), r(0).into(), Operand::Imm(3)),
            rcp(r(2), r(3).into()),
            ld_global(r(1), r(0).into()),
            ld_param(r(1), 2),
            st_shared(r(0).into(), r(1).into()),
            tex(r(4), r(5).into()),
            bra(BlockId::new(0)),
            bra_if(PredReg::new(0), true, BlockId::new(1)),
            bar(),
            exit(),
        ];
        for i in &instrs {
            validate_instruction(i).unwrap_or_else(|e| panic!("{i}: {e}"));
        }
    }

    #[test]
    fn wide_load_has_w64_dst() {
        let i = ld_global_w64(Reg::new(6), Reg::new(0).into());
        assert_eq!(i.dst.unwrap().width, crate::reg::Width::W64);
        assert_eq!(i.def_regs().count(), 2);
    }
}
