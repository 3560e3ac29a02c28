//! The instruction set: opcodes and their static properties.

use std::fmt;

/// The function unit class an opcode executes on.
///
/// The 4-wide SIMT cluster (paper Figure 1c) gives each lane a *private* ALU
/// while the SFU, memory port, and texture unit are *shared* across the
/// cluster and run at reduced throughput. Only the private datapath can read
/// the LRF (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Per-lane private ALU (full warp-wide throughput).
    Alu,
    /// Shared special function unit (transcendentals).
    Sfu,
    /// Shared memory port (loads/stores to all spaces).
    Mem,
    /// Shared texture unit.
    Tex,
    /// Control flow (branches, exit, barriers) — reads no register values
    /// other than its guard predicate.
    Control,
}

impl Unit {
    /// Whether this unit belongs to the shared datapath, which cannot access
    /// the LRF.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfh_isa::Unit;
    /// assert!(!Unit::Alu.is_shared());
    /// assert!(Unit::Sfu.is_shared());
    /// ```
    pub const fn is_shared(self) -> bool {
        matches!(self, Unit::Sfu | Unit::Mem | Unit::Tex)
    }
}

/// Memory spaces addressable by loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Off-chip DRAM (long latency: 400 cycles).
    Global,
    /// On-chip software-managed shared memory (short latency: 20 cycles).
    Shared,
    /// Kernel parameter space (constant-cache latency, read-only).
    Param,
    /// Per-thread local memory, backed by DRAM (long latency).
    Local,
}

impl Space {
    /// The mnemonic suffix, e.g. `global` in `ld.global`.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Param => "param",
            Space::Local => "local",
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Special-function-unit operations (transcendental and other functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuOp {
    /// Reciprocal, `1/x`.
    Rcp,
    /// Reciprocal square root.
    Rsqrt,
    /// Square root.
    Sqrt,
    /// Sine (argument in radians).
    Sin,
    /// Cosine (argument in radians).
    Cos,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
}

impl SfuOp {
    /// All SFU operations, for enumeration.
    pub const ALL: [SfuOp; 7] = [
        SfuOp::Rcp,
        SfuOp::Rsqrt,
        SfuOp::Sqrt,
        SfuOp::Sin,
        SfuOp::Cos,
        SfuOp::Ex2,
        SfuOp::Lg2,
    ];

    /// The assembly mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            SfuOp::Rcp => "rcp",
            SfuOp::Rsqrt => "rsqrt",
            SfuOp::Sqrt => "sqrt",
            SfuOp::Sin => "sin",
            SfuOp::Cos => "cos",
            SfuOp::Ex2 => "ex2",
            SfuOp::Lg2 => "lg2",
        }
    }
}

impl fmt::Display for SfuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison operators for `setp` / `fsetp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators, for enumeration.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The mnemonic suffix, e.g. `lt` in `setp.lt`.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An instruction opcode.
///
/// Private-ALU opcodes execute at full warp throughput and may read the LRF;
/// SFU/memory/texture opcodes execute on the shared datapath and may not
/// (paper §3.2). Global loads, local loads, and texture fetches are
/// *long-latency* operations: an instruction depending on one terminates a
/// strand and forces the warp to be descheduled (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ---- private ALU: integer ----
    /// Integer add, `d = a + b`.
    IAdd,
    /// Integer subtract, `d = a - b`.
    ISub,
    /// Integer multiply (low 32 bits), `d = a * b`.
    IMul,
    /// Integer multiply-add, `d = a * b + c`.
    IMad,
    /// Integer minimum.
    IMin,
    /// Integer maximum.
    IMax,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left, `d = a << (b & 31)`.
    Shl,
    /// Logical shift right, `d = a >> (b & 31)`.
    Shr,
    // ---- private ALU: floating point ----
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Fused multiply-add, `d = a * b + c`.
    FFma,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
    // ---- private ALU: data movement & conversion ----
    /// Register/immediate/special move.
    Mov,
    /// Predicated select, `d = psrc ? a : b`.
    Sel,
    /// Signed integer to float conversion.
    I2F,
    /// Float to signed integer conversion (truncating).
    F2I,
    /// Integer compare, writes a predicate.
    Setp(CmpOp),
    /// Float compare, writes a predicate.
    FSetp(CmpOp),
    // ---- shared datapath ----
    /// Special function unit operation.
    Sfu(SfuOp),
    /// Load from a memory space, `d = [a]`.
    Ld(Space),
    /// Store to a memory space, `[a] = b`.
    St(Space),
    /// Texture fetch (modeled as a long-latency gather), `d = tex[a]`.
    Tex,
    // ---- control ----
    /// Branch to a block (conditional when guarded by a predicate).
    Bra,
    /// CTA-wide barrier; the warp is descheduled while waiting.
    Bar,
    /// Thread exit.
    Exit,
}

impl Opcode {
    /// The function unit class this opcode executes on.
    pub const fn unit(self) -> Unit {
        match self {
            Opcode::IAdd
            | Opcode::ISub
            | Opcode::IMul
            | Opcode::IMad
            | Opcode::IMin
            | Opcode::IMax
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FFma
            | Opcode::FMin
            | Opcode::FMax
            | Opcode::Mov
            | Opcode::Sel
            | Opcode::I2F
            | Opcode::F2I
            | Opcode::Setp(_)
            | Opcode::FSetp(_) => Unit::Alu,
            Opcode::Sfu(_) => Unit::Sfu,
            Opcode::Ld(_) | Opcode::St(_) => Unit::Mem,
            Opcode::Tex => Unit::Tex,
            Opcode::Bra | Opcode::Bar | Opcode::Exit => Unit::Control,
        }
    }

    /// Whether the result of this opcode arrives after a long latency
    /// (hundreds of cycles). Consumers of long-latency results terminate
    /// strands (paper §4.1).
    pub const fn is_long_latency(self) -> bool {
        matches!(
            self,
            Opcode::Ld(Space::Global) | Opcode::Ld(Space::Local) | Opcode::Tex
        )
    }

    /// Whether this opcode unconditionally suspends the warp (barriers).
    pub const fn is_barrier(self) -> bool {
        matches!(self, Opcode::Bar)
    }

    /// Whether this opcode is a branch.
    pub const fn is_branch(self) -> bool {
        matches!(self, Opcode::Bra)
    }

    /// Whether this opcode ends the thread.
    pub const fn is_exit(self) -> bool {
        matches!(self, Opcode::Exit)
    }

    /// Whether instructions with this opcode write a general-purpose
    /// destination register.
    pub const fn has_dst(self) -> bool {
        !matches!(
            self,
            Opcode::St(_)
                | Opcode::Bra
                | Opcode::Bar
                | Opcode::Exit
                | Opcode::Setp(_)
                | Opcode::FSetp(_)
        )
    }

    /// Whether instructions with this opcode write a predicate register.
    pub const fn has_pdst(self) -> bool {
        matches!(self, Opcode::Setp(_) | Opcode::FSetp(_))
    }

    /// The required number of source operands.
    pub const fn num_srcs(self) -> usize {
        match self {
            Opcode::IAdd
            | Opcode::ISub
            | Opcode::IMul
            | Opcode::IMin
            | Opcode::IMax
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FMin
            | Opcode::FMax
            | Opcode::Sel
            | Opcode::Setp(_)
            | Opcode::FSetp(_)
            | Opcode::St(_) => 2,
            Opcode::IMad | Opcode::FFma => 3,
            Opcode::Mov
            | Opcode::I2F
            | Opcode::F2I
            | Opcode::Sfu(_)
            | Opcode::Ld(_)
            | Opcode::Tex => 1,
            Opcode::Bra | Opcode::Bar | Opcode::Exit => 0,
        }
    }

    /// Whether this opcode reads a source predicate register (`sel`).
    pub const fn reads_pred_src(self) -> bool {
        matches!(self, Opcode::Sel)
    }

    /// The assembly mnemonic (without predicate guard or operands).
    pub fn mnemonic(self) -> String {
        match self {
            Opcode::IAdd => "iadd".into(),
            Opcode::ISub => "isub".into(),
            Opcode::IMul => "imul".into(),
            Opcode::IMad => "imad".into(),
            Opcode::IMin => "imin".into(),
            Opcode::IMax => "imax".into(),
            Opcode::And => "and".into(),
            Opcode::Or => "or".into(),
            Opcode::Xor => "xor".into(),
            Opcode::Shl => "shl".into(),
            Opcode::Shr => "shr".into(),
            Opcode::FAdd => "fadd".into(),
            Opcode::FSub => "fsub".into(),
            Opcode::FMul => "fmul".into(),
            Opcode::FFma => "ffma".into(),
            Opcode::FMin => "fmin".into(),
            Opcode::FMax => "fmax".into(),
            Opcode::Mov => "mov".into(),
            Opcode::Sel => "sel".into(),
            Opcode::I2F => "i2f".into(),
            Opcode::F2I => "f2i".into(),
            Opcode::Setp(c) => format!("setp.{c}"),
            Opcode::FSetp(c) => format!("fsetp.{c}"),
            Opcode::Sfu(s) => s.mnemonic().into(),
            Opcode::Ld(sp) => format!("ld.{sp}"),
            Opcode::St(sp) => format!("st.{sp}"),
            Opcode::Tex => "tex".into(),
            Opcode::Bra => "bra".into(),
            Opcode::Bar => "bar".into(),
            Opcode::Exit => "exit".into(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// Evaluates a private-datapath ALU opcode on one lane's operand words, or
/// `None` when `op` is not an ALU opcode (control flow, memory, barriers —
/// dispatched elsewhere). The one scalar semantics of the simulator and the
/// abstract interpreter.
#[inline]
pub fn eval_alu(op: Opcode, a: u32, b: u32, c: u32) -> Option<u32> {
    let (ia, ib, ic) = (a as i32, b as i32, c as i32);
    let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    let v = match op {
        Opcode::IAdd => ia.wrapping_add(ib) as u32,
        Opcode::ISub => ia.wrapping_sub(ib) as u32,
        Opcode::IMul => ia.wrapping_mul(ib) as u32,
        Opcode::IMad => ia.wrapping_mul(ib).wrapping_add(ic) as u32,
        Opcode::IMin => ia.min(ib) as u32,
        Opcode::IMax => ia.max(ib) as u32,
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl(b & 31),
        Opcode::Shr => a.wrapping_shr(b & 31),
        Opcode::FAdd => first_nan(fa + fb, a, b),
        Opcode::FSub => first_nan(fa - fb, a, b),
        Opcode::FMul => first_nan(fa * fb, a, b),
        Opcode::FFma => fa.mul_add(fb, fc).to_bits(),
        Opcode::FMin => first_nan(fa.min(fb), a, b),
        Opcode::FMax => first_nan(fa.max(fb), a, b),
        Opcode::Mov => a,
        Opcode::I2F => (ia as f32).to_bits(),
        Opcode::F2I => {
            if fa.is_nan() {
                0
            } else {
                (fa as i32) as u32
            }
        }
        Opcode::Sfu(f) => {
            let v = match f {
                SfuOp::Rcp => 1.0 / fa,
                SfuOp::Rsqrt => 1.0 / fa.sqrt(),
                SfuOp::Sqrt => fa.sqrt(),
                SfuOp::Sin => fa.sin(),
                SfuOp::Cos => fa.cos(),
                SfuOp::Ex2 => fa.exp2(),
                SfuOp::Lg2 => fa.log2(),
            };
            v.to_bits()
        }
        _ => return None,
    };
    Some(v)
}

/// The bits of `r`, the result of a two-operand float op on `a` and `b`;
/// when it is NaN and so is an operand, the first NaN operand, quieted.
/// That is x86's rule in source order, spelled out because LLVM may
/// commute the operands of `fadd`, `fmul`, `fmin` and `fmax`, which would
/// make the payload depend on where [`eval_alu`] is inlined.
#[inline]
fn first_nan(r: f32, a: u32, b: u32) -> u32 {
    if !r.is_nan() {
        return r.to_bits();
    }
    let nan = [a, b].into_iter().find(|&w| f32::from_bits(w).is_nan());
    nan.map_or(r.to_bits(), |w| w | 0x0040_0000)
}

/// Evaluates a `setp` (`float == false`: signed integer) or `fsetp`
/// (float) comparison.
#[inline]
pub fn eval_cmp(cmp: CmpOp, float: bool, a: u32, b: u32) -> bool {
    if float {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        match cmp {
            CmpOp::Eq => fa == fb,
            CmpOp::Ne => fa != fb,
            CmpOp::Lt => fa < fb,
            CmpOp::Le => fa <= fb,
            CmpOp::Gt => fa > fb,
            CmpOp::Ge => fa >= fb,
        }
    } else {
        let (ia, ib) = (a as i32, b as i32);
        match cmp {
            CmpOp::Eq => ia == ib,
            CmpOp::Ne => ia != ib,
            CmpOp::Lt => ia < ib,
            CmpOp::Le => ia <= ib,
            CmpOp::Gt => ia > ib,
            CmpOp::Ge => ia >= ib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_are_private() {
        for op in [
            Opcode::IAdd,
            Opcode::FFma,
            Opcode::Mov,
            Opcode::Setp(CmpOp::Lt),
        ] {
            assert_eq!(op.unit(), Unit::Alu);
            assert!(!op.unit().is_shared());
        }
    }

    #[test]
    fn shared_datapath_ops() {
        assert!(Opcode::Sfu(SfuOp::Rcp).unit().is_shared());
        assert!(Opcode::Ld(Space::Global).unit().is_shared());
        assert!(Opcode::St(Space::Shared).unit().is_shared());
        assert!(Opcode::Tex.unit().is_shared());
        assert!(!Opcode::Bra.unit().is_shared());
    }

    #[test]
    fn long_latency_classification() {
        assert!(Opcode::Ld(Space::Global).is_long_latency());
        assert!(Opcode::Ld(Space::Local).is_long_latency());
        assert!(Opcode::Tex.is_long_latency());
        assert!(!Opcode::Ld(Space::Shared).is_long_latency());
        assert!(!Opcode::Ld(Space::Param).is_long_latency());
        assert!(!Opcode::Sfu(SfuOp::Sqrt).is_long_latency());
        assert!(!Opcode::St(Space::Global).is_long_latency());
    }

    #[test]
    fn dst_classification() {
        assert!(Opcode::IAdd.has_dst());
        assert!(Opcode::Ld(Space::Global).has_dst());
        assert!(!Opcode::St(Space::Global).has_dst());
        assert!(!Opcode::Setp(CmpOp::Eq).has_dst());
        assert!(Opcode::Setp(CmpOp::Eq).has_pdst());
        assert!(!Opcode::Bra.has_dst());
    }

    #[test]
    fn src_arity() {
        assert_eq!(Opcode::FFma.num_srcs(), 3);
        assert_eq!(Opcode::IAdd.num_srcs(), 2);
        assert_eq!(Opcode::Mov.num_srcs(), 1);
        assert_eq!(Opcode::St(Space::Global).num_srcs(), 2);
        assert_eq!(Opcode::Exit.num_srcs(), 0);
    }

    #[test]
    fn mnemonics_render() {
        assert_eq!(Opcode::Setp(CmpOp::Lt).to_string(), "setp.lt");
        assert_eq!(Opcode::Ld(Space::Global).to_string(), "ld.global");
        assert_eq!(Opcode::Sfu(SfuOp::Rsqrt).to_string(), "rsqrt");
        assert_eq!(Opcode::FFma.to_string(), "ffma");
    }

    #[test]
    fn float_ops_propagate_the_first_nan_operand() {
        // -27 and -34 are quiet NaNs with different payloads.
        let (a, b) = (-27i32 as u32, -34i32 as u32);
        for op in [
            Opcode::FAdd,
            Opcode::FSub,
            Opcode::FMul,
            Opcode::FMin,
            Opcode::FMax,
        ] {
            assert_eq!(eval_alu(op, a, b, 0), Some(a), "{op}");
            assert_eq!(eval_alu(op, b, a, 0), Some(b), "{op}");
        }
        // A signaling NaN comes back quieted.
        assert_eq!(eval_alu(Opcode::FAdd, 1, 0x7f80_0001, 0), Some(0x7fc0_0001));
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Bra.is_branch());
        assert!(Opcode::Bar.is_barrier());
        assert!(Opcode::Exit.is_exit());
        assert!(!Opcode::IAdd.is_branch());
    }
}
