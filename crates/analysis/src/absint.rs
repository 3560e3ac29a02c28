//! Abstract interpretation: value ranges, tid-affine forms, and uniformity.
//!
//! A fixpoint abstract interpreter over the kernel CFG with two composable
//! domains per general-purpose register:
//!
//! * **interval value ranges** — the written word, viewed as a signed
//!   32-bit integer, lies in `[lo, hi]`; singletons are constants. An
//!   optional exact *tid-affine* form `bits == coef·tid + off (mod 2³²)`
//!   (with `tid` the thread index within the CTA) rides along and survives
//!   the wrapping integer ALU exactly;
//! * **uniformity** — whether all lanes of a warp hold equal values. This
//!   generalizes the warp-uniformity taint used by the barrier lint.
//!
//! Predicate registers get the analogous [`PredAbs`] domain: a known
//! truth value per lane plus warp-uniformity.
//!
//! The facts feed three consumers: the L009–L011 lints (plus sharper L005
//! race disjointness and L008 dead-edge pruning), the [`last_use`] hint
//! pass consumed by `rfh-alloc` under `--hints`, and a chaos layer that
//! checks every recorded claim against the executor per lane.
//!
//! ## Soundness notes
//!
//! * Interval, affine, and predicate-known claims are *per lane*: they hold
//!   for every lane whose control flow reaches the instruction. They join
//!   soundly across CFG edges by interval union / equality.
//! * Uniformity is a *cross-lane* claim, which does not survive joins of
//!   divergent paths (each side can be internally uniform with different
//!   values). The interpreter therefore computes the divergence region of
//!   every possibly-divergent branch (successors up to the immediate
//!   post-dominator) and kills the uniform bit on every register or
//!   predicate written inside it.
//! * Branch-edge refinement only sharpens per-lane claims (the guard's
//!   known value, and the compared register's interval when the guard's
//!   defining `setp` compares against a constant); it never manufactures
//!   uniformity.
//! * Constants fold with [`rfh_isa::eval_alu`] / [`rfh_isa::eval_cmp`],
//!   the scalar semantics the simulator executes.

use rfh_isa::{
    eval_alu, eval_cmp, BlockId, CmpOp, InstrRef, Kernel, Opcode, Operand, PredReg, Space, Special,
    Width,
};

use crate::dom::DomTree;

/// Launch-geometry context for the analysis. Every field is optional: with
/// no context the interpreter still knows `%tid.x = 1·tid + 0` and
/// `%laneid ∈ [0, 31]`, just not the upper bounds.
///
/// Thread indices are assumed to fit in `i32` (launches beyond 2³¹ threads
/// per CTA are not representable in the simulator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsCtx {
    /// Threads per CTA (`%ntid.x`), when known.
    pub threads_per_cta: Option<u32>,
    /// Number of CTAs (`%nctaid.x`), when known.
    pub ctas: Option<u32>,
}

/// An abstract value for one 32-bit register word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Lower interval bound on the word as a signed 32-bit integer.
    pub lo: i32,
    /// Upper interval bound on the word as a signed 32-bit integer.
    pub hi: i32,
    /// Exact affine form: `bits == coef·tid + off (mod 2³²)` per lane,
    /// with `tid` the lane's thread index within the CTA. `(0, c)` is the
    /// constant `c`.
    pub affine: Option<(i32, i32)>,
    /// Whether all lanes of a warp provably hold equal values.
    pub uniform: bool,
}

impl AbsVal {
    /// The unconstrained value: any bits, lane-dependent.
    pub const TOP: AbsVal = AbsVal {
        lo: i32::MIN,
        hi: i32::MAX,
        affine: None,
        uniform: false,
    };

    /// The known constant with the given bit pattern (same for all lanes).
    pub fn constant(bits: u32) -> AbsVal {
        let v = bits as i32;
        AbsVal {
            lo: v,
            hi: v,
            affine: Some((0, v)),
            uniform: true,
        }
    }

    /// The constant bit pattern, if the interval is a singleton.
    pub fn as_const(&self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo as u32)
    }

    /// Completes a singleton interval with its constant affine form.
    /// Deliberately does *not* touch `uniform`: a singleton only proves the
    /// lanes *reaching this point* agree, not the whole warp.
    fn normalized(mut self) -> AbsVal {
        if self.lo == self.hi && self.affine.is_none() {
            self.affine = Some((0, self.lo));
        }
        self
    }

    /// Least upper bound: interval union, affine agreement, uniformity
    /// conjunction.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            affine: if self.affine == other.affine {
                self.affine
            } else {
                None
            },
            uniform: self.uniform && other.uniform,
        }
    }

    /// Threshold widening: any bound that grew jumps to the nearest
    /// *landmark* constant (harvested from the kernel's comparisons), or to
    /// ±∞ past the last landmark. Landmarks are what let a counted loop
    /// `for (i = 0; i < N; ...)` stabilize at `[0, N-1]` instead of
    /// overshooting to `+∞`; the finite landmark set keeps termination.
    fn widen_join(&self, other: &AbsVal, landmarks: &[i32]) -> AbsVal {
        let j = self.join(other);
        let lo = if j.lo < self.lo {
            landmarks
                .iter()
                .rev()
                .find(|&&t| t <= j.lo)
                .copied()
                .unwrap_or(i32::MIN)
        } else {
            self.lo
        };
        let hi = if j.hi > self.hi {
            landmarks
                .iter()
                .find(|&&t| t >= j.hi)
                .copied()
                .unwrap_or(i32::MAX)
        } else {
            self.hi
        };
        AbsVal { lo, hi, ..j }
    }
}

/// An abstract value for one predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredAbs {
    /// Whether all lanes of a warp provably hold the same truth value.
    pub uniform: bool,
    /// The truth value every lane reaching this point provably holds.
    pub known: Option<bool>,
}

impl PredAbs {
    /// The unconstrained predicate.
    pub const TOP: PredAbs = PredAbs {
        uniform: false,
        known: None,
    };

    /// Least upper bound.
    pub fn join(&self, other: &PredAbs) -> PredAbs {
        PredAbs {
            uniform: self.uniform && other.uniform,
            known: if self.known == other.known {
                self.known
            } else {
                None
            },
        }
    }

    /// Whether a branch guarded by this predicate provably does not split
    /// the warp: either the value is warp-uniform, or every lane reaching
    /// the branch holds the same known value.
    pub fn never_diverges(&self) -> bool {
        self.uniform || self.known.is_some()
    }
}

/// The facts recorded for one instruction (state *before* it executes,
/// claims about what it writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrFacts {
    /// Abstract values of the source operands, by slot (unused slots are
    /// [`AbsVal::TOP`]).
    pub srcs: [AbsVal; 3],
    /// Claim on the written destination word, for instructions with one.
    /// Holds per executing lane; `uniform` additionally claims all
    /// executing lanes write equal values.
    pub dst: Option<AbsVal>,
    /// Claim on the high word of a 64-bit destination.
    pub dst_hi: Option<AbsVal>,
    /// Claim on the written destination predicate (`setp`/`fsetp`).
    pub pdst: Option<PredAbs>,
    /// Abstract value of the guard predicate, for guarded instructions.
    pub guard: Option<PredAbs>,
    /// Whether any lane can execute this instruction: the block is
    /// reachable and the guard is not provably false.
    pub reachable: bool,
}

impl InstrFacts {
    /// Facts for an instruction in an unreachable block.
    fn unreachable() -> InstrFacts {
        InstrFacts {
            srcs: [AbsVal::TOP; 3],
            dst: None,
            dst_hi: None,
            pdst: None,
            guard: None,
            reachable: false,
        }
    }
}

/// A CFG edge the analysis proved no lane can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadEdge {
    /// Source block.
    pub from: BlockId,
    /// Target block.
    pub to: BlockId,
    /// Whether this is the taken edge of a guarded branch (`false`: the
    /// fall-through edge).
    pub taken: bool,
}

/// The result of [`analyze`]: per-instruction facts plus derived CFG facts.
#[derive(Debug, Clone)]
pub struct AbsResults {
    facts: Vec<Vec<InstrFacts>>,
    /// Whether each block is reachable under the abstract semantics
    /// (entry-reachable along edges not proved dead).
    pub block_reachable: Vec<bool>,
    /// Edges out of reachable blocks that no lane can take.
    pub dead_edges: Vec<DeadEdge>,
}

impl AbsResults {
    /// The facts for the instruction at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of range for the analyzed kernel.
    pub fn fact(&self, at: InstrRef) -> &InstrFacts {
        &self.facts[at.block.index()][at.index]
    }
}

/// The abstract machine state: one value per register word and predicate.
#[derive(Debug, Clone, PartialEq)]
struct Env {
    regs: Vec<AbsVal>,
    preds: Vec<PredAbs>,
}

impl Env {
    fn top(num_regs: usize, num_preds: usize) -> Env {
        Env {
            regs: vec![AbsVal::TOP; num_regs],
            preds: vec![PredAbs::TOP; num_preds],
        }
    }

    /// Joins `other` into `self`; returns whether `self` changed. With
    /// `widen`, growing interval bounds jump to the nearest landmark or ±∞.
    fn join_from(&mut self, other: &Env, widen: bool, landmarks: &[i32]) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let j = if widen {
                a.widen_join(b, landmarks)
            } else {
                a.join(b)
            };
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in self.preds.iter_mut().zip(&other.preds) {
            let j = a.join(b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

fn pred_fact(env: &Env, p: PredReg) -> PredAbs {
    env.preds
        .get(p.index() as usize)
        .copied()
        .unwrap_or(PredAbs::TOP)
}

fn special_fact(s: Special, ctx: AbsCtx) -> AbsVal {
    let bound = |n: Option<u32>| {
        n.and_then(|v| v.checked_sub(1))
            .map(|m| m.min(i32::MAX as u32) as i32)
            .unwrap_or(i32::MAX)
    };
    match s {
        Special::TidX => AbsVal {
            lo: 0,
            hi: bound(ctx.threads_per_cta),
            affine: Some((1, 0)),
            uniform: false,
        },
        Special::CtaIdX => AbsVal {
            lo: 0,
            hi: bound(ctx.ctas),
            affine: None,
            uniform: true,
        },
        Special::NTidX => launch_constant(ctx.threads_per_cta),
        Special::NCtaIdX => launch_constant(ctx.ctas),
        Special::LaneId => AbsVal {
            lo: 0,
            hi: 31,
            affine: None,
            uniform: false,
        },
        Special::WarpId => AbsVal {
            lo: 0,
            hi: ctx
                .threads_per_cta
                .map(|t| (t.div_ceil(32).max(1) - 1).min(i32::MAX as u32) as i32)
                .unwrap_or(i32::MAX),
            affine: None,
            uniform: true,
        },
    }
}

/// A launch parameter: a known warp-uniform constant, or an unknown but
/// still warp-uniform positive value.
fn launch_constant(v: Option<u32>) -> AbsVal {
    match v {
        Some(t) if t <= i32::MAX as u32 => AbsVal::constant(t),
        _ => AbsVal {
            lo: i32::MIN,
            hi: i32::MAX,
            affine: None,
            uniform: true,
        },
    }
}

fn operand_fact(op: Operand, env: &Env, ctx: AbsCtx) -> AbsVal {
    match op {
        Operand::Reg(r) => env
            .regs
            .get(r.index() as usize)
            .copied()
            .unwrap_or(AbsVal::TOP),
        Operand::Imm(v) => AbsVal::constant(v as u32),
        Operand::FBits(bits) => AbsVal::constant(bits),
        Operand::Special(s) => special_fact(s, ctx),
    }
}

/// Clamps a mathematically exact `i64` interval to `i32` bounds; any
/// possible overflow widens to the full range (where the machine's
/// wrapping result is trivially contained).
fn clamp_range(lo: i64, hi: i64) -> (i32, i32) {
    if lo >= i32::MIN as i64 && hi <= i32::MAX as i64 {
        (lo as i32, hi as i32)
    } else {
        (i32::MIN, i32::MAX)
    }
}

/// Whether `v` is provably `32·q + lane` per lane: tid-affine with unit
/// coefficient and a 32-aligned offset (tid itself is `32·warp + lane`, so
/// the low five bits of the value are exactly the lane id).
fn lane_plus_aligned(v: &AbsVal) -> bool {
    matches!(v.affine, Some((1, o)) if o & 31 == 0)
}

fn add_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    let (lo, hi) = clamp_range(a.lo as i64 + b.lo as i64, a.hi as i64 + b.hi as i64);
    let affine = match (a.affine, b.affine) {
        (Some((k1, o1)), Some((k2, o2))) => Some((k1.wrapping_add(k2), o1.wrapping_add(o2))),
        _ => None,
    };
    AbsVal {
        lo,
        hi,
        affine,
        uniform,
    }
}

fn sub_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    let (lo, hi) = clamp_range(a.lo as i64 - b.hi as i64, a.hi as i64 - b.lo as i64);
    let affine = match (a.affine, b.affine) {
        (Some((k1, o1)), Some((k2, o2))) => Some((k1.wrapping_sub(k2), o1.wrapping_sub(o2))),
        _ => None,
    };
    AbsVal {
        lo,
        hi,
        affine,
        uniform,
    }
}

fn mul_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    let products = [
        a.lo as i64 * b.lo as i64,
        a.lo as i64 * b.hi as i64,
        a.hi as i64 * b.lo as i64,
        a.hi as i64 * b.hi as i64,
    ];
    let (mut pmin, mut pmax) = (products[0], products[0]);
    for p in products {
        pmin = pmin.min(p);
        pmax = pmax.max(p);
    }
    let (lo, hi) = clamp_range(pmin, pmax);
    // Scaling an affine form by a constant stays affine (exact mod 2³²).
    let affine = match (a.affine, b.affine) {
        (Some((k, o)), Some((0, c))) | (Some((0, c)), Some((k, o))) => {
            Some((k.wrapping_mul(c), o.wrapping_mul(c)))
        }
        _ => None,
    };
    AbsVal {
        lo,
        hi,
        affine,
        uniform,
    }
}

fn and_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    // Normalize to (value, constant mask) when one side is constant.
    let masked = match (a.as_const(), b.as_const()) {
        (_, Some(m)) => Some((a, m)),
        (Some(m), _) => Some((b, m)),
        _ => None,
    };
    if let Some((x, m)) = masked {
        // Masking away the lane bits of a `32·q + lane` value leaves a
        // warp-uniform result: every lane computes the same word.
        let u = uniform || (lane_plus_aligned(x) && m & 31 == 0);
        let mi = m as i32;
        if mi >= 0 {
            let hi = if x.lo >= 0 { x.hi.min(mi) } else { mi };
            return AbsVal {
                lo: 0,
                hi,
                affine: None,
                uniform: u,
            };
        }
        return AbsVal {
            affine: None,
            uniform: u,
            ..AbsVal::TOP
        };
    }
    if a.lo >= 0 && b.lo >= 0 {
        return AbsVal {
            lo: 0,
            hi: a.hi.min(b.hi),
            affine: None,
            uniform,
        };
    }
    AbsVal {
        affine: None,
        uniform,
        ..AbsVal::TOP
    }
}

fn or_xor_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    if a.lo >= 0 && b.lo >= 0 {
        // Neither or nor xor can set a bit above the highest bit of either
        // input: bound by the next all-ones pattern.
        let m = a.hi.max(b.hi) as u32;
        let hi = (m.wrapping_add(1).next_power_of_two().wrapping_sub(1)).min(i32::MAX as u32);
        return AbsVal {
            lo: 0,
            hi: hi as i32,
            affine: None,
            uniform,
        };
    }
    AbsVal {
        affine: None,
        uniform,
        ..AbsVal::TOP
    }
}

fn shl_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    if let Some(s) = b.as_const().map(|v| v & 31) {
        if s == 0 {
            return AbsVal { uniform, ..*a };
        }
        let (lo, hi) = clamp_range((a.lo as i64) << s, (a.hi as i64) << s);
        let affine = a
            .affine
            .map(|(k, o)| (k.wrapping_shl(s), o.wrapping_shl(s)));
        return AbsVal {
            lo,
            hi,
            affine,
            uniform,
        };
    }
    AbsVal {
        affine: None,
        uniform,
        ..AbsVal::TOP
    }
}

fn shr_fact(a: &AbsVal, b: &AbsVal, uniform: bool) -> AbsVal {
    if let Some(s) = b.as_const().map(|v| v & 31) {
        if s == 0 {
            return AbsVal { uniform, ..*a };
        }
        // Logical shift: the result always fits in [0, 2^(32-s) - 1].
        let base_hi = (u32::MAX >> s) as i32;
        let (lo, hi) = if a.lo >= 0 {
            (a.lo >> s, (a.hi >> s).min(base_hi))
        } else {
            (0, base_hi)
        };
        // Shifting the lane bits out of a `32·q + lane` value leaves a
        // warp-uniform result.
        let u = uniform || (s >= 5 && lane_plus_aligned(a));
        return AbsVal {
            lo,
            hi,
            affine: None,
            uniform: u,
        };
    }
    if a.lo >= 0 {
        // Any logical shift of a non-negative word stays in [0, value].
        return AbsVal {
            lo: 0,
            hi: a.hi,
            affine: None,
            uniform,
        };
    }
    AbsVal {
        affine: None,
        uniform,
        ..AbsVal::TOP
    }
}

/// The abstract transfer function for a pure-ALU destination claim.
fn alu_fact(op: Opcode, s: &[AbsVal; 3]) -> AbsVal {
    let n = op.num_srcs().min(3);
    let uniform = s.iter().take(n).all(|v| v.uniform);
    // Bit-exact fold when every used operand is a known constant. The
    // result is constant but only warp-uniform if the inputs were (a
    // singleton interval proves agreement among lanes reaching this point,
    // not across the warp).
    let consts: Vec<Option<u32>> = s.iter().take(n).map(AbsVal::as_const).collect();
    if consts.iter().all(Option::is_some) {
        let word = |i: usize| consts.get(i).copied().flatten().unwrap_or(0);
        if let Some(v) = eval_alu(op, word(0), word(1), word(2)) {
            return AbsVal {
                uniform,
                ..AbsVal::constant(v)
            };
        }
    }
    let (a, b, c) = (&s[0], &s[1], &s[2]);
    let fact = match op {
        Opcode::Mov => AbsVal { uniform, ..*a },
        Opcode::IAdd => add_fact(a, b, uniform),
        Opcode::ISub => sub_fact(a, b, uniform),
        Opcode::IMul => mul_fact(a, b, uniform),
        Opcode::IMad => add_fact(&mul_fact(a, b, uniform), c, uniform),
        Opcode::IMin => AbsVal {
            lo: a.lo.min(b.lo),
            hi: a.hi.min(b.hi),
            affine: None,
            uniform,
        },
        Opcode::IMax => AbsVal {
            lo: a.lo.max(b.lo),
            hi: a.hi.max(b.hi),
            affine: None,
            uniform,
        },
        Opcode::And => and_fact(a, b, uniform),
        Opcode::Or | Opcode::Xor => or_xor_fact(a, b, uniform),
        Opcode::Shl => shl_fact(a, b, uniform),
        Opcode::Shr => shr_fact(a, b, uniform),
        // Floats, conversions, SFU: no interval reasoning over bit
        // patterns, but uniformity still propagates.
        _ => AbsVal {
            affine: None,
            uniform,
            ..AbsVal::TOP
        },
    };
    fact.normalized()
}

/// Decides an integer comparison from interval bounds, when provable for
/// every lane.
fn icmp_fact(cmp: CmpOp, a: &AbsVal, b: &AbsVal) -> Option<bool> {
    let lt = a.hi < b.lo;
    let le = a.hi <= b.lo;
    let gt = a.lo > b.hi;
    let ge = a.lo >= b.hi;
    let disjoint = a.hi < b.lo || b.hi < a.lo;
    let both_const_eq = match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some(x == y),
        _ => None,
    };
    match cmp {
        CmpOp::Eq => match both_const_eq {
            Some(true) => Some(true),
            _ if disjoint => Some(false),
            _ => None,
        },
        CmpOp::Ne => match both_const_eq {
            Some(true) => Some(false),
            _ if disjoint => Some(true),
            _ => None,
        },
        CmpOp::Lt => {
            if lt {
                Some(true)
            } else if ge {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if le {
                Some(true)
            } else if gt {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => {
            if gt {
                Some(true)
            } else if le {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ge => {
            if ge {
                Some(true)
            } else if lt {
                Some(false)
            } else {
                None
            }
        }
    }
}

/// How many lanes (of those reaching the instruction) execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    All,
    None,
    Maybe,
}

/// Interprets one block over `env`, optionally recording per-instruction
/// facts. `div` marks the block as inside a divergence region: writes
/// there never produce warp-uniform state.
fn run_block(
    kernel: &Kernel,
    ctx: AbsCtx,
    b: BlockId,
    env: &mut Env,
    div: bool,
    mut record: Option<&mut Vec<InstrFacts>>,
) {
    if let Some(rec) = record.as_deref_mut() {
        rec.clear();
    }
    for ins in &kernel.block(b).instrs {
        let mut srcs = [AbsVal::TOP; 3];
        for (i, op) in ins.srcs.iter().take(3).enumerate() {
            srcs[i] = operand_fact(*op, env, ctx);
        }
        let guard_fact = ins.guard.map(|g| pred_fact(env, g.reg));
        let exec = match ins.guard {
            None => Exec::All,
            Some(g) => match pred_fact(env, g.reg).known {
                Some(v) if v != g.negated => Exec::All,
                Some(_) => Exec::None,
                None => Exec::Maybe,
            },
        };

        let (dst_claim, dst_hi_claim) = match (ins.dst, ins.op) {
            (None, _) => (None, None),
            (Some(d), Opcode::Ld(space)) => {
                // A warp-uniform address loads the same word on every
                // executing lane — except in per-thread local memory.
                let uni = srcs[0].uniform && !matches!(space, Space::Local);
                let c = AbsVal {
                    affine: None,
                    uniform: uni,
                    ..AbsVal::TOP
                };
                (Some(c), (d.width == Width::W64).then_some(c))
            }
            (Some(d), Opcode::Tex) => (
                Some(AbsVal::TOP),
                (d.width == Width::W64).then_some(AbsVal::TOP),
            ),
            (Some(d), Opcode::Sel) => {
                let p = ins.psrc.map(|p| pred_fact(env, p)).unwrap_or(PredAbs::TOP);
                let c = match p.known {
                    Some(true) => srcs[0],
                    Some(false) => srcs[1],
                    None => {
                        let j = srcs[0].join(&srcs[1]);
                        AbsVal {
                            uniform: j.uniform && p.uniform,
                            ..j
                        }
                    }
                };
                (Some(c), (d.width == Width::W64).then_some(AbsVal::TOP))
            }
            (Some(d), op) => (
                Some(alu_fact(op, &srcs)),
                (d.width == Width::W64).then_some(AbsVal::TOP),
            ),
        };

        let pdst_claim = match ins.op {
            Opcode::Setp(cmp) => Some(PredAbs {
                uniform: srcs[0].uniform && srcs[1].uniform,
                known: icmp_fact(cmp, &srcs[0], &srcs[1]),
            }),
            Opcode::FSetp(cmp) => {
                let known = match (srcs[0].as_const(), srcs[1].as_const()) {
                    (Some(x), Some(y)) => Some(eval_cmp(cmp, true, x, y)),
                    _ => None,
                };
                Some(PredAbs {
                    uniform: srcs[0].uniform && srcs[1].uniform,
                    known,
                })
            }
            _ => None,
        };

        if let Some(rec) = record.as_deref_mut() {
            rec.push(InstrFacts {
                srcs,
                dst: dst_claim,
                dst_hi: dst_hi_claim,
                pdst: pdst_claim,
                guard: guard_fact,
                reachable: exec != Exec::None,
            });
        }

        if exec == Exec::None {
            continue;
        }

        if ins.op.is_exit() {
            // A guarded exit filters the warp: every surviving lane's
            // guard predicate provably failed the guard.
            if let Some(g) = ins.guard {
                if let Some(p) = env.preds.get_mut(g.reg.index() as usize) {
                    p.known = Some(g.negated);
                }
            }
            continue;
        }

        let guard_uniform = guard_fact.map(|g| g.uniform).unwrap_or(true);
        if let (Some(d), Some(c0)) = (ins.dst, dst_claim) {
            for (wi, r) in d.regs().enumerate() {
                let claim = if wi == 0 {
                    c0
                } else {
                    dst_hi_claim.unwrap_or(AbsVal::TOP)
                };
                let idx = r.index() as usize;
                if idx >= env.regs.len() {
                    continue;
                }
                let old = env.regs[idx];
                env.regs[idx] = match exec {
                    Exec::All => AbsVal {
                        uniform: claim.uniform && !div,
                        ..claim
                    },
                    Exec::Maybe => AbsVal {
                        uniform: old.uniform && claim.uniform && guard_uniform && !div,
                        ..old.join(&claim)
                    },
                    Exec::None => old,
                };
            }
        }
        if let (Some(p), Some(pc)) = (ins.pdst, pdst_claim) {
            let idx = p.index() as usize;
            if idx < env.preds.len() {
                let old = env.preds[idx];
                env.preds[idx] = match exec {
                    Exec::All => PredAbs {
                        uniform: pc.uniform && !div,
                        ..pc
                    },
                    Exec::Maybe => PredAbs {
                        uniform: old.uniform && pc.uniform && guard_uniform && !div,
                        known: if old.known == pc.known {
                            pc.known
                        } else {
                            None
                        },
                    },
                    Exec::None => old,
                };
            }
        }
    }
}

/// The out-edges of a block as `(successor, is_taken_edge)`; only a guarded
/// branch's first successor counts as a refinable taken edge.
fn out_edges(kernel: &Kernel, b: BlockId) -> Vec<(BlockId, bool)> {
    let guarded_bra = kernel
        .block(b)
        .instrs
        .last()
        .map(|t| t.op.is_branch() && t.guard.is_some())
        .unwrap_or(false);
    kernel
        .successors(b)
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, guarded_bra && i == 0))
        .collect()
}

/// Flips a comparison for swapped operands (`k < r` ⇔ `r > k`).
fn flip_cmp(cmp: CmpOp) -> CmpOp {
    match cmp {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

/// Finds the in-block provenance of a branch guard: the last write to
/// `pred` must be an unguarded integer `setp` comparing a register against
/// a constant, with the register not redefined before the terminator.
/// Returns `(reg, cmp, k)` normalized to `reg cmp k`.
fn setp_provenance(
    kernel: &Kernel,
    b: BlockId,
    pred: PredReg,
) -> Option<(rfh_isa::Reg, CmpOp, i32)> {
    let instrs = &kernel.block(b).instrs;
    let n = instrs.len();
    let (idx, setp) = instrs[..n.saturating_sub(1)]
        .iter()
        .enumerate()
        .rev()
        .find(|(_, i)| i.pdst == Some(pred))?;
    if setp.guard.is_some() {
        return None;
    }
    let Opcode::Setp(cmp) = setp.op else {
        return None;
    };
    let (a, b_op) = (setp.srcs.first()?, setp.srcs.get(1)?);
    let (reg, cmp, k) = match (a.as_reg(), a.const_bits(), b_op.as_reg(), b_op.const_bits()) {
        (Some(r), _, None, Some(k)) => (r, cmp, k as i32),
        (None, Some(k), Some(r), _) => (r, flip_cmp(cmp), k as i32),
        _ => return None,
    };
    // The compared register must still hold the same value at the branch.
    let redefined = instrs[idx + 1..n.saturating_sub(1)]
        .iter()
        .any(|i| i.def_regs().any(|d| d == reg));
    if redefined {
        return None;
    }
    Some((reg, cmp, k))
}

/// Intersects interval `v` with the constraint `v cmp k == holds`.
/// Returns `None` when the constraint is unsatisfiable (the edge is dead).
fn narrow_by_cmp(v: AbsVal, cmp: CmpOp, k: i32, holds: bool) -> Option<AbsVal> {
    let (mut lo, mut hi) = (v.lo, v.hi);
    match (cmp, holds) {
        (CmpOp::Lt, true) => hi = hi.min(k.checked_sub(1)?),
        (CmpOp::Lt, false) => lo = lo.max(k),
        (CmpOp::Le, true) => hi = hi.min(k),
        (CmpOp::Le, false) => lo = lo.max(k.checked_add(1)?),
        (CmpOp::Gt, true) => lo = lo.max(k.checked_add(1)?),
        (CmpOp::Gt, false) => hi = hi.min(k),
        (CmpOp::Ge, true) => lo = lo.max(k),
        (CmpOp::Ge, false) => hi = hi.min(k.checked_sub(1)?),
        (CmpOp::Eq, true) | (CmpOp::Ne, false) => {
            lo = lo.max(k);
            hi = hi.min(k);
        }
        (CmpOp::Eq, false) | (CmpOp::Ne, true) => {
            if lo == hi && lo == k {
                return None;
            }
            if lo == k {
                lo = lo.checked_add(1)?;
            }
            if hi == k {
                hi = hi.checked_sub(1)?;
            }
        }
    }
    if lo > hi {
        return None;
    }
    Some(AbsVal { lo, hi, ..v }.normalized())
}

/// Refines the post-block environment along one out-edge. `None` means no
/// lane can take the edge. Refinement only sharpens per-lane claims (the
/// guard's value on this edge and, via `setp` provenance, the compared
/// register's interval) — never uniformity.
fn refine_edge(kernel: &Kernel, b: BlockId, env: &Env, taken: bool) -> Option<Env> {
    let Some(term) = kernel.block(b).instrs.last() else {
        return Some(env.clone());
    };
    if !term.op.is_branch() {
        return Some(env.clone());
    }
    let Some(g) = term.guard else {
        return Some(env.clone());
    };
    // The taken edge requires the guard to pass (pred != negated).
    let required = taken != g.negated;
    let pi = g.reg.index() as usize;
    if pred_fact(env, g.reg).known == Some(!required) {
        return None;
    }
    let mut e = env.clone();
    if let Some(p) = e.preds.get_mut(pi) {
        p.known = Some(required);
    }
    if let Some((reg, cmp, k)) = setp_provenance(kernel, b, g.reg) {
        let ri = reg.index() as usize;
        if let Some(v) = e.regs.get(ri).copied() {
            match narrow_by_cmp(v, cmp, k, required) {
                Some(nv) => e.regs[ri] = nv,
                None => return None,
            }
        }
    }
    Some(e)
}

/// Whether the block's terminator is a guarded branch that may split the
/// warp, given the post-block environment.
fn branch_diverges(kernel: &Kernel, b: BlockId, env: &Env) -> bool {
    match kernel.block(b).instrs.last() {
        Some(t) if t.op.is_branch() => match t.guard {
            Some(g) => !pred_fact(env, g.reg).never_diverges(),
            None => false,
        },
        _ => false,
    }
}

/// The blocks a divergent branch at `b` can leave partially-active warps
/// in: everything reachable from `b`'s successors without passing through
/// `b`'s immediate post-dominator (the reconvergence point).
fn divergence_region(kernel: &Kernel, pdom: &DomTree, b: BlockId) -> Vec<usize> {
    let stop = pdom.idom(b);
    let mut seen = vec![false; kernel.blocks.len()];
    let mut stack: Vec<BlockId> = kernel.successors(b);
    let mut out = Vec::new();
    while let Some(n) = stack.pop() {
        if Some(n) == stop {
            continue;
        }
        let i = n.index();
        if seen[i] {
            continue;
        }
        seen[i] = true;
        out.push(i);
        stack.extend(kernel.successors(n));
    }
    out
}

/// Collects widening landmarks: the constants the kernel compares against
/// (±1 for strict/inclusive bound conversions), plus zero. Sorted and
/// deduplicated.
fn collect_landmarks(kernel: &Kernel) -> Vec<i32> {
    let mut out = vec![0];
    for (_, ins) in kernel.iter_instrs() {
        if matches!(ins.op, Opcode::Setp(_)) {
            for op in &ins.srcs {
                if let Some(k) = op.const_bits() {
                    let k = k as i32;
                    out.push(k);
                    out.extend(k.checked_sub(1));
                    out.extend(k.checked_add(1));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the abstract interpreter to a fixpoint and records per-instruction
/// facts for every reachable block.
///
/// Loops converge through widening (interval bounds escape to ±∞ after a
/// few visits); an iteration cap backstops pathological CFGs by falling
/// back to the trivially sound top state.
///
/// Each sweep visits the blocks in layout order but interprets only the
/// *dirty* ones: blocks whose entry state was first set or changed by a
/// join, or whose divergence flag flipped, since they were last
/// interpreted. Skipping a clean block is exact, not an approximation.
/// Interpreting a block and refining its out-edges are pure functions of
/// its entry state and divergence flag, so a clean block would reproduce
/// its previous out-edge states, and would mark only divergence flags it
/// already set. Joining such a state into a successor again changes
/// nothing: once `join_from(e)` has run, a later `join_from(e)` returns
/// `false`, with or without widening, whatever other states were joined
/// in between. The sweep count, the widening counters, and every fact
/// are therefore the same as when every block is re-interpreted on every
/// sweep.
pub fn analyze(kernel: &Kernel, ctx: AbsCtx) -> AbsResults {
    let nb = kernel.blocks.len();
    let mut results = AbsResults {
        facts: kernel
            .blocks
            .iter()
            .map(|b| vec![InstrFacts::unreachable(); b.instrs.len()])
            .collect(),
        block_reachable: vec![false; nb],
        dead_edges: Vec::new(),
    };
    if nb == 0 {
        return results;
    }
    let nr = kernel.num_regs() as usize;
    let np = kernel.num_preds() as usize;
    let pdom = DomTree::post_dominators(kernel);
    let entry = kernel.entry();
    let landmarks = collect_landmarks(kernel);

    let mut in_env: Vec<Option<Env>> = vec![None; nb];
    in_env[entry.index()] = Some(Env::top(nr, np));
    let mut divergent = vec![false; nb];
    // Blocks whose entry state or divergence flag changed since they were
    // last interpreted (see the doc comment for why skipping the rest is
    // exact).
    let mut dirty = vec![false; nb];
    dirty[entry.index()] = true;
    // Divergence regions depend only on the CFG: computed once per block.
    let mut regions: Vec<Option<Vec<usize>>> = vec![None; nb];
    let mut visits = vec![0u32; nb];
    const WIDEN_AFTER: u32 = 4;
    let max_iters = 64 + 16 * nb;

    let mut iters = 0;
    let mut stable = false;
    while !stable && iters <= max_iters {
        iters += 1;
        stable = true;
        for bi in 0..nb {
            if !dirty[bi] {
                continue;
            }
            let Some(env0) = in_env[bi].clone() else {
                continue;
            };
            dirty[bi] = false;
            let id = BlockId::new(bi as u32);
            let mut env = env0;
            run_block(kernel, ctx, id, &mut env, divergent[bi], None);
            if branch_diverges(kernel, id, &env) {
                let region =
                    regions[bi].get_or_insert_with(|| divergence_region(kernel, &pdom, id));
                for &r in region.iter() {
                    if !divergent[r] {
                        divergent[r] = true;
                        dirty[r] = true;
                        stable = false;
                    }
                }
            }
            for (succ, taken) in out_edges(kernel, id) {
                let Some(e) = refine_edge(kernel, id, &env, taken) else {
                    continue;
                };
                let si = succ.index();
                match &mut in_env[si] {
                    None => {
                        in_env[si] = Some(e);
                        visits[si] += 1;
                        dirty[si] = true;
                        stable = false;
                    }
                    Some(cur) => {
                        if cur.join_from(&e, visits[si] >= WIDEN_AFTER, &landmarks) {
                            visits[si] += 1;
                            dirty[si] = true;
                            stable = false;
                        }
                    }
                }
            }
        }
    }
    if !stable {
        // The cap fired: fall back to the trivially sound answer — every
        // CFG-reachable block gets the top state and counts as divergent.
        let mut stack = vec![entry];
        let mut seen = vec![false; nb];
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            in_env[n.index()] = Some(Env::top(nr, np));
            stack.extend(kernel.successors(n));
        }
        for (i, d) in divergent.iter_mut().enumerate() {
            *d = seen[i];
        }
    }

    // Final pass: record facts and collect dead edges from the fixpoint.
    for bi in 0..nb {
        let Some(env0) = in_env[bi].clone() else {
            continue;
        };
        results.block_reachable[bi] = true;
        let id = BlockId::new(bi as u32);
        let mut env = env0;
        run_block(
            kernel,
            ctx,
            id,
            &mut env,
            divergent[bi],
            Some(&mut results.facts[bi]),
        );
        for (succ, taken) in out_edges(kernel, id) {
            if refine_edge(kernel, id, &env, taken).is_none() {
                results.dead_edges.push(DeadEdge {
                    from: id,
                    to: succ,
                    taken,
                });
            }
        }
    }
    results
}

pub mod last_use {
    //! Compiler-assisted last-use hints (Abaie Shoushtary 2023 direction):
    //! operand reads that provably observe an in-strand *guarded*
    //! definition under the same guard, rather than the value flowing in
    //! from outside. Such *covered* reads are not upward-exposed uses, so
    //! a refined liveness can mark strictly more reads dead-after-read and
    //! the allocator can keep the value out of the MRF entirely.
    //!
    //! Coverage is deliberately strand-local (the map resets at every
    //! `ends_strand` instruction): the allocator's per-strand value
    //! machinery may only attach a covered read to a definition in the
    //! *same* strand, since inter-strand communication must go through the
    //! MRF (paper §4.1). Callers must therefore run strand marking before
    //! [`analyze`].

    use std::collections::HashMap;

    use rfh_isa::{InstrRef, Kernel, PredReg, Reg};

    use crate::liveness::{annotate_dead_excluding, ExcludedReads, Liveness};

    /// Last-use hints for one kernel: the covered reads, the matching
    /// excluded-read set, and the refined liveness built with it.
    #[derive(Debug, Clone)]
    pub struct LastUseHints {
        /// Covered reads, `(read instruction, source-operand index)` →
        /// the covering in-strand guarded definition.
        pub covered: HashMap<(InstrRef, usize), InstrRef>,
        /// The covered reads as a liveness exclusion set.
        pub excluded: ExcludedReads,
        /// Liveness computed with the covered reads excluded from `gen`.
        pub liveness: Liveness,
    }

    impl LastUseHints {
        /// Rewrites the kernel's `dead_after` flags under the refined
        /// liveness: covered reads no longer keep their register live, so
        /// strictly more reads are marked as last uses.
        pub fn apply_dead_flags(&self, kernel: &mut Kernel) {
            annotate_dead_excluding(kernel, &self.liveness, &self.excluded);
        }
    }

    /// Computes last-use hints. Requires `ends_strand` bits to be present
    /// (run `strand::mark_strands` first); without them, coverage would
    /// leak across strand boundaries and the hints would be unsound for
    /// the allocator.
    pub fn analyze(kernel: &Kernel) -> LastUseHints {
        let mut covered: HashMap<(InstrRef, usize), InstrRef> = HashMap::new();
        for b in &kernel.blocks {
            // Registers whose current value was written by a guarded def
            // in this block and strand, keyed by the exact guard.
            let mut cover: HashMap<Reg, (PredReg, bool, InstrRef)> = HashMap::new();
            for (index, ins) in b.instrs.iter().enumerate() {
                let at = InstrRef { block: b.id, index };
                if let Some(g) = ins.guard {
                    for (slot, r) in ins.reg_srcs() {
                        if let Some((pp, neg, site)) = cover.get(&r) {
                            if *pp == g.reg && *neg == g.negated {
                                covered.insert((at, slot.index()), *site);
                            }
                        }
                    }
                }
                match ins.guard {
                    Some(g) => {
                        for r in ins.def_regs() {
                            cover.insert(r, (g.reg, g.negated, at));
                        }
                    }
                    None => {
                        for r in ins.def_regs() {
                            cover.remove(&r);
                        }
                    }
                }
                // Redefining the predicate breaks the guard equivalence.
                if let Some(p) = ins.pdst {
                    cover.retain(|_, (pp, _, _)| *pp != p);
                }
                // Inter-strand values go through the MRF: never cover
                // across a strand endpoint.
                if ins.ends_strand {
                    cover.clear();
                }
            }
        }
        let excluded: ExcludedReads = covered.keys().copied().collect();
        let liveness = Liveness::compute_excluding(kernel, &excluded);
        LastUseHints {
            covered,
            excluded,
            liveness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::parse_kernel;
    use rfh_testkit::prelude::*;

    fn at(b: u32, i: usize) -> InstrRef {
        InstrRef {
            block: BlockId::new(b),
            index: i,
        }
    }

    fn ctx256() -> AbsCtx {
        AbsCtx {
            threads_per_cta: Some(256),
            ctas: Some(4),
        }
    }

    #[test]
    fn constant_folding_chain() {
        let k = parse_kernel(
            "
.kernel cf
BB0:
  mov r0, 5
  iadd r1 r0, 6
  shl r2 r1, 2
  imad r3 r2, 2, r1
  st.global r0, r3
  exit
",
        )
        .unwrap();
        let r = analyze(&k, AbsCtx::default());
        assert_eq!(r.fact(at(0, 1)).dst.unwrap().as_const(), Some(11));
        assert_eq!(r.fact(at(0, 2)).dst.unwrap().as_const(), Some(44));
        assert_eq!(r.fact(at(0, 3)).dst.unwrap().as_const(), Some(99));
        assert!(r.fact(at(0, 3)).dst.unwrap().uniform);
    }

    #[test]
    fn tid_affine_and_shift_uniformity() {
        let k = parse_kernel(
            "
.kernel tu
BB0:
  mov r0, %tid.x
  shr r1 r0, 5
  and r2 r0, 31
  and r3 r0, -32
  iadd r4 r0, r0
  st.global r0, r4
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        let tid = r.fact(at(0, 0)).dst.unwrap();
        assert_eq!((tid.lo, tid.hi), (0, 255));
        assert_eq!(tid.affine, Some((1, 0)));
        assert!(!tid.uniform);
        // tid >> 5 is the warp id: warp-uniform.
        assert!(r.fact(at(0, 1)).dst.unwrap().uniform);
        // tid & 31 is the lane id: bounded but divergent.
        let lane = r.fact(at(0, 2)).dst.unwrap();
        assert!(!lane.uniform);
        assert_eq!((lane.lo, lane.hi), (0, 31));
        // tid & ~31 masks away the lane bits: warp-uniform.
        assert!(r.fact(at(0, 3)).dst.unwrap().uniform);
        // tid + tid = 2·tid, still affine.
        assert_eq!(r.fact(at(0, 4)).dst.unwrap().affine, Some((2, 0)));
    }

    #[test]
    fn branch_edges_narrow_intervals() {
        let k = parse_kernel(
            "
.kernel nr
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 10
  @p0 bra BB2
BB1:
  st.global r0, r0
  exit
BB2:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        // Fall-through: the compare failed, so r0 >= 10.
        let fall = r.fact(at(1, 0)).srcs[0];
        assert_eq!((fall.lo, fall.hi), (10, 255));
        // Taken: r0 < 10.
        let taken = r.fact(at(2, 0)).srcs[0];
        assert_eq!((taken.lo, taken.hi), (0, 9));
        assert!(r.dead_edges.is_empty());
    }

    #[test]
    fn counted_loop_converges_to_trip_bounds() {
        let k = parse_kernel(
            "
.kernel lp
BB0:
  mov r0, 0
BB1:
  iadd r0 r0, 1
  setp.lt p0 r0, 10
  @p0 bra BB1
BB2:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let r = analyze(&k, AbsCtx::default());
        // In the body, r0 ∈ [0, 9] (entry 0, backedge narrowed to < 10).
        let body = r.fact(at(1, 0)).srcs[0];
        assert_eq!((body.lo, body.hi), (0, 9));
        // After the loop, r0 ∈ [1, 10] and the compare failed.
        let after = r.fact(at(2, 0)).srcs[0];
        assert_eq!((after.lo, after.hi), (10, 10));
    }

    #[test]
    fn widening_terminates_unbounded_loop() {
        let k = parse_kernel(
            "
.kernel wd
BB0:
  mov r0, 0
  mov r1, %tid.x
BB1:
  iadd r0 r0, 1
  setp.lt p0 r0, r1
  @p0 bra BB1
BB2:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let r = analyze(&k, AbsCtx::default());
        // No constant bound: widening must still terminate with lo >= 0
        // never provable after the widening jump — just check sanity.
        let body = r.fact(at(1, 0)).srcs[0];
        assert!(body.lo <= 0 && body.hi >= 1, "{body:?}");
    }

    #[test]
    fn dead_edge_detection() {
        let k = parse_kernel(
            "
.kernel de
BB0:
  mov r0, 3
  setp.lt p0 r0, 10
  @p0 bra BB2
BB1:
  st.global r0, r0
  exit
BB2:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let r = analyze(&k, AbsCtx::default());
        assert!(!r.block_reachable[1], "fall-through is dead");
        assert!(r.block_reachable[2]);
        assert_eq!(
            r.dead_edges,
            vec![DeadEdge {
                from: BlockId::new(0),
                to: BlockId::new(1),
                taken: false,
            }]
        );
    }

    #[test]
    fn divergence_kills_uniformity_at_join() {
        let k = parse_kernel(
            "
.kernel dv
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 10
  @p0 bra BB2
BB1:
  mov r1, 5
  bra BB3
BB2:
  mov r1, 7
BB3:
  mov r2, r1
  st.global r0, r2
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        // Each side writes a constant, but the branch diverges: the merged
        // value must not be claimed warp-uniform.
        let merged = r.fact(at(3, 0)).dst.unwrap();
        assert!(!merged.uniform, "{merged:?}");
        assert_eq!((merged.lo, merged.hi), (5, 7));
    }

    #[test]
    fn uniform_branch_keeps_uniformity_at_join() {
        let k = parse_kernel(
            "
.kernel uv
BB0:
  mov r0, %ctaid.x
  setp.lt p0 r0, 2
  @p0 bra BB2
BB1:
  mov r1, 5
  bra BB3
BB2:
  mov r1, 7
BB3:
  mov r2, r1
  st.global r2, r2
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        // The guard is warp-uniform (ctaid-derived): the whole warp takes
        // one side, so the merged value is warp-uniform.
        assert!(r.fact(at(0, 2)).guard.unwrap().uniform);
        let merged = r.fact(at(3, 0)).dst.unwrap();
        assert!(merged.uniform, "{merged:?}");
    }

    #[test]
    fn late_divergence_reaches_blocks_with_unchanged_entry_state() {
        // The loop branch at BB1 is uniform on the first sweep and turns
        // divergent once the backedge brings in a tid-dependent r2. BB3 is
        // deep in its region: BB2 overwrites everything that changed, so
        // BB3's entry state is the same on both sweeps and only its
        // divergence flag flips. It must still be re-interpreted, or the
        // constant it writes would reach the join as warp-uniform.
        let k = parse_kernel(
            "
.kernel late
BB0:
  mov r1, %tid.x
  mov r2, %ctaid.x
  mov r6, 9
BB1:
  setp.lt p0 r2, 1
  @p0 bra BB4
BB2:
  mov r2, r1
  setp.lt p0 r2, 5
BB3:
  mov r6, 9
BB4:
  mov r7, r6
  iadd r2 r2, r1
  setp.lt p1 r2, 100
  @p1 bra BB1
BB5:
  st.global r2, r7
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        assert!(!r.fact(at(1, 1)).guard.unwrap().uniform);
        let joined = r.fact(at(4, 0)).srcs[0];
        assert!(!joined.uniform, "{joined:?}");
        assert_eq!(joined.as_const(), Some(9));
    }

    #[test]
    fn guarded_exit_filters_survivors() {
        let k = parse_kernel(
            "
.kernel ge
BB0:
  mov r0, %tid.x
  setp.ge p0 r0, 128
  @p0 exit
  @p0 mov r1, 1
  @!p0 mov r2, 2
  st.global r0, r2
  exit
",
        )
        .unwrap();
        let r = analyze(&k, ctx256());
        // After `@p0 exit`, survivors have p0 == false.
        assert!(!r.fact(at(0, 3)).reachable, "@p0 instr never executes");
        assert!(r.fact(at(0, 4)).reachable, "@!p0 instr always executes");
    }

    #[test]
    fn interval_transfer_is_sound_on_concrete_samples() {
        // Pointwise soundness of the binary transfer functions: for
        // sampled concrete operands inside sampled intervals, the result
        // of the mirrored evaluator stays inside the abstract result.
        let samples: [i32; 7] = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        let ops = [
            Opcode::IAdd,
            Opcode::ISub,
            Opcode::IMul,
            Opcode::IMin,
            Opcode::IMax,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Shl,
            Opcode::Shr,
        ];
        for &xa in &samples {
            for &xb in &samples {
                for &ya in &samples {
                    for &yb in &samples {
                        if xa > xb || ya > yb {
                            continue;
                        }
                        let a = AbsVal {
                            lo: xa,
                            hi: xb,
                            affine: None,
                            uniform: false,
                        };
                        let b = AbsVal {
                            lo: ya,
                            hi: yb,
                            affine: None,
                            uniform: false,
                        };
                        for op in ops {
                            let f = alu_fact(op, &[a, b, AbsVal::TOP]);
                            // Concrete operands at the interval corners.
                            for (x, y) in [(xa, ya), (xa, yb), (xb, ya), (xb, yb)] {
                                let v = eval_alu(op, x as u32, y as u32, 0).unwrap() as i32;
                                assert!(
                                    f.lo <= v && v <= f.hi,
                                    "{op:?} [{xa},{xb}]x[{ya},{yb}] -> {v} not in [{},{}]",
                                    f.lo,
                                    f.hi
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_by_cmp_edge_cases() {
        let v = AbsVal {
            lo: 0,
            hi: 10,
            affine: None,
            uniform: false,
        };
        let n = narrow_by_cmp(v, CmpOp::Lt, 5, true).unwrap();
        assert_eq!((n.lo, n.hi), (0, 4));
        let n = narrow_by_cmp(v, CmpOp::Lt, 5, false).unwrap();
        assert_eq!((n.lo, n.hi), (5, 10));
        assert!(narrow_by_cmp(v, CmpOp::Gt, 10, true).is_none());
        let n = narrow_by_cmp(v, CmpOp::Eq, 7, true).unwrap();
        assert_eq!(n.as_const(), Some(7));
        // x < i32::MIN is unsatisfiable, not a wrap.
        assert!(narrow_by_cmp(v, CmpOp::Lt, i32::MIN, true).is_none());
        let single = AbsVal {
            lo: 3,
            hi: 3,
            affine: None,
            uniform: false,
        };
        assert!(narrow_by_cmp(single, CmpOp::Ne, 3, true).is_none());
    }

    #[test]
    fn last_use_covers_same_guard_chain() {
        let mut k = parse_kernel(
            "
.kernel lu
BB0:
  mov r5, %tid.x
  setp.lt p0 r5, 8
  @p0 ld.shared r6 r5
  @p0 fadd r8 r6, r6
  @p0 st.shared r5, r8
  exit
",
        )
        .unwrap();
        crate::strand::mark_strands(&mut k);
        let hints = last_use::analyze(&k);
        // The @p0 reads of r6 and r8 observe the in-strand @p0 defs.
        assert_eq!(hints.covered.get(&(at(0, 3), 0)), Some(&at(0, 2)));
        assert_eq!(hints.covered.get(&(at(0, 3), 1)), Some(&at(0, 2)));
        assert_eq!(hints.covered.get(&(at(0, 4), 1)), Some(&at(0, 3)));
        // The unguarded read of r5 by the setp is not covered.
        assert!(!hints.covered.contains_key(&(at(0, 1), 0)));
        // Refined liveness: r6 is no longer live-in (its only reads are
        // covered); r5 still is.
        assert!(!hints.liveness.live_in[0].contains(rfh_isa::Reg::new(6)));
    }

    #[test]
    fn last_use_respects_strand_and_pred_boundaries() {
        let mut k = parse_kernel(
            "
.kernel lb
BB0:
  setp.lt p0 r0, 8
  @p0 mov r1, 1
  setp.lt p0 r0, 4
  @p0 iadd r2 r1, 1
  @p0 mov r3, 2
  ld.global r4 r0
  @p0 iadd r5 r3, r4
  exit
",
        )
        .unwrap();
        crate::strand::mark_strands(&mut k);
        let hints = last_use::analyze(&k);
        // The read of r1 at index 3 follows a redefinition of p0: the
        // guard equivalence is broken, no coverage.
        assert!(!hints.covered.contains_key(&(at(0, 3), 0)));
        // The read of r3 at index 6 crosses the long-latency strand split
        // before it (consumer of r4): no coverage across strands.
        assert!(!hints.covered.contains_key(&(at(0, 6), 0)));
    }

    /// Interval bounds worth drawing: the extremes, zero, and small
    /// values on both sides, so joins both grow and keep bounds.
    const BOUNDS: [i32; 9] = [i32::MIN, -100, -7, -1, 0, 1, 7, 100, i32::MAX];

    fn arb_absval() -> impl Strategy<Value = AbsVal> {
        (
            0..BOUNDS.len(),
            0..BOUNDS.len(),
            rfh_testkit::option::of((-2i32..3, -40i32..40)),
            any::<bool>(),
        )
            .prop_map(|(a, b, affine, uniform)| AbsVal {
                lo: BOUNDS[a.min(b)],
                hi: BOUNDS[a.max(b)],
                affine,
                uniform,
            })
    }

    fn arb_predabs() -> impl Strategy<Value = PredAbs> {
        (any::<bool>(), rfh_testkit::option::of(any::<bool>()))
            .prop_map(|(uniform, known)| PredAbs { uniform, known })
    }

    /// Three environments of equal shape, built column by column.
    fn arb_envs() -> impl Strategy<Value = (Env, Env, Env)> {
        (
            rfh_testkit::collection::vec((arb_absval(), arb_absval(), arb_absval()), 1..6),
            rfh_testkit::collection::vec((arb_predabs(), arb_predabs(), arb_predabs()), 1..4),
        )
            .prop_map(|(regs, preds)| {
                let env = |i: usize| Env {
                    regs: regs.iter().map(|r| [r.0, r.1, r.2][i]).collect(),
                    preds: preds.iter().map(|p| [p.0, p.1, p.2][i]).collect(),
                };
                (env(0), env(1), env(2))
            })
    }

    fn arb_landmarks() -> impl Strategy<Value = Vec<i32>> {
        rfh_testkit::collection::vec(-150i32..150, 0..6).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    prop! {
        /// The invariant that lets `analyze` skip clean blocks: joining
        /// the same state a second time changes nothing, with or without
        /// widening, even when other states were joined in between.
        fn repeated_join_is_a_no_op(
            envs in arb_envs(),
            widen in any::<bool>(),
            widen_between in any::<bool>(),
            landmarks in arb_landmarks(),
        ) {
            let (mut cur, e, other) = envs;
            cur.join_from(&e, widen, &landmarks);
            let settled = cur.clone();
            prop_assert!(!cur.join_from(&e, widen, &landmarks), "second join changed {settled:?}");
            prop_assert_eq!(&cur, &settled);
            cur.join_from(&other, widen_between, &landmarks);
            let grown = cur.clone();
            prop_assert!(!cur.join_from(&e, widen, &landmarks), "re-join after growth changed {grown:?}");
            prop_assert!(!cur.join_from(&e, !widen, &landmarks), "re-join changed {grown:?}");
        }
    }

    #[test]
    fn unreachable_blocks_have_unreachable_facts() {
        let k = parse_kernel(
            "
.kernel ur
BB0:
  mov r0, 1
  bra BB2
BB1:
  iadd r1 r0, 1
BB2:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let r = analyze(&k, AbsCtx::default());
        assert!(r.block_reachable[0]);
        assert!(!r.block_reachable[1]);
        assert!(r.block_reachable[2]);
        assert!(!r.fact(at(1, 0)).reachable);
    }
}
