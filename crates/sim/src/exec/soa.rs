//! The warp-batched structure-of-arrays executor (the default engine).
//!
//! The paper's premise (§4) is that register accesses are statically
//! resolvable at compile time — which means the simulator can resolve
//! them *once per kernel* instead of once per executed lane. A decode
//! pass lowers every instruction into a flat [`DecodedOp`] table:
//!
//! * each source operand becomes a [`SrcOp`] — a pre-folded constant, a
//!   special-register tag, or the register's slab row;
//! * the destination becomes a [`DstPlan`] — the slab rows receiving the
//!   low word and, for a 64-bit value, the high word;
//! * branch targets, fall-throughs, and ipdom reconvergence points are
//!   pre-normalized flat PCs (`validate` guarantees non-empty blocks, so
//!   `pc + 1` *is* the legacy `normalize`);
//! * the instruction's [`AccessPlan`] is resolved once and handed to
//!   every [`TraceSink`] by reference, instead of each sink re-resolving
//!   it per event.
//!
//! Warp state is lane-major: one contiguous `u32` slab holds the register
//! rows (register `r`, lane `l` lives at `r * width + l`), and predicates
//! are per-register 32-bit lane masks. The hot loop dispatches once per
//! warp instruction, never per lane, in three steps:
//!
//! 1. **gather** — each source operand is read into a 32-lane array once:
//!    a slab row copy, a broadcast constant, or one special-register loop;
//! 2. **per-opcode loop** — the opcode is matched outside the lane loop,
//!    and each arm runs a loop over the gathered arrays that calls
//!    [`eval_alu`] (or [`eval_cmp`]) with a constant opcode, so the match
//!    folds away and the loop can vectorize; `setp`/`fsetp` yields a lane
//!    mask from one comparison loop, `sel` blends by the predicate mask;
//! 3. **masked commit** — the result lands in the destination row under
//!    the exec mask: a row copy for a full mask, a masked blend otherwise.
//!
//! Memory ops take their addresses and values from the gathered arrays
//! but access memory lane by lane in lane order, so the first failing lane
//! raises the error with earlier lanes' effects in place. There is no
//! per-lane operand matching, no per-step block scan and no
//! per-instruction allocation.
//!
//! Both execution modes compute the same values. In hierarchy mode each
//! warp also steps a [`Tags`] state before each instruction executes,
//! which checks the placements (see [`super::tags`]).
//!
//! Semantics are pinned to the frozen reference interpreter in the
//! test-only `rfh-oracle` crate by the differential conformance suite;
//! see `rfh_oracle::exec` for the oracle contract.

use rfh_analysis::DomTree;
use rfh_isa::access::AccessPlan;
use rfh_isa::{CmpOp, InstrRef, Instruction, Kernel, Opcode, Operand, Reg, Space, Special, Width};

use super::tags::{TagPlan, Tags};
use super::{eval_alu, eval_cmp, ExecError, ExecMode, ExecReport, Launch, Phase};
use crate::machine::MachineConfig;
use crate::mem::{GlobalMemory, SharedMemory};
use crate::sink::{InstrEvent, TraceSink};

/// One pre-decoded source operand.
#[derive(Debug, Clone, Copy)]
pub(super) enum SrcOp {
    /// Absent operand slot (reads as zero, matching the reference
    /// interpreter's implicit zero for missing B/C operands).
    Zero,
    /// A constant, pre-folded from an integer or float immediate.
    Const(u32),
    /// A special register, computed per lane at execution.
    Special(Special),
    /// A register's slab row: the lane's value is `data[base + lane]`.
    Slab(u32),
}

/// The slab rows a destination write touches, resolved at decode time:
/// the low word's row, and the high word's for a 64-bit value (both
/// `None` without a destination).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct DstPlan {
    lo: Option<u32>,
    hi: Option<u32>,
}

/// The dispatch class of a decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(super) enum OpKind {
    /// Default-datapath ALU op, evaluated by [`alu_lanes`]. An opcode
    /// without ALU semantics is an error raised once, and only when at
    /// least one lane actually executes (the reference interpreter's rule).
    Alu,
    /// An ALU-class op with a 64-bit destination: rejected at issue, even
    /// fully predicated off (matching the reference interpreter).
    AluWide,
    /// A branch with pre-normalized flat targets.
    Bra {
        target: u32,
        fall: u32,
        reconv: Option<u32>,
    },
    Exit,
    Bar,
    St(Space),
    Ld(Space),
    Tex,
    Setp {
        cmp: CmpOp,
        float: bool,
        p: usize,
    },
    Sel {
        p: usize,
    },
}

/// One instruction, lowered for dispatch.
#[derive(Debug, Clone)]
pub(super) struct DecodedOp<'k> {
    pub(super) kind: OpKind,
    op: Opcode,
    pub(super) at: InstrRef,
    pub(super) instr: &'k Instruction,
    guard: Option<(usize, bool)>,
    pub(super) srcs: [SrcOp; 3],
    dst: DstPlan,
    /// Resolved once here; handed to every sink by reference.
    pub(super) plan: AccessPlan,
}

/// The decoded kernel: a flat op table plus the slab geometry shared by
/// every warp of the launch.
pub(super) struct DecodedKernel<'k> {
    pub(super) ops: Vec<DecodedOp<'k>>,
    num_preds: usize,
    /// Length of a warp's register slab: one row per register.
    pub(super) slab_len: usize,
    pub(super) width: usize,
}

pub(super) fn decode<'k>(
    kernel: &'k Kernel,
    ipdom: &DomTree,
    machine: &MachineConfig,
) -> DecodedKernel<'k> {
    let width = machine.warp_width;
    let num_preds = kernel.num_preds().max(1) as usize;
    let slab_len = kernel.num_regs().max(1) as usize * width;

    // Flat-PC table: block b starts at block_start[b]. `validate`
    // guarantees every block is non-empty, so advancing a flat pc by one
    // is exactly the reference interpreter's `normalize(kernel, (b, i+1))`
    // and the table is never indexed past its end (the last flat op is an
    // unguarded `exit` or `bra`).
    let block_start = kernel.block_starts();
    let mut ops: Vec<DecodedOp<'k>> = Vec::with_capacity(kernel.instr_count());
    for (at, instr) in kernel.iter_instrs() {
        let flat = ops.len() as u32;

        let mut srcs = [SrcOp::Zero; 3];
        for (slot, operand) in instr.srcs.iter().enumerate().take(3) {
            srcs[slot] = match *operand {
                Operand::Special(s) => SrcOp::Special(s),
                Operand::Reg(r) => SrcOp::Slab((r.index() as usize * width) as u32),
                c => SrcOp::Const(c.const_bits().expect("imm or fbits")),
            };
        }

        let dst = instr.dst.map_or(DstPlan::default(), |d| {
            let row = d.reg.index() as usize * width;
            DstPlan {
                lo: Some(row as u32),
                hi: (d.width == Width::W64).then_some((row + width) as u32),
            }
        });

        let kind = match instr.op {
            Opcode::Bra => OpKind::Bra {
                target: block_start[instr.target.expect("validated").index()] as u32,
                fall: flat + 1,
                reconv: ipdom.idom(at.block).map(|b| block_start[b.index()] as u32),
            },
            Opcode::Exit => OpKind::Exit,
            Opcode::Bar => OpKind::Bar,
            Opcode::St(space) => OpKind::St(space),
            Opcode::Ld(space) => OpKind::Ld(space),
            Opcode::Tex => OpKind::Tex,
            Opcode::Setp(cmp) => OpKind::Setp {
                cmp,
                float: false,
                p: instr.pdst.expect("validated").index() as usize,
            },
            Opcode::FSetp(cmp) => OpKind::Setp {
                cmp,
                float: true,
                p: instr.pdst.expect("validated").index() as usize,
            },
            Opcode::Sel => OpKind::Sel {
                p: instr.psrc.expect("validated").index() as usize,
            },
            _ => {
                if instr.dst.is_some_and(|d| d.width == Width::W64) {
                    OpKind::AluWide
                } else {
                    OpKind::Alu
                }
            }
        };

        ops.push(DecodedOp {
            kind,
            op: instr.op,
            at,
            instr,
            guard: instr.guard.map(|g| (g.reg.index() as usize, g.negated)),
            srcs,
            dst,
            plan: AccessPlan::resolve(instr),
        });
    }

    DecodedKernel {
        ops,
        num_preds,
        slab_len,
        width,
    }
}

#[derive(Debug, Clone, Copy)]
struct Token {
    pc: u32,
    mask: u32,
    reconv: Option<u32>,
}

/// Resumable per-warp execution state: lane-major register slab,
/// predicate lane masks, the divergence token stack, and in hierarchy mode
/// the placement tags.
struct SoaWarp {
    warp_in_cta: usize,
    lanes: usize,
    data: Vec<u32>,
    tags: Option<Tags>,
    preds: Vec<u32>,
    stack: Vec<Token>,
    exited: u32,
    steps: u64,
    done: bool,
}

/// Launch-wide values the lane loops need for special registers.
struct LaneCtx<'a> {
    launch: &'a Launch,
    cta: usize,
    warp: usize,
    warp_in_cta: usize,
}

impl LaneCtx<'_> {
    #[inline]
    fn special(&self, s: Special, lane: usize) -> u32 {
        match s {
            Special::TidX => (self.warp_in_cta * 32 + lane) as u32,
            Special::CtaIdX => self.cta as u32,
            Special::NTidX => self.launch.threads_per_cta as u32,
            Special::NCtaIdX => self.launch.ctas as u32,
            Special::LaneId => lane as u32,
            Special::WarpId => self.warp_in_cta as u32,
        }
    }
}

/// Lanes per gathered operand array. Lane masks are `u32`, so a warp has
/// at most 32 lanes.
const WARP: usize = 32;

/// One operand or result value per lane of a warp instruction.
type Lanes = [u32; WARP];

/// Reads source operands for every lane, slot by slot into `out`: a slab
/// row copy, a broadcast constant, or one special-register loop. Entries
/// at and past `lanes` of a row copy keep whatever they held; no commit
/// reads them.
#[inline]
fn gather(srcs: &[SrcOp], data: &[u32], ctx: &LaneCtx<'_>, lanes: usize, out: &mut [Lanes; 3]) {
    for (&src, out) in srcs.iter().zip(out) {
        match src {
            SrcOp::Zero => *out = [0; WARP],
            SrcOp::Const(v) => *out = [v; WARP],
            SrcOp::Special(s) => {
                for (lane, v) in out.iter_mut().enumerate() {
                    *v = ctx.special(s, lane);
                }
            }
            SrcOp::Slab(base) => {
                let base = base as usize;
                out[..lanes].copy_from_slice(&data[base..base + lanes]);
            }
        }
    }
}

/// Runs `f` over every lane of the gathered sources.
#[inline(always)]
fn map_lanes(out: &mut Lanes, [a, b, c]: &[Lanes; 3], f: impl Fn(u32, u32, u32) -> u32) {
    for lane in 0..WARP {
        out[lane] = f(a[lane], b[lane], c[lane]);
    }
}

/// Evaluates `op` on every lane of the gathered sources into `out`, or
/// returns `None` when `op` has no ALU semantics (exactly where
/// [`eval_alu`] returns `None`). The opcode is matched once here; each arm
/// calls [`eval_alu`] with a constant opcode, so its match folds away
/// inside the lane loop.
fn alu_lanes(op: Opcode, srcs: &[Lanes; 3], out: &mut Lanes) -> Option<()> {
    use rfh_isa::SfuOp;
    macro_rules! arms {
        ($([$($o:tt)+]),* $(,)?) => {
            match op {
                $($($o)+ => map_lanes(out, srcs, |a, b, c| {
                    eval_alu($($o)+, a, b, c).unwrap_or(0)
                }),)*
                _ => return None,
            }
        };
    }
    arms!(
        [Opcode::IAdd],
        [Opcode::ISub],
        [Opcode::IMul],
        [Opcode::IMad],
        [Opcode::IMin],
        [Opcode::IMax],
        [Opcode::And],
        [Opcode::Or],
        [Opcode::Xor],
        [Opcode::Shl],
        [Opcode::Shr],
        [Opcode::FAdd],
        [Opcode::FSub],
        [Opcode::FMul],
        [Opcode::FFma],
        [Opcode::FMin],
        [Opcode::FMax],
        [Opcode::Mov],
        [Opcode::I2F],
        [Opcode::F2I],
        [Opcode::Sfu(SfuOp::Rcp)],
        [Opcode::Sfu(SfuOp::Rsqrt)],
        [Opcode::Sfu(SfuOp::Sqrt)],
        [Opcode::Sfu(SfuOp::Sin)],
        [Opcode::Sfu(SfuOp::Cos)],
        [Opcode::Sfu(SfuOp::Ex2)],
        [Opcode::Sfu(SfuOp::Lg2)],
    );
    Some(())
}

/// The lane mask of `eval_cmp(cmp, float, a, b)` over every lane, from one
/// comparison loop per `(cmp, float)` pair with both folded in.
fn cmp_lanes(cmp: CmpOp, float: bool, a: &Lanes, b: &Lanes) -> u32 {
    #[inline(always)]
    fn mask(a: &Lanes, b: &Lanes, f: impl Fn(u32, u32) -> bool) -> u32 {
        let mut m = 0u32;
        for lane in 0..WARP {
            m |= u32::from(f(a[lane], b[lane])) << lane;
        }
        m
    }
    macro_rules! arms {
        ($($c:ident)*) => {
            match (cmp, float) {
                $(
                    (CmpOp::$c, false) => mask(a, b, |x, y| eval_cmp(CmpOp::$c, false, x, y)),
                    (CmpOp::$c, true) => mask(a, b, |x, y| eval_cmp(CmpOp::$c, true, x, y)),
                )*
            }
        };
    }
    arms!(Eq Ne Lt Le Gt Ge)
}

/// Writes `vals` into a destination row under the exec mask (which has no
/// bit at or past `row.len()`): a row copy when every lane executes, a
/// masked blend otherwise.
#[inline]
fn commit(row: &mut [u32], vals: &Lanes, exec_mask: u32) {
    if exec_mask.count_ones() as usize == row.len() {
        row.copy_from_slice(&vals[..row.len()]);
    } else {
        for (lane, (d, &v)) in row.iter_mut().zip(vals).enumerate() {
            *d = if exec_mask >> lane & 1 != 0 { v } else { *d };
        }
    }
}

/// Commits a one-word result to `d`'s rows: `vals` to the low row and, for
/// a 64-bit destination, zero to the high row (the reference interpreter's
/// rule for one-word results).
#[inline]
fn commit_dst(data: &mut [u32], d: &DstPlan, lanes: usize, vals: &Lanes, exec_mask: u32) {
    if let Some(row) = d.lo {
        let row = row as usize;
        commit(&mut data[row..row + lanes], vals, exec_mask);
    }
    if let Some(row) = d.hi {
        let row = row as usize;
        commit(&mut data[row..row + lanes], &[0; WARP], exec_mask);
    }
}

/// The executing lanes of `mask`, lowest first: the reference
/// interpreter's lane order for memory accesses and their errors.
#[inline]
fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

#[inline]
fn write_lane(data: &mut [u32], d: &DstPlan, lane: usize, lo: u32, hi: u32) {
    if let Some(row) = d.lo {
        data[row as usize + lane] = lo;
    }
    if let Some(row) = d.hi {
        data[row as usize + lane] = hi;
    }
}

/// Runs a validated, placement-checked launch on the SoA engine. Called
/// by [`super::execute_with`]; [`super::check_launchable`] has already
/// run.
pub(crate) fn run(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    let ipdom = DomTree::post_dominators(kernel);
    let dk = decode(kernel, &ipdom, machine);
    let tag_plan = match &mode {
        ExecMode::Baseline => None,
        ExecMode::Hierarchy(cfg) => Some(TagPlan::new(&dk, cfg)),
    };
    let warps_per_cta = launch.threads_per_cta.div_ceil(machine.warp_width);
    let mut report = ExecReport::default();

    for cta in 0..launch.ctas {
        // Barrier-phased execution of the CTA's warps.
        let mut shared = SharedMemory::new(launch.shared_words);
        let mut warps: Vec<SoaWarp> = (0..warps_per_cta)
            .map(|warp_in_cta| {
                let lanes = (launch.threads_per_cta - warp_in_cta * machine.warp_width)
                    .min(machine.warp_width);
                let full_mask: u32 = if lanes == 32 {
                    u32::MAX
                } else {
                    (1u32 << lanes) - 1
                };
                SoaWarp {
                    warp_in_cta,
                    lanes,
                    data: vec![0u32; dk.slab_len],
                    tags: tag_plan.as_ref().map(Tags::new),
                    preds: vec![0; dk.num_preds],
                    stack: vec![Token {
                        pc: 0,
                        mask: full_mask,
                        reconv: None,
                    }],
                    exited: 0,
                    steps: 0,
                    done: false,
                }
            })
            .collect();
        while warps.iter().any(|w| !w.done) {
            for w in warps.iter_mut() {
                if w.done {
                    continue;
                }
                let ctx = LaneCtx {
                    launch,
                    cta,
                    warp: cta * warps_per_cta + w.warp_in_cta,
                    warp_in_cta: w.warp_in_cta,
                };
                let outcome = step_warp(
                    &dk,
                    tag_plan.as_ref(),
                    &ctx,
                    w,
                    memory,
                    &mut shared,
                    machine,
                    sinks,
                    &mut report,
                )?;
                if outcome == Phase::Done {
                    w.done = true;
                    for s in sinks.iter_mut() {
                        s.on_warp_done(ctx.warp);
                    }
                    report.warps += 1;
                }
            }
        }
    }
    Ok(report)
}

/// Runs one warp until its next barrier or completion.
///
/// Event order per instruction matches the reference interpreter exactly:
/// mask check → budget → guard → sinks → report counters → dispatch → pc
/// advance, with the placement tags stepped (and checked) just before
/// dispatch in hierarchy mode. Errors abort immediately, leaving earlier
/// lanes' effects in place, exactly as the oracle does.
#[allow(clippy::too_many_arguments)]
fn step_warp(
    dk: &DecodedKernel<'_>,
    tag_plan: Option<&TagPlan<'_>>,
    ctx: &LaneCtx<'_>,
    w: &mut SoaWarp,
    memory: &mut GlobalMemory,
    shared: &mut SharedMemory,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
    report: &mut ExecReport,
) -> Result<Phase, ExecError> {
    let lanes = w.lanes;
    let SoaWarp {
        data,
        tags,
        preds,
        stack,
        exited,
        steps,
        ..
    } = w;
    let data = data.as_mut_slice();
    // Gathered sources and the computed result of the current instruction.
    let mut srcs: [Lanes; 3] = [[0; WARP]; 3];
    let mut out: Lanes = [0; WARP];

    while let Some(tok) = stack.last_mut() {
        let mask = tok.mask & !*exited;
        if mask == 0 || Some(tok.pc) == tok.reconv {
            stack.pop();
            continue;
        }
        let op = &dk.ops[tok.pc as usize];
        *steps += 1;
        if *steps > machine.max_warp_instructions {
            return Err(ExecError::InstructionBudget { warp: ctx.warp });
        }

        // Evaluate the guard. Predicate lane masks only ever carry bits
        // below `lanes`, and so does `mask`, so the negated form is a
        // plain complement.
        let exec_mask = match op.guard {
            None => mask,
            Some((p, negated)) => {
                let pm = preds[p];
                mask & if negated { !pm } else { pm }
            }
        };

        for s in sinks.iter_mut() {
            s.on_instr(&InstrEvent {
                warp: ctx.warp,
                at: op.at,
                instr: op.instr,
                active_mask: mask,
                exec_mask,
                plan: &op.plan,
            });
        }
        report.warp_instructions += 1;
        report.thread_instructions += exec_mask.count_ones() as u64;

        if let (Some(plan), Some(tags)) = (tag_plan, tags.as_mut()) {
            tags.step(plan, tok.pc as usize, mask, exec_mask)?;
        }

        match op.kind {
            OpKind::Bra {
                target,
                fall,
                reconv,
            } => {
                let taken = exec_mask;
                let not_taken = mask & !taken;
                if not_taken == 0 {
                    tok.pc = target;
                } else if taken == 0 {
                    tok.pc = fall;
                } else {
                    match reconv {
                        Some(r) => {
                            tok.pc = r;
                            stack.push(Token {
                                pc: fall,
                                mask: not_taken,
                                reconv: Some(r),
                            });
                            stack.push(Token {
                                pc: target,
                                mask: taken,
                                reconv: Some(r),
                            });
                        }
                        None => {
                            // Paths never rejoin: run each side to exit.
                            tok.mask = 0;
                            stack.push(Token {
                                pc: fall,
                                mask: not_taken,
                                reconv: None,
                            });
                            stack.push(Token {
                                pc: target,
                                mask: taken,
                                reconv: None,
                            });
                        }
                    }
                }
                continue;
            }
            OpKind::Exit => {
                *exited |= exec_mask;
                if op.guard.is_none() {
                    stack.pop();
                } else {
                    tok.pc += 1;
                }
                continue;
            }
            OpKind::Bar => {
                // Yield to the CTA scheduler: every warp of the CTA
                // reaches this barrier before any proceeds past it.
                tok.pc += 1;
                return Ok(Phase::Barrier);
            }
            OpKind::AluWide => {
                return Err(ExecError::Unsupported {
                    what: format!("64-bit destination on `{}`", op.instr),
                    at: op.at,
                });
            }
            // With no executing lane, the ops below read and write nothing.
            _ if exec_mask == 0 => {}
            OpKind::Alu => {
                gather(&op.srcs, data, ctx, lanes, &mut srcs);
                alu_lanes(op.op, &srcs, &mut out).ok_or_else(|| ExecError::Unsupported {
                    what: format!("`{}` has no ALU semantics", op.op),
                    at: op.at,
                })?;
                commit_dst(data, &op.dst, lanes, &out, exec_mask);
            }
            OpKind::Setp { cmp, float, p } => {
                gather(&op.srcs[..2], data, ctx, lanes, &mut srcs);
                let m = cmp_lanes(cmp, float, &srcs[0], &srcs[1]);
                preds[p] = (preds[p] & !exec_mask) | (m & exec_mask);
            }
            OpKind::Sel { p } => {
                gather(&op.srcs[..2], data, ctx, lanes, &mut srcs);
                let pm = preds[p];
                let [a, b, _] = &srcs;
                for lane in 0..WARP {
                    out[lane] = if pm >> lane & 1 != 0 {
                        a[lane]
                    } else {
                        b[lane]
                    };
                }
                commit_dst(data, &op.dst, lanes, &out, exec_mask);
            }
            OpKind::St(space) => {
                gather(&op.srcs[..2], data, ctx, lanes, &mut srcs);
                for lane in lanes_of(exec_mask) {
                    let (addr, value) = (srcs[0][lane], srcs[1][lane]);
                    let ok = match space {
                        Space::Global | Space::Local => memory.store(addr, value),
                        Space::Shared => shared.store(addr, value),
                        Space::Param => false,
                    };
                    if !ok {
                        return Err(ExecError::OutOfBounds {
                            space: space.mnemonic(),
                            addr,
                            at: op.at,
                        });
                    }
                }
            }
            OpKind::Ld(space) => {
                gather(&op.srcs[..1], data, ctx, lanes, &mut srcs);
                let wide = op.dst.hi.is_some();
                let load_one = |a: u32| -> Result<u32, ExecError> {
                    let v = match space {
                        Space::Global | Space::Local => memory.load(a),
                        Space::Shared => shared.load(a),
                        Space::Param => ctx.launch.params.get(a as usize).copied(),
                    };
                    v.ok_or(ExecError::OutOfBounds {
                        space: space.mnemonic(),
                        addr: a,
                        at: op.at,
                    })
                };
                for lane in lanes_of(exec_mask) {
                    let addr = srcs[0][lane];
                    let lo = load_one(addr)?;
                    let hi = if wide {
                        load_one(addr.wrapping_add(1))?
                    } else {
                        0
                    };
                    write_lane(data, &op.dst, lane, lo, hi);
                }
            }
            OpKind::Tex => {
                gather(&op.srcs[..1], data, ctx, lanes, &mut srcs);
                for lane in lanes_of(exec_mask) {
                    let coord = srcs[0][lane];
                    let v = memory.load(coord).ok_or(ExecError::OutOfBounds {
                        space: "texture",
                        addr: coord,
                        at: op.at,
                    })?;
                    write_lane(data, &op.dst, lane, v, 0);
                }
            }
        }

        // Post-write observer hooks: hand the sinks the destination lane
        // values (and the new predicate lane mask) for the lanes that
        // executed; non-exec lanes are unspecified by the hook contract.
        if exec_mask != 0 && !sinks.is_empty() {
            if let Some(d) = op.instr.dst {
                let words = [(op.dst.lo, d.reg), (op.dst.hi, Reg::new(d.reg.index() + 1))];
                for (row, reg) in words {
                    let Some(base) = row.map(|r| r as usize) else {
                        continue;
                    };
                    for s in sinks.iter_mut() {
                        s.on_reg_write(ctx.warp, op.at, reg, &data[base..base + lanes], exec_mask);
                    }
                }
            }
            if let OpKind::Setp { p, .. } = op.kind {
                if let Some(pd) = op.instr.pdst {
                    for s in sinks.iter_mut() {
                        s.on_pred_write(ctx.warp, op.at, pd, preds[p], exec_mask);
                    }
                }
            }
        }

        tok.pc += 1;
    }
    Ok(Phase::Done)
}
