//! The warp-batched structure-of-arrays executor (the default engine).
//!
//! The paper's premise (§4) is that register accesses are statically
//! resolvable at compile time — which means the simulator can resolve
//! them *once per kernel* instead of once per executed lane. A decode
//! pass lowers every instruction into a flat [`DecodedOp`] table:
//!
//! * each source operand becomes a [`SrcOp`] — a pre-folded constant, a
//!   special-register tag, or a slab offset already routed through the
//!   placement annotations (MRF / ORF entry / LRF bank);
//! * the destination becomes a [`DstPlan`] — the exact list of slab rows
//!   receiving the low and high words, with the wide-write rules (ORF
//!   pairs occupy `entry` and `entry + 1`, the LRF drops the upper word)
//!   applied at decode time;
//! * branch targets, fall-throughs, and ipdom reconvergence points are
//!   pre-normalized flat PCs (`validate` guarantees non-empty blocks, so
//!   `pc + 1` *is* the legacy `normalize`);
//! * the instruction's [`AccessPlan`] is resolved once and handed to
//!   every [`TraceSink`] by reference, instead of each sink re-resolving
//!   it per event.
//!
//! Warp state is lane-major: one contiguous `u32` slab holds the MRF,
//! ORF, and LRF rows back to back (register `r`, lane `l` lives at
//! `r * width + l`), and predicates are per-register 32-bit lane masks.
//! The hot loop is then a dispatch over `ops[pc]` running short
//! contiguous lane loops — no per-lane operand matching, no per-step
//! block scans, no per-instruction allocation.
//!
//! Semantics are pinned to [`super::reference`] by the differential
//! conformance suite; see that module for the oracle contract.

use rfh_analysis::DomTree;
use rfh_isa::access::AccessPlan;
use rfh_isa::{
    CmpOp, InstrRef, Instruction, Kernel, Opcode, Operand, ReadLoc, Reg, Space, Special, Width,
    WriteLoc,
};

use super::{
    eval_alu, eval_cmp, lrf_bank_count, ExecError, ExecMode, ExecReport, Launch, Phase, POISON,
};
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
    /// A slab row: the lane's value is `data[base + lane]`. The base is
    /// already routed through the placement annotation for this slot.
    Slab(u32),
}

/// The slab rows a destination write touches, resolved at decode time.
///
/// `lo` rows receive the low word, `hi` rows the high word of a wide
/// write; each list holds at most two rows (upper level + MRF copy).
/// The wide-LRF rule is encoded here by construction: the LRF row only
/// ever appears in `lo`, so the upper word is dropped at the LRF and
/// reaches the MRF only through an `also_mrf` copy.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct DstPlan {
    pub(super) lo: [u32; 2],
    pub(super) n_lo: u8,
    pub(super) hi: [u32; 2],
    pub(super) n_hi: u8,
    wide: bool,
}

impl DstPlan {
    fn push_lo(&mut self, base: usize) {
        self.lo[self.n_lo as usize] = base as u32;
        self.n_lo += 1;
    }

    fn push_hi(&mut self, base: usize) {
        self.hi[self.n_hi as usize] = base as u32;
        self.n_hi += 1;
    }
}

/// A pre-decoded read-operand fill (§4.4): copy the MRF row at `reg_off`
/// into the ORF row at `orf_off` after the instruction executes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Fill {
    pub(super) orf_off: u32,
    pub(super) reg_off: u32,
    /// Whether the instruction's own destination write covers the filled
    /// entry — static per instruction, so the runtime collision rule
    /// (destination wins on executing lanes) is a pre-computed flag.
    pub(super) covered_by_dst: bool,
}

/// The dispatch class of a decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(super) enum OpKind {
    /// Default-datapath ALU op, evaluated by [`eval_alu`]. `ok` is
    /// pre-classified at decode ([`eval_alu`] returns `None` purely by
    /// opcode), so the lane loop never tests the `Option` — the
    /// unsupported-opcode error is raised once, and only when at least
    /// one lane actually executes (the reference interpreter's rule).
    Alu {
        ok: bool,
    },
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
    pub(super) dst: DstPlan,
    pub(super) fills: Vec<Fill>,
    pub(super) ends_strand: bool,
    /// Resolved once here; handed to every sink by reference.
    pub(super) plan: AccessPlan,
}

/// The decoded kernel: a flat op table plus the slab geometry shared by
/// every warp of the launch.
pub(super) struct DecodedKernel<'k> {
    pub(super) ops: Vec<DecodedOp<'k>>,
    num_preds: usize,
    pub(super) slab_len: usize,
    /// Start of the ORF+LRF region — everything from here up is poisoned
    /// at strand boundaries.
    pub(super) upper_base: usize,
    pub(super) hierarchy: bool,
    pub(super) width: usize,
}

impl DecodedKernel<'_> {
    /// Poisons the upper levels after `op` when it ends a strand in
    /// hierarchy mode — at *every* strand end, branches and exits included.
    #[inline]
    pub(super) fn end_strand(&self, op: &DecodedOp<'_>, data: &mut [u32]) {
        if self.hierarchy && op.ends_strand {
            data[self.upper_base..].fill(POISON);
        }
    }
}

pub(super) fn decode<'k>(
    kernel: &'k Kernel,
    mode: &ExecMode,
    ipdom: &DomTree,
    machine: &MachineConfig,
) -> DecodedKernel<'k> {
    let width = machine.warp_width;
    let num_regs = kernel.num_regs().max(1) as usize;
    let num_preds = kernel.num_preds().max(1) as usize;
    let (orf_entries, lrf_banks, hierarchy) = match mode {
        ExecMode::Baseline => (0, 0, false),
        ExecMode::Hierarchy(cfg) => (cfg.orf_entries, lrf_bank_count(cfg.lrf), true),
    };
    let orf_base = num_regs * width;
    let lrf_base = orf_base + orf_entries * width;
    let slab_len = lrf_base + lrf_banks * width;

    // Flat-PC table: block b starts at block_start[b]. `validate`
    // guarantees every block is non-empty, so advancing a flat pc by one
    // is exactly the reference interpreter's `normalize(kernel, (b, i+1))`
    // and the table is never indexed past its end (the last flat op is an
    // unguarded `exit` or `bra`).
    let mut block_start = Vec::with_capacity(kernel.blocks.len());
    let mut total = 0u32;
    for b in &kernel.blocks {
        block_start.push(total);
        total += b.instrs.len() as u32;
    }

    let mut ops: Vec<DecodedOp<'k>> = Vec::with_capacity(total as usize);
    for (at, instr) in kernel.iter_instrs() {
        let flat = ops.len() as u32;

        let mut srcs = [SrcOp::Zero; 3];
        for (slot, operand) in instr.srcs.iter().enumerate().take(3) {
            srcs[slot] = match *operand {
                Operand::Special(s) => SrcOp::Special(s),
                Operand::Reg(r) => {
                    let base = if hierarchy {
                        match instr.read_locs[slot] {
                            ReadLoc::Mrf | ReadLoc::MrfFillOrf(_) => r.index() as usize * width,
                            ReadLoc::Orf(e) => orf_base + e as usize * width,
                            ReadLoc::Lrf(bank) => {
                                lrf_base + bank.map(|s| s.index()).unwrap_or(0) * width
                            }
                        }
                    } else {
                        r.index() as usize * width
                    };
                    SrcOp::Slab(base as u32)
                }
                c => SrcOp::Const(c.const_bits().expect("imm or fbits")),
            };
        }

        let mut dst = DstPlan::default();
        if let Some(d) = instr.dst {
            let r = d.reg.index() as usize;
            dst.wide = d.width == Width::W64;
            // `check_placements` has already range-checked every resolved
            // place (including the `entry + 1` word of wide ORF writes),
            // so these offsets are in bounds by construction.
            match (hierarchy, instr.write_loc) {
                (false, _) | (true, WriteLoc::Mrf) => {
                    dst.push_lo(r * width);
                    if dst.wide {
                        dst.push_hi((r + 1) * width);
                    }
                }
                (true, WriteLoc::Orf { entry, also_mrf }) => {
                    dst.push_lo(orf_base + entry as usize * width);
                    if dst.wide {
                        dst.push_hi(orf_base + (entry as usize + 1) * width);
                    }
                    if also_mrf {
                        dst.push_lo(r * width);
                        if dst.wide {
                            dst.push_hi((r + 1) * width);
                        }
                    }
                }
                (true, WriteLoc::Lrf { bank, also_mrf }) => {
                    dst.push_lo(lrf_base + bank.map(|s| s.index()).unwrap_or(0) * width);
                    if also_mrf {
                        dst.push_lo(r * width);
                        if dst.wide {
                            dst.push_hi((r + 1) * width);
                        }
                    }
                }
            }
        }

        let fills: Vec<Fill> = if hierarchy {
            let written: Option<(usize, usize)> = match (instr.write_loc, instr.dst) {
                (WriteLoc::Orf { entry, .. }, Some(d)) => {
                    Some((entry as usize, d.width.regs() as usize))
                }
                _ => None,
            };
            instr
                .read_locs
                .iter()
                .enumerate()
                .filter_map(|(slot, loc)| {
                    let e = loc.orf_fill()? as usize;
                    let r = instr.srcs[slot].as_reg()?;
                    Some(Fill {
                        orf_off: (orf_base + e * width) as u32,
                        reg_off: (r.index() as usize * width) as u32,
                        covered_by_dst: written.is_some_and(|(base, w)| e >= base && e < base + w),
                    })
                })
                .collect()
        } else {
            Vec::new()
        };

        let kind = match instr.op {
            Opcode::Bra => OpKind::Bra {
                target: block_start[instr.target.expect("validated").index()],
                fall: flat + 1,
                reconv: ipdom.idom(at.block).map(|b| block_start[b.index()]),
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
                    OpKind::Alu {
                        ok: eval_alu(instr.op, 0, 0, 0).is_some(),
                    }
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
            fills,
            ends_strand: instr.ends_strand,
            plan: AccessPlan::resolve(instr),
        });
    }

    DecodedKernel {
        ops,
        num_preds,
        slab_len,
        upper_base: orf_base,
        hierarchy,
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
/// predicate lane masks, and the divergence token stack.
struct SoaWarp {
    warp_in_cta: usize,
    lanes: usize,
    data: Vec<u32>,
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

#[inline]
fn fetch(src: SrcOp, data: &[u32], ctx: &LaneCtx<'_>, lane: usize) -> u32 {
    match src {
        SrcOp::Zero => 0,
        SrcOp::Const(v) => v,
        SrcOp::Special(s) => ctx.special(s, lane),
        SrcOp::Slab(base) => data[base as usize + lane],
    }
}

#[inline]
fn write_lane(data: &mut [u32], d: &DstPlan, lane: usize, lo: u32, hi: u32) {
    for i in 0..d.n_lo as usize {
        data[d.lo[i] as usize + lane] = lo;
    }
    for i in 0..d.n_hi as usize {
        data[d.hi[i] as usize + lane] = hi;
    }
}

/// Runs a validated, placement-checked launch on the SoA engine. Called
/// by [`super::execute_with_engine`]; validation and `check_placements`
/// have already run.
pub(crate) fn run(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    let ipdom = DomTree::post_dominators(kernel);
    let dk = decode(kernel, &mode, &ipdom, machine);
    let warps_per_cta = launch.threads_per_cta.div_ceil(machine.warp_width);
    let mut report = ExecReport::default();
    // Scratch for captured fill values: at most one per source slot.
    let mut fill_buf = vec![0u32; 3 * dk.width];

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
                let mut data = vec![0u32; dk.slab_len];
                data[dk.upper_base..].fill(POISON);
                SoaWarp {
                    warp_in_cta,
                    lanes,
                    data,
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
                    &ctx,
                    w,
                    memory,
                    &mut shared,
                    machine,
                    sinks,
                    &mut report,
                    &mut fill_buf,
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
/// mask check → budget → guard → sinks → report counters → fill capture →
/// dispatch → fill deposit → strand poison → pc advance. Errors abort
/// immediately, leaving earlier lanes' effects in place, exactly as the
/// oracle does.
#[allow(clippy::too_many_arguments)]
fn step_warp(
    dk: &DecodedKernel<'_>,
    ctx: &LaneCtx<'_>,
    w: &mut SoaWarp,
    memory: &mut GlobalMemory,
    shared: &mut SharedMemory,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
    report: &mut ExecReport,
    fill_buf: &mut [u32],
) -> Result<Phase, ExecError> {
    let lanes = w.lanes;
    let full_mask: u32 = if lanes == 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    };
    let width = dk.width;
    let SoaWarp {
        data,
        preds,
        stack,
        exited,
        steps,
        ..
    } = w;
    let data = data.as_mut_slice();

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

        // Capture read-operand fill values before the instruction
        // executes: reads see the pre-fill state, and the deposit lands
        // after execution with the destination write winning on a
        // same-entry collision (see `exec::reference` for the full rule).
        for (i, f) in op.fills.iter().enumerate() {
            let base = f.reg_off as usize;
            fill_buf[i * width..i * width + lanes].copy_from_slice(&data[base..base + lanes]);
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
                dk.end_strand(op, data);
                continue;
            }
            OpKind::Exit => {
                *exited |= exec_mask;
                if op.guard.is_none() {
                    stack.pop();
                } else {
                    tok.pc += 1;
                }
                dk.end_strand(op, data);
                continue;
            }
            OpKind::Bar => {
                // Yield to the CTA scheduler: every warp of the CTA
                // reaches this barrier before any proceeds past it.
                dk.end_strand(op, data);
                tok.pc += 1;
                return Ok(Phase::Barrier);
            }
            OpKind::St(space) => {
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let addr = fetch(op.srcs[0], data, ctx, lane);
                    let value = fetch(op.srcs[1], data, ctx, lane);
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
                let wide = op.dst.wide;
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let addr = fetch(op.srcs[0], data, ctx, lane);
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
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let coord = fetch(op.srcs[0], data, ctx, lane);
                    let v = memory.load(coord).ok_or(ExecError::OutOfBounds {
                        space: "texture",
                        addr: coord,
                        at: op.at,
                    })?;
                    write_lane(data, &op.dst, lane, v, 0);
                }
            }
            OpKind::Setp { cmp, float, p } => {
                let mut pm = preds[p];
                for lane in 0..lanes {
                    let bit = 1u32 << lane;
                    if exec_mask & bit == 0 {
                        continue;
                    }
                    let a = fetch(op.srcs[0], data, ctx, lane);
                    let b = fetch(op.srcs[1], data, ctx, lane);
                    if eval_cmp(cmp, float, a, b) {
                        pm |= bit;
                    } else {
                        pm &= !bit;
                    }
                }
                preds[p] = pm;
            }
            OpKind::Sel { p } => {
                let pm = preds[p];
                for lane in 0..lanes {
                    let bit = 1u32 << lane;
                    if exec_mask & bit == 0 {
                        continue;
                    }
                    let a = fetch(op.srcs[0], data, ctx, lane);
                    let b = fetch(op.srcs[1], data, ctx, lane);
                    let v = if pm & bit != 0 { a } else { b };
                    write_lane(data, &op.dst, lane, v, 0);
                }
            }
            OpKind::AluWide => {
                return Err(ExecError::Unsupported {
                    what: format!("64-bit destination on `{}`", op.instr),
                    at: op.at,
                });
            }
            OpKind::Alu { ok } => {
                if exec_mask != 0 && !ok {
                    return Err(ExecError::Unsupported {
                        what: format!("`{}` has no ALU semantics", op.op),
                        at: op.at,
                    });
                }
                // Full-mask fast path: every lane executes, so the lane
                // loop runs branch-free (`ok` guarantees `Some`).
                if exec_mask == full_mask {
                    for lane in 0..lanes {
                        let a = fetch(op.srcs[0], data, ctx, lane);
                        let b = fetch(op.srcs[1], data, ctx, lane);
                        let c = fetch(op.srcs[2], data, ctx, lane);
                        let v = eval_alu(op.op, a, b, c).unwrap_or(0);
                        write_lane(data, &op.dst, lane, v, 0);
                    }
                } else {
                    for lane in 0..lanes {
                        if exec_mask & (1 << lane) == 0 {
                            continue;
                        }
                        let a = fetch(op.srcs[0], data, ctx, lane);
                        let b = fetch(op.srcs[1], data, ctx, lane);
                        let c = fetch(op.srcs[2], data, ctx, lane);
                        let v = eval_alu(op.op, a, b, c).unwrap_or(0);
                        write_lane(data, &op.dst, lane, v, 0);
                    }
                }
            }
        }

        // Post-write observer hooks: hand the sinks the destination lane
        // values (and the new predicate lane mask) for the lanes that
        // executed. Read back from the first destination row — every `lo`
        // row received the same value for executing lanes, and non-exec
        // lanes are unspecified by the hook contract. Emitted before the
        // fill deposit, which never alters an executing lane's dst entry.
        if exec_mask != 0 && !sinks.is_empty() {
            if let Some(d) = op.instr.dst {
                if op.dst.n_lo > 0 {
                    let base = op.dst.lo[0] as usize;
                    for s in sinks.iter_mut() {
                        s.on_reg_write(
                            ctx.warp,
                            op.at,
                            d.reg,
                            &data[base..base + lanes],
                            exec_mask,
                        );
                    }
                }
                if op.dst.wide && op.dst.n_hi > 0 {
                    let base = op.dst.hi[0] as usize;
                    let hi_reg = Reg::new(d.reg.index() + 1);
                    for s in sinks.iter_mut() {
                        s.on_reg_write(
                            ctx.warp,
                            op.at,
                            hi_reg,
                            &data[base..base + lanes],
                            exec_mask,
                        );
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

        // Deposit the captured fills: active lanes receive the pre-execute
        // MRF value unless the destination write already covered the entry
        // for an executing lane.
        for (i, f) in op.fills.iter().enumerate() {
            let vals = &fill_buf[i * width..i * width + lanes];
            for (lane, v) in vals.iter().enumerate() {
                let bit = 1u32 << lane;
                if mask & bit == 0 {
                    continue;
                }
                if f.covered_by_dst && exec_mask & bit != 0 {
                    continue;
                }
                data[f.orf_off as usize + lane] = *v;
            }
        }

        // Strand boundaries invalidate the upper levels.
        dk.end_strand(op, data);

        tok.pc += 1;
    }
    Ok(Phase::Done)
}
