//! The frozen reference interpreter (the differential oracle).
//!
//! This is the original per-thread interpreter, preserved verbatim when
//! the warp-batched SoA executor (`rfh_sim::exec`) replaced it as the
//! shipped engine. It re-decodes every operand per lane and re-resolves each
//! instruction's [`AccessPlan`] per event — slow, but the semantics were
//! hardened by years of chaos/property testing, so it serves as the
//! ground truth the SoA engine is differentially checked against
//! (`tests/exec_differential.rs` and the chaos
//! `run_exec_differential_layer` and `run_placement_layer`).
//!
//! Do not "improve" this module: its value is that it does not change.
//! Behavioral fixes must land in both engines, with the differential
//! suite proving they agree.

use rfh_alloc::LrfMode;
use rfh_analysis::DomTree;
use rfh_isa::access::AccessPlan;
use rfh_isa::{
    InstrRef, Instruction, Kernel, Opcode, Operand, ReadLoc, Space, Special, Width, WriteLoc,
};

use rfh_sim::exec::{
    check_launchable, eval_alu, eval_cmp, ExecError, ExecMode, ExecReport, Launch, POISON,
};
use rfh_sim::machine::MachineConfig;
use rfh_sim::mem::{GlobalMemory, SharedMemory};
use rfh_sim::sink::{InstrEvent, TraceSink};

/// The signature [`execute_with`] shares with `rfh_sim::exec::execute_with`,
/// so a differential harness can hold either engine.
pub type Execute = fn(
    &Kernel,
    &Launch,
    &mut GlobalMemory,
    ExecMode,
    &MachineConfig,
    &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError>;

/// [`rfh_sim::exec::execute_with`], interpreted by the reference engine.
///
/// Validation and placement checking run through the shipped engine's
/// [`check_launchable`], so both engines reject corrupted annotations
/// with identical errors.
///
/// # Errors
///
/// As for [`rfh_sim::exec::execute`].
pub fn execute_with(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    check_launchable(kernel, &mode)?;
    run(kernel, launch, memory, mode, machine, sinks)
}

/// Why a warp yielded back to the CTA scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The warp executed a barrier and waits for its CTA.
    Barrier,
    /// The warp has no more work.
    Done,
}

type Pc = (u32, usize);

#[derive(Debug, Clone, Copy)]
struct Token {
    pc: Pc,
    mask: u32,
    reconv: Option<Pc>,
}

/// Per-warp architectural and hierarchy state.
struct WarpState {
    regs: Vec<Vec<u32>>,   // [reg][lane]
    preds: Vec<Vec<bool>>, // [pred][lane]
    orf: Vec<Vec<u32>>,    // [entry][lane]
    lrf: Vec<Vec<u32>>,    // [bank][lane]
}

impl WarpState {
    fn new(kernel: &Kernel, width: usize, mode: &ExecMode) -> WarpState {
        let (orf_entries, lrf_banks) = match mode {
            ExecMode::Baseline => (0, 0),
            ExecMode::Hierarchy(cfg) => (
                cfg.orf_entries,
                match cfg.lrf {
                    LrfMode::None => 0,
                    LrfMode::Unified => 1,
                    LrfMode::Split => 3,
                },
            ),
        };
        WarpState {
            regs: vec![vec![0; width]; kernel.num_regs().max(1) as usize],
            preds: vec![vec![false; width]; kernel.num_preds().max(1) as usize],
            orf: vec![vec![POISON; width]; orf_entries],
            lrf: vec![vec![POISON; width]; lrf_banks],
        }
    }

    fn poison_upper(&mut self) {
        for e in &mut self.orf {
            e.fill(POISON);
        }
        for b in &mut self.lrf {
            b.fill(POISON);
        }
    }
}

struct WarpContext<'a> {
    kernel: &'a Kernel,
    launch: &'a Launch,
    mode: ExecMode,
    warp: usize,
    cta: usize,
    warp_in_cta: usize,
}

impl WarpContext<'_> {
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

    /// Reads one source operand for `lane`, honouring hierarchy placements.
    fn read_operand(
        &self,
        state: &WarpState,
        instr: &Instruction,
        slot: usize,
        lane: usize,
    ) -> u32 {
        match instr.srcs[slot] {
            Operand::Imm(v) => v as u32,
            Operand::FBits(bits) => bits,
            Operand::Special(s) => self.special(s, lane),
            Operand::Reg(r) => match self.mode {
                ExecMode::Baseline => state.regs[r.index() as usize][lane],
                ExecMode::Hierarchy(_) => match instr.read_locs[slot] {
                    ReadLoc::Mrf | ReadLoc::MrfFillOrf(_) => state.regs[r.index() as usize][lane],
                    ReadLoc::Orf(e) => state.orf[e as usize][lane],
                    ReadLoc::Lrf(bank) => {
                        let b = bank.map(|s| s.index()).unwrap_or(0);
                        state.lrf[b][lane]
                    }
                },
            },
        }
    }

    /// Writes the destination for `lane`, honouring hierarchy placements.
    fn write_dst(&self, state: &mut WarpState, instr: &Instruction, lane: usize, lo: u32, hi: u32) {
        let dst = instr.dst.expect("write_dst requires a destination");
        let wide = dst.width == Width::W64;
        let r = dst.reg.index() as usize;
        let write_mrf = |state: &mut WarpState| {
            state.regs[r][lane] = lo;
            if wide {
                state.regs[r + 1][lane] = hi;
            }
        };
        match (self.mode, instr.write_loc) {
            (ExecMode::Baseline, _) | (_, WriteLoc::Mrf) => write_mrf(state),
            (ExecMode::Hierarchy(_), WriteLoc::Orf { entry, also_mrf }) => {
                state.orf[entry as usize][lane] = lo;
                if wide {
                    state.orf[entry as usize + 1][lane] = hi;
                }
                if also_mrf {
                    write_mrf(state);
                }
            }
            (ExecMode::Hierarchy(_), WriteLoc::Lrf { bank, also_mrf }) => {
                let b = bank.map(|s| s.index()).unwrap_or(0);
                state.lrf[b][lane] = lo;
                if also_mrf {
                    write_mrf(state);
                }
            }
        }
    }
}

fn normalize(kernel: &Kernel, pc: Pc) -> Pc {
    let (mut b, mut i) = pc;
    while (b as usize) < kernel.blocks.len() && i >= kernel.blocks[b as usize].instrs.len() {
        b += 1;
        i = 0;
    }
    (b, i)
}

/// Runs a validated, placement-checked launch on the reference engine.
/// Called by [`execute_with`]; validation and placement checking have
/// already run.
fn run(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    let ipdom = DomTree::post_dominators(kernel);
    let warps_per_cta = launch.threads_per_cta.div_ceil(machine.warp_width);
    let mut shared: Vec<SharedMemory> = (0..launch.ctas)
        .map(|_| SharedMemory::new(launch.shared_words))
        .collect();
    let mut report = ExecReport::default();

    for (cta, cta_shared) in shared.iter_mut().enumerate() {
        // Barrier-phased execution of the CTA's warps.
        let mut runs: Vec<WarpRun> = (0..warps_per_cta)
            .map(|warp_in_cta| {
                let lanes = (launch.threads_per_cta - warp_in_cta * machine.warp_width)
                    .min(machine.warp_width);
                let full_mask: u32 = if lanes == 32 {
                    u32::MAX
                } else {
                    (1u32 << lanes) - 1
                };
                WarpRun {
                    warp_in_cta,
                    lanes,
                    state: WarpState::new(kernel, machine.warp_width, &mode),
                    stack: vec![Token {
                        pc: (0, 0),
                        mask: full_mask,
                        reconv: None,
                    }],
                    exited: 0,
                    steps: 0,
                    done: false,
                }
            })
            .collect();
        while runs.iter().any(|r| !r.done) {
            for run in runs.iter_mut() {
                if run.done {
                    continue;
                }
                let warp = cta * warps_per_cta + run.warp_in_cta;
                let ctx = WarpContext {
                    kernel,
                    launch,
                    mode,
                    warp,
                    cta,
                    warp_in_cta: run.warp_in_cta,
                };
                let outcome = run_warp_until(
                    &ctx,
                    run,
                    memory,
                    cta_shared,
                    &ipdom,
                    machine,
                    sinks,
                    &mut report,
                )?;
                if outcome == Phase::Done {
                    run.done = true;
                    for s in sinks.iter_mut() {
                        s.on_warp_done(warp);
                    }
                    report.warps += 1;
                }
            }
        }
    }
    Ok(report)
}

/// Resumable per-warp execution state.
struct WarpRun {
    warp_in_cta: usize,
    lanes: usize,
    state: WarpState,
    stack: Vec<Token>,
    exited: u32,
    steps: u64,
    done: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_warp_until(
    ctx: &WarpContext<'_>,
    run: &mut WarpRun,
    memory: &mut GlobalMemory,
    shared: &mut SharedMemory,
    ipdom: &DomTree,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
    report: &mut ExecReport,
) -> Result<Phase, ExecError> {
    let kernel = ctx.kernel;
    let lanes = run.lanes;
    let state = &mut run.state;
    let stack = &mut run.stack;
    // Scratch access plan for trace events (the SoA engine pre-resolves
    // these at decode; the oracle resolves per event, as it always did).
    let mut plan = AccessPlan::new();

    while let Some(tok) = stack.last_mut() {
        let mask = tok.mask & !run.exited;
        if mask == 0 || Some(tok.pc) == tok.reconv {
            stack.pop();
            continue;
        }
        let (block, index) = tok.pc;
        let at = InstrRef {
            block: rfh_isa::BlockId::new(block),
            index,
        };
        let instr = &kernel.blocks[block as usize].instrs[index];
        run.steps += 1;
        if run.steps > machine.max_warp_instructions {
            return Err(ExecError::InstructionBudget { warp: ctx.warp });
        }

        // Evaluate the guard.
        let exec_mask = match instr.guard {
            None => mask,
            Some(g) => {
                let mut m = 0u32;
                for lane in 0..lanes {
                    if mask & (1 << lane) != 0 {
                        let p = state.preds[g.reg.index() as usize][lane];
                        if p != g.negated {
                            m |= 1 << lane;
                        }
                    }
                }
                m
            }
        };

        plan.resolve_into(instr);
        for s in sinks.iter_mut() {
            s.on_instr(&InstrEvent {
                warp: ctx.warp,
                at,
                instr,
                active_mask: mask,
                exec_mask,
                plan: &plan,
            });
        }
        report.warp_instructions += 1;
        report.thread_instructions += exec_mask.count_ones() as u64;

        // Read-operand fills deposit the MRF value into the ORF. The fill
        // is a side effect of operand *fetch*: its value is captured here,
        // before the instruction executes, and deposited after — with the
        // instruction's own writeback winning on a same-entry collision —
        // exactly as the placement validator models it (reads see the
        // pre-fill state; fills precede the destination write).
        let fills: Vec<(usize, Vec<u32>)> = if matches!(ctx.mode, ExecMode::Hierarchy(_)) {
            instr
                .read_locs
                .iter()
                .enumerate()
                .filter_map(|(slot, loc)| {
                    let e = loc.orf_fill()?;
                    let r = instr.srcs[slot].as_reg()?;
                    Some((e as usize, state.regs[r.index() as usize].clone()))
                })
                .collect()
        } else {
            Vec::new()
        };

        match instr.op {
            Opcode::Bra => {
                let target: Pc = (instr.target.expect("validated").index() as u32, 0);
                let fall = normalize(kernel, (block, index + 1));
                let taken = exec_mask;
                let not_taken = mask & !taken;
                if not_taken == 0 {
                    tok.pc = target;
                } else if taken == 0 {
                    tok.pc = fall;
                } else {
                    let reconv = ipdom
                        .idom(rfh_isa::BlockId::new(block))
                        .map(|b| (b.index() as u32, 0usize));
                    match reconv {
                        Some(r) => {
                            tok.pc = r;
                            let tok_reconv = Some(r);
                            stack.push(Token {
                                pc: fall,
                                mask: not_taken,
                                reconv: tok_reconv,
                            });
                            stack.push(Token {
                                pc: target,
                                mask: taken,
                                reconv: tok_reconv,
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
                if matches!(ctx.mode, ExecMode::Hierarchy(_)) && instr.ends_strand {
                    state.poison_upper();
                }
                continue;
            }
            Opcode::Exit => {
                run.exited |= exec_mask;
                if instr.guard.is_none() {
                    stack.pop();
                } else {
                    tok.pc = normalize(kernel, (block, index + 1));
                }
                if matches!(ctx.mode, ExecMode::Hierarchy(_)) && instr.ends_strand {
                    state.poison_upper();
                }
                continue;
            }
            Opcode::Bar => {
                // Yield to the CTA scheduler: every warp of the CTA reaches
                // this barrier before any proceeds past it.
                if matches!(ctx.mode, ExecMode::Hierarchy(_)) && instr.ends_strand {
                    state.poison_upper();
                }
                tok.pc = normalize(kernel, (block, index + 1));
                return Ok(Phase::Barrier);
            }
            Opcode::St(space) => {
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let addr = ctx.read_operand(state, instr, 0, lane);
                    let value = ctx.read_operand(state, instr, 1, lane);
                    let ok = match space {
                        Space::Global => memory.store(addr, value),
                        Space::Shared => shared.store(addr, value),
                        Space::Local => {
                            // Local memory is modeled as a private slice of
                            // global memory addressed by (thread, addr);
                            // workloads use small offsets.
                            memory.store(addr, value)
                        }
                        Space::Param => false,
                    };
                    if !ok {
                        return Err(ExecError::OutOfBounds {
                            space: space.mnemonic(),
                            addr,
                            at,
                        });
                    }
                }
            }
            Opcode::Ld(space) => {
                let wide = instr.dst.map(|d| d.width == Width::W64).unwrap_or(false);
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let addr = ctx.read_operand(state, instr, 0, lane);
                    let load_one = |a: u32| -> Result<u32, ExecError> {
                        let v = match space {
                            Space::Global | Space::Local => memory.load(a),
                            Space::Shared => shared.load(a),
                            Space::Param => ctx.launch.params.get(a as usize).copied(),
                        };
                        v.ok_or(ExecError::OutOfBounds {
                            space: space.mnemonic(),
                            addr: a,
                            at,
                        })
                    };
                    let lo = load_one(addr)?;
                    let hi = if wide {
                        load_one(addr.wrapping_add(1))?
                    } else {
                        0
                    };
                    ctx.write_dst(state, instr, lane, lo, hi);
                }
            }
            Opcode::Tex => {
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let coord = ctx.read_operand(state, instr, 0, lane);
                    let v = memory.load(coord).ok_or(ExecError::OutOfBounds {
                        space: "texture",
                        addr: coord,
                        at,
                    })?;
                    ctx.write_dst(state, instr, lane, v, 0);
                }
            }
            Opcode::Setp(cmp) | Opcode::FSetp(cmp) => {
                let float = matches!(instr.op, Opcode::FSetp(_));
                let p = instr.pdst.expect("validated").index() as usize;
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let a = ctx.read_operand(state, instr, 0, lane);
                    let b = ctx.read_operand(state, instr, 1, lane);
                    state.preds[p][lane] = eval_cmp(cmp, float, a, b);
                }
            }
            Opcode::Sel => {
                let p = instr.psrc.expect("validated").index() as usize;
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let a = ctx.read_operand(state, instr, 0, lane);
                    let b = ctx.read_operand(state, instr, 1, lane);
                    let v = if state.preds[p][lane] { a } else { b };
                    ctx.write_dst(state, instr, lane, v, 0);
                }
            }
            _ => {
                if instr.dst.map(|d| d.width == Width::W64).unwrap_or(false) {
                    return Err(ExecError::Unsupported {
                        what: format!("64-bit destination on `{instr}`"),
                        at,
                    });
                }
                for lane in 0..lanes {
                    if exec_mask & (1 << lane) == 0 {
                        continue;
                    }
                    let a = ctx.read_operand(state, instr, 0, lane);
                    let b = if instr.srcs.len() > 1 {
                        ctx.read_operand(state, instr, 1, lane)
                    } else {
                        0
                    };
                    let c = if instr.srcs.len() > 2 {
                        ctx.read_operand(state, instr, 2, lane)
                    } else {
                        0
                    };
                    let v = eval_alu(instr.op, a, b, c).ok_or_else(|| ExecError::Unsupported {
                        what: format!("`{}` has no ALU semantics", instr.op),
                        at,
                    })?;
                    ctx.write_dst(state, instr, lane, v, 0);
                }
            }
        }

        // Deposit the operand-fetch fills captured above. The instruction's
        // own ORF writeback wins on a same-entry collision, so a fill is
        // skipped for lanes where the destination write targeted the entry.
        if !fills.is_empty() {
            let written: Option<(usize, usize)> = match (instr.write_loc, instr.dst) {
                (WriteLoc::Orf { entry, .. }, Some(d)) => {
                    Some((entry as usize, d.width.regs() as usize))
                }
                _ => None,
            };
            for (e, vals) in &fills {
                let dst_covers =
                    written.is_some_and(|(base, width)| *e >= base && *e < base + width);
                for (lane, v) in vals.iter().enumerate().take(lanes) {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    if dst_covers && exec_mask & (1 << lane) != 0 {
                        continue;
                    }
                    state.orf[*e][lane] = *v;
                }
            }
        }

        // Strand boundaries invalidate the upper levels.
        if matches!(ctx.mode, ExecMode::Hierarchy(_)) && instr.ends_strand {
            state.poison_upper();
        }

        tok.pc = normalize(kernel, (block, index + 1));
    }
    Ok(Phase::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_alloc::AllocConfig;

    fn at(block: u32, index: usize) -> InstrRef {
        InstrRef {
            block: rfh_isa::BlockId::new(block),
            index,
        }
    }

    /// Runs `kernel` hierarchy-faithfully on the reference engine over
    /// `mem`, one CTA of `threads`, with a 1000-instruction budget.
    fn run_hierarchy(
        kernel: &Kernel,
        cfg: AllocConfig,
        threads: usize,
        mem: &mut GlobalMemory,
    ) -> Result<ExecReport, ExecError> {
        let mut machine = MachineConfig::paper();
        machine.max_warp_instructions = 1000;
        let (launch, mode) = (Launch::new(1, threads), ExecMode::Hierarchy(cfg));
        execute_with(kernel, &launch, mem, mode, &machine, &mut [])
    }

    #[test]
    fn strand_ending_branches_poison_the_upper_levels() {
        // A counting loop whose placements carry r1 in ORF0 across the
        // strand-ending branches into and around the loop: the poisoned
        // ORF0 read makes r1 huge and negative, so the loop never exits
        // and the budget stops it. (The shipped executor's tag model
        // rejects the first poisoned read instead.)
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel loopy\nBB0:\n  mov r0, %tid.x\n  mov r1, 0\n  bra BB1 ;end\nBB1:\n  \
             iadd r1 r1, 1\n  setp.lt p0 r1, 4\n  @p0 bra BB1 ;end\nBB2:\n  st.global r0, r1\n  \
             exit ;end\n",
        )
        .unwrap();
        let orf0 = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        kernel.instr_mut(at(0, 1)).write_loc = orf0;
        kernel.instr_mut(at(1, 0)).read_locs[0] = ReadLoc::Orf(0);
        kernel.instr_mut(at(1, 0)).write_loc = orf0;
        let mut mem = GlobalMemory::new(32);
        let err = run_hierarchy(&kernel, AllocConfig::two_level(3), 32, &mut mem);
        assert!(
            matches!(err, Err(ExecError::InstructionBudget { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_never_written_orf_entry_corrupts_memory() {
        // The store's value read points at ORF2, which nothing wrote: the
        // reference engine stores the poison where baseline stores tid + 1.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel bad\nBB0:\n  mov r0, %tid.x\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n",
        )
        .unwrap();
        kernel.instr_mut(at(0, 2)).read_locs[1] = ReadLoc::Orf(2);
        let mut mem = GlobalMemory::new(32);
        run_hierarchy(&kernel, AllocConfig::two_level(3), 32, &mut mem).unwrap();
        for t in 0..32 {
            assert_eq!(mem.load(t), Some(POISON), "lane {t}");
        }
    }

    #[test]
    fn wide_lrf_write_drops_upper_word_at_the_lrf() {
        // A 64-bit LRF write keeps only the low word at the LRF: the upper
        // word is dropped at the register-file boundary (the LRF holds last
        // results, not pairs), so without `also_mrf` the high register
        // keeps its prior MRF value.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel l\nBB0:\n  mov r5, 77\n  mov r0, %tid.x\n  shl r1 r0, 1\n  \
             ld.global r4.w64 r1\n  iadd r6 r4, r5\n  st.global r0, r6\n  exit\n",
        )
        .unwrap();
        kernel.instr_mut(at(0, 3)).write_loc = WriteLoc::Lrf {
            bank: None,
            also_mrf: false,
        };
        kernel.instr_mut(at(0, 4)).read_locs = vec![ReadLoc::Lrf(None), ReadLoc::Mrf];
        let mut mem = GlobalMemory::from_words(vec![3, 4, 30, 40, 0, 0, 0, 0]);
        run_hierarchy(&kernel, AllocConfig::three_level(3, false), 2, &mut mem).unwrap();
        // r6 = LRF(lo) + r5, and r5 still holds 77.
        assert_eq!(mem.load(0), Some(3 + 77), "lane 0");
        assert_eq!(mem.load(1), Some(30 + 77), "lane 1");
    }
}
