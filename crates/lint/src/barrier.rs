//! RFH-L004 — barrier divergence (GPUVerify's classic check).
//!
//! A `bar` synchronizes every thread of the CTA; if control flow can
//! diverge before it, some threads may never arrive and the CTA
//! deadlocks. Three ways a barrier ends up divergent:
//!
//! 1. the `bar` itself is guarded by a **non-uniform** predicate;
//! 2. the `bar` sits in a block reachable from a conditional branch with a
//!    non-uniform guard that the block does **not** post-dominate —
//!    threads that diverged at the branch have not reconverged (the SIMT
//!    executor reconverges exactly at immediate post-dominators, so
//!    post-dominance is the precise "reconverged again" criterion here);
//! 3. the `bar` is reachable from the fall-through of a guarded `exit`
//!    with a non-uniform guard — exited threads can never arrive.
//!
//! Uniformity is a flow-insensitive fixpoint: `%tid.x`, `%laneid` and
//! `%warpid` are non-uniform sources; CTA-level specials and immediates
//! are uniform; loads from anything but the parameter space are
//! conservatively non-uniform; everything else is uniform iff all of its
//! inputs (including the guard) are.

use rfh_analysis::DomTree;
use rfh_isa::{InstrRef, Kernel, Operand, PredGuard, Special};

use crate::diag::{Code, Diagnostic};

/// Which registers/predicates may hold thread-dependent values.
pub(crate) struct Uniformity {
    regs: Vec<bool>,
    preds: Vec<bool>,
}

impl Uniformity {
    pub(crate) fn non_uniform_guard(&self, guard: &PredGuard) -> bool {
        self.preds[guard.reg.index() as usize]
    }
}

/// Flow-insensitive taint fixpoint over the whole kernel.
pub(crate) fn uniformity(kernel: &Kernel) -> Uniformity {
    let mut u = Uniformity {
        regs: vec![false; usize::from(kernel.num_regs())],
        preds: vec![false; usize::from(kernel.num_preds())],
    };
    let mut changed = true;
    while changed {
        changed = false;
        for (_, instr) in kernel.iter_instrs() {
            let mut tainted = match instr.op {
                rfh_isa::Opcode::Ld(rfh_isa::Space::Param) => false,
                rfh_isa::Opcode::Ld(_) | rfh_isa::Opcode::Tex => true,
                _ => false,
            };
            tainted |= instr.srcs.iter().any(|s| match s {
                Operand::Reg(r) => u.regs[r.index() as usize],
                Operand::Imm(_) | Operand::FBits(_) => false,
                Operand::Special(sp) => {
                    matches!(sp, Special::TidX | Special::LaneId | Special::WarpId)
                }
            });
            if let Some(p) = instr.psrc {
                tainted |= u.preds[p.index() as usize];
            }
            // A guarded definition's outcome depends on the guard.
            if let Some(g) = &instr.guard {
                tainted |= u.preds[g.reg.index() as usize];
            }
            if !tainted {
                continue;
            }
            for r in instr.def_regs() {
                if !u.regs[r.index() as usize] {
                    u.regs[r.index() as usize] = true;
                    changed = true;
                }
            }
            if let Some(p) = instr.pdst {
                if !u.preds[p.index() as usize] {
                    u.preds[p.index() as usize] = true;
                    changed = true;
                }
            }
        }
    }
    u
}

/// Instruction positions reachable from `start` (inclusive), following the
/// CFG forward. Used to find barriers downstream of a divergence point.
fn reachable_from(kernel: &Kernel, start: InstrRef) -> Vec<InstrRef> {
    let mut out = Vec::new();
    let mut visited_blocks = vec![false; kernel.blocks.len()];
    // (block, starting index); block-entry visits are memoized, the single
    // mid-block start is walked once.
    let mut work = vec![start];
    while let Some(at) = work.pop() {
        if at.index == 0 {
            if visited_blocks[at.block.index()] {
                continue;
            }
            visited_blocks[at.block.index()] = true;
        }
        let block = kernel.block(at.block);
        for index in at.index..block.instrs.len() {
            out.push(InstrRef {
                block: at.block,
                index,
            });
        }
        for succ in kernel.successors(at.block) {
            if !visited_blocks[succ.index()] {
                work.push(InstrRef {
                    block: succ,
                    index: 0,
                });
            }
        }
    }
    out
}

/// Runs the check over the kernel's uniformity taint `u`, appending
/// RFH-L004 findings to `diags`.
pub(crate) fn check(kernel: &Kernel, dom: &DomTree, u: &Uniformity, diags: &mut Vec<Diagnostic>) {
    let bars: Vec<InstrRef> = kernel
        .iter_instrs()
        .filter(|(at, i)| i.op.is_barrier() && dom.is_reachable(at.block))
        .map(|(at, _)| at)
        .collect();
    if bars.is_empty() {
        return;
    }
    let postdom = DomTree::post_dominators(kernel);

    // (1) Barriers under a non-uniform guard.
    for &at in &bars {
        if let Some(g) = &kernel.instr(at).guard {
            if u.non_uniform_guard(g) {
                let bang = if g.negated { "!" } else { "" };
                diags.push(Diagnostic::at(
                    Code::BarrierDivergence,
                    at,
                    format!(
                        "barrier is guarded by the non-uniform predicate @{bang}{} — \
                         threads may divide over it and deadlock",
                        g.reg
                    ),
                ));
            }
        }
    }

    // (2) Barriers inside a divergent region: between a branch with a
    // non-uniform guard and its reconvergence point (the branch block's
    // immediate post-dominator — exactly where the SIMT executor
    // reconverges), and (3) barriers reachable past a divergent guarded
    // exit (exited threads never reconverge at all).
    for (at, instr) in kernel.iter_instrs() {
        if !dom.is_reachable(at.block) {
            continue;
        }
        let Some(g) = &instr.guard else { continue };
        if !u.non_uniform_guard(g) {
            continue;
        }
        if instr.op.is_branch() {
            let succs = kernel.successors(at.block);
            if succs.len() != 2 || succs[0] == succs[1] {
                continue; // both edges land together: no divergence
            }
            // Blocks reachable from the branch before reconvergence.
            let rp = postdom.idom(at.block);
            let mut divergent = vec![false; kernel.blocks.len()];
            let mut work = succs;
            while let Some(b) = work.pop() {
                if Some(b) == rp || divergent[b.index()] {
                    continue;
                }
                divergent[b.index()] = true;
                work.extend(kernel.successors(b));
            }
            for &bar in &bars {
                if divergent[bar.block.index()] {
                    diags.push(Diagnostic::at(
                        Code::BarrierDivergence,
                        bar,
                        format!(
                            "barrier may execute under divergent control flow: it sits \
                             between the non-uniformly guarded branch at {at} and its \
                             reconvergence point"
                        ),
                    ));
                }
            }
        } else if instr.op.is_exit() {
            // Threads passing the guard are gone; any barrier the
            // surviving threads can still reach will wait forever.
            let block_len = kernel.block(at.block).instrs.len();
            let downstream = if at.index + 1 < block_len {
                reachable_from(
                    kernel,
                    InstrRef {
                        block: at.block,
                        index: at.index + 1,
                    },
                )
            } else {
                let mut all = Vec::new();
                for s in kernel.successors(at.block) {
                    all.extend(reachable_from(kernel, InstrRef { block: s, index: 0 }));
                }
                all
            };
            for &bar in &bars {
                if downstream.contains(&bar) {
                    diags.push(Diagnostic::at(
                        Code::BarrierDivergence,
                        bar,
                        format!(
                            "barrier is reachable after the divergent thread exit at {at} — \
                             exited threads can never arrive"
                        ),
                    ));
                }
            }
        }
    }
}
