//! RFH-L002 (unreachable blocks) and RFH-L003 (dead definitions).
//!
//! Unreachable blocks come straight from the dominator tree (a block
//! without an idom chain to the entry was never reached by the DFS). Dead
//! definitions are instructions that write a general-purpose destination
//! no subsequent instruction can read, per the block-level liveness
//! analysis — the same analysis whose `dead_after` bits the hardware RFC
//! uses to elide writebacks, so a dead *definition* is one whose entire
//! result is elided.

use rfh_analysis::{DomTree, Liveness};
use rfh_isa::{InstrRef, Kernel};

use crate::diag::{Code, Diagnostic};

/// Runs both checks, appending findings to `diags`.
pub(crate) fn check(
    kernel: &Kernel,
    dom: &DomTree,
    liveness: &Liveness,
    diags: &mut Vec<Diagnostic>,
) {
    for block in &kernel.blocks {
        if !dom.is_reachable(block.id) {
            diags.push(Diagnostic::at_block(
                Code::UnreachableBlock,
                block.id,
                format!("{} is unreachable from the kernel entry", block.id),
            ));
        }
    }

    // One backward walk per block from its live-out set: before each
    // instruction is stepped over, `live` holds the registers live after it.
    for block in &kernel.blocks {
        if !dom.is_reachable(block.id) {
            continue; // dead because unreachable: RFH-L002 already says so
        }
        let mut live = liveness.live_out[block.id.index()].clone();
        for (index, instr) in block.instrs.iter().enumerate().rev() {
            if let Some(dst) = instr.dst {
                if dst.regs().all(|r| !live.contains(r)) {
                    diags.push(Diagnostic::at(
                        Code::DeadDef,
                        InstrRef {
                            block: block.id,
                            index,
                        },
                        format!("definition of {} is never read (`{instr}`)", dst.reg),
                    ));
                }
            }
            // Guarded defs are weak: the old value survives a false guard.
            if instr.guard.is_none() {
                for r in instr.def_regs() {
                    live.remove(r);
                }
            }
            for (_, r) in instr.reg_srcs() {
                live.insert(r);
            }
        }
    }
}
