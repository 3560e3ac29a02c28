//! Abstract-interpretation-driven checks: RFH-L009 (provably
//! out-of-bounds shared access), RFH-L010 (provably uniform branch under
//! a thread-dependent predicate), RFH-L011 (constant-foldable ALU op).
//!
//! All three spend facts from one [`rfh_analysis::absint::analyze`] run
//! (shared with the L005 race sharpening and L008 pressure pruning):
//!
//! * **L009** fires when a shared-memory load/store address interval lies
//!   entirely outside `[0, shared_words)` — every executing lane faults,
//!   so it is an error, and soundness of the interval domain makes it
//!   free of false positives (modulo a wrong `shared_words`).
//! * **L010** fires when the coarse flow-insensitive taint analysis (the
//!   one RFH-L004 uses) calls a branch guard thread-dependent but the
//!   abstract interpreter proves it never splits the warp — e.g. a
//!   predicate computed from `tid & ~31`. The divergence machinery the
//!   hardware reserves for the branch is provably unused.
//! * **L011** fires when a reachable ALU instruction's destination claim
//!   is a singleton: the operation always computes the same bit pattern
//!   and could be folded to an immediate `mov`. `mov`/`sel` and memory
//!   ops are exempt (a constant `mov` *is* the folded form; `sel` is
//!   data movement, not arithmetic).

use rfh_analysis::absint::AbsResults;
use rfh_isa::{Kernel, Opcode, Space};

use crate::barrier::Uniformity;
use crate::diag::{Code, Diagnostic};

/// Whether this opcode is a default-datapath ALU operation for RFH-L011
/// purposes (excludes data movement, memory, control, and predicates).
fn is_foldable_alu(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Mov
            | Opcode::Sel
            | Opcode::Ld(_)
            | Opcode::St(_)
            | Opcode::Tex
            | Opcode::Bra
            | Opcode::Exit
            | Opcode::Bar
            | Opcode::Setp(_)
            | Opcode::FSetp(_)
    )
}

/// Runs the three checks over the kernel's uniformity taint, appending
/// findings to `diags`.
pub(crate) fn check(
    kernel: &Kernel,
    res: &AbsResults,
    taint: &Uniformity,
    shared_words: usize,
    diags: &mut Vec<Diagnostic>,
) {
    for (at, instr) in kernel.iter_instrs() {
        let f = res.fact(at);
        if !f.reachable {
            continue;
        }

        // RFH-L009: the whole address interval misses the shared array.
        if let Opcode::Ld(Space::Shared) | Opcode::St(Space::Shared) = instr.op {
            let a = f.srcs[0];
            if (a.hi as i64) < 0 || (a.lo as i64) >= shared_words as i64 {
                let what = if matches!(instr.op, Opcode::St(_)) {
                    "store"
                } else {
                    "load"
                };
                diags.push(Diagnostic::at(
                    Code::SharedOob,
                    at,
                    format!(
                        "shared-memory {what} `{instr}` is provably out of bounds: every \
                         executing lane computes a word index in [{}, {}], entirely outside \
                         the {shared_words} declared shared words",
                        a.lo, a.hi
                    ),
                ));
            }
        }

        // RFH-L010: the taint analysis calls the guard thread-dependent,
        // but the abstract interpreter proves the branch never splits the
        // warp.
        if instr.op.is_branch() {
            if let (Some(g), Some(ga)) = (&instr.guard, f.guard) {
                let succs = kernel.successors(at.block);
                if succs.len() == 2
                    && succs[0] != succs[1]
                    && ga.never_diverges()
                    && taint.non_uniform_guard(g)
                {
                    let bang = if g.negated { "!" } else { "" };
                    diags.push(Diagnostic::at(
                        Code::UniformBranch,
                        at,
                        format!(
                            "branch guard @{bang}{} is computed from thread-dependent \
                             inputs but is provably warp-uniform: the branch never \
                             diverges, so its reconvergence bookkeeping is dead weight",
                            g.reg
                        ),
                    ));
                }
            }
        }

        // RFH-L011: a proven-constant ALU result.
        if is_foldable_alu(instr.op) {
            if let Some(c) = f.dst.as_ref().and_then(|d| d.as_const()) {
                diags.push(Diagnostic::note_at(
                    Code::ConstFold,
                    at,
                    format!(
                        "`{instr}` always computes {c:#x}: the operation folds to an \
                         immediate mov"
                    ),
                ));
            }
        }
    }
}
