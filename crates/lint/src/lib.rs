#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-lint — dataflow-driven static analyzer for RFH kernels
//!
//! A multi-pass linter over `rfh-isa` kernels, driven by the dataflow
//! infrastructure in `rfh-analysis` (CFG, dominators, liveness, def-use,
//! strands). Each finding carries a stable code (`RFH-L0xx`), a fixed
//! severity, and a block/instruction span:
//!
//! | code | severity | check |
//! |------|----------|-------|
//! | RFH-L001 | error | may-use-before-def on some CFG path (predication-aware) |
//! | RFH-L002 | warning | unreachable basic block |
//! | RFH-L003 | warning | definition whose result is never read |
//! | RFH-L004 | error | barrier reachable under divergent control flow |
//! | RFH-L005 | warning | statically detectable shared-memory race |
//! | RFH-L006 | error | LRF placement contract violation |
//! | RFH-L007 | error | ORF/MRF placement inconsistency (incl. stale MRF reads) |
//! | RFH-L008 | warning | upper-level pressure predicting MRF spills |
//! | RFH-L009 | error | provably out-of-bounds shared-memory access |
//! | RFH-L010 | warning | provably uniform branch under a thread-dependent predicate |
//! | RFH-L011 | note | constant-foldable ALU operation |
//!
//! RFH-L009 through RFH-L011 (and the interval sharpening of RFH-L005 and
//! dead-edge pruning of RFH-L008) are powered by one run of the abstract
//! interpreter in `rfh_analysis::absint` — interval value ranges, tid-affine
//! forms, and warp-uniformity over the kernel CFG. RFH-L005 additionally
//! emits note-severity findings for shared-memory indices the affine
//! resolver cannot verify.
//!
//! `docs/LINTS.md` documents every code with a triggering example. The
//! entry point is [`lint_kernel`]; `rfhc lint` wires it to the command
//! line, and the chaos harness (`rfh-chaos`) uses it as the flagging
//! oracle of its differential soundness layer: every IR-mutated kernel
//! must either be flagged with an error here or execute and validate
//! cleanly.
//!
//! Linting never mutates the kernel and never panics on a kernel that
//! passed [`rfh_isa::validate`].

use rfh_analysis::absint::{self, AbsCtx};
use rfh_analysis::strand::mark_strands;
use rfh_analysis::{DomTree, Liveness};
use rfh_isa::Kernel;

mod barrier;
mod dead;
pub mod diag;
mod place;
mod pressure;
mod race;
pub mod render;
mod undef;
mod value;

pub use diag::{has_errors, Code, Diagnostic, Severity};
pub use render::{human_line, json_line};

use rfh_alloc::AllocConfig;

/// Options controlling a lint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintOptions {
    /// The hierarchy shape placement annotations are checked against
    /// (RFH-L006/RFH-L007) and pressure is measured against (RFH-L008).
    /// Must match the configuration the kernel was allocated with;
    /// unallocated kernels (all-MRF annotations) pass the placement checks
    /// under any configuration.
    pub alloc: AllocConfig,
    /// The shared-memory size, in 32-bit words, that RFH-L009 bounds-checks
    /// proven address intervals against.
    pub shared_words: usize,
}

impl Default for LintOptions {
    /// The paper's most efficient configuration (3 ORF entries, split
    /// LRF), matching [`AllocConfig::default`], and the simulator's default
    /// 8192-word (32 KiB) shared memory.
    fn default() -> Self {
        LintOptions {
            alloc: AllocConfig::default(),
            shared_words: 8192,
        }
    }
}

/// Lints a kernel, returning all findings sorted by program order (block,
/// then instruction, then code).
///
/// The kernel must have passed [`rfh_isa::validate`]; structural
/// invariants (terminator placement, branch targets, operand counts) are
/// the validator's business, and the analyses here assume them.
pub fn lint_kernel(kernel: &Kernel, options: &LintOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dom = DomTree::dominators(kernel);
    // One abstract-interpretation run feeds the L005 sharpening, the L008
    // dead-strand pruning, and the L009–L011 checks.
    let info = mark_strands(kernel);
    let absres = absint::analyze(kernel, AbsCtx::default());
    let liveness = Liveness::compute(kernel);
    // One warp-uniformity taint serves the barrier and value checks.
    let uniformity = barrier::uniformity(kernel);
    undef::check(kernel, &dom, &mut diags);
    dead::check(kernel, &dom, &liveness, &mut diags);
    barrier::check(kernel, &dom, &uniformity, &mut diags);
    race::check(kernel, &dom, &absres, &mut diags);
    place::check(kernel, &options.alloc, &mut diags);
    pressure::check(
        kernel,
        &info,
        &liveness,
        &options.alloc,
        &absres,
        &mut diags,
    );
    value::check(
        kernel,
        &absres,
        &uniformity,
        options.shared_words,
        &mut diags,
    );
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    diags.dedup();
    diags
}
