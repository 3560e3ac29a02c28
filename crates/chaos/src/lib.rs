#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::unreachable, clippy::todo)
)]

//! # rfh-chaos — fault injection for the RFH pipeline
//!
//! Seeded mutators that corrupt kernels at several layers of the
//! toolchain, plus a driver asserting the robustness contract at each
//! layer:
//!
//! * [`byte`] — raw assembly-text corruption (truncation, garbage bytes
//!   including non-UTF-8, bit flips, token splices) fed to the parser;
//! * [`ir`] — structural IR corruption (drop/duplicate instructions,
//!   retarget branches, swap operands, toggle strand ends) fed to the
//!   validator and allocator;
//! * [`place`] — placement-annotation corruption on an allocated kernel
//!   (flip `ReadLoc`/`WriteLoc`, drop `also_mrf`, shift ORF indices) fed
//!   to every placement judge.
//!
//! [`harness`] runs thousands of seeded mutants per layer and asserts the
//! **trichotomy**: every mutant is either *rejected with a structured
//! error*, or *validated and architecturally identical* (differential
//! execution against the baseline agrees exactly), or *flagged* by a
//! check stricter than execution. A panic or a hang anywhere is a bug; so
//! is an unflagged placement corruption that changes results (validator
//! unsoundness) or a validated mutant whose baseline and hierarchy
//! executions disagree.
//!
//! The layers, by driver:
//!
//! * [`harness::run_byte_layer`] and [`harness::run_ir_layer`] feed byte
//!   and IR mutants through parse, validate and allocate, then execute
//!   the survivors in baseline and hierarchy mode.
//! * [`harness::run_lint_layer`] turns the IR mutants on the `rfh-lint`
//!   static analyzer and asserts its one-directional soundness: every
//!   mutant lint does **not** flag with an error must execute and
//!   validate cleanly under the differential contract.
//! * [`harness::run_placement_layer`] asks every placement judge about
//!   each placement mutant once — `validate_placements`, the shipped
//!   executor's tag model, tag-checked replay from one recorded baseline
//!   stream, and the storage-faithful reference interpreter — and checks
//!   the relations between their verdicts: whatever the validator accepts
//!   computes the reference memory on the oracle and passes execution and
//!   replay; replay rejects whatever the oracle computes wrongly;
//!   execution and replay accept the same mutants and count them equally;
//!   and whatever execution accepts, the oracle accepts identically.
//! * [`harness::run_exec_differential_layer`] points the IR mutants at
//!   the *executor pair*: the warp-batched SoA engine and the frozen
//!   reference interpreter must land every structurally valid mutant in
//!   the same accept/reject class, with bit-identical state on acceptance
//!   and the identical structured error on rejection — so engine
//!   conformance is fuzzed with hostile inputs, not just well-formed
//!   programs.
//! * [`harness::run_protocol_layer`] aims seeded *wire-protocol* faults
//!   ([`wire`]) — truncated frames, garbage bytes, oversized length
//!   prefixes, mid-request disconnects, stalled slow writers, ill-typed
//!   request fields — at a live
//!   in-process `rfhd` daemon and asserts the service trichotomy:
//!   well-formed requests succeed, malformed traffic draws a structured
//!   error frame or a clean teardown, and the daemon keeps serving
//!   throughout — no deaths, no poisoned workers, no leaked queue slots.
//! * [`harness::run_absint_layer`] turns the IR mutants on the *abstract
//!   interpreter* (`rfh_analysis::absint`) and its last-use hint pass: on
//!   every surviving mutant, the analyses must be panic-free, every
//!   derived claim must hold on the concrete execution — written values
//!   inside predicted intervals, affine forms bit-exact, uniform-marked
//!   registers never divergent across a warp, predicate knowledge and
//!   reachability respected, and no read ever following a read the
//!   analysis proved final — and hint-guided allocation must be
//!   semantics-preserving under the differential contract.
//! * [`harness::run_timing_layer`] corrupts *captured timing traces* and
//!   their scheduler configs ([`trace`]) — reordered ops, perturbed
//!   latency classes, scrambled dependences, truncated warp streams,
//!   unbalanced barriers, degenerate configs — and replays every mutant
//!   through both timing engines (the flat per-cycle loop and the frozen
//!   reference oracle): surviving traces must agree exactly on the
//!   `TimingResult`, malformed ones must produce field-for-field
//!   identical structured errors, deadlock snapshots included.
//!
//! Every case derives its RNG seed from a base seed via SplitMix64, so a
//! failure report pinpoints one replayable case. Set `RFH_TESTKIT_SEED`
//! to override the base seed and `RFH_CHAOS_CASES` to scale the case
//! budget (CI smoke runs use a small budget; the defaults exercise at
//! least 1000 mutants per layer).

pub mod byte;
pub mod harness;
pub mod ir;
pub mod place;
pub mod trace;
pub mod wire;

pub use harness::{
    cases_from_env, run_absint_layer, run_byte_layer, run_exec_differential_layer, run_ir_layer,
    run_lint_layer, run_placement_layer, run_protocol_layer, run_timing_layer, seed_from_env,
    ChaosReport,
};
