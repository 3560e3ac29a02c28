//! The instruction-trace observer interface.
//!
//! The functional executor emits one event per executed warp instruction;
//! counting models ([`crate::counts`], [`crate::rfc`], [`crate::usage`])
//! implement [`TraceSink`] and accumulate whatever they need. This mirrors
//! the paper's methodology of a custom Ocelot trace analysis tool recording
//! hierarchy accesses over full program executions (§5.1).

use rfh_isa::access::AccessPlan;
use rfh_isa::{InstrRef, Instruction};

/// One executed warp instruction.
#[derive(Debug, Clone, Copy)]
pub struct InstrEvent<'a> {
    /// The issuing warp's global index.
    pub warp: usize,
    /// The instruction's position in the kernel.
    pub at: InstrRef,
    /// The instruction itself (with placement and liveness annotations).
    pub instr: &'a Instruction,
    /// Threads active in the warp when the instruction issued.
    pub active_mask: u32,
    /// Threads that actually executed (active ∧ guard).
    pub exec_mask: u32,
    /// The instruction's resolved register-file accesses. The executor
    /// resolves the plan (once per static instruction under the SoA
    /// engine), so sinks consume it directly instead of each re-resolving
    /// `instr` per event.
    pub plan: &'a AccessPlan,
}

/// An observer of the executed instruction stream.
pub trait TraceSink {
    /// Called for every warp instruction issued (even fully predicated-off
    /// ones — they still read their operands).
    fn on_instr(&mut self, event: &InstrEvent<'_>);

    /// Called when a warp finishes executing.
    fn on_warp_done(&mut self, _warp: usize) {}

    /// Called after a destination register word is written, with the warp's
    /// full lane values for that word (`lanes[i]` is lane `i`; only lanes
    /// set in `exec_mask` were updated by this instruction). Emitted by the
    /// SoA executor only; the default implementation ignores it.
    fn on_reg_write(
        &mut self,
        _warp: usize,
        _at: InstrRef,
        _reg: rfh_isa::Reg,
        _lanes: &[u32],
        _exec_mask: u32,
    ) {
    }

    /// Called after a destination predicate is written, with the warp's
    /// per-lane truth bits (`bits & (1 << i)` is lane `i`; only lanes set
    /// in `exec_mask` were updated). Emitted by the SoA executor only.
    fn on_pred_write(
        &mut self,
        _warp: usize,
        _at: InstrRef,
        _pred: rfh_isa::PredReg,
        _bits: u32,
        _exec_mask: u32,
    ) {
    }
}

/// A sink that discards everything (for pure functional runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_instr(&mut self, _event: &InstrEvent<'_>) {}
}
