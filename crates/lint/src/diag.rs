//! The diagnostic model: stable codes, severities, and spans.

use std::fmt;

use rfh_isa::{BlockId, InstrRef};

/// How bad a finding is.
///
/// Errors are soundness-relevant: the kernel may compute wrong results,
/// deadlock, or carry inconsistent placement annotations. Warnings are
/// conservative or advisory: the analysis cannot prove the construct safe
/// (races, pressure) or the code is merely wasteful (dead defs). Notes
/// record what an analysis *could not* conclude (an unverifiable index) or
/// a pure efficiency observation (a foldable constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational finding; never affects the exit status on its own.
    Note,
    /// Advisory or conservative finding; `rfhc lint` still exits 0.
    Warning,
    /// Definite defect; `rfhc lint` exits with the lint error code.
    Error,
}

impl Severity {
    /// Lower-case name, as rendered in human and JSON output.
    pub const fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. Each code belongs to exactly one check and
/// keeps its meaning across releases; `docs/LINTS.md` documents every code
/// with a triggering example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// RFH-L001 — a register may be read before any definition reaches the
    /// read on some CFG path (predication-aware).
    UseBeforeDef,
    /// RFH-L002 — a basic block is unreachable from the kernel entry.
    UnreachableBlock,
    /// RFH-L003 — a definition whose result is never read.
    DeadDef,
    /// RFH-L004 — a barrier may execute under divergent control flow.
    BarrierDivergence,
    /// RFH-L005 — two shared-memory accesses may race between threads with
    /// no intervening barrier (conservative, thread-index-offset based).
    SharedRace,
    /// RFH-L006 — an LRF placement annotation violates the LRF contract
    /// (shared-datapath access, bank/slot mismatch, width, configuration).
    LrfMisuse,
    /// RFH-L007 — an ORF/MRF placement annotation is inconsistent: entry
    /// out of range or holding a different value than annotated, an
    /// upper-level write without a destination, or a stale MRF read.
    OrfConflict,
    /// RFH-L008 — a strand's candidate-value demand exceeds the configured
    /// ORF/LRF capacity; the allocator will keep values in the MRF.
    Pressure,
    /// RFH-L009 — a shared-memory access whose address interval, as proved
    /// by abstract interpretation, lies entirely outside the declared
    /// shared-memory size: every executing lane faults.
    SharedOob,
    /// RFH-L010 — a branch guarded by a thread-dependent predicate that
    /// abstract interpretation proves warp-uniform: the divergence
    /// machinery (reconvergence token, mask split) is provably unused.
    UniformBranch,
    /// RFH-L011 — an ALU instruction whose result is a proven compile-time
    /// constant: the operation could be folded to an immediate `mov`.
    ConstFold,
}

impl Code {
    /// The stable code string, e.g. `RFH-L001`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::UseBeforeDef => "RFH-L001",
            Code::UnreachableBlock => "RFH-L002",
            Code::DeadDef => "RFH-L003",
            Code::BarrierDivergence => "RFH-L004",
            Code::SharedRace => "RFH-L005",
            Code::LrfMisuse => "RFH-L006",
            Code::OrfConflict => "RFH-L007",
            Code::Pressure => "RFH-L008",
            Code::SharedOob => "RFH-L009",
            Code::UniformBranch => "RFH-L010",
            Code::ConstFold => "RFH-L011",
        }
    }

    /// The default severity of this code. Individual findings may lower it
    /// (e.g. RFH-L005 "unverifiable index" notes); see
    /// [`Diagnostic::severity`].
    pub const fn severity(self) -> Severity {
        match self {
            Code::UseBeforeDef
            | Code::BarrierDivergence
            | Code::LrfMisuse
            | Code::OrfConflict
            | Code::SharedOob => Severity::Error,
            Code::UnreachableBlock
            | Code::DeadDef
            | Code::SharedRace
            | Code::Pressure
            | Code::UniformBranch => Severity::Warning,
            Code::ConstFold => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, a span (block, optionally an instruction index
/// within it), a severity, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable diagnostic code.
    pub code: Code,
    /// The severity of this particular finding. Defaults to
    /// [`Code::severity`]; a check may lower it to [`Severity::Note`] for
    /// informational variants of a code.
    pub severity: Severity,
    /// The block the finding is anchored to.
    pub block: BlockId,
    /// The instruction index within `block`, or `None` for block-level
    /// findings (e.g. an unreachable block).
    pub instr: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A finding anchored to one instruction.
    pub fn at(code: Code, at: InstrRef, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            block: at.block,
            instr: Some(at.index),
            message: message.into(),
        }
    }

    /// A note-severity finding anchored to one instruction (used for
    /// informational variants of a code, e.g. RFH-L005 "unverifiable
    /// index").
    pub fn note_at(code: Code, at: InstrRef, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::at(code, at, message)
        }
    }

    /// A block-level finding.
    pub fn at_block(code: Code, block: BlockId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            block,
            instr: None,
            message: message.into(),
        }
    }

    /// The severity of this finding.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Deterministic ordering key: program order first (block, then
    /// block-level findings before instruction findings), then code.
    pub(crate) fn sort_key(&self) -> (u32, usize, Code, &str) {
        (
            self.block.index() as u32,
            self.instr.map_or(0, |i| i + 1),
            self.code,
            &self.message,
        )
    }
}

/// Whether any finding in `diags` is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}
