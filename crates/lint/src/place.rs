//! RFH-L006 / RFH-L007 — strand/placement consistency for allocated
//! kernels: every finding of `rfh_alloc`'s one static placement model
//! ([`placement_findings`]), attributed to its instruction.
//!
//! `rfh_alloc::validate_placements` stops at the first finding; lint
//! reports them all, since the walk recovers after each one, skipping
//! only the faulty access:
//!
//! * RFH-L006 — LRF contract violations: shared-datapath reads/writes,
//!   bank/slot mismatches under the split LRF, 64-bit values, accesses
//!   with no LRF configured, and a bank holding a different value;
//! * RFH-L007 — ORF/MRF consistency: entries out of range or holding a
//!   different register than annotated, upper-level writes with no
//!   destination, and MRF reads that may observe a stale copy (a path
//!   whose latest definition skipped the MRF write).
//!
//! Strand boundaries come from the `ends_strand` bits already on the
//! instructions; an unallocated kernel (all placements MRF) passes
//! trivially.

use std::convert::Infallible;

use rfh_alloc::validate::{placement_findings, Entry, Finding, FindingKind};
use rfh_alloc::AllocConfig;
use rfh_isa::access::AccessKind;
use rfh_isa::Kernel;

use crate::diag::{Code, Diagnostic};

/// Runs the check, appending RFH-L006/RFH-L007 findings to `diags`.
pub(crate) fn check(kernel: &Kernel, config: &AllocConfig, diags: &mut Vec<Diagnostic>) {
    let Ok(()) = placement_findings(kernel, config, |f| -> Result<(), Infallible> {
        diags.push(diagnostic(&f));
        Ok(())
    });
}

fn diagnostic(f: &Finding<'_>) -> Diagnostic {
    use FindingKind::*;
    let what = match f.kind {
        StaleMrf(reg) => format!(
            "MRF read of {reg} may observe a stale copy — an earlier definition skipped the MRF \
             write"
        ),
        OrfOutOfRange(AccessKind::Write, e) => {
            format!("write entry ORF{e} (+{} wide) out of range", f.words())
        }
        OrfOutOfRange(kind, e) => format!("{kind} entry ORF{e} out of range"),
        OrfHolds(e, held, reg) => {
            format!("ORF{e} holds {} but the read expects {reg}", describe(held))
        }
        NoLrf(kind) => format!("LRF {kind} but no LRF configured"),
        SharedLrf(kind) => format!("the shared datapath cannot {kind} the LRF"),
        SplitSlot(bank, slot) => format!("split LRF read from bank {bank} in operand slot {slot}"),
        BankMode(mode) => format!("LRF bank annotation does not match {mode} mode"),
        LrfHolds(b, held, reg) => {
            format!(
                "LRF bank {b} holds {} but the read expects {reg}",
                describe(held)
            )
        }
        WideLrf => "64-bit values cannot live in the LRF".to_string(),
        OrphanUpperWrite => {
            "upper-level write annotation on an instruction with no destination".to_string()
        }
    };
    let code = if f.kind.is_lrf() {
        Code::LrfMisuse
    } else {
        Code::OrfConflict
    };
    Diagnostic::at(code, f.at, format!("{what} (`{}`)", f.instr))
}

fn describe(held: Option<Entry>) -> String {
    match held {
        None => "no known value".to_string(),
        Some(Entry { reg, guard: None }) => format!("{reg}"),
        Some(Entry {
            reg,
            guard: Some(g),
        }) => format!("{reg} under @{}{}", if g.negated { "!" } else { "" }, g.reg),
    }
}
