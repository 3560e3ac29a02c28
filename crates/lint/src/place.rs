//! RFH-L006 / RFH-L007 — strand/placement consistency for allocated
//! kernels: the *static* counterpart of `rfh_alloc::validate_placements`.
//!
//! The dynamic replay validator stops at the first inconsistency; this
//! check walks the same per-strand symbolic state (ORF entries and LRF
//! banks as `Option<Reg>`, met by intersection across paths) but recovers
//! after each finding and keeps going, attributing every violation to its
//! instruction:
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

use rfh_alloc::validate::stale_mrf_reads;
use rfh_alloc::{AllocConfig, LrfMode};
use rfh_analysis::strand::walk_segments;
use rfh_isa::access::{AccessKind, AccessPlan, AccessSlot, Datapath, Place};
use rfh_isa::{Kernel, Reg, Width};

use crate::diag::{Code, Diagnostic};

#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    orf: Vec<Option<Reg>>,
    lrf: Vec<Option<Reg>>,
}

impl State {
    fn empty(config: &AllocConfig) -> State {
        let banks = match config.lrf {
            LrfMode::None => 0,
            LrfMode::Unified => 1,
            LrfMode::Split => 3,
        };
        State {
            orf: vec![None; config.orf_entries],
            lrf: vec![None; banks],
        }
    }

    fn meet(&mut self, other: &State) {
        for (a, b) in self.orf.iter_mut().zip(&other.orf) {
            if *a != *b {
                *a = None;
            }
        }
        for (a, b) in self.lrf.iter_mut().zip(&other.lrf) {
            if *a != *b {
                *a = None;
            }
        }
    }
}

/// Runs the check, appending RFH-L006/RFH-L007 findings to `diags`.
pub(crate) fn check(kernel: &Kernel, config: &AllocConfig, diags: &mut Vec<Diagnostic>) {
    // MRF freshness: every MRF read that may observe a register whose
    // latest definition on some path skipped the MRF write.
    let Ok(()) = stale_mrf_reads(kernel, |at, i, reg| -> Result<(), Infallible> {
        diags.push(Diagnostic::at(
            Code::OrfConflict,
            at,
            format!(
                "MRF read of {reg} may observe a stale copy — an earlier \
                 definition skipped the MRF write (`{i}`)"
            ),
        ));
        Ok(())
    });
    let mut plan = AccessPlan::new();
    let Ok(()) = walk_segments(
        kernel,
        || State::empty(config),
        State::meet,
        |at, state| -> Result<(), Infallible> {
            let instr = kernel.instr(at);
            plan.resolve_into(instr);

            // ---- reads ----
            let mut fills: Vec<(usize, Reg)> = Vec::new();
            for a in plan
                .accesses()
                .iter()
                .filter(|a| a.kind != AccessKind::Write)
            {
                let reg = a.reg;
                match (a.kind, a.place) {
                    (AccessKind::Fill, Place::Orf(e)) => {
                        let e = e as usize;
                        if e >= config.orf_entries {
                            diags.push(Diagnostic::at(
                                Code::OrfConflict,
                                at,
                                format!("fill entry ORF{e} out of range (`{instr}`)"),
                            ));
                        } else {
                            fills.push((e, reg));
                        }
                    }
                    (_, Place::Mrf) | (AccessKind::Fill, _) => {}
                    (_, Place::Orf(e)) => {
                        let e = e as usize;
                        if e >= config.orf_entries {
                            diags.push(Diagnostic::at(
                                Code::OrfConflict,
                                at,
                                format!("read entry ORF{e} out of range (`{instr}`)"),
                            ));
                        } else if state.orf[e] != Some(reg) {
                            diags.push(Diagnostic::at(
                                Code::OrfConflict,
                                at,
                                format!(
                                    "ORF{e} holds {} but the read expects {reg} (`{instr}`)",
                                    describe(state.orf[e])
                                ),
                            ));
                        }
                    }
                    (_, Place::Lrf(bank)) => {
                        if !config.lrf.enabled() {
                            diags.push(Diagnostic::at(
                                Code::LrfMisuse,
                                at,
                                format!("LRF read but no LRF configured (`{instr}`)"),
                            ));
                            continue;
                        }
                        if a.datapath == Datapath::Shared {
                            diags.push(Diagnostic::at(
                                Code::LrfMisuse,
                                at,
                                format!("the shared datapath cannot read the LRF (`{instr}`)"),
                            ));
                            continue;
                        }
                        let AccessSlot::Src(i) = a.slot else { continue };
                        let i = i as usize;
                        let b = match (config.lrf, bank) {
                            (LrfMode::Unified, None) => 0,
                            (LrfMode::Split, Some(s)) => {
                                if s.index() != i {
                                    diags.push(Diagnostic::at(
                                        Code::LrfMisuse,
                                        at,
                                        format!(
                                            "split LRF read from bank {s} in operand slot {i} \
                                             (`{instr}`)"
                                        ),
                                    ));
                                    continue;
                                }
                                s.index()
                            }
                            _ => {
                                diags.push(Diagnostic::at(
                                    Code::LrfMisuse,
                                    at,
                                    format!(
                                        "LRF bank annotation does not match {} mode (`{instr}`)",
                                        config.lrf
                                    ),
                                ));
                                continue;
                            }
                        };
                        if state.lrf[b] != Some(reg) {
                            diags.push(Diagnostic::at(
                                Code::LrfMisuse,
                                at,
                                format!(
                                    "LRF bank {b} holds {} but the read expects {reg} (`{instr}`)",
                                    describe(state.lrf[b])
                                ),
                            ));
                        }
                    }
                }
            }
            for (e, reg) in fills {
                state.orf[e] = Some(reg);
            }

            // ---- defs ----
            if !plan.written_words().is_empty() {
                let orf_base = plan
                    .writes()
                    .find_map(|a| a.place.orf_entry().map(|e| e as usize));
                let words = plan.written_words().len();
                let target_lrf: Option<usize> =
                    plan.writes().find_map(|a| match (config.lrf, a.place) {
                        (LrfMode::Unified, Place::Lrf(None)) => Some(0),
                        (LrfMode::Split, Place::Lrf(Some(s))) => Some(s.index()),
                        _ => None,
                    });
                for r in plan.written_words() {
                    for (e, slot) in state.orf.iter_mut().enumerate() {
                        let targeted = orf_base.is_some_and(|base| e >= base && e < base + words);
                        if !targeted && *slot == Some(*r) {
                            *slot = None;
                        }
                    }
                    for (b, slot) in state.lrf.iter_mut().enumerate() {
                        if target_lrf != Some(b) && *slot == Some(*r) {
                            *slot = None;
                        }
                    }
                }
                let guarded = instr.guard.is_some();
                let write = |slot: &mut Option<Reg>, reg: Reg| {
                    if guarded {
                        if *slot != Some(reg) {
                            *slot = None;
                        }
                    } else {
                        *slot = Some(reg);
                    }
                };
                if let Some(e) = orf_base {
                    let slots = words;
                    if e + slots > config.orf_entries {
                        diags.push(Diagnostic::at(
                            Code::OrfConflict,
                            at,
                            format!("write entry ORF{e} (+{slots} wide) out of range (`{instr}`)"),
                        ));
                    } else {
                        for a in plan.writes() {
                            if let Place::Orf(entry) = a.place {
                                write(&mut state.orf[entry as usize], a.reg);
                            }
                        }
                    }
                }
                for a in plan.writes() {
                    let Place::Lrf(bank) = a.place else { continue };
                    // Per-value checks run once, on the low word's access.
                    if a.slot != AccessSlot::DstWord(0) {
                        continue;
                    }
                    let mut ok = true;
                    if !config.lrf.enabled() {
                        diags.push(Diagnostic::at(
                            Code::LrfMisuse,
                            at,
                            format!("LRF write but no LRF configured (`{instr}`)"),
                        ));
                        ok = false;
                    }
                    if a.datapath == Datapath::Shared {
                        diags.push(Diagnostic::at(
                            Code::LrfMisuse,
                            at,
                            format!("the shared datapath cannot write the LRF (`{instr}`)"),
                        ));
                        ok = false;
                    }
                    if a.width == Width::W64 {
                        diags.push(Diagnostic::at(
                            Code::LrfMisuse,
                            at,
                            format!("64-bit values cannot live in the LRF (`{instr}`)"),
                        ));
                        ok = false;
                    }
                    if ok {
                        match (config.lrf, bank) {
                            (LrfMode::Unified, None) => write(&mut state.lrf[0], a.reg),
                            (LrfMode::Split, Some(s)) => write(&mut state.lrf[s.index()], a.reg),
                            _ => diags.push(Diagnostic::at(
                                Code::LrfMisuse,
                                at,
                                format!(
                                    "LRF bank annotation does not match {} mode (`{instr}`)",
                                    config.lrf
                                ),
                            )),
                        }
                    }
                }
            } else if plan.orphan_upper_write() {
                diags.push(Diagnostic::at(
                    Code::OrfConflict,
                    at,
                    format!(
                        "upper-level write annotation on an instruction with no destination \
                         (`{instr}`)"
                    ),
                ));
            }
            Ok(())
        },
    );
}

fn describe(slot: Option<Reg>) -> String {
    match slot {
        Some(r) => format!("{r}"),
        None => "no known value".to_string(),
    }
}
