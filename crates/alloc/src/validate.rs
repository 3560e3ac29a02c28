//! Placement validation: proves that allocated kernels are executable.
//!
//! Walks each strand's (forward-edge-only) subgraph tracking the symbolic
//! contents of every ORF entry and LRF bank, and checks that:
//!
//! * every `ORF`/`LRF` read finds exactly the register word the annotation
//!   claims, on **all** paths reaching the read;
//! * entry indices are within the configured sizes;
//! * the LRF is only written by, and read from, the private datapath;
//! * split-LRF reads use the bank matching their operand slot;
//! * no value is expected to survive a strand boundary in an upper level.
//!
//! Guarded (predicated) writes may or may not execute. A guarded write
//! over an entry already holding the same register word preserves it (both
//! outcomes agree with the architectural register); any other guarded
//! write leaves a *conditional* entry, valid only for reads under the
//! exact same guard — the shape the last-use hint pass produces — and
//! invalidated when the guarding predicate is redefined.

use std::collections::HashMap;
use std::fmt;

use rfh_analysis::RegSet;
use rfh_isa::access::{AccessKind, AccessPlan, AccessSlot, Datapath, Place};
use rfh_isa::{InstrRef, Instruction, Kernel, PredGuard, Reg, Width};

use crate::config::{AllocConfig, LrfMode};

/// An instruction's position and text as error messages quote them,
/// rendered only when an error is actually reported.
struct Loc<'a>(InstrRef, &'a Instruction);

impl fmt::Display for Loc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} `{}`", self.0, self.1)
    }
}

/// Symbolic contents of one upper-level entry: which register word it
/// mirrors, and under which guard the mirroring holds (`None`: on every
/// lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    reg: Reg,
    guard: Option<PredGuard>,
}

/// Symbolic contents of the upper levels along one path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    orf: Vec<Option<Entry>>,
    lrf: Vec<Option<Entry>>,
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

/// Whether an entry's symbolic contents serve a read of `reg` on an
/// instruction guarded by `guard`: the entry must mirror the same word,
/// unconditionally or under the exact same guard (same predicate, same
/// polarity — then the read only executes on lanes the write reached).
fn entry_serves(entry: Option<Entry>, reg: Reg, guard: Option<PredGuard>) -> bool {
    entry.is_some_and(|en| en.reg == reg && (en.guard.is_none() || en.guard == guard))
}

/// Splits a kernel into strands using the `ends_strand` bits already on the
/// instructions (set by `rfh-analysis::strand::mark_strands`).
fn segments(kernel: &Kernel) -> Vec<Vec<InstrRef>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for (at, i) in kernel.iter_instrs() {
        cur.push(at);
        if i.ends_strand {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Whole-kernel check that no MRF read can observe a *stale* MRF copy —
/// i.e. a register whose latest definition on some path was written only
/// to an upper level. Forward may-be-stale dataflow over blocks.
fn validate_mrf_freshness(kernel: &Kernel, plans: &[Vec<AccessPlan>]) -> Result<(), String> {
    let n = kernel.blocks.len();
    let num_regs = kernel.num_regs();
    let mut stale_in = vec![RegSet::new(num_regs); n];
    let preds = kernel.predecessors();

    let transfer = |stale: &mut RegSet,
                    b: &rfh_isa::BasicBlock,
                    check: bool|
     -> Result<(), String> {
        for (idx, (i, plan)) in b.instrs.iter().zip(&plans[b.id.index()]).enumerate() {
            if check {
                // An MRF-served read (including the MRF half of a fill) of
                // a may-be-stale register is the bug this pass exists for.
                for a in plan.reads() {
                    if a.place == Place::Mrf && stale.contains(a.reg) {
                        return Err(format!(
                            "{}[{idx}] `{i}`: MRF read of {} may observe a stale copy                                  (an earlier definition skipped the MRF write)",
                            b.id, a.reg
                        ));
                    }
                }
            }
            let writes_mrf = plan.writes_mrf();
            for r in plan.written_words() {
                if writes_mrf {
                    if i.guard.is_none() {
                        stale.remove(*r);
                    }
                    // A guarded MRF write leaves the staleness as-is.
                } else {
                    stale.insert(*r);
                }
            }
        }
        Ok(())
    };

    // Fixpoint (may-be-stale is a union/forward problem).
    let mut changed = true;
    while changed {
        changed = false;
        for b in &kernel.blocks {
            let mut inn = RegSet::new(num_regs);
            for p in &preds[b.id.index()] {
                let mut out = stale_in[p.index()].clone();
                transfer(&mut out, kernel.block(*p), false)?;
                inn.union_with(&out);
            }
            if inn != stale_in[b.id.index()] {
                stale_in[b.id.index()] = inn;
                changed = true;
            }
        }
    }
    // Final checking pass.
    for b in &kernel.blocks {
        let mut stale = stale_in[b.id.index()].clone();
        transfer(&mut stale, b, true)?;
    }
    Ok(())
}

/// Checks every placement annotation in `kernel` for consistency.
///
/// Two passes: a per-strand symbolic walk proving every upper-level read
/// finds the value its annotation names, and a whole-kernel freshness
/// check proving no MRF read can observe a register whose MRF copy was
/// skipped (the freshness dataflow).
///
/// # Errors
///
/// Returns a human-readable description of the first inconsistency found.
pub fn validate_placements(kernel: &Kernel, config: &AllocConfig) -> Result<(), String> {
    // Resolve every instruction's access plan once up front; the freshness
    // fixpoint re-walks blocks many times and the strand walk reuses them.
    let plans: Vec<Vec<AccessPlan>> = kernel
        .blocks
        .iter()
        .map(|b| b.instrs.iter().map(AccessPlan::resolve).collect())
        .collect();
    validate_mrf_freshness(kernel, &plans)?;
    let preds = kernel.predecessors();
    for strand in segments(kernel) {
        let pos_of: HashMap<InstrRef, usize> =
            strand.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        let mut out_states: Vec<State> = Vec::with_capacity(strand.len());

        for (pos, at) in strand.iter().enumerate() {
            let instr = kernel.instr(*at);
            let plan = &plans[at.block.index()][at.index];
            let loc = Loc(*at, instr);

            // ---- in-state ----
            let mut state: Option<State> = None;
            let meet_in = |state: &mut Option<State>, s: &State| match state {
                None => *state = Some(s.clone()),
                Some(cur) => cur.meet(s),
            };
            let mut external = false;
            if at.index > 0 {
                let prev = InstrRef {
                    block: at.block,
                    index: at.index - 1,
                };
                match pos_of.get(&prev) {
                    Some(p) => meet_in(&mut state, &out_states[*p]),
                    None => external = true,
                }
            } else {
                for p in &preds[at.block.index()] {
                    let pb = kernel.block(*p);
                    let term = InstrRef {
                        block: *p,
                        index: pb.instrs.len() - 1,
                    };
                    match pos_of.get(&term) {
                        // Later positions are the strand's own closing
                        // backedge: inter-strand, upper levels invalid.
                        Some(t) if *t < pos => meet_in(&mut state, &out_states[*t]),
                        _ => external = true,
                    }
                }
            }
            let mut state = match (state, external) {
                (Some(s), false) => s,
                (Some(mut s), true) => {
                    s.meet(&State::empty(config));
                    s
                }
                (None, _) => State::empty(config),
            };

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
                            return Err(format!("{loc}: fill entry ORF{e} out of range"));
                        }
                        fills.push((e, reg));
                    }
                    (_, Place::Mrf) | (AccessKind::Fill, _) => {}
                    (_, Place::Orf(e)) => {
                        let e = e as usize;
                        if e >= config.orf_entries {
                            return Err(format!("{loc}: read entry ORF{e} out of range"));
                        }
                        if !entry_serves(state.orf[e], reg, instr.guard) {
                            return Err(format!(
                                "{loc}: ORF{e} holds {:?}, expected {reg} under {:?}",
                                state.orf[e], instr.guard
                            ));
                        }
                    }
                    (_, Place::Lrf(bank)) => {
                        if !config.lrf.enabled() {
                            return Err(format!("{loc}: LRF read but no LRF configured"));
                        }
                        if a.datapath == Datapath::Shared {
                            return Err(format!("{loc}: shared datapath cannot read the LRF"));
                        }
                        let AccessSlot::Src(i) = a.slot else {
                            continue;
                        };
                        let i = i as usize;
                        let b = match (config.lrf, bank) {
                            (LrfMode::Unified, None) => 0,
                            (LrfMode::Split, Some(s)) => {
                                if s.index() != i {
                                    return Err(format!(
                                        "{loc}: split LRF read from bank {s} in slot {i}"
                                    ));
                                }
                                s.index()
                            }
                            _ => {
                                return Err(format!(
                                    "{loc}: LRF bank annotation does not match {} mode",
                                    config.lrf
                                ))
                            }
                        };
                        if !entry_serves(state.lrf[b], reg, instr.guard) {
                            return Err(format!(
                                "{loc}: LRF bank {b} holds {:?}, expected {reg} under {:?}",
                                state.lrf[b], instr.guard
                            ));
                        }
                    }
                }
            }
            for (e, reg) in fills {
                state.orf[e] = Some(Entry { reg, guard: None });
            }

            // ---- defs ----
            if !plan.written_words().is_empty() {
                // Any redefinition (even a guarded one, conservatively)
                // invalidates stale copies in entries it does not target;
                // the targeted entries are handled by `write` below.
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
                        if !targeted && slot.is_some_and(|en| en.reg == *r) {
                            *slot = None;
                        }
                    }
                    for (b, slot) in state.lrf.iter_mut().enumerate() {
                        if target_lrf != Some(b) && slot.is_some_and(|en| en.reg == *r) {
                            *slot = None;
                        }
                    }
                }
                let guard = instr.guard;
                let write = |slot: &mut Option<Entry>, reg: Reg| match guard {
                    None => *slot = Some(Entry { reg, guard: None }),
                    Some(g) => match *slot {
                        // A guarded write of the word an unconditional entry
                        // already mirrors preserves it: either outcome still
                        // matches the architectural register.
                        Some(en) if en.reg == reg && en.guard.is_none() => {}
                        // Otherwise the entry is valid only under this guard.
                        _ => {
                            *slot = Some(Entry {
                                reg,
                                guard: Some(g),
                            })
                        }
                    },
                };
                if let Some(e) = orf_base {
                    let slots = words;
                    if e + slots > config.orf_entries {
                        return Err(format!("{loc}: write entry ORF{e} (+{slots}) out of range"));
                    }
                    for a in plan.writes() {
                        if let Place::Orf(entry) = a.place {
                            write(&mut state.orf[entry as usize], a.reg);
                        }
                    }
                }
                for a in plan.writes() {
                    let Place::Lrf(bank) = a.place else { continue };
                    // Per-value checks run once, on the low word's access.
                    if a.slot != AccessSlot::DstWord(0) {
                        continue;
                    }
                    if !config.lrf.enabled() {
                        return Err(format!("{loc}: LRF write but no LRF configured"));
                    }
                    if a.datapath == Datapath::Shared {
                        return Err(format!("{loc}: shared datapath cannot write the LRF"));
                    }
                    if a.width == Width::W64 {
                        return Err(format!("{loc}: 64-bit values cannot live in the LRF"));
                    }
                    let b = match (config.lrf, bank) {
                        (LrfMode::Unified, None) => 0,
                        (LrfMode::Split, Some(s)) => s.index(),
                        _ => {
                            return Err(format!(
                                "{loc}: LRF bank annotation does not match {} mode",
                                config.lrf
                            ))
                        }
                    };
                    write(&mut state.lrf[b], a.reg);
                }
            } else if plan.orphan_upper_write() {
                return Err(format!(
                    "{loc}: upper-level write on an instruction with no destination"
                ));
            }

            // Redefining a predicate invalidates every entry whose validity
            // is conditional on it.
            if let Some(p) = instr.pdst {
                for slot in state.orf.iter_mut().chain(state.lrf.iter_mut()) {
                    if slot.is_some_and(|en| en.guard.is_some_and(|g| g.reg == p)) {
                        *slot = None;
                    }
                }
            }

            out_states.push(state);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::{parse_kernel, BlockId, ReadLoc, Slot, WriteLoc};

    fn at(b: u32, i: usize) -> InstrRef {
        InstrRef {
            block: BlockId::new(b),
            index: i,
        }
    }

    fn two_level() -> AllocConfig {
        AllocConfig::two_level(3)
    }

    #[test]
    fn baseline_kernel_validates() {
        let k = parse_kernel(".kernel b\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        validate_placements(&k, &two_level()).unwrap();
        validate_placements(&k, &AllocConfig::baseline()).unwrap();
    }

    #[test]
    fn consistent_orf_pair_validates() {
        let mut k = parse_kernel(
            ".kernel ok\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r1, 1\n  st.global r0, r2\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(1);
        validate_placements(&k, &two_level()).unwrap();
    }

    #[test]
    fn rejects_read_of_unwritten_entry() {
        let mut k = parse_kernel(".kernel bad\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).read_locs[0] = ReadLoc::Orf(0);
        let e = validate_placements(&k, &two_level()).unwrap_err();
        assert!(e.contains("ORF0"), "{e}");
    }

    #[test]
    fn rejects_wrong_register_in_entry() {
        let mut k =
            parse_kernel(".kernel bad\nBB0:\n  iadd r1 r0, 1\n  iadd r3 r2, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(0); // reads r2, entry holds r1
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_cross_strand_orf_value() {
        let mut k = parse_kernel(
            "
.kernel cross
BB0:
  iadd r1 r0, 1
  ld.global r2 r0
  iadd r3 r2, r1
  exit
",
        )
        .unwrap();
        // Re-mark strands: the consumer of r2 starts a new strand.
        rfh_analysis::strand::mark_strands(&mut k);
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 2)).read_locs[1] = ReadLoc::Orf(0); // crosses the boundary
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_entry_out_of_range() {
        let mut k = parse_kernel(".kernel r\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 7,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_shared_lrf_access() {
        let mut k = parse_kernel(".kernel s\nBB0:\n  ld.global r1 r0\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Lrf {
            bank: None,
            also_mrf: false,
        };
        let cfg = AllocConfig::three_level(3, false);
        let e = validate_placements(&k, &cfg).unwrap_err();
        assert!(e.contains("shared datapath"), "{e}");
    }

    #[test]
    fn rejects_split_bank_slot_mismatch() {
        let mut k =
            parse_kernel(".kernel sb\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r3, r1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Lrf {
            bank: Some(Slot::B),
            also_mrf: false,
        };
        // r1 is read in slot B of the second instruction: correct bank…
        k.instr_mut(at(0, 1)).read_locs[1] = ReadLoc::Lrf(Some(Slot::B));
        let cfg = AllocConfig::three_level(3, true);
        validate_placements(&k, &cfg).unwrap();
        // …but claiming bank A for a slot-B read must fail.
        k.instr_mut(at(0, 1)).read_locs[1] = ReadLoc::Lrf(Some(Slot::A));
        assert!(validate_placements(&k, &cfg).is_err());
    }

    #[test]
    fn hammock_same_entry_on_both_sides_validates() {
        // Figure 10c as explicit placements.
        let mut k = parse_kernel(
            "
.kernel h
BB0:
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
  bra BB3
BB2:
  iadd r1 r0, 2
BB3:
  iadd r2 r1, 1
  exit
",
        )
        .unwrap();
        k.instr_mut(at(1, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        k.instr_mut(at(2, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        k.instr_mut(at(3, 0)).read_locs[0] = ReadLoc::Orf(2);
        validate_placements(&k, &two_level()).unwrap();
        // Different entries on the two sides must fail.
        k.instr_mut(at(2, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn fill_makes_entry_readable() {
        let mut k = parse_kernel(
            ".kernel f\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r0, 2\n  iadd r3 r0, 3\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).read_locs[0] = ReadLoc::MrfFillOrf(0);
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(0);
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Orf(0);
        validate_placements(&k, &two_level()).unwrap();
    }

    #[test]
    fn redefinition_invalidates_stale_entry() {
        let mut k = parse_kernel(
            ".kernel st\nBB0:\n  iadd r1 r0, 1\n  mov r1, 7\n  iadd r2 r1, 1\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Orf(0); // stale after mov
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn wide_write_occupies_two_entries() {
        let mut k =
            parse_kernel(".kernel w\nBB0:\n  ld.shared r4.w64 r0\n  iadd r6 r5, 1\n  exit\n")
                .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(2); // high half
        validate_placements(&k, &two_level()).unwrap();
        // Entry 2 would spill past a 3-entry ORF with a wide write.
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }
}

#[cfg(test)]
mod freshness_tests {
    use super::*;
    use rfh_isa::{parse_kernel, WriteLoc};

    /// Regression: a loop-carried value written only to the ORF leaves the
    /// MRF stale for the next iteration's MRF read.
    #[test]
    fn stale_mrf_copy_across_backedge_rejected() {
        let mut k = parse_kernel(
            "
.kernel loopy
BB0:
  mov r5, 0.0f
BB1:
  fmul r8 r5, r5
  fadd r5 r8, 1.0f
  iadd r7 r7, 1
  setp.lt p0 r7, 4
  @p0 bra BB1
BB2:
  st.global r0, r5
  exit
",
        )
        .unwrap();
        rfh_analysis::strand::mark_strands(&mut k);
        let cfg = AllocConfig::two_level(3);
        // fadd r5 written only to the ORF: the next iteration's MRF read
        // of r5 observes the stale init value.
        let at = InstrRef {
            block: rfh_isa::BlockId::new(1),
            index: 1,
        };
        k.instr_mut(at).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        let e = validate_placements(&k, &cfg).unwrap_err();
        assert!(e.contains("stale"), "{e}");
        // With the dual write it is fine.
        k.instr_mut(at).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        validate_placements(&k, &cfg).unwrap();
    }
}
