//! Placement validation: proves that allocated kernels are executable.
//!
//! [`placement_findings`], the one static placement model, walks each
//! strand's (forward-edge-only) subgraph tracking the symbolic contents of
//! every ORF entry and LRF bank, and reports every place where:
//!
//! * an `ORF`/`LRF` read may not find exactly the register word the
//!   annotation claims, on **all** paths reaching the read;
//! * an entry index is outside the configured sizes;
//! * the LRF is written by, or read from, the shared datapath;
//! * a split-LRF read uses a bank other than its operand slot's;
//! * a value is expected to survive a strand boundary in an upper level;
//! * an MRF read may observe a copy an earlier definition skipped.
//!
//! [`validate_placements`] stops at the first finding; `rfh-lint` reports
//! them all as RFH-L006/L007.
//!
//! Guarded (predicated) writes may or may not execute. A guarded write
//! over an entry already holding the same register word preserves it (both
//! outcomes agree with the architectural register); any other guarded
//! write leaves a *conditional* entry, valid only for reads under the
//! exact same guard — the shape the last-use hint pass produces — and
//! invalidated when the guarding predicate is redefined.

use std::fmt;

use rfh_analysis::strand::walk_segments;
use rfh_analysis::RegSet;
use rfh_isa::access::{AccessKind, AccessPlan, AccessSlot, Datapath, Place};
use rfh_isa::{InstrRef, Instruction, Kernel, PredGuard, Reg, Slot, Width};

use crate::config::{AllocConfig, LrfMode};

/// Symbolic contents of one upper-level entry: which register word it
/// mirrors, and under which guard the mirroring holds (`None`: on every
/// lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The mirrored register word.
    pub reg: Reg,
    /// The guard under which the entry is valid, if it is conditional.
    pub guard: Option<PredGuard>,
}

/// Symbolic contents of the upper levels along one path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    orf: Vec<Option<Entry>>,
    lrf: Vec<Option<Entry>>,
}

impl State {
    fn empty(config: &AllocConfig) -> State {
        State {
            orf: vec![None; config.orf_entries],
            lrf: vec![None; config.lrf.banks()],
        }
    }

    fn meet(&mut self, other: &State) {
        let theirs = other.orf.iter().chain(&other.lrf);
        for (a, b) in self.orf.iter_mut().chain(&mut self.lrf).zip(theirs) {
            if a != b {
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

/// What is wrong at one instruction (see [`Finding`]); an access kind is
/// the operand's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// An MRF read of the register (a fill's included) whose latest
    /// definition on some path was written only to an upper level.
    StaleMrf(Reg),
    /// An ORF access to an entry (a write's first) past the ORF size.
    OrfOutOfRange(AccessKind, usize),
    /// An ORF read of an entry that may not hold the register; the entry
    /// holds the given contents on every path (`None`: nothing known).
    OrfHolds(usize, Option<Entry>, Reg),
    /// An LRF access with no LRF configured.
    NoLrf(AccessKind),
    /// An LRF access by the shared datapath.
    SharedLrf(AccessKind),
    /// A split-LRF read from the given bank in another operand slot.
    SplitSlot(Slot, usize),
    /// An LRF bank annotation that does not fit the configured mode.
    BankMode(LrfMode),
    /// An LRF read of a bank that may not hold the register, as for
    /// [`FindingKind::OrfHolds`].
    LrfHolds(usize, Option<Entry>, Reg),
    /// A 64-bit value written to the LRF.
    WideLrf,
    /// An upper-level write on an instruction with no destination.
    OrphanUpperWrite,
}

impl FindingKind {
    /// Whether the finding is about the LRF contract (lint's RFH-L006);
    /// the rest are ORF/MRF consistency (RFH-L007).
    pub fn is_lrf(&self) -> bool {
        use FindingKind::*;
        matches!(
            self,
            NoLrf(_) | SharedLrf(_) | SplitSlot(..) | BankMode(_) | LrfHolds(..) | WideLrf
        )
    }
}

/// One placement inconsistency, attributed to its instruction. Its
/// `Display` form is [`validate_placements`]' error message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finding<'k> {
    /// Where.
    pub at: InstrRef,
    /// The instruction at `at`.
    pub instr: &'k Instruction,
    /// What.
    pub kind: FindingKind,
}

impl Finding<'_> {
    /// The number of words the instruction writes.
    pub fn words(&self) -> usize {
        self.instr.dst.map_or(0, |d| d.width.regs() as usize)
    }
}

impl fmt::Display for Finding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FindingKind::*;
        write!(f, "{} `{}`: ", self.at, self.instr)?;
        let guard = self.instr.guard;
        match self.kind {
            StaleMrf(reg) => write!(
                f,
                "MRF read of {reg} may observe a stale copy                                  (an earlier definition skipped the MRF write)"
            ),
            OrfOutOfRange(AccessKind::Write, e) => {
                write!(f, "write entry ORF{e} (+{}) out of range", self.words())
            }
            OrfOutOfRange(kind, e) => write!(f, "{kind} entry ORF{e} out of range"),
            OrfHolds(e, held, reg) => {
                write!(f, "ORF{e} holds {held:?}, expected {reg} under {guard:?}")
            }
            NoLrf(kind) => write!(f, "LRF {kind} but no LRF configured"),
            SharedLrf(kind) => write!(f, "shared datapath cannot {kind} the LRF"),
            SplitSlot(bank, slot) => write!(f, "split LRF read from bank {bank} in slot {slot}"),
            BankMode(mode) => write!(f, "LRF bank annotation does not match {mode} mode"),
            LrfHolds(b, held, reg) => {
                write!(f, "LRF bank {b} holds {held:?}, expected {reg} under {guard:?}")
            }
            WideLrf => write!(f, "64-bit values cannot live in the LRF"),
            OrphanUpperWrite => write!(f, "upper-level write on an instruction with no destination"),
        }
    }
}

/// Visits every MRF read (the MRF half of a fill included) that may
/// observe a *stale* MRF copy: a register whose latest definition on some
/// path was written only to an upper level.
///
/// Forward may-be-stale dataflow over blocks, solved with one gen/kill
/// pair per block: a write that skips the MRF makes its words stale, an
/// unguarded MRF write makes them fresh, and a guarded MRF write leaves
/// them as they were.
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` returns.
fn stale_mrf_reads<'k, E>(
    kernel: &'k Kernel,
    mut visit: impl FnMut(InstrRef, &'k Instruction, Reg) -> Result<(), E>,
) -> Result<(), E> {
    // Each instruction resolved once: the registers it reads from the MRF
    // and the words it writes, flattened, and whether those words become
    // stale (`Some(true)`) or fresh (`Some(false)`).
    let mut plan = AccessPlan::new();
    let (mut reads, mut words) = (Vec::new(), Vec::new());
    let mut facts: Vec<(usize, usize, Option<bool>)> = Vec::with_capacity(kernel.instr_count());
    for (_, i) in kernel.iter_instrs() {
        plan.resolve_into(i);
        reads.extend(
            plan.reads()
                .filter(|a| a.place == Place::Mrf)
                .map(|a| a.reg),
        );
        words.extend_from_slice(plan.written_words());
        let stale = if plan.writes_mrf() {
            i.guard.is_none().then_some(false)
        } else {
            Some(true)
        };
        facts.push((reads.len(), words.len(), stale));
    }
    // The MRF reads, written words and effect of flat instruction `f`.
    let fact = |f: usize| {
        let (r0, w0) = f
            .checked_sub(1)
            .map_or((0, 0), |p| (facts[p].0, facts[p].1));
        let (r1, w1, stale) = facts[f];
        (&reads[r0..r1], &words[w0..w1], stale)
    };
    let num_regs = reads
        .iter()
        .chain(&words)
        .map(|r| r.index() + 1)
        .max()
        .unwrap_or(0);

    let n = kernel.blocks.len();
    let mut gen = vec![RegSet::new(num_regs); n];
    let mut kill = vec![RegSet::new(num_regs); n];
    let mut f = 0;
    for b in &kernel.blocks {
        let (g, k) = (&mut gen[b.id.index()], &mut kill[b.id.index()]);
        for _ in &b.instrs {
            let (_, written, stale) = fact(f);
            f += 1;
            for r in written {
                match stale {
                    Some(true) => {
                        g.insert(*r);
                        k.remove(*r);
                    }
                    Some(false) => {
                        k.insert(*r);
                        g.remove(*r);
                    }
                    None => {}
                }
            }
        }
    }

    let preds = kernel.predecessors();
    let mut stale_in = vec![RegSet::new(num_regs); n];
    let mut stale_out = gen.clone();
    let mut inn = RegSet::new(num_regs);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            inn.clear();
            for p in &preds[b] {
                inn.union_with(&stale_out[p.index()]);
            }
            if inn != stale_in[b] {
                std::mem::swap(&mut inn, &mut stale_in[b]);
                let out = &mut stale_out[b];
                out.clear();
                out.union_with(&stale_in[b]);
                out.subtract(&kill[b]);
                out.union_with(&gen[b]);
                changed = true;
            }
        }
    }

    let mut f = 0;
    for (b, stale) in kernel.blocks.iter().zip(&mut stale_in) {
        for (index, i) in b.instrs.iter().enumerate() {
            let (mrf_reads, written, stale_now) = fact(f);
            f += 1;
            for r in mrf_reads {
                if stale.contains(*r) {
                    visit(InstrRef { block: b.id, index }, i, *r)?;
                }
            }
            for r in written {
                match stale_now {
                    Some(true) => stale.insert(*r),
                    Some(false) => stale.remove(*r),
                    None => false,
                };
            }
        }
    }
    Ok(())
}

/// Visits every placement inconsistency in `kernel` under `config`: first
/// the whole-kernel freshness findings ([`FindingKind::StaleMrf`]), then
/// the per-strand symbolic walk ([`walk_segments`]) in layout order.
///
/// The walk recovers after each finding, skipping only the faulty access:
/// an out-of-range or misannotated access neither reads nor updates the
/// symbolic state, and a mismatched read leaves it as it was.
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` returns.
pub fn placement_findings<'k, E>(
    kernel: &'k Kernel,
    config: &AllocConfig,
    mut visit: impl FnMut(Finding<'k>) -> Result<(), E>,
) -> Result<(), E> {
    stale_mrf_reads(kernel, |at, instr, reg| {
        visit(Finding {
            at,
            instr,
            kind: FindingKind::StaleMrf(reg),
        })
    })?;
    let mut plan = AccessPlan::new();
    walk_segments(
        kernel,
        || State::empty(config),
        State::meet,
        |at, state| {
            let instr = kernel.instr(at);
            plan.resolve_into(instr);
            let mut report = |kind| visit(Finding { at, instr, kind });

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
                            report(FindingKind::OrfOutOfRange(AccessKind::Fill, e))?;
                        } else {
                            fills.push((e, reg));
                        }
                    }
                    (_, Place::Mrf) | (AccessKind::Fill, _) => {}
                    (_, Place::Orf(e)) => {
                        let e = e as usize;
                        if e >= config.orf_entries {
                            report(FindingKind::OrfOutOfRange(AccessKind::Read, e))?;
                        } else if !entry_serves(state.orf[e], reg, instr.guard) {
                            report(FindingKind::OrfHolds(e, state.orf[e], reg))?;
                        }
                    }
                    (_, Place::Lrf(bank)) => {
                        if !config.lrf.enabled() {
                            report(FindingKind::NoLrf(a.kind))?;
                            continue;
                        }
                        if a.datapath == Datapath::Shared {
                            report(FindingKind::SharedLrf(a.kind))?;
                            continue;
                        }
                        let AccessSlot::Src(i) = a.slot else {
                            continue;
                        };
                        let i = i as usize;
                        let b = match (config.lrf, bank) {
                            (LrfMode::Unified, None) => 0,
                            (LrfMode::Split, Some(s)) if s.index() == i => i,
                            (LrfMode::Split, Some(s)) => {
                                report(FindingKind::SplitSlot(s, i))?;
                                continue;
                            }
                            _ => {
                                report(FindingKind::BankMode(config.lrf))?;
                                continue;
                            }
                        };
                        if !entry_serves(state.lrf[b], reg, instr.guard) {
                            report(FindingKind::LrfHolds(b, state.lrf[b], reg))?;
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
                    if e + words > config.orf_entries {
                        report(FindingKind::OrfOutOfRange(AccessKind::Write, e))?;
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
                    let mut faulty = false;
                    for (bad, kind) in [
                        (!config.lrf.enabled(), FindingKind::NoLrf(a.kind)),
                        (
                            a.datapath == Datapath::Shared,
                            FindingKind::SharedLrf(a.kind),
                        ),
                        (a.width == Width::W64, FindingKind::WideLrf),
                    ] {
                        if bad {
                            report(kind)?;
                            faulty = true;
                        }
                    }
                    if faulty {
                        continue;
                    }
                    match (config.lrf, bank) {
                        (LrfMode::Unified, None) => write(&mut state.lrf[0], a.reg),
                        (LrfMode::Split, Some(s)) => write(&mut state.lrf[s.index()], a.reg),
                        _ => report(FindingKind::BankMode(config.lrf))?,
                    }
                }
            } else if plan.orphan_upper_write() {
                report(FindingKind::OrphanUpperWrite)?;
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
            Ok(())
        },
    )
}

/// Checks every placement annotation in `kernel` for consistency.
///
/// # Errors
///
/// Returns the first of [`placement_findings`], as a human-readable
/// description.
pub fn validate_placements(kernel: &Kernel, config: &AllocConfig) -> Result<(), String> {
    placement_findings(kernel, config, |f| Err(f.to_string()))
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
