//! The value-free tag model: the one dynamic placement check.
//!
//! Placements never change what an instruction computes, so a placement
//! is right exactly when every read it routes finds its register's
//! *current definition*. That is checkable without values: each lane's
//! architectural register holds the id of its current definition, and
//! every MRF, ORF and LRF row holds the id its last write or fill put
//! there, by the rules of the storage-faithful oracle (`rfh_oracle::exec`):
//! reads see the instruction's pre-fill state, a read-operand fill copies
//! the MRF row into its ORF entry on the active lanes, the destination
//! write (on the executing lanes) wins over it, the LRF keeps only the low
//! word of a 64-bit value, and the ORF and LRF are poisoned after every
//! strand-ending instruction, branches, exits and barriers included.
//!
//! A read whose row does not hold the current definition is an
//! [`ExecError::BadPlacement`] naming the instruction, the operand slot,
//! the register, its place and the lane. That is stronger than comparing
//! final memory, which cannot see a stale value that happens to be equal.
//! Hierarchy-mode execution (`soa::run`) steps one [`Tags`] per warp, and
//! [`super::replay()`] one per distinct trace.

use rfh_alloc::AllocConfig;
use rfh_isa::access::{AccessKind, AccessSlot, Place};
use rfh_isa::{InstrRef, Instruction, Reg};

use super::soa::{DecodedKernel, OpKind};
use super::{ExecError, POISON};

/// One instruction's placements as tag rows. A row is a register or entry
/// index times the warp width, lane-major like the executor's slab; the
/// rows are the MRF's, then the ORF's and the LRF's, then the
/// architectural registers'.
#[derive(Debug, Clone)]
struct TagOp<'k> {
    at: InstrRef,
    instr: &'k Instruction,
    /// Checked reads: `(slot, the register's architectural row, the row
    /// serving the read)`.
    reads: Vec<(usize, usize, usize)>,
    /// Read-operand fills: `(ORF row, MRF row)`.
    fills: Vec<(usize, usize)>,
    /// The rows the destination write reaches, architectural ones
    /// included, each with the word (0 or 1) it receives.
    writes: Vec<(usize, u32)>,
    ends_strand: bool,
}

/// A kernel's placements under one configuration, lowered for the tag
/// model and indexed by flat pc, like [`DecodedKernel::ops`].
pub(super) struct TagPlan<'k> {
    ops: Vec<TagOp<'k>>,
    /// The ORF and LRF rows: poisoned at every strand end.
    upper: std::ops::Range<usize>,
    len: usize,
}

impl<'k> TagPlan<'k> {
    /// Lowers the placements of `dk`'s instructions under `cfg`. Every
    /// place is in range: `check_launchable` has already run.
    pub(super) fn new(dk: &DecodedKernel<'k>, cfg: &AllocConfig) -> Self {
        let width = dk.width;
        let upper = dk.slab_len..dk.slab_len + (cfg.orf_entries + cfg.lrf.banks()) * width;
        let lrf_base = upper.start + cfg.orf_entries * width;
        let arch = |reg: Reg| upper.end + reg.index() as usize * width;
        let row = |place: Place, reg: Reg| match place {
            Place::Mrf => reg.index() as usize * width,
            Place::Orf(e) => upper.start + e as usize * width,
            Place::Lrf(bank) => lrf_base + bank.map_or(0, |s| s.index()) * width,
        };
        let ops = dk
            .ops
            .iter()
            .map(|op| {
                // The operand slots each dispatch class reads, and whether
                // it writes its destination (a wide ALU op is rejected at
                // issue, so it never does).
                let (n_reads, writes) = match op.kind {
                    OpKind::Bra { .. } | OpKind::Exit | OpKind::Bar => (0, false),
                    OpKind::Ld(_) | OpKind::Tex => (1, true),
                    OpKind::St(_) | OpKind::Setp { .. } => (2, false),
                    OpKind::Sel { .. } => (2, true),
                    OpKind::Alu => (3, true),
                    OpKind::AluWide => (3, false),
                };
                let mut t = TagOp {
                    at: op.at,
                    instr: op.instr,
                    reads: Vec::new(),
                    fills: Vec::new(),
                    writes: Vec::new(),
                    ends_strand: op.instr.ends_strand,
                };
                for a in op.plan.accesses() {
                    match (a.kind, a.slot) {
                        (AccessKind::Read, AccessSlot::Src(s)) if usize::from(s) < n_reads => {
                            t.reads.push((s.into(), arch(a.reg), row(a.place, a.reg)));
                        }
                        (AccessKind::Fill, _) if n_reads > 0 => {
                            t.fills.push((row(a.place, a.reg), row(Place::Mrf, a.reg)));
                        }
                        // The LRF keeps only the low word.
                        (AccessKind::Write, AccessSlot::DstWord(1))
                            if matches!(a.place, Place::Lrf(_)) => {}
                        (AccessKind::Write, AccessSlot::DstWord(w)) if writes => {
                            t.writes.push((row(a.place, a.reg), w.into()));
                        }
                        _ => {}
                    }
                }
                if writes {
                    let words = op.plan.written_words().iter();
                    t.writes.extend(words.zip(0..).map(|(&r, w)| (arch(r), w)));
                }
                t
            })
            .collect();
        let len = arch(Reg::new(0)) + dk.slab_len;
        TagPlan { ops, upper, len }
    }
}

/// The lanes set in `mask`.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// `Some(n)` when `mask` sets exactly lanes `0..n` (a full or trailing-
/// partial warp), so whole row slices can be compared and filled.
fn prefix(mask: u32) -> Option<usize> {
    let n = mask.trailing_ones();
    (mask.count_ones() == n).then_some(n as usize)
}

/// The tag state of one warp (see the module docs).
pub(super) struct Tags {
    /// The id each row holds, in [`TagOp`]'s row order.
    rows: Vec<u32>,
    next_id: u32,
}

impl Tags {
    /// A warp at launch: every register holds definition 0 (the zeroed
    /// register file), which the MRF holds; the upper levels are poisoned.
    pub(super) fn new(plan: &TagPlan<'_>) -> Self {
        let mut tags = Tags {
            rows: vec![0; plan.len],
            next_id: 1,
        };
        tags.reset(plan);
        tags
    }

    /// Returns the warp to its launch state.
    pub(super) fn reset(&mut self, plan: &TagPlan<'_>) {
        self.rows.fill(0);
        self.rows[plan.upper.clone()].fill(POISON);
        self.next_id = 1;
    }

    /// Applies the instruction at flat `pc`, with active lanes `mask` and
    /// executing lanes `exec`: its reads (checked), fills, destination
    /// write, and strand-end poison.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadPlacement`] for the first read, in slot then lane
    /// order, whose row does not hold its register's current definition.
    pub(super) fn step(
        &mut self,
        plan: &TagPlan<'_>,
        pc: usize,
        mask: u32,
        exec: u32,
    ) -> Result<(), ExecError> {
        let t = &plan.ops[pc];
        let rows = &mut self.rows;
        let exec_prefix = prefix(exec);
        for &(slot, arch, row) in &t.reads {
            let stale = match exec_prefix {
                Some(n) if rows[row..row + n] == rows[arch..arch + n] => None,
                _ => lanes(exec).find(|&l| rows[row + l] != rows[arch + l]),
            };
            if let Some(lane) = stale {
                return Err(bad_read(t, slot, lane, rows[row + lane]));
            }
        }
        for &(orf, mrf) in &t.fills {
            match prefix(mask) {
                Some(n) => rows.copy_within(mrf..mrf + n, orf),
                None => lanes(mask).for_each(|l| rows[orf + l] = rows[mrf + l]),
            }
        }
        if exec != 0 && !t.writes.is_empty() {
            for &(row, word) in &t.writes {
                let id = self.next_id + word;
                match exec_prefix {
                    Some(n) => rows[row..row + n].fill(id),
                    None => lanes(exec).for_each(|l| rows[row + l] = id),
                }
            }
            self.next_id += 2;
        }
        if t.ends_strand {
            rows[plan.upper.clone()].fill(POISON);
        }
        Ok(())
    }
}

/// The error for a read of `t`'s operand `slot` whose row holds `held` in
/// `lane`.
fn bad_read(t: &TagOp<'_>, slot: usize, lane: usize, held: u32) -> ExecError {
    ExecError::BadPlacement {
        what: format!(
            "slot {slot} reads {} from {} in lane {lane}, which holds {}",
            t.instr.srcs[slot],
            t.instr.read_locs[slot],
            if held == POISON {
                "a poisoned entry"
            } else {
                "a stale definition"
            }
        ),
        at: t.at,
    }
}
