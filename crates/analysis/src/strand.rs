//! Strand partitioning (paper §4.1).
//!
//! A *strand* is a sequence of instructions in which all dependences on
//! long-latency instructions come from operations issued in a previous
//! strand. The compiler marks the last instruction of each strand with the
//! `ends_strand` bit (one extra bit per instruction, §6.5). All values
//! communicated between strands must go through the MRF, so the allocator
//! in `rfh-alloc` works strand by strand.
//!
//! Strand endpoints arise from (Figure 5):
//!
//! * an instruction reading a register produced by a long-latency operation
//!   issued in the *current* strand — the endpoint is just before the
//!   reader, and the warp is descheduled there at run time;
//! * a backward branch (and, symmetrically, every block targeted by a
//!   backward branch begins a new strand);
//! * a barrier, which suspends the warp;
//! * a control-flow join where the set of *pending* long-latency events
//!   differs between incoming paths (Figure 5b) — resolved conservatively
//!   by inserting an endpoint at the join;
//! * an unguarded `exit`.
//!
//! Endpoints that fall at a block entry are encoded by marking the
//! terminator of every predecessor block, which is what a real encoding
//! would do (whichever path executes, the bit fires before the join).

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use rfh_isa::{BlockId, InstrRef, Kernel, Reg};

use crate::bitset::RegSet;
use crate::dom::DomTree;
use crate::liveness::Liveness;

/// Identifier of a strand within a kernel (dense, in layout order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrandId(pub u32);

impl StrandId {
    /// The strand's index in [`StrandInfo::strands`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a strand ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndReason {
    /// The next instruction consumes a long-latency result issued in this
    /// strand; the warp is descheduled here.
    LongLatencyDep,
    /// The strand ends at a backward branch; the warp need not be
    /// descheduled, but the ORF/LRF are invalidated.
    BackwardBranch,
    /// The strand ends at a barrier; the warp is descheduled.
    Barrier,
    /// The strand ends at a join whose pending long-latency events are
    /// control-flow dependent (Figure 5b).
    UncertainJoin,
    /// The strand ends because the next block is a loop header (the target
    /// of a backward branch).
    LoopHeader,
    /// The strand ends at an unguarded `exit` (or the end of the kernel).
    KernelEnd,
}

impl EndReason {
    /// Whether the two-level scheduler deschedules the warp at this kind of
    /// endpoint (long-latency dependences and barriers do; pure
    /// control-flow endpoints do not — §4.1).
    pub const fn deschedules(self) -> bool {
        matches!(self, EndReason::LongLatencyDep | EndReason::Barrier)
    }
}

/// One strand: a maximal run of layout-ordered instructions containing no
/// internal endpoint.
#[derive(Debug, Clone)]
pub struct Strand {
    /// This strand's id.
    pub id: StrandId,
    /// The instructions, in layout order.
    pub instrs: Vec<InstrRef>,
    /// Why the strand ends.
    pub end_reason: EndReason,
}

impl Strand {
    /// The blocks this strand overlaps, in layout order.
    pub fn blocks(&self) -> Vec<BlockId> {
        let mut blocks: Vec<BlockId> = Vec::new();
        for r in &self.instrs {
            if blocks.last() != Some(&r.block) {
                blocks.push(r.block);
            }
        }
        blocks
    }
}

/// The result of strand partitioning.
#[derive(Debug, Clone)]
pub struct StrandInfo {
    /// All strands in layout order.
    pub strands: Vec<Strand>,
    /// Strand id per instruction, indexed by flat layout position.
    instr_map: Vec<u32>,
    /// The `ends_strand` bit per instruction, indexed by flat layout
    /// position.
    ends: Vec<bool>,
    /// Flat layout position of each block's first instruction (see
    /// [`Kernel::block_starts`]).
    block_start: Vec<usize>,
    /// CFG predecessors per block, built once while marking: the per-strand
    /// passes ([`strand_canonical`], [`crate::defuse::strand_values`]) read
    /// them here instead of rebuilding them for every strand.
    pub(crate) preds: Vec<Vec<BlockId>>,
}

impl StrandInfo {
    /// The strand containing the instruction at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies past the kernel's last instruction.
    pub fn strand_of(&self, at: InstrRef) -> StrandId {
        StrandId(self.instr_map[self.flat(at)])
    }

    /// The flat layout position of the instruction at `at`: its index in
    /// the kernel's layout-order instruction sequence. A strand is a
    /// contiguous run of that sequence, so an instruction's position in
    /// its strand is `flat(at) - flat(strand.instrs[0])`.
    ///
    /// # Panics
    ///
    /// Panics if `at.block` is out of range.
    fn flat(&self, at: InstrRef) -> usize {
        self.block_start[at.block.index()] + at.index
    }

    /// The `ends_strand` bit of every instruction, indexed by flat layout
    /// position (the instruction's index in [`Kernel::iter_instrs`] order):
    /// set on the last instruction of every strand except a trailing run
    /// that falls off the kernel's end.
    pub fn end_bits(&self) -> &[bool] {
        &self.ends
    }

    /// The position of `at` within strand `sid` (0-based, layout order),
    /// or `None` when `at` lies outside that strand.
    ///
    /// # Panics
    ///
    /// Panics if `sid` or `at.block` is out of range.
    pub(crate) fn pos_in(&self, sid: StrandId, at: InstrRef) -> Option<usize> {
        let instrs = &self.strand(sid).instrs;
        let start = self.flat(*instrs.first()?);
        self.flat(at)
            .checked_sub(start)
            .filter(|p| *p < instrs.len())
    }

    /// The strand with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn strand(&self, id: StrandId) -> &Strand {
        &self.strands[id.index()]
    }

    /// Number of strands.
    pub fn len(&self) -> usize {
        self.strands.len()
    }

    /// Whether the kernel has no strands (only true for empty kernels).
    pub fn is_empty(&self) -> bool {
        self.strands.is_empty()
    }
}

/// Writes `info`'s end bits onto `kernel`, as `rfh_alloc::allocate` does
/// for the readers of the encoded bits ([`segment_ids`], [`walk_segments`]).
#[cfg(test)]
pub(crate) fn encode(kernel: &mut Kernel, info: &StrandInfo) {
    let instrs = kernel.blocks.iter_mut().flat_map(|b| b.instrs.iter_mut());
    for (instr, end) in instrs.zip(info.end_bits()) {
        instr.ends_strand = *end;
    }
}

/// Options for strand partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrandOpts {
    /// Split strands at deschedule points (dependences on long-latency
    /// operations and barriers). Disabling this models the idealized §7
    /// "never flush" machine in which LRF/ORF contents survive
    /// descheduling; it is not realizable with temporally-shared upper
    /// levels.
    pub split_on_deschedule: bool,
}

impl Default for StrandOpts {
    fn default() -> Self {
        StrandOpts {
            split_on_deschedule: true,
        }
    }
}

/// Partitions `kernel` into strands and returns the strand structure,
/// including the `ends_strand` bit of every instruction
/// ([`StrandInfo::end_bits`]).
///
/// The kernel is only read: the `ends_strand` bits it already carries are
/// ignored, and the returned bits are encoded onto an allocated kernel by
/// `rfh_alloc::allocate`.
pub fn mark_strands(kernel: &Kernel) -> StrandInfo {
    mark_strands_opts(kernel, StrandOpts::default())
}

/// [`mark_strands`] with explicit [`StrandOpts`].
pub fn mark_strands_opts(kernel: &Kernel, opts: StrandOpts) -> StrandInfo {
    let n = kernel.blocks.len();
    let num_regs = kernel.num_regs();
    let dom = DomTree::dominators(kernel);
    let block_start = kernel.block_starts();
    // Why each strand-ending instruction ends its strand, by flat layout
    // position; `None` where the `ends_strand` bit stays clear.
    let mut ends: Vec<Option<EndReason>> = vec![None; kernel.instr_count()];

    // Blocks targeted by a backward branch begin new strands.
    let mut loop_header = vec![false; n];
    for b in &kernel.blocks {
        for s in kernel.successors(b.id) {
            if kernel.is_backward_edge(b.id, s) {
                loop_header[s.index()] = true;
            }
        }
    }

    let preds = kernel.predecessors();
    let mut entry_boundary = vec![false; n];
    let mut entry_reason = vec![EndReason::UncertainJoin; n];
    let mut pending_out: Vec<Option<RegSet>> = vec![None; n];

    for (bi, block) in kernel.blocks.iter().enumerate() {
        if !dom.is_reachable(block.id) {
            continue;
        }
        let mut pending = if loop_header[bi] {
            entry_boundary[bi] = true;
            entry_reason[bi] = EndReason::LoopHeader;
            RegSet::new(num_regs)
        } else {
            // Join the pending sets of already-processed predecessors
            // (forward edges only reach here; backward preds were handled
            // by the loop-header rule above).
            let incoming: Vec<&RegSet> = preds[bi]
                .iter()
                .filter_map(|p| pending_out[p.index()].as_ref())
                .collect();
            match incoming.split_first() {
                None => RegSet::new(num_regs),
                Some((first, rest)) if rest.iter().all(|s| *s == *first) => (*first).clone(),
                _ => {
                    // Paths disagree about which long-latency events are
                    // pending: insert an endpoint at the join (Figure 5b).
                    entry_boundary[bi] = true;
                    entry_reason[bi] = EndReason::UncertainJoin;
                    RegSet::new(num_regs)
                }
            }
        };

        let start = block_start[bi];
        for (i, instr) in block.instrs.iter().enumerate() {
            let reads_pending =
                opts.split_on_deschedule && instr.reg_srcs().any(|(_, r)| pending.contains(r));
            if reads_pending {
                if i == 0 {
                    entry_boundary[bi] = true;
                    entry_reason[bi] = EndReason::LongLatencyDep;
                } else {
                    ends[start + i - 1] = Some(EndReason::LongLatencyDep);
                }
                pending.clear();
            }

            let end = &mut ends[start + i];
            if instr.op.is_barrier() && opts.split_on_deschedule {
                *end = Some(EndReason::Barrier);
                pending.clear();
            }
            if instr.op.is_branch() {
                let target = instr.target.expect("validated branch");
                if target <= block.id {
                    *end = Some(EndReason::BackwardBranch);
                    pending.clear();
                }
            }
            if instr.op.is_exit() && instr.guard.is_none() {
                *end = Some(EndReason::KernelEnd);
                pending.clear();
            }
            // Strong defs retire the old pending value; long-latency defs
            // begin new pending events.
            if instr.guard.is_none() {
                for r in instr.def_regs() {
                    pending.remove(r);
                }
            }
            if instr.op.is_long_latency() {
                for r in instr.def_regs() {
                    pending.insert(r);
                }
            }
        }
        pending_out[bi] = Some(pending);
    }

    // Encode block-entry boundaries on every predecessor's terminator.
    for bi in 0..n {
        if !entry_boundary[bi] || !dom.is_reachable(BlockId::new(bi as u32)) {
            continue;
        }
        // Also mark the layout-previous block's terminator even when it is
        // not a CFG predecessor (it jumps elsewhere): without this, layout
        // segmentation would glue the boundary block onto a disconnected
        // earlier region. No path crosses that terminator into the boundary
        // block, and the previous strand already ends at its jump, so the
        // extra bit changes no runtime behaviour — it only keeps strands
        // equal to the paper's definition.
        let mut marks: Vec<BlockId> = preds[bi].clone();
        if bi > 0 {
            marks.push(BlockId::new(bi as u32 - 1));
        }
        for p in marks {
            let len = kernel.block(p).instrs.len();
            let last = len.checked_sub(1).expect("blocks are nonempty");
            ends[block_start[p.index()] + last].get_or_insert(entry_reason[bi]);
        }
    }

    // Segment layout-ordered instructions into strands.
    let mut strands: Vec<Strand> = Vec::new();
    let mut current: Vec<InstrRef> = Vec::new();
    let close = |current: &mut Vec<InstrRef>, strands: &mut Vec<Strand>, reason: EndReason| {
        if current.is_empty() {
            return;
        }
        let id = StrandId(strands.len() as u32);
        strands.push(Strand {
            id,
            instrs: std::mem::take(current),
            end_reason: reason,
        });
    };
    for ((at, _), end) in kernel.iter_instrs().zip(&ends) {
        current.push(at);
        if let Some(reason) = end {
            close(&mut current, &mut strands, *reason);
        }
    }
    close(&mut current, &mut strands, EndReason::KernelEnd);

    let instr_map = strands
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.id.0, s.instrs.len()))
        .collect();
    StrandInfo {
        strands,
        instr_map,
        ends: ends.iter().map(Option::is_some).collect(),
        block_start,
        preds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::parse_kernel;

    fn at(b: u32, i: usize) -> InstrRef {
        InstrRef {
            block: BlockId::new(b),
            index: i,
        }
    }

    /// The end bit marking gives the instruction at `(b, i)`.
    fn ends(info: &StrandInfo, b: u32, i: usize) -> bool {
        info.end_bits()[info.flat(at(b, i))]
    }

    #[test]
    fn long_latency_dependence_splits_strand() {
        // Figure 5a, Strand 1: ld.global then a consumer.
        let k = parse_kernel(
            "
.kernel f5a
BB0:
  ld.global r1 r0
  iadd r2 r0, 1
  iadd r3 r1, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // Independent iadd stays in strand 1; the consumer of r1 starts
        // strand 2.
        assert!(ends(&info, 0, 1));
        assert_eq!(info.strands.len(), 2);
        assert_eq!(info.strands[0].end_reason, EndReason::LongLatencyDep);
        assert!(info.strands[0].end_reason.deschedules());
        assert_eq!(info.strand_of(at(0, 2)), StrandId(1));
    }

    #[test]
    fn backward_branch_ends_strand_and_header_starts_one() {
        let k = parse_kernel(
            "
.kernel lp
BB0:
  mov r0, 0
BB1:
  iadd r0 r0, 1
  setp.lt p0 r0, 10
  @p0 bra BB1
BB2:
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // BB0's terminator marked (BB1 is a loop header); the backward
        // branch marked.
        assert!(ends(&info, 0, 0));
        assert!(ends(&info, 1, 2));
        assert_eq!(info.strands.len(), 3);
        assert_eq!(info.strands[0].end_reason, EndReason::LoopHeader);
        assert_eq!(info.strands[1].end_reason, EndReason::BackwardBranch);
        assert!(!info.strands[1].end_reason.deschedules());
        // The loop body is exactly one strand.
        assert_eq!(info.strand_of(at(1, 0)), info.strand_of(at(1, 2)));
    }

    #[test]
    fn uncertain_join_inserts_endpoint() {
        // Figure 5b: a long-latency load on only one side of a hammock;
        // the merge block gets an endpoint.
        let k = parse_kernel(
            "
.kernel f5b
BB0:
  setp.lt p0 r0, 1
  @p0 bra BB2
BB1:
  ld.global r1 r0
BB2:
  iadd r2 r0, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // Both predecessors of BB2 end a strand.
        assert!(ends(&info, 0, 1), "branch side marked");
        assert!(ends(&info, 1, 0), "load side marked");
        // BB2 begins a new strand.
        let s2 = info.strand_of(at(2, 0));
        assert_ne!(info.strand_of(at(0, 0)), s2);
        assert_ne!(info.strand_of(at(1, 0)), s2);
        assert!(info
            .strands
            .iter()
            .any(|s| s.end_reason == EndReason::UncertainJoin));
    }

    #[test]
    fn symmetric_pending_does_not_split() {
        // Both sides issue the same long-latency load into r1: the join's
        // pending sets agree, so no uncertain endpoint is inserted; the
        // strand ends only at the consumer of r1.
        let k = parse_kernel(
            "
.kernel sym
BB0:
  setp.lt p0 r0, 1
  @p0 bra BB2
BB1:
  ld.global r1 r0
  bra BB3
BB2:
  ld.global r1 r0
BB3:
  iadd r2 r0, 1
  iadd r3 r1, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // BB3's first instruction continues the strand; the endpoint falls
        // before the consumer of r1.
        assert!(ends(&info, 3, 0));
        assert_eq!(
            info.strand_of(at(3, 0)),
            info.strand_of(at(1, 0)),
            "join continues the same strand"
        );
        assert!(!info
            .strands
            .iter()
            .any(|s| s.end_reason == EndReason::UncertainJoin));
    }

    #[test]
    fn barrier_ends_strand() {
        let k = parse_kernel(
            "
.kernel b
BB0:
  st.shared r0, r1
  bar
  ld.shared r2 r0
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        assert!(ends(&info, 0, 1));
        assert_eq!(info.strands[0].end_reason, EndReason::Barrier);
        assert!(info.strands[0].end_reason.deschedules());
    }

    #[test]
    fn overwritten_pending_value_is_retired() {
        // The long-latency result in r1 is overwritten by a short op before
        // any read: no strand split.
        let k = parse_kernel(
            "
.kernel ow
BB0:
  ld.global r1 r0
  mov r1, 5
  iadd r2 r1, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        assert_eq!(info.strands.len(), 1);
    }

    #[test]
    fn strands_are_idempotent() {
        let k = parse_kernel(
            "
.kernel i
BB0:
  ld.global r1 r0
  iadd r2 r1, 1
  exit
",
        )
        .unwrap();
        // Marking ignores the bits the kernel already carries.
        let a = mark_strands(&k);
        let mut marked = k.clone();
        encode(&mut marked, &a);
        let b = mark_strands(&marked);
        assert_eq!(a.end_bits(), b.end_bits());
        assert_eq!(a.strands.len(), b.strands.len());
    }

    #[test]
    fn strand_blocks_listing() {
        let k = parse_kernel(
            "
.kernel sb
BB0:
  mov r0, 1
BB1:
  iadd r1 r0, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        assert_eq!(info.strands.len(), 1);
        assert_eq!(
            info.strands[0].blocks(),
            vec![BlockId::new(0), BlockId::new(1)]
        );
    }

    #[test]
    fn exit_closes_final_strand() {
        let k = parse_kernel(".kernel e\nBB0:\n  exit\n").unwrap();
        let info = mark_strands(&k);
        assert_eq!(info.strands.len(), 1);
        assert_eq!(info.strands[0].end_reason, EndReason::KernelEnd);
    }
}

/// Maps every instruction to its strand index using the `ends_strand` bits
/// already present on the kernel (set by [`mark_strands`]); returns
/// `map[block][index] = strand`. Useful for per-strand accounting without
/// recomputing the full analysis.
pub fn segment_ids(kernel: &Kernel) -> Vec<Vec<u32>> {
    let mut map: Vec<Vec<u32>> = kernel
        .blocks
        .iter()
        .map(|b| vec![0; b.instrs.len()])
        .collect();
    let mut current = 0u32;
    for (at, i) in kernel.iter_instrs() {
        map[at.block.index()][at.index] = current;
        if i.ends_strand {
            current += 1;
        }
    }
    map
}

/// Walks every strand delimited by the `ends_strand` bits already on the
/// kernel, in layout order, threading one symbolic state through each
/// strand's forward-edge subgraph and updating it in place: `step` sees
/// each instruction with its in-state and turns it into the out-state.
///
/// A strand, and every path entering one from outside, starts from
/// `entry()`. Inside a block the in-state is the previous instruction's
/// out-state. At a block entry it is the `meet` of the out-states of the
/// in-strand predecessors' terminators; when any predecessor lies outside
/// the strand, or at a later position (the strand's own closing backward
/// branch), the block starts from `entry()` instead. Terminator
/// out-states are copied only when a later, non-adjacent block may join
/// them.
///
/// # Errors
///
/// Stops at, and returns, the first error `step` returns.
pub fn walk_segments<S: Clone, E>(
    kernel: &Kernel,
    entry: impl Fn() -> S,
    meet: impl Fn(&mut S, &S),
    mut step: impl FnMut(InstrRef, &mut S) -> Result<(), E>,
) -> Result<(), E> {
    let starts = kernel.block_starts();
    let preds = kernel.predecessors();
    let term = |b: BlockId| starts[b.index()] + kernel.block(b).instrs.len() - 1;
    // Flat position of the current strand's first instruction.
    let mut first = 0;
    let mut state = entry();
    // Kept terminator out-states of the current strand, by flat position.
    let mut kept: Vec<(usize, S)> = Vec::new();
    for b in &kernel.blocks {
        for (index, instr) in b.instrs.iter().enumerate() {
            let at = InstrRef { block: b.id, index };
            let flat = starts[b.id.index()] + index;
            if index == 0 && flat > first {
                let from: Vec<usize> = preds[b.id.index()].iter().map(|p| term(*p)).collect();
                if from.is_empty() || from.iter().any(|t| *t < first || *t >= flat) {
                    state = entry();
                } else if from.iter().any(|t| *t + 1 != flat) {
                    let mut met: Option<S> = None;
                    for t in from {
                        let out = if t + 1 == flat {
                            &state
                        } else {
                            let i = kept
                                .binary_search_by_key(&t, |(p, _)| *p)
                                .expect("non-adjacent predecessor states are kept");
                            &kept[i].1
                        };
                        match &mut met {
                            None => met = Some(out.clone()),
                            Some(m) => meet(m, out),
                        }
                    }
                    state = met.unwrap_or_else(&entry);
                }
            }
            step(at, &mut state)?;
            if instr.ends_strand {
                first = flat + 1;
                state = entry();
                kept.clear();
            } else if index + 1 == b.instrs.len()
                && kernel
                    .successors(b.id)
                    .iter()
                    .any(|s| starts[s.index()] > flat + 1)
            {
                kept.push((flat, state.clone()));
            }
        }
    }
    Ok(())
}

/// Number of strands implied by the `ends_strand` bits (segments in layout
/// order; a trailing unterminated run counts as one).
pub fn segment_count(kernel: &Kernel) -> usize {
    let ends: usize = kernel.iter_instrs().filter(|(_, i)| i.ends_strand).count();
    let trailing = kernel
        .blocks
        .last()
        .and_then(|b| b.instrs.last())
        .map(|i| !i.ends_strand)
        .unwrap_or(false);
    ends + usize::from(trailing)
}

/// Canonical, strand-relative text for one strand: equal canonical texts
/// guarantee that per-strand allocation (`rfh-alloc`) produces identical
/// placements relative to the strand's own instructions, so the text can
/// key an incremental allocation cache.
///
/// Allocation of a strand depends on more than its instruction bytes, so
/// all of the following is encoded (each strand-relative, never absolute):
///
/// * the instructions in layout order, with branch targets remapped to
///   strand-local block indices (`BB4294967295` marks a target outside the
///   strand);
/// * each instruction's strand-local block index and in-strand structural
///   predecessors (the internal forward DAG that reaching-definitions in
///   [`crate::defuse::strand_values`] flows over), plus an `e` flag where a
///   path enters the strand from outside (live-in taint, Figure 10a/b);
/// * per instruction, the registers *defined in the strand* that are live
///   across any strand exit at that point — exactly the bits that decide
///   `live_out` (the forced MRF copy, §4.2);
/// * the dominance relation between the strand's blocks, which bounds
///   read-operand fill coverage (§4.4) across forward branches.
///
/// Everything else the allocator consumes (operand registers, widths,
/// guards, units, immediates) is part of the printed instruction text.
/// The text deliberately excludes allocation configuration and energy
/// model: callers salt the cache key with those separately.
///
/// # Panics
///
/// Panics if `sid` is out of range for `info`.
pub fn strand_canonical(
    kernel: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
    dom: &DomTree,
    sid: StrandId,
) -> String {
    let strand = info.strand(sid);
    let nodes = &strand.instrs;
    let pos_of = |at: InstrRef| info.pos_in(sid, at);
    let blocks = strand.blocks();
    let local: HashMap<BlockId, usize> = blocks.iter().enumerate().map(|(i, b)| (*b, i)).collect();

    // Registers defined anywhere in the strand: the only registers whose
    // exit liveness can influence allocation (via `live_out`).
    let strand_defs: BTreeSet<Reg> = nodes
        .iter()
        .flat_map(|at| kernel.instr(*at).def_regs())
        .collect();

    let mut out = String::from("strand-canon-v1\n");
    // Dominance among strand blocks, layout-ordered pairs i < j (strands
    // contain only forward control flow, so these are the only queries
    // read-operand coverage can make).
    out.push_str("doms=");
    for (i, bi) in blocks.iter().enumerate() {
        for bj in blocks.iter().skip(i + 1) {
            out.push(if dom.dominates(*bi, *bj) { '1' } else { '0' });
        }
    }
    out.push('\n');

    for (pos, at) in nodes.iter().enumerate() {
        let instr = kernel.instr(*at);

        // In-strand structural predecessors; mirrors the in-state logic of
        // `defuse::strand_values` exactly.
        let mut ps: Vec<usize> = Vec::new();
        let mut external_entry = false;
        if at.index > 0 {
            let prev = InstrRef {
                block: at.block,
                index: at.index - 1,
            };
            match pos_of(prev) {
                Some(p) => ps.push(p),
                None => external_entry = true, // mid-block strand start
            }
        } else {
            for p in &info.preds[at.block.index()] {
                let pb = kernel.block(*p);
                let term = InstrRef {
                    block: *p,
                    index: pb.instrs.len() - 1,
                };
                match pos_of(term) {
                    Some(t) if t < pos => ps.push(t),
                    _ => external_entry = true,
                }
            }
            if ps.is_empty() {
                external_entry = true;
            }
        }
        ps.sort_unstable();

        // Strand-defined registers live across any exit at this point;
        // mirrors the exit enumeration of the live-out pass in
        // `defuse::strand_values`.
        let block = kernel.block(at.block);
        let is_block_last = at.index + 1 == block.instrs.len();
        let mut exit_live: BTreeSet<Reg> = BTreeSet::new();
        if !is_block_last {
            let next = InstrRef {
                block: at.block,
                index: at.index + 1,
            };
            if pos_of(next).is_none() {
                let live = liveness.live_after(kernel, *at);
                exit_live.extend(strand_defs.iter().copied().filter(|r| live.contains(*r)));
            }
        } else {
            for s in kernel.successors(at.block) {
                let first = InstrRef { block: s, index: 0 };
                let internal = matches!(pos_of(first), Some(p) if p > pos);
                if !internal {
                    let live = &liveness.live_in[s.index()];
                    exit_live.extend(strand_defs.iter().copied().filter(|r| live.contains(*r)));
                }
            }
        }

        // The instruction in its plain printed form, with the branch
        // target (if any) remapped to a strand-local block index.
        let text = match instr.target {
            Some(t) => {
                let mut relocated = instr.clone();
                relocated.target = Some(match local.get(&t) {
                    Some(l) => BlockId::new(*l as u32),
                    None => BlockId::new(u32::MAX),
                });
                relocated.to_string()
            }
            None => instr.to_string(),
        };

        let _ = write!(out, "n{pos} b{} p{ps:?}", local[&at.block]);
        if external_entry {
            out.push('e');
        }
        out.push_str(" x[");
        for r in &exit_live {
            let _ = write!(out, "{},", r.index());
        }
        out.push_str("] | ");
        out.push_str(&text);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod canonical_tests {
    use super::*;
    use crate::liveness::Liveness;
    use rfh_isa::parse_kernel;

    fn canon_all(text: &str) -> Vec<String> {
        let k = parse_kernel(text).unwrap();
        let info = mark_strands(&k);
        let lv = Liveness::compute(&k);
        let dom = DomTree::dominators(&k);
        info.strands
            .iter()
            .map(|s| strand_canonical(&k, &info, &lv, &dom, s.id))
            .collect()
    }

    #[test]
    fn identical_strands_share_canonical_text() {
        // Two copies of the same producer/consumer idiom separated by a
        // long-latency boundary: the repeated strand canonicalizes
        // identically even though it sits at different absolute positions.
        let texts = canon_all(
            "
.kernel twice
BB0:
  ld.global r1 r0
  iadd r2 r1, 1
  st.global r0, r2
  ld.global r1 r0
  iadd r2 r1, 1
  st.global r0, r2
  ld.global r1 r0
  iadd r2 r1, 1
  exit
",
        );
        assert!(texts.len() >= 4, "got {} strands", texts.len());
        assert_eq!(texts[1], texts[2], "repeated strands must hash equal");
        assert_ne!(texts[0], texts[1], "the entry strand differs");
        assert_ne!(
            texts[2], texts[3],
            "the final strand (no trailing load) differs"
        );
    }

    #[test]
    fn operand_edit_changes_canonical_text() {
        let a = canon_all(".kernel a\nBB0:\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n");
        let b = canon_all(".kernel a\nBB0:\n  iadd r1 r0, 2\n  st.global r0, r1\n  exit\n");
        assert_ne!(a, b);
    }

    #[test]
    fn exit_liveness_is_part_of_the_text() {
        // Same strand instructions, but in `b` the value crosses the
        // strand boundary (read again after the load): live_out differs,
        // so the canonical text must differ.
        let a = canon_all(
            ".kernel a\nBB0:\n  iadd r2 r0, 1\n  st.global r0, r2\n  ld.global r1 r0\n  iadd r3 r1, 1\n  exit\n",
        );
        let b = canon_all(
            ".kernel b\nBB0:\n  iadd r2 r0, 1\n  st.global r0, r2\n  ld.global r1 r0\n  iadd r3 r1, r2\n  exit\n",
        );
        assert_ne!(a[0], b[0], "live-out of r2 must distinguish the strands");
    }

    #[test]
    fn branch_targets_are_strand_relative() {
        // The same hammock at different absolute block positions: branch
        // targets (and block annotations) are remapped strand-locally, so
        // the canonical texts are equal.
        let a = canon_all(
            "
.kernel a
BB0:
  iadd r8 r9, 1
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
BB2:
  st.global r0, r1
  exit
",
        );
        let b = canon_all(
            "
.kernel b
BB0:
  mov r0, %tid.x
  ld.global r9 r0
BB1:
  iadd r8 r9, 1
  setp.lt p0 r0, 16
  @p0 bra BB3
BB2:
  iadd r1 r0, 1
BB3:
  st.global r0, r1
  exit
",
        );
        let shifted = b.last().expect("hammock strand");
        assert_eq!(&a[0], shifted, "absolute block ids must not leak in");
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use rfh_isa::parse_kernel;

    #[test]
    fn segment_ids_match_strand_info() {
        let k = parse_kernel(
            "
.kernel s
BB0:
  ld.global r1 r0
  iadd r2 r1, 1
  iadd r3 r2, 1
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        let mut k = k;
        encode(&mut k, &info);
        let ids = segment_ids(&k);
        for (at, _) in k.iter_instrs() {
            assert_eq!(
                ids[at.block.index()][at.index],
                info.strand_of(at).0,
                "at {at}"
            );
        }
        assert_eq!(segment_count(&k), info.strands.len());
    }
}

#[cfg(test)]
mod nested_loop_tests {
    use super::*;
    use rfh_isa::parse_kernel;

    #[test]
    fn nested_loops_partition_cleanly() {
        let k = parse_kernel(
            "
.kernel nested
BB0:
  mov r0, 0
BB1:
  mov r1, 0
BB2:
  iadd r1 r1, 1
  iadd r2 r1, r0
  setp.lt p0 r1, 4
  @p0 bra BB2
BB3:
  iadd r0 r0, 1
  setp.lt p1 r0, 3
  @p1 bra BB1
BB4:
  st.global r0, r2
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // Both headers (BB1, BB2) start strands; both latches end them.
        let terminator_ends = |b: usize| info.end_bits()[k.block_starts()[b + 1] - 1];
        assert!(terminator_ends(0), "entry→outer header");
        assert!(terminator_ends(1), "outer body→inner header");
        assert!(terminator_ends(2), "inner latch");
        assert!(terminator_ends(3), "outer latch");
        // The inner body is one strand; no strand spans either backedge.
        let inner = info.strand_of(rfh_isa::InstrRef {
            block: BlockId::new(2),
            index: 0,
        });
        assert_eq!(
            info.strand(inner).blocks(),
            vec![BlockId::new(2)],
            "inner loop body is a self-contained strand"
        );
        for s in &info.strands {
            let blocks = s.blocks();
            for w in blocks.windows(2) {
                assert!(w[1] > w[0], "strands never wrap backwards");
            }
        }
    }
}

#[cfg(test)]
mod disconnected_header_tests {
    use super::*;
    use rfh_isa::parse_kernel;

    /// Regression (found in review): a loop header whose layout-previous
    /// block is *not* a predecessor (it ends with an unconditional forward
    /// branch) must still begin its own strand.
    #[test]
    fn loop_header_after_disconnected_block_starts_new_strand() {
        let k = parse_kernel(
            "
.kernel dh
BB0:
  mov r0, 0
  bra BB2
BB1:
  iadd r9 r9, 1
  bra BB3
BB2:
  iadd r0 r0, 1
  setp.lt p0 r0, 4
  @p0 bra BB2
BB3:
  st.global r0, r0
  exit
",
        )
        .unwrap();
        let info = mark_strands(&k);
        // BB1 (reachable only as dead-ish side path? here BB1 is actually
        // unreachable from entry, but it is layout-previous to BB2).
        let header_strand = info.strand_of(InstrRef {
            block: BlockId::new(2),
            index: 0,
        });
        let prev_strand = info.strand_of(InstrRef {
            block: BlockId::new(1),
            index: 0,
        });
        assert_ne!(
            header_strand, prev_strand,
            "header must not be glued to BB1"
        );
        assert!(info.end_bits()[k.block_starts()[2] - 1]);
        // Segmentation from the encoded bits agrees with StrandInfo.
        let mut k = k;
        encode(&mut k, &info);
        let ids = segment_ids(&k);
        for (at, _) in k.iter_instrs() {
            assert_eq!(
                ids[at.block.index()][at.index],
                info.strand_of(at).0,
                "{at}"
            );
        }
    }
}

#[cfg(test)]
mod walk_tests {
    use std::collections::BTreeSet;

    use super::*;
    use rfh_isa::parse_kernel;

    /// The in-state `walk_segments` hands each instruction, with the state
    /// "flat positions executed on every path since the strand began".
    fn in_states(kernel: &Kernel) -> Vec<BTreeSet<usize>> {
        let starts = kernel.block_starts();
        let mut seen = Vec::new();
        let Ok(()) = walk_segments(
            kernel,
            BTreeSet::new,
            |a: &mut BTreeSet<usize>, b| a.retain(|p| b.contains(p)),
            |at, state| -> Result<(), std::convert::Infallible> {
                seen.push(state.clone());
                state.insert(starts[at.block.index()] + at.index);
                Ok(())
            },
        );
        seen
    }

    const HAMMOCK: &str = "
.kernel h
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
BB2:
  iadd r2 r0, 2
  exit
";

    #[test]
    fn join_meets_kept_and_adjacent_predecessors() {
        let k = parse_kernel(HAMMOCK).unwrap();
        let s = in_states(&k);
        assert_eq!(s[3], BTreeSet::from([0, 1, 2]), "BB1 continues BB0");
        assert_eq!(s[4], BTreeSet::from([0, 1, 2]), "BB2 meets BB0 and BB1");
        assert_eq!(s[5], BTreeSet::from([0, 1, 2, 4]));
    }

    #[test]
    fn entry_from_outside_the_strand_resets() {
        let mut k = parse_kernel(HAMMOCK).unwrap();
        // BB0 ends a strand: BB2 is entered both from BB1 (inside) and
        // from BB0 (outside), and a mid-block strand start resets too.
        k.blocks[0].instrs[2].ends_strand = true;
        k.blocks[0].instrs[0].ends_strand = true;
        let s = in_states(&k);
        assert_eq!(s[1], BTreeSet::new(), "mid-block strand start");
        assert_eq!(s[3], BTreeSet::new(), "BB1 starts a strand");
        assert_eq!(s[4], BTreeSet::new(), "BB0 lies outside BB2's strand");
    }

    #[test]
    fn own_backedge_resets_the_header() {
        let k = parse_kernel(
            "
.kernel l
BB0:
  mov r0, 0
BB1:
  iadd r0 r0, 1
  setp.lt p0 r0, 8
  @p0 bra BB1
BB2:
  exit
",
        )
        .unwrap();
        // No bits set: one strand, so BB1 is entered by BB0 (adjacent)
        // and by its own later terminator.
        let s = in_states(&k);
        assert_eq!(s[1], BTreeSet::new(), "the backedge enters from later");
        assert_eq!(s[2], BTreeSet::from([1]));
        assert_eq!(s[4], BTreeSet::from([1, 2, 3]), "BB2 continues BB1");
    }
}
