//! Per-strand value instances, read-operand ranges, and merge groups.
//!
//! The allocator (paper §4) operates on *register instances*: a definition
//! together with the reads it reaches inside its strand. Because the IR is
//! pseudo-SSA without phi nodes, a read at a control-flow merge may be
//! reached by several definitions (a value written on both sides of a
//! hammock, Figure 10); such definitions form a *merge group* that must be
//! co-allocated to the same ORF entry for the merge read to be served by
//! the ORF (Figure 10c). When one of the reaching "definitions" is the
//! strand live-in (Figure 10a/b), the merge read must come from the MRF
//! and is excluded from the allocable reads.
//!
//! Values read in a strand but not written in it become *read operand*
//! ranges (§4.4), candidates for read operand allocation.
//!
//! The in-strand subgraph of a strand contains only forward edges (backward
//! branches end strands), so reaching definitions are computed in a single
//! layout-order pass without iteration. The pass keeps one dense state, a
//! sorted list of reaching definition ids per register, and updates it in
//! place: inside a block the in-state of an instruction is its
//! predecessor's out-state. Copies are taken only at block terminators that
//! a later, non-adjacent block of the strand joins from; strand exits are
//! checked against the live state as the walk passes them. A strand is a
//! contiguous run of the layout order, so positions within it are flat
//! arithmetic (`StrandInfo::pos_in`), not lookups.

use rfh_isa::{InstrRef, Kernel, Reg, Slot, Unit, Width};

use crate::absint::last_use::LastUseHints;
use crate::bitset::RegSet;
use crate::liveness::Liveness;
use crate::strand::{StrandId, StrandInfo};

/// One read of a value: where, which slot, which register word, and at
/// which layout position within the strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRef {
    /// The reading instruction.
    pub at: InstrRef,
    /// The operand slot occupied by the read.
    pub slot: Slot,
    /// The register word read (for 64-bit instances this may be the high
    /// half, `root + 1`).
    pub reg: Reg,
    /// Layout position within the strand (0-based instruction index).
    pub pos: usize,
    /// The function unit consuming the value (LRF reads require the
    /// private datapath).
    pub unit: Unit,
}

/// A definition and the reads it reaches within its strand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInstance {
    /// Dense id within the strand.
    pub id: usize,
    /// The defining instruction.
    pub def: InstrRef,
    /// Layout position of the definition within the strand.
    pub def_pos: usize,
    /// The root destination register.
    pub reg: Reg,
    /// Width of the produced value (64-bit values occupy two hierarchy
    /// entries).
    pub width: Width,
    /// Whether the producer executes on the shared datapath (such values
    /// cannot be written to the LRF, §3.2).
    pub produced_on_shared: bool,
    /// Reads served by this instance that the allocator may place in the
    /// ORF/LRF (merge reads tainted by live-in values are excluded).
    pub reads: Vec<ReadRef>,
    /// Whether the value is (possibly) read after the strand ends and must
    /// therefore also be written to the MRF (§4.2).
    pub live_out: bool,
    /// Merge group id; instances sharing a group must be co-allocated.
    pub group: usize,
}

impl ValueInstance {
    /// The layout position of the last allocable read, or the definition
    /// position when there are none.
    pub fn last_read_pos(&self) -> usize {
        self.reads
            .iter()
            .map(|r| r.pos)
            .max()
            .unwrap_or(self.def_pos)
    }
}

/// A value read in the strand but produced before it (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOperand {
    /// The register holding the live-in value.
    pub reg: Reg,
    /// All reads reached exclusively by the live-in value, in layout order.
    pub reads: Vec<ReadRef>,
}

/// The def-use summary of one strand: the allocator's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrandValues {
    /// Which strand this summarizes.
    pub strand: StrandId,
    /// Value instances defined in the strand.
    pub instances: Vec<ValueInstance>,
    /// Live-in read-operand ranges.
    pub read_operands: Vec<ReadOperand>,
    /// Merge groups: instance ids per group (singletons included), indexed
    /// by group id.
    pub groups: Vec<Vec<usize>>,
    /// Number of instructions in the strand.
    pub len: usize,
}

#[derive(Default)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn make(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
            root
        } else {
            x
        }
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// The reaching definitions of one register at one point of a strand,
/// sorted ascending: [`LIVE_IN`] stands for the value flowing into the
/// strand and `i + 1` for instance `i`. An empty list means that no
/// in-strand path to this point mentions the register, which is the same
/// as `[LIVE_IN]`.
type Reaching = Vec<u32>;

/// The strand live-in in a [`Reaching`] list.
const LIVE_IN: u32 = 0;

/// The instance id behind an encoded in-strand definition.
fn instance(def: u32) -> usize {
    def as usize - 1
}

/// The join of `ins` for register `r` at a block entry; `external` adds the
/// live-in of paths entering from outside the strand.
fn join(ins: &[&[Reaching]], r: usize, external: bool) -> Reaching {
    if ins.iter().all(|s| s[r].is_empty()) {
        return Vec::new();
    }
    let mut defs: Reaching = Vec::new();
    if external {
        defs.push(LIVE_IN);
    }
    for s in ins {
        match s[r].as_slice() {
            [] => defs.push(LIVE_IN),
            d => defs.extend_from_slice(d),
        }
    }
    defs.sort_unstable();
    defs.dedup();
    defs
}

/// Marks every instance reaching a strand exit in a register of `live` as
/// live out.
fn mark_live_out(state: &[Reaching], live: &RegSet, instances: &mut [ValueInstance]) {
    for r in live.iter() {
        let Some(defs) = state.get(usize::from(r.index())) else {
            break; // `live` iterates in register order
        };
        for &d in defs.iter().filter(|d| **d != LIVE_IN) {
            instances[instance(d)].live_out = true;
        }
    }
}

/// Computes the def-use summary for strand `sid`.
///
/// # Panics
///
/// Panics if `sid` is out of range for `info`.
pub fn strand_values(
    kernel: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
    sid: StrandId,
) -> StrandValues {
    strand_values_opts(kernel, info, liveness, sid, None)
}

/// [`strand_values`] with optional last-use hints. A *covered* read (see
/// [`crate::absint::last_use`]) provably observes a specific in-strand
/// guarded definition, so it attaches to that instance directly instead of
/// being tainted by the strand live-in; exit liveness uses the hints'
/// refined (read-excluding) queries, so values whose only downstream reads
/// are covered need no MRF copy. When `hints` is `Some`, `liveness` must
/// be the hints' own refined liveness.
///
/// # Panics
///
/// Panics if `sid` is out of range for `info`.
pub fn strand_values_opts(
    kernel: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
    sid: StrandId,
    hints: Option<&LastUseHints>,
) -> StrandValues {
    let nodes = &info.strand(sid).instrs;
    let pos_of = |at: InstrRef| info.pos_in(sid, at);
    let num_regs = nodes
        .iter()
        .flat_map(|at| {
            let i = kernel.instr(*at);
            i.def_regs().chain(i.reg_srcs().map(|(_, r)| r))
        })
        .map(|r| usize::from(r.index()) + 1)
        .max()
        .unwrap_or(0);

    let mut instances: Vec<ValueInstance> = Vec::new();
    // Instance defined at each strand position, for covered-read attachment.
    let mut instance_at: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut uf = UnionFind::default();
    // Reaching defs per register, updated in place along the layout order.
    let mut state: Vec<Reaching> = vec![Vec::new(); num_regs];
    // Out-states of block terminators that a later, non-adjacent block of
    // the strand joins from, in position order.
    let mut snapshots: Vec<(usize, Vec<Reaching>)> = Vec::new();
    // Reads that are reached purely by live-in values, per register.
    let mut live_in_reads: Vec<Vec<ReadRef>> = vec![Vec::new(); num_regs];
    // Deferred merge-read attachments: (read, defs) resolved after groups.
    let mut pending_merge_reads: Vec<(ReadRef, Vec<usize>)> = Vec::new();

    for (pos, at) in nodes.iter().enumerate() {
        let instr = kernel.instr(*at);
        // ---- in-state ----
        // Inside a block, `state` already holds the previous instruction's
        // out-state; a strand starting mid-block starts from the all-live-in
        // state. At a block entry the in-strand predecessors' terminators
        // join. A predecessor at a *later* position is the strand's own
        // closing backward branch (a loop whose header starts this strand):
        // values flowing around the backedge are inter-strand and arrive as
        // live-ins, like those on every path entering from outside.
        if at.index == 0 && pos > 0 {
            let mut from: Vec<usize> = Vec::new();
            let mut external = false;
            for p in &info.preds[at.block.index()] {
                let term = InstrRef {
                    block: *p,
                    index: kernel.block(*p).instrs.len() - 1,
                };
                match pos_of(term) {
                    Some(t) if t < pos => from.push(t),
                    _ => external = true,
                }
            }
            if from.is_empty() {
                state.iter_mut().for_each(Vec::clear);
            } else if external || from.iter().any(|t| *t + 1 != pos) {
                let ins: Vec<&[Reaching]> = from
                    .iter()
                    .map(|t| {
                        if t + 1 == pos {
                            return state.as_slice();
                        }
                        let i = snapshots
                            .binary_search_by_key(t, |(p, _)| *p)
                            .expect("non-adjacent predecessor states are kept");
                        snapshots[i].1.as_slice()
                    })
                    .collect();
                let joined = (0..num_regs).map(|r| join(&ins, r, external)).collect();
                state = joined;
            }
        }

        // ---- reads ----
        let unit = instr.op.unit();
        for (i, src) in instr.srcs.iter().enumerate() {
            let Some(reg) = src.as_reg() else { continue };
            let read = ReadRef {
                at: *at,
                slot: Slot::from_index(i),
                reg,
                pos,
                unit,
            };
            // A covered read observes exactly its covering in-strand
            // guarded definition (same guard, nothing in between): attach
            // it there and skip the reaching-def taint entirely.
            let covering = hints
                .and_then(|h| h.covered.get(&(*at, i)))
                .and_then(|site| instance_at[pos_of(*site)?]);
            if let Some(iid) = covering {
                instances[iid].reads.push(read);
                continue;
            }
            let defs = &state[usize::from(reg.index())];
            let (has_live_in, insts) = match defs.split_first() {
                None => (true, &[][..]),
                Some((&LIVE_IN, rest)) => (true, rest),
                Some(_) => (false, defs.as_slice()),
            };
            match (insts.len(), has_live_in) {
                (0, _) => live_in_reads[usize::from(reg.index())].push(read),
                (1, false) => instances[instance(insts[0])].reads.push(read),
                (_, false) => {
                    // Merge read: union the reaching instances into one
                    // group; the read attaches to the whole group.
                    for w in insts.windows(2) {
                        uf.union(instance(w[0]), instance(w[1]));
                    }
                    pending_merge_reads.push((read, insts.iter().map(|d| instance(*d)).collect()));
                }
                (_, true) => {
                    // Tainted by live-in along some path: the read must be
                    // served by the MRF (Figure 10a/b). It is not allocable,
                    // and every reaching instance must keep an MRF copy for
                    // it, which `live_out` encodes.
                    for d in insts {
                        instances[instance(*d)].live_out = true;
                    }
                }
            }
        }

        // ---- defs ----
        if let Some(dst) = instr.dst {
            let id = instances.len();
            let g = uf.make();
            debug_assert_eq!(g, id);
            instance_at[pos] = Some(id);
            instances.push(ValueInstance {
                id,
                def: *at,
                def_pos: pos,
                reg: dst.reg,
                width: dst.width,
                produced_on_shared: unit.is_shared(),
                reads: Vec::new(),
                live_out: false,
                group: 0, // filled after union-find settles
            });
            for r in dst.regs() {
                // A guarded (weak) def keeps what reached before it, the
                // live-in included.
                let defs = &mut state[usize::from(r.index())];
                if instr.guard.is_none() {
                    defs.clear();
                } else if defs.is_empty() {
                    defs.push(LIVE_IN);
                }
                defs.push(id as u32 + 1);
            }
        }

        // ---- strand exits: an instance reaching an exit where its
        //      register is live is live out ----
        if at.index + 1 < kernel.block(at.block).instrs.len() {
            if pos + 1 == nodes.len() {
                // The strand ends mid-block.
                let live = match hints {
                    Some(h) => liveness.live_after_excluding(kernel, *at, &h.excluded),
                    None => liveness.live_after(kernel, *at),
                };
                mark_live_out(&state, &live, &mut instances);
            }
        } else {
            let mut keep = false;
            for s in kernel.successors(at.block) {
                match pos_of(InstrRef { block: s, index: 0 }) {
                    // A later block of this strand joins this out-state;
                    // only a non-adjacent one needs a copy of it.
                    Some(p) if p > pos => keep |= p > pos + 1,
                    // An edge to an *earlier* position in the same strand is
                    // the strand's own backedge (loop): the next iteration
                    // is a new strand instance, so this is an exit.
                    _ => mark_live_out(&state, &liveness.live_in[s.index()], &mut instances),
                }
            }
            if keep {
                snapshots.push((pos, state.clone()));
            }
        }
    }

    // ---- merge reads attach to every instance in their group ----
    for (read, insts) in pending_merge_reads {
        for i in insts {
            instances[i].reads.push(read);
        }
    }

    // ---- finalize groups, numbered by their first member ----
    let mut group_of_root: Vec<Option<usize>> = vec![None; instances.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, inst) in instances.iter_mut().enumerate() {
        let root = uf.find(i);
        let g = *group_of_root[root].get_or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        inst.group = g;
        groups[g].push(i);
    }
    // Merge-group members share live-out: if any member's value escapes,
    // every member must also write the MRF (the merge read's fallback and
    // later strands cannot tell which def executed).
    for g in &groups {
        if g.iter().any(|&i| instances[i].live_out) {
            for &i in g {
                instances[i].live_out = true;
            }
        }
    }

    // Registers in order; each one's reads are in position order already.
    let read_operands: Vec<ReadOperand> = live_in_reads
        .into_iter()
        .enumerate()
        .filter(|(_, reads)| !reads.is_empty())
        .map(|(r, reads)| ReadOperand {
            reg: Reg::new(r as u16),
            reads,
        })
        .collect();

    StrandValues {
        strand: sid,
        instances,
        read_operands,
        groups,
        len: nodes.len(),
    }
}

/// Computes def-use summaries for every strand of a kernel.
pub fn all_strand_values(
    kernel: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
) -> Vec<StrandValues> {
    all_strand_values_opts(kernel, info, liveness, None)
}

/// [`all_strand_values`] with optional last-use hints (see
/// [`strand_values_opts`]).
pub fn all_strand_values_opts(
    kernel: &Kernel,
    info: &StrandInfo,
    liveness: &Liveness,
    hints: Option<&LastUseHints>,
) -> Vec<StrandValues> {
    info.strands
        .iter()
        .map(|s| strand_values_opts(kernel, info, liveness, s.id, hints))
        .collect()
}

/// The def-use pass as it was before the dense in-place state: one
/// `HashMap<Reg, BTreeSet<Def>>` per instruction and `HashMap` positions,
/// kept verbatim as the differential oracle for [`strand_values_opts`].
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    use super::*;

    /// A reaching definition: either the strand live-in state or an in-strand
    /// instance.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Def {
        LiveIn,
        Inst(usize),
    }

    pub(super) fn strand_values_opts(
        kernel: &Kernel,
        info: &StrandInfo,
        liveness: &Liveness,
        sid: StrandId,
        hints: Option<&LastUseHints>,
    ) -> StrandValues {
        let strand = info.strand(sid);
        let nodes = &strand.instrs;
        let pos_of: HashMap<InstrRef, usize> =
            nodes.iter().enumerate().map(|(i, r)| (*r, i)).collect();

        let mut instances: Vec<ValueInstance> = Vec::new();
        // Defining instruction -> instance id, for covered-read attachment.
        let mut def_instance: HashMap<InstrRef, usize> = HashMap::new();
        let mut uf = UnionFind::default();
        // reg -> reaching defs, flowing through the strand's layout-order DAG.
        // `states[p]` is the out-state of node p, kept for join edges.
        let mut out_states: Vec<HashMap<Reg, BTreeSet<Def>>> = Vec::with_capacity(nodes.len());
        // Reads that are reached purely by live-in values, grouped per reg.
        let mut live_in_reads: HashMap<Reg, Vec<ReadRef>> = HashMap::new();
        // Deferred merge-read attachments: (read, defs) resolved after groups.
        let mut pending_merge_reads: Vec<(ReadRef, Vec<usize>)> = Vec::new();

        for (pos, at) in nodes.iter().enumerate() {
            let instr = kernel.instr(*at);
            // ---- compute the in-state ----
            // Semantics: a register absent from the map implicitly reaches the
            // strand live-in, so joins must add `LiveIn` for registers that are
            // defined along some predecessor paths but not others, and paths
            // entering the strand from outside contribute `LiveIn` everywhere.
            let mut in_strand_preds: Vec<usize> = Vec::new();
            let mut external_entry = false;

            if at.index > 0 {
                // Sequential predecessor within the block.
                let prev = InstrRef {
                    block: at.block,
                    index: at.index - 1,
                };
                match pos_of.get(&prev) {
                    Some(p) => in_strand_preds.push(*p),
                    None => external_entry = true, // mid-block strand start
                }
            } else {
                // Block entry: join in-strand predecessors' terminators. A
                // predecessor at a *later* position is the strand's own closing
                // backward branch (a loop whose header starts this strand);
                // values flowing around the backedge are inter-strand and
                // arrive as live-ins.
                for p in &info.preds[at.block.index()] {
                    let pb = kernel.block(*p);
                    let term = InstrRef {
                        block: *p,
                        index: pb.instrs.len() - 1,
                    };
                    match pos_of.get(&term) {
                        Some(t) if *t < pos => in_strand_preds.push(*t),
                        _ => external_entry = true,
                    }
                }
                if in_strand_preds.is_empty() {
                    external_entry = true;
                }
            }
            let mut state: HashMap<Reg, BTreeSet<Def>> = HashMap::new();
            let keys: BTreeSet<Reg> = in_strand_preds
                .iter()
                .flat_map(|p| out_states[*p].keys().copied())
                .collect();
            for reg in keys {
                let mut defs = BTreeSet::new();
                for p in &in_strand_preds {
                    match out_states[*p].get(&reg) {
                        Some(d) if !d.is_empty() => defs.extend(d.iter().copied()),
                        _ => {
                            defs.insert(Def::LiveIn);
                        }
                    }
                }
                if external_entry {
                    defs.insert(Def::LiveIn);
                }
                state.insert(reg, defs);
            }
            let lookup = |state: &HashMap<Reg, BTreeSet<Def>>, r: Reg| -> BTreeSet<Def> {
                match state.get(&r) {
                    Some(defs) if !defs.is_empty() => defs.clone(),
                    _ => BTreeSet::from([Def::LiveIn]),
                }
            };

            // ---- reads ----
            for (i, src) in instr.srcs.iter().enumerate() {
                let Some(reg) = src.as_reg() else { continue };
                let read = ReadRef {
                    at: *at,
                    slot: Slot::from_index(i),
                    reg,
                    pos,
                    unit: instr.op.unit(),
                };
                // A covered read observes exactly its covering in-strand
                // guarded definition (same guard, nothing in between): attach
                // it there and skip the reaching-def taint entirely.
                if let Some(h) = hints {
                    if let Some(site) = h.covered.get(&(*at, i)) {
                        if let Some(&iid) = def_instance.get(site) {
                            instances[iid].reads.push(read);
                            continue;
                        }
                    }
                }
                let defs = lookup(&state, reg);
                let insts: Vec<usize> = defs
                    .iter()
                    .filter_map(|d| match d {
                        Def::Inst(i) => Some(*i),
                        Def::LiveIn => None,
                    })
                    .collect();
                let has_live_in = defs.contains(&Def::LiveIn);
                match (insts.len(), has_live_in) {
                    (0, _) => live_in_reads.entry(reg).or_default().push(read),
                    (1, false) => instances[insts[0]].reads.push(read),
                    (_, false) => {
                        // Merge read: union the reaching instances into one
                        // group; the read attaches to the whole group.
                        for w in insts.windows(2) {
                            uf.union(w[0], w[1]);
                        }
                        pending_merge_reads.push((read, insts));
                    }
                    (_, true) => {
                        // Tainted by live-in along some path: the read must be
                        // served by the MRF (Figure 10a/b). It is not allocable,
                        // and every reaching instance must keep an MRF copy for
                        // it, which `live_out` encodes.
                        for i in insts {
                            instances[i].live_out = true;
                        }
                    }
                }
            }

            // ---- defs ----
            if let Some(dst) = instr.dst {
                let id = instances.len();
                let g = uf.make();
                debug_assert_eq!(g, id);
                def_instance.insert(*at, id);
                instances.push(ValueInstance {
                    id,
                    def: *at,
                    def_pos: pos,
                    reg: dst.reg,
                    width: dst.width,
                    produced_on_shared: instr.op.unit().is_shared(),
                    reads: Vec::new(),
                    live_out: false,
                    group: 0, // filled after union-find settles
                });
                for r in dst.regs() {
                    // A register absent from the map implicitly reaches the
                    // strand live-in; a guarded (weak) def must preserve it.
                    let entry = state
                        .entry(r)
                        .or_insert_with(|| BTreeSet::from([Def::LiveIn]));
                    if instr.guard.is_none() {
                        entry.clear();
                    }
                    entry.insert(Def::Inst(id));
                }
            }
            out_states.push(state);
        }

        // ---- merge reads attach to every instance in their group ----
        for (read, insts) in pending_merge_reads {
            for i in insts {
                instances[i].reads.push(read);
            }
        }

        // ---- live-out: does an instance reach a strand exit where its
        //      register is live? ----
        for (pos, at) in nodes.iter().enumerate() {
            let block = kernel.block(at.block);
            let is_block_last = at.index + 1 == block.instrs.len();
            // Collect (exiting?, live set) targets.
            let mut exit_lives: Vec<crate::bitset::RegSet> = Vec::new();
            if !is_block_last {
                let next = InstrRef {
                    block: at.block,
                    index: at.index + 1,
                };
                if !pos_of.contains_key(&next) {
                    exit_lives.push(match hints {
                        Some(h) => liveness.live_after_excluding(kernel, *at, &h.excluded),
                        None => liveness.live_after(kernel, *at),
                    });
                }
            } else {
                for s in kernel.successors(at.block) {
                    let first = InstrRef { block: s, index: 0 };
                    // An edge to an *earlier* position in the same strand is
                    // the strand's own backedge (loop): the next iteration is a
                    // new strand instance, so this is an exit.
                    let internal = matches!(pos_of.get(&first), Some(p) if *p > pos);
                    if !internal {
                        exit_lives.push(liveness.live_in[s.index()].clone());
                    }
                }
            }
            if exit_lives.is_empty() {
                continue;
            }
            let state = &out_states[pos];
            for live in exit_lives {
                for (reg, defs) in state {
                    if !live.contains(*reg) {
                        continue;
                    }
                    for d in defs {
                        if let Def::Inst(i) = d {
                            instances[*i].live_out = true;
                        }
                    }
                }
            }
        }

        // ---- finalize groups ----
        let mut group_ids: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, inst) in instances.iter_mut().enumerate() {
            let root = uf.find(i);
            let g = *group_ids.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            inst.group = g;
            groups[g].push(i);
        }
        // Merge-group members share live-out: if any member's value escapes,
        // every member must also write the MRF (the merge read's fallback and
        // later strands cannot tell which def executed).
        for g in &groups {
            if g.iter().any(|&i| instances[i].live_out) {
                for &i in g {
                    instances[i].live_out = true;
                }
            }
        }

        let mut read_operands: Vec<ReadOperand> = live_in_reads
            .into_iter()
            .map(|(reg, mut reads)| {
                reads.sort_by_key(|r| r.pos);
                ReadOperand { reg, reads }
            })
            .collect();
        read_operands.sort_by_key(|r| r.reg);

        StrandValues {
            strand: sid,
            instances,
            read_operands,
            groups,
            len: nodes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::Liveness;
    use crate::strand::mark_strands;
    use rfh_isa::parse_kernel;

    fn analyze(text: &str) -> (Kernel, StrandInfo, Vec<StrandValues>) {
        let mut k = parse_kernel(text).unwrap();
        let info = mark_strands(&mut k);
        let lv = Liveness::compute(&k);
        let values = all_strand_values(&k, &info, &lv);
        (k, info, values)
    }

    #[test]
    fn straight_line_instances() {
        let (_, _, values) = analyze(
            "
.kernel s
BB0:
  iadd r1 r0, 1
  iadd r2 r1, 1
  iadd r3 r1, r2
  st.global r0, r3
  exit
",
        );
        assert_eq!(values.len(), 1);
        let v = &values[0];
        assert_eq!(v.instances.len(), 3);
        let r1 = &v.instances[0];
        assert_eq!(r1.reads.len(), 2);
        assert!(!r1.live_out);
        let r3 = &v.instances[2];
        assert_eq!(r3.reads.len(), 1);
        assert!(
            r3.reads[0].unit.is_shared(),
            "store consumes on shared datapath"
        );
        // r0 is a live-in read operand, read twice (add and store).
        assert_eq!(v.read_operands.len(), 1);
        assert_eq!(v.read_operands[0].reads.len(), 2);
    }

    #[test]
    fn live_out_across_strand_boundary() {
        let (_, _, values) = analyze(
            "
.kernel lo
BB0:
  iadd r2 r0, 1
  ld.global r1 r0
  iadd r3 r1, r2
  st.global r0, r3
  exit
",
        );
        // Strand 1 = {iadd r2, ld}, strand 2 = rest: r2 crosses the
        // boundary, so its instance is live-out; r1 (long-latency result)
        // is also live out of strand 1.
        assert_eq!(values.len(), 2);
        let s1 = &values[0];
        let r2 = s1.instances.iter().find(|i| i.reg == Reg::new(2)).unwrap();
        assert!(r2.live_out);
        assert!(r2.reads.is_empty(), "read happens in the next strand");
        // In strand 2, r0, r1 and r2 all appear as read operands.
        let s2 = &values[1];
        assert_eq!(s2.read_operands.len(), 3);
    }

    #[test]
    fn hammock_merge_groups_instances() {
        // Figure 10c: r1 written on both sides, read at the merge.
        let (_, _, values) = analyze(
            "
.kernel h
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
  bra BB3
BB2:
  iadd r1 r0, 2
BB3:
  st.global r0, r1
  exit
",
        );
        assert_eq!(values.len(), 1, "a hammock is a single strand");
        let v = &values[0];
        let defs: Vec<_> = v
            .instances
            .iter()
            .filter(|i| i.reg == Reg::new(1))
            .collect();
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].group, defs[1].group, "hammock defs share a group");
        // Both carry the merge read.
        assert_eq!(defs[0].reads.len(), 1);
        assert_eq!(defs[1].reads.len(), 1);
        let group = &v.groups[defs[0].group];
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn merge_with_live_in_taints_read() {
        // Figure 10a: r1 written on one side only; the merge read must use
        // the MRF, so it attaches to no instance.
        let (_, _, values) = analyze(
            "
.kernel t
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
BB2:
  st.global r0, r1
  exit
",
        );
        let v = &values[0];
        let def = v.instances.iter().find(|i| i.reg == Reg::new(1)).unwrap();
        assert!(def.reads.is_empty(), "merge read is MRF-only");
        assert!(def.live_out, "the MRF copy must exist for the merge read");
        // And the read is not misclassified as a pure live-in read.
        assert!(v.read_operands.iter().all(|r| r.reg != Reg::new(1)));
    }

    #[test]
    fn figure_10b_partial_orf_service() {
        // Figure 10b: extra read of r1 inside the writing block can be
        // ORF-served; the merge read cannot.
        let (_, _, values) = analyze(
            "
.kernel t2
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
  iadd r2 r1, 1
BB2:
  st.global r0, r1
  exit
",
        );
        let v = &values[0];
        let def = v.instances.iter().find(|i| i.reg == Reg::new(1)).unwrap();
        assert_eq!(def.reads.len(), 1, "only the same-side read is allocable");
        assert!(def.live_out);
    }

    #[test]
    fn guarded_def_merges_with_previous_value() {
        let (_, _, values) = analyze(
            "
.kernel g
BB0:
  mov r1, 1
  @p0 mov r1, 2
  st.global r0, r1
  exit
",
        );
        let v = &values[0];
        let defs: Vec<_> = v
            .instances
            .iter()
            .filter(|i| i.reg == Reg::new(1))
            .collect();
        assert_eq!(defs.len(), 2);
        // The store's read reaches both defs → same group, read on both.
        assert_eq!(defs[0].group, defs[1].group);
        assert_eq!(defs[0].reads.len(), 1);
        assert_eq!(defs[1].reads.len(), 1);
    }

    #[test]
    fn wide_value_reads_attach_to_root_instance() {
        let (_, _, values) = analyze(
            "
.kernel w
BB0:
  ld.shared r4.w64 r0
  iadd r6 r4, 1
  iadd r7 r5, 1
  st.global r0, r6
  st.global r0, r7
  exit
",
        );
        let v = &values[0];
        let wide = v.instances.iter().find(|i| i.width == Width::W64).unwrap();
        assert_eq!(wide.reads.len(), 2, "reads of both halves attach");
        assert!(wide.reads.iter().any(|r| r.reg == Reg::new(4)));
        assert!(wide.reads.iter().any(|r| r.reg == Reg::new(5)));
    }

    #[test]
    fn read_positions_are_strand_relative() {
        let (_, _, values) = analyze(
            "
.kernel p
BB0:
  ld.global r1 r0
  iadd r2 r1, 1
  iadd r3 r2, 1
  exit
",
        );
        // Strand 2 starts at the consumer of r1; positions restart at 0.
        let s2 = &values[1];
        let r2 = s2.instances.iter().find(|i| i.reg == Reg::new(2)).unwrap();
        assert_eq!(r2.def_pos, 0);
        assert_eq!(r2.reads[0].pos, 1);
        assert_eq!(r2.last_read_pos(), 1);
    }
}

#[cfg(test)]
mod guarded_live_in_tests {
    use super::*;
    use crate::liveness::Liveness;
    use crate::strand::mark_strands;
    use rfh_isa::parse_kernel;

    /// Regression: a guarded def of a register never previously mentioned
    /// in the strand must still merge with the live-in value, so reads
    /// after it are tainted and stay on the MRF.
    #[test]
    fn guarded_def_of_fresh_register_keeps_live_in() {
        let mut k = parse_kernel(
            "
.kernel g
BB0:
  @p0 ld.shared r7 r0
  @p0 fadd r8 r7, 1.0f
  st.global r0, r8
  exit
",
        )
        .unwrap();
        let info = mark_strands(&mut k);
        let lv = Liveness::compute(&k);
        let values = all_strand_values(&k, &info, &lv);
        let def = values[0]
            .instances
            .iter()
            .find(|i| i.reg == rfh_isa::Reg::new(7))
            .unwrap();
        assert!(def.reads.is_empty(), "read is tainted by live-in");
        assert!(def.live_out, "the MRF copy must exist");
    }

    /// With last-use hints, the same pattern's reads are *covered* (same
    /// guard, no redefinition in between): they attach to the defining
    /// instance and the MRF copy is elided.
    #[test]
    fn covered_reads_attach_with_hints() {
        let mut k = parse_kernel(
            "
.kernel h
BB0:
  @p0 ld.shared r7 r0
  @p0 fadd r8 r7, 1.0f
  @p0 st.shared r0, r8
  exit
",
        )
        .unwrap();
        let info = mark_strands(&mut k);
        let hints = crate::absint::last_use::analyze(&k);
        let values = all_strand_values_opts(&k, &info, &hints.liveness, Some(&hints));
        let find = |r: u16| {
            values[0]
                .instances
                .iter()
                .find(|i| i.reg == rfh_isa::Reg::new(r))
                .unwrap()
        };
        let r7 = find(7);
        assert_eq!(r7.reads.len(), 1, "covered read attaches to the def");
        assert!(!r7.live_out, "no MRF copy needed");
        let r8 = find(8);
        assert_eq!(r8.reads.len(), 1);
        assert!(!r8.live_out);
    }
}

/// The dense in-place pass against the frozen [`oracle`], and the corners
/// of its in-state: block-entry joins, kept terminator states, and exits.
#[cfg(test)]
mod dense_tests {
    use super::*;
    use crate::strand::mark_strands;
    use rfh_isa::parse_kernel;
    use rfh_testkit::{prop, prop_assert_eq};
    use rfh_workloads::generator::{random_program, GenConfig};

    /// Compares both implementations on every strand of `kernel`, field by
    /// field, with last-use hints off or on.
    fn compare(kernel: &Kernel, hinted: bool) -> Result<(), String> {
        let mut k = kernel.clone();
        let info = mark_strands(&mut k);
        let hints = hinted.then(|| crate::absint::last_use::analyze(&k));
        let liveness = match &hints {
            Some(h) => h.liveness.clone(),
            None => Liveness::compute(&k),
        };
        for s in &info.strands {
            let new = strand_values_opts(&k, &info, &liveness, s.id, hints.as_ref());
            let old = oracle::strand_values_opts(&k, &info, &liveness, s.id, hints.as_ref());
            let at = format!("{} strand {} (hints {hinted})", k.name, s.id.0);
            prop_assert_eq!(new.instances.len(), old.instances.len(), "{at}: instances");
            for (a, b) in new.instances.iter().zip(&old.instances) {
                prop_assert_eq!(a.reads, b.reads, "{at}: reads of instance {}", b.id);
                prop_assert_eq!(
                    a.live_out,
                    b.live_out,
                    "{at}: live_out of instance {}",
                    b.id
                );
                prop_assert_eq!(a, b, "{at}: instance {}", b.id);
            }
            prop_assert_eq!(new.groups, old.groups, "{at}: groups");
            prop_assert_eq!(new.read_operands, old.read_operands, "{at}: read operands");
            prop_assert_eq!(new, old, "{at}");
        }
        Ok(())
    }

    #[test]
    fn suite_kernels_match_oracle() {
        let suite = rfh_workloads::all();
        assert_eq!(suite.len(), 35);
        for w in &suite {
            for hinted in [false, true] {
                compare(&w.kernel, hinted).unwrap();
            }
        }
    }

    prop! {
        #![config(cases = 48)]
        fn generated_kernels_match_oracle(
            seed in 0u64..1_000_000,
            tier in 0usize..3,
            hinted in rfh_testkit::strategy::any::<bool>(),
        ) {
            let cfg = GenConfig {
                segments: [8, 32, 128][tier],
                run_len: 8,
                max_trips: 5,
                pool: 16,
            };
            compare(&random_program(seed, cfg).0, hinted)?;
        }
    }

    fn values(text: &str) -> Vec<StrandValues> {
        let k = parse_kernel(text).unwrap();
        compare(&k, false).unwrap();
        let mut k = k;
        let info = mark_strands(&mut k);
        all_strand_values(&k, &info, &Liveness::compute(&k))
    }

    fn def_of(v: &StrandValues, reg: u16) -> &ValueInstance {
        v.instances.iter().find(|i| i.reg == Reg::new(reg)).unwrap()
    }

    /// A strand ending mid-block exits through `live_after`: values read
    /// past the exit are live out, values dead there are not.
    #[test]
    fn mid_block_exit_uses_live_after() {
        let v = values(
            "
.kernel mid
BB0:
  iadd r2 r0, 1
  iadd r4 r0, 2
  iadd r5 r4, 1
  ld.global r1 r0
  iadd r3 r1, r2
  st.global r0, r3
  st.global r0, r5
  exit
",
        );
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].len, 4);
        assert!(def_of(&v[0], 2).live_out);
        assert!(!def_of(&v[0], 4).live_out, "r4 dies inside the strand");
        assert!(def_of(&v[0], 5).live_out);
        assert!(def_of(&v[0], 1).live_out);
    }

    /// A loop header starts its strand; the strand's own backedge enters
    /// the header from a later position, so it counts as an external
    /// entry: the header's reads see the live-in, not the body's defs, and
    /// the body's defs leave through the backedge exit.
    #[test]
    fn own_backedge_is_external_entry() {
        let v = values(
            "
.kernel loop
BB0:
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  iadd r2 r2, r1
  setp.lt p0 r1, 8
  @p0 bra BB1
BB2:
  st.global r0, r2
  exit
",
        );
        let body = &v[1];
        assert_eq!(body.instances[0].def_pos, 0);
        let regs: Vec<Reg> = body.read_operands.iter().map(|r| r.reg).collect();
        assert_eq!(regs, vec![Reg::new(1), Reg::new(2)]);
        assert!(def_of(body, 1).live_out && def_of(body, 2).live_out);
        assert_eq!(def_of(body, 1).reads.len(), 2, "iadd r2 and setp");
    }

    /// A guarded 64-bit def over a live-in keeps the live-in reaching both
    /// words: later reads of either half are tainted, not allocable.
    #[test]
    fn guarded_wide_def_keeps_live_in() {
        let v = values(
            "
.kernel gw
BB0:
  @p0 ld.shared r4.w64 r0
  iadd r6 r4, 1
  iadd r7 r5, 1
  st.global r0, r6
  st.global r0, r7
  exit
",
        );
        let wide = def_of(&v[0], 4);
        assert_eq!(wide.width, Width::W64);
        assert!(wide.reads.is_empty(), "both halves are tainted");
        assert!(wide.live_out, "the MRF copy must exist");
        assert!(v[0]
            .read_operands
            .iter()
            .all(|r| r.reg != Reg::new(4) && r.reg != Reg::new(5)));
    }

    /// At a join whose adjacent predecessor never mentions a register and
    /// whose other (kept) predecessor defines it, the live-in taints the
    /// merge read; a value defined before the fork reaches it cleanly.
    #[test]
    fn join_with_silent_predecessor_is_tainted() {
        let v = values(
            "
.kernel j
BB0:
  mov r0, %tid.x
  iadd r2 r0, 5
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
  bra BB3
BB2:
  iadd r3 r0, 2
BB3:
  iadd r4 r1, r2
  st.global r0, r4
  exit
",
        );
        assert_eq!(v.len(), 1);
        let r1 = def_of(&v[0], 1);
        assert!(r1.reads.is_empty(), "merge read is MRF-only");
        assert!(r1.live_out);
        assert!(v[0].read_operands.iter().all(|r| r.reg != Reg::new(1)));
        let r2 = def_of(&v[0], 2);
        assert_eq!(r2.reads.len(), 1, "one def reaches the join on both paths");
        assert!(!r2.live_out);
    }
}
