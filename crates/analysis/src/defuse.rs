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
//! layout-order pass without iteration.

use std::collections::{BTreeSet, HashMap};

use rfh_isa::{InstrRef, Kernel, Reg, Slot, Unit, Width};

use crate::absint::last_use::LastUseHints;
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
#[derive(Debug, Clone)]
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

    /// Whether any allocable read occurs on the shared datapath.
    pub fn has_shared_reads(&self) -> bool {
        self.reads.iter().any(|r| r.unit.is_shared())
    }
}

/// A value read in the strand but produced before it (§4.4).
#[derive(Debug, Clone)]
pub struct ReadOperand {
    /// The register holding the live-in value.
    pub reg: Reg,
    /// All reads reached exclusively by the live-in value, in layout order.
    pub reads: Vec<ReadRef>,
}

/// The def-use summary of one strand: the allocator's input.
#[derive(Debug, Clone)]
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

/// A reaching definition: either the strand live-in state or an in-strand
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Def {
    LiveIn,
    Inst(usize),
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
    let strand = info.strand(sid);
    let nodes = &strand.instrs;
    let pos_of: HashMap<InstrRef, usize> = nodes.iter().enumerate().map(|(i, r)| (*r, i)).collect();

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
