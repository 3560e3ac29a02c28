//! The allocation pass: LRF first, then ORF, per strand (paper §4).

use std::collections::HashSet;

use rfh_analysis::absint::last_use;
use rfh_analysis::defuse::{all_strand_values_opts, strand_values, StrandValues};
use rfh_analysis::liveness::{annotate_dead, Liveness};
use rfh_analysis::strand::{mark_strands_opts, strand_canonical, StrandOpts};
use rfh_analysis::{DomTree, ReadRef};
use rfh_energy::EnergyModel;
use rfh_isa::{Kernel, ReadLoc, Unit, Width, WriteLoc};

use crate::config::{AllocConfig, LrfMode};
use crate::costs::Costs;
use crate::error::AllocError;
use crate::interval::Occupancy;
use crate::validate::validate_placements;

/// Counters describing what the allocator did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Strands processed.
    pub strands: usize,
    /// Value instances allocated to the LRF.
    pub lrf_values: usize,
    /// Value instances fully allocated to the ORF.
    pub orf_values: usize,
    /// Value instances allocated with a partial range (§4.3).
    pub orf_partial: usize,
    /// Read-operand ranges allocated to the ORF (§4.4), full or partial.
    pub read_operands: usize,
    /// 1 when the kernel was demoted to MRF-only placement because the
    /// allocator's own output failed [`validate_placements`] — graceful
    /// degradation instead of an abort. Always correct (the MRF baseline
    /// needs no annotations), never optimal; a nonzero count indicates an
    /// allocator bug worth reporting.
    pub demoted: usize,
}

/// Number of LRF banks for an enabled LRF mode.
///
/// # Errors
///
/// Returns [`AllocError::Config`] for [`LrfMode::None`]: the LRF pass must
/// not run at all when the LRF is disabled.
fn lrf_banks(mode: LrfMode) -> Result<usize, AllocError> {
    match mode {
        LrfMode::Unified => Ok(1),
        LrfMode::Split => Ok(3),
        LrfMode::None => Err(AllocError::Config(
            "LRF pass invoked with LrfMode::None".into(),
        )),
    }
}

/// Resets every placement annotation to the single-level MRF baseline.
fn reset_placements(kernel: &mut Kernel) {
    for b in kernel.blocks.iter_mut() {
        for i in b.instrs.iter_mut() {
            i.write_loc = WriteLoc::Mrf;
            for loc in i.read_locs.iter_mut() {
                *loc = ReadLoc::Mrf;
            }
        }
    }
}

/// A unit of allocation: either a merge group of produced values, or a
/// read-operand range.
#[derive(Debug, Clone)]
enum CandKind {
    /// Index into `StrandValues::groups`.
    WriteGroup(usize),
    /// Index into `StrandValues::read_operands`.
    ReadOp(usize),
}

#[derive(Debug, Clone)]
struct Cand {
    kind: CandKind,
    priority: f64,
    begin: usize,
    end: usize,
    width_slots: usize,
}

/// Unique reads of a merge group, deduplicated (merge reads attach to every
/// member) and sorted by position.
fn group_reads(sv: &StrandValues, group: &[usize]) -> Vec<ReadRef> {
    let mut reads: Vec<ReadRef> = Vec::new();
    let mut seen: HashSet<(rfh_isa::InstrRef, rfh_isa::Slot)> = HashSet::new();
    for &m in group {
        for r in &sv.instances[m].reads {
            if seen.insert((r.at, r.slot)) {
                reads.push(*r);
            }
        }
    }
    reads.sort_by_key(|r| (r.pos, r.slot));
    reads
}

fn priority_of_cfg(config: &AllocConfig, savings: f64, begin: usize, end: usize) -> f64 {
    if config.occupancy_priority {
        savings / (end.saturating_sub(begin)).max(1) as f64
    } else {
        savings
    }
}

/// Occupancy positions are in *half-slots*: instruction `p` reads its
/// operands at `2p` and writes its result at `2p + 1`. A value produced at
/// `p` therefore occupies `[2p+1, 2·last_read]`, and can share an entry
/// with a value whose last read is at `p` — exactly the reuse a hardware
/// cache gets for back-to-back producer/consumer chains. A read-operand
/// fill is written the same way: it deposits at the first read's write
/// phase (`def_pos` is that read) and must survive until the last covered
/// read.
fn write_interval(def_pos: usize, last_read_pos: usize) -> (usize, usize) {
    let begin = 2 * def_pos + 1;
    (begin, (2 * last_read_pos).max(begin))
}

/// Applies a write-group allocation: every member writes the entry, every
/// covered read comes from it.
fn apply_write_group(
    kernel: &mut Kernel,
    sv: &StrandValues,
    group: &[usize],
    reads: &[ReadRef],
    entry: u8,
    also_mrf: bool,
) {
    let root = sv.instances[group[0]].reg;
    for &m in group {
        let inst = &sv.instances[m];
        kernel.instr_mut(inst.def).write_loc = WriteLoc::Orf { entry, also_mrf };
    }
    for r in reads {
        let offset = (r.reg.index() - root.index()) as u8;
        let instr = kernel.instr_mut(r.at);
        debug_assert_eq!(instr.srcs[r.slot.index()].as_reg(), Some(r.reg));
        instr.read_locs[r.slot.index()] = ReadLoc::Orf(entry + offset);
    }
}

fn apply_lrf_group(
    kernel: &mut Kernel,
    sv: &StrandValues,
    group: &[usize],
    reads: &[ReadRef],
    bank: Option<rfh_isa::Slot>,
    also_mrf: bool,
) {
    for &m in group {
        let inst = &sv.instances[m];
        kernel.instr_mut(inst.def).write_loc = WriteLoc::Lrf { bank, also_mrf };
    }
    for r in reads {
        let instr = kernel.instr_mut(r.at);
        instr.read_locs[r.slot.index()] = ReadLoc::Lrf(bank);
    }
}

fn apply_read_operand(kernel: &mut Kernel, reads: &[ReadRef], entry: u8) {
    let first = &reads[0];
    kernel.instr_mut(first.at).read_locs[first.slot.index()] = ReadLoc::MrfFillOrf(entry);
    for r in &reads[1..] {
        // Other operands of the filling instruction read simultaneously and
        // cannot see the fill; they stay on the MRF.
        if r.pos > first.pos {
            kernel.instr_mut(r.at).read_locs[r.slot.index()] = ReadLoc::Orf(entry);
        }
    }
}

/// The reads of a read-operand range that the fill (its first read) can
/// actually serve: reads of later instructions whose block the fill's
/// block dominates. Within a strand all control flow is forward, so block
/// dominance of the fill implies the fill executes earlier on every path.
fn dominated_coverage(reads: &[ReadRef], dom: &DomTree) -> Vec<ReadRef> {
    let fill = reads[0];
    let mut covered = vec![fill];
    covered.extend(reads[1..].iter().filter(|r| {
        r.pos > fill.pos
            && (r.at.block == fill.at.block || dom.dominates(fill.at.block, r.at.block))
    }));
    covered
}

/// Allocates one strand: LRF pass (§4.6), then ORF pass (Figure 7) with the
/// partial-range and read-operand extensions.
fn allocate_strand(
    kernel: &mut Kernel,
    sv: &StrandValues,
    config: &AllocConfig,
    costs: &Costs,
    dom: &DomTree,
    stats: &mut AllocStats,
) -> Result<(), AllocError> {
    let mut lrf_allocated: HashSet<usize> = HashSet::new();

    // ---------------- LRF pass ----------------
    if config.lrf.enabled() {
        let banks = lrf_banks(config.lrf)?;
        let mut occ = Occupancy::new(banks);
        let mut cands: Vec<(usize, Vec<ReadRef>, usize, f64, f64)> = Vec::new();
        for (g, members) in sv.groups.iter().enumerate() {
            let eligible = members.iter().all(|&m| {
                let i = &sv.instances[m];
                !i.produced_on_shared && i.width == Width::W32
            });
            if !eligible {
                continue;
            }
            let reads = group_reads(sv, members);
            if reads.iter().any(|r| r.unit.is_shared()) {
                continue; // shared datapath cannot reach the LRF
            }
            let bank = match config.lrf {
                LrfMode::Split => {
                    let mut slots: Vec<_> = reads.iter().map(|r| r.slot).collect();
                    slots.dedup();
                    match slots.as_slice() {
                        [] => 0,
                        [s] => s.index(),
                        _ => continue, // multi-slot consumers go to the ORF
                    }
                }
                _ => 0,
            };
            let live_out = sv.instances[members[0]].live_out;
            let savings = costs.lrf_write_savings(&reads, members.len(), live_out);
            if savings <= 0.0 {
                continue;
            }
            let def = members
                .iter()
                .map(|&m| sv.instances[m].def_pos)
                .min()
                .expect("merge groups are nonempty");
            let last = reads.iter().map(|r| r.pos).max().unwrap_or(def);
            let (begin, end) = write_interval(def, last);
            cands.push((
                g,
                reads,
                bank,
                savings,
                priority_of_cfg(config, savings, begin, end),
            ));
        }
        cands.sort_by(|a, b| b.4.partial_cmp(&a.4).unwrap_or(std::cmp::Ordering::Equal));
        for (g, reads, bank, _savings, _prio) in cands {
            let members = &sv.groups[g];
            let def = members
                .iter()
                .map(|&m| sv.instances[m].def_pos)
                .min()
                .expect("merge groups are nonempty");
            let last = reads.iter().map(|r| r.pos).max().unwrap_or(def);
            let (begin, end) = write_interval(def, last);
            if occ.available(bank, begin, end) {
                occ.allocate(bank, begin, end);
                let live_out = sv.instances[members[0]].live_out;
                let bank_enc = match config.lrf {
                    LrfMode::Split => Some(rfh_isa::Slot::from_index(bank)),
                    _ => None,
                };
                apply_lrf_group(kernel, sv, members, &reads, bank_enc, live_out);
                stats.lrf_values += members.len();
                lrf_allocated.insert(g);
            }
        }
    }

    // ---------------- ORF pass ----------------
    if config.orf_entries == 0 {
        return Ok(());
    }
    let mut occ = Occupancy::new(config.orf_entries);
    let mut cands: Vec<Cand> = Vec::new();
    for (g, members) in sv.groups.iter().enumerate() {
        if lrf_allocated.contains(&g) {
            continue;
        }
        let widths: HashSet<Width> = members.iter().map(|&m| sv.instances[m].width).collect();
        let roots: HashSet<_> = members.iter().map(|&m| sv.instances[m].reg).collect();
        if widths.len() != 1 || roots.len() != 1 {
            // Mixed widths, or a merge of *overlapping* wide defs with
            // different root registers (e.g. r4.w64 and r5.w64 both
            // defining r5): members cannot share one entry base, so every
            // read falls back to the MRF.
            continue;
        }
        let width_slots = sv.instances[members[0]].width.regs() as usize;
        let reads = group_reads(sv, members);
        let savings = costs.orf_write_savings(
            &reads,
            members.iter().map(|&m| {
                let inst = &sv.instances[m];
                (inst.produced_on_shared, inst.width.regs() as usize)
            }),
            sv.instances[members[0]].live_out,
        );
        if savings <= 0.0 {
            continue;
        }
        let def = members
            .iter()
            .map(|&m| sv.instances[m].def_pos)
            .min()
            .expect("merge groups are nonempty");
        let last = reads.iter().map(|r| r.pos).max().unwrap_or(def);
        let (begin, end) = write_interval(def, last);
        cands.push(Cand {
            kind: CandKind::WriteGroup(g),
            priority: priority_of_cfg(config, savings, begin, end),
            begin,
            end,
            width_slots,
        });
    }
    let read_op_coverage: Vec<Vec<ReadRef>> = sv
        .read_operands
        .iter()
        .map(|ro| dominated_coverage(&ro.reads, dom))
        .collect();
    if config.read_operands {
        for (i, covered) in read_op_coverage.iter().enumerate() {
            let savings = costs.read_operand_savings(covered);
            if savings <= 0.0 {
                continue;
            }
            let (begin, end) = write_interval(
                covered[0].pos,
                covered.last().expect("coverage includes the fill").pos,
            );
            cands.push(Cand {
                kind: CandKind::ReadOp(i),
                priority: priority_of_cfg(config, savings, begin, end),
                begin,
                end,
                width_slots: 1,
            });
        }
    }
    cands.sort_by(|a, b| {
        b.priority
            .partial_cmp(&a.priority)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    for cand in cands {
        match cand.kind {
            CandKind::WriteGroup(g) => {
                let members = &sv.groups[g];
                let reads = group_reads(sv, members);
                if let Some(base) = occ.find_free(cand.begin, cand.end, cand.width_slots) {
                    occ.allocate_wide(base, cand.begin, cand.end, cand.width_slots);
                    let live_out = sv.instances[members[0]].live_out;
                    apply_write_group(kernel, sv, members, &reads, base as u8, live_out);
                    stats.orf_values += members.len();
                    continue;
                }
                // ---- partial range allocation (§4.3), singletons only ----
                if !config.partial_ranges || members.len() != 1 || reads.is_empty() {
                    continue;
                }
                let inst = &sv.instances[members[0]];
                let unit = if inst.produced_on_shared {
                    Unit::Mem
                } else {
                    Unit::Alu
                };
                for m in (1..reads.len()).rev() {
                    let kept = &reads[..m];
                    let gain: f64 = kept
                        .iter()
                        .map(|r| costs.mrf_read(r.unit) - costs.orf_read(r.unit))
                        .sum();
                    // A partial range always keeps the MRF copy for the
                    // dropped reads, so no MRF write is saved.
                    let savings = gain - costs.orf_write(unit) * cand.width_slots as f64;
                    if savings <= 0.0 {
                        break;
                    }
                    let end =
                        (2 * kept.last().expect("kept reads are nonempty").pos).max(cand.begin);
                    if let Some(base) = occ.find_free(cand.begin, end, cand.width_slots) {
                        occ.allocate_wide(base, cand.begin, end, cand.width_slots);
                        apply_write_group(kernel, sv, members, kept, base as u8, true);
                        stats.orf_partial += 1;
                        break;
                    }
                }
            }
            CandKind::ReadOp(i) => {
                let covered = &read_op_coverage[i];
                let mut m = covered.len();
                loop {
                    if m < 2 {
                        break;
                    }
                    let kept = &covered[..m];
                    let savings = costs.read_operand_savings(kept);
                    if savings <= 0.0 {
                        break;
                    }
                    let (b, e) = write_interval(
                        kept[0].pos,
                        kept.last().expect("kept reads are nonempty").pos,
                    );
                    if let Some(base) = occ.find_free(b, e, 1) {
                        occ.allocate(base, b, e);
                        apply_read_operand(kernel, kept, base as u8);
                        stats.read_operands += 1;
                        break;
                    }
                    if !config.partial_ranges {
                        break;
                    }
                    m -= 1;
                }
            }
        }
    }
    Ok(())
}

/// Runs the full allocation pipeline on a kernel:
///
/// 1. validates the input kernel ([`rfh_isa::validate`]),
/// 2. clears existing placements (idempotent),
/// 3. marks strands and annotates static liveness,
/// 4. allocates every strand (LRF pass, then ORF pass),
/// 5. proves the resulting placements consistent with
///    [`validate_placements`].
///
/// If step 5 ever fails — an allocator bug, not a caller error — the kernel
/// is *demoted*: all placements are reset to the single-level MRF baseline
/// (always architecturally correct) and [`AllocStats::demoted`] is set, so
/// callers keep a working pipeline and a signal to report.
///
/// # Errors
///
/// Returns [`AllocError::InvalidKernel`] when the input kernel fails
/// structural validation, and [`AllocError::Config`] when the configuration
/// is internally inconsistent. This function does not panic.
pub fn allocate(
    kernel: &mut Kernel,
    config: &AllocConfig,
    model: &EnergyModel,
) -> Result<AllocStats, AllocError> {
    allocate_with_hints(kernel, config, model, false)
}

/// [`allocate`] with optional compiler-assisted last-use hints (the
/// Abaie Shoushtary 2023 direction, ROADMAP item 3): when `use_hints` is
/// set, the abstract-interpretation last-use pass
/// ([`rfh_analysis::absint::last_use`]) runs first, and
///
/// * static `dead_after` flags are computed under the refined
///   (covered-read-excluding) liveness, releasing ORF/LRF entries at the
///   provable last read instead of region end;
/// * covered reads attach to their covering in-strand guarded definition,
///   so values whose reads are all covered skip the MRF copy entirely.
///
/// With `use_hints == false` this is byte-for-byte the plain [`allocate`]
/// pipeline.
///
/// # Errors
///
/// Exactly as [`allocate`]: [`AllocError::InvalidKernel`] for structurally
/// invalid input, [`AllocError::Config`] for inconsistent configuration.
pub fn allocate_with_hints(
    kernel: &mut Kernel,
    config: &AllocConfig,
    model: &EnergyModel,
    use_hints: bool,
) -> Result<AllocStats, AllocError> {
    rfh_isa::validate(kernel)?;
    // Reset all placements to the single-level baseline.
    reset_placements(kernel);

    let info = mark_strands_opts(
        kernel,
        StrandOpts {
            split_on_deschedule: !config.ideal_no_deschedule_split,
        },
    );
    // The hint pass requires `ends_strand` bits, so it runs after strand
    // marking.
    let hints = use_hints.then(|| last_use::analyze(kernel));
    let liveness = match &hints {
        Some(h) => h.liveness.clone(),
        None => Liveness::compute(kernel),
    };
    match &hints {
        Some(h) => h.apply_dead_flags(kernel),
        None => annotate_dead(kernel, &liveness),
    }

    let mut stats = AllocStats {
        strands: info.strands.len(),
        ..Default::default()
    };
    if config.is_baseline() {
        return Ok(stats);
    }

    let costs = Costs::from_model(model, config.orf_entries);
    let dom = DomTree::dominators(kernel);
    let values = all_strand_values_opts(kernel, &info, &liveness, hints.as_ref());
    for sv in &values {
        allocate_strand(kernel, sv, config, &costs, &dom, &mut stats)?;
    }

    if validate_placements(kernel, config).is_err() {
        stats = demote_to_mrf(kernel, stats);
    }
    Ok(stats)
}

/// The allocation of one strand, detached from any particular kernel:
/// placement annotations per strand-relative instruction plus that
/// strand's contribution to [`AllocStats`]. Cached under the strand's
/// [fingerprint](strand_fingerprint) by [`allocate_incremental`] and
/// spliced back instead of re-running analysis + allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrandAllocation {
    /// `(write_loc, read_locs)` per instruction, in strand layout order.
    pub placements: Vec<(WriteLoc, Vec<ReadLoc>)>,
    /// Value instances this strand placed in the LRF.
    pub lrf_values: usize,
    /// Value instances this strand placed fully in the ORF.
    pub orf_values: usize,
    /// Partial ranges this strand allocated (§4.3).
    pub orf_partial: usize,
    /// Read-operand ranges this strand allocated (§4.4).
    pub read_operands: usize,
}

/// Incremental-allocation counters: how much work the cache saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Strands in the kernel.
    pub strands: usize,
    /// Strands spliced from cache (analysis + allocation skipped).
    pub hits: usize,
    /// Strands analyzed and allocated from scratch.
    pub misses: usize,
}

/// The cache key for one strand's allocation: the strand-relative
/// canonical text ([`rfh_analysis::strand::strand_canonical`]) salted with
/// everything else that determines placement — the allocation
/// configuration and the energy model's cost surface.
pub fn strand_fingerprint(canonical: &str, config: &AllocConfig, model: &EnergyModel) -> String {
    format!("{canonical}\0cfg={config:?}\0model={model:?}")
}

/// Incremental [`allocate`]: identical output, but each strand's
/// allocation is looked up in an external cache by content fingerprint
/// before being recomputed.
///
/// For every strand the fingerprint ([`strand_fingerprint`] over
/// [`strand_canonical`]) is offered to `lookup`; a hit splices the cached
/// placements onto the strand's instructions, a miss runs the monolithic
/// per-strand pipeline (def-use analysis + LRF/ORF allocation) and offers
/// the result to `publish`. Because [`strand_canonical`] captures every
/// input the per-strand allocator reads — and the per-strand allocator
/// only ever writes its own strand's placement annotations — the
/// recombined kernel and [`AllocStats`] are **byte-identical** to a
/// monolithic [`allocate`] run, whatever mixture of hits and misses
/// occurs. A cached entry whose shape does not match the strand (placement
/// count or per-instruction operand count) is ignored and recomputed, so a
/// corrupted cache degrades to a slower run, never a wrong one.
///
/// # Errors
///
/// Exactly as [`allocate`]: [`AllocError::InvalidKernel`] for structurally
/// invalid input, [`AllocError::Config`] for inconsistent configuration.
pub fn allocate_incremental(
    kernel: &mut Kernel,
    config: &AllocConfig,
    model: &EnergyModel,
    lookup: &mut dyn FnMut(&str) -> Option<StrandAllocation>,
    publish: &mut dyn FnMut(&str, &StrandAllocation),
) -> Result<(AllocStats, IncrementalStats), AllocError> {
    rfh_isa::validate(kernel)?;
    reset_placements(kernel);

    let info = mark_strands_opts(
        kernel,
        StrandOpts {
            split_on_deschedule: !config.ideal_no_deschedule_split,
        },
    );
    let liveness = Liveness::compute(kernel);
    annotate_dead(kernel, &liveness);

    let mut stats = AllocStats {
        strands: info.strands.len(),
        ..Default::default()
    };
    let mut inc = IncrementalStats {
        strands: info.strands.len(),
        ..Default::default()
    };
    if config.is_baseline() {
        return Ok((stats, inc));
    }

    let costs = Costs::from_model(model, config.orf_entries);
    let dom = DomTree::dominators(kernel);
    for sid in info.strands.iter().map(|s| s.id) {
        let canonical = strand_canonical(kernel, &info, &liveness, &dom, sid);
        let fp = strand_fingerprint(&canonical, config, model);
        let instrs = &info.strand(sid).instrs;
        if let Some(cached) = lookup(&fp).filter(|c| splice_fits(kernel, instrs, c)) {
            for (at, (write_loc, read_locs)) in instrs.iter().zip(&cached.placements) {
                let instr = kernel.instr_mut(*at);
                instr.write_loc = *write_loc;
                instr.read_locs.clone_from(read_locs);
            }
            stats.lrf_values += cached.lrf_values;
            stats.orf_values += cached.orf_values;
            stats.orf_partial += cached.orf_partial;
            stats.read_operands += cached.read_operands;
            inc.hits += 1;
            continue;
        }
        let sv = strand_values(kernel, &info, &liveness, sid);
        let mut local = AllocStats::default();
        allocate_strand(kernel, &sv, config, &costs, &dom, &mut local)?;
        stats.lrf_values += local.lrf_values;
        stats.orf_values += local.orf_values;
        stats.orf_partial += local.orf_partial;
        stats.read_operands += local.read_operands;
        inc.misses += 1;
        publish(
            &fp,
            &StrandAllocation {
                placements: instrs
                    .iter()
                    .map(|at| {
                        let i = kernel.instr(*at);
                        (i.write_loc, i.read_locs.clone())
                    })
                    .collect(),
                lrf_values: local.lrf_values,
                orf_values: local.orf_values,
                orf_partial: local.orf_partial,
                read_operands: local.read_operands,
            },
        );
    }

    if validate_placements(kernel, config).is_err() {
        stats = demote_to_mrf(kernel, stats);
    }
    Ok((stats, inc))
}

/// Whether a cached strand allocation structurally fits the strand it is
/// about to be spliced onto (defense against a corrupted or colliding
/// cache entry — a mismatch falls back to recomputation).
fn splice_fits(kernel: &Kernel, instrs: &[rfh_isa::InstrRef], cached: &StrandAllocation) -> bool {
    cached.placements.len() == instrs.len()
        && instrs
            .iter()
            .zip(&cached.placements)
            .all(|(at, (_, read_locs))| kernel.instr(*at).read_locs.len() == read_locs.len())
}

/// Graceful degradation: discards all hierarchy placements, leaving the
/// kernel on the always-correct MRF-only baseline, and records the demotion
/// in the returned stats.
fn demote_to_mrf(kernel: &mut Kernel, stats: AllocStats) -> AllocStats {
    reset_placements(kernel);
    AllocStats {
        strands: stats.strands,
        lrf_values: 0,
        orf_values: 0,
        orf_partial: 0,
        read_operands: 0,
        demoted: stats.demoted + 1,
    }
}

/// Convenience: the registers an instruction reads from each hierarchy
/// level, for tests and reporting.
pub fn read_level_counts(kernel: &Kernel) -> (usize, usize, usize) {
    let (mut lrf, mut orf, mut mrf) = (0, 0, 0);
    for (_, i) in kernel.iter_instrs() {
        for (idx, s) in i.srcs.iter().enumerate() {
            if !s.is_reg() {
                continue;
            }
            match i.read_locs[idx] {
                ReadLoc::Lrf(_) => lrf += 1,
                ReadLoc::Orf(_) => orf += 1,
                ReadLoc::Mrf | ReadLoc::MrfFillOrf(_) => mrf += 1,
            }
        }
    }
    (lrf, orf, mrf)
}

/// Convenience: counts of value-producing writes by destination kind, for
/// tests — `(lrf, orf, mrf_only, dual)` where `dual` counts upper-level
/// writes that also write the MRF.
pub fn write_level_counts(kernel: &Kernel) -> (usize, usize, usize, usize) {
    let (mut lrf, mut orf, mut mrf_only, mut dual) = (0, 0, 0, 0);
    for (_, i) in kernel.iter_instrs() {
        if i.dst.is_none() {
            continue;
        }
        match i.write_loc {
            WriteLoc::Mrf => mrf_only += 1,
            WriteLoc::Orf { also_mrf, .. } => {
                orf += 1;
                if also_mrf {
                    dual += 1;
                }
            }
            WriteLoc::Lrf { also_mrf, .. } => {
                lrf += 1;
                if also_mrf {
                    dual += 1;
                }
            }
        }
    }
    (lrf, orf, mrf_only, dual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocConfig;
    use rfh_isa::{parse_kernel, BlockId, InstrRef, ReadLoc, WriteLoc};

    fn at(b: u32, i: usize) -> InstrRef {
        InstrRef {
            block: BlockId::new(b),
            index: i,
        }
    }

    fn alloc(text: &str, config: AllocConfig) -> (Kernel, AllocStats) {
        let mut k = parse_kernel(text).unwrap();
        let stats = allocate(&mut k, &config, &EnergyModel::paper()).expect("valid kernel");
        (k, stats)
    }

    #[test]
    fn lrf_banks_rejects_disabled_mode() {
        assert_eq!(lrf_banks(LrfMode::Unified).unwrap(), 1);
        assert_eq!(lrf_banks(LrfMode::Split).unwrap(), 3);
        let e = lrf_banks(LrfMode::None).unwrap_err();
        assert!(matches!(e, AllocError::Config(_)), "{e}");
        assert!(e.to_string().contains("LrfMode::None"), "{e}");
    }

    #[test]
    fn invalid_kernel_is_an_error_not_a_panic() {
        // Mid-block control transfer: structurally invalid.
        let mut k = parse_kernel(".kernel k\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        k.blocks[0].instrs.swap(0, 1);
        let e = allocate(&mut k, &AllocConfig::two_level(3), &EnergyModel::paper()).unwrap_err();
        assert!(matches!(e, AllocError::InvalidKernel(_)), "{e}");
    }

    #[test]
    fn demotion_resets_placements_and_counts() {
        let text = ".kernel d\nBB0:\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n";
        let mut k = parse_kernel(text).unwrap();
        let stats = allocate(&mut k, &AllocConfig::two_level(3), &EnergyModel::paper()).unwrap();
        assert!(stats.orf_values > 0, "precondition: something allocated");
        let demoted = demote_to_mrf(&mut k, stats);
        assert_eq!(demoted.demoted, 1);
        assert_eq!(demoted.strands, stats.strands);
        assert_eq!(
            (demoted.lrf_values, demoted.orf_values, demoted.orf_partial),
            (0, 0, 0)
        );
        let (lrf, orf, _) = read_level_counts(&k);
        assert_eq!((lrf, orf), (0, 0), "all reads back on the MRF");
        // The demoted kernel is trivially valid under any config.
        validate_placements(&k, &AllocConfig::two_level(3)).unwrap();
    }

    #[test]
    fn baseline_config_changes_nothing() {
        let text = ".kernel b\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r1, 1\n  exit\n";
        let (k, stats) = alloc(text, AllocConfig::baseline());
        assert_eq!(stats.orf_values + stats.lrf_values, 0);
        let (lrf, orf, mrf) = read_level_counts(&k);
        assert_eq!((lrf, orf), (0, 0));
        assert_eq!(mrf, 2);
    }

    #[test]
    fn dying_chain_goes_to_orf() {
        let text = "
.kernel chain
BB0:
  iadd r1 r0, 1
  iadd r2 r1, 1
  st.global r0, r2
  exit
";
        let (k, stats) = alloc(text, AllocConfig::two_level(3));
        assert_eq!(stats.orf_values, 2, "r1 and r2 both die in the strand");
        // Neither write touches the MRF.
        assert!(matches!(
            k.instr(at(0, 0)).write_loc,
            WriteLoc::Orf {
                also_mrf: false,
                ..
            }
        ));
        assert!(matches!(
            k.instr(at(0, 1)).write_loc,
            WriteLoc::Orf {
                also_mrf: false,
                ..
            }
        ));
        assert!(matches!(k.instr(at(0, 1)).read_locs[0], ReadLoc::Orf(_)));
        assert!(matches!(k.instr(at(0, 2)).read_locs[1], ReadLoc::Orf(_)));
    }

    #[test]
    fn live_out_value_written_to_both() {
        let text = "
.kernel lo
BB0:
  iadd r1 r0, 1
  iadd r2 r1, 1
  ld.global r3 r0
  iadd r4 r3, r1
  st.global r0, r4
  exit
";
        // r1 is read in strand 1 (by the iadd) and again in strand 2.
        let (k, _) = alloc(text, AllocConfig::two_level(3));
        match k.instr(at(0, 0)).write_loc {
            WriteLoc::Orf { also_mrf, .. } => assert!(also_mrf, "live-out needs the MRF copy"),
            other => panic!("expected ORF write, got {other}"),
        }
        // The cross-strand read comes from the MRF.
        assert_eq!(k.instr(at(0, 3)).read_locs[1], ReadLoc::Mrf);
    }

    #[test]
    fn lrf_captures_next_instruction_consumer() {
        let text = "
.kernel l
BB0:
  fmul r1 r0, r0
  fadd r2 r1, r0
  st.global r0, r2
  exit
";
        let (k, stats) = alloc(text, AllocConfig::three_level(3, false));
        assert!(stats.lrf_values >= 1);
        assert!(matches!(k.instr(at(0, 0)).write_loc, WriteLoc::Lrf { .. }));
        assert_eq!(k.instr(at(0, 1)).read_locs[0], ReadLoc::Lrf(None));
    }

    #[test]
    fn shared_consumer_blocks_lrf_but_not_orf() {
        let text = "
.kernel sh
BB0:
  iadd r1 r0, 4
  ld.shared r2 r1
  st.global r0, r2
  exit
";
        // r1 is consumed by the memory unit: ORF-eligible, not LRF.
        let (k, _) = alloc(text, AllocConfig::three_level(3, false));
        assert!(matches!(k.instr(at(0, 0)).write_loc, WriteLoc::Orf { .. }));
        // r2 is produced by the shared datapath (load): not LRF either.
        assert!(!matches!(k.instr(at(0, 1)).write_loc, WriteLoc::Lrf { .. }));
    }

    #[test]
    fn figure_8b_read_operand_allocation() {
        // R0 read by eight instructions but never written in the strand.
        let mut text = String::from(".kernel f8b\nBB0:\n");
        for i in 1..=8 {
            text.push_str(&format!("  iadd r{i} r0, {i}\n"));
        }
        for i in 1..=8 {
            text.push_str(&format!("  st.global r9, r{i}\n"));
        }
        text.push_str("  exit\n");
        let (k, stats) = alloc(&text, AllocConfig::two_level(3));
        assert!(
            stats.read_operands >= 1,
            "r0 should be read-operand allocated"
        );
        assert!(matches!(
            k.instr(at(0, 0)).read_locs[0],
            ReadLoc::MrfFillOrf(_)
        ));
        for i in 1..8 {
            assert!(
                matches!(k.instr(at(0, i)).read_locs[0], ReadLoc::Orf(_)),
                "read {i} of r0 should hit the ORF"
            );
        }
        // Disabled, the same kernel allocates no read operands.
        let (_, plain) = alloc(&text, AllocConfig::two_level_plain(3));
        assert_eq!(plain.read_operands, 0);
    }

    #[test]
    fn figure_10c_hammock_coallocates() {
        let text = "
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
  iadd r2 r1, 3
  st.global r0, r2
  exit
";
        let (k, _) = alloc(text, AllocConfig::two_level(3));
        let w1 = k.instr(at(1, 0)).write_loc;
        let w2 = k.instr(at(2, 0)).write_loc;
        match (w1, w2) {
            (
                WriteLoc::Orf {
                    entry: e1,
                    also_mrf: false,
                },
                WriteLoc::Orf {
                    entry: e2,
                    also_mrf: false,
                },
            ) => {
                assert_eq!(e1, e2, "hammock sides must share the entry");
                assert_eq!(k.instr(at(3, 0)).read_locs[0], ReadLoc::Orf(e1));
            }
            other => panic!("expected co-allocated ORF writes, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_pressure_spills_to_mrf() {
        // Four simultaneously-live values in a 1-entry ORF: only one wins.
        let text = "
.kernel p
BB0:
  iadd r1 r0, 1
  iadd r2 r0, 2
  iadd r3 r0, 3
  iadd r4 r0, 4
  st.global r1, r2
  st.global r3, r4
  exit
";
        let (_, stats1) = alloc(text, AllocConfig::two_level_plain(1));
        let (_, stats3) = alloc(text, AllocConfig::two_level_plain(3));
        assert!(stats1.orf_values < stats3.orf_values);
        assert!(stats1.orf_values >= 1);
    }

    #[test]
    fn split_lrf_separates_slots() {
        // Two values read in different slots of their consumers can share
        // the split LRF (different banks) but collide in a unified LRF.
        let text = "
.kernel s
BB0:
  fmul r1 r0, r0
  fadd r2 r0, r0
  fadd r3 r1, r2
  st.global r0, r3
  exit
";
        let (_, unified) = alloc(text, AllocConfig::three_level(3, false));
        let (_, split) = alloc(text, AllocConfig::three_level(3, true));
        assert!(split.lrf_values >= unified.lrf_values);
        assert!(
            split.lrf_values >= 2,
            "r1 (slot A) and r2 (slot B) fit separate banks"
        );
    }

    #[test]
    fn wide_value_takes_two_entries() {
        let text = "
.kernel w
BB0:
  ld.shared r4.w64 r0
  iadd r6 r4, 1
  iadd r7 r5, 1
  st.global r6, r7
  exit
";
        let (k, _) = alloc(text, AllocConfig::two_level(2));
        if let WriteLoc::Orf { entry, .. } = k.instr(at(0, 0)).write_loc {
            assert_eq!(k.instr(at(0, 1)).read_locs[0], ReadLoc::Orf(entry));
            assert_eq!(k.instr(at(0, 2)).read_locs[0], ReadLoc::Orf(entry + 1));
        } else {
            panic!("wide value should be ORF-allocated with 2 entries");
        }
        // A 1-entry ORF cannot hold the wide value (narrow ones still can).
        let (k1, _) = alloc(text, AllocConfig::two_level_plain(1));
        assert_eq!(k1.instr(at(0, 0)).write_loc, WriteLoc::Mrf);
    }

    #[test]
    fn allocation_is_idempotent() {
        let text = "
.kernel i
BB0:
  iadd r1 r0, 1
  iadd r2 r1, 1
  st.global r0, r2
  exit
";
        let mut k = parse_kernel(text).unwrap();
        let cfg = AllocConfig::three_level(3, true);
        let model = EnergyModel::paper();
        allocate(&mut k, &cfg, &model).unwrap();
        let once = k.clone();
        allocate(&mut k, &cfg, &model).unwrap();
        assert_eq!(k, once);
    }

    #[test]
    fn same_instruction_multi_slot_read_operand_is_safe() {
        // ffma reads r1 in all three slots: a fill can only help later
        // instructions; all same-pos reads stay on the MRF.
        let text = "
.kernel m
BB0:
  ffma r2 r1, r1, r1
  fadd r3 r1, r2
  st.global r3, r2
  exit
";
        let (k, _) = alloc(text, AllocConfig::two_level(3));
        let ffma = k.instr(at(0, 0));
        let fills = ffma
            .read_locs
            .iter()
            .filter(|l| l.orf_fill().is_some())
            .count();
        assert!(fills <= 1);
        for l in &ffma.read_locs {
            assert!(
                !matches!(l, ReadLoc::Orf(_)),
                "same-pos reads cannot see the fill"
            );
        }
    }

    #[test]
    fn dead_value_avoids_mrf_write() {
        // r1 is never read anywhere: cheapest is an ORF-only write.
        let text = ".kernel d\nBB0:\n  iadd r1 r0, 1\n  st.global r0, r0\n  exit\n";
        let (k, _) = alloc(text, AllocConfig::two_level(3));
        assert!(
            matches!(
                k.instr(at(0, 0)).write_loc,
                WriteLoc::Orf {
                    also_mrf: false,
                    ..
                }
            ),
            "dead value should die in the ORF"
        );
    }
}

#[cfg(test)]
mod hints_tests {
    use super::*;
    use crate::config::AllocConfig;
    use rfh_isa::parse_kernel;

    /// A guarded reduction tail: every value in the `@p0` chain is defined
    /// and consumed under the same guard, so the last-use pass covers the
    /// reads and the allocator can skip the MRF copies entirely.
    const GUARDED_CHAIN: &str = "
.kernel gc
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 8
  @p0 ld.shared r6 r0
  @p0 fadd r8 r6, r6
  @p0 fmul r9 r8, r8
  @p0 st.shared r0, r9
  exit
";

    #[test]
    fn hints_off_is_byte_identical_to_allocate() {
        for config in [
            AllocConfig::baseline(),
            AllocConfig::two_level(3),
            AllocConfig::three_level(3, true),
        ] {
            let mut plain = parse_kernel(GUARDED_CHAIN).unwrap();
            let plain_stats = allocate(&mut plain, &config, &EnergyModel::paper()).unwrap();
            let mut off = parse_kernel(GUARDED_CHAIN).unwrap();
            let off_stats =
                allocate_with_hints(&mut off, &config, &EnergyModel::paper(), false).unwrap();
            assert_eq!(off, plain, "{config:?}");
            assert_eq!(off_stats, plain_stats, "{config:?}");
        }
    }

    #[test]
    fn hints_elide_mrf_writes_on_guarded_chain() {
        let config = AllocConfig::two_level(3);
        let model = EnergyModel::paper();
        let mut plain = parse_kernel(GUARDED_CHAIN).unwrap();
        allocate(&mut plain, &config, &model).unwrap();
        let mut hinted = parse_kernel(GUARDED_CHAIN).unwrap();
        let stats = allocate_with_hints(&mut hinted, &config, &model, true).unwrap();
        assert_eq!(stats.demoted, 0, "hinted placements must validate");

        let mrf_writes = |k: &Kernel| {
            let (_, _, mrf_only, dual) = write_level_counts(k);
            mrf_only + dual
        };
        assert!(
            mrf_writes(&hinted) < mrf_writes(&plain),
            "hints should elide MRF copies: hinted {} vs plain {}",
            mrf_writes(&hinted),
            mrf_writes(&plain)
        );
        // The hinted kernel still validates under the strand walk.
        validate_placements(&hinted, &config).unwrap();
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::config::AllocConfig;
    use rfh_isa::parse_kernel;
    use std::collections::HashMap;

    const KERNEL: &str = "
.kernel inc
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r2 r1, 1
  iadd r3 r2, r0
  st.global r0, r3
  ld.global r4 r0
  iadd r5 r4, 2
  st.global r0, r5
  exit
";

    fn run_incremental(
        text: &str,
        config: &AllocConfig,
        cache: &mut HashMap<String, StrandAllocation>,
    ) -> (Kernel, AllocStats, IncrementalStats) {
        let mut k = parse_kernel(text).unwrap();
        let model = EnergyModel::paper();
        let (stats, inc) = {
            let cache_ref = std::cell::RefCell::new(cache);
            allocate_incremental(
                &mut k,
                config,
                &model,
                &mut |fp| cache_ref.borrow().get(fp).cloned(),
                &mut |fp, sa| {
                    cache_ref.borrow_mut().insert(fp.to_string(), sa.clone());
                },
            )
            .expect("valid kernel")
        };
        (k, stats, inc)
    }

    #[test]
    fn cold_incremental_matches_monolithic() {
        for config in [
            AllocConfig::baseline(),
            AllocConfig::two_level_plain(3),
            AllocConfig::two_level(3),
            AllocConfig::three_level(3, true),
        ] {
            let mut mono = parse_kernel(KERNEL).unwrap();
            let mono_stats = allocate(&mut mono, &config, &EnergyModel::paper()).unwrap();
            let mut cache = HashMap::new();
            let (k, stats, inc) = run_incremental(KERNEL, &config, &mut cache);
            assert_eq!(k, mono, "{config:?}");
            assert_eq!(stats, mono_stats, "{config:?}");
            assert_eq!(inc.hits, 0, "cold cache cannot hit");
        }
    }

    #[test]
    fn warm_incremental_splices_every_strand() {
        let config = AllocConfig::three_level(3, true);
        let mut mono = parse_kernel(KERNEL).unwrap();
        let mono_stats = allocate(&mut mono, &config, &EnergyModel::paper()).unwrap();

        let mut cache = HashMap::new();
        let (_, _, cold) = run_incremental(KERNEL, &config, &mut cache);
        assert_eq!(cold.misses, cold.strands);
        let (k, stats, warm) = run_incremental(KERNEL, &config, &mut cache);
        assert_eq!(warm.hits, warm.strands, "warm run must be all hits");
        assert_eq!(warm.misses, 0);
        assert_eq!(k, mono, "spliced kernel is byte-identical");
        assert_eq!(stats, mono_stats);
    }

    #[test]
    fn single_strand_edit_recomputes_only_that_strand() {
        let config = AllocConfig::three_level(3, true);
        let mut cache = HashMap::new();
        let (_, _, cold) = run_incremental(KERNEL, &config, &mut cache);
        assert!(cold.strands >= 3, "kernel should have several strands");

        // Mutate an immediate inside the middle strand only.
        let edited = KERNEL.replace("iadd r2 r1, 1", "iadd r2 r1, 7");
        assert_ne!(edited, KERNEL);
        let (k, stats, inc) = run_incremental(&edited, &config, &mut cache);
        assert_eq!(inc.misses, 1, "only the edited strand recomputes");
        assert_eq!(inc.hits, inc.strands - 1);

        let mut mono = parse_kernel(&edited).unwrap();
        let mono_stats = allocate(&mut mono, &config, &EnergyModel::paper()).unwrap();
        assert_eq!(k, mono);
        assert_eq!(stats, mono_stats);
    }

    #[test]
    fn misshapen_cache_entry_is_recomputed_not_spliced() {
        let config = AllocConfig::two_level(3);
        let mut cache = HashMap::new();
        let (_, _, _) = run_incremental(KERNEL, &config, &mut cache);
        // Corrupt every entry's shape.
        for sa in cache.values_mut() {
            sa.placements.pop();
        }
        let (k, stats, inc) = run_incremental(KERNEL, &config, &mut cache);
        assert_eq!(inc.hits, 0, "misshapen entries must not splice");
        let mut mono = parse_kernel(KERNEL).unwrap();
        let mono_stats = allocate(&mut mono, &config, &EnergyModel::paper()).unwrap();
        assert_eq!(k, mono);
        assert_eq!(stats, mono_stats);
    }

    #[test]
    fn fingerprint_separates_config_and_model() {
        let canon = "strand-canon-v1\n";
        let a = strand_fingerprint(canon, &AllocConfig::two_level(3), &EnergyModel::paper());
        let b = strand_fingerprint(canon, &AllocConfig::two_level(4), &EnergyModel::paper());
        assert_ne!(a, b);
        let mut model = EnergyModel::paper();
        model.mrf_read_pj *= 2.0;
        let c = strand_fingerprint(canon, &AllocConfig::two_level(3), &model);
        assert_ne!(a, c);
    }
}

#[cfg(test)]
mod partial_range_tests {
    use super::*;
    use crate::config::AllocConfig;
    use rfh_isa::{parse_kernel, BlockId, InstrRef, ReadLoc, WriteLoc};

    /// Figure 8a: a value produced, read several times early, then read
    /// once much later. Under occupancy pressure the full range does not
    /// fit, but a partial range serves the early reads from the ORF while
    /// the late read falls back to the MRF copy.
    #[test]
    fn figure_8a_partial_range_allocation() {
        let mut text = String::from(
            ".kernel f8a\nBB0:\n  mov r1, %tid.x\n  iadd r2 r1, 1\n  iadd r3 r1, 2\n  mov r4, 7\n",
        );
        // Independent chains keeping the single ORF entry contended over
        // the long tail (they never read r1 and start after its early
        // reads).
        for i in 0..10 {
            text.push_str(&format!(
                "  iadd r4 r4, {i}\n  iadd r5 r4, 3\n  st.global r5, r4\n"
            ));
        }
        text.push_str("  iadd r6 r1, 3\n  st.global r2, r3\n  st.global r6, r6\n  exit\n");
        let mut k = parse_kernel(&text).unwrap();
        let cfg = AllocConfig {
            read_operands: false,
            ..AllocConfig::two_level_plain(1)
        };
        let cfg = AllocConfig {
            partial_ranges: true,
            ..cfg
        };
        let stats = allocate(&mut k, &cfg, &EnergyModel::paper()).unwrap();
        assert!(
            stats.orf_partial >= 1,
            "expected a partial allocation, got {stats:?}"
        );

        // Find r1's definition: it must write both levels, its early reads
        // hit the ORF, and its final read comes from the MRF.
        let def = InstrRef {
            block: BlockId::new(0),
            index: 0,
        };
        match k.instr(def).write_loc {
            WriteLoc::Orf { also_mrf, .. } => {
                assert!(also_mrf, "partial ranges always keep the MRF copy")
            }
            other => panic!("r1 should be partially ORF-allocated, got {other}"),
        }
        let early = k.instr(InstrRef {
            block: BlockId::new(0),
            index: 1,
        });
        assert!(
            matches!(early.read_locs[0], ReadLoc::Orf(_)),
            "early read served by ORF"
        );
        // The late read (iadd r6 r1, 3) is past the shortened range.
        let late_idx = k.blocks[0]
            .instrs
            .iter()
            .position(|i| i.dst.map(|d| d.reg.index()) == Some(6))
            .unwrap();
        let late = &k.blocks[0].instrs[late_idx];
        assert_eq!(
            late.read_locs[0],
            ReadLoc::Mrf,
            "late read falls back to the MRF"
        );
    }
}
