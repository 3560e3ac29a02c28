//! One positive and one negative test per diagnostic code: every
//! RFH-L0xx check fires on a minimal kernel built to trip it, and stays
//! quiet on the closest clean variant. The kernels are hand-built with
//! [`KernelBuilder`] so each test documents exactly what the code means.

use rfh_isa::{ops, CmpOp, Kernel, KernelBuilder, Operand, PredReg, ReadLoc, Reg, Slot, WriteLoc};
use rfh_lint::{lint_kernel, Code, Diagnostic, LintOptions, Severity};

/// Lints a kernel under the default (paper best: 3-entry ORF, split LRF)
/// configuration, insisting it passes the structural validator first —
/// the same precondition `lint_kernel` documents.
fn lint(kernel: &Kernel) -> Vec<Diagnostic> {
    rfh_isa::validate(kernel).expect("test kernel must be structurally valid");
    lint_kernel(kernel, &LintOptions::default())
}

fn codes(diags: &[Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

fn tid() -> Operand {
    Operand::Special(rfh_isa::Special::TidX)
}

// ---------------------------------------------------------------- RFH-L001

#[test]
fn l001_flags_a_read_of_an_undefined_register() {
    let mut b = KernelBuilder::new("l001-pos");
    b.push(ops::iadd(Reg::new(1), Reg::new(2).into(), Operand::Imm(1)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::UseBeforeDef),
        "r2 is never defined: {diags:?}"
    );
    assert_eq!(Code::UseBeforeDef.severity(), Severity::Error);
}

#[test]
fn l001_accepts_a_guarded_use_covered_by_a_same_guard_def() {
    // The def of r1 is guarded by @p0; every use is guarded by the same
    // predicate, and p0 is not redefined in between. A path-insensitive
    // check would flag this — the predication-aware lattice must not.
    let mut b = KernelBuilder::new("l001-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    b.push(ops::mov(Reg::new(1), Operand::Imm(7)).guarded(PredReg::new(0), false));
    b.push(
        ops::iadd(Reg::new(2), Reg::new(1).into(), Operand::Imm(1)).guarded(PredReg::new(0), false),
    );
    b.push(ops::st_global(Operand::Imm(0), Reg::new(2).into()).guarded(PredReg::new(0), false));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::UseBeforeDef),
        "guarded def covers guarded uses: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L002

#[test]
fn l002_flags_an_unreachable_block() {
    let mut b = KernelBuilder::new("l002-pos");
    b.push(ops::exit());
    let dead = b.add_block();
    b.switch_to(dead);
    b.push(ops::exit());
    let diags = lint(&b.finish());
    let hit = diags
        .iter()
        .find(|d| d.code == Code::UnreachableBlock)
        .expect("BB1 is unreachable from entry");
    assert_eq!(hit.block, dead, "the diagnostic names the dead block");
    assert_eq!(Code::UnreachableBlock.severity(), Severity::Warning);
}

#[test]
fn l002_accepts_a_fully_reachable_cfg() {
    let mut b = KernelBuilder::new("l002-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    let cur = b.current();
    let then_side = b.add_block();
    let merge = b.add_block();
    b.switch_to(cur);
    b.push(ops::bra_if(PredReg::new(0), true, merge));
    b.switch_to(then_side);
    b.push(ops::mov(Reg::new(1), Operand::Imm(1)));
    b.switch_to(merge);
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::UnreachableBlock),
        "both branch arms are reachable: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L003

#[test]
fn l003_flags_a_definition_that_is_never_read() {
    let mut b = KernelBuilder::new("l003-pos");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::DeadDef),
        "r1 is defined and never read: {diags:?}"
    );
    assert_eq!(Code::DeadDef.severity(), Severity::Warning);
}

#[test]
fn l003_accepts_a_definition_observed_by_a_store() {
    let mut b = KernelBuilder::new("l003-neg");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::DeadDef),
        "the store reads r1: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L004

#[test]
fn l004_flags_a_barrier_guarded_by_a_thread_dependent_predicate() {
    let mut b = KernelBuilder::new("l004-pos");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    b.push(ops::bar().guarded(PredReg::new(0), false));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::BarrierDivergence),
        "threads with tid >= 5 skip the barrier: {diags:?}"
    );
    assert_eq!(Code::BarrierDivergence.severity(), Severity::Error);
}

#[test]
fn l004_accepts_a_barrier_guarded_by_a_uniform_predicate() {
    // The guard is computed from an immediate, so every thread in the
    // block agrees on it: all threads arrive or none do.
    let mut b = KernelBuilder::new("l004-neg");
    b.push(ops::mov(Reg::new(0), Operand::Imm(7)));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    b.push(ops::bar().guarded(PredReg::new(0), false));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::BarrierDivergence),
        "a uniform guard cannot diverge: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L005

#[test]
fn l005_flags_a_store_and_load_with_no_intervening_barrier() {
    // Thread t stores to address t while every thread loads address 0:
    // thread 1's load races thread 0's store.
    let mut b = KernelBuilder::new("l005-pos");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::st_shared(Reg::new(0).into(), Operand::Imm(1)));
    b.push(ops::ld_shared(Reg::new(1), Operand::Imm(0)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::SharedRace),
        "the load of address 0 races thread 0's store: {diags:?}"
    );
    assert_eq!(Code::SharedRace.severity(), Severity::Warning);
}

#[test]
fn l005_accepts_the_same_accesses_separated_by_a_barrier() {
    let mut b = KernelBuilder::new("l005-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::st_shared(Reg::new(0).into(), Operand::Imm(1)));
    b.push(ops::bar());
    b.push(ops::ld_shared(Reg::new(1), Operand::Imm(0)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::SharedRace),
        "the barrier orders the store before every load: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L006

#[test]
fn l006_flags_a_unified_lrf_read_under_a_split_lrf_config() {
    let mut b = KernelBuilder::new("l006-pos");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::iadd(Reg::new(2), Reg::new(1).into(), Operand::Imm(1)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(2).into()));
    b.push(ops::exit());
    let mut k = b.finish();
    // Hand-annotate what a buggy allocator might emit: an LRF write into
    // slot bank A, read back with the *unified* LRF marker even though
    // the default configuration is a split LRF.
    k.blocks[0].instrs[0].write_loc = WriteLoc::Lrf {
        bank: Some(Slot::A),
        also_mrf: true,
    };
    k.blocks[0].instrs[1].read_locs[0] = ReadLoc::Lrf(None);
    let diags = lint(&k);
    assert!(
        codes(&diags).contains(&Code::LrfMisuse),
        "Lrf(None) is the unified marker, the config is split: {diags:?}"
    );
    assert_eq!(Code::LrfMisuse.severity(), Severity::Error);
}

#[test]
fn l006_and_l007_accept_real_allocator_output() {
    // The strongest negative: everything the real allocator produces for
    // a real workload must pass the static placement checks.
    let w = rfh_workloads::by_name("matrixmul").expect("known workload");
    let config = rfh_alloc::AllocConfig::default();
    let model = rfh_energy::EnergyModel::paper();
    let mut k = w.kernel.clone();
    rfh_alloc::allocate(&mut k, &config, &model).expect("allocation succeeds");
    let diags = lint_kernel(
        &k,
        &LintOptions {
            alloc: config,
            ..Default::default()
        },
    );
    assert!(
        !codes(&diags).contains(&Code::LrfMisuse) && !codes(&diags).contains(&Code::OrfConflict),
        "allocator output must satisfy the placement contract: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L007

#[test]
fn l007_flags_an_orf_entry_out_of_range() {
    let mut b = KernelBuilder::new("l007-pos-range");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let mut k = b.finish();
    k.blocks[0].instrs[0].write_loc = WriteLoc::Orf {
        entry: 7, // default config has 3 entries
        also_mrf: true,
    };
    let diags = lint(&k);
    assert!(
        codes(&diags).contains(&Code::OrfConflict),
        "ORF entry 7 does not exist in a 3-entry ORF: {diags:?}"
    );
    assert_eq!(Code::OrfConflict.severity(), Severity::Error);
}

#[test]
fn l007_flags_a_stale_mrf_read_after_an_orf_only_write() {
    // The def goes to the ORF without the simultaneous MRF copy
    // (`also_mrf: false`), but a later read is annotated MRF: it would
    // observe whatever the MRF held before the strand.
    let mut b = KernelBuilder::new("l007-pos-stale");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let mut k = b.finish();
    k.blocks[0].instrs[0].write_loc = WriteLoc::Orf {
        entry: 0,
        also_mrf: false,
    };
    let diags = lint(&k);
    assert!(
        codes(&diags).contains(&Code::OrfConflict),
        "the MRF copy of r1 is stale: {diags:?}"
    );
}

#[test]
fn l007_accepts_an_orf_write_with_a_simultaneous_mrf_copy() {
    let mut b = KernelBuilder::new("l007-neg");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let mut k = b.finish();
    k.blocks[0].instrs[0].write_loc = WriteLoc::Orf {
        entry: 0,
        also_mrf: true,
    };
    let diags = lint(&k);
    assert!(
        !codes(&diags).contains(&Code::OrfConflict),
        "`also_mrf` keeps the MRF copy fresh: {diags:?}"
    );
}

/// `@p0 iadd r1 r0, 1` written to ORF0 (and the MRF), then read back from
/// ORF0 by a store guarded by `@p0` (`negated: false`) or `@!p0`.
fn guarded_orf_chain(negated: bool) -> Kernel {
    let mut b = KernelBuilder::new("l007-guard");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    b.push(
        ops::iadd(Reg::new(1), Reg::new(0).into(), Operand::Imm(1)).guarded(PredReg::new(0), false),
    );
    b.push(
        ops::st_global(Reg::new(0).into(), Reg::new(1).into()).guarded(PredReg::new(0), negated),
    );
    b.push(ops::exit());
    let mut k = b.finish();
    k.blocks[0].instrs[2].write_loc = WriteLoc::Orf {
        entry: 0,
        also_mrf: true,
    };
    k.blocks[0].instrs[3].read_locs[1] = ReadLoc::Orf(0);
    k
}

#[test]
fn l007_accepts_a_guarded_orf_write_read_under_the_same_guard() {
    // The shape the last-use hint pass produces: the entry is valid only
    // on the lanes the write reached, and the read runs on exactly those.
    let k = guarded_orf_chain(false);
    rfh_alloc::validate_placements(&k, &rfh_alloc::AllocConfig::default()).unwrap();
    let diags = lint(&k);
    assert!(
        !codes(&diags).contains(&Code::OrfConflict),
        "same-guard read of a guarded ORF write: {diags:?}"
    );
}

#[test]
fn l007_flags_a_guarded_orf_write_read_under_the_opposite_guard() {
    let diags = lint(&guarded_orf_chain(true));
    let orf: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::OrfConflict)
        .collect();
    assert_eq!(orf.len(), 1, "{diags:?}");
    assert!(
        orf[0]
            .message
            .contains("ORF0 holds r1 under @p0 but the read expects r1"),
        "{}",
        orf[0].message
    );
}

// ---------------------------------------------------------------- RFH-L008

#[test]
fn l008_flags_a_strand_whose_demand_exceeds_the_hierarchy_capacity() {
    // Ten simultaneously-live single-width values plus an accumulator in
    // one strand, against a capacity of 6 slots (3 ORF entries + 3 split
    // LRF banks): the allocator must keep values in the MRF.
    let mut b = KernelBuilder::new("l008-pos");
    for i in 0..10u16 {
        b.push(ops::mov(Reg::new(1 + i), Operand::Imm(i32::from(i))));
    }
    b.push(ops::mov(Reg::new(11), Operand::Imm(0)));
    for i in 0..10u16 {
        b.push(ops::iadd(
            Reg::new(11),
            Reg::new(11).into(),
            Reg::new(1 + i).into(),
        ));
    }
    b.push(ops::st_global(Operand::Imm(0), Reg::new(11).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::Pressure),
        "eleven overlapping live ranges cannot fit 6 slots: {diags:?}"
    );
    assert_eq!(Code::Pressure.severity(), Severity::Warning);
}

#[test]
fn l008_accepts_a_strand_that_fits_the_hierarchy() {
    let mut b = KernelBuilder::new("l008-neg");
    b.push(ops::mov(Reg::new(1), Operand::Imm(5)));
    b.push(ops::iadd(Reg::new(2), Reg::new(1).into(), Operand::Imm(1)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(2).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::Pressure),
        "two live values fit comfortably: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L009

#[test]
fn l009_flags_a_shared_access_provably_past_the_array() {
    // Address 9000 is a compile-time constant past the default 8192-word
    // shared memory: every executing lane faults.
    let mut b = KernelBuilder::new("l009-pos");
    b.push(ops::ld_shared(Reg::new(1), Operand::Imm(9000)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::SharedOob),
        "word 9000 is outside the 8192-word shared memory: {diags:?}"
    );
    assert_eq!(Code::SharedOob.severity(), Severity::Error);
}

#[test]
fn l009_accepts_in_bounds_and_unbounded_shared_accesses() {
    // A constant in-bounds index and a tid-dependent index whose interval
    // overlaps the array: neither is *provably* out of bounds.
    let mut b = KernelBuilder::new("l009-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::ld_shared(Reg::new(1), Operand::Imm(10)));
    b.push(ops::ld_shared(Reg::new(2), Reg::new(0).into()));
    b.push(ops::iadd(
        Reg::new(3),
        Reg::new(1).into(),
        Reg::new(2).into(),
    ));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(3).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::SharedOob),
        "neither access is provably out of bounds: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L010

#[test]
fn l010_flags_a_provably_uniform_branch_on_a_thread_derived_predicate() {
    // `tid & ~31` equals `32 * warp`: thread-derived (so the coarse taint
    // analysis calls it non-uniform) but warp-uniform under the abstract
    // interpreter — the branch can never split a warp.
    let mut b = KernelBuilder::new("l010-pos");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::and(Reg::new(1), Reg::new(0).into(), Operand::Imm(-32)));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(1).into(),
        Operand::Imm(64),
    ));
    let cur = b.current();
    let then_side = b.add_block();
    let merge = b.add_block();
    b.switch_to(cur);
    b.push(ops::bra_if(PredReg::new(0), true, merge));
    b.switch_to(then_side);
    b.push(ops::mov(Reg::new(2), Operand::Imm(1)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(2).into()));
    b.switch_to(merge);
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        codes(&diags).contains(&Code::UniformBranch),
        "the guard is warp-uniform despite its tid lineage: {diags:?}"
    );
    assert_eq!(Code::UniformBranch.severity(), Severity::Warning);
}

#[test]
fn l010_accepts_a_branch_that_really_diverges() {
    // The guard compares raw `tid` — genuinely per-thread, so the branch
    // can split a warp and no finding is produced.
    let mut b = KernelBuilder::new("l010-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::setp(
        CmpOp::Lt,
        PredReg::new(0),
        Reg::new(0).into(),
        Operand::Imm(5),
    ));
    let cur = b.current();
    let then_side = b.add_block();
    let merge = b.add_block();
    b.switch_to(cur);
    b.push(ops::bra_if(PredReg::new(0), true, merge));
    b.switch_to(then_side);
    b.push(ops::mov(Reg::new(1), Operand::Imm(1)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.switch_to(merge);
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::UniformBranch),
        "a genuinely divergent branch must not be flagged: {diags:?}"
    );
}

// ---------------------------------------------------------------- RFH-L011

#[test]
fn l011_notes_a_constant_foldable_alu_op() {
    let mut b = KernelBuilder::new("l011-pos");
    b.push(ops::mov(Reg::new(0), Operand::Imm(5)));
    b.push(ops::iadd(Reg::new(1), Reg::new(0).into(), Operand::Imm(2)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    let hit = diags
        .iter()
        .find(|d| d.code == Code::ConstFold)
        .expect("iadd of two constants always computes 7");
    assert_eq!(hit.severity(), Severity::Note, "L011 is informational");
    assert!(hit.message.contains("0x7"), "names the constant: {hit:?}");
}

#[test]
fn l011_stays_quiet_on_data_dependent_arithmetic() {
    let mut b = KernelBuilder::new("l011-neg");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::iadd(Reg::new(1), Reg::new(0).into(), Operand::Imm(2)));
    b.push(ops::st_global(Operand::Imm(0), Reg::new(1).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !codes(&diags).contains(&Code::ConstFold),
        "tid + 2 is not a constant: {diags:?}"
    );
}

// ------------------------------------------- RFH-L005 absint sharpening

#[test]
fn l005_interval_disjointness_suppresses_and_notes_nonaffine_indices() {
    // The load index `(tid >> 28) + 8` is beyond the affine resolver
    // (shifts of tid are not affine), so classically it may-aliases the
    // store — but its interval is [8, 15] while the store's `0 - tid` is
    // never positive, so the pair is provably disjoint. The unverifiable
    // load index must still surface as a note.
    let mut b = KernelBuilder::new("l005-sharpen");
    b.push(ops::mov(Reg::new(0), tid()));
    b.push(ops::shr(Reg::new(1), Reg::new(0).into(), Operand::Imm(28)));
    b.push(ops::iadd(Reg::new(2), Reg::new(1).into(), Operand::Imm(8)));
    b.push(ops::ld_shared(Reg::new(3), Reg::new(2).into()));
    b.push(ops::isub(Reg::new(4), Operand::Imm(0), Reg::new(0).into()));
    b.push(ops::st_shared(Reg::new(4).into(), Reg::new(3).into()));
    b.push(ops::exit());
    let diags = lint(&b.finish());
    assert!(
        !diags
            .iter()
            .any(|d| d.code == Code::SharedRace && d.severity() == Severity::Warning),
        "disjoint intervals prove the pair race-free: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.code == Code::SharedRace
            && d.severity() == Severity::Note
            && d.message.contains("unverifiable")),
        "the non-affine load index must be noted: {diags:?}"
    );
}
