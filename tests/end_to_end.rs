//! Cross-crate integration tests: compile → allocate → validate → execute
//! → verify, across every workload and a matrix of hierarchy shapes.

use rfh::alloc::{allocate, validate_placements, AllocConfig};
use rfh::energy::EnergyModel;
use rfh::sim::exec::ExecMode;
use rfh::sim::sink::NullSink;
use rfh::sim::SwCounter;

fn configs() -> Vec<AllocConfig> {
    let mut v = vec![AllocConfig::baseline()];
    for entries in [1, 2, 3, 5, 8] {
        v.push(AllocConfig::two_level_plain(entries));
        v.push(AllocConfig::two_level(entries));
        v.push(AllocConfig::three_level(entries, false));
        v.push(AllocConfig::three_level(entries, true));
    }
    v
}

#[test]
fn every_workload_runs_correctly_under_every_config() {
    let model = EnergyModel::paper();
    for w in rfh::workloads::all() {
        for cfg in configs() {
            let mut kernel = w.kernel.clone();
            allocate(&mut kernel, &cfg, &model).unwrap();
            validate_placements(&kernel, &cfg)
                .unwrap_or_else(|e| panic!("{} under {cfg}: {e}", w.name));
            let mode = if cfg.is_baseline() {
                ExecMode::Baseline
            } else {
                ExecMode::Hierarchy(cfg)
            };
            let mut sink = NullSink;
            w.run_and_verify(mode, &kernel, &mut [&mut sink])
                .unwrap_or_else(|e| panic!("{e} under {cfg}"));
        }
    }
}

#[test]
fn allocation_strictly_reduces_energy_on_every_workload() {
    let model = EnergyModel::paper();
    let cfg = AllocConfig::three_level(3, true);
    for w in rfh::workloads::all() {
        let mut base_counter = SwCounter::default();
        let mut sink: &mut dyn rfh::sim::TraceSink = &mut base_counter;
        w.run_and_verify(
            ExecMode::Baseline,
            &w.kernel,
            std::slice::from_mut(&mut sink),
        )
        .unwrap();
        let base = base_counter.counts();

        let mut kernel = w.kernel.clone();
        allocate(&mut kernel, &cfg, &model).unwrap();
        let mut counter = SwCounter::default();
        let mut sink2: &mut dyn rfh::sim::TraceSink = &mut counter;
        w.run_and_verify(
            ExecMode::Hierarchy(cfg),
            &kernel,
            std::slice::from_mut(&mut sink2),
        )
        .unwrap();
        let counts = counter.counts();

        let baseline = model
            .baseline_energy(base.total_reads(), base.total_writes())
            .total();
        let allocated = model.energy(&counts, 3).total();
        assert!(
            allocated < baseline,
            "{}: {allocated:.1} pJ !< baseline {baseline:.1} pJ",
            w.name
        );
        // Read traffic is conserved; write traffic only grows by dual
        // writes and fills.
        assert_eq!(counts.total_reads(), base.total_reads(), "{}", w.name);
        assert!(counts.mrf_write <= base.total_writes(), "{}", w.name);
    }
}

#[test]
fn more_orf_entries_never_reduce_upper_level_reads() {
    // Occupancy is the only constraint that relaxes with size when the
    // access-energy model is held fixed; verify monotone capture using the
    // 3-entry energy row for all sizes.
    let mut model = EnergyModel::paper();
    let row3 = model.orf_table[2];
    for row in model.orf_table.iter_mut() {
        row.read_pj = row3.read_pj;
        row.write_pj = row3.write_pj;
    }
    for name in ["matrixmul", "mandelbrot", "cp"] {
        let w = rfh::workloads::by_name(name).unwrap();
        let mut prev = 0u64;
        for entries in 1..=8 {
            let mut kernel = w.kernel.clone();
            let cfg = AllocConfig::two_level(entries);
            allocate(&mut kernel, &cfg, &model).unwrap();
            let mut counter = SwCounter::default();
            let mut sink: &mut dyn rfh::sim::TraceSink = &mut counter;
            w.run_and_verify(
                ExecMode::Hierarchy(cfg),
                &kernel,
                std::slice::from_mut(&mut sink),
            )
            .unwrap();
            let upper = counter.counts().orf_read_private + counter.counts().orf_read_shared;
            assert!(
                upper + 5 >= prev,
                "{name}: capture dropped {prev} -> {upper} at {entries} entries"
            );
            prev = upper;
        }
    }
}

#[test]
fn strand_markings_survive_round_trip_through_text() {
    for w in rfh::workloads::all() {
        let mut kernel = w.kernel.clone();
        allocate(&mut kernel, &AllocConfig::baseline(), &EnergyModel::paper()).unwrap();
        let text = rfh::isa::printer::print_kernel(&kernel);
        let parsed = rfh::isa::parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(parsed, kernel, "{}", w.name);
    }
}

/// Strand marking and the last-use hints read the kernel, not the
/// `ends_strand` bits it carries: on every suite kernel allocated under the
/// idealized no-deschedule split (fewer end bits), and on a copy with every
/// end bit set, they give exactly what the clean kernel gives.
#[test]
fn analyses_ignore_the_annotations_they_are_given() {
    use rfh::analysis::absint::last_use;
    use rfh::analysis::strand::mark_strands;

    let facts = |k: &rfh::isa::Kernel| {
        let info = mark_strands(k);
        let strands = info.strands.iter();
        let strands: Vec<_> = strands.map(|s| (s.instrs.clone(), s.end_reason)).collect();
        let covered = last_use::analyze(k, &info).covered;
        (strands, info.end_bits().to_vec(), covered)
    };
    let ideal = AllocConfig {
        ideal_no_deschedule_split: true,
        ..AllocConfig::default()
    };
    let (mut fewer_bits, mut covering) = (0, 0);
    for w in rfh::workloads::all() {
        let clean = facts(&w.kernel);
        let mut allocated = w.kernel.clone();
        allocate(&mut allocated, &ideal, &EnergyModel::paper()).unwrap();
        let mut all_set = w.kernel.clone();
        for i in all_set.blocks.iter_mut().flat_map(|b| b.instrs.iter_mut()) {
            i.ends_strand = true;
        }
        assert_eq!(facts(&allocated), clean, "{}: ideal-allocated", w.name);
        assert_eq!(facts(&all_set), clean, "{}: every end bit set", w.name);
        let allocated_bits = allocated.iter_instrs().filter(|(_, i)| i.ends_strand);
        let clean_bits = clean.1.iter().filter(|e| **e);
        fewer_bits += usize::from(allocated_bits.count() < clean_bits.count());
        covering += usize::from(!clean.2.is_empty());
    }
    // Both annotated copies differ from the clean kernel where it matters:
    // 30 kernels lose end bits, and one has covered reads that the extra
    // bits would cut.
    assert_eq!((fewer_bits, covering), (30, 1));
}

#[test]
fn allocator_scales_to_large_kernels() {
    // A generated kernel an order of magnitude larger than any workload:
    // allocation (including validation) must stay well under a second.
    use rfh::workloads::generator::{random_program, GenConfig};
    let shape = GenConfig {
        segments: 120,
        run_len: 10,
        max_trips: 3,
        pool: 10,
    };
    let (kernel, _, _) = random_program(99, shape);
    assert!(kernel.instr_count() > 800, "got {}", kernel.instr_count());
    let start = std::time::Instant::now();
    let mut k = kernel.clone();
    let stats = allocate(
        &mut k,
        &AllocConfig::three_level(3, true),
        &EnergyModel::paper(),
    )
    .unwrap();
    let elapsed = start.elapsed();
    assert!(stats.orf_values + stats.lrf_values > 50);
    assert!(
        elapsed.as_millis() < 2000,
        "allocation took {elapsed:?} for {} instructions",
        kernel.instr_count()
    );
}
