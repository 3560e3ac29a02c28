//! Property-based tests over randomly generated kernels: for arbitrary
//! programs, allocation must produce validator-clean placements and
//! hierarchy-mode execution must pass its placement check and compute
//! exactly the baseline result.
//!
//! Failures print an `RFH_TESTKIT_SEED` that reproduces the (shrunk)
//! input; pin any newly found counterexample in `tests/regressions.rs`.

mod common;

use rfh_testkit::prelude::*;

use rfh::alloc::AllocConfig;
use rfh::workloads::generator::GenConfig;

fn arb_config() -> impl Strategy<Value = AllocConfig> {
    (1usize..=8, 0u8..3, any::<bool>(), any::<bool>()).prop_map(|(entries, lrf, pr, ro)| {
        let mut cfg = match lrf {
            0 => AllocConfig::two_level(entries),
            1 => AllocConfig::three_level(entries, false),
            _ => AllocConfig::three_level(entries, true),
        };
        cfg.partial_ranges = pr;
        cfg.read_operands = ro;
        cfg
    })
}

fn arb_shape() -> impl Strategy<Value = GenConfig> {
    (2usize..10, 2usize..8, 1i32..6, 4u16..10).prop_map(|(segments, run_len, max_trips, pool)| {
        GenConfig {
            segments,
            run_len,
            max_trips,
            pool,
        }
    })
}

prop! {
    #![config(cases = 64)]

    /// The headline invariant: for any generated program and any hierarchy
    /// shape, the allocated kernel computes exactly the same memory image
    /// as the baseline, with operands flowing through the modeled ORF/LRF.
    fn allocated_execution_matches_baseline(seed in 0u64..5000, cfg in arb_config(), shape in arb_shape()) {
        common::check_allocated_matches_baseline(seed, cfg, shape);
    }

    /// Liveness annotations are sound: an operand flagged dead is never
    /// read again before a redefinition (checked dynamically per warp).
    fn dead_after_flags_are_sound(seed in 0u64..2000, shape in arb_shape()) {
        common::check_dead_after_flags(seed, shape);
    }

    /// The hint-refined `dead_after` flags (covered reads excluded from
    /// liveness) pass the same dynamic never-read-after-dead check.
    fn refined_dead_flags_are_sound(seed in 0u64..2000, shape in arb_shape()) {
        common::check_refined_dead_flags(seed, shape);
    }

    /// The abstract interpreter is sound on arbitrary programs: every
    /// executed register value lies in its predicted interval, affine
    /// claims match bit-exactly per lane, uniform-marked writes never
    /// diverge across a warp, and predicate/reachability claims hold.
    fn absint_predicts_executed_values(seed in 0u64..2000, shape in arb_shape()) {
        common::check_absint_sound(seed, shape);
    }

    /// `--hints off` splices byte-identically into the default allocation
    /// pipeline; `--hints on` stays validator-clean and matches the
    /// baseline memory image exactly.
    fn hinted_allocation_is_transparent(seed in 0u64..2000, cfg in arb_config(), shape in arb_shape()) {
        common::check_hinted_allocation(seed, cfg, shape);
    }

    /// Strand partitioning is consistent: every strand's instructions are
    /// layout-contiguous, exactly the last one carries the end bit, and
    /// every instruction belongs to exactly one strand.
    fn strand_partition_is_well_formed(seed in 0u64..2000, shape in arb_shape()) {
        common::check_strand_partition(seed, shape);
    }

    /// The textual format round-trips arbitrary generated kernels.
    fn text_round_trip(seed in 0u64..2000, shape in arb_shape()) {
        common::check_text_round_trip(seed, shape);
    }

    /// The two-level scheduler never deadlocks and always issues every
    /// instruction, at any active-set size.
    fn scheduler_conserves_instructions(seed in 0u64..500, active in 1usize..12) {
        use rfh::sim::exec::{execute, ExecMode};
        use rfh::sim::machine::MachineConfig;
        use rfh::sim::timing::{simulate_timing, TimingConfig, TraceCapture};
        use rfh::workloads::generator::random_program;

        let (kernel, launch, mut mem) = random_program(seed, GenConfig::default());
        let machine = MachineConfig::paper();
        let mut cap = TraceCapture::new(machine, launch.threads_per_cta);
        execute(&kernel, &launch, &mut mem, ExecMode::Baseline, &mut [&mut cap]).unwrap();
        let total: u64 = cap.traces.iter().map(|t| t.len() as u64).sum();
        let mut cfg = TimingConfig::two_level(active);
        cfg.machine = MachineConfig::paper();
        let r = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &cfg).unwrap();
        prop_assert_eq!(r.instructions, total);
        prop_assert!(r.cycles >= total);
    }
}
