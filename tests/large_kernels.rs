//! Output pin for large kernels: the 48 seeded `compile_large`-shaped
//! generated kernels (seed 11, 12 per tier at 8/32/128/512 segments,
//! `run_len 8`, `pool 16`, `max_trips 5`) must keep producing exactly the
//! same abstract-interpretation facts, allocations and lint diagnostics.
//!
//! The suite-only goldens never exercise kernels this large, and the
//! analyses behind these outputs carry the superlinear costs, so this is
//! where a speed change to them is checked for exactness. Each line of
//! `results/large_kernels_digest.txt` holds a kernel's name, its
//! instruction count, and FNV-1a digests of:
//!
//! * `format!("{:?}", absint::analyze(..))` on the unallocated kernel;
//! * the annotated allocation plus `AllocStats` at `three_level(3, true)`,
//!   with last-use hints off and on;
//! * the `json_line` rendering of `lint_kernel` over the hint-less
//!   allocation.
//!
//! The fresh digest is also written to
//! `$CARGO_TARGET_TMPDIR/large_kernels_digest.txt`, so `scripts/ci.sh` can
//! `cmp` it against the golden, and an intended output change can be
//! re-blessed by copying that file over the golden.

use std::fmt::Write as _;

use rfh::alloc::{allocate_with_hints, AllocConfig};
use rfh::analysis::absint::{self, AbsCtx};
use rfh::energy::EnergyModel;
use rfh::isa::printer::print_kernel_annotated;
use rfh::isa::Kernel;
use rfh::lint::{json_line, lint_kernel, LintOptions};
use rfh::rfhd::fnv1a;
use rfh::workloads::generator::{random_program, GenConfig};
use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

const GOLDEN: &str = include_str!("../results/large_kernels_digest.txt");
const SEED: u64 = 11;
const PER_TIER: usize = 12;
const TIERS: [usize; 4] = [8, 32, 128, 512];
const CONFIG: AllocConfig = AllocConfig::three_level(3, true);

/// The generated kernels, drawn exactly as the `compile_large` benchmark
/// workload draws them.
fn kernels() -> Vec<Kernel> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut out = Vec::new();
    for segments in TIERS {
        for _ in 0..PER_TIER {
            let cfg = GenConfig {
                segments,
                run_len: 8,
                max_trips: 5,
                pool: 16,
            };
            out.push(random_program(rng.gen(), cfg).0);
        }
    }
    out
}

/// The allocated kernel and the digest of its annotated text plus stats.
fn allocation(kernel: &Kernel, model: &EnergyModel, hints: bool) -> (Kernel, u64) {
    let mut k = kernel.clone();
    let stats = allocate_with_hints(&mut k, &CONFIG, model, hints).expect("valid kernel");
    let text = format!("{}{stats:?}", print_kernel_annotated(&k));
    (k, fnv1a(text.as_bytes()))
}

fn digest_line(kernel: &Kernel, model: &EnergyModel) -> String {
    let facts = format!("{:?}", absint::analyze(kernel, AbsCtx::default()));
    let (allocated, plain) = allocation(kernel, model, false);
    let (_, hinted) = allocation(kernel, model, true);
    let options = LintOptions {
        alloc: CONFIG,
        ..LintOptions::default()
    };
    let mut lint = String::new();
    for d in lint_kernel(&allocated, &options) {
        lint.push_str(&json_line(&kernel.name, &d));
        lint.push('\n');
    }
    format!(
        "{} {} absint={:016x} alloc={plain:016x} alloc_hints={hinted:016x} lint={:016x}",
        kernel.name,
        kernel.instr_count(),
        fnv1a(facts.as_bytes()),
        fnv1a(lint.as_bytes()),
    )
}

#[test]
fn large_kernel_outputs_match_the_golden_digest() {
    let model = EnergyModel::paper();
    let mut fresh = String::new();
    for kernel in kernels() {
        let _ = writeln!(fresh, "{}", digest_line(&kernel, &model));
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("large_kernels_digest.txt");
    std::fs::write(&out, &fresh).expect("write fresh digest");
    assert_eq!(fresh.lines().count(), PER_TIER * TIERS.len());
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "kernel {i} differs (fresh digest: {})",
            out.display()
        );
    }
    assert_eq!(
        GOLDEN.lines().count(),
        fresh.lines().count(),
        "golden has a different kernel count (fresh digest: {})",
        out.display()
    );
}
