//! The headline robustness property: over ≥1000 seeded mutants per
//! corruption layer, every case lands in the trichotomy — *rejected with
//! a structured error*, *validated and architecturally identical*, or
//! *flagged by a check stricter than execution* — with zero panics and
//! zero hangs. Placement corruptions are judged by the validator, the
//! shipped executor, replay and the storage-faithful oracle at once, to
//! prove the validator catches everything that changes results.
//!
//! `RFH_CHAOS_CASES` scales the per-layer budget (CI smoke uses a small
//! value); `RFH_TESTKIT_SEED` replays a specific run.

use rfh_alloc::AllocConfig;
use rfh_chaos::{
    cases_from_env, run_absint_layer, run_byte_layer, run_exec_differential_layer, run_ir_layer,
    run_lint_layer, run_placement_layer, seed_from_env, ChaosReport,
};
use rfh_workloads::Workload;

fn workload(name: &str) -> Workload {
    rfh_workloads::by_name(name).expect("known workload")
}

fn cfg() -> AllocConfig {
    AllocConfig::three_level(3, true)
}

#[test]
fn byte_layer_trichotomy_holds() {
    let cases = cases_from_env(1000);
    let report = run_byte_layer(
        &workload("vectoradd"),
        &cfg(),
        cases,
        seed_from_env(0xB17E_0001),
    )
    .expect("byte-layer trichotomy violated");
    assert_eq!(
        report.cases, cases,
        "all cases classified — zero panics, zero hangs ({report})"
    );
    assert!(
        report.rejected > cases / 10,
        "byte corruption should often break the syntax: {report}"
    );
    assert!(
        report.identical + report.structured > 0,
        "some mutants should survive to differential execution: {report}"
    );
}

#[test]
fn ir_layer_trichotomy_holds() {
    let cases = cases_from_env(1000);
    let report = run_ir_layer(
        &workload("vectoradd"),
        &cfg(),
        cases,
        seed_from_env(0x12_0002),
    )
    .expect("IR-layer trichotomy violated");
    assert_eq!(report.cases, cases, "{report}");
    assert!(
        report.rejected > 0,
        "structural damage should trip the validator: {report}"
    );
    assert!(
        report.identical > 0,
        "some valid mutants should run identically across modes: {report}"
    );
}

/// Runs the placement layer — every placement judge on one mutant
/// population: the validator, shipped execution, replay and the
/// storage-faithful oracle — over `cells` of `(workload, config, cases,
/// seed)`, checks each cell, and checks the summed report.
fn judge_placement_cells(cells: Vec<(&str, AllocConfig, usize, u64)>) -> ChaosReport {
    let mut total = ChaosReport::default();
    for (name, cfg, cases, seed) in cells {
        let report = run_placement_layer(&workload(name), &cfg, cases, seed_from_env(seed))
            .unwrap_or_else(|e| panic!("{name} at {cfg}: placement judges disagree: {e}"));
        assert_eq!(report.cases, cases, "{name} at {cfg}: {report}");
        assert!(
            report.identical + report.rejected > 0,
            "{name} at {cfg}: some mutants should pass every executing judge: {report}"
        );
        total.cases += report.cases;
        total.rejected += report.rejected;
        total.identical += report.identical;
        total.structured += report.structured;
        total.flagged += report.flagged;
        total.unchanged += report.unchanged;
    }
    assert!(
        total.identical > 0,
        "some mutants the validator accepts should pass every judge with equal counts: {total}"
    );
    assert!(
        total.flagged > total.cases / 10,
        "placement corruption should often trip the tag model: {total}"
    );
    assert!(
        total.rejected > 0,
        "some mutants only the conservative validator rejects: {total}"
    );
    total
}

#[test]
fn placement_layer_trichotomy_holds() {
    // At the default budget the vectoradd cell judges more mutants than
    // the separate placement, replay and exec-differential layers that
    // the placement layer replaced judged there together.
    judge_placement_cells(vec![(
        "vectoradd",
        cfg(),
        3 * cases_from_env(1000),
        0x97AC_0003,
    )]);
}

#[test]
fn placement_layer_holds_under_a_two_level_config_with_loops() {
    // A second hierarchy shape and a loop-heavy kernel: backedges are
    // where cross-strand staleness lives.
    judge_placement_cells(vec![(
        "scalarprod",
        AllocConfig::two_level(3),
        cases_from_env(1000),
        0x97AC_0004,
    )]);
}

#[test]
fn replay_layer_is_as_strict_as_execution_and_as_lenient_as_the_validator() {
    // Divergence (mandelbrot) under two hierarchy shapes and a barrier
    // kernel (reduction): on every mutant the placement layer checks that
    // replay rejects whatever storage-faithful execution rejects, accepts
    // whatever the placement validator accepts, and agrees with the
    // shipped executor.
    let half = cases_from_env(1000) / 2;
    judge_placement_cells(vec![
        (
            "mandelbrot",
            AllocConfig::three_level(2, false),
            half,
            0x97AC_0005,
        ),
        ("mandelbrot", AllocConfig::two_level(3), half, 0x97AC_0006),
        (
            "reduction",
            AllocConfig::three_level(4, true),
            half,
            0x97AC_0007,
        ),
    ]);
}

#[test]
fn lint_layer_soundness_holds() {
    let cases = cases_from_env(1000);
    let report = run_lint_layer(
        &workload("vectoradd"),
        &cfg(),
        cases,
        seed_from_env(0x117_0005),
    )
    .expect("lint soundness violated: an unflagged mutant misbehaved");
    assert_eq!(report.cases, cases, "{report}");
    assert!(
        report.flagged > 0,
        "IR damage should often be lint-visible: {report}"
    );
    assert!(
        report.identical > 0,
        "benign mutants should stay lint-clean and run identically: {report}"
    );
}

#[test]
fn lint_layer_soundness_holds_on_a_barrier_kernel() {
    // The only barrier-using workload: exercises the divergence and race
    // checks against mutants that perturb guards and control flow.
    let cases = cases_from_env(1000).min(500);
    let report = run_lint_layer(
        &workload("reduction"),
        &cfg(),
        cases,
        seed_from_env(0x117_0006),
    )
    .expect("lint soundness violated on the barrier kernel");
    assert_eq!(report.cases, cases, "{report}");
    assert!(report.flagged > 0, "{report}");
}

#[test]
fn exec_differential_layer_holds() {
    let cases = cases_from_env(1000);
    let report =
        run_exec_differential_layer(&workload("vectoradd"), cases, seed_from_env(0xE7EC_0007))
            .expect("executor engines diverged on a mutant");
    assert_eq!(report.cases, cases, "{report}");
    assert!(
        report.identical > 0,
        "benign mutants should run identically on both engines: {report}"
    );
    assert!(
        report.rejected > 0,
        "structural damage should trip the shared validator: {report}"
    );
}

#[test]
fn exec_differential_layer_holds_on_a_divergent_kernel() {
    // Mandelbrot's data-dependent loop exit is the hardest control-flow
    // shape: mutants perturb reconvergence and guard structure directly.
    let cases = cases_from_env(1000).min(500);
    let report =
        run_exec_differential_layer(&workload("mandelbrot"), cases, seed_from_env(0xE7EC_0008))
            .expect("executor engines diverged on a divergent-kernel mutant");
    assert_eq!(report.cases, cases, "{report}");
    assert!(report.identical + report.structured > 0, "{report}");
}

#[test]
fn protocol_layer_trichotomy_holds() {
    // The wire-protocol layer: seeded socket faults against a live
    // in-process daemon. Every case ends in the service trichotomy —
    // well-formed requests succeed, malformed traffic draws a structured
    // error frame or a clean teardown — and after each fault a fresh
    // probe proves the daemon is neither dead nor poisoned. The layer
    // itself also drains the daemon and checks for leaked connections
    // and absorbed panics.
    let cases = cases_from_env(1000);
    let report = rfh_chaos::run_protocol_layer(cases, seed_from_env(0x3070_0009))
        .expect("protocol trichotomy violated — the daemon died, hung, or leaked");
    assert_eq!(
        report.cases, cases,
        "all cases classified — zero daemon deaths ({report})"
    );
    assert!(
        report.identical > 0,
        "well-formed requests should succeed amid the chaos: {report}"
    );
    assert!(
        report.structured > 0,
        "malformed traffic should draw structured error frames: {report}"
    );
    assert!(
        report.rejected > 0,
        "abandoned connections should be torn down cleanly: {report}"
    );
}

#[test]
fn absint_layer_soundness_holds() {
    // Every claim of the abstract interpreter — value intervals, affine
    // forms, warp uniformity, predicate knowledge, reachability, and the
    // last-use read protocol — is checked per lane against the concrete
    // execution of every surviving mutant, and hint-guided allocation
    // must preserve each mutant's semantics exactly.
    let cases = cases_from_env(1000);
    let report = run_absint_layer(
        &workload("vectoradd"),
        &cfg(),
        cases,
        seed_from_env(0xAB51_000A),
    )
    .expect("absint soundness violated: a claim failed on a concrete execution");
    assert_eq!(
        report.cases, cases,
        "all cases classified — zero panics, zero escaped claims ({report})"
    );
    assert!(
        report.identical > 0,
        "benign mutants should execute under the checker and match hinted allocation: {report}"
    );
    assert!(
        report.rejected > 0,
        "structural damage should trip the validator: {report}"
    );
}

#[test]
fn absint_layer_soundness_holds_on_a_divergent_kernel() {
    // Mandelbrot's data-dependent loop exit stresses the widening and
    // divergence tracking hardest: guards flip per lane and per
    // iteration, so over-eager uniformity or interval claims die here.
    let cases = cases_from_env(1000).min(500);
    let report = run_absint_layer(
        &workload("mandelbrot"),
        &AllocConfig::two_level(3),
        cases,
        seed_from_env(0xAB51_000B),
    )
    .expect("absint soundness violated on a divergent-kernel mutant");
    assert_eq!(report.cases, cases, "{report}");
    assert!(report.identical + report.structured > 0, "{report}");
}

#[test]
fn timing_layer_trichotomy_holds() {
    // The timing layer: seeded trace and config mutants replayed through
    // both timing engines. Surviving mutants must agree exactly on the
    // result; malformed ones (unbalanced barriers, starved budgets,
    // degenerate configs) must draw field-for-field identical structured
    // errors, deadlock snapshots included.
    let cases = cases_from_env(1000);
    let report =
        rfh_chaos::run_timing_layer(&workload("vectoradd"), cases, seed_from_env(0x7131_000C))
            .expect("timing engines diverged on a mutant trace");
    assert_eq!(
        report.cases, cases,
        "all cases classified — zero panics, zero hangs ({report})"
    );
    assert!(
        report.identical > 0,
        "benign mutants should replay identically on both engines: {report}"
    );
    assert!(
        report.structured > 0,
        "barrier and budget damage should draw identical runtime errors: {report}"
    );
    assert!(
        report.rejected > 0,
        "degenerate configs should be rejected up front by validation: {report}"
    );
}

#[test]
fn timing_layer_holds_on_a_barrier_kernel() {
    // The barrier-using workload: inserted/removed barriers land in
    // streams that already synchronize, so the mutants probe partial
    // arrival states rather than only all-or-nothing deadlocks.
    let cases = cases_from_env(1000).min(500);
    let report =
        rfh_chaos::run_timing_layer(&workload("reduction"), cases, seed_from_env(0x7131_000D))
            .expect("timing engines diverged on a barrier-kernel mutant");
    assert_eq!(report.cases, cases, "{report}");
    assert!(report.identical + report.structured > 0, "{report}");
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    // The placement layer runs the oracle on only some mutants; that must
    // not make its classification depend on case order.
    type Layer = fn(&Workload, &AllocConfig, usize, u64) -> Result<ChaosReport, String>;
    let layers: [(&str, Layer); 2] = [("byte", run_byte_layer), ("placement", run_placement_layer)];
    let w = workload("vectoradd");
    for (name, layer) in layers {
        let a = layer(&w, &cfg(), 50, 7).expect("run a");
        let b = layer(&w, &cfg(), 50, 7).expect("run b");
        assert_eq!(
            a, b,
            "{name}: same seed must reproduce the same classification"
        );
        let c = layer(&w, &cfg(), 50, 8).expect("run c");
        assert_ne!(
            a, c,
            "{name}: different seeds should explore different mutants"
        );
    }
}
