//! Golden-file regression tests: regenerate the headline figure CSVs and
//! diff them against the committed `results/*.csv`.
//!
//! Any intentional change to the workloads, the allocator, the energy
//! model, or the (deterministic) data generator shows up here first;
//! refresh the goldens with
//!
//! ```sh
//! cargo run --release -p rfh-experiments --bin repro -- --csv results all
//! ```
//!
//! and review the diff (EXPERIMENTS.md quotes several of these numbers).

use std::path::PathBuf;

use rfh_experiments::{ablation, csv, fig11, fig12, fig2, hints, limit, ExperimentCtx};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             regenerate with: cargo run --release -p rfh-experiments --bin repro -- --csv results all",
            path.display()
        )
    })
}

/// Tolerance-aware CSV comparison: identical shape, text cells equal,
/// numeric cells within a relative tolerance (regeneration is expected to
/// be bit-identical on one platform; the tolerance absorbs cross-platform
/// float formatting noise without letting real regressions through).
fn assert_csv_matches(name: &str, regenerated: &str) {
    let expected = golden(name);
    let exp_lines: Vec<&str> = expected.lines().collect();
    let got_lines: Vec<&str> = regenerated.lines().collect();
    assert_eq!(
        exp_lines.len(),
        got_lines.len(),
        "{name}: row count changed"
    );
    for (row, (e, g)) in exp_lines.iter().zip(&got_lines).enumerate() {
        let ec: Vec<&str> = e.split(',').collect();
        let gc: Vec<&str> = g.split(',').collect();
        assert_eq!(ec.len(), gc.len(), "{name} row {row}: column count changed");
        for (col, (ev, gv)) in ec.iter().zip(&gc).enumerate() {
            match (ev.parse::<f64>(), gv.parse::<f64>()) {
                (Ok(x), Ok(y)) => {
                    let tol = 1e-9 * x.abs().max(1.0);
                    assert!(
                        (x - y).abs() <= tol,
                        "{name} row {row} col {col}: golden {ev} vs regenerated {gv}"
                    );
                }
                _ => assert_eq!(ev, gv, "{name} row {row} col {col}: text cell changed"),
            }
        }
    }
}

#[test]
fn fig2_usage_patterns_match_golden() {
    assert_csv_matches("fig2.csv", &csv::fig2_csv(&fig2::run()));
}

#[test]
fn fig11_two_level_breakdown_matches_golden() {
    let ws = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&ws);
    assert_csv_matches("fig11.csv", &csv::fig11_csv(&fig11::run(&ctx)));
}

#[test]
fn fig12_three_level_breakdown_matches_golden() {
    let ws = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&ws);
    assert_csv_matches("fig12.csv", &csv::fig12_csv(&fig12::run(&ctx)));
}

#[test]
fn limit_study_matches_golden() {
    let ws = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&ws);
    assert_csv_matches("limit.csv", &csv::limit_csv(&limit::run(&ctx)));
}

#[test]
fn ablation_matches_golden() {
    let ws = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&ws);
    assert_csv_matches("ablation.csv", &csv::ablation_csv(&ablation::run(&ctx)));
}

/// `repro hints` is not part of `repro all`; regenerate its golden with
/// `cargo run --release -p rfh-experiments --bin repro -- --csv results hints`.
/// It is the only arm that checks hint-allocated (guarded-entry) kernels
/// in hierarchy mode, by a tag-checked replay of the recorded baseline.
#[test]
fn hints_match_golden() {
    let ws = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&ws);
    assert_csv_matches("hints.csv", &csv::hints_csv(&hints::run(&ctx)));
}
