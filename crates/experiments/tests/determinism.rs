//! Parallelism must not change results: `repro --csv` output is
//! byte-identical whether the pool runs one worker or eight.
//!
//! This drives the real `repro` binary twice as subprocesses (so each run
//! gets its own `RFH_JOBS` without racing other tests' environment) and
//! compares stdout and every emitted CSV byte-for-byte.

use std::path::PathBuf;
use std::process::Command;

/// Runs `repro --csv <dir> <experiments...>` under `RFH_JOBS=<jobs>` and
/// returns its stdout.
fn run_repro(jobs: &str, dir: &PathBuf, experiments: &[&str]) -> String {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--csv")
        .arg(dir)
        .args(experiments)
        .env("RFH_JOBS", jobs)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed under RFH_JOBS={jobs}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro stdout is UTF-8")
}

#[test]
fn csv_output_is_byte_identical_across_job_counts() {
    // A cross-section of the engine: a (entries × workload) sweep with
    // batched HW counting, the breakdown fold, the shared fig13 sweep
    // feeding `encoding`, the per-workload fig2 fan-out, the limit study's
    // per-strand SW cells, and ablation's batched HW variants.
    let experiments = ["fig11", "fig14", "encoding", "fig2", "limit", "ablation"];
    let base = std::env::temp_dir().join(format!("rfh-determinism-{}", std::process::id()));
    let dir1 = base.join("jobs1");
    let dir8 = base.join("jobs8");

    let stdout1 = run_repro("1", &dir1, &experiments);
    let stdout8 = run_repro("8", &dir8, &experiments);
    assert_eq!(stdout1, stdout8, "stdout differs between RFH_JOBS=1 and 8");

    let mut compared = 0;
    for entry in std::fs::read_dir(&dir1).expect("read csv dir") {
        let name = entry.expect("dir entry").file_name();
        let a = std::fs::read(dir1.join(&name)).expect("read jobs1 csv");
        let b = std::fs::read(dir8.join(&name)).expect("read jobs8 csv");
        assert_eq!(
            a,
            b,
            "{} differs between RFH_JOBS=1 and 8",
            name.to_string_lossy()
        );
        compared += 1;
    }
    assert!(compared >= 5, "expected at least five CSVs, got {compared}");
    std::fs::remove_dir_all(&base).ok();
}
