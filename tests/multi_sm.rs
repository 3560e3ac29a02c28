//! Multi-SM determinism, pinned at the CLI boundary.
//!
//! `rfhc timing --sms N` distributes CTAs across N SM contexts that
//! simulate in parallel over the worker pool; these tests pin the two
//! determinism contracts from the scaling work:
//!
//! * the stdout of a multi-SM run is **byte-identical** under
//!   `RFH_JOBS=1` and `RFH_JOBS=8` (results fold in SM order, never in
//!   completion order);
//! * `--sms 1` is byte-identical to the single-SM library path
//!   ([`rfh::sim::timing::simulate_timing`]) — the CTA distribution and
//!   the memory-contention uplift are both identities at one SM.
//!
//! Config-validation failures must also surface through the binary with
//! the timing exit code, so scripted sweeps can tell a bad flag from a
//! bad kernel.

use std::process::{Command, Output};

use rfh::sim::exec::{execute_with, ExecMode};
use rfh::sim::timing::{simulate_timing, TimingConfig, TraceCapture};
use rfh::sim::MachineConfig;

fn rfhc_with_jobs(args: &[&str], jobs: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfhc"))
        .args(args)
        .env("RFH_JOBS", jobs)
        .output()
        .expect("spawn rfhc")
}

#[test]
fn multi_sm_stdout_is_byte_identical_across_job_counts() {
    for sms in ["1", "2", "4", "8"] {
        let args = ["timing", "--workload", "vectoradd", "--sms", sms];
        let serial = rfhc_with_jobs(&args, "1");
        let parallel = rfhc_with_jobs(&args, "8");
        assert_eq!(serial.status.code(), Some(0), "sms={sms}");
        assert_eq!(parallel.status.code(), Some(0), "sms={sms}");
        assert_eq!(
            serial.stdout, parallel.stdout,
            "sms={sms}: stdout diverges between RFH_JOBS=1 and RFH_JOBS=8"
        );
        assert!(!serial.stdout.is_empty(), "sms={sms}");
    }
}

#[test]
fn sms_one_is_byte_identical_to_the_single_sm_path() {
    // Reproduce the single-SM library result for the same workload and
    // render it exactly as the CLI does: at one SM the distribution and
    // the contention uplift are identities, so the bytes must match.
    let w = rfh::workloads::by_name("vectoradd").expect("known workload");
    let machine = MachineConfig::paper();
    let mut cap = TraceCapture::new(machine.clone(), w.launch.threads_per_cta);
    let mut mem = w.memory.clone();
    execute_with(
        &w.kernel,
        &w.launch,
        &mut mem,
        ExecMode::Baseline,
        &machine,
        &mut [&mut cap],
    )
    .expect("trace capture");
    let r = simulate_timing(
        &cap.traces,
        &|wi| cap.cta_of(wi),
        &TimingConfig::two_level(8),
    )
    .expect("single-SM simulation");

    let expected = format!(
        "sm 0: ctas {} warps {} cycles {} instructions {} deschedules {} ipc {:.4}\n\
         total: sms 1 cycles {} instructions {} deschedules {} ipc {:.4}\n",
        w.launch.ctas,
        cap.traces.len(),
        r.cycles,
        r.instructions,
        r.deschedules,
        r.ipc(),
        r.cycles,
        r.instructions,
        r.deschedules,
        r.ipc(),
    );

    let out = rfhc_with_jobs(&["timing", "--workload", "vectoradd", "--sms", "1"], "4");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "`rfhc timing --sms 1` diverges from the single-SM library path"
    );
}

#[test]
fn invalid_timing_configs_exit_with_the_timing_code() {
    // active == 0 trips up-front config validation (exit 7, the timing
    // error class), not a panic and not silent degenerate scheduling.
    let out = rfhc_with_jobs(&["timing", "--workload", "vectoradd", "--active", "0"], "1");
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("active"), "stderr: {err}");

    // An oversized active set is the other half of the same contract.
    let out = rfhc_with_jobs(
        &["timing", "--workload", "vectoradd", "--active", "999"],
        "1",
    );
    assert_eq!(out.status.code(), Some(7));
}

#[test]
fn timing_usage_errors_exit_with_the_usage_code() {
    let out = rfhc_with_jobs(&["timing"], "1");
    assert_eq!(out.status.code(), Some(2));
    let out = rfhc_with_jobs(&["timing", "--sms", "0", "--workload", "vectoradd"], "1");
    assert_eq!(out.status.code(), Some(2));
    let out = rfhc_with_jobs(&["timing", "--workload", "no-such-workload"], "1");
    assert_eq!(out.status.code(), Some(2));
}
