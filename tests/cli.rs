//! End-to-end tests for the `rfhc` compiler driver binary, located via
//! `CARGO_BIN_EXE_rfhc` (cargo builds the bin for integration tests of
//! this package automatically).

use std::io::Write;
use std::process::{Command, Output, Stdio};

const KERNEL: &str = "
.kernel axpy
BB0:
  mov r0, %tid.x
  ld.param r1 0
  iadd r2 r1, r0
  ld.global r3 r2
  fmul r4 r3, 2.0f
  fadd r5 r4, r3
  st.global r2, r5
  exit
";

fn rfhc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfhc"))
        .args(args)
        .output()
        .expect("spawn rfhc")
}

fn rfhc_stdin(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rfhc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rfhc");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait rfhc")
}

fn write_kernel(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("axpy.rfasm");
    std::fs::write(&path, KERNEL).expect("write kernel");
    path
}

#[test]
fn no_input_is_a_usage_error() {
    let out = rfhc(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = rfhc(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn oversized_orf_is_rejected() {
    let out = rfhc(&["--orf", "9", "x.rfasm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no energy model"));
}

#[test]
fn out_of_range_orf_is_rejected_by_every_subcommand() {
    // One bound for every config parser: the ORF sizes the energy model
    // can price, 1..=8, as the daemon's `config.orf` enforces.
    for sub in [&[][..], &["lint"], &["trace"]] {
        for orf in ["0", "9"] {
            let args = [sub, &["--orf", orf, "x.rfasm"]].concat();
            let out = rfhc(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("no energy model"), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn missing_file_is_a_read_error() {
    let out = rfhc(&["/nonexistent/kernel.rfasm"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn malformed_kernel_is_a_parse_error() {
    let out = rfhc_stdin(&["-"], "this is not a kernel\n");
    assert_eq!(out.status.code(), Some(3), "parse errors exit with code 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("rfhc:"));
}

#[test]
fn structurally_invalid_kernel_is_exit_code_4() {
    // Parses fine but fails validation: code after `exit` in the block.
    let out = rfhc_stdin(&["-"], ".kernel bad\nBB0:\n  exit\n  iadd r0 r0, r0\n");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("rfhc:"));
}

#[test]
fn stdin_plain_output_parses_back() {
    let out = rfhc_stdin(&["--plain", "-"], KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    // `--plain` output is the textual format itself: it must round-trip
    // through the parser and preserve the instruction count.
    let reparsed = rfh::isa::parse_kernel(&text).expect("plain output reparses");
    let original = rfh::isa::parse_kernel(KERNEL).unwrap();
    assert_eq!(reparsed.instr_count(), original.instr_count());
    assert_eq!(reparsed.name, original.name);
}

#[test]
fn file_input_annotated_output_and_stats() {
    let dir = std::env::temp_dir().join("rfhc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = write_kernel(&dir);

    let out = rfhc(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("strands"), "stats line on stderr: {stderr}");
    assert!(!out.stdout.is_empty(), "annotated kernel on stdout");

    // --stats suppresses the kernel itself.
    let out = rfhc(&["--stats", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn lint_clean_kernel_exits_zero() {
    let out = rfhc_stdin(&["lint", "-"], KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 error(s), 0 warning(s)"),
        "summary on stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no diagnostics for a clean kernel");
}

#[test]
fn lint_errors_exit_with_code_8() {
    // r7 is read but never defined: RFH-L001, an error.
    let bad = ".kernel broken\nBB0:\n  iadd r0 r7, r7\n  st.global 0, r0\n  exit\n";
    let out = rfhc_stdin(&["lint", "-"], bad);
    assert_eq!(out.status.code(), Some(8), "lint errors exit with code 8");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[RFH-L001]"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rfhc lint:"), "{stderr}");
}

#[test]
fn lint_warnings_alone_exit_zero() {
    // A dead def is RFH-L003, a warning: reported but not fatal.
    let warn = ".kernel warny\nBB0:\n  mov r1, 5\n  exit\n";
    let out = rfhc_stdin(&["lint", "-"], warn);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[RFH-L003]"), "{stdout}");
}

#[test]
fn lint_json_output_is_one_object_per_line() {
    let bad = ".kernel broken\nBB0:\n  iadd r0 r7, r7\n  st.global 0, r0\n  exit\n";
    let out = rfhc_stdin(&["lint", "--json", "-"], bad);
    assert_eq!(out.status.code(), Some(8));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        assert!(
            line.starts_with("{\"kernel\":\"<stdin>\",\"code\":\"RFH-L") && line.ends_with('}'),
            "stable JSON shape: {line}"
        );
    }
    assert!(stdout.contains("\"severity\":\"error\""), "{stdout}");
}

#[test]
fn lint_respects_config_flags() {
    // The pressure warning depends on the configured capacity: a 1-entry
    // ORF with no LRF (capacity 1) trips RFH-L008 on the axpy kernel,
    // while the default capacity does not.
    let out = rfhc_stdin(&["lint", "--orf", "1", "--lrf", "none", "-"], KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[RFH-L008]"), "{stdout}");
}

#[test]
fn lint_rejects_malformed_input_with_the_parse_exit_code() {
    let out = rfhc_stdin(&["lint", "-"], "not a kernel\n");
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3 under lint");
}

/// `rfhc trace` executes the kernel, and its launch carries no kernel
/// parameters — the trace tests use a param-free kernel.
const TRACE_KERNEL: &str = "
.kernel tally
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r2 r1, 7
  imul r3 r2, r2
  iadd r4 r3, r1
  st.global r0, r4
  exit
";

fn rfhc_stdin_env(args: &[&str], stdin: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfhc"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn rfhc");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait rfhc")
}

#[test]
fn trace_json_is_one_object_per_line() {
    let out = rfhc_stdin(&["trace", "-"], TRACE_KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.is_empty(), "trace records on stdout");
    for line in stdout.lines() {
        assert!(
            line.starts_with("{\"seq\":") && line.ends_with('}'),
            "stable JSON-lines shape: {line}"
        );
    }
    assert!(stdout.contains("\"accesses\":["), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rfhc trace:"),
        "summary on stderr: {stderr}"
    );
    assert!(stderr.contains("strand(s)"), "{stderr}");
}

#[test]
fn trace_chrome_is_a_single_trace_object() {
    let out = rfhc_stdin(&["trace", "--chrome", "-"], TRACE_KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"traceEvents\":["), "{stdout}");
    assert!(stdout.contains("\"ph\":\"X\""), "{stdout}");
}

#[test]
fn trace_profile_renders_the_strand_table() {
    let out = rfhc_stdin(&["trace", "--profile", "-"], TRACE_KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# per-strand energy attribution"),
        "{stdout}"
    );
    assert!(stdout.contains("\ntotal\t"), "totals row: {stdout}");
    assert!(stdout.trim_end().ends_with("1.0000"), "{stdout}");
}

#[test]
fn trace_baseline_mode_traces_the_unallocated_kernel() {
    let out = rfhc_stdin(&["trace", "--baseline", "-"], TRACE_KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A baseline trace never touches the upper levels.
    assert!(!stdout.contains("ORF"), "{stdout}");
    assert!(!stdout.contains("LRF"), "{stdout}");
}

#[test]
fn removed_engine_flags_are_usage_errors() {
    // The differential oracles are library-only: neither subcommand
    // accepts an engine selector. Arg parsing fails before any input is
    // read, so no stdin is piped.
    for cmd in [
        "trace --engine soa -",
        "timing --workload vectoradd --engine staged",
        "timing --workload vectoradd --engine warp9",
    ] {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let out = rfhc(&args);
        assert_eq!(out.status.code(), Some(2), "{cmd}: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognized argument `--engine`"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn trace_json_is_byte_identical_at_any_job_count() {
    let one = rfhc_stdin_env(&["trace", "-"], TRACE_KERNEL, &[("RFH_JOBS", "1")]);
    let eight = rfhc_stdin_env(&["trace", "-"], TRACE_KERNEL, &[("RFH_JOBS", "8")]);
    assert_eq!(one.status.code(), Some(0), "{one:?}");
    assert_eq!(eight.status.code(), Some(0), "{eight:?}");
    assert_eq!(
        one.stdout, eight.stdout,
        "trace output must not depend on the worker-pool size"
    );
}

#[test]
fn removed_jobs_flag_is_a_usage_error() {
    // Nothing `rfhc`, `rfhc lint` or `rfhc trace` runs uses the worker
    // pool, so none of them takes a pool-size flag (`RFH_JOBS` still sets
    // the pool of `repro` and `lint_report`). Arg parsing fails before any
    // input is read, so no stdin is piped.
    for cmd in ["--jobs 2 -", "lint --jobs 2 -", "trace --jobs 2 -"] {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let out = rfhc(&args);
        assert_eq!(out.status.code(), Some(2), "{cmd}: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognized argument `--jobs`"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn config_flags_change_the_allocation() {
    // With a 2-entry ORF and no LRF the stats line must reflect the
    // requested configuration.
    let out = rfhc_stdin(&["--orf", "2", "--lrf", "none", "--stats", "-"], KERNEL);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 ORF entries"), "{stderr}");
    assert!(stderr.contains("no LRF"), "{stderr}");
    assert!(stderr.contains("0 LRF values"), "{stderr}");
}

// --- rfhc serve / rfhc client ------------------------------------------

#[test]
fn serve_without_an_endpoint_is_a_usage_error() {
    let out = rfhc(&["serve"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serve needs --tcp HOST:PORT or --unix PATH"),
        "{stderr}"
    );
}

#[test]
fn client_without_an_endpoint_is_a_usage_error() {
    let out = rfhc(&["client", "--op", "ping"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("client needs --tcp HOST:PORT or --unix PATH"),
        "{stderr}"
    );
}

#[test]
fn client_workload_and_file_are_mutually_exclusive() {
    let out = rfhc(&[
        "client",
        "--unix",
        "/tmp/does-not-matter.sock",
        "--workload",
        "vectoradd",
        "x.rfasm",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn client_connect_refused_exits_with_the_transport_code() {
    // No daemon on that socket: dialing fails even after retries, and
    // transport failures map to the protocol/transport exit code (9).
    let out = rfhc(&[
        "client",
        "--unix",
        "/nonexistent/rfhd-no-such-daemon.sock",
        "--op",
        "ping",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("daemon connection failed"), "{stderr}");
}

/// Spawns `rfhc serve --unix <sock>` with the given extra environment
/// and waits until the socket file exists (the daemon binds before it
/// prints anything, so the file is the readiness signal).
fn spawn_serve(sock: &std::path::Path, env: &[(&str, &str)]) -> std::process::Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfhc"));
    cmd.args(["serve", "--unix", sock.to_str().unwrap(), "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn rfhc serve");
    for _ in 0..100 {
        if sock.exists() {
            return child;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Reap the stuck daemon before failing so the test leaves no zombie.
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon socket never appeared at {}", sock.display());
}

fn client(sock: &std::path::Path, args: &[&str]) -> Output {
    let mut full = vec!["client", "--unix", sock.to_str().unwrap()];
    full.extend_from_slice(args);
    rfhc(&full)
}

#[test]
fn serve_client_round_trip_over_a_unix_socket() {
    let dir = std::env::temp_dir().join("rfhc-cli-daemon-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("roundtrip.sock");
    let _ = std::fs::remove_file(&sock);
    let child = spawn_serve(&sock, &[]);

    // A ping round-trips.
    let out = client(&sock, &["--op", "ping"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("pong"),
        "{out:?}"
    );

    // A malformed frame gets a structured protocol error frame back,
    // which the probe maps to exit code 9 — and the daemon survives it.
    let out = client(&sock, &["--malformed-probe"]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malformed-frame probe answered"),
        "{stderr}"
    );

    // A remote parse failure carries the local parse exit code (3).
    let out = rfhc_stdin(
        &[
            "client",
            "--unix",
            sock.to_str().unwrap(),
            "--op",
            "lint",
            "-",
        ],
        "not a kernel\n",
    );
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    // Still alive after both failures: a second ping succeeds, served
    // from the same process.
    let out = client(&sock, &["--op", "ping"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Shutdown drains: the serve process exits 0 and removes its socket.
    let out = client(&sock, &["--op", "shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let served = child.wait_with_output().expect("wait rfhc serve");
    assert_eq!(served.status.code(), Some(0), "{served:?}");
    assert!(!sock.exists(), "socket file survived the drain");
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert!(stderr.contains("rfhc serve: drained"), "{stderr}");
}

#[test]
fn malformed_rfhd_knobs_warn_and_fall_back() {
    // All three RFHD_* knobs follow the shared grammar: a malformed value
    // warns loudly on stderr and the daemon runs on its default.
    let dir = std::env::temp_dir().join("rfhc-cli-daemon-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("knobs.sock");
    let _ = std::fs::remove_file(&sock);
    let child = spawn_serve(
        &sock,
        &[
            ("RFHD_TIMEOUT_MS", "soon"),
            ("RFHD_QUEUE_DEPTH", "0"),
            ("RFHD_CACHE_ENTRIES", "0xGG"),
        ],
    );

    // Despite three bad knobs the daemon is healthy.
    let out = client(&sock, &["--op", "ping"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = client(&sock, &["--op", "shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let served = child.wait_with_output().expect("wait rfhc serve");
    assert_eq!(served.status.code(), Some(0), "{served:?}");
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert!(
        stderr.contains("warning: RFHD_TIMEOUT_MS=\"soon\" is not a valid integer"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: RFHD_QUEUE_DEPTH=0 is not a valid count"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: RFHD_CACHE_ENTRIES=\"0xGG\" is not a valid integer"),
        "{stderr}"
    );
}

#[test]
fn client_timeout_flag_bounds_a_runaway_kernel() {
    // An infinite loop submitted with a tight wall-clock timeout comes
    // back as a structured timeout (9) or budget-exhaustion (6) frame —
    // either way the isolation boundary held and the daemon lives on.
    let dir = std::env::temp_dir().join("rfhc-cli-daemon-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("timeout.sock");
    let _ = std::fs::remove_file(&sock);
    let child = spawn_serve(&sock, &[]);

    let spin = ".kernel spin\nBB0:\n  mov r0, %tid.x\n  iadd r0 r0, 1\n  bra BB0\n";
    let out = rfhc_stdin(
        &[
            "client",
            "--unix",
            sock.to_str().unwrap(),
            "--op",
            "simulate",
            "--timeout-ms",
            "100",
            "-",
        ],
        spin,
    );
    let code = out.status.code();
    assert!(
        code == Some(9) || code == Some(6),
        "spin must hit the timeout (9) or the instruction budget (6): {out:?}"
    );

    // The worker that ran the spin is reclaimed; the daemon still serves.
    let out = client(&sock, &["--op", "ping"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = client(&sock, &["--op", "shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let served = child.wait_with_output().expect("wait rfhc serve");
    assert_eq!(served.status.code(), Some(0), "{served:?}");
}

#[test]
fn timing_stdout_matches_the_library_path() {
    // Capture the same workload through the library and render its
    // result exactly as the CLI does.
    use rfh::sim::exec::{execute_with, ExecMode};
    use rfh::sim::timing::{simulate_timing, TimingConfig, TraceCapture};
    use rfh::sim::MachineConfig;

    let w = rfh::workloads::by_name("reduction").expect("known workload");
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
    .expect("timing simulation");
    let expected = format!(
        "cycles {} instructions {} deschedules {} ipc {:.4}\n",
        r.cycles,
        r.instructions,
        r.deschedules,
        r.ipc()
    );

    let out = rfhc(&["timing", "--workload", "reduction"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn invalid_timing_configs_exit_with_the_timing_code() {
    // active == 0 trips up-front config validation (exit 7, the timing
    // error class), not a panic and not silent degenerate scheduling.
    let out = rfhc(&["timing", "--workload", "vectoradd", "--active", "0"]);
    assert_eq!(out.status.code(), Some(7));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("active"), "stderr: {err}");

    // An oversized active set is the other half of the same contract.
    let out = rfhc(&["timing", "--workload", "vectoradd", "--active", "999"]);
    assert_eq!(out.status.code(), Some(7));
}

#[test]
fn timing_usage_errors_exit_with_the_usage_code() {
    for args in [
        &["timing"][..],
        &["timing", "--workload", "no-such-workload"],
        &["timing", "--workload", "vectoradd", "--sms", "1"],
        &["timing", "--workload", "vectoradd", "--uncontended"],
        &["timing", "--workload", "vectoradd", "--jobs", "2"],
    ] {
        let out = rfhc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn timing_workload_rejects_launch_flags() {
    // A workload brings its own launch geometry; `--ctas`/`--threads`
    // would be silently ignored, so they are refused instead.
    for extra in [
        &["--ctas", "2"][..],
        &["--threads", "32"],
        &["--ctas", "2", "--threads", "32"],
    ] {
        let mut args = vec!["timing", "--workload", "vectoradd"];
        args.extend_from_slice(extra);
        let out = rfhc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn timing_active_and_single_level_are_exclusive() {
    let out = rfhc(&[
        "timing",
        "--workload",
        "vectoradd",
        "--single-level",
        "--active",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn timing_of_a_wide_launch_is_pinned() {
    // 4 CTAs × 256 threads = 32 warps, the machine's full residency: the
    // single-level active set and the two-level eligible queue both hold
    // many warps. The figures are those of the original scan-every-warp
    // scheduler loop.
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/trace_golden.rfasm");
    let launch = ["--ctas", "4", "--threads", "256", kernel];
    for (flags, expected) in [
        (
            &["--single-level"][..],
            "cycles 961 instructions 928 deschedules 0 ipc 0.9657\n",
        ),
        (
            &["--active", "8", "--greedy"],
            "cycles 979 instructions 928 deschedules 0 ipc 0.9479\n",
        ),
    ] {
        let mut args = vec!["timing"];
        args.extend_from_slice(flags);
        args.extend_from_slice(&launch);
        let out = rfhc(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
    }
    // 8 CTAs × 256 threads = 64 warps cannot all be resident: a usage
    // error naming both warp counts, with nothing on stdout.
    let out = rfhc(&[
        "timing",
        "--single-level",
        "--ctas",
        "8",
        "--threads",
        "256",
        kernel,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("64 warps") && err.contains("32 resident"),
        "{err}"
    );
}
