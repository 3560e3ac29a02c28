//! `rfhc` — the standalone hierarchy compiler driver.
//!
//! Reads a kernel in the textual assembly format, runs strand marking,
//! liveness, and LRF/ORF/MRF allocation, and prints the annotated result
//! (or plain text with only the strand bits via `--plain`). The `lint`
//! subcommand runs the `rfh-lint` static analyzer instead of allocating;
//! the `trace` subcommand allocates, executes, and exports the structured
//! instruction trace (JSON lines, Chrome trace, or the per-strand energy
//! profile).
//!
//! ```text
//! rfhc [--orf N] [--lrf none|unified|split] [--no-partial] [--no-readop]
//!      [--hints] [--plain] [--stats] <kernel.rfasm | ->
//! rfhc lint [--orf N] [--lrf none|unified|split] [--json]
//!      [--deny-warnings] <kernel.rfasm | ->
//! rfhc trace [--orf N] [--lrf none|unified|split] [--no-partial]
//!      [--no-readop] [--hints] [--baseline] [--json | --chrome | --profile]
//!      [--ctas N] [--threads N] <kernel.rfasm | ->
//! ```
//!
//! `--hints` feeds the allocator compiler-assisted last-use hints from the
//! abstract interpreter (`rfh_analysis::absint`): reads proven to be a
//! value's final read release its ORF/LRF entry immediately, eliding
//! same-guard MRF safety copies. `--deny-warnings` makes `rfhc lint` exit
//! with the lint error code on *any* finding, notes included.
//!
//! The `timing` subcommand replays a captured instruction trace through
//! the cycle-level two-level-scheduler model of one SM
//! (`rfh::sim::timing`) and prints cycles, instructions, deschedules and
//! IPC. A launch with more warps than the machine holds resident is a
//! usage error.
//!
//! The `serve` subcommand runs the compile-service daemon (`rfh-rfhd`) in
//! the foreground; `client` sends it one request and prints the answer.
//! The daemon's load generator is rfhbench's `daemon_edit` workload.
//!
//! Exit codes are stable per error class (see `docs/ROBUSTNESS.md`):
//! 0 success, 1 I/O, 2 usage, 3 parse error, 4 invalid kernel, 5 bad
//! allocation config, 6 execution error, 8 lint errors, 9 daemon failure
//! (protocol violation, timeout, overload), 70 internal panic. `rfhc
//! lint` exits 0 when only warnings were found; `rfhc client` maps a
//! daemon error frame to the frame's own class code.

use std::io::Read;
use std::process::exit;

use rfh::alloc::{allocate_with_hints, AllocConfig, LrfMode, ORF_SIZES};
use rfh::energy::EnergyModel;
use rfh::{RfhError, EXIT_INTERNAL_PANIC};

const USAGE: &str = "usage: rfhc [--orf N] [--lrf none|unified|split] [--no-partial] \
     [--no-readop] [--hints] [--plain] [--stats] <kernel.rfasm | ->\n\
       rfhc lint [--orf N] [--lrf none|unified|split] [--json] [--deny-warnings] \
     <kernel.rfasm | ->\n\
       rfhc trace [--orf N] [--lrf none|unified|split] [--no-partial] [--no-readop] \
     [--hints] [--baseline]\n\
             [--json | --chrome | --profile] [--ctas N] [--threads N]\n\
             <kernel.rfasm | ->\n\
       rfhc timing [--active N | --single-level] [--greedy]\n\
             (--workload NAME | [--ctas N] [--threads N] <kernel.rfasm | ->)\n\
       rfhc serve (--tcp HOST:PORT | --unix PATH) [--workers N]\n\
       rfhc client (--tcp HOST:PORT | --unix PATH) [--op OP] [--workload NAME] \
     [--timeout-ms N]\n\
             [--malformed-probe] [<kernel.rfasm | ->]";

fn usage(msg: &str) -> RfhError {
    RfhError::Usage(format!("{msg}\n{USAGE}"))
}

/// Parses the `--orf` value shared by `rfhc`, `rfhc lint` and `rfhc
/// trace`: an ORF size the energy model can price.
fn orf_flag(value: Option<String>) -> Result<usize, RfhError> {
    let n: usize = value
        .ok_or_else(|| usage("--orf needs a value"))?
        .parse()
        .map_err(|_| usage("--orf needs an integer value"))?;
    if !ORF_SIZES.contains(&n) {
        return Err(usage(&format!(
            "--orf must be in {}..={}: other ORF sizes have no energy model",
            ORF_SIZES.start(),
            ORF_SIZES.end()
        )));
    }
    Ok(n)
}

/// Parses the `--lrf` value shared by `rfhc`, `rfhc lint` and `rfhc trace`.
fn lrf_flag(value: Option<String>) -> Result<LrfMode, RfhError> {
    value
        .as_deref()
        .and_then(LrfMode::parse)
        .ok_or_else(|| usage("--lrf needs none|unified|split"))
}

/// Parses the value of a flag that takes a positive integer (`--ctas`,
/// `--threads`).
fn positive_flag(value: Option<String>, flag: &str) -> Result<usize, RfhError> {
    value
        .and_then(|n| n.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .ok_or_else(|| usage(&format!("{flag} needs a positive integer")))
}

fn main() {
    // The libraries are panic-free by contract; a panic that reaches this
    // boundary is a toolchain bug and gets its own exit code so scripted
    // callers can tell it apart from every expected failure.
    let code = match std::panic::catch_unwind(real_main) {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("rfhc: {e}");
            e.exit_code()
        }
        Err(_) => {
            eprintln!("rfhc: internal error (panic); this is a bug");
            EXIT_INTERNAL_PANIC
        }
    };
    exit(code);
}

fn real_main() -> Result<(), RfhError> {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("lint") {
        args.next();
        return lint_main(args);
    }
    if args.peek().map(String::as_str) == Some("trace") {
        args.next();
        return trace_main(args);
    }
    if args.peek().map(String::as_str) == Some("timing") {
        args.next();
        return timing_main(args);
    }
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return serve_main(args);
    }
    if args.peek().map(String::as_str) == Some("client") {
        args.next();
        return client_main(args);
    }

    let mut config = AllocConfig::three_level(3, true);
    let mut hints = false;
    let mut plain = false;
    let mut stats_only = false;
    let mut input: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--orf" => config.orf_entries = orf_flag(args.next())?,
            "--lrf" => config.lrf = lrf_flag(args.next())?,
            "--no-partial" => config.partial_ranges = false,
            "--no-readop" => config.read_operands = false,
            "--hints" => hints = true,
            "--plain" => plain = true,
            "--stats" => stats_only = true,
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let path = input.ok_or_else(|| usage("no input file"))?;
    let text = read_input(&path)?;

    let mut kernel = rfh::isa::parse_kernel(&text)?;

    let stats = allocate_with_hints(&mut kernel, &config, &EnergyModel::paper(), hints)?;
    if stats.demoted > 0 {
        eprintln!(
            "rfhc: warning: internal placement validation failed; \
             kernel demoted to MRF-only placement ({} demotion)",
            stats.demoted
        );
    }
    if stats_only || !plain {
        eprintln!(
            "rfhc: {} — {} strands, {} LRF values, {} ORF values ({} partial), {} read operands",
            config,
            stats.strands,
            stats.lrf_values,
            stats.orf_values,
            stats.orf_partial,
            stats.read_operands
        );
    }
    if stats_only {
        return Ok(());
    }
    if plain {
        print!("{}", rfh::isa::printer::print_kernel(&kernel));
    } else {
        print!("{}", rfh::isa::printer::print_kernel_annotated(&kernel));
    }
    Ok(())
}

/// The `rfhc lint` subcommand: parse, validate, lint, render.
///
/// Diagnostics go to stdout (human lines, or JSON lines under `--json`);
/// the summary goes to stderr. Error-severity findings exit 8; warnings
/// and notes alone exit 0 — unless `--deny-warnings` turns *any* finding
/// into the lint exit code (for CI gates that keep reports empty).
fn lint_main(mut args: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<(), RfhError> {
    let mut options = rfh::lint::LintOptions::default();
    let mut json = false;
    let mut deny_warnings = false;
    let mut input: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--orf" => options.alloc.orf_entries = orf_flag(args.next())?,
            "--lrf" => options.alloc.lrf = lrf_flag(args.next())?,
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let path = input.ok_or_else(|| usage("no input file"))?;
    let text = read_input(&path)?;

    let kernel = rfh::isa::parse_kernel(&text)?;
    rfh::isa::validate(&kernel)?;

    let name = if path == "-" {
        "<stdin>"
    } else {
        path.as_str()
    };
    let diags = rfh::lint::lint_kernel(&kernel, &options);
    for d in &diags {
        if json {
            println!("{}", rfh::lint::json_line(name, d));
        } else {
            println!("{}", rfh::lint::human_line(name, d));
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity() == rfh::lint::Severity::Error)
        .count();
    let notes = diags
        .iter()
        .filter(|d| d.severity() == rfh::lint::Severity::Note)
        .count();
    let warnings = diags.len() - errors - notes;
    eprintln!("rfhc lint: {errors} error(s), {warnings} warning(s), {notes} note(s)");
    if errors > 0 {
        return Err(RfhError::Lint { errors });
    }
    if deny_warnings && !diags.is_empty() {
        eprintln!("rfhc lint: --deny-warnings treats every finding as an error");
        return Err(RfhError::Lint {
            errors: diags.len(),
        });
    }
    Ok(())
}

/// Output format of `rfhc trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Json,
    Chrome,
    Profile,
}

/// The `rfhc trace` subcommand: parse, allocate (unless `--baseline`),
/// execute, and export the structured trace.
///
/// The trace goes to stdout in the selected format (JSON lines by
/// default); a one-line summary goes to stderr. The executor feeds the
/// exporter and the per-strand energy profiler side by side.
fn trace_main(mut args: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<(), RfhError> {
    let mut config = AllocConfig::three_level(3, true);
    let mut hints = false;
    let mut baseline = false;
    let mut format = TraceFormat::Json;
    let mut ctas: usize = 1;
    let mut threads: usize = 64;
    let mut input: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--orf" => config.orf_entries = orf_flag(args.next())?,
            "--lrf" => config.lrf = lrf_flag(args.next())?,
            "--no-partial" => config.partial_ranges = false,
            "--no-readop" => config.read_operands = false,
            "--hints" => hints = true,
            "--baseline" => baseline = true,
            "--json" => format = TraceFormat::Json,
            "--chrome" => format = TraceFormat::Chrome,
            "--profile" => format = TraceFormat::Profile,
            "--ctas" => ctas = positive_flag(args.next(), "--ctas")?,
            "--threads" => threads = positive_flag(args.next(), "--threads")?,
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let path = input.ok_or_else(|| usage("no input file"))?;
    let text = read_input(&path)?;

    let mut kernel = rfh::isa::parse_kernel(&text)?;
    let mode = if baseline {
        rfh::isa::validate(&kernel)?;
        rfh::sim::ExecMode::Baseline
    } else {
        allocate_with_hints(&mut kernel, &config, &EnergyModel::paper(), hints)?;
        rfh::sim::ExecMode::Hierarchy(config)
    };

    let mut exporter = rfh::sim::TraceExporter::new(&kernel);
    let mut profiler =
        rfh::sim::EnergyProfiler::new(&kernel, EnergyModel::paper(), config.orf_entries);

    let launch = rfh::sim::Launch::new(ctas, threads);
    let mut mem = rfh::sim::GlobalMemory::new(1 << 16);
    let machine = rfh::sim::MachineConfig::paper();
    rfh::sim::exec::execute_with(
        &kernel,
        &launch,
        &mut mem,
        mode,
        &machine,
        &mut [&mut exporter, &mut profiler],
    )?;

    match format {
        TraceFormat::Json => print!("{}", exporter.json_lines()),
        TraceFormat::Chrome => print!("{}", exporter.chrome_trace()),
        TraceFormat::Profile => print!("{}", profiler.render()),
    }
    eprintln!(
        "rfhc trace: {} — {} strand(s), total energy {:.3} pJ",
        exporter.summary(),
        profiler.per_strand().len(),
        profiler.total_energy().total()
    );
    Ok(())
}

/// The `rfhc timing` subcommand: capture a baseline instruction trace
/// and replay it through the cycle-level scheduler model.
///
/// The kernel comes from `--workload NAME` (a paper-suite workload with
/// its own launch geometry and memory image) or a kernel file launched
/// as `--ctas` × `--threads`; the result goes to stdout as one line and a
/// summary to stderr. The model replays every warp as resident, so a
/// launch with more warps than the machine holds is a usage error.
fn timing_main(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<(), RfhError> {
    use rfh::sim::timing::{check_resident, simulate_timing, TimingConfig, TraceCapture};

    let mut active: Option<usize> = None;
    let mut single_level = false;
    let mut greedy = false;
    let mut ctas: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut workload: Option<String> = None;
    let mut input: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--active" => {
                active = Some(
                    args.next()
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| usage("--active needs an integer value"))?,
                )
            }
            "--single-level" => single_level = true,
            "--greedy" => greedy = true,
            "--ctas" => ctas = Some(positive_flag(args.next(), "--ctas")?),
            "--threads" => threads = Some(positive_flag(args.next(), "--threads")?),
            "--workload" => {
                workload = Some(
                    args.next()
                        .ok_or_else(|| usage("--workload needs a name"))?,
                )
            }
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    if single_level && active.is_some() {
        return Err(usage("--active and --single-level are mutually exclusive"));
    }

    // The trace source: a paper-suite workload (own launch geometry and
    // memory image) or a kernel file under `--ctas`/`--threads`.
    let machine = rfh::sim::MachineConfig::paper();
    let (name, kernel, launch, mut mem) = match (&workload, &input) {
        (Some(_), Some(_)) => {
            return Err(usage("--workload and a kernel file are mutually exclusive"))
        }
        (Some(_), None) if ctas.is_some() || threads.is_some() => {
            return Err(usage(
                "--ctas and --threads apply to a kernel file; a workload has its own launch",
            ))
        }
        (Some(name), None) => {
            let w = rfh::workloads::by_name(name).ok_or_else(|| {
                usage(&format!(
                    "unknown workload `{name}` (see `rfh::workloads::all`)"
                ))
            })?;
            (w.name.to_string(), w.kernel, w.launch, w.memory)
        }
        (None, Some(path)) => {
            let text = read_input(path)?;
            let kernel = rfh::isa::parse_kernel(&text)?;
            rfh::isa::validate(&kernel)?;
            (
                path.clone(),
                kernel,
                rfh::sim::Launch::new(ctas.unwrap_or(1), threads.unwrap_or(64)),
                rfh::sim::GlobalMemory::new(1 << 16),
            )
        }
        (None, None) => return Err(usage("timing needs --workload NAME or a kernel file")),
    };
    check_resident(&launch, &machine).map_err(|e| RfhError::Usage(e.to_string()))?;

    let mut cap = TraceCapture::new(machine.clone(), launch.threads_per_cta);
    rfh::sim::exec::execute_with(
        &kernel,
        &launch,
        &mut mem,
        rfh::sim::ExecMode::Baseline,
        &machine,
        &mut [&mut cap],
    )?;

    let mut config = if single_level {
        TimingConfig::single_level()
    } else {
        TimingConfig::two_level(active.unwrap_or(8))
    };
    if greedy {
        config = config.with_policy(rfh::sim::SchedPolicy::Greedy);
    }

    let result = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &config)?;
    println!(
        "cycles {} instructions {} deschedules {} ipc {:.4}",
        result.cycles,
        result.instructions,
        result.deschedules,
        result.ipc()
    );
    eprintln!(
        "rfhc timing: {name} — {} warp(s) in {} CTA(s), IPC {:.4}",
        cap.traces.len(),
        launch.ctas,
        result.ipc()
    );
    Ok(())
}

/// Parses the shared `--tcp HOST:PORT | --unix PATH` endpoint flags.
/// Returns `None` when the argument is not an endpoint flag.
fn parse_endpoint_flag(
    arg: &str,
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    endpoint: &mut Option<rfh::rfhd::Endpoint>,
) -> Result<bool, RfhError> {
    match arg {
        "--tcp" => {
            let addr = args.next().ok_or_else(|| usage("--tcp needs HOST:PORT"))?;
            *endpoint = Some(rfh::rfhd::Endpoint::Tcp(addr));
            Ok(true)
        }
        "--unix" => {
            let path = args.next().ok_or_else(|| usage("--unix needs a path"))?;
            *endpoint = Some(rfh::rfhd::Endpoint::Unix(path.into()));
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// The `rfhc serve` subcommand: run the compile-service daemon in the
/// foreground until a `shutdown` request drains it.
///
/// The `RFHD_TIMEOUT_MS`, `RFHD_QUEUE_DEPTH`, and `RFHD_CACHE_ENTRIES`
/// environment knobs configure the per-request wall-clock timeout, the
/// accept-queue depth, and the result-cache capacity; all three follow
/// the shared knob grammar (decimal or `0x`-hex, loud warning and
/// fallback on a malformed value).
fn serve_main(mut args: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<(), RfhError> {
    let mut endpoint: Option<rfh::rfhd::Endpoint> = None;
    let mut workers: Option<usize> = None;
    while let Some(arg) = args.next() {
        if parse_endpoint_flag(&arg, &mut args, &mut endpoint)? {
            continue;
        }
        match arg.as_str() {
            "--workers" => {
                let raw = args
                    .next()
                    .ok_or_else(|| usage("--workers needs a value"))?;
                workers = Some(
                    rfh_testkit::env::parse_positive_usize("--workers", &raw)
                        .ok_or_else(|| usage("--workers needs a positive integer"))?,
                );
            }
            "--help" | "-h" => return Err(usage("")),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| usage("serve needs --tcp HOST:PORT or --unix PATH"))?;
    let mut cfg = rfh::rfhd::ServerConfig::from_env(endpoint);
    if let Some(w) = workers {
        cfg.workers = w;
    }
    let server = rfh::rfhd::Server::bind(cfg).map_err(|e| RfhError::Daemon {
        message: format!("cannot bind: {e}"),
        code: 9,
    })?;
    eprintln!("rfhc serve: listening on {}", server.endpoint());
    let report = server.run().map_err(|e| RfhError::Daemon {
        message: format!("accept loop failed: {e}"),
        code: 9,
    })?;
    eprintln!(
        "rfhc serve: drained — {} served, {} shed, {} timeout(s), {} compute panic(s), \
         {} pool panic(s), {} in flight",
        report.served,
        report.shed,
        report.timeouts,
        report.compute_panics,
        report.pool_panics,
        report.in_flight_at_exit
    );
    Ok(())
}

/// The `rfhc client` subcommand: one request against a daemon.
///
/// Sends `--op` (default `ping`) with either a kernel file (positional,
/// `-` for stdin) or `--workload NAME`, prints the `result` JSON on
/// stdout, and exits with the error frame's own class code on failure —
/// remote failures script exactly like local ones.
fn client_main(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<(), RfhError> {
    let mut endpoint: Option<rfh::rfhd::Endpoint> = None;
    let mut op = "ping".to_string();
    let mut workload: Option<String> = None;
    let mut input: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut malformed = false;

    while let Some(arg) = args.next() {
        if parse_endpoint_flag(&arg, &mut args, &mut endpoint)? {
            continue;
        }
        match arg.as_str() {
            "--op" => op = args.next().ok_or_else(|| usage("--op needs a value"))?,
            "--workload" => {
                workload = Some(
                    args.next()
                        .ok_or_else(|| usage("--workload needs a name"))?,
                )
            }
            "--timeout-ms" => {
                let raw = args
                    .next()
                    .ok_or_else(|| usage("--timeout-ms needs a value"))?;
                timeout_ms = Some(
                    rfh_testkit::env::parse_u64("--timeout-ms", &raw)
                        .ok_or_else(|| usage("--timeout-ms needs an integer"))?,
                );
            }
            "--malformed-probe" => malformed = true,
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| usage("client needs --tcp HOST:PORT or --unix PATH"))?;

    if malformed {
        // Diagnostic: send a deliberately malformed frame. A healthy
        // daemon answers a structured `protocol` error frame; the probe
        // then exits with that frame's class code (9), exactly as any
        // request reporting that class would — so the CI smoke can
        // assert the framing layer fails closed.
        return match rfh::rfhd::malformed_probe(&endpoint) {
            Ok(frame) => Err(RfhError::Daemon {
                code: frame.kind.exit_code(),
                message: format!("malformed-frame probe answered: {frame}"),
            }),
            Err(e) => Err(RfhError::Daemon {
                code: e.exit_code(),
                message: format!("malformed-frame probe misbehaved: {e}"),
            }),
        };
    }

    let mut fields = vec![("op".to_string(), rfh::rfhd::Json::str(&op))];
    match (&workload, &input) {
        (Some(_), Some(_)) => {
            return Err(usage("--workload and a kernel file are mutually exclusive"))
        }
        (Some(name), None) => {
            fields.push(("workload".to_string(), rfh::rfhd::Json::str(name)));
        }
        (None, Some(path)) => {
            let text = read_input(path)?;
            fields.push(("kernel".to_string(), rfh::rfhd::Json::str(&text)));
        }
        (None, None) => {}
    }
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms".to_string(), rfh::rfhd::Json::u64(ms)));
    }
    let mut client = rfh::rfhd::Client::new(endpoint, rfh::rfhd::RetryPolicy::default());
    match client.request(fields) {
        Ok((result, cached)) => {
            println!("{}", result.render());
            if cached {
                eprintln!("rfhc client: served from daemon cache");
            }
            Ok(())
        }
        Err(e) => Err(RfhError::Daemon {
            code: e.exit_code(),
            message: e.to_string(),
        }),
    }
}

/// Reads the kernel text from a file path or stdin (`-`).
fn read_input(path: &str) -> Result<String, RfhError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|source| RfhError::Io {
                path: "-".into(),
                source,
            })?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|source| RfhError::Io {
            path: path.to_string(),
            source,
        })
    }
}
