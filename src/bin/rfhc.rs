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
//!      [--hints] [--plain] [--stats] [--jobs N] <kernel.rfasm | ->
//! rfhc lint [--orf N] [--lrf none|unified|split] [--json]
//!      [--deny-warnings] [--jobs N] <kernel.rfasm | ->
//! rfhc trace [--orf N] [--lrf none|unified|split] [--no-partial]
//!      [--no-readop] [--hints] [--baseline] [--json | --chrome | --profile]
//!      [--ctas N] [--threads N] [--jobs N] <kernel.rfasm | ->
//! ```
//!
//! `--hints` feeds the allocator compiler-assisted last-use hints from the
//! abstract interpreter (`rfh_analysis::absint`): reads proven to be a
//! value's final read release its ORF/LRF entry immediately, eliding
//! same-guard MRF safety copies. `--deny-warnings` makes `rfhc lint` exit
//! with the lint error code on *any* finding, notes included.
//!
//! The `timing` subcommand replays a captured instruction trace through
//! the cycle-level two-level-scheduler model (`rfh::sim::timing`) across
//! `--sms N` SM contexts sharing a contended memory model, and prints the
//! per-SM and chip-level results; the output is byte-identical at any
//! `--jobs` count.
//!
//! The `serve` subcommand runs the compile-service daemon (`rfh-rfhd`) in
//! the foreground; `client` drives it — one request, or the
//! `--replay-workloads` / `--edit-replay` load generators.
//!
//! Exit codes are stable per error class (see `docs/ROBUSTNESS.md`):
//! 0 success, 1 I/O, 2 usage, 3 parse error, 4 invalid kernel, 5 bad
//! allocation config, 6 execution error, 8 lint errors, 9 daemon failure
//! (protocol violation, timeout, overload), 70 internal panic. `rfhc
//! lint` exits 0 when only warnings were found; `rfhc client` maps a
//! daemon error frame to the frame's own class code.

use std::io::Read;
use std::process::exit;

use rfh::alloc::{allocate_with_hints, AllocConfig, LrfMode};
use rfh::energy::EnergyModel;
use rfh::{RfhError, EXIT_INTERNAL_PANIC};

const USAGE: &str = "usage: rfhc [--orf N] [--lrf none|unified|split] [--no-partial] \
     [--no-readop] [--hints] [--plain] [--stats] [--jobs N] <kernel.rfasm | ->\n\
       rfhc lint [--orf N] [--lrf none|unified|split] [--json] [--deny-warnings] \
     [--jobs N] <kernel.rfasm | ->\n\
       rfhc trace [--orf N] [--lrf none|unified|split] [--no-partial] [--no-readop] \
     [--hints] [--baseline]\n\
             [--json | --chrome | --profile] [--ctas N] [--threads N] [--jobs N]\n\
             <kernel.rfasm | ->\n\
       rfhc timing [--sms N] [--active N | --single-level] [--greedy]\n\
             [--uncontended] [--ctas N] [--threads N] [--jobs N] \
     (--workload NAME | <kernel.rfasm | ->)\n\
       rfhc serve (--tcp HOST:PORT | --unix PATH) [--workers N]\n\
       rfhc client (--tcp HOST:PORT | --unix PATH) [--op OP] [--workload NAME] \
     [--timeout-ms N]\n\
             [--replay-workloads [--jobs N] [--rounds N]] [--edit-replay]\n\
             [--malformed-probe] [<kernel.rfasm | ->]";

fn usage(msg: &str) -> RfhError {
    RfhError::Usage(format!("{msg}\n{USAGE}"))
}

/// Applies `--jobs N`: overrides the `RFH_JOBS` pool knob for the rest of
/// the process. Parsed through the shared knob grammar, so a malformed
/// value warns loudly on stderr and falls back (exactly like a malformed
/// `RFH_JOBS` env var) instead of inventing a third behavior.
fn set_jobs(raw: &str) {
    if let Some(n) = rfh_testkit::env::parse_positive_usize("--jobs", raw) {
        std::env::set_var("RFH_JOBS", n.to_string());
    }
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
            "--orf" => {
                let n = args.next().ok_or_else(|| usage("--orf needs a value"))?;
                config.orf_entries = n
                    .parse()
                    .map_err(|_| usage("--orf needs an integer value"))?;
                if config.orf_entries > 8 {
                    return Err(usage("ORF sizes beyond 8 entries have no energy model"));
                }
            }
            "--lrf" => {
                config.lrf = match args.next().as_deref() {
                    Some("none") => LrfMode::None,
                    Some("unified") => LrfMode::Unified,
                    Some("split") => LrfMode::Split,
                    _ => return Err(usage("--lrf needs none|unified|split")),
                }
            }
            "--no-partial" => config.partial_ranges = false,
            "--no-readop" => config.read_operands = false,
            "--hints" => hints = true,
            "--plain" => plain = true,
            "--stats" => stats_only = true,
            "--jobs" => set_jobs(&args.next().ok_or_else(|| usage("--jobs needs a value"))?),
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
            "--orf" => {
                let n = args.next().ok_or_else(|| usage("--orf needs a value"))?;
                options.alloc.orf_entries = n
                    .parse()
                    .map_err(|_| usage("--orf needs an integer value"))?;
            }
            "--lrf" => {
                options.alloc.lrf = match args.next().as_deref() {
                    Some("none") => LrfMode::None,
                    Some("unified") => LrfMode::Unified,
                    Some("split") => LrfMode::Split,
                    _ => return Err(usage("--lrf needs none|unified|split")),
                }
            }
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--jobs" => set_jobs(&args.next().ok_or_else(|| usage("--jobs needs a value"))?),
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
/// default); a one-line summary goes to stderr. The whole observer stack
/// — exporter, per-strand energy profiler, access counter — hangs off one
/// `FanoutSink`, so the executor sees a single sink.
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
            "--orf" => {
                let n = args.next().ok_or_else(|| usage("--orf needs a value"))?;
                config.orf_entries = n
                    .parse()
                    .map_err(|_| usage("--orf needs an integer value"))?;
                if config.orf_entries > 8 {
                    return Err(usage("ORF sizes beyond 8 entries have no energy model"));
                }
            }
            "--lrf" => {
                config.lrf = match args.next().as_deref() {
                    Some("none") => LrfMode::None,
                    Some("unified") => LrfMode::Unified,
                    Some("split") => LrfMode::Split,
                    _ => return Err(usage("--lrf needs none|unified|split")),
                }
            }
            "--no-partial" => config.partial_ranges = false,
            "--no-readop" => config.read_operands = false,
            "--hints" => hints = true,
            "--baseline" => baseline = true,
            "--json" => format = TraceFormat::Json,
            "--chrome" => format = TraceFormat::Chrome,
            "--profile" => format = TraceFormat::Profile,
            "--ctas" => {
                ctas = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| usage("--ctas needs a positive integer"))?;
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| usage("--threads needs a positive integer"))?;
            }
            "--jobs" => set_jobs(&args.next().ok_or_else(|| usage("--jobs needs a value"))?),
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
    let mut counter = rfh::sim::SwCounter::default();
    let mut fan = rfh::sim::FanoutSink::new()
        .with(&mut exporter)
        .with(&mut profiler)
        .with(&mut counter);

    let launch = rfh::sim::Launch::new(ctas, threads);
    let mut mem = rfh::sim::GlobalMemory::new(1 << 16);
    let machine = rfh::sim::MachineConfig::paper();
    rfh::sim::exec::execute_with(&kernel, &launch, &mut mem, mode, &machine, &mut [&mut fan])?;

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
/// and replay it through the cycle-level scheduler model across `--sms`
/// SM contexts.
///
/// The kernel comes from `--workload NAME` (a paper-suite workload with
/// its own launch geometry and memory image) or a kernel file; the
/// per-SM result table goes to stdout and a chip-level summary to
/// stderr. SMs simulate in parallel over the worker pool with results
/// folded in SM order, so the output is byte-identical at any `--jobs`
/// count.
fn timing_main(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<(), RfhError> {
    use rfh::sim::timing::{MemoryModel, MultiSmConfig, TimingConfig, TraceCapture};

    let mut sms: usize = 1;
    let mut active: usize = 8;
    let mut single_level = false;
    let mut greedy = false;
    let mut uncontended = false;
    let mut ctas: usize = 1;
    let mut threads: usize = 64;
    let mut workload: Option<String> = None;
    let mut input: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sms" => {
                sms = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| usage("--sms needs a positive integer"))?;
            }
            "--active" => {
                active = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| usage("--active needs an integer value"))?;
            }
            "--single-level" => single_level = true,
            "--greedy" => greedy = true,
            "--uncontended" => uncontended = true,
            "--ctas" => {
                ctas = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| usage("--ctas needs a positive integer"))?;
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| usage("--threads needs a positive integer"))?;
            }
            "--workload" => {
                workload = Some(
                    args.next()
                        .ok_or_else(|| usage("--workload needs a name"))?,
                )
            }
            "--jobs" => set_jobs(&args.next().ok_or_else(|| usage("--jobs needs a value"))?),
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }

    // The trace source: a paper-suite workload (own launch geometry and
    // memory image) or a kernel file under `--ctas`/`--threads`.
    let machine = rfh::sim::MachineConfig::paper();
    let (name, kernel, launch, mut mem) = match (&workload, &input) {
        (Some(_), Some(_)) => {
            return Err(usage("--workload and a kernel file are mutually exclusive"))
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
                rfh::sim::Launch::new(ctas, threads),
                rfh::sim::GlobalMemory::new(1 << 16),
            )
        }
        (None, None) => return Err(usage("timing needs --workload NAME or a kernel file")),
    };

    let mut cap = TraceCapture::new(machine.clone(), launch.threads_per_cta);
    rfh::sim::exec::execute_with(
        &kernel,
        &launch,
        &mut mem,
        rfh::sim::ExecMode::Baseline,
        &machine,
        &mut [&mut cap],
    )?;

    let mut per_sm = if single_level {
        TimingConfig::single_level()
    } else {
        TimingConfig::two_level(active)
    };
    if greedy {
        per_sm = per_sm.with_policy(rfh::sim::SchedPolicy::Greedy);
    }
    let mut config = MultiSmConfig::new(sms, per_sm);
    if uncontended {
        config = config.with_memory(MemoryModel::uncontended());
    }

    let result = rfh::sim::timing::simulate_multi_sm(&cap.traces, &|w| cap.cta_of(w), &config)?;
    for s in &result.per_sm {
        println!(
            "sm {}: ctas {} warps {} cycles {} instructions {} deschedules {} ipc {:.4}",
            s.sm,
            s.ctas,
            s.warps,
            s.result.cycles,
            s.result.instructions,
            s.result.deschedules,
            s.result.ipc()
        );
    }
    println!(
        "total: sms {} cycles {} instructions {} deschedules {} ipc {:.4}",
        sms,
        result.cycles(),
        result.instructions(),
        result.deschedules(),
        result.ipc()
    );
    eprintln!(
        "rfhc timing: {name} — {} warp(s) in {} CTA(s) across {sms} SM(s), chip IPC {:.4}",
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

/// The `rfhc client` subcommand: one request against a daemon, or the
/// `--replay-workloads` load generator.
///
/// Single-request mode sends `--op` (default `ping`) with either a
/// kernel file (positional, `-` for stdin) or `--workload NAME`, prints
/// the `result` JSON on stdout, and exits with the error frame's own
/// class code on failure — remote failures script exactly like local
/// ones.
fn client_main(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<(), RfhError> {
    let mut endpoint: Option<rfh::rfhd::Endpoint> = None;
    let mut op = "ping".to_string();
    let mut workload: Option<String> = None;
    let mut input: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut replay = false;
    let mut edit = false;
    let mut malformed = false;
    let mut rounds: usize = 2;
    let mut jobs: usize = rfh_testkit::pool::jobs();

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
            "--replay-workloads" => replay = true,
            "--edit-replay" => edit = true,
            "--malformed-probe" => malformed = true,
            "--rounds" => {
                let raw = args.next().ok_or_else(|| usage("--rounds needs a value"))?;
                rounds = rfh_testkit::env::parse_positive_usize("--rounds", &raw)
                    .ok_or_else(|| usage("--rounds needs a positive integer"))?;
            }
            "--jobs" => {
                let raw = args.next().ok_or_else(|| usage("--jobs needs a value"))?;
                jobs = rfh_testkit::env::parse_positive_usize("--jobs", &raw)
                    .ok_or_else(|| usage("--jobs needs a positive integer"))?;
            }
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

    if replay {
        let report =
            rfh::rfhd::replay_workloads(&endpoint, jobs, rounds, rfh::rfhd::RetryPolicy::default());
        eprintln!(
            "rfhc client: replayed {} request(s) with {} job(s) in {} ms — {} ok \
             ({} cached), {} failed",
            report.entries.len(),
            report.jobs,
            report.wall_ms,
            report.ok(),
            report.cached(),
            report.failed()
        );
        if report.failed() > 0 {
            return Err(RfhError::Daemon {
                message: format!("{} replay request(s) failed", report.failed()),
                code: 9,
            });
        }
        if !edit {
            return Ok(());
        }
    }

    if edit {
        // The before/after of incremental allocation: allocate every
        // workload cold, edit one immediate (one strand), allocate again;
        // the daemon's strand cache must splice every unchanged strand.
        let report = rfh::rfhd::edit_replay(&endpoint, jobs, rfh::rfhd::RetryPolicy::default());
        eprintln!(
            "rfhc client: edit-replayed {} workload(s) with {} job(s) in {} ms — \
             {} fully spliced, {} failed ({} strands: {} cold misses, {} edit hits, \
             {} edit misses)",
            report.entries.len(),
            report.jobs,
            report.wall_ms,
            report.fully_spliced(),
            report.failed(),
            report.entries.iter().map(|e| e.strands).sum::<u64>(),
            report.entries.iter().map(|e| e.cold_misses).sum::<u64>(),
            report.entries.iter().map(|e| e.edit_hits).sum::<u64>(),
            report.entries.iter().map(|e| e.edit_misses).sum::<u64>(),
        );
        if report.failed() > 0 {
            return Err(RfhError::Daemon {
                message: format!("{} edit-replay workload(s) failed", report.failed()),
                code: 9,
            });
        }
        return Ok(());
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
