//! Request decoding and per-op compute: the pure part of the daemon.
//!
//! [`decode_request`] turns a parsed JSON document into a typed
//! [`Request`] (or a structured usage/protocol error frame), and
//! [`handle_with`] runs one compute op to a `Result<Json, ErrorFrame>`.
//! Everything here is synchronous and side-effect-free — timeouts, panic
//! isolation, caching, and socket I/O live in [`crate::server`], which
//! wraps these functions.
//!
//! Each [`Op`] holds exactly the fields its handler reads, so two
//! requests that differ only in a field their op ignores decode to equal
//! ops; the server keys its result cache on the op itself.
//!
//! Every pipeline error maps onto the wire taxonomy exactly as `rfhc`
//! maps it onto exit codes: parse failures are [`ErrorKind::Parse`],
//! structural invalidity is [`ErrorKind::InvalidKernel`], and so on, so a
//! client scripting the daemon sees the same failure classes as a script
//! driving the CLI.

use std::sync::Arc;

use rfh_alloc::{
    allocate_incremental, AllocConfig, AllocError, IncrementalStats, LrfMode, StrandAllocation,
    ORF_SIZES,
};
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::Kernel;
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with, ExecMode, ExecReport, Launch};
use rfh_sim::machine::MachineConfig;
use rfh_sim::mem::GlobalMemory;
use rfh_sim::timing::{check_resident, simulate_timing, TimingConfig, TraceCapture};
use rfh_sim::{TraceExporter, TraceSink};
use rfh_workloads::Workload;

use crate::cache::Store;
use crate::json::Json;
use crate::proto::{ErrorFrame, ErrorKind, SCHEMA};

/// Default global-memory words for kernels submitted as raw text (64 K
/// words, matching `rfhc trace`).
const TEXT_KERNEL_MEM_WORDS: usize = 1 << 16;

/// Where a static op's kernel comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KernelSource {
    /// Raw assembly text supplied in the request.
    Text(String),
    /// The name of a benchmark workload the daemon knows
    /// (`rfh_workloads::by_name`).
    Workload(String),
}

/// Where an executing op's kernel comes from, with its launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RunSource {
    /// Raw assembly text, launched as `ctas` CTAs of `threads` threads
    /// over a zeroed memory image.
    Text {
        text: String,
        ctas: usize,
        threads: usize,
    },
    /// A benchmark workload, with its own launch geometry, input memory,
    /// and host reference checker.
    Workload(String),
}

/// A kernel to execute under a per-warp instruction budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Run {
    /// The kernel and its launch.
    pub source: RunSource,
    /// Per-request instruction budget override (capped by the server).
    pub budget_instructions: Option<u64>,
}

/// How a `simulate` places registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Execute unallocated; price the counts at `orf_entries` ORF
    /// entries.
    Baseline { orf_entries: usize },
    /// Allocate under this configuration and execute the hierarchy.
    Allocated(AllocConfig),
}

/// One decoded operation, holding exactly the fields its handler reads.
/// `Stats` and `Shutdown` are control ops handled by the server itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Parse (and validate) kernel text; return the canonical form.
    Assemble(KernelSource),
    /// Run the static analyzer under an allocation configuration.
    Lint(KernelSource, AllocConfig),
    /// Run the hierarchy allocator; return the annotated kernel.
    Allocate(KernelSource, AllocConfig),
    /// Execute functionally; return the report, access counts, energy.
    Simulate { run: Run, placement: Placement },
    /// Execute the unallocated kernel, capture its dynamic trace, and
    /// replay it through the two-level scheduler at `active_warps`.
    /// Placement sets energy, not latency, so the op holds no
    /// configuration; a launch with more warps than the machine holds
    /// resident is a usage error.
    Timing {
        run: Run,
        budget_cycles: Option<u64>,
        active_warps: usize,
    },
    /// Execute and export the structured instruction trace, allocated
    /// under `config` unless it is `None`.
    Trace {
        run: Run,
        config: Option<AllocConfig>,
    },
    /// Daemon statistics (server-handled).
    Stats,
    /// Graceful drain-then-exit (server-handled).
    Shutdown,
}

/// A decoded, validated `rfhd-v1` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Per-request wall-clock timeout override (capped by the server).
    pub timeout_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// The per-strand allocation cache shared across requests: strand
/// fingerprints ([`rfh_alloc::strand_fingerprint`]) map to cached
/// [`StrandAllocation`]s, so an edited kernel re-runs analysis +
/// allocation only for the strands whose content changed.
pub type StrandStore = Store<String, Arc<StrandAllocation>>;

/// Runs hierarchy allocation through `strands`; without a store every
/// strand misses and nothing is kept. Either way the kernel and stats
/// equal a plain [`rfh_alloc::allocate`] run.
fn allocate_via(
    kernel: &mut Kernel,
    config: &AllocConfig,
    strands: Option<&StrandStore>,
) -> Result<(rfh_alloc::AllocStats, IncrementalStats), AllocError> {
    allocate_incremental(
        kernel,
        config,
        &EnergyModel::paper(),
        &mut |fp| strands?.get(&fp.to_owned()).map(|a| (*a).clone()),
        &mut |fp, sa| {
            if let Some(store) = strands {
                store.insert(fp.to_owned(), Arc::new(sa.clone()));
            }
        },
    )
}

fn usage(msg: impl Into<String>) -> ErrorFrame {
    ErrorFrame::new(ErrorKind::Usage, msg)
}

/// The optional member `field` of `obj`: absent is `None`, and present
/// but not an unsigned integer is a usage error, never the default.
fn unsigned(obj: &Json, field: &str) -> Result<Option<u64>, ErrorFrame> {
    obj.get(field)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| usage(format!("`{field}` must be an unsigned integer")))
        })
        .transpose()
}

/// As [`unsigned`], for a boolean member the frame calls `name`.
fn boolean(obj: &Json, field: &str, name: &str) -> Result<Option<bool>, ErrorFrame> {
    obj.get(field)
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| usage(format!("{name} must be a boolean")))
        })
        .transpose()
}

/// Every field a request may carry, validated: the record each op takes
/// its own fields from.
struct Fields {
    config: AllocConfig,
    baseline: bool,
    ctas: usize,
    threads: usize,
    active_warps: usize,
    budget_instructions: Option<u64>,
    budget_cycles: Option<u64>,
}

impl Fields {
    /// Validates every field, whether or not the op reads it: a request
    /// is outside input.
    fn decode(doc: &Json) -> Result<Fields, ErrorFrame> {
        let mut config = AllocConfig::three_level(3, true);
        if let Some(c) = doc.get("config") {
            if !matches!(c, Json::Obj(_)) {
                return Err(usage("`config` must be an object"));
            }
            if let Some(orf) = c.get("orf") {
                config.orf_entries = orf
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|n| ORF_SIZES.contains(n))
                    .ok_or_else(|| {
                        usage(format!(
                            "config.orf must be in {}..={} (energy model bound)",
                            ORF_SIZES.start(),
                            ORF_SIZES.end()
                        ))
                    })?;
            }
            if let Some(lrf) = c.get("lrf") {
                let lrf = lrf
                    .as_str()
                    .ok_or_else(|| usage("config.lrf must be a string: none|unified|split"))?;
                config.lrf = LrfMode::parse(lrf)
                    .ok_or_else(|| usage(format!("config.lrf `{lrf}` not none|unified|split")))?;
            }
            if let Some(p) = boolean(c, "partial", "config.partial")? {
                config.partial_ranges = p;
            }
            if let Some(r) = boolean(c, "readop", "config.readop")? {
                config.read_operands = r;
            }
        }
        let geometry = |field: &str, default: usize| -> Result<usize, ErrorFrame> {
            match doc.get(field) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .map(|n| n as usize)
                    .filter(|&n| (1..=4096).contains(&n))
                    .ok_or_else(|| usage(format!("`{field}` must be an integer in 1..=4096"))),
            }
        };
        Ok(Fields {
            config,
            baseline: boolean(doc, "baseline", "`baseline`")?.unwrap_or(false),
            ctas: geometry("ctas", 1)?,
            threads: geometry("threads", 64)?,
            active_warps: geometry("active_warps", 8)?,
            budget_instructions: unsigned(doc, "budget_instructions")?,
            budget_cycles: unsigned(doc, "budget_cycles")?,
        })
    }

    /// The run of `source`: a text kernel takes the request's geometry.
    fn run(&self, source: KernelSource) -> Run {
        Run {
            source: match source {
                KernelSource::Text(text) => RunSource::Text {
                    text,
                    ctas: self.ctas,
                    threads: self.threads,
                },
                KernelSource::Workload(name) => RunSource::Workload(name),
            },
            budget_instructions: self.budget_instructions,
        }
    }
}

/// The kernel source a request names, if any.
fn kernel_source(doc: &Json) -> Result<Option<KernelSource>, ErrorFrame> {
    let kernel = doc.get("kernel").and_then(Json::as_str);
    let workload = doc.get("workload").and_then(Json::as_str);
    match (kernel, workload) {
        (Some(_), Some(_)) => Err(usage("`kernel` and `workload` are mutually exclusive")),
        (Some(text), None) => Ok(Some(KernelSource::Text(text.to_string()))),
        (None, Some(name)) => Ok(Some(KernelSource::Workload(name.to_string()))),
        (None, None) => Ok(None),
    }
}

/// Decodes a parsed request document into a [`Request`].
///
/// Every field is validated on every op, in one order: `id`, `op`,
/// `timeout_ms`, the kernel source, `config`, `baseline`, the launch
/// geometry, then the budgets. A present field of the wrong type is
/// refused, never read as its default.
///
/// # Errors
///
/// A [`ErrorKind::Protocol`] frame for a missing/wrong schema tag, and a
/// [`ErrorKind::Usage`] frame for bad fields (unknown op, missing or
/// conflicting kernel source, out-of-range geometry, ill-typed fields).
pub fn decode_request(doc: &Json) -> Result<Request, ErrorFrame> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(ErrorFrame::new(
            ErrorKind::Protocol,
            format!("request must carry \"schema\":\"{SCHEMA}\""),
        ));
    }
    // A missing id defaults to 0, but a *present* id that is not an
    // unsigned integer is a client bug: answering it with id 0 would
    // silently mis-correlate the response, so reject it loudly instead.
    let id = match doc.get("id") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| usage("`id` must be an unsigned integer"))?,
    };
    let name = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| usage("request is missing the `op` field"))?;
    let timeout_ms = unsigned(doc, "timeout_ms")?;
    let control = |op| -> Result<Request, ErrorFrame> {
        kernel_source(doc)?;
        Fields::decode(doc)?;
        Ok(Request { id, timeout_ms, op })
    };
    let build: fn(KernelSource, Fields) -> Op = match name {
        "ping" => return control(Op::Ping),
        "stats" => return control(Op::Stats),
        "shutdown" => return control(Op::Shutdown),
        "assemble" => |source, _| Op::Assemble(source),
        "lint" => |source, f| Op::Lint(source, f.config),
        "allocate" => |source, f| Op::Allocate(source, f.config),
        "simulate" => |source, f| Op::Simulate {
            placement: if f.baseline {
                Placement::Baseline {
                    orf_entries: f.config.orf_entries,
                }
            } else {
                Placement::Allocated(f.config)
            },
            run: f.run(source),
        },
        "timing" => |source, f| Op::Timing {
            run: f.run(source),
            budget_cycles: f.budget_cycles,
            active_warps: f.active_warps,
        },
        "trace" => |source, f| Op::Trace {
            config: (!f.baseline).then_some(f.config),
            run: f.run(source),
        },
        _ => return Err(usage(format!("unknown op `{name}`"))),
    };
    let source = kernel_source(doc)?
        .ok_or_else(|| usage(format!("op `{name}` needs a `kernel` or `workload` field")))?;
    let op = build(source, Fields::decode(doc)?);
    Ok(Request { id, timeout_ms, op })
}

/// Budget ceilings for one request. Each executing op clamps its own
/// client overrides (`budget_instructions`, `budget_cycles`) into
/// `1..=` these.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Instruction budget per warp for functional execution.
    pub max_warp_instructions: u64,
    /// Cycle budget for the timing model.
    pub max_cycles: u64,
}

/// A client override clamped to its ceiling; no override runs at the
/// ceiling.
fn clamp_budget(requested: Option<u64>, max: u64) -> u64 {
    requested.unwrap_or(max).min(max).max(1)
}

fn workload(name: &str) -> Result<Workload, ErrorFrame> {
    rfh_workloads::by_name(name).ok_or_else(|| {
        usage(format!(
            "unknown workload `{name}` (see `rfh_workloads::all`)"
        ))
    })
}

/// The kernel a static op's source names.
fn kernel_of(source: &KernelSource) -> Result<Kernel, ErrorFrame> {
    match source {
        KernelSource::Text(text) => Ok(rfh_isa::parse_kernel(text)?),
        KernelSource::Workload(name) => Ok(workload(name)?.kernel),
    }
}

/// The kernel, launch, and memory a run resolves to.
struct Resolved {
    kernel: Kernel,
    launch: Launch,
    memory: GlobalMemory,
    /// Set for workload sources: the full workload, for its host
    /// reference checker and pristine input image.
    workload: Option<Workload>,
}

fn resolve(source: &RunSource) -> Result<Resolved, ErrorFrame> {
    match source {
        RunSource::Text {
            text,
            ctas,
            threads,
        } => Ok(Resolved {
            kernel: rfh_isa::parse_kernel(text)?,
            launch: Launch::new(*ctas, *threads),
            memory: GlobalMemory::new(TEXT_KERNEL_MEM_WORDS),
            workload: None,
        }),
        RunSource::Workload(name) => {
            let w = workload(name)?;
            Ok(Resolved {
                kernel: w.kernel.clone(),
                launch: w.launch.clone(),
                memory: w.memory.clone(),
                workload: Some(w),
            })
        }
    }
}

/// What the shared execute step leaves behind.
struct Executed<S> {
    sink: S,
    report: ExecReport,
    /// The memory image after execution.
    memory: GlobalMemory,
    workload: Option<Workload>,
}

/// The one execute step of `simulate`, `timing` and `trace`: resolves
/// the run's source, prepares the kernel (allocates it under `config`, or
/// validates it for a baseline run), builds the budgeted machine, runs
/// the kernel over the sink `sink_for` builds, and maps an execution
/// failure to the `exec` frame.
fn execute<S: TraceSink>(
    run: &Run,
    config: Option<&AllocConfig>,
    budgets: &Budgets,
    strands: Option<&StrandStore>,
    sink_for: impl FnOnce(&Kernel, &Launch, &MachineConfig) -> Result<S, ErrorFrame>,
) -> Result<Executed<S>, ErrorFrame> {
    let Resolved {
        mut kernel,
        launch,
        mut memory,
        workload,
    } = resolve(&run.source)?;
    let mode = match config {
        None => {
            rfh_isa::validate(&kernel)?;
            ExecMode::Baseline
        }
        Some(config) => {
            allocate_via(&mut kernel, config, strands)?;
            ExecMode::Hierarchy(*config)
        }
    };
    let mut machine = MachineConfig::paper();
    machine.max_warp_instructions =
        clamp_budget(run.budget_instructions, budgets.max_warp_instructions);
    let mut sink = sink_for(&kernel, &launch, &machine)?;
    let report = execute_with(
        &kernel,
        &launch,
        &mut memory,
        mode,
        &machine,
        &mut [&mut sink],
    )
    .map_err(|e| ErrorFrame::new(ErrorKind::Exec, e.to_string()))?;
    Ok(Executed {
        sink,
        report,
        memory,
        workload,
    })
}

fn counts_json(c: &AccessCounts) -> Json {
    Json::Obj(vec![
        ("mrf_read".into(), Json::u64(c.mrf_read)),
        ("mrf_write".into(), Json::u64(c.mrf_write)),
        (
            "orf_read".into(),
            Json::u64(c.orf_read_private + c.orf_read_shared),
        ),
        (
            "orf_write".into(),
            Json::u64(c.orf_write_private + c.orf_write_shared),
        ),
        ("lrf_read".into(), Json::u64(c.lrf_read)),
        ("lrf_write".into(), Json::u64(c.lrf_write)),
    ])
}

/// Runs one compute op. Infallible ops (`ping`) aside, every failure is a
/// structured error frame; the server adds `catch_unwind` and the
/// wall-clock timeout around this call. With a per-strand allocation
/// cache, ops that allocate (`allocate`, and `simulate` and `trace`
/// unless baseline) splice unchanged strands' placements from the store
/// instead of recomputing them; without one, every strand is computed
/// and `allocate` answers carry no strand counters.
///
/// # Errors
///
/// An [`ErrorFrame`] in the class matching the pipeline failure.
pub fn handle_with(
    req: &Request,
    budgets: &Budgets,
    strands: Option<&StrandStore>,
) -> Result<Json, ErrorFrame> {
    match &req.op {
        Op::Ping => Ok(Json::Obj(vec![("pong".into(), Json::Bool(true))])),
        Op::Assemble(source) => {
            let kernel = kernel_of(source)?;
            rfh_isa::validate(&kernel)?;
            Ok(Json::Obj(vec![
                (
                    "text".into(),
                    Json::str(rfh_isa::printer::print_kernel(&kernel)),
                ),
                (
                    "instructions".into(),
                    Json::u64(kernel.instr_count() as u64),
                ),
            ]))
        }
        Op::Lint(source, config) => {
            let kernel = kernel_of(source)?;
            rfh_isa::validate(&kernel)?;
            let options = rfh_lint::LintOptions {
                alloc: *config,
                ..Default::default()
            };
            let diags = rfh_lint::lint_kernel(&kernel, &options);
            let errors = diags
                .iter()
                .filter(|d| d.severity() == rfh_lint::Severity::Error)
                .count();
            let name = match source {
                KernelSource::Workload(n) => n.as_str(),
                KernelSource::Text(_) => "<request>",
            };
            let lines: Vec<Json> = diags
                .iter()
                .map(|d| Json::str(rfh_lint::human_line(name, d)))
                .collect();
            if errors > 0 {
                return Err(ErrorFrame::new(
                    ErrorKind::Lint,
                    format!("lint found {errors} error(s)"),
                )
                .with_detail(Json::Arr(lines)));
            }
            Ok(Json::Obj(vec![
                ("errors".into(), Json::u64(0)),
                ("warnings".into(), Json::u64(lines.len() as u64)),
                ("diagnostics".into(), Json::Arr(lines)),
            ]))
        }
        Op::Allocate(source, config) => {
            let mut kernel = kernel_of(source)?;
            let (stats, inc) = allocate_via(&mut kernel, config, strands)?;
            let mut stats_fields = vec![
                ("strands".into(), Json::u64(stats.strands as u64)),
                ("lrf_values".into(), Json::u64(stats.lrf_values as u64)),
                ("orf_values".into(), Json::u64(stats.orf_values as u64)),
                ("orf_partial".into(), Json::u64(stats.orf_partial as u64)),
                (
                    "read_operands".into(),
                    Json::u64(stats.read_operands as u64),
                ),
                ("demoted".into(), Json::u64(stats.demoted as u64)),
            ];
            if strands.is_some() {
                stats_fields.push(("strand_hits".into(), Json::u64(inc.hits as u64)));
                stats_fields.push(("strand_misses".into(), Json::u64(inc.misses as u64)));
            }
            Ok(Json::Obj(vec![
                (
                    "text".into(),
                    Json::str(rfh_isa::printer::print_kernel_annotated(&kernel)),
                ),
                ("stats".into(), Json::Obj(stats_fields)),
            ]))
        }
        Op::Simulate { run, placement } => {
            let (config, orf_entries) = match placement {
                Placement::Baseline { orf_entries } => (None, *orf_entries),
                Placement::Allocated(config) => (Some(config), config.orf_entries),
            };
            let Executed {
                sink: counter,
                report,
                memory,
                workload,
            } = execute(run, config, budgets, strands, |_, _, _| {
                Ok(SwCounter::default())
            })?;
            let verified = match &workload {
                Some(w) => {
                    (w.verify)(&w.memory, &memory)
                        .map_err(|e| ErrorFrame::new(ErrorKind::Exec, format!("verify: {e}")))?;
                    Json::Bool(true)
                }
                None => Json::Null,
            };
            let counts = counter.counts();
            let energy = EnergyModel::paper().energy(&counts, orf_entries).total();
            Ok(Json::Obj(vec![
                (
                    "report".into(),
                    Json::Obj(vec![
                        (
                            "warp_instructions".into(),
                            Json::u64(report.warp_instructions),
                        ),
                        (
                            "thread_instructions".into(),
                            Json::u64(report.thread_instructions),
                        ),
                        ("warps".into(), Json::u64(report.warps as u64)),
                    ]),
                ),
                ("counts".into(), counts_json(&counts)),
                ("energy_pj".into(), Json::Num(energy)),
                ("verified".into(), verified),
            ]))
        }
        Op::Timing {
            run,
            budget_cycles,
            active_warps,
        } => {
            let cap = execute(run, None, budgets, strands, |_, launch, machine| {
                check_resident(launch, machine).map_err(|e| usage(e.to_string()))?;
                Ok(TraceCapture::new(machine.clone(), launch.threads_per_cta))
            })?
            .sink;
            let config = TimingConfig::two_level(*active_warps)
                .with_max_cycles(clamp_budget(*budget_cycles, budgets.max_cycles));
            let t = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &config)
                .map_err(|e| ErrorFrame::new(ErrorKind::Timing, e.to_string()))?;
            Ok(Json::Obj(vec![
                ("cycles".into(), Json::u64(t.cycles)),
                ("instructions".into(), Json::u64(t.instructions)),
                ("deschedules".into(), Json::u64(t.deschedules)),
                ("ipc".into(), Json::Num((t.ipc() * 1e6).round() / 1e6)),
            ]))
        }
        Op::Trace { run, config } => {
            let exporter = execute(run, config.as_ref(), budgets, strands, |kernel, _, _| {
                Ok(TraceExporter::new(kernel))
            })?
            .sink;
            Ok(Json::Obj(vec![
                ("jsonl".into(), Json::str(exporter.json_lines())),
                ("summary".into(), Json::str(exporter.summary())),
            ]))
        }
        // Control ops never reach the compute path.
        Op::Stats => Err(usage("op `stats` is handled by the server")),
        Op::Shutdown => Err(usage("op `shutdown` is handled by the server")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const KERNEL: &str = "
.kernel axpy
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, 2.0f, r1
  st.global r0, r2
  exit
";

    fn budgets() -> Budgets {
        Budgets {
            max_warp_instructions: 1_000_000,
            max_cycles: 10_000_000,
        }
    }

    fn req(json: &str) -> Result<Request, ErrorFrame> {
        decode_request(&parse(json).expect("test request parses"))
    }

    fn kernel_req(op: &str) -> Request {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("id".into(), Json::u64(1)),
            ("op".into(), Json::str(op)),
            ("kernel".into(), Json::str(KERNEL)),
        ]);
        decode_request(&doc).expect("decodes")
    }

    #[test]
    fn decode_rejects_bad_requests_structurally() {
        let cases = [
            ("{}", ErrorKind::Protocol),
            (
                "{\"schema\":\"rfhd-v0\",\"op\":\"ping\"}",
                ErrorKind::Protocol,
            ),
            ("{\"schema\":\"rfhd-v1\"}", ErrorKind::Usage),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"frobnicate\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"allocate\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"allocate\",\"kernel\":\"x\",\"workload\":\"y\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"simulate\",\"kernel\":\"x\",\"ctas\":0}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"simulate\",\"kernel\":\"x\",\
                 \"config\":{\"orf\":9}}",
                ErrorKind::Usage,
            ),
        ];
        for (text, kind) in cases {
            let e = req(text).expect_err(text);
            assert_eq!(e.kind, kind, "{text}");
        }
    }

    /// Pins the decoder's answer to each malformed field on every op,
    /// the ops that never read that field included: a request is outside
    /// input, so every field it carries is validated whatever the op.
    #[test]
    fn every_op_rejects_every_malformed_field() {
        let orf = "config.orf must be in 1..=8 (energy model bound)";
        let cases = [
            ("\"config\":{\"orf\":0}", orf),
            ("\"config\":{\"orf\":9}", orf),
            ("\"config\":{\"orf\":\"1\"}", orf),
            (
                "\"config\":{\"lrf\":5}",
                "config.lrf must be a string: none|unified|split",
            ),
            ("\"config\":7", "`config` must be an object"),
            (
                "\"config\":{\"lrf\":\"wat\"}",
                "config.lrf `wat` not none|unified|split",
            ),
            ("\"ctas\":0", "`ctas` must be an integer in 1..=4096"),
            ("\"ctas\":4097", "`ctas` must be an integer in 1..=4096"),
            ("\"threads\":0", "`threads` must be an integer in 1..=4096"),
            (
                "\"threads\":4097",
                "`threads` must be an integer in 1..=4096",
            ),
            (
                "\"active_warps\":0",
                "`active_warps` must be an integer in 1..=4096",
            ),
            (
                "\"active_warps\":4097",
                "`active_warps` must be an integer in 1..=4096",
            ),
            ("\"id\":\"7\"", "`id` must be an unsigned integer"),
            (
                "\"timeout_ms\":\"5\"",
                "`timeout_ms` must be an unsigned integer",
            ),
            (
                "\"budget_instructions\":-1",
                "`budget_instructions` must be an unsigned integer",
            ),
            (
                "\"budget_cycles\":\"x\"",
                "`budget_cycles` must be an unsigned integer",
            ),
            ("\"baseline\":\"yes\"", "`baseline` must be a boolean"),
            (
                "\"config\":{\"partial\":1}",
                "config.partial must be a boolean",
            ),
            (
                "\"config\":{\"readop\":null}",
                "config.readop must be a boolean",
            ),
            (
                "\"workload\":\"vectoradd\"",
                "`kernel` and `workload` are mutually exclusive",
            ),
        ];
        for op in [
            "ping", "assemble", "lint", "allocate", "simulate", "timing", "trace", "stats",
            "shutdown",
        ] {
            for (field, message) in cases {
                let text =
                    format!("{{\"schema\":\"rfhd-v1\",\"op\":\"{op}\",\"kernel\":\"x\",{field}}}");
                let e = req(&text).expect_err(&text);
                assert_eq!((e.kind, e.message.as_str()), (ErrorKind::Usage, message));
            }
            let bare = format!("{{\"schema\":\"rfhd-v1\",\"op\":\"{op}\"}}");
            if matches!(op, "ping" | "stats" | "shutdown") {
                req(&bare).expect(&bare);
            } else {
                let e = req(&bare).expect_err(&bare);
                let message = format!("op `{op}` needs a `kernel` or `workload` field");
                assert_eq!((e.kind, e.message), (ErrorKind::Usage, message));
            }
        }
    }

    #[test]
    fn ping_needs_no_kernel() {
        let r = req("{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":9}").expect("decodes");
        assert_eq!(r.id, 9);
        let out = handle_with(&r, &budgets(), None).expect("pong");
        assert_eq!(out.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn allocate_round_trips_a_kernel() {
        let out = handle_with(&kernel_req("allocate"), &budgets(), None).expect("allocates");
        let text = out.get("text").and_then(Json::as_str).expect("text");
        assert!(text.contains("axpy"));
        let stats = out.get("stats").expect("stats");
        assert_eq!(stats.get("demoted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn simulate_reports_counts_and_energy() {
        let out = handle_with(&kernel_req("simulate"), &budgets(), None).expect("simulates");
        let report = out.get("report").expect("report");
        assert!(report.get("warp_instructions").and_then(Json::as_u64) > Some(0));
        assert!(out.get("energy_pj").and_then(Json::as_f64) > Some(0.0));
        assert_eq!(out.get("verified"), Some(&Json::Null));
    }

    #[test]
    fn simulate_workload_verifies_against_host_reference() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("simulate")),
            ("workload".into(), Json::str("vectoradd")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        let out = handle_with(&r, &budgets(), None).expect("simulates");
        assert_eq!(out.get("verified"), Some(&Json::Bool(true)));
    }

    #[test]
    fn timing_threads_the_cycle_budget() {
        let out = handle_with(&kernel_req("timing"), &budgets(), None).expect("times");
        assert!(out.get("cycles").and_then(Json::as_u64) > Some(0));
        // A one-cycle budget must come back as a structured timing error.
        let e = handle_with(
            &kernel_req("timing"),
            &Budgets {
                max_warp_instructions: 1_000_000,
                max_cycles: 1,
            },
            None,
        )
        .expect_err("budget of 1 cycle");
        assert_eq!(e.kind, ErrorKind::Timing);
    }

    #[test]
    fn parse_failures_map_to_the_parse_class() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("assemble")),
            ("kernel".into(), Json::str("this is not a kernel")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        let e = handle_with(&r, &budgets(), None).expect_err("parse error");
        assert_eq!(e.kind, ErrorKind::Parse);
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("simulate")),
            ("workload".into(), Json::str("no-such-benchmark")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        assert_eq!(
            handle_with(&r, &budgets(), None).expect_err("unknown").kind,
            ErrorKind::Usage
        );
    }

    /// Whether `op` (in baseline mode or not) keys two requests that
    /// differ by the JSON member `field` equal.
    fn same_key(op: &str, baseline: bool, field: &str) -> bool {
        let mut base = format!("{{\"schema\":\"rfhd-v1\",\"op\":\"{op}\",\"kernel\":\"x\"");
        if baseline {
            base.push_str(",\"baseline\":true");
        }
        let a = req(&format!("{base}}}")).expect("decodes");
        let b = req(&format!("{base},{field}}}")).expect("decodes");
        a.op == b.op
    }

    #[test]
    fn content_hash_separates_semantic_fields_only() {
        // `id` and the wall-clock timeout key no op.
        for op in [
            "assemble", "lint", "allocate", "simulate", "timing", "trace",
        ] {
            assert!(same_key(op, false, "\"id\":99"), "{op}");
            assert!(same_key(op, false, "\"timeout_ms\":123"), "{op}");
        }
        // A simulate's configuration and placement do.
        assert!(!same_key("simulate", false, "\"config\":{\"orf\":5}"));
        assert!(!same_key("simulate", false, "\"baseline\":true"));
    }

    #[test]
    fn each_op_is_keyed_on_the_fields_it_reads() {
        let config = "\"config\":{\"orf\":5}";
        let lrf = "\"config\":{\"lrf\":\"none\"}";
        let baseline = "\"baseline\":true";
        let active = "\"active_warps\":4";
        let ctas = "\"ctas\":2";
        let cycles = "\"budget_cycles\":10";
        // `timing` replays the baseline trace: placement fields are not
        // part of its key, its geometry, scheduler and cycle budget are.
        assert!(same_key("timing", false, config));
        assert!(same_key("timing", false, baseline));
        assert!(!same_key("timing", false, active));
        assert!(!same_key("timing", false, ctas));
        assert!(!same_key("timing", false, cycles));
        // Only `timing` reads the scheduler fields.
        for op in ["assemble", "lint", "allocate", "simulate", "trace"] {
            assert!(same_key(op, false, active), "{op}");
            assert!(same_key(op, false, cycles), "{op}");
        }
        // Static ops read no launch geometry; `assemble` no config.
        for op in ["assemble", "lint", "allocate"] {
            assert!(same_key(op, false, ctas), "{op}");
            assert!(same_key(op, false, baseline), "{op}");
        }
        assert!(same_key("assemble", false, config));
        assert!(!same_key("lint", false, config));
        assert!(!same_key("allocate", false, config));
        // `simulate` reads its placement.
        assert!(!same_key("simulate", false, config));
        assert!(!same_key("simulate", false, baseline));
        // A baseline trace allocates nothing; a baseline simulate still
        // prices its counts at the configured ORF size, and at nothing
        // else of the configuration.
        assert!(!same_key("trace", false, config));
        assert!(same_key("trace", true, config));
        assert!(!same_key("simulate", true, config));
        assert!(!same_key("simulate", false, lrf));
        assert!(same_key("simulate", true, lrf));
    }

    #[test]
    fn non_numeric_id_is_a_usage_error_not_id_zero() {
        // Regression: a present-but-non-numeric `id` used to be silently
        // coerced to 0; it must be answered with a structured usage error.
        for bad in [
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":\"7\"}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":true}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":-3}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":1.5}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":null}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":[1]}",
        ] {
            let e = req(bad).expect_err(bad);
            assert_eq!(e.kind, ErrorKind::Usage, "{bad}");
            assert!(e.message.contains("id"), "{bad}: {}", e.message);
        }
        // An absent id still defaults to 0.
        let r = req("{\"schema\":\"rfhd-v1\",\"op\":\"ping\"}").expect("decodes");
        assert_eq!(r.id, 0);
    }

    #[test]
    fn strand_store_is_warmed_by_allocate_and_reused() {
        let store = StrandStore::with_capacity(64);
        let r = kernel_req("allocate");
        let cold = handle_with(&r, &budgets(), Some(&store)).expect("cold allocate");
        let hits0 = cold
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .and_then(Json::as_u64)
            .expect("strand_hits reported");
        let miss0 = cold
            .get("stats")
            .and_then(|s| s.get("strand_misses"))
            .and_then(Json::as_u64)
            .expect("strand_misses reported");
        assert_eq!(hits0, 0);
        assert!(miss0 > 0);
        let warm = handle_with(&r, &budgets(), Some(&store)).expect("warm allocate");
        let hits1 = warm
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .and_then(Json::as_u64)
            .expect("strand_hits reported");
        let miss1 = warm
            .get("stats")
            .and_then(|s| s.get("strand_misses"))
            .and_then(Json::as_u64)
            .expect("strand_misses reported");
        assert_eq!(miss1, 0, "every strand must splice from the cache");
        assert_eq!(hits1, miss0, "one hit per previously computed strand");
        // Identical output either way.
        assert_eq!(cold.get("text"), warm.get("text"));
        let mono = handle_with(&r, &budgets(), None).expect("monolithic allocate");
        assert_eq!(mono.get("text"), warm.get("text"));
    }

    #[test]
    fn handle_without_store_omits_strand_counters() {
        let out = handle_with(&kernel_req("allocate"), &budgets(), None).expect("allocates");
        assert!(out
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .is_none());
    }
}
