//! Request decoding and per-op compute: the pure part of the daemon.
//!
//! [`decode_request`] turns a parsed JSON document into a typed
//! [`Request`] (or a structured usage/protocol error frame), and
//! [`handle`] runs one compute op to a `Result<Json, ErrorFrame>`.
//! Everything here is synchronous and side-effect-free — timeouts, panic
//! isolation, caching, and socket I/O live in [`crate::server`], which
//! wraps these functions.
//!
//! Every pipeline error maps onto the wire taxonomy exactly as `rfhc`
//! maps it onto exit codes: parse failures are [`ErrorKind::Parse`],
//! structural invalidity is [`ErrorKind::InvalidKernel`], and so on, so a
//! client scripting the daemon sees the same failure classes as a script
//! driving the CLI.

use std::sync::Arc;

use rfh_alloc::{
    allocate, allocate_incremental, AllocConfig, AllocError, IncrementalStats, LrfMode,
    StrandAllocation,
};
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::{IsaError, Kernel};
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with, ExecMode, Launch};
use rfh_sim::machine::MachineConfig;
use rfh_sim::mem::GlobalMemory;
use rfh_sim::timing::{simulate_timing, TimingConfig, TraceCapture};
use rfh_sim::TraceExporter;

use crate::cache::{fnv1a, Key, Store};
use crate::json::Json;
use crate::proto::{ErrorFrame, ErrorKind, SCHEMA};

/// Default global-memory words for kernels submitted as raw text (64 K
/// words, matching `rfhc trace`).
const TEXT_KERNEL_MEM_WORDS: usize = 1 << 16;

/// The compute operations the daemon serves. `Stats` and `Shutdown` are
/// control ops handled by the server itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Parse (and validate) kernel text; return the canonical form.
    Assemble,
    /// Run the static analyzer.
    Lint,
    /// Run the hierarchy allocator; return the annotated kernel.
    Allocate,
    /// Execute functionally; return the report, access counts, energy.
    Simulate,
    /// Execute, capture the dynamic trace, replay it through the
    /// two-level scheduler timing model.
    Timing,
    /// Execute and export the structured instruction trace.
    Trace,
    /// Daemon statistics (server-handled).
    Stats,
    /// Graceful drain-then-exit (server-handled).
    Shutdown,
}

impl Op {
    /// The wire name.
    pub const fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Assemble => "assemble",
            Op::Lint => "lint",
            Op::Allocate => "allocate",
            Op::Simulate => "simulate",
            Op::Timing => "timing",
            Op::Trace => "trace",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses the wire name.
    pub fn from_name(name: &str) -> Option<Op> {
        Some(match name {
            "ping" => Op::Ping,
            "assemble" => Op::Assemble,
            "lint" => Op::Lint,
            "allocate" => Op::Allocate,
            "simulate" => Op::Simulate,
            "timing" => Op::Timing,
            "trace" => Op::Trace,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// Whether results of this op are deterministic functions of the
    /// request and therefore cacheable.
    pub const fn cacheable(self) -> bool {
        matches!(
            self,
            Op::Assemble | Op::Lint | Op::Allocate | Op::Simulate | Op::Timing | Op::Trace
        )
    }

    /// Whether this op needs a kernel (text or workload name).
    pub const fn needs_kernel(self) -> bool {
        !matches!(self, Op::Ping | Op::Stats | Op::Shutdown)
    }
}

/// Where the kernel comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSource {
    /// Raw assembly text supplied in the request.
    Text(String),
    /// The name of a benchmark workload the daemon knows
    /// (`rfh_workloads::by_name`), including its launch geometry, input
    /// memory, and host reference checker.
    Workload(String),
}

/// A decoded, validated `rfhd-v1` request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// The kernel, for ops that need one.
    pub source: Option<KernelSource>,
    /// Allocation configuration.
    pub config: AllocConfig,
    /// Execute unallocated in baseline mode (simulate/timing/trace).
    pub baseline: bool,
    /// Launch geometry for [`KernelSource::Text`] kernels.
    pub ctas: usize,
    /// Threads per CTA for [`KernelSource::Text`] kernels.
    pub threads: usize,
    /// Per-request wall-clock timeout override (capped by the server).
    pub timeout_ms: Option<u64>,
    /// Per-request instruction budget override (capped by the server).
    pub budget_instructions: Option<u64>,
    /// Per-request timing cycle budget override (capped by the server).
    pub budget_cycles: Option<u64>,
    /// Active-warp count for the timing op's two-level scheduler.
    pub active_warps: usize,
}

impl Request {
    /// The canonical request string: every semantic field, serialized so
    /// that two requests canonicalize equal exactly when their results
    /// must be equal. This full string keys the daemon's result cache
    /// (its [`fnv1a`] digest is only a fast pre-key — see
    /// [`crate::cache::Key`]), so a digest collision between two distinct
    /// requests can never serve the wrong cached response.
    pub fn canonical(&self) -> String {
        let mut canon = String::new();
        canon.push_str(self.op.name());
        canon.push('\0');
        match &self.source {
            Some(KernelSource::Text(t)) => {
                canon.push_str("text\0");
                canon.push_str(t);
            }
            Some(KernelSource::Workload(w)) => {
                canon.push_str("workload\0");
                canon.push_str(w);
            }
            None => canon.push_str("none"),
        }
        canon.push('\0');
        canon.push_str(&format!(
            "orf={} lrf={:?} partial={} readop={} base={} ctas={} threads={} \
             binst={:?} bcyc={:?} active={}",
            self.config.orf_entries,
            self.config.lrf,
            self.config.partial_ranges,
            self.config.read_operands,
            self.baseline,
            self.ctas,
            self.threads,
            self.budget_instructions,
            self.budget_cycles,
            self.active_warps,
        ));
        canon
    }

    /// The 64-bit content digest of [`Request::canonical`]. Kept for
    /// reporting and as the cache pre-key; no longer used as a cache key
    /// on its own.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// The per-strand allocation cache shared across requests: strand
/// fingerprints ([`rfh_alloc::strand_fingerprint`]) map to cached
/// [`StrandAllocation`]s, so an edited kernel re-runs analysis +
/// allocation only for the strands whose content changed.
pub type StrandStore = Store<Key, Arc<StrandAllocation>>;

/// Runs hierarchy allocation, incrementally when a strand cache is
/// supplied, monolithically otherwise. Both paths produce byte-identical
/// kernels and stats (proven by `tests/incremental.rs`).
fn allocate_via(
    kernel: &mut Kernel,
    config: &AllocConfig,
    strands: Option<&StrandStore>,
) -> Result<(rfh_alloc::AllocStats, Option<IncrementalStats>), AllocError> {
    let model = EnergyModel::paper();
    match strands {
        None => Ok((allocate(kernel, config, &model)?, None)),
        Some(store) => {
            let (stats, inc) = allocate_incremental(
                kernel,
                config,
                &model,
                &mut |fp| store.get(&Key::new(fp)).map(|a| (*a).clone()),
                &mut |fp, sa| {
                    store.insert(Key::new(fp), Arc::new(sa.clone()));
                },
            )?;
            Ok((stats, Some(inc)))
        }
    }
}

fn usage(msg: impl Into<String>) -> ErrorFrame {
    ErrorFrame::new(ErrorKind::Usage, msg)
}

/// Decodes a parsed request document into a [`Request`].
///
/// # Errors
///
/// A [`ErrorKind::Protocol`] frame for a missing/wrong schema tag, and a
/// [`ErrorKind::Usage`] frame for bad fields (unknown op, missing or
/// conflicting kernel source, out-of-range geometry).
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
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| usage("request is missing the `op` field"))
        .and_then(|name| {
            Op::from_name(name).ok_or_else(|| usage(format!("unknown op `{name}`")))
        })?;

    let kernel = doc.get("kernel").and_then(Json::as_str);
    let workload = doc.get("workload").and_then(Json::as_str);
    let source = match (kernel, workload) {
        (Some(_), Some(_)) => return Err(usage("`kernel` and `workload` are mutually exclusive")),
        (Some(text), None) => Some(KernelSource::Text(text.to_string())),
        (None, Some(name)) => Some(KernelSource::Workload(name.to_string())),
        (None, None) => None,
    };
    if op.needs_kernel() && source.is_none() {
        return Err(usage(format!(
            "op `{}` needs a `kernel` or `workload` field",
            op.name()
        )));
    }

    let mut config = AllocConfig::three_level(3, true);
    if let Some(c) = doc.get("config") {
        if let Some(orf) = c.get("orf").and_then(Json::as_u64) {
            if !(1..=8).contains(&orf) {
                return Err(usage("config.orf must be in 1..=8 (energy model bound)"));
            }
            config.orf_entries = orf as usize;
        }
        if let Some(lrf) = c.get("lrf").and_then(Json::as_str) {
            config.lrf = match lrf {
                "none" => LrfMode::None,
                "unified" => LrfMode::Unified,
                "split" => LrfMode::Split,
                other => {
                    return Err(usage(format!(
                        "config.lrf `{other}` not none|unified|split"
                    )))
                }
            };
        }
        if let Some(p) = c.get("partial").and_then(Json::as_bool) {
            config.partial_ranges = p;
        }
        if let Some(r) = c.get("readop").and_then(Json::as_bool) {
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
    Ok(Request {
        id,
        op,
        source,
        config,
        baseline: doc.get("baseline").and_then(Json::as_bool).unwrap_or(false),
        ctas: geometry("ctas", 1)?,
        threads: geometry("threads", 64)?,
        timeout_ms: doc.get("timeout_ms").and_then(Json::as_u64),
        budget_instructions: doc.get("budget_instructions").and_then(Json::as_u64),
        budget_cycles: doc.get("budget_cycles").and_then(Json::as_u64),
        active_warps: geometry("active_warps", 8)?,
    })
}

/// Caps actually applied to one request: the server clamps client
/// overrides to its configured maxima before calling [`handle`].
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Instruction budget per warp for functional execution.
    pub max_warp_instructions: u64,
    /// Cycle budget for the timing model.
    pub max_cycles: u64,
}

fn isa_error(e: IsaError) -> ErrorFrame {
    match e {
        IsaError::Parse { .. } => ErrorFrame::new(ErrorKind::Parse, e.to_string()),
        IsaError::Validate { .. } => ErrorFrame::new(ErrorKind::InvalidKernel, e.to_string()),
    }
}

fn alloc_error(e: AllocError) -> ErrorFrame {
    match e {
        AllocError::InvalidKernel(inner) => {
            ErrorFrame::new(ErrorKind::InvalidKernel, inner.to_string())
        }
        AllocError::Config(_) => ErrorFrame::new(ErrorKind::Config, e.to_string()),
    }
}

/// The kernel, launch, and memory a request resolves to.
struct Resolved {
    kernel: Kernel,
    launch: Launch,
    memory: GlobalMemory,
    /// Set for workload sources: the full workload, for its host
    /// reference checker and pristine input image.
    workload: Option<rfh_workloads::Workload>,
}

fn resolve(req: &Request) -> Result<Resolved, ErrorFrame> {
    match req.source.as_ref() {
        Some(KernelSource::Text(text)) => {
            let kernel = rfh_isa::parse_kernel(text).map_err(isa_error)?;
            Ok(Resolved {
                kernel,
                launch: Launch::new(req.ctas, req.threads),
                memory: GlobalMemory::new(TEXT_KERNEL_MEM_WORDS),
                workload: None,
            })
        }
        Some(KernelSource::Workload(name)) => {
            let w = rfh_workloads::by_name(name).ok_or_else(|| {
                usage(format!(
                    "unknown workload `{name}` (see `rfh_workloads::all`)"
                ))
            })?;
            Ok(Resolved {
                kernel: w.kernel.clone(),
                launch: w.launch.clone(),
                memory: w.memory.clone(),
                workload: Some(w),
            })
        }
        None => Err(usage(format!("op `{}` needs a kernel", req.op.name()))),
    }
}

/// Allocates (unless baseline) and returns the exec mode + alloc stats.
fn prepare(
    req: &Request,
    kernel: &mut Kernel,
    strands: Option<&StrandStore>,
) -> Result<(ExecMode, Option<rfh_alloc::AllocStats>), ErrorFrame> {
    if req.baseline {
        rfh_isa::validate(kernel).map_err(isa_error)?;
        Ok((ExecMode::Baseline, None))
    } else {
        let (stats, _) = allocate_via(kernel, &req.config, strands).map_err(alloc_error)?;
        Ok((ExecMode::Hierarchy(req.config), Some(stats)))
    }
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
/// wall-clock timeout around this call.
///
/// Allocation runs monolithically; the daemon threads its per-strand
/// cache through [`handle_with`] instead.
///
/// # Errors
///
/// An [`ErrorFrame`] in the class matching the pipeline failure.
pub fn handle(req: &Request, budgets: &Budgets) -> Result<Json, ErrorFrame> {
    handle_with(req, budgets, None)
}

/// [`handle`] with an optional per-strand allocation cache: ops that
/// allocate (`allocate`, `simulate`, `timing`, `trace`) splice unchanged
/// strands' placements from the store instead of recomputing them.
///
/// # Errors
///
/// An [`ErrorFrame`] in the class matching the pipeline failure.
pub fn handle_with(
    req: &Request,
    budgets: &Budgets,
    strands: Option<&StrandStore>,
) -> Result<Json, ErrorFrame> {
    match req.op {
        Op::Ping => Ok(Json::Obj(vec![("pong".into(), Json::Bool(true))])),
        Op::Assemble => {
            let r = resolve(req)?;
            rfh_isa::validate(&r.kernel).map_err(isa_error)?;
            Ok(Json::Obj(vec![
                (
                    "text".into(),
                    Json::str(rfh_isa::printer::print_kernel(&r.kernel)),
                ),
                (
                    "instructions".into(),
                    Json::u64(r.kernel.instr_count() as u64),
                ),
            ]))
        }
        Op::Lint => {
            let r = resolve(req)?;
            rfh_isa::validate(&r.kernel).map_err(isa_error)?;
            let options = rfh_lint::LintOptions {
                alloc: req.config,
                ..Default::default()
            };
            let diags = rfh_lint::lint_kernel(&r.kernel, &options);
            let errors = diags
                .iter()
                .filter(|d| d.severity() == rfh_lint::Severity::Error)
                .count();
            let name = match &req.source {
                Some(KernelSource::Workload(n)) => n.as_str(),
                _ => "<request>",
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
        Op::Allocate => {
            let r = resolve(req)?;
            let mut kernel = r.kernel;
            let (stats, inc) =
                allocate_via(&mut kernel, &req.config, strands).map_err(alloc_error)?;
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
            if let Some(inc) = inc {
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
        Op::Simulate => {
            let r = resolve(req)?;
            let mut kernel = r.kernel;
            let (mode, _) = prepare(req, &mut kernel, strands)?;
            let mut machine = MachineConfig::paper();
            machine.max_warp_instructions = budgets.max_warp_instructions;
            let mut counter = SwCounter::default();
            let mut mem = r.memory.clone();
            let report = execute_with(
                &kernel,
                &r.launch,
                &mut mem,
                mode,
                &machine,
                &mut [&mut counter],
            )
            .map_err(|e| ErrorFrame::new(ErrorKind::Exec, e.to_string()))?;
            let verified = match &r.workload {
                Some(w) => {
                    (w.verify)(&w.memory, &mem)
                        .map_err(|e| ErrorFrame::new(ErrorKind::Exec, format!("verify: {e}")))?;
                    Json::Bool(true)
                }
                None => Json::Null,
            };
            let counts = counter.counts();
            let energy = EnergyModel::paper()
                .energy(&counts, req.config.orf_entries)
                .total();
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
        Op::Timing => {
            let r = resolve(req)?;
            let mut kernel = r.kernel;
            let (mode, _) = prepare(req, &mut kernel, strands)?;
            let mut machine = MachineConfig::paper();
            machine.max_warp_instructions = budgets.max_warp_instructions;
            let mut cap = TraceCapture::new(machine.clone(), r.launch.threads_per_cta);
            let mut mem = r.memory.clone();
            execute_with(
                &kernel,
                &r.launch,
                &mut mem,
                mode,
                &machine,
                &mut [&mut cap],
            )
            .map_err(|e| ErrorFrame::new(ErrorKind::Exec, e.to_string()))?;
            let config =
                TimingConfig::two_level(req.active_warps).with_max_cycles(budgets.max_cycles);
            let t = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &config)
                .map_err(|e| ErrorFrame::new(ErrorKind::Timing, e.to_string()))?;
            Ok(Json::Obj(vec![
                ("cycles".into(), Json::u64(t.cycles)),
                ("instructions".into(), Json::u64(t.instructions)),
                ("deschedules".into(), Json::u64(t.deschedules)),
                ("ipc".into(), Json::Num((t.ipc() * 1e6).round() / 1e6)),
            ]))
        }
        Op::Trace => {
            let r = resolve(req)?;
            let mut kernel = r.kernel;
            let (mode, _) = prepare(req, &mut kernel, strands)?;
            let mut machine = MachineConfig::paper();
            machine.max_warp_instructions = budgets.max_warp_instructions;
            let mut exporter = TraceExporter::new(&kernel);
            let mut mem = r.memory.clone();
            execute_with(
                &kernel,
                &r.launch,
                &mut mem,
                mode,
                &machine,
                &mut [&mut exporter],
            )
            .map_err(|e| ErrorFrame::new(ErrorKind::Exec, e.to_string()))?;
            Ok(Json::Obj(vec![
                ("jsonl".into(), Json::str(exporter.json_lines())),
                ("summary".into(), Json::str(exporter.summary())),
            ]))
        }
        // Control ops never reach the compute path.
        Op::Stats | Op::Shutdown => Err(usage(format!(
            "op `{}` is handled by the server",
            req.op.name()
        ))),
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

    #[test]
    fn ping_needs_no_kernel() {
        let r = req("{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":9}").expect("decodes");
        assert_eq!(r.id, 9);
        let out = handle(&r, &budgets()).expect("pong");
        assert_eq!(out.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn allocate_round_trips_a_kernel() {
        let out = handle(&kernel_req("allocate"), &budgets()).expect("allocates");
        let text = out.get("text").and_then(Json::as_str).expect("text");
        assert!(text.contains("axpy"));
        let stats = out.get("stats").expect("stats");
        assert_eq!(stats.get("demoted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn simulate_reports_counts_and_energy() {
        let out = handle(&kernel_req("simulate"), &budgets()).expect("simulates");
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
        let out = handle(&r, &budgets()).expect("simulates");
        assert_eq!(out.get("verified"), Some(&Json::Bool(true)));
    }

    #[test]
    fn timing_threads_the_cycle_budget() {
        let out = handle(&kernel_req("timing"), &budgets()).expect("times");
        assert!(out.get("cycles").and_then(Json::as_u64) > Some(0));
        // A one-cycle budget must come back as a structured timing error.
        let e = handle(
            &kernel_req("timing"),
            &Budgets {
                max_warp_instructions: 1_000_000,
                max_cycles: 1,
            },
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
        let e = handle(&r, &budgets()).expect_err("parse error");
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
            handle(&r, &budgets()).expect_err("unknown").kind,
            ErrorKind::Usage
        );
    }

    #[test]
    fn content_hash_separates_semantic_fields_only() {
        let a = kernel_req("simulate");
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.id = 99; // id is not semantic
        b.timeout_ms = Some(123); // neither is the wall-clock timeout
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.config.orf_entries = 5;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = a.clone();
        d.baseline = true;
        assert_ne!(a.content_hash(), d.content_hash());
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
        let mono = handle(&r, &budgets()).expect("monolithic allocate");
        assert_eq!(mono.get("text"), warm.get("text"));
    }

    #[test]
    fn handle_without_store_omits_strand_counters() {
        let out = handle(&kernel_req("allocate"), &budgets()).expect("allocates");
        assert!(out
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .is_none());
    }
}
