//! The trichotomy driver.
//!
//! Each `run_*_layer` function fuzzes one pipeline layer with seeded
//! mutants of a workload's kernel and classifies every case:
//!
//! * **rejected** — a structured error from parse/validate/allocate, or
//!   from `validate_placements` in the placement layer;
//! * **identical** — the mutant passed validation and differential
//!   execution (baseline vs. hierarchy mode, shipped vs. reference
//!   engine, or every placement judge) agreed bit for bit;
//! * **structured** — the mutant executes to a structured runtime error
//!   (out-of-bounds access, instruction budget) *in both modes*;
//! * **flagged** — a check stricter than execution caught the mutant:
//!   lint's error diagnostics, or the tag model's `BadPlacement` in the
//!   placement layer;
//! * **unchanged** — the mutation happened to be a no-op.
//!
//! Anything else — a panic, an execution-mode asymmetry, or an unflagged
//! placement corruption that changes results — aborts the run with a
//! message naming the case seed, replayable via `RFH_TESTKIT_SEED`.
//!
//! Every layer drives its cases through one driver, `run_cases`: cases
//! fan out over the `RFH_JOBS` worker pool, each case's seed is derived
//! up front from the base seed, and outcomes are folded in case order, so
//! reports and failure messages are identical at any job count.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rfh_alloc::{allocate, allocate_with_hints, validate_placements, AllocConfig};
use rfh_analysis::absint::{self, last_use};
use rfh_analysis::strand::mark_strands;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::{InstrRef, Kernel, Operand};
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with, replay, ExecError, ExecMode, ExecReport, StreamRecorder};
use rfh_sim::machine::MachineConfig;
use rfh_sim::mem::GlobalMemory;
use rfh_sim::sink::{InstrEvent, TraceSink};
use rfh_testkit::pool::{jobs, par_map_with_jobs};
use rfh_testkit::prelude::*;
use rfh_workloads::Workload;

use crate::{byte, ir, place, trace, wire};

/// Aggregate classification of one layer's mutant population.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Total mutants generated.
    pub cases: usize,
    /// Rejected with a structured error before execution. In the
    /// placement layer: `validate_placements` rejects the mutant, yet
    /// every executing judge accepts it identically (the validator is
    /// conservative).
    pub rejected: usize,
    /// Validated and differentially identical.
    pub identical: usize,
    /// Structured runtime error, symmetric across execution modes.
    pub structured: usize,
    /// Caught by a check stricter than execution: lint's error
    /// diagnostics (lint layer), or the tag model's run-time
    /// `BadPlacement`, which shipped execution and replay raise together
    /// (placement layer).
    pub flagged: usize,
    /// The mutation was a no-op on the artifact.
    pub unchanged: usize,
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cases: {} rejected, {} identical, {} structured, {} flagged, {} unchanged",
            self.cases,
            self.rejected,
            self.identical,
            self.structured,
            self.flagged,
            self.unchanged
        )
    }
}

enum CaseOutcome {
    Rejected,
    Identical,
    Structured,
    Flagged,
    Unchanged,
}

/// Per-layer case budget: `RFH_CHAOS_CASES` if set, else `default_cases`.
/// A malformed value warns loudly (see `rfh_testkit::env`) and falls back.
pub fn cases_from_env(default_cases: usize) -> usize {
    rfh_testkit::env::usize_knob("RFH_CHAOS_CASES").unwrap_or(default_cases)
}

/// Base seed: `RFH_TESTKIT_SEED` if set, else `default_seed`. Accepts the
/// `0x…` hex form that failure reports print, so seeds paste back in
/// verbatim.
pub fn seed_from_env(default_seed: u64) -> u64 {
    rfh_testkit::env::u64_knob("RFH_TESTKIT_SEED").unwrap_or(default_seed)
}

/// The one case driver of every layer. Derives `cases` per-case seeds
/// from `base_seed` via SplitMix64, runs `case` on each seed's RNG over
/// `jobs` workers with panics caught per case, and folds the outcomes in
/// case order, so the first violation reported is always the
/// lowest-numbered case whichever worker found it.
fn run_cases<F>(
    layer: &str,
    jobs: usize,
    cases: usize,
    base_seed: u64,
    case: F,
) -> Result<ChaosReport, String>
where
    F: Fn(&mut SmallRng) -> Result<CaseOutcome, String> + Sync,
{
    let mut seeder = SplitMix64::new(base_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| seeder.next_u64()).collect();
    let outcomes = par_map_with_jobs(jobs, &seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| {
            case(&mut SmallRng::seed_from_u64(seed))
        }))
    });
    let mut report = ChaosReport::default();
    for (n, (caught, seed)) in outcomes.into_iter().zip(&seeds).enumerate() {
        report.cases += 1;
        let violation = match caught {
            Ok(Ok(outcome)) => {
                *match outcome {
                    CaseOutcome::Rejected => &mut report.rejected,
                    CaseOutcome::Identical => &mut report.identical,
                    CaseOutcome::Structured => &mut report.structured,
                    CaseOutcome::Flagged => &mut report.flagged,
                    CaseOutcome::Unchanged => &mut report.unchanged,
                } += 1;
                continue;
            }
            Ok(Err(violation)) => violation,
            Err(_) => "PANIC escaped the pipeline".to_string(),
        };
        return Err(format!(
            "{layer} layer, case {n} (seed {seed:#018x}): {violation}"
        ));
    }
    Ok(report)
}

/// [`run_cases`] over structural IR mutants of `w`'s kernel
/// ([`ir::mutate_kernel`]): a no-op mutation or a validator rejection
/// settles the case, and `judge` classifies every mutant that passes
/// validation.
fn run_ir_cases<F>(
    layer: &str,
    w: &Workload,
    cases: usize,
    base_seed: u64,
    judge: F,
) -> Result<ChaosReport, String>
where
    F: Fn(Kernel) -> Result<CaseOutcome, String> + Sync,
{
    run_cases(layer, jobs(), cases, base_seed, |rng| {
        let mut mutant = w.kernel.clone();
        ir::mutate_kernel(&mut mutant, rng);
        if mutant == w.kernel {
            Ok(CaseOutcome::Unchanged)
        } else if rfh_isa::validate(&mutant).is_err() {
            Ok(CaseOutcome::Rejected)
        } else {
            judge(mutant)
        }
    })
}

/// Mutant executions are bounded: a corrupted kernel may loop forever, and
/// the contract is a structured `InstructionBudget` error, not a hang.
fn bounded_machine() -> MachineConfig {
    let mut m = MachineConfig::paper();
    m.max_warp_instructions = 50_000;
    m
}

/// Invariant check on the canonical access resolver: for every
/// instruction of a (possibly corrupted) kernel, `AccessPlan::resolve`
/// must be panic-free and self-consistent with the raw annotations —
/// one read per register source, one written word per destination
/// register, and MRF-write parity with the `WriteLoc` annotation. Every
/// counting and validation layer now consumes the plan, so a resolver
/// that drifts under corruption would silently skew all of them at once.
fn check_plan_sanity(kernel: &Kernel) -> Result<(), String> {
    let mut plan = rfh_isa::AccessPlan::new();
    for (at, instr) in kernel.iter_instrs() {
        plan.resolve_into(instr);
        let dst_words = instr.dst.map(|d| d.regs().count()).unwrap_or(0);
        if plan.written_words().len() != dst_words {
            return Err(format!(
                "access plan at {at}: {} written words but the destination has {dst_words}",
                plan.written_words().len()
            ));
        }
        let reg_srcs = instr.srcs.iter().filter(|s| s.as_reg().is_some()).count();
        let reads = plan.reads().count();
        if reads != reg_srcs {
            return Err(format!(
                "access plan at {at}: {reads} reads but {reg_srcs} register sources"
            ));
        }
        if dst_words > 0 && plan.writes_mrf() != instr.write_loc.writes_mrf() {
            return Err(format!(
                "access plan at {at}: writes_mrf disagrees with the WriteLoc annotation"
            ));
        }
    }
    Ok(())
}

/// Differential check for a structurally *validated* mutant kernel: run it
/// unallocated in baseline mode, observed by `sinks`, then allocate it
/// (guided by last-use hints if `hints`) and run it in hierarchy mode.
/// Allocation must preserve the mutant's semantics exactly — identical
/// final memory, or the same structured-failure fate in both modes.
fn differential(
    mutant: &Kernel,
    cfg: &AllocConfig,
    hints: bool,
    w: &Workload,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<CaseOutcome, String> {
    let machine = bounded_machine();
    let mut base_mem = w.memory.clone();
    let base = execute_with(
        mutant,
        &w.launch,
        &mut base_mem,
        ExecMode::Baseline,
        &machine,
        sinks,
    );
    let mut allocated = mutant.clone();
    if allocate_with_hints(&mut allocated, cfg, &EnergyModel::paper(), hints).is_err() {
        return Ok(CaseOutcome::Rejected);
    }
    let mut hier_mem = w.memory.clone();
    let hier = execute_with(
        &allocated,
        &w.launch,
        &mut hier_mem,
        ExecMode::Hierarchy(*cfg),
        &machine,
        &mut [],
    );
    let allocated = if hints { "hint-allocated" } else { "allocated" };
    match (base, hier) {
        (Ok(_), Ok(_)) if base_mem.words() == hier_mem.words() => Ok(CaseOutcome::Identical),
        (Ok(_), Ok(_)) => Err(format!(
            "{allocated} mutant diverged from its own baseline execution"
        )),
        (Err(_), Err(_)) => Ok(CaseOutcome::Structured),
        (Ok(_), Err(e)) => Err(format!(
            "hierarchy-only failure on a {allocated} mutant: {e}"
        )),
        (Err(e), Ok(_)) => Err(format!("baseline-only failure on a validated mutant: {e}")),
    }
}

/// One engine's run of a kernel: its result, SW access counts and final
/// memory image.
struct EngineRun {
    result: Result<ExecReport, ExecError>,
    counts: AccessCounts,
    mem: GlobalMemory,
}

fn run_engine(
    engine: rfh_oracle::exec::Execute,
    kernel: &Kernel,
    mode: ExecMode,
    w: &Workload,
    machine: &MachineConfig,
) -> EngineRun {
    let mut mem = w.memory.clone();
    let mut counter = SwCounter::default();
    let result = engine(
        kernel,
        &w.launch,
        &mut mem,
        mode,
        machine,
        &mut [&mut counter],
    );
    EngineRun {
        result,
        counts: counter.counts(),
        mem,
    }
}

/// The engine-conformance relation between the shipped SoA engine and
/// the frozen reference interpreter on one kernel: whatever the SoA
/// engine accepts, the reference accepts with an identical report,
/// access counts and memory image, and an SoA rejection is the very same
/// structured error on the reference. Any asymmetry is an engine bug,
/// not a property of the kernel.
fn engines_agree(soa: &EngineRun, oracle: &EngineRun) -> Result<(), String> {
    match (&soa.result, &oracle.result) {
        (Ok(a), Ok(b)) if a != b => Err(format!(
            "engines accepted the mutant with different reports: soa {a:?} vs reference {b:?}"
        )),
        (Ok(_), Ok(_)) if soa.counts != oracle.counts => Err(format!(
            "engines accepted the mutant with different access counts: \
             soa {:?} vs reference {:?}",
            soa.counts, oracle.counts
        )),
        (Ok(_), Ok(_)) if soa.mem.words() != oracle.mem.words() => {
            Err("engines accepted the mutant with different memory images".into())
        }
        (Ok(_), Ok(_)) => Ok(()),
        (Err(a), Err(b)) if a == b => Ok(()),
        (Err(a), Err(b)) => Err(format!(
            "engines rejected the mutant with different errors: soa `{a}` vs reference `{b}`"
        )),
        (Ok(_), Err(e)) => Err(format!(
            "reference-only failure on a mutant the SoA engine accepted: {e}"
        )),
        (Err(e), Ok(_)) => Err(format!(
            "SoA-only failure on a mutant the reference engine accepted: {e}"
        )),
    }
}

/// Fuzzes the parser (and everything behind it) with byte-level
/// corruptions of the workload kernel's textual form.
///
/// # Errors
///
/// Returns a replayable description of the first trichotomy violation:
/// a panic, or a validated mutant whose baseline and hierarchy executions
/// disagree.
pub fn run_byte_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let text = rfh_isa::printer::print_kernel(&w.kernel);
    run_cases("byte", jobs(), cases, base_seed, |rng| {
        let mutated = byte::mutate_text(&text, rng);
        if mutated == text {
            return Ok(CaseOutcome::Unchanged);
        }
        match rfh_isa::parse_kernel(&mutated) {
            Err(_) => Ok(CaseOutcome::Rejected),
            Ok(kernel) => differential(&kernel, cfg, false, w, &mut []),
        }
    })
}

/// Fuzzes the validator/allocator with structural IR corruptions.
///
/// # Errors
///
/// As for [`run_byte_layer`].
pub fn run_ir_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    run_ir_cases("IR", w, cases, base_seed, |mutant| {
        check_plan_sanity(&mutant)?;
        differential(&mutant, cfg, false, w, &mut [])
    })
}

/// Fuzzes the static analyzer (`rfh-lint`) with structural IR corruptions
/// and proves its **soundness** one-directionally: every mutant that lint
/// does *not* flag with an error must execute and validate cleanly (the
/// same differential contract as [`run_ir_layer`]). Mutants flagged by
/// lint count as **flagged**; since the executor zero-initializes
/// registers, lint is deliberately stricter than execution, so flagged
/// mutants that would also have executed cleanly are not violations.
///
/// # Errors
///
/// Returns a replayable description of the first soundness violation: a
/// panic, or a lint-clean validated mutant whose baseline and hierarchy
/// executions disagree.
pub fn run_lint_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let options = rfh_lint::LintOptions {
        alloc: *cfg,
        ..Default::default()
    };
    run_ir_cases("lint", w, cases, base_seed, |mutant| {
        if rfh_lint::has_errors(&rfh_lint::lint_kernel(&mutant, &options)) {
            return Ok(CaseOutcome::Flagged);
        }
        differential(&mutant, cfg, false, w, &mut [])
    })
}

/// Fuzzes every placement judge at once with corrupted placements
/// ([`place::mutate_placements`]) on a correctly allocated kernel. For
/// each mutant it computes each verdict once — `validate_placements`, the
/// shipped executor (with a [`SwCounter`]), [`replay`] from the workload's
/// baseline stream (recorded once per layer), and the storage-faithful
/// reference interpreter `rfh_oracle::exec` (with a [`SwCounter`]) — and
/// checks the relations between them:
///
/// 1. the access resolver's invariants hold on every mutant;
/// 2. **validator soundness**: a mutant `validate_placements` accepts
///    executes on the oracle to the reference memory image, and the
///    shipped executor and replay both accept it;
/// 3. replay is at least as strict as storage-faithful execution: a
///    mutant the oracle rejects (an error or a failed host `verify`),
///    replay rejects too;
/// 4. shipped execution and replay step one tag model, so they accept
///    exactly the same mutants, and count a mutant both accept equally;
/// 5. **engine conformance**: a mutant shipped execution accepts, the
///    oracle accepts with an identical report, counts and memory image,
///    and a shipped error other than `BadPlacement` is the identical
///    oracle error.
///
/// The oracle runs only where a relation reads its verdict: on a mutant
/// the shipped run rejected with `BadPlacement`, relations 2–5 hold
/// whatever the oracle returns, so it is skipped there.
///
/// The report's `identical` counts mutants every judge accepts,
/// `rejected` those only the validator rejects, `flagged` the tag
/// model's `BadPlacement`s, and `structured` identical runtime errors —
/// none in practice: a mutant changes only annotations and hierarchy mode
/// computes baseline values, so the trichotomy tests pin it at 0.
///
/// # Errors
///
/// Returns a replayable description of the first violated relation, or a
/// panic — the critical case being an unflagged corruption that changes
/// results (validator unsoundness).
pub fn run_placement_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let mut allocated = w.kernel.clone();
    allocate(&mut allocated, cfg, &EnergyModel::paper())
        .map_err(|e| format!("seed kernel failed to allocate: {e}"))?;
    let machine = bounded_machine();
    // One baseline run yields both the reference memory image and the
    // stream every mutant is replayed from.
    let mut recorder = StreamRecorder::new(&w.kernel);
    let mut ref_mem = w.memory.clone();
    execute_with(
        &w.kernel,
        &w.launch,
        &mut ref_mem,
        ExecMode::Baseline,
        &machine,
        &mut [&mut recorder],
    )
    .map_err(|e| format!("seed kernel failed to execute: {e}"))?;
    let stream = recorder.finish();
    let mode = ExecMode::Hierarchy(*cfg);

    run_cases("placement", jobs(), cases, base_seed, |rng| {
        let mut mutant = allocated.clone();
        place::mutate_placements(&mut mutant, cfg.orf_entries, rng);
        if mutant == allocated {
            return Ok(CaseOutcome::Unchanged);
        }
        // (1) Placement mutations never touch operand structure.
        check_plan_sanity(&mutant)?;
        let validated = validate_placements(&mutant, cfg).is_ok();
        let shipped = run_engine(execute_with, &mutant, mode, w, &machine);
        let mut replayed = AccessCounts::default();
        let replayed_ok = replay(
            &mutant,
            &stream,
            mode,
            &machine,
            SwCounter::default,
            |c, warps| replayed += c.counts() * warps,
        );
        // (4) One tag model behind execution and replay.
        let counted = shipped.result.is_err() || replayed == shipped.counts;
        if shipped.result.is_ok() != replayed_ok.is_ok() || !counted {
            return Err(format!(
                "replay and execution disagree: replay {replayed_ok:?} counting {replayed:?}, \
                 execution {:?} counting {:?}",
                shipped.result, shipped.counts
            ));
        }
        // (2) The validator vouches for execution and replay.
        if let (true, Err(e)) = (validated, &shipped.result) {
            return Err(format!(
                "execution and replay rejected a mutant the placement validator accepts: {e}"
            ));
        }
        if let Err(ExecError::BadPlacement { .. }) = shipped.result {
            return Ok(CaseOutcome::Flagged);
        }
        let oracle = run_engine(rfh_oracle::exec::execute_with, &mutant, mode, w, &machine);
        // (2) The validator vouches for the storage-faithful result.
        if validated && (oracle.result.is_err() || oracle.mem.words() != ref_mem.words()) {
            return Err(format!(
                "the oracle missed the reference memory on a mutant the placement validator \
                 accepts ({:?}) — validator unsoundness",
                oracle.result
            ));
        }
        // (3) Replay rejects whatever storage-faithful execution rejects.
        let storage = oracle
            .result
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|_| (w.verify)(&w.memory, &oracle.mem));
        if let (Err(e), Ok(())) = (storage, &replayed_ok) {
            return Err(format!(
                "replay accepted a mutant storage-faithful execution rejects: {e}"
            ));
        }
        // (5) Engine conformance.
        engines_agree(&shipped, &oracle)?;
        Ok(match shipped.result {
            Err(_) => CaseOutcome::Structured,
            Ok(_) if validated => CaseOutcome::Identical,
            Ok(_) => CaseOutcome::Rejected,
        })
    })
}

/// Fuzzes the `rfhd` wire protocol against a **live in-process daemon**:
/// seeded raw-socket faults (truncated frames, garbage bytes, oversized
/// length prefixes, mid-request disconnects, stalled slow writers)
/// interleaved with well-formed requests, each followed by a fresh
/// well-formed probe. The trichotomy here: well-formed requests succeed
/// (**identical**), malformed traffic draws a structured error frame
/// (**structured**) or a clean teardown (**rejected**), and the daemon
/// keeps serving throughout — no deaths, no poisoned workers, no leaked
/// queue slots. After the last case the daemon is drained and its exit
/// report is checked for leaks and absorbed panics.
///
/// # Errors
///
/// Returns a replayable description of the first violation: a failed
/// probe (daemon dead or poisoned), a fault answered with success, a
/// well-formed request answered with failure, an undecodable response,
/// a silent daemon, or a drain that leaks connections.
pub fn run_protocol_layer(cases: usize, base_seed: u64) -> Result<ChaosReport, String> {
    use rfh_rfhd::server::{Endpoint, Server, ServerConfig};

    // Small socket read timeout so the slow-writer flavor resolves
    // quickly. A stall holds a connection thread, not a worker, and the
    // connection cap (workers + queue depth) is well above what the
    // concurrent cases open; a rare shed is absorbed by probe retries.
    const IO_TIMEOUT_MS: u64 = 100;
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.workers = 4;
    cfg.queue_depth = 32;
    cfg.io_timeout_ms = IO_TIMEOUT_MS;
    cfg.timeout_ms = 2_000;
    let handle = Server::spawn(cfg).map_err(|e| format!("daemon failed to start: {e}"))?;
    let endpoint = handle.endpoint.clone();
    let addr = match &endpoint {
        Endpoint::Tcp(a) => a.clone(),
        Endpoint::Unix(p) => format!("{}", p.display()),
    };

    // Protocol cases are I/O-bound (socket timeouts, deliberate stalls),
    // not CPU-bound, so fan out wider than the core count; outcomes are
    // still folded in case order, so the report stays deterministic.
    const IO_JOBS: usize = 8;
    let folded = run_cases("protocol", IO_JOBS, cases, base_seed, |rng| {
        let observed = wire::inject(&addr, IO_TIMEOUT_MS, rng)?;
        // Whatever the fault did, the daemon must still serve.
        wire::probe(&endpoint, rng.next_u64())?;
        Ok(match observed {
            wire::Observation::Succeeded => CaseOutcome::Identical,
            wire::Observation::ErrorFrame => CaseOutcome::Structured,
            wire::Observation::Closed => CaseOutcome::Rejected,
        })
    });
    // Drain even on a violation so the listener thread never outlives
    // the layer; a drain failure is itself a violation.
    let drained = wire::drain(handle);
    let report = folded?;
    drained?;
    Ok(report)
}

/// Fuzzes the *executor pair* with structural IR corruptions, executed
/// unallocated in baseline mode on the shipped SoA engine and the frozen
/// reference oracle: every structurally valid mutant must satisfy
/// `engines_agree` — the oracle accepts whatever the SoA engine accepts
/// with bit-identical state (report, access counts, memory image), and
/// every SoA rejection is the identical structured error on the oracle.
/// Placement mutants are [`run_placement_layer`]'s.
///
/// # Errors
///
/// Returns a replayable description of the first engine asymmetry: a
/// panic, a mutant one engine accepts and the other rejects, or an
/// accepted mutant whose observable state differs between engines.
pub fn run_exec_differential_layer(
    w: &Workload,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let machine = bounded_machine();
    run_ir_cases("exec-differential", w, cases, base_seed, |mutant| {
        let run = |engine| run_engine(engine, &mutant, ExecMode::Baseline, w, &machine);
        let soa = run(execute_with);
        engines_agree(&soa, &run(rfh_oracle::exec::execute_with))?;
        Ok(if soa.result.is_ok() {
            CaseOutcome::Identical
        } else {
            CaseOutcome::Structured
        })
    })
}

/// A [`TraceSink`] that checks every claim of the abstract interpreter
/// against the concrete execution, per instruction and per lane:
///
/// * written register values stay inside the predicted interval;
/// * affine claims (`coef·tid + off`) match bit-exactly;
/// * uniform-marked writes never diverge across the executing lanes;
/// * known/uniform predicate claims hold on written predicate bits;
/// * a guard with a known truth value masks exactly as predicted;
/// * no executing lane reaches an instruction proved unreachable;
/// * a read marked as a proven last use really is final: no later read
///   of that register executes on the same lane before a redefinition.
///
/// The first violated claim is recorded in `violation` and checking stops.
struct CheckSink<'a> {
    kernel: &'a Kernel,
    res: &'a absint::AbsResults,
    hints: &'a last_use::LastUseHints,
    warps_per_cta: usize,
    warp_width: usize,
    /// Per `(warp, register index)`: lane mask armed by a proven last use,
    /// cleared by redefinition or warp completion.
    armed: HashMap<(usize, usize), u32>,
    violation: Option<String>,
}

impl<'a> CheckSink<'a> {
    fn new(
        kernel: &'a Kernel,
        res: &'a absint::AbsResults,
        hints: &'a last_use::LastUseHints,
        warps_per_cta: usize,
        warp_width: usize,
    ) -> Self {
        CheckSink {
            kernel,
            res,
            hints,
            warps_per_cta,
            warp_width,
            armed: HashMap::new(),
            violation: None,
        }
    }

    fn lane_tid(&self, warp: usize, lane: usize) -> i32 {
        ((warp % self.warps_per_cta) * self.warp_width + lane) as i32
    }

    fn check_reg_claim(
        &mut self,
        claim: &absint::AbsVal,
        warp: usize,
        at: InstrRef,
        reg: rfh_isa::Reg,
        lanes: &[u32],
        exec_mask: u32,
    ) {
        let mut first_exec: Option<u32> = None;
        for (lane, &v) in lanes.iter().enumerate() {
            if exec_mask & (1 << lane) == 0 {
                continue;
            }
            let signed = v as i32;
            if signed < claim.lo || signed > claim.hi {
                self.violation = Some(format!(
                    "absint interval violated at {at}: warp {warp} lane {lane} wrote \
                     {signed} to {reg}, outside the predicted [{}, {}]",
                    claim.lo, claim.hi
                ));
                return;
            }
            if let Some((coef, off)) = claim.affine {
                let expect = coef
                    .wrapping_mul(self.lane_tid(warp, lane))
                    .wrapping_add(off) as u32;
                if v != expect {
                    self.violation = Some(format!(
                        "absint affine claim violated at {at}: warp {warp} lane {lane} wrote \
                         {v:#x} to {reg}, expected {coef}·tid + {off} = {expect:#x}"
                    ));
                    return;
                }
            }
            match first_exec {
                None => first_exec = Some(v),
                Some(w0) if claim.uniform && v != w0 => {
                    self.violation = Some(format!(
                        "absint uniformity violated at {at}: warp {warp} wrote divergent \
                         values {w0:#x} and {v:#x} to uniform-marked {reg}"
                    ));
                    return;
                }
                Some(_) => {}
            }
        }
    }
}

impl TraceSink for CheckSink<'_> {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        if self.violation.is_some() {
            return;
        }
        let f = self.res.fact(event.at);
        if event.exec_mask != 0 && !f.reachable {
            self.violation = Some(format!(
                "absint reachability violated: lanes executed {} (warp {}) though the \
                 analysis proved no lane can reach it",
                event.at, event.warp
            ));
            return;
        }
        // A guard with a known truth value must mask exactly as predicted.
        if let (Some(g), Some(ga)) = (&event.instr.guard, &f.guard) {
            if let Some(v) = ga.known {
                let expect = if v != g.negated { event.active_mask } else { 0 };
                if event.exec_mask != expect {
                    self.violation = Some(format!(
                        "absint guard claim violated at {}: predicate known {v} but warp {} \
                         executed with mask {:#x} (active {:#x})",
                        event.at, event.warp, event.exec_mask, event.active_mask
                    ));
                    return;
                }
            } else if ga.uniform && event.exec_mask != 0 && event.exec_mask != event.active_mask {
                self.violation = Some(format!(
                    "absint guard uniformity violated at {}: warp {} split over a \
                     uniform-marked guard (exec {:#x} of active {:#x})",
                    event.at, event.warp, event.exec_mask, event.active_mask
                ));
                return;
            }
        }
        // Last-use protocol: check reads against armed lanes, then arm this
        // instruction's own proven last uses, then let its definitions
        // disarm (a read+write of the same register starts a new value).
        for (slot, src) in event.instr.srcs.iter().enumerate() {
            let Operand::Reg(r) = src else { continue };
            let key = (event.warp, r.index() as usize);
            let armed = self.armed.get(&key).copied().unwrap_or(0);
            if armed & event.exec_mask != 0 {
                self.violation = Some(format!(
                    "last-use hint violated: {r} read again at {} (warp {}, lanes {:#x}) \
                     after a read the analysis proved final",
                    event.at,
                    event.warp,
                    armed & event.exec_mask
                ));
                return;
            }
            if self.hints.excluded.contains(&(event.at, slot)) {
                *self.armed.entry(key).or_insert(0) |= event.exec_mask;
            }
        }
        for r in event.instr.def_regs() {
            if let Some(mask) = self.armed.get_mut(&(event.warp, r.index() as usize)) {
                *mask &= !event.exec_mask;
            }
        }
    }

    fn on_warp_done(&mut self, warp: usize) {
        self.armed.retain(|&(w, _), _| w != warp);
    }

    fn on_reg_write(
        &mut self,
        warp: usize,
        at: InstrRef,
        reg: rfh_isa::Reg,
        lanes: &[u32],
        exec_mask: u32,
    ) {
        if self.violation.is_some() {
            return;
        }
        let Some(d) = self.kernel.instr(at).dst else {
            return;
        };
        let f = self.res.fact(at);
        let claim = if reg == d.reg { &f.dst } else { &f.dst_hi };
        if let Some(claim) = *claim {
            self.check_reg_claim(&claim, warp, at, reg, lanes, exec_mask);
        }
    }

    fn on_pred_write(
        &mut self,
        warp: usize,
        at: InstrRef,
        pred: rfh_isa::PredReg,
        bits: u32,
        exec_mask: u32,
    ) {
        if self.violation.is_some() {
            return;
        }
        let Some(claim) = &self.res.fact(at).pdst else {
            return;
        };
        let exec_bits = bits & exec_mask;
        if let Some(v) = claim.known {
            let expect = if v { exec_mask } else { 0 };
            if exec_bits != expect {
                self.violation = Some(format!(
                    "absint predicate claim violated at {at}: warp {warp} wrote bits {bits:#x} \
                     to {pred} (exec {exec_mask:#x}) but the analysis proved every lane \
                     writes {v}"
                ));
            }
        } else if claim.uniform && exec_bits != 0 && exec_bits != exec_mask {
            self.violation = Some(format!(
                "absint predicate uniformity violated at {at}: warp {warp} wrote mixed bits \
                 {bits:#x} to uniform-marked {pred} (exec {exec_mask:#x})"
            ));
        }
    }
}

/// Fuzzes the abstract interpreter (`rfh_analysis::absint`) and its
/// last-use hint pass with structural IR corruptions and proves their
/// **soundness on every surviving mutant**: the analyses must be
/// panic-free on any validated kernel, every claim they derive must hold
/// on the concrete baseline execution ([`CheckSink`] — intervals, affine
/// forms, warp uniformity, predicate knowledge, reachability, and the
/// last-use read protocol, checked per lane), and hint-guided allocation
/// ([`allocate_with_hints`]) must preserve the mutant's semantics exactly
/// under the usual differential contract.
///
/// # Errors
///
/// Returns a replayable description of the first violation: a panic in
/// analysis, a concrete value escaping its predicted range, a divergent
/// uniform-marked register, a read after a proven last use, or a
/// hint-allocated mutant whose execution differs from its own baseline.
pub fn run_absint_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let machine = bounded_machine();
    let ctx = absint::AbsCtx {
        threads_per_cta: Some(w.launch.threads_per_cta as u32),
        ctas: Some(w.launch.ctas as u32),
    };
    let warps_per_cta = w.launch.threads_per_cta.div_ceil(machine.warp_width);
    run_ir_cases("absint", w, cases, base_seed, |mut mutant| {
        // The analyses must be panic-free and sound on any kernel that
        // passed validation — mutants included.
        mark_strands(&mut mutant);
        let res = absint::analyze(&mutant, ctx);
        let hints = last_use::analyze(&mutant);
        let mut sink = CheckSink::new(&mutant, &res, &hints, warps_per_cta, machine.warp_width);
        // Hint-guided allocation must preserve the mutant's semantics.
        let outcome = differential(&mutant, cfg, true, w, &mut [&mut sink]);
        // Claims checked before a structured abort are still claims.
        match sink.violation {
            Some(v) => Err(v),
            None => outcome,
        }
    })
}

/// Fuzzes the *timing-engine pair* with seeded corruptions of a captured
/// trace set and its scheduler config ([`crate::trace`]): reordered ops,
/// perturbed latency classes, scrambled dependences, truncated warp
/// streams, unbalanced barriers, and degenerate configs. Every mutant
/// replays through both the flat engine (`simulate_timing`) and the
/// frozen reference oracle; the contract is exact agreement on the full
/// `Result` — identical `TimingResult`s on survivors (**identical**), identical
/// structured errors on malformed inputs (**rejected** for up-front
/// config errors, **structured** for deadlocks and budget trips), and no
/// panics or hangs anywhere.
///
/// # Errors
///
/// Returns a replayable description of the first violation: a panic, an
/// accept/reject asymmetry between the engines, or any divergence in
/// results or error values (the deadlock snapshot included).
pub fn run_timing_layer(w: &Workload, cases: usize, base_seed: u64) -> Result<ChaosReport, String> {
    use rfh_sim::timing::{simulate_timing, TimingConfig, TimingError, TraceCapture};

    // Capture the workload's trace once; every case mutates a clone.
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
    .map_err(|e| format!("timing layer: trace capture failed for {}: {e}", w.name))?;
    let base_config = TimingConfig::two_level(8);

    run_cases("timing", jobs(), cases, base_seed, |rng| {
        let mut traces = cap.traces.clone();
        let mut config = base_config.clone();
        trace::mutate_timing(&mut traces, &mut config, rng);
        if traces == cap.traces && config == base_config {
            return Ok(CaseOutcome::Unchanged);
        }
        let cta_of = |wi: usize| cap.cta_of(wi);
        let flat = simulate_timing(&traces, &cta_of, &config);
        let oracle = rfh_oracle::timing::simulate(&traces, &cta_of, &config);
        match (flat, oracle) {
            (Ok(f), Ok(r)) if f == r => Ok(CaseOutcome::Identical),
            (Err(a), Err(b)) if a == b && matches!(a, TimingError::Config(_)) => {
                Ok(CaseOutcome::Rejected)
            }
            (Err(a), Err(b)) if a == b => Ok(CaseOutcome::Structured),
            (flat, oracle) => Err(format!(
                "engines disagree on the mutant: flat {flat:?} vs reference {oracle:?}"
            )),
        }
    })
}
