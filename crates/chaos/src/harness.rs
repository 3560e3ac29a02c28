//! The trichotomy driver.
//!
//! Each `run_*_layer` function fuzzes one pipeline layer with seeded
//! mutants of a workload's kernel and classifies every case:
//!
//! * **rejected** — a structured error from parse/validate/allocate;
//! * **identical** — the mutant passed validation and differential
//!   execution (baseline vs. hierarchy-faithful, or mutant vs. reference
//!   for placements) produced bit-identical memory images;
//! * **structured** — the mutant executes to a structured runtime error
//!   (out-of-bounds access, instruction budget) *in both modes*;
//! * **flagged** — placement layer only: `validate_placements` caught the
//!   corruption;
//! * **unchanged** — the mutation happened to be a no-op.
//!
//! Anything else — a panic, an execution-mode asymmetry, or an unflagged
//! placement corruption that changes results — aborts the run with a
//! message naming the case seed, replayable via `RFH_TESTKIT_SEED`.
//!
//! Cases fan out over the `RFH_JOBS` worker pool. Each case's seed is
//! derived up front from the base seed, and outcomes are folded in case
//! order, so reports and failure messages are identical at any job count.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rfh_alloc::{allocate, allocate_with_hints, validate_placements, AllocConfig};
use rfh_analysis::absint::{self, last_use};
use rfh_analysis::strand::mark_strands;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::{InstrRef, Kernel, Operand};
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with, execute_with_engine, replay, Engine, ExecMode, StreamRecorder};
use rfh_sim::machine::MachineConfig;
use rfh_sim::sink::{InstrEvent, TraceSink};
use rfh_testkit::pool::{par_map, par_map_with_jobs};
use rfh_testkit::prelude::*;
use rfh_workloads::Workload;

use crate::{byte, ir, place, trace, wire};

/// Aggregate classification of one layer's mutant population.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Total mutants generated.
    pub cases: usize,
    /// Rejected with a structured error before execution.
    pub rejected: usize,
    /// Validated and differentially identical.
    pub identical: usize,
    /// Structured runtime error, symmetric across execution modes.
    pub structured: usize,
    /// Caught by `validate_placements` (placement layer only).
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

/// Derives the per-case seed stream: every case's seed is a deterministic
/// function of the base seed alone, so cases can run in parallel over the
/// `RFH_JOBS` pool and still replay individually via `RFH_TESTKIT_SEED`.
fn case_seeds(base_seed: u64, cases: usize) -> Vec<u64> {
    let mut seeder = SplitMix64::new(base_seed);
    (0..cases).map(|_| seeder.next_u64()).collect()
}

/// Folds parallel case outcomes into a report in case order, so the first
/// violation reported is always the lowest-numbered case regardless of
/// which worker found it.
fn fold_cases(
    seeds: &[u64],
    outcomes: Vec<std::thread::Result<Result<CaseOutcome, String>>>,
    layer: &str,
) -> Result<ChaosReport, String> {
    let mut report = ChaosReport::default();
    for (case, caught) in outcomes.into_iter().enumerate() {
        record(&mut report, caught, layer, case, seeds[case])?;
    }
    Ok(report)
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
/// unallocated in baseline mode and allocated in hierarchy-faithful mode.
/// Allocation must preserve the mutant's semantics exactly — identical
/// final memory, or the same structured-failure fate in both modes.
fn differential(mutant: &Kernel, cfg: &AllocConfig, w: &Workload) -> Result<CaseOutcome, String> {
    let mut allocated = mutant.clone();
    if allocate(&mut allocated, cfg, &EnergyModel::paper()).is_err() {
        return Ok(CaseOutcome::Rejected);
    }
    let machine = bounded_machine();
    let mut base_mem = w.memory.clone();
    let base = execute_with(
        mutant,
        &w.launch,
        &mut base_mem,
        ExecMode::Baseline,
        &machine,
        &mut [],
    );
    let mut hier_mem = w.memory.clone();
    let hier = execute_with(
        &allocated,
        &w.launch,
        &mut hier_mem,
        ExecMode::Hierarchy(*cfg),
        &machine,
        &mut [],
    );
    match (base, hier) {
        (Ok(_), Ok(_)) => {
            if base_mem.words() == hier_mem.words() {
                Ok(CaseOutcome::Identical)
            } else {
                Err("allocated mutant diverged from its own baseline execution".into())
            }
        }
        (Err(_), Err(_)) => Ok(CaseOutcome::Structured),
        (Ok(_), Err(e)) => Err(format!("hierarchy-only failure on a validated mutant: {e}")),
        (Err(e), Ok(_)) => Err(format!("baseline-only failure on a validated mutant: {e}")),
    }
}

/// Differential check between the two *executor engines* on the same
/// (possibly corrupted) kernel: the warp-batched SoA engine and the frozen
/// reference interpreter must meet exactly the same fate — identical
/// report, access counts, and memory image on acceptance, or the very same
/// structured error on rejection. Any asymmetry is an engine bug, not a
/// property of the mutant.
fn engine_differential(
    mutant: &Kernel,
    mode: ExecMode,
    w: &Workload,
    machine: &MachineConfig,
) -> Result<CaseOutcome, String> {
    let run = |engine: Engine| {
        let mut mem = w.memory.clone();
        let mut counter = SwCounter::default();
        let result = execute_with_engine(
            mutant,
            &w.launch,
            &mut mem,
            mode,
            machine,
            engine,
            &mut [&mut counter],
        );
        (result, counter.counts(), mem)
    };
    let (soa, soa_counts, soa_mem) = run(Engine::Soa);
    let (oracle, oracle_counts, oracle_mem) = run(Engine::Reference);
    match (soa, oracle) {
        (Ok(a), Ok(b)) => {
            if a != b {
                Err(format!(
                    "engines accepted the mutant with different reports: soa {a:?} vs reference {b:?}"
                ))
            } else if soa_counts != oracle_counts {
                Err(format!(
                    "engines accepted the mutant with different access counts: \
                     soa {soa_counts:?} vs reference {oracle_counts:?}"
                ))
            } else if soa_mem.words() != oracle_mem.words() {
                Err("engines accepted the mutant with different memory images".into())
            } else {
                Ok(CaseOutcome::Identical)
            }
        }
        (Err(a), Err(b)) => {
            if a == b {
                Ok(CaseOutcome::Structured)
            } else {
                Err(format!(
                    "engines rejected the mutant with different errors: soa `{a}` vs reference `{b}`"
                ))
            }
        }
        (Ok(_), Err(e)) => Err(format!(
            "reference-only failure on a mutant the SoA engine accepted: {e}"
        )),
        (Err(e), Ok(_)) => Err(format!(
            "SoA-only failure on a mutant the reference engine accepted: {e}"
        )),
    }
}

fn record(
    report: &mut ChaosReport,
    caught: std::thread::Result<Result<CaseOutcome, String>>,
    layer: &str,
    case: usize,
    seed: u64,
) -> Result<(), String> {
    report.cases += 1;
    match caught {
        Ok(Ok(outcome)) => {
            match outcome {
                CaseOutcome::Rejected => report.rejected += 1,
                CaseOutcome::Identical => report.identical += 1,
                CaseOutcome::Structured => report.structured += 1,
                CaseOutcome::Flagged => report.flagged += 1,
                CaseOutcome::Unchanged => report.unchanged += 1,
            }
            Ok(())
        }
        Ok(Err(violation)) => Err(format!(
            "{layer} layer, case {case} (seed {seed:#018x}): {violation}"
        )),
        Err(_) => Err(format!(
            "{layer} layer, case {case} (seed {seed:#018x}): PANIC escaped the pipeline"
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
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mutated = byte::mutate_text(&text, &mut rng);
            if mutated == text {
                return Ok(CaseOutcome::Unchanged);
            }
            match rfh_isa::parse_kernel(&mutated) {
                Err(_) => Ok(CaseOutcome::Rejected),
                Ok(kernel) => differential(&kernel, cfg, w),
            }
        }))
    });
    fold_cases(&seeds, outcomes, "byte")
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
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mutant = w.kernel.clone();
            ir::mutate_kernel(&mut mutant, &mut rng);
            if mutant == w.kernel {
                return Ok(CaseOutcome::Unchanged);
            }
            match rfh_isa::validate(&mutant) {
                Err(_) => Ok(CaseOutcome::Rejected),
                Ok(()) => {
                    check_plan_sanity(&mutant)?;
                    differential(&mutant, cfg, w)
                }
            }
        }))
    });
    fold_cases(&seeds, outcomes, "IR")
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
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mutant = w.kernel.clone();
            ir::mutate_kernel(&mut mutant, &mut rng);
            if mutant == w.kernel {
                return Ok(CaseOutcome::Unchanged);
            }
            match rfh_isa::validate(&mutant) {
                Err(_) => Ok(CaseOutcome::Rejected),
                Ok(()) => {
                    let diags = rfh_lint::lint_kernel(&mutant, &options);
                    if rfh_lint::has_errors(&diags) {
                        return Ok(CaseOutcome::Flagged);
                    }
                    differential(&mutant, cfg, w)
                }
            }
        }))
    });
    fold_cases(&seeds, outcomes, "lint")
}

/// Fuzzes the placement validator with corrupted placements on a
/// correctly allocated kernel, and proves its **soundness** by
/// differential execution: any corruption it does **not** flag must
/// execute to exactly the reference memory image.
///
/// # Errors
///
/// Returns a replayable description of the first violation: a panic, an
/// unflagged corruption that fails to execute, or — the critical case —
/// an unflagged corruption that changes results.
pub fn run_place_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let mut allocated = w.kernel.clone();
    allocate(&mut allocated, cfg, &EnergyModel::paper())
        .map_err(|e| format!("seed kernel failed to allocate: {e}"))?;
    let machine = bounded_machine();
    let mut ref_mem = w.memory.clone();
    execute_with(
        &w.kernel,
        &w.launch,
        &mut ref_mem,
        ExecMode::Baseline,
        &machine,
        &mut [],
    )
    .map_err(|e| format!("seed kernel failed to execute: {e}"))?;

    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mutant = allocated.clone();
            place::mutate_placements(&mut mutant, cfg.orf_entries, &mut rng);
            if mutant == allocated {
                return Ok(CaseOutcome::Unchanged);
            }
            // Placement mutations never touch operand structure, so the
            // access resolver's invariants must hold on *every* mutant,
            // flagged or not.
            check_plan_sanity(&mutant)?;
            if validate_placements(&mutant, cfg).is_err() {
                return Ok(CaseOutcome::Flagged);
            }
            // Unflagged: the corruption must be semantically transparent.
            let mut mem = w.memory.clone();
            match execute_with(
                &mutant,
                &w.launch,
                &mut mem,
                ExecMode::Hierarchy(*cfg),
                &machine,
                &mut [],
            ) {
                Err(e) => Err(format!("unflagged placement mutant failed to execute: {e}")),
                Ok(_) if mem.words() == ref_mem.words() => Ok(CaseOutcome::Identical),
                Ok(_) => Err(
                    "unflagged placement corruption changed results — validator unsoundness".into(),
                ),
            }
        }))
    });
    fold_cases(&seeds, outcomes, "placement")
}

/// Fuzzes the *replay* placement check ([`rfh_sim::exec::replay`]) with
/// the placement mutants of [`run_place_layer`]. The workload's baseline
/// run is recorded once; every mutant is then executed hierarchy-faithfully
/// (and verified against the host reference) and replayed from the
/// recording, and two one-directional invariants must hold:
///
/// * replay is at least as strict as execution: every mutant execution
///   rejects (an error or a failed verify), replay rejects too;
/// * replay is no stricter than the placement validator: every mutant
///   `validate_placements` accepts, replay accepts.
///
/// A mutant both accept must also count identically. The report's
/// `rejected` counts replay rejections, `identical` the mutants both
/// accept, and `flagged` the mutants only replay rejects — the stale but
/// equal reads final memory cannot see.
///
/// # Errors
///
/// Returns a replayable description of the first violation: a panic, a
/// mutant replay accepts that execution rejects, a validator-accepted
/// mutant replay rejects, or accepted counts that differ.
pub fn run_replay_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let mut allocated = w.kernel.clone();
    allocate(&mut allocated, cfg, &EnergyModel::paper())
        .map_err(|e| format!("seed kernel failed to allocate: {e}"))?;
    let machine = bounded_machine();
    let mut recorder = StreamRecorder::new(&w.kernel);
    let mut mem = w.memory.clone();
    execute_with(
        &w.kernel,
        &w.launch,
        &mut mem,
        ExecMode::Baseline,
        &machine,
        &mut [&mut recorder],
    )
    .map_err(|e| format!("seed kernel failed to execute: {e}"))?;
    let stream = recorder.finish();

    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mutant = allocated.clone();
            place::mutate_placements(&mut mutant, cfg.orf_entries, &mut rng);
            if mutant == allocated {
                return Ok(CaseOutcome::Unchanged);
            }
            let mode = ExecMode::Hierarchy(*cfg);
            let mut mem = w.memory.clone();
            let mut executed = SwCounter::default();
            let execution = execute_with(
                &mutant,
                &w.launch,
                &mut mem,
                mode,
                &machine,
                &mut [&mut executed],
            )
            .map_err(|e| e.to_string())
            .and_then(|_| (w.verify)(&w.memory, &mem));
            let mut replayed = AccessCounts::default();
            let replay = replay(
                &mutant,
                &stream,
                mode,
                &machine,
                SwCounter::default,
                |c, warps| replayed += c.counts() * warps,
            );
            let validated = validate_placements(&mutant, cfg);
            match (execution, replay) {
                (Err(e), Ok(())) => Err(format!("replay accepted a mutant execution rejects: {e}")),
                (_, Err(e)) if validated.is_ok() => Err(format!(
                    "replay rejected a mutant the placement validator accepts: {e}"
                )),
                (Err(_), Err(_)) => Ok(CaseOutcome::Rejected),
                (Ok(()), Err(_)) => Ok(CaseOutcome::Flagged),
                (Ok(()), Ok(())) if replayed == executed.counts() => Ok(CaseOutcome::Identical),
                (Ok(()), Ok(())) => Err(format!(
                    "replayed counts {replayed:?} differ from executed {:?}",
                    executed.counts()
                )),
            }
        }))
    });
    fold_cases(&seeds, outcomes, "replay")
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
    // quickly; enough workers and queue depth that concurrent chaos
    // cases mostly ride out each other's stalls via the queue, with the
    // occasional shed absorbed by probe retries.
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
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map_with_jobs(8, &seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let observed = wire::inject(&addr, IO_TIMEOUT_MS, &mut rng)?;
            // Whatever the fault did, the daemon must still serve.
            wire::probe(&endpoint, seed)?;
            Ok(match observed {
                wire::Observation::Succeeded => CaseOutcome::Identical,
                wire::Observation::ErrorFrame => CaseOutcome::Structured,
                wire::Observation::Closed => CaseOutcome::Rejected,
            })
        }))
    });
    let folded = fold_cases(&seeds, outcomes, "protocol");
    // Drain even on a violation so the listener thread never outlives
    // the layer; a drain failure is itself a violation.
    let drained = wire::drain(handle);
    let report = folded?;
    drained?;
    Ok(report)
}

/// Fuzzes the *executor pair* with structural IR corruptions (executed
/// unallocated in baseline mode) and placement corruptions on an
/// allocated clone (executed hierarchy-faithfully): every structurally
/// valid mutant must land in the same accept/reject class on the SoA
/// engine and the frozen reference oracle, with bit-identical state
/// (report, access counts, memory image) on acceptance and the identical
/// structured error on rejection.
///
/// # Errors
///
/// Returns a replayable description of the first engine asymmetry: a
/// panic, a mutant one engine accepts and the other rejects, or an
/// accepted mutant whose observable state differs between engines.
pub fn run_exec_differential_layer(
    w: &Workload,
    cfg: &AllocConfig,
    cases: usize,
    base_seed: u64,
) -> Result<ChaosReport, String> {
    let mut allocated = w.kernel.clone();
    allocate(&mut allocated, cfg, &EnergyModel::paper())
        .map_err(|e| format!("seed kernel failed to allocate: {e}"))?;
    let machine = bounded_machine();
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Alternate mutant flavors so both engine frontends get
            // exercised: raw IR damage on the unallocated kernel, and
            // placement damage on the allocated one.
            let (mutant, mode, pristine) = if rng.gen() {
                let mut m = w.kernel.clone();
                ir::mutate_kernel(&mut m, &mut rng);
                (m, ExecMode::Baseline, &w.kernel)
            } else {
                let mut m = allocated.clone();
                place::mutate_placements(&mut m, cfg.orf_entries, &mut rng);
                (m, ExecMode::Hierarchy(*cfg), &allocated)
            };
            if mutant == *pristine {
                return Ok(CaseOutcome::Unchanged);
            }
            if rfh_isa::validate(&mutant).is_err() {
                return Ok(CaseOutcome::Rejected);
            }
            engine_differential(&mutant, mode, w, &machine)
        }))
    });
    fold_cases(&seeds, outcomes, "exec-differential")
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
    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut mutant = w.kernel.clone();
            ir::mutate_kernel(&mut mutant, &mut rng);
            if mutant == w.kernel {
                return Ok(CaseOutcome::Unchanged);
            }
            if rfh_isa::validate(&mutant).is_err() {
                return Ok(CaseOutcome::Rejected);
            }
            // The analyses must be panic-free and sound on any kernel that
            // passed validation — mutants included.
            let mut marked = mutant.clone();
            mark_strands(&mut marked);
            let res = absint::analyze(&marked, ctx);
            let hints = last_use::analyze(&marked);
            let mut sink = CheckSink::new(&marked, &res, &hints, warps_per_cta, machine.warp_width);
            let mut base_mem = w.memory.clone();
            let base = execute_with(
                &marked,
                &w.launch,
                &mut base_mem,
                ExecMode::Baseline,
                &machine,
                &mut [&mut sink],
            );
            // Claims checked before a structured abort are still claims.
            if let Some(v) = sink.violation {
                return Err(v);
            }
            // Hint-guided allocation must preserve the mutant's semantics.
            let mut hinted = mutant.clone();
            if allocate_with_hints(&mut hinted, cfg, &EnergyModel::paper(), true).is_err() {
                return Ok(CaseOutcome::Rejected);
            }
            let mut hier_mem = w.memory.clone();
            let hier = execute_with(
                &hinted,
                &w.launch,
                &mut hier_mem,
                ExecMode::Hierarchy(*cfg),
                &machine,
                &mut [],
            );
            match (base, hier) {
                (Ok(_), Ok(_)) => {
                    if base_mem.words() == hier_mem.words() {
                        Ok(CaseOutcome::Identical)
                    } else {
                        Err("hint-allocated mutant diverged from its own baseline execution".into())
                    }
                }
                (Err(_), Err(_)) => Ok(CaseOutcome::Structured),
                (Ok(_), Err(e)) => Err(format!(
                    "hierarchy-only failure on a hint-allocated mutant: {e}"
                )),
                (Err(e), Ok(_)) => Err(format!("baseline-only failure on a validated mutant: {e}")),
            }
        }))
    });
    fold_cases(&seeds, outcomes, "absint")
}

/// Fuzzes the *timing-engine pair* with seeded corruptions of a captured
/// trace set and its scheduler config ([`crate::trace`]): reordered ops,
/// perturbed latency classes, scrambled dependences, truncated warp
/// streams, unbalanced barriers, and degenerate configs. Every mutant
/// replays through both the staged engine and the frozen reference
/// oracle; the contract is exact agreement on the full `Result` —
/// identical `TimingResult`s on survivors (**identical**), identical
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
    use rfh_sim::timing::{
        simulate_timing_with_engine, Engine as TimingEngine, TimingConfig, TimingError,
        TraceCapture,
    };

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
    let warps_per_cta = cap.warps_per_cta();
    let base_config = TimingConfig::two_level(8);

    let seeds = case_seeds(base_seed, cases);
    let outcomes = par_map(&seeds, |&seed| {
        catch_unwind(AssertUnwindSafe(|| -> Result<CaseOutcome, String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut traces = cap.traces.clone();
            let mut config = base_config.clone();
            trace::mutate_timing(&mut traces, &mut config, &mut rng);
            if traces == cap.traces && config == base_config {
                return Ok(CaseOutcome::Unchanged);
            }
            let cta_of = |wi: usize| wi / warps_per_cta;
            let staged =
                simulate_timing_with_engine(&traces, &cta_of, &config, TimingEngine::Staged);
            let reference =
                simulate_timing_with_engine(&traces, &cta_of, &config, TimingEngine::Reference);
            match (staged, reference) {
                (Ok(s), Ok(r)) => {
                    if s == r {
                        Ok(CaseOutcome::Identical)
                    } else {
                        Err(format!(
                            "engines accepted the mutant with different results: \
                             staged {s:?} vs reference {r:?}"
                        ))
                    }
                }
                (Err(a), Err(b)) => {
                    if a != b {
                        Err(format!(
                            "engines rejected the mutant with different errors: \
                             staged `{a}` vs reference `{b}`"
                        ))
                    } else if matches!(a, TimingError::Config(_)) {
                        Ok(CaseOutcome::Rejected)
                    } else {
                        Ok(CaseOutcome::Structured)
                    }
                }
                (Ok(s), Err(e)) => Err(format!(
                    "reference-only failure on a mutant the staged engine \
                     accepted ({s:?}): {e}"
                )),
                (Err(e), Ok(r)) => Err(format!(
                    "staged-only failure on a mutant the reference engine \
                     accepted ({r:?}): {e}"
                )),
            }
        }))
    });
    fold_cases(&seeds, outcomes, "timing")
}
