//! Cycle-level timing model of the two-level warp scheduler.
//!
//! The paper's performance claim (§6): with 8 active warps out of 32
//! resident, the two-level scheduler loses no performance relative to a
//! scheduler that considers all warps, because the active set hides short
//! (ALU/shared-memory) latencies while descheduling hides long (DRAM/
//! texture) latencies.
//!
//! The model is trace driven: a [`TraceCapture`] sink or a recorded
//! [`Stream`](crate::exec::Stream) gives each warp's dynamic instruction
//! stream (latency class, operands, unit); the scheduler then replays all
//! warps with:
//!
//! * single-issue in-order issue per cycle across active warps
//!   (round-robin);
//! * per-warp register scoreboards;
//! * shared-datapath units (SFU/MEM/TEX) issuing at quarter throughput;
//! * descheduling on dependences on in-flight long-latency results, and at
//!   barriers (warps wait off the active set);
//! * idle-cycle fast-forwarding, so long DRAM stalls cost simulation time
//!   proportional to events, not cycles.
//!
//! The model is one SM (the paper's Table 2 machine) with an infinitely
//! ported MRF: operand reads never stall, as in the paper's §6
//! argument. One flat per-cycle loop (`sched`) is the engine; the
//! original hand-woven loop stays frozen in the test-only `rfh-oracle`
//! crate, and `tests/timing_differential.rs` and the chaos
//! `run_timing_layer` hold the two to identical results and errors.

use std::error::Error;
use std::fmt;

use rfh_isa::{Instruction, Unit};

use crate::exec::Launch;
use crate::machine::MachineConfig;
use crate::sink::{InstrEvent, TraceSink};

mod sched;

/// Default cycle budget for a timing simulation ([`TimingConfig::max_cycles`]).
///
/// Far above any real workload in this repo (the full paper sweep stays
/// under ten million cycles) while still bounding a runaway simulation to
/// seconds of wall time thanks to idle-cycle fast-forwarding.
pub const DEFAULT_MAX_CYCLES: u64 = 1_000_000_000;

/// The latency class a [`ConfigError::ZeroLatency`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// `MachineConfig::alu_latency`.
    Alu,
    /// `MachineConfig::sfu_latency`.
    Sfu,
    /// `MachineConfig::shared_mem_latency`.
    SharedMem,
    /// `MachineConfig::tex_latency`.
    Tex,
    /// `MachineConfig::dram_latency`.
    Dram,
}

impl fmt::Display for LatencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LatencyClass::Alu => "ALU",
            LatencyClass::Sfu => "SFU",
            LatencyClass::SharedMem => "shared-memory",
            LatencyClass::Tex => "texture",
            LatencyClass::Dram => "DRAM",
        };
        write!(f, "{name}")
    }
}

/// A structurally invalid [`TimingConfig`], rejected up front by
/// [`simulate_timing`] instead of producing silently
/// degenerate schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `two_level` with zero active warps: nothing could ever issue.
    ZeroActiveWarps,
    /// The active set exceeds the machine's resident warps — the
    /// two-level scheduler would silently degenerate to single-level.
    ActiveExceedsResident {
        /// The configured active-set size.
        active: usize,
        /// The machine's resident warps.
        resident: usize,
    },
    /// A zero operation latency: results would be ready the cycle they
    /// issue, which no hardware class of this machine models.
    ZeroLatency {
        /// The offending latency class.
        class: LatencyClass,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroActiveWarps => {
                write!(f, "two-level scheduler with 0 active warps can never issue")
            }
            ConfigError::ActiveExceedsResident { active, resident } => write!(
                f,
                "active set of {active} exceeds the machine's {resident} resident warps"
            ),
            ConfigError::ZeroLatency { class } => {
                write!(f, "{class} latency of 0 cycles models no hardware class")
            }
        }
    }
}

/// A launch with more warps than the machine holds resident. The timing
/// model has no CTA waves or occupancy limit: it replays every warp as
/// resident at once, so its front ends reject such a launch through
/// [`check_resident`] instead of timing an impossible residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverResident {
    /// Warps in the launch: `ctas × ceil(threads / warp_width)`.
    pub warps: usize,
    /// The machine's resident warps.
    pub resident: usize,
}

impl fmt::Display for OverResident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "launch of {} warps exceeds the machine's {} resident warps",
            self.warps, self.resident
        )
    }
}

impl Error for OverResident {}

/// Checks that every warp of `launch` fits on `machine` at once, the
/// residency the timing model assumes.
///
/// # Errors
///
/// [`OverResident`], naming both warp counts, when the launch has more
/// warps than [`MachineConfig::resident_warps`].
pub fn check_resident(launch: &Launch, machine: &MachineConfig) -> Result<(), OverResident> {
    let warps = launch
        .ctas
        .saturating_mul(launch.threads_per_cta.div_ceil(machine.warp_width));
    if warps > machine.resident_warps {
        return Err(OverResident {
            warps,
            resident: machine.resident_warps,
        });
    }
    Ok(())
}

/// The scheduler state of one unretired warp at the moment of a
/// deadlock, embedded in [`TimingError::Deadlock`] so chaos-layer
/// failures are diagnosable from the message alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Warp index.
    pub warp: usize,
    /// The warp's CTA.
    pub cta: usize,
    /// Trace position (next instruction to issue).
    pub pc: usize,
    /// Waiting at a barrier that never released.
    pub at_barrier: bool,
    /// Was descheduled at least once during the run.
    pub descheduled: bool,
    /// Cycles until the next instruction's source operands would be
    /// ready (0 = operands already ready).
    pub pending_latency: u64,
}

impl fmt::Display for WarpSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "w{} cta{} pc{}{}{}{}",
            self.warp,
            self.cta,
            self.pc,
            if self.at_barrier { " at-barrier" } else { "" },
            if self.descheduled { " descheduled" } else { "" },
            if self.pending_latency > 0 {
                format!(" pending+{}", self.pending_latency)
            } else {
                String::new()
            }
        )
    }
}

/// Per-warp state snapshot attached to [`TimingError::Deadlock`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// One entry per unretired warp, in warp order.
    pub warps: Vec<WarpSnapshot>,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 8;
        for (i, w) in self.warps.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}")?;
        }
        if self.warps.len() > SHOWN {
            write!(f, ", +{} more", self.warps.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// An error from the timing model: the simulation could not run to
/// completion. Every case is returned instead of hanging or panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The configuration was rejected before simulation started.
    Config(ConfigError),
    /// No active work and no pending events, but warps remain unretired —
    /// typically a barrier mismatch (some warps of a CTA never arrive).
    Deadlock {
        /// The cycle at which the scheduler ran dry.
        cycle: u64,
        /// State of every unretired warp, for diagnosis.
        snapshot: DeadlockSnapshot,
    },
    /// The simulation exceeded [`TimingConfig::max_cycles`].
    CycleBudget {
        /// The configured budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::Config(e) => write!(f, "invalid timing configuration: {e}"),
            TimingError::Deadlock { cycle, snapshot } => write!(
                f,
                "scheduler deadlock at cycle {cycle}: no active work and no \
                 pending events (barrier mismatch?); {} unretired warp(s): {snapshot}",
                snapshot.warps.len()
            ),
            TimingError::CycleBudget { limit } => {
                write!(f, "timing simulation exceeded the {limit}-cycle budget")
            }
        }
    }
}

impl Error for TimingError {}

/// One dynamic instruction in a warp's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Result latency in cycles.
    pub latency: u64,
    /// Executing unit.
    pub unit: Unit,
    /// Whether this is a long-latency (DRAM/texture) operation.
    pub long: bool,
    /// Whether this is a barrier.
    pub barrier: bool,
    /// Destination registers (64-bit values use both slots).
    pub dsts: [Option<u16>; 2],
    /// Source registers.
    pub srcs: [Option<u16>; 3],
}

impl TraceOp {
    /// The timing op of one issue of `instr` on `machine`, for every trace
    /// source.
    pub fn of(instr: &Instruction, machine: &MachineConfig) -> TraceOp {
        let mut dsts = [None, None];
        for (i, r) in instr.def_regs().enumerate().take(2) {
            dsts[i] = Some(r.index());
        }
        let mut srcs = [None, None, None];
        for (i, (_, r)) in instr.reg_srcs().enumerate().take(3) {
            srcs[i] = Some(r.index());
        }
        TraceOp {
            latency: machine.latency(instr.op),
            unit: instr.op.unit(),
            long: instr.op.is_long_latency(),
            barrier: instr.op.is_barrier(),
            dsts,
            srcs,
        }
    }
}

/// The warp → CTA map of a launch, as the executor numbers global warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaMap {
    warps_per_cta: usize,
}

impl CtaMap {
    /// The map of a launch with `threads_per_cta` threads per CTA.
    pub fn new(machine: &MachineConfig, threads_per_cta: usize) -> Self {
        CtaMap {
            warps_per_cta: threads_per_cta.div_ceil(machine.warp_width),
        }
    }

    /// The CTA index of a warp.
    pub fn cta_of(self, warp: usize) -> usize {
        warp / self.warps_per_cta
    }
}

/// Captures per-warp dynamic traces from the functional executor.
#[derive(Debug)]
pub struct TraceCapture {
    machine: MachineConfig,
    ctas: CtaMap,
    /// Dynamic instruction stream per warp.
    pub traces: Vec<Vec<TraceOp>>,
}

impl TraceCapture {
    /// Creates a capture sized for a launch of `ctas × threads_per_cta`.
    pub fn new(machine: MachineConfig, threads_per_cta: usize) -> Self {
        TraceCapture {
            ctas: CtaMap::new(&machine, threads_per_cta),
            machine,
            traces: Vec::new(),
        }
    }

    /// The CTA index of a warp.
    pub fn cta_of(&self, warp: usize) -> usize {
        self.ctas.cta_of(warp)
    }
}

impl TraceSink for TraceCapture {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        if self.traces.len() <= event.warp {
            self.traces.resize_with(event.warp + 1, Vec::new);
        }
        self.traces[event.warp].push(TraceOp::of(event.instr, &self.machine));
    }
}

/// Warp selection policy among schedulable warps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Rotate the starting point after every issue (fair; the default).
    #[default]
    RoundRobin,
    /// Always prefer the lowest-numbered ready warp (greedy/oldest-first;
    /// tends to run a few warps far ahead of the rest).
    Greedy,
}

/// Timing simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingConfig {
    /// The machine parameters.
    pub machine: MachineConfig,
    /// Active warps (the two-level scheduler's upper set size).
    pub active_warps: usize,
    /// `false` simulates the single-level baseline scheduler, which keeps
    /// every resident warp schedulable.
    pub two_level: bool,
    /// Warp selection policy.
    pub policy: SchedPolicy,
    /// Cycle budget: the simulation aborts with
    /// [`TimingError::CycleBudget`] once `now` exceeds this. Defaults to
    /// [`DEFAULT_MAX_CYCLES`].
    pub max_cycles: u64,
}

impl TimingConfig {
    /// The paper's two-level scheduler with `active` warps.
    pub fn two_level(active: usize) -> Self {
        TimingConfig {
            machine: MachineConfig::paper(),
            active_warps: active,
            two_level: true,
            policy: SchedPolicy::RoundRobin,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }

    /// The single-level baseline (all resident warps schedulable).
    pub fn single_level() -> Self {
        TimingConfig {
            machine: MachineConfig::paper(),
            active_warps: usize::MAX,
            two_level: false,
            policy: SchedPolicy::RoundRobin,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }

    /// Selects a warp selection policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Rejects structurally invalid configurations up front, so the
    /// engine and its oracle fail identically (and loudly) instead of
    /// producing silently degenerate schedules.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: a zero or over-resident
    /// active set (two-level only) or a zero latency class.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.two_level {
            if self.active_warps == 0 {
                return Err(ConfigError::ZeroActiveWarps);
            }
            if self.active_warps > self.machine.resident_warps {
                return Err(ConfigError::ActiveExceedsResident {
                    active: self.active_warps,
                    resident: self.machine.resident_warps,
                });
            }
        }
        let classes = [
            (self.machine.alu_latency, LatencyClass::Alu),
            (self.machine.sfu_latency, LatencyClass::Sfu),
            (self.machine.shared_mem_latency, LatencyClass::SharedMem),
            (self.machine.tex_latency, LatencyClass::Tex),
            (self.machine.dram_latency, LatencyClass::Dram),
        ];
        for (latency, class) in classes {
            if latency == 0 {
                return Err(ConfigError::ZeroLatency { class });
            }
        }
        Ok(())
    }
}

/// Result of a timing simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingResult {
    /// Total cycles to drain every warp.
    pub cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Deschedule events (two-level only).
    pub deschedules: u64,
}

impl TimingResult {
    /// Warp instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

/// Cycles until the sources of `traces[warp][pc]` are ready, per the
/// given per-register ready times — the `pending_latency` of a
/// [`WarpSnapshot`]. Shared with the frozen oracle so their deadlock
/// snapshots are field-for-field identical.
pub fn pending_latency(
    traces: &[Vec<TraceOp>],
    warp: usize,
    pc: usize,
    reg_ready: &[u64],
    cycle: u64,
) -> u64 {
    traces[warp]
        .get(pc)
        .map(|op| {
            op.srcs
                .iter()
                .flatten()
                .map(|r| reg_ready[*r as usize])
                .max()
                .unwrap_or(0)
                .saturating_sub(cycle)
        })
        .unwrap_or(0)
}

/// Replays captured traces through the two-level scheduler.
///
/// `cta_of` maps warp index → CTA (for barrier scoping); use
/// [`CtaMap::cta_of`] or [`TraceCapture::cta_of`].
///
/// # Errors
///
/// Returns [`TimingError::Config`] for an invalid configuration,
/// [`TimingError::Deadlock`] on a barrier deadlock (a CTA whose warps
/// cannot all reach the barrier — a malformed trace set), and
/// [`TimingError::CycleBudget`] when the simulation exceeds
/// [`TimingConfig::max_cycles`]. It never hangs: every loop iteration
/// either advances the clock or retires work, and the clock is bounded by
/// the budget.
pub fn simulate_timing(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<TimingResult, TimingError> {
    config.validate().map_err(TimingError::Config)?;
    sched::run(traces, cta_of, config)
}

#[cfg(test)]
mod tests;
