//! Cycle-level timing model of the two-level warp scheduler.
//!
//! The paper's performance claim (§6): with 8 active warps out of 32
//! resident, the two-level scheduler loses no performance relative to a
//! scheduler that considers all warps, because the active set hides short
//! (ALU/shared-memory) latencies while descheduling hides long (DRAM/
//! texture) latencies.
//!
//! The model is trace driven: a [`TraceCapture`] sink records each warp's
//! dynamic instruction stream (latency class, operands, unit); the
//! scheduler then replays all warps with:
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
//! Two engines implement those semantics:
//!
//! * [`Engine::Staged`] (the default) — the scheduler recomposed from the
//!   latency-insensitive stage vocabulary in [`stage`] (valid/ready
//!   handshakes, FIFOs, skid buffers, round-robin and priority arbiters,
//!   fixed-latency pipes, credit-based flow control), so bank
//!   arbitration, operand buffering, and the scheduler policy are
//!   swappable parts instead of hand-woven loops;
//! * [`Engine::Reference`] — the original bespoke engine, frozen in
//!   [`reference`] as the differential oracle the staged engine is
//!   conformance-tested against (`tests/timing_differential.rs` and the
//!   chaos `run_timing_layer`).
//!
//! [`multi_sm`] scales the model beyond one SM: CTAs distribute
//! round-robin across N SM contexts that share a [`MemoryModel`], and the
//! SMs simulate in parallel over the `RFH_JOBS` pool with input-order
//! folding, so results are identical at any job count.

use std::error::Error;
use std::fmt;

use rfh_isa::Unit;

use crate::machine::MachineConfig;
use crate::sink::{InstrEvent, TraceSink};

pub mod multi_sm;
pub mod reference;
pub mod stage;
mod staged;

pub use multi_sm::{simulate_multi_sm, MemoryModel, MultiSmConfig, MultiSmResult, SmResult};

/// Default cycle budget for a timing simulation ([`TimingConfig::max_cycles`]).
///
/// Far above any real workload in this repo (the full paper sweep stays
/// under ten million cycles) while still bounding a runaway simulation to
/// seconds of wall time thanks to idle-cycle fast-forwarding.
pub const DEFAULT_MAX_CYCLES: u64 = 1_000_000_000;

/// Which timing engine replays the traces.
///
/// Production code should use [`Engine::Staged`]; the frozen reference
/// engine exists for differential testing only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The stage-combinator engine (the default).
    #[default]
    Staged,
    /// The frozen pre-refactor engine ([`reference`]), the oracle.
    Reference,
}

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
/// [`simulate_timing_with_engine`] instead of producing silently
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
    /// A bank-arbitrated MRF with zero banks or zero operand-buffer
    /// depth.
    BankGeometry {
        /// Configured bank count.
        banks: usize,
        /// Configured per-bank operand-buffer depth.
        depth: usize,
    },
    /// The frozen reference engine predates bank modeling and cannot
    /// honor a non-ideal [`BankPolicy`].
    BankPolicyUnsupported,
    /// A multi-SM simulation with zero SMs.
    ZeroSms,
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
            ConfigError::BankGeometry { banks, depth } => write!(
                f,
                "bank-arbitrated MRF needs at least 1 bank and depth-1 operand \
                 buffers (got {banks} banks, depth {depth})"
            ),
            ConfigError::BankPolicyUnsupported => write!(
                f,
                "the reference engine predates bank modeling; use the staged \
                 engine for a bank-arbitrated MRF"
            ),
            ConfigError::ZeroSms => write!(f, "multi-SM simulation needs at least 1 SM"),
        }
    }
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

/// Captures per-warp dynamic traces from the functional executor.
#[derive(Debug)]
pub struct TraceCapture {
    machine: MachineConfig,
    warps_per_cta: usize,
    /// Dynamic instruction stream per warp.
    pub traces: Vec<Vec<TraceOp>>,
}

impl TraceCapture {
    /// Creates a capture sized for a launch of `ctas × threads_per_cta`.
    pub fn new(machine: MachineConfig, threads_per_cta: usize) -> Self {
        let warps_per_cta = threads_per_cta.div_ceil(machine.warp_width);
        TraceCapture {
            machine,
            warps_per_cta,
            traces: Vec::new(),
        }
    }

    /// The CTA index of a warp.
    pub fn cta_of(&self, warp: usize) -> usize {
        warp / self.warps_per_cta
    }

    /// Warps per CTA in the captured launch.
    pub fn warps_per_cta(&self) -> usize {
        self.warps_per_cta
    }
}

impl TraceSink for TraceCapture {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        if self.traces.len() <= event.warp {
            self.traces.resize_with(event.warp + 1, Vec::new);
        }
        let instr = event.instr;
        let mut dsts = [None, None];
        for (i, r) in instr.def_regs().enumerate().take(2) {
            dsts[i] = Some(r.index());
        }
        let mut srcs = [None, None, None];
        for (i, (_, r)) in instr.reg_srcs().enumerate().take(3) {
            srcs[i] = Some(r.index());
        }
        self.traces[event.warp].push(TraceOp {
            latency: self.machine.latency(instr.op),
            unit: instr.op.unit(),
            long: instr.op.is_long_latency(),
            barrier: instr.op.is_barrier(),
            dsts,
            srcs,
        });
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

/// MRF read-port model of the staged engine's operand-collection stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BankPolicy {
    /// Infinitely ported MRF: operand reads never stall. This is the
    /// reference engine's (and the paper's §6 model's) behavior, and the
    /// only policy the differential suite runs.
    #[default]
    Ideal,
    /// Single-ported banks with one read grant per bank per cycle:
    /// same-bank operand reads serialize through per-bank operand-buffer
    /// FIFOs, delaying issue (staged engine only). Unlocks the
    /// bank-contention-sensitive techniques of the related work
    /// (GREENER, compiler-assisted RFC replacement).
    Arbitrated {
        /// Number of MRF banks (registers interleave as `reg % banks`).
        banks: usize,
        /// Operand-buffer entries per bank; a full buffer back-pressures
        /// issue until a pending read drains.
        depth: usize,
    },
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
    /// MRF read-port model (staged engine only; the reference engine
    /// rejects anything but [`BankPolicy::Ideal`]).
    pub bank_policy: BankPolicy,
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
            bank_policy: BankPolicy::Ideal,
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
            bank_policy: BankPolicy::Ideal,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }

    /// Selects a warp selection policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects an MRF read-port model.
    pub fn with_bank_policy(mut self, bank_policy: BankPolicy) -> Self {
        self.bank_policy = bank_policy;
        self
    }

    /// Overrides the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Rejects structurally invalid configurations up front, so both
    /// engines fail identically (and loudly) instead of producing
    /// silently degenerate schedules.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: a zero or over-resident
    /// active set (two-level only), a zero latency class, or a bank
    /// policy the selected engine cannot honor.
    pub fn validate(&self, engine: Engine) -> Result<(), ConfigError> {
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
        match self.bank_policy {
            BankPolicy::Ideal => {}
            BankPolicy::Arbitrated { banks, depth } => {
                if banks == 0 || depth == 0 {
                    return Err(ConfigError::BankGeometry { banks, depth });
                }
                if engine == Engine::Reference {
                    return Err(ConfigError::BankPolicyUnsupported);
                }
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
/// [`WarpSnapshot`]. Shared by both engines so their deadlock snapshots
/// are field-for-field identical.
pub(crate) fn pending_latency(
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

/// Replays captured traces through the two-level scheduler on the default
/// [`Engine::Staged`]; use [`simulate_timing_with_engine`] to pick the
/// engine explicitly.
///
/// `cta_of` maps warp index → CTA (for barrier scoping); use
/// [`TraceCapture::cta_of`].
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
    simulate_timing_with_engine(traces, cta_of, config, Engine::default())
}

/// [`simulate_timing`] on an explicitly chosen [`Engine`].
///
/// # Errors
///
/// As [`simulate_timing`]; both engines return field-for-field identical
/// errors on the same input (pinned by the differential suite and the
/// chaos trace layer).
pub fn simulate_timing_with_engine(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
    engine: Engine,
) -> Result<TimingResult, TimingError> {
    config.validate(engine).map_err(TimingError::Config)?;
    match engine {
        Engine::Staged => staged::run(traces, cta_of, config),
        Engine::Reference => reference::run(traces, cta_of, config),
    }
}

#[cfg(test)]
mod tests;
