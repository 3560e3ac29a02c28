//! The functional SIMT executor.
//!
//! Executes a kernel warp by warp with full predication and branch
//! divergence (immediate-post-dominator reconvergence via a token stack),
//! emitting an instruction trace to the registered [`TraceSink`]s.
//!
//! Two execution modes, which compute the same values:
//!
//! * [`ExecMode::Baseline`] — all operands come from the architectural
//!   register file (the MRF);
//! * [`ExecMode::Hierarchy`] — also checks the placement annotations as
//!   it executes, with a value-free tag model (`tags`): every operand read
//!   must find its register's current definition in the MRF row, ORF entry
//!   or LRF bank its annotation names, with the upper levels **poisoned
//!   after every strand-ending instruction**. Any other read, even of an
//!   equal value, is an [`ExecError::BadPlacement`].
//!
//! [`replay()`] skips the re-execution: a [`StreamRecorder`] records one
//! verified baseline run's distinct per-warp traces, and replaying the
//! [`Stream`] against an allocated kernel of the same shape counts it,
//! stepping the same tag model.
//!
//! The engine is a warp-batched structure-of-arrays executor: a one-time
//! decode pass lowers each instruction into a flat op table with
//! pre-resolved [`AccessPlan`]s, slab offsets, and pre-normalized flat
//! branch targets, and the hot loop dispatches once per warp instruction
//! over that table, running opcode-specialized lane loops on contiguous
//! lane-major register storage.
//!
//! The original per-thread interpreter is frozen in the test-only
//! `rfh-oracle` crate, and still routes values through modeled ORF/LRF
//! storage. The two agree exactly on valid placements; on corrupted ones
//! the SoA engine agrees or rejects with `BadPlacement`
//! (`tests/exec_differential.rs`, the chaos `run_placement_layer`).
//! The oracle reuses [`check_launchable`], [`eval_alu`], [`eval_cmp`],
//! [`POISON`] and the error taxonomy.

use std::error::Error;
use std::fmt;

use rfh_alloc::AllocConfig;
use rfh_isa::access::{AccessKind, AccessPlan, Place};
use rfh_isa::{InstrRef, Kernel};

pub use rfh_isa::{eval_alu, eval_cmp};

use crate::machine::MachineConfig;
use crate::mem::GlobalMemory;
use crate::sink::TraceSink;

mod replay;
mod soa;
mod tags;

pub use replay::{replay, Stream, StreamRecorder};

/// A kernel launch: grid geometry, parameters, and shared memory size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Launch {
    /// Number of CTAs (thread blocks).
    pub ctas: usize,
    /// Threads per CTA.
    pub threads_per_cta: usize,
    /// Kernel parameters, read by `ld.param`.
    pub params: Vec<u32>,
    /// Shared memory words allocated per CTA.
    pub shared_words: usize,
}

impl Launch {
    /// A launch with no parameters and the full 32 KB of shared memory.
    pub fn new(ctas: usize, threads_per_cta: usize) -> Self {
        Launch {
            ctas,
            threads_per_cta,
            params: Vec::new(),
            shared_words: 8192,
        }
    }

    /// Sets the kernel parameters.
    pub fn with_params(mut self, params: Vec<u32>) -> Self {
        self.params = params;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.ctas * self.threads_per_cta
    }
}

/// How operand values flow during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All operands served by the architectural register file.
    Baseline,
    /// Operands are served as in `Baseline`, and every read is checked
    /// against the placement annotations produced under the given
    /// configuration.
    Hierarchy(AllocConfig),
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread instructions executed (warp instructions × executing threads).
    pub thread_instructions: u64,
    /// Warps executed.
    pub warps: usize,
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fell outside the allocated space.
    OutOfBounds {
        /// Which space was accessed.
        space: &'static str,
        /// The offending word address.
        addr: u32,
        /// The instruction performing the access.
        at: InstrRef,
    },
    /// A warp exceeded the instruction budget (probable infinite loop).
    InstructionBudget {
        /// The runaway warp.
        warp: usize,
    },
    /// An unsupported instruction shape was executed.
    Unsupported {
        /// Description of the problem.
        what: String,
        /// Where it happened.
        at: InstrRef,
    },
    /// A placement annotation is wrong under the executing configuration:
    /// it names storage that does not exist (detected before any
    /// instruction runs), or a read it routes does not find its register's
    /// current definition (detected when the read executes).
    BadPlacement {
        /// Description of the problem.
        what: String,
        /// The instruction carrying the annotation.
        at: InstrRef,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { space, addr, at } => {
                write!(f, "out-of-bounds {space} access at word {addr} ({at})")
            }
            ExecError::InstructionBudget { warp } => {
                write!(
                    f,
                    "warp {warp} exceeded the instruction budget (infinite loop?)"
                )
            }
            ExecError::Unsupported { what, at } => write!(f, "unsupported: {what} ({at})"),
            ExecError::BadPlacement { what, at } => {
                write!(f, "bad placement annotation: {what} ({at})")
            }
        }
    }
}

impl Error for ExecError {}

/// What every ORF entry and LRF bank holds after a strand-ending
/// instruction: a tag no definition carries in the tag model, and the
/// garbage value the storage-faithful oracle computes with, so a read that
/// crosses a strand is caught either way.
pub const POISON: u32 = 0xDEAD_BEE0;

/// Rejects placement annotations that reference hierarchy storage the
/// executing configuration does not have. Run before execution so that
/// corrupted annotations surface as [`ExecError::BadPlacement`] instead of
/// an out-of-bounds panic mid-run. Wide writes are already expanded per
/// word by [`AccessPlan::resolve`], so the high word of a 64-bit ORF write
/// is range-checked at `entry + 1` — which also makes the tag model's
/// pre-computed rows safe by construction.
fn check_placements(kernel: &Kernel, cfg: &AllocConfig) -> Result<(), ExecError> {
    let orf = cfg.orf_entries;
    let banks = cfg.lrf.banks();
    let bad = |what: String, at: InstrRef| ExecError::BadPlacement { what, at };
    let mut plan = AccessPlan::new();
    for (at, instr) in kernel.iter_instrs() {
        plan.resolve_into(instr);
        for a in plan.accesses() {
            let verb = match a.kind {
                AccessKind::Read => "read of",
                AccessKind::Fill => "fill of",
                AccessKind::Write => "write to",
            };
            match a.place {
                Place::Mrf => {}
                Place::Orf(e) => {
                    if e as usize >= orf {
                        return Err(bad(format!("{verb} ORF entry {e} of {orf} configured"), at));
                    }
                }
                Place::Lrf(bank) => {
                    let b = bank.map(|s| s.index()).unwrap_or(0);
                    if b >= banks {
                        return Err(bad(
                            format!("{verb} LRF bank {b} of {banks} configured"),
                            at,
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Validation and placement range checking, shared by [`execute_with`],
/// [`replay`] and the frozen reference interpreter, so each sees only
/// structurally valid kernels with in-range annotations and rejects the
/// rest with identical errors.
///
/// # Errors
///
/// [`ExecError::Unsupported`] for a kernel that fails
/// [`rfh_isa::validate()`], and [`ExecError::BadPlacement`] for an
/// annotation naming storage `mode` does not configure.
pub fn check_launchable(kernel: &Kernel, mode: &ExecMode) -> Result<(), ExecError> {
    rfh_isa::validate(kernel).map_err(|e| ExecError::Unsupported {
        what: format!("invalid kernel: {e}"),
        at: InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: 0,
        },
    })?;
    if let ExecMode::Hierarchy(cfg) = mode {
        check_placements(kernel, cfg)?;
    }
    Ok(())
}

/// Why a warp yielded back to the CTA scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The warp executed a barrier and waits for its CTA.
    Barrier,
    /// The warp has no more work.
    Done,
}

/// Executes a kernel launch, streaming the instruction trace to `sinks`.
///
/// Execution is *barrier phased*: within a CTA, every warp runs until its
/// next `bar` (or exit) before any warp proceeds past that barrier, which
/// gives `bar` its synchronization semantics for the standard
/// produce-barrier-consume idiom. Register file access counts are
/// interleaving-independent (software placements are static and the
/// hardware-cache models track per-warp state), so this ordering is
/// equivalent to any fair schedule. Timing questions are answered by
/// [`crate::timing`] instead.
///
/// # Errors
///
/// Returns an [`ExecError`] on out-of-bounds memory accesses, runaway
/// loops, unsupported instruction shapes, or (in hierarchy mode) a
/// placement that does not serve a read its current definition.
pub fn execute(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    let machine = MachineConfig::paper();
    execute_with(kernel, launch, memory, mode, &machine, sinks)
}

/// [`execute`] with an explicit machine configuration.
///
/// Validation and placement checking ([`check_launchable`]) happen here,
/// once, before the engine runs.
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_with(
    kernel: &Kernel,
    launch: &Launch,
    memory: &mut GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
    sinks: &mut [&mut dyn TraceSink],
) -> Result<ExecReport, ExecError> {
    check_launchable(kernel, &mode)?;
    soa::run(kernel, launch, memory, mode, machine, sinks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use rfh_isa::{CmpOp, Opcode, ReadLoc, Space, WriteLoc};

    fn run(text: &str, mem_words: usize, init: &[(u32, u32)]) -> (GlobalMemory, ExecReport) {
        let kernel = rfh_isa::parse_kernel(text).unwrap();
        let mut mem = GlobalMemory::new(mem_words);
        for (a, v) in init {
            mem.store(*a, *v);
        }
        let mut sink = NullSink;
        let report = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        (mem, report)
    }

    #[test]
    fn eval_alu_is_total_over_opcodes() {
        // Non-ALU opcodes yield None — the caller reports Unsupported
        // instead of the old unreachable! panic.
        for op in [
            Opcode::Bra,
            Opcode::Bar,
            Opcode::Exit,
            Opcode::Tex,
            Opcode::Ld(Space::Global),
            Opcode::St(Space::Shared),
            Opcode::Setp(CmpOp::Lt),
            Opcode::Sel,
        ] {
            assert_eq!(eval_alu(op, 1, 2, 3), None, "{op}");
        }
        assert_eq!(eval_alu(Opcode::IAdd, 1, 2, 3), Some(3));
        assert_eq!(eval_alu(Opcode::Mov, 7, 0, 0), Some(7));
    }

    #[test]
    fn fill_precedes_same_instruction_writeback() {
        // `iadd r2 r1(ORF0-fill), 1` writing ORF0: the fill is an operand-
        // fetch side effect, so the destination write must win and a later
        // ORF0 read of r2 must see r2, not the filled r1. Found by the
        // rfh-chaos placement harness — the fill used to be applied after
        // writeback, disagreeing with the placement validator's model.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel f\nBB0:\n  mov r1, 5\n  iadd r2 r1, 1\n  st.global r0, r2\n  exit\n",
        )
        .unwrap();
        let at = |i: usize| InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: i,
        };
        kernel.instr_mut(at(1)).read_locs[0] = ReadLoc::MrfFillOrf(0);
        kernel.instr_mut(at(1)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        kernel.instr_mut(at(2)).read_locs[1] = ReadLoc::Orf(0);
        let cfg = rfh_alloc::AllocConfig::two_level(3);
        rfh_alloc::validate_placements(&kernel, &cfg).unwrap();
        let mut mem = GlobalMemory::new(32);
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 1),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(mem.load(0).unwrap(), 6, "store must see r2 = 6, not r1 = 5");
    }

    #[test]
    fn same_instruction_orf_read_sees_the_pre_fill_value() {
        // The exact shape the chaos harness found (seed 0x9b5979cb901570cb):
        // one instruction reads ORF0 in slot 0, fills ORF0 from the MRF in
        // slot 1, and writes ORF0. Operand reads see the pre-fill state, the
        // fill lands next, and the destination write wins — so the sum must
        // be old-ORF0 + MRF operand, and ORF0 must end up holding the dst.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel g\nBB0:\n  mov r1, 5\n  mov r2, 3\n  iadd r3 r1, r2\n  st.global r0, r3\n  exit\n",
        )
        .unwrap();
        let at = |i: usize| InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: i,
        };
        kernel.instr_mut(at(0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        kernel.instr_mut(at(2)).read_locs[0] = ReadLoc::Orf(0);
        kernel.instr_mut(at(2)).read_locs[1] = ReadLoc::MrfFillOrf(0);
        kernel.instr_mut(at(2)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        kernel.instr_mut(at(3)).read_locs[1] = ReadLoc::Orf(0);
        let cfg = rfh_alloc::AllocConfig::two_level(3);
        rfh_alloc::validate_placements(&kernel, &cfg).unwrap();
        let mut mem = GlobalMemory::new(32);
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 1),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(
            mem.load(0).unwrap(),
            8,
            "r3 = old ORF0 (r1 = 5) + r2 = 3; a pre-read fill would give 6, \
             a post-writeback fill would store 3"
        );
    }

    /// A counting loop whose placements carry r1 in ORF0 across the
    /// strand-ending branches into and around the loop, under
    /// `two_level(3)`: the placement validator rejects it ("ORF0 holds
    /// None"), and execution must too, because the upper levels are
    /// poisoned at every strand end.
    pub(crate) fn orf_carried_across_backedge() -> (Kernel, AllocConfig) {
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel loopy\nBB0:\n  mov r0, %tid.x\n  mov r1, 0\n  bra BB1\nBB1:\n  \
             iadd r1 r1, 1\n  setp.lt p0 r1, 4\n  @p0 bra BB1\nBB2:\n  st.global r0, r1\n  exit\n",
        )
        .unwrap();
        rfh_analysis::strand::mark_strands(&mut kernel);
        let at = |block: u32, index: usize| InstrRef {
            block: rfh_isa::BlockId::new(block),
            index,
        };
        let orf0 = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        kernel.instr_mut(at(0, 1)).write_loc = orf0;
        kernel.instr_mut(at(1, 0)).read_locs[0] = ReadLoc::Orf(0);
        kernel.instr_mut(at(1, 0)).write_loc = orf0;
        (kernel, AllocConfig::two_level(3))
    }

    #[test]
    fn strand_ending_branches_poison_the_upper_levels() {
        let (kernel, cfg) = orf_carried_across_backedge();
        assert!(kernel
            .iter_instrs()
            .filter(|(_, i)| i.op == Opcode::Bra)
            .all(|(_, i)| i.ends_strand));
        assert!(rfh_alloc::validate_placements(&kernel, &cfg).is_err());
        // The first loop iteration reads r1 from ORF0 right after the
        // strand-ending `bra BB1` poisoned it. (The storage-faithful oracle
        // computes with the poison instead and never leaves the loop.)
        let mut mem = GlobalMemory::new(32);
        let err = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [],
        )
        .unwrap_err();
        let ExecError::BadPlacement { what, at } = &err else {
            panic!("{err}");
        };
        assert_eq!((at.block.index(), at.index), (1, 0), "{err}");
        assert!(what.contains("slot 0 reads r1 from ORF0"), "{what}");
        assert!(what.contains("poisoned"), "{what}");
    }

    #[test]
    fn out_of_range_orf_placement_is_an_error_not_a_panic() {
        let mut kernel =
            rfh_isa::parse_kernel(".kernel b\nBB0:\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n")
                .unwrap();
        let cfg = rfh_alloc::AllocConfig::two_level(3);
        rfh_alloc::allocate(&mut kernel, &cfg, &rfh_energy::EnergyModel::paper()).unwrap();
        // Point a read past the configured ORF size.
        let at = InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: 1,
        };
        kernel.instr_mut(at).read_locs[1] = ReadLoc::Orf(200);
        let mut mem = GlobalMemory::new(32);
        let mut sink = NullSink;
        let err = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::BadPlacement { .. }), "{err}");
    }

    #[test]
    fn out_of_range_lrf_bank_is_an_error_not_a_panic() {
        let mut kernel =
            rfh_isa::parse_kernel(".kernel b\nBB0:\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n")
                .unwrap();
        // Unified LRF has one bank; bank C does not exist.
        let at = InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: 0,
        };
        kernel.instr_mut(at).write_loc = WriteLoc::Lrf {
            bank: Some(rfh_isa::Slot::C),
            also_mrf: true,
        };
        let cfg = rfh_alloc::AllocConfig::three_level(3, false);
        let mut mem = GlobalMemory::new(32);
        let mut sink = NullSink;
        let err = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::BadPlacement { .. }), "{err}");
    }

    #[test]
    fn straight_line_arithmetic() {
        let (mem, report) = run(
            "
.kernel a
BB0:
  mov r0, %tid.x
  iadd r1 r0, 10
  imul r2 r1, 3
  st.global r0, r2
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            assert_eq!(mem.load(t), Some((t + 10) * 3));
        }
        assert_eq!(report.warps, 1);
        assert_eq!(report.warp_instructions, 5);
        assert_eq!(report.thread_instructions, 5 * 32);
    }

    #[test]
    fn float_pipeline() {
        let k = "
.kernel f
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, 2.0f, 1.0f
  st.global r0, r2
  exit
";
        let kernel = rfh_isa::parse_kernel(k).unwrap();
        let mut mem = GlobalMemory::from_f32(&(0..32).map(|i| i as f32).collect::<Vec<_>>());
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(mem.load_f32(5), Some(11.0));
    }

    #[test]
    fn predication_masks_lanes() {
        let (mem, _) = run(
            "
.kernel p
BB0:
  mov r0, %tid.x
  mov r1, 0
  setp.lt p0 r0, 4
  @p0 mov r1, 1
  st.global r0, r1
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            assert_eq!(mem.load(t), Some(u32::from(t < 4)), "lane {t}");
        }
    }

    #[test]
    fn divergent_hammock_reconverges() {
        let (mem, _) = run(
            "
.kernel h
BB0:
  mov r0, %tid.x
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  mov r1, 100
  bra BB3
BB2:
  mov r1, 200
BB3:
  iadd r1 r1, r0
  st.global r0, r1
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            let expect = if t < 16 { 200 + t } else { 100 + t };
            assert_eq!(mem.load(t), Some(expect), "lane {t}");
        }
    }

    #[test]
    fn divergent_loop_trip_counts() {
        // Each lane loops tid+1 times.
        let (mem, _) = run(
            "
.kernel l
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  iadd r2 r2, 5
  setp.le p0 r1, r0
  @p0 bra BB1
BB2:
  st.global r0, r2
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            assert_eq!(mem.load(t), Some((t + 1) * 5), "lane {t}");
        }
    }

    #[test]
    fn guarded_exit_retires_lanes() {
        let (mem, _) = run(
            "
.kernel e
BB0:
  mov r0, %tid.x
  mov r1, 0
  setp.lt p0 r0, 8
  @p0 exit
  mov r1, 9
  st.global r0, r1
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            let expect = if t < 8 { 0 } else { 9 };
            assert_eq!(mem.load(t), Some(expect), "lane {t}");
        }
    }

    #[test]
    fn shared_memory_round_trip() {
        let (mem, _) = run(
            "
.kernel s
BB0:
  mov r0, %tid.x
  imul r1 r0, 7
  st.shared r0, r1
  bar
  ld.shared r2 r0
  st.global r0, r2
  exit
",
            32,
            &[],
        );
        for t in 0..32u32 {
            assert_eq!(mem.load(t), Some(t * 7));
        }
    }

    #[test]
    fn params_and_ctas() {
        let kernel = rfh_isa::parse_kernel(
            "
.kernel c
BB0:
  ld.param r1 0
  mov r2, %ctaid.x
  imul r3 r2, %ntid.x
  mov r4, %tid.x
  iadd r3 r3, r4
  iadd r5 r3, r1
  st.global r3, r5
  exit
",
        )
        .unwrap();
        let mut mem = GlobalMemory::new(128);
        let mut sink = NullSink;
        let launch = Launch::new(2, 64).with_params(vec![1000]);
        let report = execute(
            &kernel,
            &launch,
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(report.warps, 4);
        for g in 0..128u32 {
            assert_eq!(mem.load(g), Some(g + 1000), "gid {g}");
        }
    }

    #[test]
    fn wide_load_fills_register_pair() {
        let (mem, _) = run(
            "
.kernel w
BB0:
  mov r0, %tid.x
  shl r1 r0, 1
  ld.global r4.w64 r1
  iadd r6 r4, r5
  st.global r0, r6
  exit
",
            96,
            &[(0, 3), (1, 4), (2, 30), (3, 40)],
        );
        assert_eq!(mem.load(0), Some(7));
        assert_eq!(mem.load(1), Some(70));
    }

    #[test]
    fn out_of_bounds_reports_location() {
        let kernel =
            rfh_isa::parse_kernel(".kernel o\nBB0:\n  mov r0, 9999\n  ld.global r1 r0\n  exit\n")
                .unwrap();
        let mut mem = GlobalMemory::new(4);
        let mut sink = NullSink;
        let err = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { addr: 9999, .. }));
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let kernel = rfh_isa::parse_kernel(
            ".kernel i\nBB0:\n  mov r0, 0\nBB1:\n  iadd r0 r0, 1\n  bra BB1\nBB2:\n  exit\n",
        )
        .unwrap();
        let mut mem = GlobalMemory::new(4);
        let mut machine = MachineConfig::paper();
        machine.max_warp_instructions = 1000;
        let mut sink = NullSink;
        let err = execute_with(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &machine,
            &mut [&mut sink],
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::InstructionBudget { .. }));
    }

    #[test]
    fn partial_warp_masks_trailing_lanes() {
        let kernel = rfh_isa::parse_kernel(
            ".kernel pw\nBB0:\n  mov r0, %tid.x\n  st.global r0, 1\n  exit\n",
        )
        .unwrap();
        let mut mem = GlobalMemory::new(64);
        let mut sink = NullSink;
        let launch = Launch::new(1, 40); // one full warp + 8 lanes
        execute(
            &kernel,
            &launch,
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        for t in 0..40u32 {
            assert_eq!(mem.load(t), Some(1), "lane {t}");
        }
        for t in 40..64u32 {
            assert_eq!(mem.load(t), Some(0), "lane {t} must not execute");
        }
    }

    #[test]
    fn hierarchy_mode_matches_baseline_after_allocation() {
        let text = "
.kernel hm
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, r1, 1.0f
  fadd r3 r2, r1
  iadd r4 r0, 32
  st.global r4, r3
  exit
";
        let mut kernel = rfh_isa::parse_kernel(text).unwrap();
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();

        let mut base_mem = GlobalMemory::from_f32(&data);
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut base_mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();

        let cfg = rfh_alloc::AllocConfig::three_level(3, true);
        rfh_alloc::allocate(&mut kernel, &cfg, &rfh_energy::EnergyModel::paper()).unwrap();
        let mut hier_mem = GlobalMemory::from_f32(&data);
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut hier_mem,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(base_mem.words(), hier_mem.words());
    }

    #[test]
    fn hierarchy_mode_catches_bad_placement() {
        // Deliberately corrupt a placement: read from a never-written entry.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel bad\nBB0:\n  mov r0, %tid.x\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n",
        )
        .unwrap();
        let cfg = rfh_alloc::AllocConfig::two_level(3);
        rfh_alloc::allocate(&mut kernel, &cfg, &rfh_energy::EnergyModel::paper()).unwrap();
        // Corrupt: point the store's value read at a wrong ORF entry.
        let at = InstrRef {
            block: rfh_isa::BlockId::new(0),
            index: 2,
        };
        kernel.instr_mut(at).read_locs[1] = ReadLoc::Orf(2);
        let mut mem = GlobalMemory::new(32);
        let err = execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::BadPlacement {
                what: "slot 1 reads r1 from ORF2 in lane 0, which holds a poisoned entry".into(),
                at,
            }
        );
        assert_eq!(
            mem.words(),
            GlobalMemory::new(32).words(),
            "the store never ran"
        );
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use crate::sink::NullSink;

    fn run32(text: &str) -> GlobalMemory {
        let kernel = rfh_isa::parse_kernel(text).unwrap();
        let mut mem = GlobalMemory::new(256);
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();
        mem
    }

    #[test]
    fn nested_hammocks_reconverge() {
        // Outer split at 16, inner split at 8 / 24: four lane classes.
        let mem = run32(
            "
.kernel nest
BB0:
  mov r0, %tid.x
  mov r1, 0
  setp.lt p0 r0, 16
  @!p0 bra BB4
BB1:
  setp.lt p1 r0, 8
  @!p1 bra BB3
BB2:
  iadd r1 r1, 1
BB3:
  iadd r1 r1, 10
  bra BB7
BB4:
  setp.lt p1 r0, 24
  @!p1 bra BB6
BB5:
  iadd r1 r1, 100
BB6:
  iadd r1 r1, 1000
BB7:
  iadd r1 r1, 7
  st.global r0, r1
  exit
",
        );
        for t in 0..32u32 {
            let expect = match t {
                0..=7 => 1 + 10 + 7,
                8..=15 => 10 + 7,
                16..=23 => 100 + 1000 + 7,
                _ => 1000 + 7,
            };
            assert_eq!(mem.load(t), Some(expect), "lane {t}");
        }
    }

    #[test]
    fn loop_inside_hammock() {
        // Lanes < 16 run a per-lane-trip-count loop; others skip it.
        let mem = run32(
            "
.kernel lih
BB0:
  mov r0, %tid.x
  mov r1, 0
  setp.ge p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r1, 3
  setp.gt p1 r1, r0
  @!p1 bra BB1
BB2:
  iadd r1 r1, 500
  st.global r0, r1
  exit
",
        );
        for t in 0..32u32 {
            let expect = if t < 16 { ((t / 3) + 1) * 3 + 500 } else { 500 };
            assert_eq!(mem.load(t), Some(expect), "lane {t}");
        }
    }

    #[test]
    fn hammock_inside_loop() {
        // Each iteration diverges on parity of the accumulator.
        let mem = run32(
            "
.kernel hil
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  and r3 r1, 1
  setp.eq p0 r3, 0
  @!p0 bra BB3
BB2:
  iadd r2 r2, 5
BB3:
  iadd r2 r2, 1
  iadd r1 r1, 1
  setp.lt p1 r1, 4
  @p1 bra BB1
BB4:
  st.global r0, r2
  exit
",
        );
        // Iterations 0 and 2 take the even path: 2·(5+1) + 2·1 = 14.
        for t in 0..32u32 {
            assert_eq!(mem.load(t), Some(14), "lane {t}");
        }
    }
}

#[cfg(test)]
mod nested_loop_exec_tests {
    use super::*;
    use crate::sink::NullSink;

    /// Nested loops with lane-dependent inner trip counts, executed with
    /// full allocation under hierarchy mode.
    #[test]
    fn nested_divergent_loops_allocate_and_execute() {
        let text = "
.kernel nestdiv
BB0:
  mov r0, %tid.x
  and r7 r0, 7
  mov r1, 0
  mov r2, 0
BB1:
  mov r3, 0
BB2:
  iadd r3 r3, 1
  imad r2 r3, r1, r2
  iadd r2 r2, 1
  setp.le p0 r3, r7
  @p0 bra BB2
BB3:
  iadd r1 r1, 1
  setp.lt p1 r1, 3
  @p1 bra BB1
BB4:
  st.global r0, r2
  exit
";
        let kernel = rfh_isa::parse_kernel(text).unwrap();
        let mut base = GlobalMemory::new(32);
        let mut sink = NullSink;
        execute(
            &kernel,
            &Launch::new(1, 32),
            &mut base,
            ExecMode::Baseline,
            &mut [&mut sink],
        )
        .unwrap();

        // Host oracle.
        for t in 0..32i64 {
            let lane_bound = t & 7;
            let mut r2: i64 = 0;
            for r1 in 0..3i64 {
                let mut r3 = 0i64;
                loop {
                    r3 += 1;
                    r2 = (r3 * r1 + r2) & 0xFFFF_FFFF;
                    r2 += 1;
                    if r3 > lane_bound {
                        break;
                    }
                }
            }
            assert_eq!(
                base.load(t as u32),
                Some((r2 & 0xFFFF_FFFF) as u32),
                "lane {t}"
            );
        }

        // And the allocated kernel computes the same image.
        let cfg = rfh_alloc::AllocConfig::three_level(2, true);
        let mut allocated = kernel.clone();
        rfh_alloc::allocate(&mut allocated, &cfg, &rfh_energy::EnergyModel::paper()).unwrap();
        let mut hier = GlobalMemory::new(32);
        execute(
            &allocated,
            &Launch::new(1, 32),
            &mut hier,
            ExecMode::Hierarchy(cfg),
            &mut [&mut sink],
        )
        .unwrap();
        assert_eq!(base.words(), hier.words());
    }
}
