//! Differential conformance: the warp-batched SoA engine against the
//! frozen reference oracle (`rfh_oracle::exec`).
//!
//! Every case runs the same kernel, launch, and memory image through both
//! engines and demands identical observable behavior: the [`ExecReport`],
//! the final global-memory image, and the [`AccessCounts`] a [`SwCounter`]
//! accumulates (which pins the per-instruction event stream — the counter
//! folds every event's resolved plan, so a missing, extra, or re-ordered
//! event shows up as a count mismatch). Errors must match exactly too:
//! same variant, same location, same message.
//!
//! The generator never emits most opcodes, so a table-driven sweep
//! crosses every ALU, SFU, `setp`/`fsetp` and `sel` opcode with every
//! operand kind, several launch sizes, each guard form and a destination
//! that aliases a source.
//!
//! Knobs: `RFH_TESTKIT_SEED` replays the generator sweep from a given
//! base seed, `RFH_EXEC_DIFF_CASES` scales the number of generated
//! kernels (default 1000), and `RFH_JOBS` sets the worker count (outcomes
//! fold in case order, so failures are identical at any job count).

use rfh::alloc::{allocate, AllocConfig};
use rfh::energy::{AccessCounts, EnergyModel};
use rfh::isa::{
    ops, CmpOp, Instruction, Kernel, KernelBuilder, Opcode, Operand, PredReg, Reg, SfuOp, Special,
};
use rfh::sim::exec::{execute_with, ExecError, ExecMode, ExecReport, Launch};
use rfh::sim::machine::MachineConfig;
use rfh::sim::mem::GlobalMemory;
use rfh::sim::SwCounter;
use rfh::workloads::generator::{random_program, GenConfig};
use rfh_oracle::exec::Execute;
use rfh_testkit::pool::par_map;
use rfh_testkit::prelude::*;

/// Everything one engine run exposes to an observer.
struct Observed {
    report: ExecReport,
    counts: AccessCounts,
    mem: Vec<u32>,
}

fn run(
    engine: Execute,
    kernel: &Kernel,
    launch: &Launch,
    memory: &GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
) -> Result<Observed, ExecError> {
    let mut mem = memory.clone();
    let mut counter = SwCounter::default();
    let report = engine(kernel, launch, &mut mem, mode, machine, &mut [&mut counter])?;
    Ok(Observed {
        report,
        counts: counter.counts(),
        mem: mem.words().to_vec(),
    })
}

/// Runs `kernel` through both engines and compares every observable.
fn check_agreement(
    label: &str,
    kernel: &Kernel,
    launch: &Launch,
    memory: &GlobalMemory,
    mode: ExecMode,
    machine: &MachineConfig,
) -> Result<(), String> {
    let soa = run(execute_with, kernel, launch, memory, mode, machine);
    let oracle = run(
        rfh_oracle::exec::execute_with,
        kernel,
        launch,
        memory,
        mode,
        machine,
    );
    match (soa, oracle) {
        (Ok(s), Ok(o)) => {
            if s.report != o.report {
                return Err(format!(
                    "{label}: reports diverge: soa {:?} vs reference {:?}",
                    s.report, o.report
                ));
            }
            if s.counts != o.counts {
                return Err(format!(
                    "{label}: access counts diverge: soa {:?} vs reference {:?}",
                    s.counts, o.counts
                ));
            }
            if s.mem != o.mem {
                let word = s.mem.iter().zip(&o.mem).position(|(a, b)| a != b);
                return Err(format!(
                    "{label}: memory images diverge at word {word:?} (soa {:?} vs reference {:?})",
                    word.map(|i| s.mem[i]),
                    word.map(|i| o.mem[i]),
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "{label}: errors diverge: soa `{a}` vs reference `{b}`"
                ))
            }
        }
        (Ok(_), Err(e)) => Err(format!("{label}: SoA succeeded but reference failed: {e}")),
        (Err(e), Ok(_)) => Err(format!("{label}: SoA failed but reference succeeded: {e}")),
    }
}

/// Base seed: `RFH_TESTKIT_SEED` if set, else a fixed default.
fn base_seed() -> u64 {
    rfh_testkit::env::u64_knob("RFH_TESTKIT_SEED").unwrap_or(0xD1FF_5EED_CAFE_0001)
}

/// Generator case budget: `RFH_EXEC_DIFF_CASES` if set, else 1000.
fn diff_cases() -> usize {
    rfh_testkit::env::usize_knob("RFH_EXEC_DIFF_CASES").unwrap_or(1000)
}

/// Per-case seed stream: each case's seed is a deterministic function of
/// the base seed alone, so cases parallelize and replay individually.
fn case_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut seeder = SplitMix64::new(base);
    (0..n).map(|_| seeder.next_u64()).collect()
}

/// The full paper workload suite, unallocated and under two hierarchy
/// shapes, at each workload's own launch geometry.
#[test]
fn all_workloads_agree_on_both_engines() {
    let workloads = rfh::workloads::all();
    assert_eq!(workloads.len(), 35, "the paper's full workload suite");
    let machine = MachineConfig::paper();
    let failures: Vec<String> = par_map(&workloads, |w| {
        let mut errs = Vec::new();
        if let Err(e) = check_agreement(
            &format!("{} baseline", w.name),
            &w.kernel,
            &w.launch,
            &w.memory,
            ExecMode::Baseline,
            &machine,
        ) {
            errs.push(e);
        }
        for cfg in [AllocConfig::two_level(3), AllocConfig::three_level(3, true)] {
            let mut kernel = w.kernel.clone();
            allocate(&mut kernel, &cfg, &EnergyModel::paper()).unwrap();
            if let Err(e) = check_agreement(
                &format!("{} {cfg}", w.name),
                &kernel,
                &w.launch,
                &w.memory,
                ExecMode::Hierarchy(cfg),
                &machine,
            ) {
                errs.push(e);
            }
        }
        errs
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One generated case: a random kernel (arithmetic chains, hammocks,
/// divergent guarded moves, bounded loops) at a randomized launch geometry
/// including partial trailing warps, checked unallocated and allocated.
fn generated_case(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = GenConfig {
        segments: rng.gen_range(2..10),
        run_len: rng.gen_range(2..8),
        max_trips: rng.gen_range(1..6),
        pool: rng.gen_range(4..10),
    };
    let (kernel, _, memory) = random_program(seed, shape);
    // Thread counts straddle warp boundaries so trailing warps run with a
    // partial active mask; multiple CTAs exercise shared-memory reset.
    let tpc = [32usize, 128, 1, 33, 96, 57][rng.gen_range(0..6)];
    let ctas = rng.gen_range(1..3);
    let launch = Launch::new(ctas, tpc);
    // A bounded budget keeps pathological loop nests fast; both engines
    // see the same budget, so budget errors must agree like any other.
    let mut machine = MachineConfig::paper();
    machine.max_warp_instructions = 200_000;

    check_agreement(
        &format!("gen seed {seed:#018x} baseline"),
        &kernel,
        &launch,
        &memory,
        ExecMode::Baseline,
        &machine,
    )?;

    let entries = rng.gen_range(1..=8);
    let mut cfg = match rng.gen_range(0..3) {
        0 => AllocConfig::two_level(entries),
        1 => AllocConfig::three_level(entries, false),
        _ => AllocConfig::three_level(entries, true),
    };
    cfg.partial_ranges = rng.gen();
    cfg.read_operands = rng.gen();
    let mut allocated = kernel.clone();
    allocate(&mut allocated, &cfg, &EnergyModel::paper())
        .map_err(|e| format!("gen seed {seed:#018x}: allocation failed: {e}"))?;
    check_agreement(
        &format!("gen seed {seed:#018x} {cfg}"),
        &allocated,
        &launch,
        &memory,
        ExecMode::Hierarchy(cfg),
        &machine,
    )
}

/// The generator sweep: 1000 seeded kernels (per `RFH_EXEC_DIFF_CASES`),
/// each checked in both execution modes on both engines.
#[test]
fn generated_kernels_agree_on_both_engines() {
    let base = base_seed();
    let seeds = case_seeds(base, diff_cases());
    let outcomes = par_map(&seeds, |&seed| generated_case(seed));
    let failures: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases diverged (base seed {base:#018x}; replay one case by \
         setting RFH_TESTKIT_SEED and RFH_EXEC_DIFF_CASES=1 after bisecting):\n{}",
        failures.len(),
        diff_cases(),
        failures.join("\n")
    );
}

/// Words the lane-sweep kernels load into registers: integer edges (zero,
/// ±1, `i32::MIN`/`MAX`, shift counts at and past 31) and float edges
/// (±0, ±inf, NaNs with payloads, subnormals, values past `i32`'s range).
const LANE_WORDS: [u32; 24] = [
    0,
    1,
    0xFFFF_FFFF,
    0x8000_0000,
    0x7FFF_FFFF,
    31,
    32,
    33,
    5,
    0xFFFF_FFF9,
    0x3FC0_0000, // 1.5
    0xC010_0000, // -2.25
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FA0_0001, // signaling NaN with a payload
    0xFFC1_2345, // negative quiet NaN with a payload
    0x0000_0001, // smallest subnormal
    0x807F_FFFF, // largest negative subnormal
    0x4F32_D05E, // 3e9
    0xCF32_D05E, // -3e9
    0x3F00_0000, // 0.5
    0x4049_0FDB, // pi
    0x42C8_0000, // 100.0
    0x3F80_0000, // 1.0
];

/// Words per memory region of a lane-sweep kernel: one per thread.
const REGION: u32 = 128;
/// The registers a lane-sweep kernel loads before the instruction under
/// test and stores after it: the sources r1..r3, the destination r4 and
/// r5, the high word of a 64-bit destination. Register `r` loads from
/// region `r - 1` and stores to region `r + 4`.
const LANE_REGS: std::ops::RangeInclusive<u16> = 1..=5;
/// Where the written predicate lands (as 0 or 1).
const P_OUT: u32 = 10 * REGION;

/// Every operand kind besides a register: integer immediates, float
/// immediates (a NaN with a payload, -0.0, ±inf, a subnormal) and every
/// special register.
fn constant_operands() -> Vec<Operand> {
    let mut v = vec![
        Operand::Imm(0),
        Operand::Imm(-1),
        Operand::Imm(33),
        Operand::Imm(i32::MIN),
        Operand::FBits(0x7FA0_0001),
        Operand::FBits(0x8000_0000),
        Operand::FBits(0x7F80_0000),
        Operand::FBits(0xFF80_0000),
        Operand::FBits(0x0000_0001),
        Operand::f32(1.5),
    ];
    v.extend(Special::ALL.map(Operand::Special));
    v
}

/// The opcodes under test with their source count: every ALU and SFU
/// opcode, `setp`/`fsetp` with each comparison, and `sel`. One- and
/// two-source opcodes leave the remaining slots absent.
fn lane_opcodes() -> Vec<(Opcode, usize)> {
    use Opcode::*;
    let mut v: Vec<Opcode> = vec![
        IAdd, ISub, IMul, IMad, IMin, IMax, And, Or, Xor, Shl, Shr, FAdd, FSub, FMul, FFma, FMin,
        FMax, Mov, I2F, F2I, Sel,
    ];
    v.extend(SfuOp::ALL.map(Sfu));
    v.extend(CmpOp::ALL.map(Setp));
    v.extend(CmpOp::ALL.map(FSetp));
    v.into_iter().map(|op| (op, op.num_srcs())).collect()
}

/// The source operand vectors for an opcode with `n` sources: all
/// registers; each constant kind in each slot with registers elsewhere;
/// and each constant kind in every slot at once.
fn operand_vectors(n: usize) -> Vec<Vec<Operand>> {
    let regs: Vec<Operand> = (1..=n as u16).map(|r| Operand::Reg(Reg::new(r))).collect();
    let mut out = vec![regs.clone()];
    for k in constant_operands() {
        for slot in 0..n {
            let mut v = regs.clone();
            v[slot] = k;
            out.push(v);
        }
        if n > 1 {
            out.push(vec![k; n]);
        }
    }
    out
}

/// A kernel around `instr`: each thread loads r1..r5 from its words of
/// the input regions, sets the guard predicate p0 and the predicate p1
/// from bits of its global thread id, runs `instr`, and stores r1..r5
/// and p1.
fn lane_kernel(instr: Instruction) -> Kernel {
    let r = Reg::new;
    let (p0, p1) = (PredReg::new(0), PredReg::new(1));
    let mut b = KernelBuilder::new("lanes");
    // r0 = global thread id; r9 = an address; r8 = a scratch value.
    b.push(ops::imad(
        r(0),
        Operand::Special(Special::CtaIdX),
        Operand::Special(Special::NTidX),
        Operand::Special(Special::TidX),
    ));
    let at = |b: &mut KernelBuilder, region: u16| {
        b.push(ops::iadd(
            r(9),
            r(0).into(),
            Operand::Imm(i32::from(region) * REGION as i32),
        ));
    };
    for reg in LANE_REGS {
        at(&mut b, reg - 1);
        b.push(ops::ld_global(r(reg), r(9).into()));
    }
    b.push(ops::and(r(8), r(0).into(), Operand::Imm(5)));
    b.push(ops::setp(CmpOp::Ne, p0, r(8).into(), Operand::Imm(0)));
    b.push(ops::and(r(8), r(0).into(), Operand::Imm(6)));
    b.push(ops::setp(CmpOp::Ne, p1, r(8).into(), Operand::Imm(0)));
    b.push(instr);
    for reg in LANE_REGS {
        at(&mut b, reg + 4);
        b.push(ops::st_global(r(9).into(), r(reg).into()));
    }
    b.push(ops::mov(r(8), Operand::Imm(0)));
    b.push(ops::mov(r(8), Operand::Imm(1)).guarded(p1, false));
    b.push(ops::iadd(r(9), r(0).into(), Operand::Imm(P_OUT as i32)));
    b.push(ops::st_global(r(9).into(), r(8).into()));
    b.push(ops::exit());
    b.finish()
}

/// The memory image every lane-sweep kernel starts from: each input
/// region holds [`LANE_WORDS`] in another lane order, so each lane sees
/// another combination.
fn lane_memory() -> GlobalMemory {
    let mut mem = GlobalMemory::new((P_OUT + REGION) as usize);
    for (region, stride) in [(0, 1), (1, 7), (2, 5), (3, 11), (4, 13)] {
        for t in 0..REGION {
            let word = LANE_WORDS[(t * stride + region) as usize % LANE_WORDS.len()];
            mem.store(region * REGION + t, word);
        }
    }
    mem
}

/// Every ALU, SFU, `setp`/`fsetp` and `sel` opcode, crossed with every
/// operand kind in every slot, launches of 1, 32, 33 (in two CTAs) and 57
/// threads, unguarded, guarded and negated-guard forms, and a fresh, a
/// 64-bit or a source-aliasing destination, agrees on both engines:
/// memory image, report, `SwCounter` counts and errors.
#[test]
fn every_lane_opcode_agrees_on_both_engines() {
    let machine = MachineConfig::paper();
    let memory = lane_memory();
    let launches = [(1, 1), (1, 32), (2, 33), (1, 57)];
    let guards = [None, Some(false), Some(true)];
    let mut cases: Vec<Instruction> = Vec::new();
    for (op, n) in lane_opcodes() {
        for srcs in operand_vectors(n) {
            let mut base = Instruction::new(op);
            if op.has_pdst() {
                base = base.with_pdst(PredReg::new(1));
            }
            for &s in &srcs {
                base = base.with_src(s);
            }
            if op.reads_pred_src() {
                base = base.with_psrc(PredReg::new(1));
            }
            // A fresh destination, the pair r4:r5 (an error on every ALU
            // opcode, a zero high word on `sel`), and the first register
            // source (if any).
            let mut shapes = vec![base.clone()];
            if op.has_dst() {
                let r4 = Reg::new(4);
                shapes = vec![base.clone().with_dst(r4), base.clone().with_dst64(r4)];
                shapes.extend(
                    srcs.iter()
                        .find_map(|o| o.as_reg())
                        .map(|r| base.clone().with_dst(r)),
                );
            }
            for instr in shapes {
                for guard in guards {
                    cases.push(match guard {
                        Some(negated) => instr.clone().guarded(PredReg::new(0), negated),
                        None => instr.clone(),
                    });
                }
            }
        }
    }
    let failures: Vec<String> = par_map(&cases, |instr| {
        let kernel = lane_kernel(instr.clone());
        launches
            .iter()
            .filter_map(|&(ctas, tpc)| {
                check_agreement(
                    &format!("`{instr}` at {ctas}x{tpc}"),
                    &kernel,
                    &Launch::new(ctas, tpc),
                    &memory,
                    ExecMode::Baseline,
                    &machine,
                )
                .err()
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases diverged:\n{}",
        failures.len(),
        cases.len() * launches.len(),
        failures.join("\n")
    );
}
