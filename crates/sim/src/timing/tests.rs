//! Unit tests for the timing module: the original `timing.rs` suite
//! (exercising the flat engine through the public API) plus config
//! validation and deadlock snapshots. The spot checks against the frozen
//! oracle live with it in `rfh-oracle`.

use super::*;
use crate::exec::{execute, execute_with, ExecMode, Launch};
use crate::mem::GlobalMemory;

fn capture(text: &str, ctas: usize, tpc: usize, mem_words: usize) -> TraceCapture {
    let kernel = rfh_isa::parse_kernel(text).unwrap();
    let machine = MachineConfig::paper();
    let mut cap = TraceCapture::new(machine.clone(), tpc);
    let mut mem = GlobalMemory::new(mem_words);
    execute_with(
        &kernel,
        &Launch::new(ctas, tpc),
        &mut mem,
        ExecMode::Baseline,
        &machine,
        &mut [&mut cap],
    )
    .unwrap();
    cap
}

const ALU_HEAVY: &str = "
.kernel alu
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  imad r2 r1, r1, r2
  iadd r2 r2, 3
  xor r2 r2, r1
  setp.lt p0 r1, 64
  @p0 bra BB1
BB2:
  st.global r0, r2
  exit
";

const MEM_HEAVY: &str = "
.kernel memh
BB0:
  mov r0, %tid.x
  mov r3, 0
  mov r4, 0
BB1:
  iadd r1 r0, r3
  ld.global r2 r1
  iadd r4 r4, r2
  iadd r3 r3, 32
  setp.lt p0 r3, 512
  @p0 bra BB1
BB2:
  st.global r0, r4
  exit
";

#[test]
fn single_warp_alu_ipc_is_latency_bound() {
    let cap = capture(ALU_HEAVY, 1, 32, 64);
    let r = simulate_timing(
        &cap.traces,
        &|w| cap.cta_of(w),
        &TimingConfig::single_level(),
    )
    .unwrap();
    // One warp with serial dependences cannot reach IPC 1.
    assert!(r.ipc() < 0.7, "ipc = {}", r.ipc());
}

#[test]
fn many_warps_hide_alu_latency() {
    let cap = capture(ALU_HEAVY, 8, 128, 2048);
    assert_eq!(cap.traces.len(), 32);
    let r = simulate_timing(
        &cap.traces,
        &|w| cap.cta_of(w),
        &TimingConfig::single_level(),
    )
    .unwrap();
    assert!(
        r.ipc() > 0.9,
        "32 warps should saturate issue, ipc = {}",
        r.ipc()
    );
}

#[test]
fn two_level_with_8_matches_single_level() {
    // The paper's claim: no performance penalty with 8 active warps.
    for text in [ALU_HEAVY, MEM_HEAVY] {
        let cap = capture(text, 8, 128, 4096);
        let base = simulate_timing(
            &cap.traces,
            &|w| cap.cta_of(w),
            &TimingConfig::single_level(),
        )
        .unwrap();
        let two =
            simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(8)).unwrap();
        let slowdown = two.cycles as f64 / base.cycles as f64;
        assert!(slowdown < 1.05, "two-level slowdown {slowdown} on {text}");
    }
}

#[test]
fn too_few_active_warps_hurt_memory_workloads() {
    let cap = capture(MEM_HEAVY, 8, 128, 4096);
    let base = simulate_timing(
        &cap.traces,
        &|w| cap.cta_of(w),
        &TimingConfig::single_level(),
    )
    .unwrap();
    let tiny =
        simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(1)).unwrap();
    assert!(
        tiny.cycles as f64 > base.cycles as f64 * 1.3,
        "1 active warp cannot hide latency: {} vs {}",
        tiny.cycles,
        base.cycles
    );
}

#[test]
fn descheduling_happens_on_long_latency() {
    let cap = capture(MEM_HEAVY, 8, 128, 4096);
    let two =
        simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(8)).unwrap();
    assert!(two.deschedules > 0);
}

#[test]
fn barriers_synchronize_ctas() {
    let text = "
.kernel b
BB0:
  mov r0, %tid.x
  st.shared r0, r0
  bar
  iadd r1 r0, 1
  ld.shared r2 r1
  st.global r0, r2
  exit
";
    // 2 CTAs of 64 threads: barriers must not deadlock across CTAs.
    let cap = capture(text, 2, 64, 256);
    let r = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(2)).unwrap();
    assert!(r.cycles > 0);
    assert_eq!(
        r.instructions,
        cap.traces.iter().map(|t| t.len() as u64).sum::<u64>()
    );
}

fn alu_op(dst: u16, src: u16) -> TraceOp {
    TraceOp {
        latency: 8,
        unit: Unit::Alu,
        long: false,
        barrier: false,
        dsts: [Some(dst), None],
        srcs: [Some(src), None, None],
    }
}

fn bar_op() -> TraceOp {
    TraceOp {
        latency: 1,
        unit: Unit::Alu,
        long: false,
        barrier: true,
        dsts: [None, None],
        srcs: [None, None, None],
    }
}

#[test]
fn barrier_mismatch_is_a_deadlock_error_not_a_hang() {
    // Warp 0 waits at a mid-trace barrier that warp 1 (same CTA)
    // never reaches — warp 1 retires without arriving, so warp 0 can
    // never be released.
    let traces = vec![vec![bar_op(), alu_op(0, 0)], vec![alu_op(1, 1)]];
    let err = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(8)).unwrap_err();
    assert!(matches!(err, TimingError::Deadlock { .. }), "{err}");
}

#[test]
fn mismatched_barrier_counts_are_a_deadlock_error() {
    // Warp 1 executes two barriers but warp 0 only one: warp 1's second
    // arrival can never be matched once warp 0 retires.
    let traces = vec![
        vec![bar_op(), alu_op(0, 0), alu_op(0, 0)],
        vec![bar_op(), bar_op(), alu_op(1, 1)],
    ];
    let err = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(8)).unwrap_err();
    assert!(matches!(err, TimingError::Deadlock { .. }), "{err}");
}

#[test]
fn deadlock_error_carries_a_per_warp_snapshot() {
    // Same barrier mismatch as above: warp 0 is stuck at its barrier
    // (pc 1: the barrier issued), warp 1 retired and must not appear.
    let traces = vec![vec![bar_op(), alu_op(0, 0)], vec![alu_op(1, 1)]];
    let err = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(8)).unwrap_err();
    let TimingError::Deadlock { snapshot, .. } = &err else {
        panic!("expected deadlock, got {err}");
    };
    assert_eq!(snapshot.warps.len(), 1);
    let w = snapshot.warps[0];
    assert_eq!(w.warp, 0);
    assert_eq!(w.cta, 0);
    assert_eq!(w.pc, 1);
    assert!(w.at_barrier);
    assert!(!w.descheduled);
    assert_eq!(w.pending_latency, 0);
    // The message alone must identify the stuck warp.
    let msg = err.to_string();
    assert!(msg.contains("1 unretired warp(s)"), "{msg}");
    assert!(msg.contains("w0 cta0 pc1 at-barrier"), "{msg}");
}

#[test]
fn cycle_budget_bounds_the_simulation() {
    // A 100-op dependent chain at 8 cycles/op needs ~800 cycles; a
    // 50-cycle budget must trip first.
    let chain: Vec<TraceOp> = (0..100).map(|_| alu_op(0, 0)).collect();
    let cfg = TimingConfig::single_level().with_max_cycles(50);
    let err = simulate_timing(std::slice::from_ref(&chain), &|_| 0, &cfg).unwrap_err();
    assert_eq!(err, TimingError::CycleBudget { limit: 50 });
    // With the default budget the same trace completes.
    let ok = simulate_timing(&[chain], &|_| 0, &TimingConfig::single_level()).unwrap();
    assert!(ok.cycles > 50);
}

#[test]
fn cycle_budget_default_is_pinned() {
    // Regression pin: changing the default budget changes which
    // workloads are reported as runaway; do it deliberately.
    assert_eq!(DEFAULT_MAX_CYCLES, 1_000_000_000);
    assert_eq!(TimingConfig::two_level(8).max_cycles, DEFAULT_MAX_CYCLES);
    assert_eq!(TimingConfig::single_level().max_cycles, DEFAULT_MAX_CYCLES);
}

#[test]
fn empty_traces_complete_immediately() {
    let traces: Vec<Vec<TraceOp>> = vec![Vec::new(), Vec::new()];
    let r = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(2)).unwrap();
    assert_eq!(r.instructions, 0);
}

#[test]
fn instruction_counts_are_conserved() {
    let cap = capture(ALU_HEAVY, 2, 64, 128);
    let total: u64 = cap.traces.iter().map(|t| t.len() as u64).sum();
    for cfg in [TimingConfig::single_level(), TimingConfig::two_level(4)] {
        let r = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &cfg).unwrap();
        assert_eq!(r.instructions, total);
    }
}

#[test]
fn zero_active_warps_is_a_config_error() {
    let traces = vec![vec![alu_op(0, 0)]];
    let err = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(0)).unwrap_err();
    assert_eq!(err, TimingError::Config(ConfigError::ZeroActiveWarps));
}

#[test]
fn oversized_active_set_is_a_config_error() {
    let traces = vec![vec![alu_op(0, 0)]];
    let err = simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(33)).unwrap_err();
    assert_eq!(
        err,
        TimingError::Config(ConfigError::ActiveExceedsResident {
            active: 33,
            resident: 32,
        })
    );
    // The full resident complement is fine; so is single-level, whose
    // sentinel active_warps is not consulted.
    assert!(simulate_timing(&traces, &|_| 0, &TimingConfig::two_level(32)).is_ok());
    assert!(simulate_timing(&traces, &|_| 0, &TimingConfig::single_level()).is_ok());
}

#[test]
fn zero_latency_classes_are_config_errors() {
    let traces = vec![vec![alu_op(0, 0)]];
    type Breaker<'a> = &'a dyn Fn(&mut MachineConfig);
    let cases: [(Breaker, LatencyClass); 5] = [
        (&|m| m.alu_latency = 0, LatencyClass::Alu),
        (&|m| m.sfu_latency = 0, LatencyClass::Sfu),
        (&|m| m.shared_mem_latency = 0, LatencyClass::SharedMem),
        (&|m| m.tex_latency = 0, LatencyClass::Tex),
        (&|m| m.dram_latency = 0, LatencyClass::Dram),
    ];
    for (break_machine, class) in cases {
        let mut cfg = TimingConfig::two_level(8);
        break_machine(&mut cfg.machine);
        let err = simulate_timing(&traces, &|_| 0, &cfg).unwrap_err();
        assert_eq!(err, TimingError::Config(ConfigError::ZeroLatency { class }));
    }
}

mod policy_tests {
    use super::*;

    #[test]
    fn greedy_policy_is_never_faster_on_balanced_work() {
        let kernel = rfh_isa::parse_kernel(
            "
.kernel bal
BB0:
  mov r0, %tid.x
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  imad r2 r1, r1, r2
  setp.lt p0 r1, 32
  @p0 bra BB1
BB2:
  st.global r0, r2
  exit
",
        )
        .unwrap();
        let machine = MachineConfig::paper();
        let mut cap = TraceCapture::new(machine, 128);
        let mut mem = GlobalMemory::new(1024);
        execute(
            &kernel,
            &Launch::new(4, 128),
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut cap],
        )
        .unwrap();
        let rr =
            simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(8)).unwrap();
        let greedy = simulate_timing(
            &cap.traces,
            &|w| cap.cta_of(w),
            &TimingConfig::two_level(8).with_policy(SchedPolicy::Greedy),
        )
        .unwrap();
        assert_eq!(rr.instructions, greedy.instructions);
        assert!(
            greedy.cycles as f64 >= rr.cycles as f64 * 0.95,
            "greedy {} vs round-robin {}",
            greedy.cycles,
            rr.cycles
        );
    }
}
