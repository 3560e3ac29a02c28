//! The frozen pre-refactor timing engine — the differential oracle.
//!
//! This is the original hand-woven scheduler loop from `timing.rs`,
//! kept verbatim (modulo the shared-type split and the deadlock
//! snapshot) as the test-only oracle that the shipped flat loop
//! (`rfh_sim::timing`) is conformance-tested against. Do not "improve" this file:
//! its value is that it does not change. Fix bugs in the flat loop, or —
//! if the reference itself is wrong — change both in one commit and
//! re-run the differential suite.

use std::collections::HashSet;

use rfh_isa::Unit;

use rfh_sim::timing::{
    pending_latency, DeadlockSnapshot, SchedPolicy, TimingConfig, TimingError, TimingResult,
    TraceOp, WarpSnapshot,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Active,
    Pending { resume: u64 },
    AtBarrier,
    Done,
}

struct WarpSim {
    next: usize,
    status: Status,
    reg_ready: Vec<u64>,
    long_regs: HashSet<u16>,
    /// Sticky: the warp was descheduled at least once (for the deadlock
    /// snapshot only; no scheduling decision reads this).
    ever_descheduled: bool,
}

/// [`rfh_sim::timing::simulate_timing`] on the frozen oracle: validates
/// `config`, then replays `traces`.
///
/// # Errors
///
/// As [`rfh_sim::timing::simulate_timing`], field for field.
pub fn simulate(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<TimingResult, TimingError> {
    config.validate().map_err(TimingError::Config)?;
    run(traces, cta_of, config)
}

/// Replays captured traces through the two-level scheduler.
///
/// Semantics are documented on [`rfh_sim::timing::simulate_timing`].
fn run(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<TimingResult, TimingError> {
    let n = traces.len();
    let max_reg = traces
        .iter()
        .flatten()
        .flat_map(|op| op.dsts.iter().chain(op.srcs.iter()).flatten())
        .copied()
        .max()
        .unwrap_or(0) as usize
        + 1;
    let mut warps: Vec<WarpSim> = (0..n)
        .map(|wi| WarpSim {
            next: 0,
            // A warp with an empty trace has nothing to retire; starting it
            // Done keeps the issue loop free of empty-slice indexing.
            status: if traces[wi].is_empty() {
                Status::Done
            } else {
                Status::Pending { resume: 0 }
            },
            reg_ready: vec![0; max_reg],
            long_regs: HashSet::new(),
            ever_descheduled: false,
        })
        .collect();
    let slots = if config.two_level {
        config.active_warps.min(n)
    } else {
        n
    };
    // Barrier bookkeeping: arrived counts per CTA.
    let n_ctas = (0..n).map(cta_of).max().map(|c| c + 1).unwrap_or(0);
    let mut barrier_arrived = vec![0usize; n_ctas];

    let mut now: u64 = 0;
    let mut instructions: u64 = 0;
    let mut deschedules: u64 = 0;
    let mut rr: usize = 0;

    // Activate initial warps.
    let mut active: Vec<usize> = Vec::new();
    let activate = |warps: &mut Vec<WarpSim>, active: &mut Vec<usize>, now: u64| {
        while active.len() < slots {
            let candidate = warps
                .iter()
                .enumerate()
                .filter(|(_, w)| matches!(w.status, Status::Pending { resume } if resume <= now))
                .map(|(i, _)| i)
                .next();
            match candidate {
                Some(i) => {
                    warps[i].status = Status::Active;
                    active.push(i);
                }
                None => break,
            }
        }
    };
    activate(&mut warps, &mut active, now);

    let mut sfu_free: u64 = 0;
    let mut mem_free: u64 = 0;
    let mut tex_free: u64 = 0;

    loop {
        if warps.iter().all(|w| w.status == Status::Done) {
            break;
        }
        if now > config.max_cycles {
            return Err(TimingError::CycleBudget {
                limit: config.max_cycles,
            });
        }
        let mut issued = false;
        let mut release_cta: Option<usize> = None;
        let mut to_deschedule: Option<(usize, u64)> = None;

        for k in 0..active.len() {
            let wi = active[(rr + k) % active.len()];
            let trace = &traces[wi];
            let w = &warps[wi];
            debug_assert_eq!(w.status, Status::Active);
            let op = &trace[w.next];

            // Operand readiness.
            let ready_at = op
                .srcs
                .iter()
                .flatten()
                .map(|r| w.reg_ready[*r as usize])
                .max()
                .unwrap_or(0);
            if ready_at > now {
                let blocked_on_long = op
                    .srcs
                    .iter()
                    .flatten()
                    .any(|r| w.reg_ready[*r as usize] > now && w.long_regs.contains(r));
                if config.two_level && blocked_on_long {
                    to_deschedule = Some((wi, ready_at));
                    break;
                }
                continue; // short stall: wait in place
            }
            // Unit availability.
            let unit_free = match op.unit {
                Unit::Sfu => sfu_free,
                Unit::Mem => mem_free,
                Unit::Tex => tex_free,
                _ => 0,
            };
            if unit_free > now {
                continue;
            }

            // ---- issue ----
            let op = *op;
            let w = &mut warps[wi];
            for r in op.srcs.iter().flatten() {
                if w.reg_ready[*r as usize] <= now {
                    w.long_regs.remove(r);
                }
            }
            for d in op.dsts.iter().flatten() {
                w.reg_ready[*d as usize] = now + op.latency;
                if op.long {
                    w.long_regs.insert(*d);
                } else {
                    w.long_regs.remove(d);
                }
            }
            match op.unit {
                Unit::Sfu => sfu_free = now + config.machine.shared_issue_cycles,
                Unit::Mem => mem_free = now + config.machine.shared_issue_cycles,
                Unit::Tex => tex_free = now + config.machine.shared_issue_cycles,
                _ => {}
            }
            w.next += 1;
            instructions += 1;
            issued = true;
            rr = match config.policy {
                SchedPolicy::RoundRobin => (rr + k + 1) % active.len().max(1),
                SchedPolicy::Greedy => 0,
            };

            if w.next == trace.len() {
                w.status = Status::Done;
                active.retain(|&a| a != wi);
            } else if op.barrier {
                let cta = cta_of(wi);
                w.status = Status::AtBarrier;
                active.retain(|&a| a != wi);
                barrier_arrived[cta] += 1;
                let expected = (0..n)
                    .filter(|&x| cta_of(x) == cta && warps[x].status != Status::Done)
                    .count();
                if barrier_arrived[cta] >= expected {
                    release_cta = Some(cta);
                }
            }
            break;
        }

        if let Some((wi, resume)) = to_deschedule {
            deschedules += 1;
            warps[wi].status = Status::Pending { resume };
            warps[wi].ever_descheduled = true;
            active.retain(|&a| a != wi);
        }
        if let Some(cta) = release_cta {
            barrier_arrived[cta] = 0;
            for (x, w) in warps.iter_mut().enumerate() {
                if cta_of(x) == cta && w.status == Status::AtBarrier {
                    w.status = Status::Pending { resume: now };
                }
            }
        }
        activate(&mut warps, &mut active, now);

        if issued || to_deschedule.is_some() || release_cta.is_some() {
            now += 1;
            continue;
        }
        // Nothing happened: fast-forward to the next event.
        let mut next_event = u64::MAX;
        for wi in &active {
            let w = &warps[*wi];
            let op = &traces[*wi][w.next];
            let ready = op
                .srcs
                .iter()
                .flatten()
                .map(|r| w.reg_ready[*r as usize])
                .max()
                .unwrap_or(0);
            let unit = match op.unit {
                Unit::Sfu => sfu_free,
                Unit::Mem => mem_free,
                Unit::Tex => tex_free,
                _ => 0,
            };
            next_event = next_event.min(ready.max(unit).max(now + 1));
        }
        for w in &warps {
            if let Status::Pending { resume } = w.status {
                next_event = next_event.min(resume.max(now + 1));
            }
        }
        if next_event == u64::MAX {
            let snapshot = DeadlockSnapshot {
                warps: warps
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.status != Status::Done)
                    .map(|(wi, w)| WarpSnapshot {
                        warp: wi,
                        cta: cta_of(wi),
                        pc: w.next,
                        at_barrier: w.status == Status::AtBarrier,
                        descheduled: w.ever_descheduled,
                        pending_latency: pending_latency(traces, wi, w.next, &w.reg_ready, now),
                    })
                    .collect(),
            };
            return Err(TimingError::Deadlock {
                cycle: now,
                snapshot,
            });
        }
        now = next_event;
        activate(&mut warps, &mut active, now);
    }

    Ok(TimingResult {
        cycles: now,
        instructions,
        deschedules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_sim::exec::{execute, ExecMode, Launch};
    use rfh_sim::mem::GlobalMemory;
    use rfh_sim::timing::{simulate_timing, ConfigError, TraceCapture};
    use rfh_sim::MachineConfig;

    fn capture(text: &str) -> TraceCapture {
        let kernel = rfh_isa::parse_kernel(text).unwrap();
        let mut cap = TraceCapture::new(MachineConfig::paper(), 128);
        let mut mem = GlobalMemory::new(4096);
        execute(
            &kernel,
            &Launch::new(4, 128),
            &mut mem,
            ExecMode::Baseline,
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

    fn op(dst: Option<u16>, src: Option<u16>, barrier: bool) -> TraceOp {
        TraceOp {
            latency: 8,
            unit: Unit::Alu,
            long: false,
            barrier,
            dsts: [dst, None],
            srcs: [src, None, None],
        }
    }

    #[test]
    fn engines_agree_on_captured_workloads() {
        // The unit-level spot check; tests/timing_differential.rs is the
        // exhaustive version over all workloads and generated traces.
        for text in [ALU_HEAVY, MEM_HEAVY] {
            let cap = capture(text);
            for cfg in [
                TimingConfig::single_level(),
                TimingConfig::two_level(8),
                TimingConfig::two_level(2).with_policy(SchedPolicy::Greedy),
            ] {
                let flat = simulate_timing(&cap.traces, &|w| cap.cta_of(w), &cfg);
                let oracle = simulate(&cap.traces, &|w| cap.cta_of(w), &cfg);
                assert_eq!(flat, oracle, "{cfg:?}");
            }
        }
    }

    #[test]
    fn deadlock_snapshots_are_identical_across_engines() {
        let bar = op(None, None, true);
        let alu = |r: u16| op(Some(r), Some(r), false);
        // A barrier one warp never reaches, and unbalanced barrier counts.
        let mismatches = [
            vec![vec![bar, alu(0)], vec![alu(1)]],
            vec![vec![bar, alu(0), alu(0)], vec![bar, bar, alu(1)]],
        ];
        let cfg = TimingConfig::two_level(8);
        for traces in mismatches {
            let flat = simulate_timing(&traces, &|_| 0, &cfg).unwrap_err();
            let oracle = simulate(&traces, &|_| 0, &cfg).unwrap_err();
            assert!(matches!(flat, TimingError::Deadlock { .. }), "{flat}");
            assert_eq!(flat, oracle);
        }
    }

    #[test]
    fn a_retirement_never_releases_a_waiting_barrier() {
        // Warps 0 and 1 of the one CTA wait at the barrier; warp 2 never
        // reaches it and retires after both arrived. The arrival check
        // alone releases a barrier, so the CTA deadlocks.
        let bar = op(None, None, true);
        let alu = |r: u16| op(Some(r), Some(r), false);
        let traces = vec![vec![bar, alu(0)], vec![bar, alu(1)], vec![alu(2), alu(2)]];
        for cfg in [TimingConfig::single_level(), TimingConfig::two_level(2)] {
            let flat = simulate_timing(&traces, &|_| 0, &cfg);
            let oracle = simulate(&traces, &|_| 0, &cfg);
            assert_eq!(flat, oracle, "{cfg:?}");
            let Err(TimingError::Deadlock { snapshot, .. }) = flat else {
                panic!("{cfg:?}: expected a deadlock, got {flat:?}");
            };
            let waiting: Vec<_> = snapshot
                .warps
                .iter()
                .map(|w| (w.warp, w.at_barrier))
                .collect();
            assert_eq!(waiting, [(0, true), (1, true)], "{cfg:?}");
        }
    }

    #[test]
    fn the_last_live_sibling_releases_the_barrier() {
        // Warp 1 retires without a barrier while warp 0 waits; warp 2
        // arrives last, after a dependent chain, and its arrival meets
        // the CTA's live count: the barrier releases.
        let bar = op(None, None, true);
        let alu = |r: u16| op(Some(r), Some(r), false);
        let traces = vec![
            vec![bar, alu(0)],
            vec![alu(1)],
            vec![alu(2), alu(2), alu(2), bar, alu(2)],
        ];
        for cfg in [TimingConfig::single_level(), TimingConfig::two_level(2)] {
            let flat = simulate_timing(&traces, &|_| 0, &cfg);
            let oracle = simulate(&traces, &|_| 0, &cfg);
            assert_eq!(flat, oracle, "{cfg:?}");
            assert_eq!(flat.expect("barrier releases").instructions, 8, "{cfg:?}");
        }
    }

    #[test]
    fn zero_active_warps_is_a_config_error() {
        let traces = vec![vec![op(Some(0), Some(0), false)]];
        let err = simulate(&traces, &|_| 0, &TimingConfig::two_level(0)).unwrap_err();
        assert_eq!(err, TimingError::Config(ConfigError::ZeroActiveWarps));
    }
}
