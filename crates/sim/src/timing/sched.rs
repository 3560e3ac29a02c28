//! The flat per-cycle scheduler loop — the shipped timing engine.
//!
//! One loop, plain dense state: each cycle scans the active set from the
//! round-robin pointer (or from the front, for greedy), issues the first
//! warp whose operands and unit are ready, deschedules a warp blocked on
//! an in-flight long-latency result (two-level only), releases a CTA
//! whose warps all reached its barrier, and refills the active set. A
//! cycle in which nothing happens fast-forwards to the next event.
//!
//! Its semantics are exactly those of the frozen oracle in the
//! test-only `rfh-oracle` crate; the differences are representational only — a
//! per-warp `Vec<bool>` long-latency set indexed like `reg_ready`
//! instead of a hash set, and a retired-warp counter instead of a
//! per-cycle scan for completion. `tests/timing_differential.rs` and the
//! chaos timing layer hold the two to identical results and errors.

use rfh_isa::Unit;

use super::{
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

struct Warp {
    next: usize,
    status: Status,
    /// Cycle at which each register's pending result is ready.
    reg_ready: Vec<u64>,
    /// Whether each register's pending result comes from a long-latency
    /// (DRAM/texture) op; indexed like `reg_ready`.
    long: Vec<bool>,
    /// Sticky: the warp was descheduled at least once (deadlock snapshot
    /// only).
    ever_descheduled: bool,
}

/// Slot of a quarter-rate shared-datapath unit in the `unit_free` array;
/// `None` for the full-rate ALU and control.
fn shared_slot(unit: Unit) -> Option<usize> {
    match unit {
        Unit::Sfu => Some(0),
        Unit::Mem => Some(1),
        Unit::Tex => Some(2),
        _ => None,
    }
}

/// Cycle at which `unit` can next issue, per the shared units' free
/// cycles.
fn unit_ready(unit_free: &[u64; 3], unit: Unit) -> u64 {
    shared_slot(unit).map_or(0, |s| unit_free[s])
}

/// Cycle at which every source of `op` is ready.
fn operands_ready(op: &TraceOp, reg_ready: &[u64]) -> u64 {
    op.srcs
        .iter()
        .flatten()
        .map(|r| reg_ready[*r as usize])
        .max()
        .unwrap_or(0)
}

/// Replays `traces` under a validated `config`; see
/// [`super::simulate_timing`].
pub(super) fn run(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<TimingResult, TimingError> {
    let n = traces.len();
    let regs = traces
        .iter()
        .flatten()
        .flat_map(|op| op.dsts.iter().chain(op.srcs.iter()).flatten())
        .copied()
        .max()
        .map_or(1, |r| r as usize + 1);
    let mut warps: Vec<Warp> = traces
        .iter()
        .map(|t| Warp {
            next: 0,
            // An empty trace has nothing to issue: it starts retired.
            status: if t.is_empty() {
                Status::Done
            } else {
                Status::Pending { resume: 0 }
            },
            reg_ready: vec![0; regs],
            long: vec![false; regs],
            ever_descheduled: false,
        })
        .collect();
    let mut retired = traces.iter().filter(|t| t.is_empty()).count();
    let slots = if config.two_level {
        config.active_warps.min(n)
    } else {
        n
    };
    let n_ctas = (0..n).map(cta_of).max().map_or(0, |c| c + 1);
    let mut barrier_arrived = vec![0usize; n_ctas];
    let shared_issue = config.machine.shared_issue_cycles;

    let mut now: u64 = 0;
    let mut instructions: u64 = 0;
    let mut deschedules: u64 = 0;
    let mut rr: usize = 0;
    // Cycle at which each shared unit (see `shared_slot`) can next issue.
    let mut unit_free = [0u64; 3];

    // The active set, in activation order; refilled lowest-index first
    // from the warps whose resume time has come.
    let mut active: Vec<usize> = Vec::with_capacity(slots);
    let activate = |warps: &mut [Warp], active: &mut Vec<usize>, now: u64| {
        let mut from = 0;
        while active.len() < slots {
            let Some(i) = (from..warps.len())
                .find(|&i| matches!(warps[i].status, Status::Pending { resume } if resume <= now))
            else {
                break;
            };
            warps[i].status = Status::Active;
            active.push(i);
            from = i + 1;
        }
    };
    activate(&mut warps, &mut active, now);

    while retired < n {
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
            let w = &mut warps[wi];
            let op = traces[wi][w.next];

            let ready_at = operands_ready(&op, &w.reg_ready);
            if ready_at > now {
                let blocked_on_long = op
                    .srcs
                    .iter()
                    .flatten()
                    .any(|r| w.reg_ready[*r as usize] > now && w.long[*r as usize]);
                if config.two_level && blocked_on_long {
                    to_deschedule = Some((wi, ready_at));
                    break;
                }
                continue; // short stall: wait in place
            }
            if unit_ready(&unit_free, op.unit) > now {
                continue;
            }

            // Issue.
            for r in op.srcs.iter().flatten() {
                if w.reg_ready[*r as usize] <= now {
                    w.long[*r as usize] = false;
                }
            }
            for d in op.dsts.iter().flatten() {
                w.reg_ready[*d as usize] = now + op.latency;
                w.long[*d as usize] = op.long;
            }
            if let Some(s) = shared_slot(op.unit) {
                unit_free[s] = now + shared_issue;
            }
            w.next += 1;
            instructions += 1;
            issued = true;
            rr = match config.policy {
                SchedPolicy::RoundRobin => (rr + k + 1) % active.len(),
                SchedPolicy::Greedy => 0,
            };

            if w.next == traces[wi].len() {
                w.status = Status::Done;
                retired += 1;
                active.retain(|&a| a != wi);
            } else if op.barrier {
                w.status = Status::AtBarrier;
                active.retain(|&a| a != wi);
                let cta = cta_of(wi);
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
                if w.status == Status::AtBarrier && cta_of(x) == cta {
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
        for &wi in &active {
            let w = &warps[wi];
            let op = &traces[wi][w.next];
            let ready = operands_ready(op, &w.reg_ready).max(unit_ready(&unit_free, op.unit));
            next_event = next_event.min(ready.max(now + 1));
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
