//! The flat per-cycle scheduler loop — the shipped timing engine.
//!
//! One loop, plain dense state: each cycle scans the active set from the
//! round-robin pointer (or from the front, for greedy), issues the first
//! warp whose operands and unit are ready, deschedules a warp blocked on
//! an in-flight long-latency result (two-level only), releases a CTA
//! whose warps all reached its barrier, and refills the active set. A
//! cycle in which nothing happens fast-forwards to the next event.
//!
//! A cycle costs O(active) and a fast-forward O(active + log n), because
//! the loop keeps what the last cycle knew instead of recomputing it:
//!
//! * each warp caches two cycles of its next op — when all its sources
//!   are ready, and when its long-latency (DRAM/texture) sources are —
//!   refreshed only when that warp issues, since a warp's scoreboard
//!   changes only at its own issue;
//! * pending warps wait in two min-heaps: the *eligible* heap of warp
//!   indices whose resume cycle has come (popped lowest first, the
//!   oracle's activation order) and the *sleeping* heap of descheduled
//!   warps keyed by `(resume, index)`, which feeds the eligible heap as
//!   the clock reaches each resume cycle;
//! * each CTA's member list and live (unretired) count are built once
//!   from `cta_of`, so a barrier arrival compares two counters and a
//!   release walks only that CTA's warps.
//!
//! Its semantics are exactly those of the frozen oracle in the
//! test-only `rfh-oracle` crate; `tests/timing_differential.rs` and the
//! chaos timing layer hold the two to identical results and errors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rfh_isa::Unit;

use super::{
    pending_latency, DeadlockSnapshot, SchedPolicy, TimingConfig, TimingError, TimingResult,
    TraceOp, WarpSnapshot,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Active,
    /// Off the active set, in the eligible or the sleeping heap.
    Pending,
    AtBarrier,
    Done,
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

/// `(ready_at, long_ready)` of `op`: the cycle at which all its sources
/// are ready, and the cycle at which its long-latency sources are. The
/// oracle's "blocked on an in-flight long-latency result" test at cycle
/// `now` is exactly `long_ready > now`.
fn ready_cycles(op: &TraceOp, reg_ready: &[u64], long: &[bool]) -> (u64, u64) {
    let mut ready = (0, 0);
    for &r in op.srcs.iter().flatten() {
        let at = reg_ready[r as usize];
        ready.0 = ready.0.max(at);
        if long[r as usize] {
            ready.1 = ready.1.max(at);
        }
    }
    ready
}

/// The pending warps: eligible (resume cycle come) and sleeping
/// (descheduled until `resume`).
struct Queues {
    eligible: BinaryHeap<Reverse<usize>>,
    sleeping: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Queues {
    /// Wakes the sleepers whose resume cycle has come, then refills
    /// `active` up to `slots`, lowest warp index first.
    fn activate(&mut self, now: u64, slots: usize, active: &mut Vec<usize>, status: &mut [Status]) {
        while let Some(&Reverse((resume, wi))) = self.sleeping.peek() {
            if resume > now {
                break;
            }
            self.sleeping.pop();
            self.eligible.push(Reverse(wi));
        }
        while active.len() < slots {
            let Some(Reverse(wi)) = self.eligible.pop() else {
                break;
            };
            status[wi] = Status::Active;
            active.push(wi);
        }
    }
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

    // Per-warp state. An empty trace has nothing to issue: it starts
    // retired. Every other warp starts eligible with nothing in flight.
    let mut status: Vec<Status> = traces
        .iter()
        .map(|t| {
            if t.is_empty() {
                Status::Done
            } else {
                Status::Pending
            }
        })
        .collect();
    let mut next = vec![0usize; n];
    // `ready_cycles` of each warp's next op.
    let mut ready = vec![(0u64, 0u64); n];
    // Cycle at which each register's pending result is ready, and whether
    // it comes from a long-latency op: `regs` entries per warp.
    let mut reg_ready = vec![0u64; n * regs];
    let mut long = vec![false; n * regs];
    // Sticky: the warp was descheduled at least once (deadlock snapshot
    // only).
    let mut ever_descheduled = vec![false; n];
    let mut retired = traces.iter().filter(|t| t.is_empty()).count();

    // Per-CTA barrier state.
    let cta: Vec<usize> = (0..n).map(cta_of).collect();
    let n_ctas = cta.iter().max().map_or(0, |c| c + 1);
    let mut members = vec![Vec::new(); n_ctas];
    let mut live = vec![0usize; n_ctas];
    for (wi, &c) in cta.iter().enumerate() {
        members[c].push(wi);
        if status[wi] != Status::Done {
            live[c] += 1;
        }
    }
    let mut arrived = vec![0usize; n_ctas];

    let slots = if config.two_level {
        config.active_warps.min(n)
    } else {
        n
    };
    let shared_issue = config.machine.shared_issue_cycles;

    let mut now: u64 = 0;
    let mut instructions: u64 = 0;
    let mut deschedules: u64 = 0;
    let mut rr: usize = 0;
    // Cycle at which each shared unit (see `shared_slot`) can next issue.
    let mut unit_free = [0u64; 3];

    let mut queues = Queues {
        eligible: (0..n)
            .filter(|&wi| status[wi] == Status::Pending)
            .map(Reverse)
            .collect(),
        sleeping: BinaryHeap::new(),
    };
    // The active set, in activation order.
    let mut active: Vec<usize> = Vec::with_capacity(slots);
    queues.activate(now, slots, &mut active, &mut status);

    while retired < n {
        if now > config.max_cycles {
            return Err(TimingError::CycleBudget {
                limit: config.max_cycles,
            });
        }
        let mut event = false;
        let mut release_cta: Option<usize> = None;
        let len = active.len();
        // Position after `at` in the wrapping scan order.
        let step = |at: usize| if at + 1 == len { 0 } else { at + 1 };
        let mut at = if len == 0 { 0 } else { rr % len };
        for _ in 0..len {
            let wi = active[at];
            let (ready_at, long_ready) = ready[wi];
            if ready_at > now {
                if config.two_level && long_ready > now {
                    deschedules += 1;
                    status[wi] = Status::Pending;
                    ever_descheduled[wi] = true;
                    active.remove(at);
                    queues.sleeping.push(Reverse((ready_at, wi)));
                    event = true;
                    break;
                }
                // Short stall: wait in place.
                at = step(at);
                continue;
            }
            let trace = &traces[wi];
            let op = &trace[next[wi]];
            if unit_ready(&unit_free, op.unit) > now {
                at = step(at);
                continue;
            }

            // Issue. The oracle also clears the long flag of every ready
            // source; a long flag is only read together with a ready
            // cycle after `now`, which that register no longer has, so
            // the clearing is unobservable and skipped.
            let warp_regs = wi * regs..(wi + 1) * regs;
            let (w_ready, w_long) = (&mut reg_ready[warp_regs.clone()], &mut long[warp_regs]);
            for &d in op.dsts.iter().flatten() {
                w_ready[d as usize] = now + op.latency;
                w_long[d as usize] = op.long;
            }
            if let Some(s) = shared_slot(op.unit) {
                unit_free[s] = now + shared_issue;
            }
            next[wi] += 1;
            instructions += 1;
            event = true;
            rr = match config.policy {
                SchedPolicy::RoundRobin => step(at),
                SchedPolicy::Greedy => 0,
            };

            let c = cta[wi];
            if next[wi] == trace.len() {
                status[wi] = Status::Done;
                retired += 1;
                live[c] -= 1;
                active.remove(at);
                break;
            }
            ready[wi] = ready_cycles(&trace[next[wi]], w_ready, w_long);
            if op.barrier {
                status[wi] = Status::AtBarrier;
                active.remove(at);
                arrived[c] += 1;
                if arrived[c] >= live[c] {
                    release_cta = Some(c);
                }
            }
            break;
        }

        if let Some(c) = release_cta {
            arrived[c] = 0;
            for &wi in &members[c] {
                if status[wi] == Status::AtBarrier {
                    status[wi] = Status::Pending;
                    queues.eligible.push(Reverse(wi));
                }
            }
        }
        queues.activate(now, slots, &mut active, &mut status);

        if event {
            now += 1;
            continue;
        }

        // Nothing happened: fast-forward to the next event. The oracle
        // also steps one cycle at a time while a warp waits in the
        // eligible heap. That heap is non-empty only with a full active
        // set, and until the next event here no active warp can issue,
        // none can be descheduled (this cycle's scan found none blocked
        // on a long-latency result, and a woken sleeper's operands are
        // ready) and no slot frees, so those steps are idle and skipped.
        let mut next_event = active
            .iter()
            .map(|&wi| {
                ready[wi]
                    .0
                    .max(unit_ready(&unit_free, traces[wi][next[wi]].unit))
            })
            .min()
            .unwrap_or(u64::MAX);
        if let Some(&Reverse((resume, _))) = queues.sleeping.peek() {
            next_event = next_event.min(resume);
        }
        if next_event == u64::MAX {
            let snapshot = DeadlockSnapshot {
                warps: (0..n)
                    .filter(|&wi| status[wi] != Status::Done)
                    .map(|wi| WarpSnapshot {
                        warp: wi,
                        cta: cta[wi],
                        pc: next[wi],
                        at_barrier: status[wi] == Status::AtBarrier,
                        descheduled: ever_descheduled[wi],
                        pending_latency: pending_latency(
                            traces,
                            wi,
                            next[wi],
                            &reg_ready[wi * regs..(wi + 1) * regs],
                            now,
                        ),
                    })
                    .collect(),
            };
            return Err(TimingError::Deadlock {
                cycle: now,
                snapshot,
            });
        }
        now = next_event.max(now + 1);
        queues.activate(now, slots, &mut active, &mut status);
    }

    Ok(TimingResult {
        cycles: now,
        instructions,
        deschedules,
    })
}
