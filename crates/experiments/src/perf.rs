//! §6 performance verification: the two-level warp scheduler loses no
//! performance with 8 active warps.
//!
//! Expands each workload's recorded baseline stream into timing traces
//! once and replays them through the cycle-level scheduler with various
//! active-set sizes, reporting runtime normalized to the single-level
//! (all-warps-schedulable) baseline. No kernel runs here.

use rfh_sim::machine::MachineConfig;
use rfh_sim::timing::{simulate_timing, CtaMap, TimingConfig, TraceOp};
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{norm, Table};
use crate::runner::mean;

/// Normalized runtime at one active-set size.
#[derive(Debug, Clone, Copy)]
pub struct PerfPoint {
    /// Active warps in the two-level scheduler.
    pub active_warps: usize,
    /// Mean runtime over workloads, normalized to the single-level
    /// scheduler (1.0 = no slowdown).
    pub normalized_runtime: f64,
}

/// Runs the scheduler sweep. Trace expansion fans out per workload and
/// the timing replays fan out per (active-size × workload) cell over the
/// `RFH_JOBS` pool.
///
/// # Panics
///
/// Panics if a workload's recorded baseline run fails or mismatches its
/// host reference.
pub fn run(ctx: &ExperimentCtx, active_sizes: &[usize]) -> Vec<PerfPoint> {
    let machine = MachineConfig::paper();
    let n = ctx.workloads().len();
    let idx: Vec<usize> = (0..n).collect();
    let traces: Vec<Vec<Vec<TraceOp>>> = par_map(&idx, |&i| ctx.stream(i).timing_traces(&machine));
    let cycles = |i: usize, cfg: &TimingConfig| {
        let ctas = CtaMap::new(&machine, ctx.workloads()[i].launch.threads_per_cta);
        simulate_timing(&traces[i], &|w| ctas.cta_of(w), cfg)
            .unwrap_or_else(|e| panic!("recorded trace replay failed: {e}"))
            .cycles
    };
    let baselines: Vec<u64> = par_map(&idx, |&i| cycles(i, &TimingConfig::single_level()));

    let cells: Vec<(usize, usize)> = active_sizes
        .iter()
        .flat_map(|&a| (0..n).map(move |i| (a, i)))
        .collect();
    let ratios: Vec<f64> = par_map(&cells, |&(a, i)| {
        cycles(i, &TimingConfig::two_level(a)) as f64 / baselines[i] as f64
    });
    active_sizes
        .iter()
        .zip(ratios.chunks(n.max(1)))
        .map(|(&a, per_size)| PerfPoint {
            active_warps: a,
            normalized_runtime: mean(per_size),
        })
        .collect()
}

/// Renders the sweep.
pub fn print(points: &[PerfPoint]) -> String {
    let mut t = Table::new(&["active warps", "normalized runtime"]);
    for p in points {
        t.row(&[p.active_warps.to_string(), norm(p.normalized_runtime)]);
    }
    format!(
        "Two-level scheduler performance (runtime / single-level baseline)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_active_warps_lose_no_performance() {
        let workloads: Vec<rfh_workloads::Workload> =
            ["scalarprod", "matrixmul", "mandelbrot", "cp"]
                .iter()
                .map(|n| rfh_workloads::by_name(n).unwrap())
                .collect();
        let points = run(&ExperimentCtx::new(&workloads), &[2, 8]);
        let at8 = points.iter().find(|p| p.active_warps == 8).unwrap();
        assert!(
            at8.normalized_runtime < 1.03,
            "paper claims no penalty at 8 active warps, got {}",
            at8.normalized_runtime
        );
        let at2 = points.iter().find(|p| p.active_warps == 2).unwrap();
        assert!(at2.normalized_runtime >= at8.normalized_runtime - 1e-9);
    }
}
