//! Figure 2: register value usage patterns, per suite.
//!
//! (a) the fraction of produced values read 0 / 1 / 2 / >2 times;
//! (b) the lifetime (in instructions) of values read exactly once.
//!
//! Paper headline: "Up to 70% of values are only read once and 50% of all
//! values produced are only read once, within three instructions of being
//! produced."

use rfh_sim::exec::ExecMode;
use rfh_sim::usage::{LifetimeHistogram, ReadHistogram, UsageStats};
use rfh_testkit::pool::par_map;
use rfh_workloads::Suite;

use crate::report::{pct, Table};

/// Figure 2 distributions for one suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteUsage {
    /// The suite.
    pub suite: Suite,
    /// Fractions of values read 0 / 1 / 2 / more times.
    pub read_fracs: [f64; 4],
    /// Fractions of read-once values with lifetime 1 / 2 / 3 / longer.
    pub life_fracs: [f64; 4],
    /// Fraction of all values read exactly once within three instructions.
    pub read_once_within3: f64,
}

/// Runs the usage analysis for every suite. It takes no
/// [`ExperimentCtx`](crate::ExperimentCtx), so it executes each workload
/// itself. The workloads fan out over
/// the `RFH_JOBS` pool, one [`UsageStats`] each, and their histograms are
/// summed per suite in suite order (integer sums: output is identical at
/// any job count).
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run() -> Vec<SuiteUsage> {
    let workloads = rfh_workloads::all();
    let per_workload: Vec<(ReadHistogram, LifetimeHistogram)> = par_map(&workloads, |w| {
        let mut stats = UsageStats::default();
        w.run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut stats])
            .unwrap_or_else(|e| panic!("{e}"));
        (stats.reads, stats.lifetimes)
    });
    Suite::ALL
        .iter()
        .map(|&suite| {
            let mut reads = ReadHistogram::default();
            let mut lifetimes = LifetimeHistogram::default();
            for (w, (r, l)) in workloads.iter().zip(&per_workload) {
                if w.suite == suite {
                    reads += *r;
                    lifetimes += *l;
                }
            }
            let total = reads.total().max(1) as f64;
            let read_fracs = [
                reads.read0 as f64 / total,
                reads.read1 as f64 / total,
                reads.read2 as f64 / total,
                reads.read_more as f64 / total,
            ];
            let lt = lifetimes.total().max(1) as f64;
            let life_fracs = [
                lifetimes.life1 as f64 / lt,
                lifetimes.life2 as f64 / lt,
                lifetimes.life3 as f64 / lt,
                lifetimes.life_more as f64 / lt,
            ];
            let within3 = (lifetimes.life1 + lifetimes.life2 + lifetimes.life3) as f64 / total;
            SuiteUsage {
                suite,
                read_fracs,
                life_fracs,
                read_once_within3: within3,
            }
        })
        .collect()
}

/// Renders both panels of the figure as tables.
pub fn print(results: &[SuiteUsage]) -> String {
    let mut a = Table::new(&["suite", "read 0", "read 1", "read 2", "read >2"]);
    for r in results {
        a.row(&[
            r.suite.to_string(),
            pct(r.read_fracs[0]),
            pct(r.read_fracs[1]),
            pct(r.read_fracs[2]),
            pct(r.read_fracs[3]),
        ]);
    }
    let mut b = Table::new(&[
        "suite",
        "life 1",
        "life 2",
        "life 3",
        "life >3",
        "once&<=3 (all)",
    ]);
    for r in results {
        b.row(&[
            r.suite.to_string(),
            pct(r.life_fracs[0]),
            pct(r.life_fracs[1]),
            pct(r.life_fracs[2]),
            pct(r.life_fracs[3]),
            pct(r.read_once_within3),
        ]);
    }
    format!(
        "Figure 2a — percent of values by read count\n{}\nFigure 2b — lifetime of read-once values\n{}",
        a.render(),
        b.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_matches_paper_regime() {
        let results = run();
        assert_eq!(results.len(), 3);
        for r in &results {
            let sum: f64 = r.read_fracs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "read fractions sum to 1");
            // Paper: a large share of values is read exactly once…
            assert!(
                r.read_fracs[1] > 0.35,
                "{}: read-once fraction {} too low for the GPU regime",
                r.suite,
                r.read_fracs[1]
            );
            // …and most read-once values die within three instructions.
            assert!(
                r.life_fracs[0] + r.life_fracs[1] + r.life_fracs[2] > 0.5,
                "{}: short lifetimes expected",
                r.suite
            );
        }
        let text = print(&results);
        assert!(text.contains("Figure 2a"));
        assert!(text.contains("CUDA SDK"));
    }
}
