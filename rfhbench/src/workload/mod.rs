//! The four workloads and the harness loop that sets one up, measures it, and
//! turns what it measured into the declared metrics.

mod compile_large;
mod daemon_edit;
mod paper_repro;
pub mod sim_suite;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rfh::alloc::AllocConfig;

use crate::corpus::{Case, CONFIG};
use crate::stats::median;
use crate::trace::Tracer;

/// Each run sets its workload up at least `SETUP_MIN_REPS` times and
/// until `SETUP_BUDGET` has passed; `setup_s` is the median. A set-up of
/// a few milliseconds is slow for its first repetitions (page faults,
/// allocator growth), so five repetitions alone leave the median bimodal
/// from run to run.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Failure messages kept per run (the count is always exact).
const MAX_ERRORS: usize = 10;

/// What a workload needs from the command line.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: f64,
    /// Threads and connections of load.
    pub jobs: usize,
    /// The repository root.
    pub root: PathBuf,
    /// Span recorder (disabled unless traced).
    pub tracer: Tracer,
}

impl Ctx {
    #[cfg(test)]
    pub fn for_tests() -> Ctx {
        Ctx {
            seed: 11,
            seconds: 1.0,
            jobs: 1,
            root: crate::root(),
            tracer: Tracer::new(false),
        }
    }
}

/// Operations attempted and failed, and the latency of each timed one.
#[derive(Default)]
pub struct Tally {
    /// Latency of every timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Operations attempted, timed or not (warm-up and gates count).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one untimed operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Counts one timed operation.
    pub fn timed(&mut self, took: Duration, outcome: Result<(), String>) {
        self.op_ms.push(took.as_secs_f64() * 1e3);
        self.record(outcome);
    }
}

/// One workload: set up from the seed, measured until a deadline.
pub trait Bench: Sized {
    /// Builds every input the measurement needs.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Untimed operations run before measuring, so lazy set-up and caches
    /// the users' steady state has warm are warm.
    fn warm_up(&mut self, _ctx: &Ctx, _tally: &mut Tally) {}

    /// Runs timed operations until `deadline` (at least one).
    fn measure(&mut self, ctx: &Ctx, deadline: Instant, tally: &mut Tally);

    /// Untimed correctness gates after measuring.
    fn check(&mut self, _ctx: &Ctx, _tally: &mut Tally) {}

    /// `op_p50_ms`: by default the median of every timed operation.
    fn op_p50_ms(&self, tally: &Tally) -> f64 {
        median(&tally.op_ms)
    }

    /// Ungated numbers recorded beside the metrics, such as per-class
    /// latencies, so a change to one part of an operation mix shows.
    fn detail(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// The kernels the per-layer pass measures for this workload.
    fn corpus(&self) -> Vec<Case>;

    /// The allocation configurations the per-layer pass compiles each
    /// kernel at.
    fn configs(&self) -> Vec<AllocConfig> {
        vec![CONFIG]
    }
}

/// Runs `op` back to back until `deadline`, at least once.
pub fn closed_loop(
    deadline: Instant,
    tally: &mut Tally,
    mut op: impl FnMut() -> Result<(), String>,
) {
    loop {
        let t0 = Instant::now();
        let outcome = op();
        tally.timed(t0.elapsed(), outcome);
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// The first byte offset where two outputs differ, if any.
pub fn first_difference(expected: &[u8], actual: &[u8]) -> Option<usize> {
    match expected.iter().zip(actual).position(|(a, b)| a != b) {
        Some(at) => Some(at),
        None if expected.len() != actual.len() => Some(expected.len().min(actual.len())),
        None => None,
    }
}

/// The result of one measured run.
pub struct Run {
    /// The end-to-end metrics, in registry order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Ungated numbers, see [`Bench::detail`].
    pub detail: Vec<(String, f64)>,
    /// Operations.
    pub tally: Tally,
    /// The workload's kernels and allocation configurations for the
    /// per-layer pass, when traced.
    pub corpus: Option<(Vec<Case>, Vec<AllocConfig>)>,
}

/// Sets the workload `name` up repeatedly, warms it up,
/// measures it for `ctx.seconds`, and runs its gates.
pub fn run(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "paper_repro" => drive::<paper_repro::PaperRepro>(ctx),
        "compile_large" => drive::<compile_large::CompileLarge>(ctx),
        "sim_suite" => drive::<sim_suite::SimSuite>(ctx),
        "daemon_edit" => drive::<daemon_edit::DaemonEdit>(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn drive<B: Bench>(ctx: &Ctx) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    let start = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_BUDGET {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(B::setup(ctx)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");
    let mut tally = Tally::default();
    bench.warm_up(ctx, &mut tally);
    let t0 = Instant::now();
    bench.measure(ctx, t0 + Duration::from_secs_f64(ctx.seconds), &mut tally);
    let wall_s = t0.elapsed().as_secs_f64();
    bench.check(ctx, &mut tally);
    // Read before the per-layer corpus exists, which would raise the peak.
    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("op_p50_ms", bench.op_p50_ms(&tally)),
        ("ops_per_s", tally.op_ms.len() as f64 / wall_s),
        ("peak_rss_mb", crate::host::peak_rss_kb()? as f64 / 1024.0),
    ];
    Ok(Run {
        end_to_end,
        detail: bench.detail(),
        tally,
        corpus: ctx
            .tracer
            .enabled()
            .then(|| (bench.corpus(), bench.configs())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_finds_flips_and_truncation() {
        assert_eq!(first_difference(b"abc", b"abc"), None);
        assert_eq!(first_difference(b"abc", b"abd"), Some(2));
        assert_eq!(first_difference(b"abc", b"ab"), Some(2));
        assert_eq!(first_difference(b"ab", b"abc"), Some(2));
    }
}
