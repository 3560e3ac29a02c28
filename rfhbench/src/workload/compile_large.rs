//! `compile_large`: single-threaded passes of the compiler over the suite
//! kernels plus seeded generated kernels of 8 to 512 segments, then a
//! lint phase over the allocated kernels. Nothing is simulated while
//! timing; the once-per-run gate afterwards runs each kernel both ways.
//! The two phases' medians and static throughputs are recorded as detail.

use std::time::{Duration, Instant};

use rfh::alloc::{allocate, validate_placements};
use rfh::energy::EnergyModel;
use rfh::isa::{parse_kernel, printer::print_kernel_annotated, Kernel};
use rfh::lint::{has_errors, lint_kernel, LintOptions};
use rfh::rfhd::fnv1a;
use rfh::sim::exec::{execute, ExecMode};
use rfh::sim::sink::NullSink;
use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

use super::{closed_loop, Bench, Ctx, Tally};
use crate::corpus::{self, Case, CONFIG};
use crate::stats::median;
use crate::trace::Tracer;

/// Generated kernels per size tier, and the tiers' segment counts: the
/// analyses are superlinear, so the large tiers carry most of the time.
const PER_TIER: usize = 12;
const TIERS: [usize; 4] = [8, 32, 128, 512];

pub struct CompileLarge {
    cases: Vec<Case>,
    model: EnergyModel,
    /// The last pass's allocated kernels, for the gate.
    allocated: Vec<Kernel>,
    /// Digests of the first pass's annotated output; later passes must
    /// reproduce them.
    pinned: Option<Vec<u64>>,
    /// Per pass: the compile phase's and the lint phase's duration, ms.
    compile_ms: Vec<f64>,
    lint_ms: Vec<f64>,
}

impl Bench for CompileLarge {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let mut cases = corpus::suite();
        for segments in TIERS {
            for _ in 0..PER_TIER {
                cases.push(corpus::generated(rng.gen(), segments, 8, 16));
            }
        }
        Ok(CompileLarge {
            cases,
            model: EnergyModel::paper(),
            allocated: Vec::new(),
            pinned: None,
            compile_ms: Vec::new(),
            lint_ms: Vec::new(),
        })
    }

    fn measure(&mut self, ctx: &Ctx, deadline: Instant, tally: &mut Tally) {
        closed_loop(deadline, tally, || {
            ctx.tracer.span("compile.pass", || self.pass(&ctx.tracer))
        });
    }

    /// Untimed, once per run: every allocated kernel lints free of errors
    /// and computes the same memory image as the unallocated kernel.
    fn check(&mut self, _ctx: &Ctx, tally: &mut Tally) {
        for (case, kernel) in self.cases.iter().zip(&self.allocated) {
            tally.record(same_image(case, kernel).map_err(|e| format!("{}: {e}", case.name)));
        }
    }

    /// Median ms per pass of each phase, and the phase's static
    /// instructions per host second, in thousands.
    fn detail(&self) -> Vec<(String, f64)> {
        let instrs = self
            .cases
            .iter()
            .map(|c| c.kernel.instr_count())
            .sum::<usize>() as f64;
        let (compile, lint) = (median(&self.compile_ms), median(&self.lint_ms));
        vec![
            ("compile_p50_ms".into(), compile),
            ("lint_p50_ms".into(), lint),
            ("compile_kinstr_per_s".into(), instrs / compile),
            ("lint_kinstr_per_s".into(), instrs / lint),
        ]
    }

    fn corpus(&self) -> Vec<Case> {
        self.cases.clone()
    }
}

impl CompileLarge {
    /// One pass: text → kernel → allocated kernel → annotated text, for
    /// every case, then lint of every allocated kernel.
    fn pass(&mut self, tracer: &Tracer) -> Result<(), String> {
        let t0 = Instant::now();
        let mut allocated = Vec::with_capacity(self.cases.len());
        let mut digests = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let fail = |e: String| format!("{}: {e}", case.name);
            let mut kernel = tracer.span("isa.parse", || {
                parse_kernel(&case.text).map_err(|e| fail(e.to_string()))
            })?;
            tracer.span("isa.validate", || {
                rfh::isa::validate(&kernel).map_err(|e| fail(e.to_string()))
            })?;
            let stats = tracer.span("alloc.allocate", || {
                allocate(&mut kernel, &CONFIG, &self.model).map_err(|e| fail(e.to_string()))
            })?;
            if stats.demoted > 0 {
                return Err(fail("allocation was demoted to MRF-only".into()));
            }
            tracer.span("alloc.validate_placements", || {
                validate_placements(&kernel, &CONFIG).map_err(fail)
            })?;
            let text = tracer.span("isa.print", || print_kernel_annotated(&kernel));
            digests.push(fnv1a(text.as_bytes()));
            allocated.push(kernel);
        }
        let t1 = Instant::now();
        let options = LintOptions {
            alloc: CONFIG,
            ..LintOptions::default()
        };
        for (case, kernel) in self.cases.iter().zip(&allocated) {
            let diags = tracer.span("lint.lint_kernel", || lint_kernel(kernel, &options));
            if has_errors(&diags) {
                return Err(format!("{}: lint reports an error", case.name));
            }
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.compile_ms.push(ms(t1 - t0));
        self.lint_ms.push(ms(t1.elapsed()));
        self.allocated = allocated;
        match &self.pinned {
            Some(pinned) if *pinned != digests => {
                Err("annotated output differs from the first pass".into())
            }
            Some(_) => Ok(()),
            None => {
                self.pinned = Some(digests);
                Ok(())
            }
        }
    }
}

/// Runs the unallocated kernel in baseline mode and the allocated kernel
/// in hierarchy mode; their final memory images must be equal, and a
/// suite workload's must also pass its host reference check.
fn same_image(case: &Case, allocated: &Kernel) -> Result<(), String> {
    let run = |kernel: &Kernel, mode| {
        let mut mem = case.memory.clone();
        execute(kernel, &case.launch, &mut mem, mode, &mut [&mut NullSink])
            .map(|_| mem)
            .map_err(|e| e.to_string())
    };
    let base = run(&case.kernel, ExecMode::Baseline)?;
    let hier = run(allocated, ExecMode::Hierarchy(CONFIG))?;
    if base.words() != hier.words() {
        return Err("hierarchy memory image differs from baseline".into());
    }
    match case.verify {
        Some(verify) => verify(&case.memory, &hier),
        None => Ok(()),
    }
}
