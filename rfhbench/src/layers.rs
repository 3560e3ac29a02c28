//! The per-layer pass of a traced run: each layer's public entry point
//! timed in isolation over the workload's own kernels, compiled at the
//! workload's own allocation configurations, plus the counts that must
//! not move under a speed-only change.
//!
//! It runs after the timed phase, so it never perturbs the end-to-end
//! numbers, and it reports every declared per-layer metric for every
//! workload: a workload whose timed phase never calls a layer still says
//! what that layer costs on its inputs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rfh::alloc::{allocate, validate_placements, AllocConfig};
use rfh::analysis::absint::{self, AbsCtx};
use rfh::analysis::defuse::all_strand_values;
use rfh::analysis::liveness::annotate_dead;
use rfh::analysis::strand::mark_strands;
use rfh::analysis::{DomTree, Liveness};
use rfh::energy::{AccessCounts, EnergyModel};
use rfh::experiments::runner::normalized_energy;
use rfh::isa::{parse_kernel, printer::print_kernel_annotated, Kernel};
use rfh::lint::{lint_kernel, LintOptions};
use rfh::rfhd::{decode_request, handle_with, Budgets, Json, StrandStore, SCHEMA};
use rfh::sim::counts::SwCounter;
use rfh::sim::exec::{execute, ExecMode};
use rfh::sim::machine::MachineConfig;
use rfh::sim::rfc::{HwCounter, RfcConfig};
use rfh::sim::sink::{NullSink, TraceSink};
use rfh::sim::timing::{simulate_timing, TimingConfig, TraceCapture};
use rfh_testkit::rng::{SeedableRng, SmallRng};

use crate::corpus::{self, Case};
use crate::stats::median;

/// Each layer is timed over whole passes of the corpus until at least
/// this long has been measured.
const MIN_TIME: Duration = Duration::from_millis(100);

/// Repetitions of the whole-workload-set timings.
const REPS: usize = 5;

/// Mean nanoseconds for one pass of `run` over inputs `prep(0..n)`;
/// preparing the inputs is not timed.
fn pass_ns<P, R>(n: usize, prep: impl Fn(usize) -> P, run: impl Fn(P) -> R) -> f64 {
    let (mut took, mut passes) = (Duration::ZERO, 0u32);
    while passes == 0 || took < MIN_TIME {
        let inputs: Vec<P> = (0..n).map(&prep).collect();
        let t0 = Instant::now();
        for p in inputs {
            black_box(run(black_box(p)));
        }
        took += t0.elapsed();
        passes += 1;
    }
    took.as_nanos() as f64 / f64::from(passes)
}

/// Median milliseconds of `REPS` calls of `f`.
fn call_ms<R>(mut f: impl FnMut(usize) -> R) -> f64 {
    let ms: Vec<f64> = (0..REPS)
        .map(|i| {
            let t0 = Instant::now();
            black_box(f(i));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

fn exec(case: &Case, kernel: &Kernel, mode: ExecMode, sink: &mut dyn TraceSink) -> u64 {
    let mut mem = case.memory.clone();
    execute(kernel, &case.launch, &mut mem, mode, &mut [sink])
        .expect("workload kernels execute")
        .warp_instructions
}

/// Every per-layer metric over `cases`, in registry order. Metrics of
/// allocated kernels cover every (kernel, configuration) pair of `cases`
/// and `configs`; the others cover each kernel once.
///
/// # Errors
///
/// A kernel that fails to allocate or execute.
pub fn measure(
    cases: &[Case],
    configs: &[AllocConfig],
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let n = cases.len();
    let model = EnergyModel::paper();
    let instrs = cases.iter().map(|c| c.kernel.instr_count()).sum::<usize>() as f64;
    let pairs: Vec<(usize, AllocConfig)> = configs
        .iter()
        .flat_map(|&cfg| (0..n).map(move |i| (i, cfg)))
        .collect();
    let allocated = pairs
        .iter()
        .map(|&(i, cfg)| {
            let mut k = cases[i].kernel.clone();
            allocate(&mut k, &cfg, &model).map_err(|e| format!("{}: {e}", cases[i].name))?;
            Ok(k)
        })
        .collect::<Result<Vec<Kernel>, String>>()?;
    let liveness: Vec<Liveness> = cases.iter().map(|c| Liveness::compute(&c.kernel)).collect();
    let marked: Vec<_> = cases
        .iter()
        .map(|c| {
            let mut k = c.kernel.clone();
            let info = mark_strands(&mut k);
            (k, info)
        })
        .collect();
    let dead: Vec<Kernel> = cases
        .iter()
        .zip(&liveness)
        .map(|(c, lv)| {
            let mut k = c.kernel.clone();
            annotate_dead(&mut k, lv);
            k
        })
        .collect();
    let options = |j: usize| LintOptions {
        alloc: pairs[j].1,
        ..LintOptions::default()
    };
    let m = pairs.len();
    let per_instr = |ns: f64| ns / instrs;
    let per_pair_instr = |ns: f64| ns / (instrs * configs.len() as f64);
    let k = |i: usize| &cases[i].kernel;

    let mut out = vec![
        (
            "isa.parse_ns_per_instr",
            per_instr(pass_ns(n, |i| &cases[i].text, |t| parse_kernel(t))),
        ),
        (
            "isa.validate_ns_per_instr",
            per_instr(pass_ns(n, k, rfh::isa::validate)),
        ),
        (
            "isa.print_ns_per_instr",
            per_pair_instr(pass_ns(m, |j| &allocated[j], print_kernel_annotated)),
        ),
        (
            "analysis.dom_ns_per_instr",
            per_instr(pass_ns(n, k, DomTree::dominators)),
        ),
        (
            "analysis.liveness_ns_per_instr",
            per_instr(pass_ns(n, k, Liveness::compute)),
        ),
        (
            "analysis.strands_ns_per_instr",
            per_instr(pass_ns(n, |i| k(i).clone(), |mut k| mark_strands(&mut k))),
        ),
        (
            "analysis.defuse_ns_per_instr",
            per_instr(pass_ns(
                n,
                |i| i,
                |i| all_strand_values(&marked[i].0, &marked[i].1, &liveness[i]),
            )),
        ),
        (
            "analysis.absint_ns_per_instr",
            per_instr(pass_ns(n, k, |k| absint::analyze(k, AbsCtx::default()))),
        ),
        (
            "alloc.allocate_ns_per_instr",
            per_pair_instr(pass_ns(
                m,
                |j| (k(pairs[j].0).clone(), pairs[j].1),
                |(mut k, cfg)| allocate(&mut k, &cfg, &model),
            )),
        ),
        (
            "alloc.validate_placements_ns_per_instr",
            per_pair_instr(pass_ns(
                m,
                |j| (&allocated[j], pairs[j].1),
                |(k, cfg)| validate_placements(k, &cfg),
            )),
        ),
        (
            "lint.lint_kernel_ns_per_instr",
            per_pair_instr(pass_ns(
                m,
                |j| (&allocated[j], options(j)),
                |(k, options)| lint_kernel(k, &options),
            )),
        ),
    ];
    out.extend(sim(cases, &pairs, &allocated, &dead));
    out.extend([
        ("workloads.all_ms", call_ms(|_| rfh::workloads::all())),
        (
            "workloads.by_name_ms",
            call_ms(|_| rfh::workloads::by_name("vectoradd")),
        ),
        (
            "workloads.random_program_ms",
            call_ms(|i| corpus::generated(seed.wrapping_add(i as u64), 128, 8, 16)),
        ),
    ]);
    out.extend(daemon(cases, seed)?);
    out.push((
        "energy.saving_pct",
        energy_saving(cases, &pairs, &allocated, &model),
    ));
    Ok(out)
}

/// Executor cost per warp instruction in each sink configuration, and
/// timing-model cost per simulated cycle. The hierarchy-mode run covers
/// every (kernel, configuration) pair, the others each kernel once.
fn sim(
    cases: &[Case],
    pairs: &[(usize, AllocConfig)],
    allocated: &[Kernel],
    dead: &[Kernel],
) -> Vec<(&'static str, f64)> {
    let n = cases.len();
    let warp_instrs: Vec<f64> = cases
        .iter()
        .map(|c| exec(c, &c.kernel, ExecMode::Baseline, &mut NullSink) as f64)
        .collect();
    let pair_warp_instrs: f64 = pairs.iter().map(|&(i, _)| warp_instrs[i]).sum();
    let warp_instrs: f64 = warp_instrs.iter().sum();
    let machine = MachineConfig::paper();
    let capture = |c: &Case| TraceCapture::new(machine.clone(), c.launch.threads_per_cta);
    let captured: Vec<TraceCapture> = cases
        .iter()
        .map(|c| {
            let mut cap = capture(c);
            exec(c, &c.kernel, ExecMode::Baseline, &mut cap);
            cap
        })
        .collect();
    let replay = |cap: &TraceCapture| {
        simulate_timing(&cap.traces, &|w| cap.cta_of(w), &TimingConfig::two_level(8))
            .expect("captured traces replay")
    };
    let cycles: f64 = captured.iter().map(|cap| replay(cap).cycles as f64).sum();
    let per_warp_instr = |ns: f64| ns / warp_instrs;
    vec![
        (
            "sim.exec_null_ns_per_warp_instr",
            per_warp_instr(pass_ns(
                n,
                |i| i,
                |i| {
                    exec(
                        &cases[i],
                        &cases[i].kernel,
                        ExecMode::Baseline,
                        &mut NullSink,
                    )
                },
            )),
        ),
        (
            "sim.exec_swcount_ns_per_warp_instr",
            pass_ns(
                pairs.len(),
                |j| (j, SwCounter::default()),
                |(j, mut sw)| {
                    let (i, cfg) = pairs[j];
                    exec(&cases[i], &allocated[j], ExecMode::Hierarchy(cfg), &mut sw)
                },
            ) / pair_warp_instrs,
        ),
        (
            "sim.exec_hwcount_ns_per_warp_instr",
            per_warp_instr(pass_ns(
                n,
                |i| (i, HwCounter::new(RfcConfig::two_level(6), &dead[i])),
                |(i, mut hw)| exec(&cases[i], &dead[i], ExecMode::Baseline, &mut hw),
            )),
        ),
        (
            "sim.exec_capture_ns_per_warp_instr",
            per_warp_instr(pass_ns(
                n,
                |i| (i, capture(&cases[i])),
                |(i, mut cap)| exec(&cases[i], &cases[i].kernel, ExecMode::Baseline, &mut cap),
            )),
        ),
        (
            "sim.timing_ns_per_cycle",
            pass_ns(n, |i| &captured[i], replay) / cycles,
        ),
    ]
}

fn allocate_request(text: String) -> Result<rfh::rfhd::Request, String> {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("op".into(), Json::str("allocate")),
        ("kernel".into(), Json::str(text)),
    ]);
    decode_request(&doc).map_err(|e| e.to_string())
}

/// The daemon's allocate handler, replayed in process: each kernel cold
/// into a fresh strand store, then one-immediate edited against it.
fn daemon(cases: &[Case], seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let budgets = Budgets {
        max_warp_instructions: 20_000_000,
        max_cycles: 200_000_000,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut cold, mut edit) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    for case in cases {
        let Some(edited) = corpus::edit_one_immediate(&case.kernel, &mut rng) else {
            continue;
        };
        let store = StrandStore::with_capacity(2048);
        let handle = |text: String| -> Result<(f64, Json), String> {
            let req = allocate_request(text)?;
            let t0 = Instant::now();
            let out = handle_with(&req, &budgets, Some(&store)).map_err(|e| e.to_string())?;
            Ok((t0.elapsed().as_secs_f64() * 1e3, out))
        };
        cold.push(handle(case.text.clone())?.0);
        let (ms, out) = handle(rfh::isa::printer::print_kernel(&edited))?;
        edit.push(ms);
        let stat = |k: &str| {
            out.get("stats")
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        hits += stat("strand_hits");
        misses += stat("strand_misses");
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok(vec![
        ("rfhd.handle_alloc_cold_ms", mean(&cold)),
        ("rfhd.handle_alloc_edit_ms", mean(&edit)),
        (
            "rfhd.strand_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ])
}

/// Modelled register-file energy saved by the allocation against the
/// single-level baseline, averaged over the (kernel, configuration)
/// pairs, %.
fn energy_saving(
    cases: &[Case],
    pairs: &[(usize, AllocConfig)],
    allocated: &[Kernel],
    model: &EnergyModel,
) -> f64 {
    let counts = |c: &Case, k: &Kernel, mode| -> AccessCounts {
        let mut sw = SwCounter::default();
        exec(c, k, mode, &mut sw);
        sw.counts()
    };
    let base: Vec<AccessCounts> = cases
        .iter()
        .map(|c| counts(c, &c.kernel, ExecMode::Baseline))
        .collect();
    let normalized: Vec<f64> = pairs
        .iter()
        .zip(allocated)
        .map(|(&(i, cfg), k)| {
            let hier = counts(&cases[i], k, ExecMode::Hierarchy(cfg));
            normalized_energy(&hier, &base[i], model, cfg.orf_entries)
        })
        .collect();
    (1.0 - normalized.iter().sum::<f64>() / normalized.len() as f64) * 100.0
}
