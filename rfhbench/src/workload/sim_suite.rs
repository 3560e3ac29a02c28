//! `sim_suite`: single-threaded passes of the simulator over the 35
//! precompiled workloads — four `execute` modes and one timing replay per
//! workload — checked against the host references and the counts pinned
//! in `rfhbench/expected/sim_suite.tsv`.

use std::collections::HashMap;
use std::time::Instant;

use rfh::alloc::allocate;
use rfh::analysis::{liveness::annotate_dead, Liveness};
use rfh::energy::{AccessCounts, EnergyModel};
use rfh::isa::Kernel;
use rfh::sim::counts::SwCounter;
use rfh::sim::exec::{execute, ExecMode, ExecReport};
use rfh::sim::machine::MachineConfig;
use rfh::sim::rfc::{HwCounter, RfcConfig};
use rfh::sim::sink::{NullSink, TraceSink};
use rfh::sim::timing::{simulate_timing, TimingConfig, TraceCapture};
use rfh::workloads::Workload;
use rfh_testkit::rng::{SeedableRng, SmallRng};

use super::{closed_loop, Bench, Ctx, Tally};
use crate::corpus::{self, Case, CONFIG};
use crate::trace::Tracer;

/// The pinned counts, relative to the repository root.
pub const EXPECTED: &str = "rfhbench/expected/sim_suite.tsv";

const HEADER: &str = "workload\twarp_instructions\tsw_counts\thw_counts\tcycles";

/// A workload with its kernels prepared for each mode.
struct Prepared {
    w: Workload,
    allocated: Kernel,
    dead: Kernel,
}

pub struct SimSuite {
    prepared: Vec<Prepared>,
    expected: HashMap<String, String>,
}

impl Bench for SimSuite {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let path = ctx.root.join(EXPECTED);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let expected = parse_expected(&text);
        let mut prepared = rfh::workloads::all()
            .into_iter()
            .map(prepare)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(p) = prepared.iter().find(|p| !expected.contains_key(&p.w.name)) {
            return Err(format!("{EXPECTED} has no row for {}", p.w.name));
        }
        // The seed only orders the workloads; their inputs are fixed.
        corpus::shuffle(&mut prepared, &mut SmallRng::seed_from_u64(ctx.seed));
        Ok(SimSuite { prepared, expected })
    }

    fn warm_up(&mut self, ctx: &Ctx, tally: &mut Tally) {
        tally.record(self.pass(&ctx.tracer));
    }

    fn measure(&mut self, ctx: &Ctx, deadline: Instant, tally: &mut Tally) {
        closed_loop(deadline, tally, || {
            ctx.tracer.span("sim.pass", || self.pass(&ctx.tracer))
        });
    }

    fn corpus(&self) -> Vec<Case> {
        corpus::suite()
    }
}

impl SimSuite {
    fn pass(&self, tracer: &Tracer) -> Result<(), String> {
        for p in &self.prepared {
            let row = run_one(p, tracer)?;
            check_row(&self.expected, &p.w.name, &row)?;
        }
        Ok(())
    }
}

fn prepare(w: Workload) -> Result<Prepared, String> {
    let mut allocated = w.kernel.clone();
    allocate(&mut allocated, &CONFIG, &EnergyModel::paper())
        .map_err(|e| format!("{}: {e}", w.name))?;
    let mut dead = w.kernel.clone();
    annotate_dead(&mut dead, &Liveness::compute(&w.kernel));
    Ok(Prepared { w, allocated, dead })
}

/// Runs the four execute modes and the timing replay of one workload and
/// returns its row of counts.
fn run_one(p: &Prepared, tracer: &Tracer) -> Result<String, String> {
    let w = &p.w;
    let exec = |name, kernel: &Kernel, mode, sink: &mut dyn TraceSink| {
        tracer.span(name, || -> Result<ExecReport, String> {
            let mut mem = w.memory.clone();
            let report = execute(kernel, &w.launch, &mut mem, mode, &mut [sink])
                .map_err(|e| format!("{}: {e}", w.name))?;
            (w.verify)(&w.memory, &mem).map_err(|e| format!("{}: {e}", w.name))?;
            Ok(report)
        })
    };
    let report = exec(
        "sim.exec_null",
        &w.kernel,
        ExecMode::Baseline,
        &mut NullSink,
    )?;
    let mut sw = SwCounter::default();
    exec(
        "sim.exec_swcount",
        &p.allocated,
        ExecMode::Hierarchy(CONFIG),
        &mut sw,
    )?;
    let mut hw = HwCounter::new(RfcConfig::two_level(6), &p.dead);
    exec("sim.exec_hwcount", &p.dead, ExecMode::Baseline, &mut hw)?;
    let mut cap = TraceCapture::new(MachineConfig::paper(), w.launch.threads_per_cta);
    exec("sim.exec_capture", &w.kernel, ExecMode::Baseline, &mut cap)?;
    let timing = tracer
        .span("sim.timing", || {
            simulate_timing(&cap.traces, &|x| cap.cta_of(x), &TimingConfig::two_level(8))
        })
        .map_err(|e| format!("{}: {e}", w.name))?;
    Ok(format!(
        "{}\t{}\t{}\t{}\t{}",
        w.name,
        report.warp_instructions,
        counts(&sw.counts()),
        counts(&hw.counts()),
        timing.cycles
    ))
}

fn counts(c: &AccessCounts) -> String {
    [
        c.mrf_read,
        c.mrf_write,
        c.orf_read_private,
        c.orf_read_shared,
        c.orf_write_private,
        c.orf_write_shared,
        c.lrf_read,
        c.lrf_write,
    ]
    .map(|n| n.to_string())
    .join(",")
}

fn parse_expected(text: &str) -> HashMap<String, String> {
    text.lines()
        .skip(1)
        .filter_map(|line| Some((line.split('\t').next()?.to_string(), line.to_string())))
        .collect()
}

fn check_row(expected: &HashMap<String, String>, name: &str, row: &str) -> Result<(), String> {
    match expected.get(name) {
        Some(pinned) if pinned == row => Ok(()),
        Some(pinned) => Err(format!(
            "{name}: counts differ from {EXPECTED}\n  pinned {pinned}\n  got    {row}"
        )),
        None => Err(format!("{name}: no row in {EXPECTED}")),
    }
}

/// The expected-counts file for the current simulator, in registry order.
pub fn expected_tsv() -> Result<String, String> {
    let tracer = Tracer::new(false);
    let mut out = format!("{HEADER}\n");
    for w in rfh::workloads::all() {
        out.push_str(&run_one(&prepare(w)?, &tracer)?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_change_to_a_copied_expected_file_is_caught() {
        let path = crate::root().join(EXPECTED);
        let text = std::fs::read_to_string(path).expect("expected file is readable");
        let p = prepare(rfh::workloads::by_name("vectoradd").expect("known")).expect("allocates");
        let row = run_one(&p, &Tracer::new(false)).expect("runs and verifies");
        assert_eq!(check_row(&parse_expected(&text), "vectoradd", &row), Ok(()));

        let line = text
            .lines()
            .position(|l| l.starts_with("vectoradd\t"))
            .unwrap();
        let mut copied: Vec<String> = text.lines().map(str::to_string).collect();
        let mut bytes = copied[line].clone().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] = if bytes[last] == b'1' { b'2' } else { b'1' };
        copied[line] = String::from_utf8(bytes).expect("ASCII digits");
        let err = check_row(&parse_expected(&copied.join("\n")), "vectoradd", &row)
            .expect_err("flipped byte");
        assert!(err.contains("counts differ"), "{err}");
    }
}
