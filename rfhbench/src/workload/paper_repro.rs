//! `paper_repro`: regenerate every `repro all` experiment, each time
//! with a fresh `ExperimentCtx`, and compare the CSVs byte for byte with
//! the committed goldens in `results/`.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rfh::alloc::AllocConfig;
use rfh::experiments::{
    ablation, characterize, csv, encoding, fig11, fig12, fig13, fig14, fig15, fig2, limit, perf,
    tables, ExperimentCtx,
};
use rfh::workloads::Workload;

use super::{closed_loop, Bench, Ctx, Tally};
use crate::corpus::{self, Case};
use crate::trace::Tracer;

/// The experiments with a committed golden CSV.
const GOLDENS: [&str; 10] = [
    "characterize",
    "fig2",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "perf",
    "limit",
    "ablation",
];

pub struct PaperRepro {
    workloads: Vec<Workload>,
    goldens: Vec<(&'static str, Vec<u8>)>,
}

impl Bench for PaperRepro {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let goldens = GOLDENS
            .iter()
            .map(|&name| {
                let path = ctx.root.join("results").join(format!("{name}.csv"));
                std::fs::read(&path)
                    .map(|bytes| (name, bytes))
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(PaperRepro {
            workloads: rfh::workloads::all(),
            goldens,
        })
    }

    fn warm_up(&mut self, ctx: &Ctx, tally: &mut Tally) {
        tally.record(self.regenerate_and_check(&ctx.tracer));
    }

    fn measure(&mut self, ctx: &Ctx, deadline: Instant, tally: &mut Tally) {
        closed_loop(deadline, tally, || {
            ctx.tracer
                .span("repro.all", || self.regenerate_and_check(&ctx.tracer))
        });
    }

    fn corpus(&self) -> Vec<Case> {
        corpus::suite()
    }

    /// The software-allocation sweep of fig13, which the experiments
    /// compile every suite kernel at: two-level and split-LRF
    /// three-level, 1 to 8 ORF entries.
    fn configs(&self) -> Vec<AllocConfig> {
        (1..=8)
            .flat_map(|entries| {
                [
                    AllocConfig::two_level(entries),
                    AllocConfig::three_level(entries, true),
                ]
            })
            .collect()
    }
}

impl PaperRepro {
    fn regenerate_and_check(&self, tracer: &Tracer) -> Result<(), String> {
        let csvs = catch_unwind(AssertUnwindSafe(|| regenerate(&self.workloads, tracer)))
            .map_err(|_| "an experiment panicked".to_string())?;
        check_csvs(&self.goldens, &csvs)
    }
}

/// Regenerates every experiment of `repro all` (including the printed
/// tables, which have no golden) and returns the golden-backed CSVs.
fn regenerate(workloads: &[Workload], tracer: &Tracer) -> Vec<(&'static str, String)> {
    let ctx = ExperimentCtx::new(workloads);
    let mut csvs = Vec::with_capacity(GOLDENS.len());
    tracer.span("experiments.tables", || {
        black_box((
            tables::table1(workloads),
            tables::table2(),
            tables::table3(),
            tables::table4(),
        ))
    });
    let out = tracer.span("experiments.characterize", || {
        let r = characterize::run(&ctx);
        black_box(characterize::print(&r));
        csv::characterize_csv(&r)
    });
    csvs.push(("characterize", out));
    let out = tracer.span("experiments.fig2", || {
        let r = fig2::run();
        black_box(fig2::print(&r));
        csv::fig2_csv(&r)
    });
    csvs.push(("fig2", out));
    let out = tracer.span("experiments.fig11", || {
        let r = fig11::run(&ctx);
        black_box(fig11::print(&r));
        csv::fig11_csv(&r)
    });
    csvs.push(("fig11", out));
    let out = tracer.span("experiments.fig12", || {
        let r = fig12::run(&ctx);
        black_box(fig12::print(&r));
        csv::fig12_csv(&r)
    });
    csvs.push(("fig12", out));
    let f13 = tracer.span("experiments.fig13", || {
        let f = fig13::run(&ctx);
        black_box((fig13::print(&f), fig13::split_vs_unified(&ctx, 3)));
        f
    });
    csvs.push(("fig13", csv::fig13_csv(&f13)));
    let out = tracer.span("experiments.fig14", || {
        let r = fig14::run(&ctx);
        black_box(fig14::print(&r));
        csv::fig14_csv(&r)
    });
    csvs.push(("fig14", out));
    let out = tracer.span("experiments.fig15", || {
        let r = fig15::run(&ctx);
        black_box(fig15::print(&r));
        csv::fig15_csv(&r)
    });
    csvs.push(("fig15", out));
    tracer.span("experiments.encoding", || {
        let best = f13.best(|p| p.sw_lrf_split).1;
        black_box(encoding::print(&encoding::run(1.0 - best)))
    });
    let out = tracer.span("experiments.perf", || {
        let r = perf::run(&ctx, &[1, 2, 4, 6, 8, 16, 32]);
        black_box(perf::print(&r));
        csv::perf_csv(&r)
    });
    csvs.push(("perf", out));
    let out = tracer.span("experiments.limit", || {
        let r = limit::run(&ctx);
        black_box(limit::print(&r));
        csv::limit_csv(&r)
    });
    csvs.push(("limit", out));
    let out = tracer.span("experiments.ablation", || {
        let r = ablation::run(&ctx);
        black_box(ablation::print(&r));
        csv::ablation_csv(&r)
    });
    csvs.push(("ablation", out));
    csvs
}

/// Every golden must be reproduced byte for byte.
fn check_csvs(goldens: &[(&str, Vec<u8>)], csvs: &[(&str, String)]) -> Result<(), String> {
    for (name, golden) in goldens {
        let produced = csvs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, text)| text.as_bytes())
            .ok_or_else(|| format!("{name}.csv was not produced"))?;
        if let Some(at) = super::first_difference(golden, produced) {
            return Err(format!(
                "{name}.csv differs from results/{name}.csv at byte {at}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_change_to_a_copied_golden_is_caught() {
        let ctx = Ctx::for_tests();
        let bench = PaperRepro::setup(&ctx).expect("goldens load");
        let produced: Vec<(&str, String)> = bench
            .goldens
            .iter()
            .map(|(n, b)| (*n, String::from_utf8(b.clone()).expect("CSV is UTF-8")))
            .collect();
        assert_eq!(check_csvs(&bench.goldens, &produced), Ok(()));

        let mut copied = bench.goldens.clone();
        let fig13 = &mut copied.iter_mut().find(|(n, _)| *n == "fig13").unwrap().1;
        let at = fig13.len() / 2;
        fig13[at] ^= 1;
        let err = check_csvs(&copied, &produced).expect_err("flipped byte");
        assert!(
            err.contains("fig13.csv") && err.contains(&format!("byte {at}")),
            "{err}"
        );
    }
}
