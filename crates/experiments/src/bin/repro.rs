//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--csv <dir>] [--jobs N] [experiment...]
//!
//! experiments:
//!   table1 table2 table3 table4   the paper's input tables
//!   fig2                          register value usage patterns
//!   fig11                         two-level read/write breakdown
//!   fig12                         three-level read/write breakdown
//!   fig13                         normalized energy of the four designs
//!   fig14                         energy breakdown of the best design
//!   fig15                         per-benchmark energy
//!   encoding                      §6.5 encoding overhead
//!   perf                          two-level scheduler performance
//!   limit                         §7 limit study
//!   ablation                      design-choice ablations
//!   characterize                  workload characterization table
//!   hints                         last-use allocation hints, off vs on
//!   all                           everything except hints (default)
//! ```
//!
//! All experiments share one [`ExperimentCtx`], so baselines, allocated
//! kernels, and access counts are computed once no matter how many
//! experiments reuse them, and the fig13 sweep feeding `encoding` is the
//! same sweep printed by `fig13`. Cells fan out over the `RFH_JOBS` pool;
//! output (including every CSV) is byte-identical at any job count.
//!
//! `hints` is excluded from `all` because it measures the non-default
//! `--hints` allocation path, and `repro all` must keep regenerating the
//! committed default-path goldens byte-for-byte.
//!
//! Wall-clock measurements live in the standalone benchmark, see
//! `rfhbench/README.md`.

use std::time::Instant;

use rfh_experiments::{
    ablation, characterize, encoding, fig11, fig12, fig13, fig14, fig15, fig2, hints, limit, perf,
    tables, ExperimentCtx,
};

/// Reports an I/O failure on a user-supplied path and exits with the
/// toolchain's I/O code (1) — a bad `--csv` destination is operator
/// input, not a toolchain bug, so it must not panic.
fn io_fail(what: &str, path: &str, e: std::io::Error) -> ! {
    eprintln!("repro: cannot {what} {path}: {e}");
    std::process::exit(1);
}

/// Extracts `--flag <value>` from `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        });
        args.drain(i..=i + 1);
        value
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--csv <dir>` additionally writes each experiment's data as CSV.
    let csv_dir = take_flag(&mut args, "--csv");
    // `--jobs N` overrides the `RFH_JOBS` pool knob; it shares the knob
    // parser, so a malformed value warns loudly and falls back instead of
    // silently diverging from the env-var behavior.
    if let Some(raw) = take_flag(&mut args, "--jobs") {
        if let Some(n) = rfh_testkit::env::parse_positive_usize("--jobs", &raw) {
            std::env::set_var("RFH_JOBS", n.to_string());
        }
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            io_fail("create csv dir", dir, e);
        }
    }
    let write_csv = |name: &str, contents: String| {
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{name}.csv");
            if let Err(e) = std::fs::write(&path, contents) {
                io_fail("write", &path, e);
            }
            eprintln!("[wrote {path}]");
        }
    };
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1",
            "table2",
            "table3",
            "table4",
            "characterize",
            "fig2",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "encoding",
            "perf",
            "limit",
            "ablation",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let workloads = rfh_workloads::all();
    let ctx = ExperimentCtx::new(&workloads);
    // The fig13 sweep is shared between the `fig13` and `encoding`
    // experiments: whichever runs first computes it.
    let mut fig13_cached: Option<fig13::Fig13> = None;
    let mut fig13_sweep = |ctx: &ExperimentCtx| -> fig13::Fig13 {
        fig13_cached.get_or_insert_with(|| fig13::run(ctx)).clone()
    };
    for exp in wanted {
        let start = Instant::now();
        let output = match exp {
            "table1" => tables::table1(&workloads),
            "table2" => tables::table2(),
            "table3" => tables::table3(),
            "table4" => tables::table4(),
            "fig2" => {
                let r = fig2::run();
                write_csv("fig2", rfh_experiments::csv::fig2_csv(&r));
                fig2::print(&r)
            }
            "fig11" => {
                let r = fig11::run(&ctx);
                write_csv("fig11", rfh_experiments::csv::fig11_csv(&r));
                fig11::print(&r)
            }
            "fig12" => {
                let r = fig12::run(&ctx);
                write_csv("fig12", rfh_experiments::csv::fig12_csv(&r));
                fig12::print(&r)
            }
            "fig13" => {
                let f = fig13_sweep(&ctx);
                write_csv("fig13", rfh_experiments::csv::fig13_csv(&f));
                let (split, unified) = fig13::split_vs_unified(&ctx, 3);
                format!(
                    "{}split vs unified LRF @3: {:.3} vs {:.3}\n",
                    fig13::print(&f),
                    split,
                    unified
                )
            }
            "fig14" => {
                let r = fig14::run(&ctx);
                write_csv("fig14", rfh_experiments::csv::fig14_csv(&r));
                fig14::print(&r)
            }
            "fig15" => {
                let r = fig15::run(&ctx);
                write_csv("fig15", rfh_experiments::csv::fig15_csv(&r));
                fig15::print(&r)
            }
            "encoding" => {
                let f = fig13_sweep(&ctx);
                let best = f.best(|p| p.sw_lrf_split).1;
                encoding::print(&encoding::run(1.0 - best))
            }
            "perf" => {
                let r = perf::run(&ctx, &[1, 2, 4, 6, 8, 16, 32]);
                write_csv("perf", rfh_experiments::csv::perf_csv(&r));
                perf::print(&r)
            }
            "limit" => {
                let r = limit::run(&ctx);
                write_csv("limit", rfh_experiments::csv::limit_csv(&r));
                limit::print(&r)
            }
            "ablation" => {
                let r = ablation::run(&ctx);
                write_csv("ablation", rfh_experiments::csv::ablation_csv(&r));
                ablation::print(&r)
            }
            "characterize" => {
                let r = characterize::run(&ctx);
                write_csv("characterize", rfh_experiments::csv::characterize_csv(&r));
                characterize::print(&r)
            }
            "hints" => hints::print(&hints::run(&workloads)),
            other => {
                eprintln!("unknown experiment `{other}` (try: repro all)");
                std::process::exit(2);
            }
        };
        println!("{output}");
        let secs = start.elapsed().as_secs_f64();
        eprintln!("[{exp} took {secs:.1}s]\n");
    }
}
