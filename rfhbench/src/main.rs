//! `rfh-benchmark` — the outside-in benchmark of the rfh toolchain.
//!
//! ```text
//! rfh-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is its JSON
//!     result, the line before it the run's ungated detail
//! rfh-benchmark run [--traced] [--quick] [--reps N] [--seed N] [--out FILE]
//!     every workload in its own child process, a table of medians and
//!     quartiles, and a result file (default rfhbench/out/run.json)
//! rfh-benchmark compare A.json B.json
//!     each (workload, end-to-end metric) of B against A: ok, regressed,
//!     or unresolved, with the bounds BENCHMARK.json declares
//! rfh-benchmark pin-expected
//!     prints rfhbench/expected/sim_suite.tsv for the current simulator
//! ```
//!
//! See `rfhbench/README.md` for the workloads, metrics and protocol.

mod compare;
mod corpus;
mod host;
mod layers;
mod registry;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rfh::rfhd::Json;

use registry::Metric;
use trace::Tracer;
use workload::Ctx;

/// The repository root: the working directory when run from there (the
/// short relative paths keep the daemon's socket path within its limit),
/// else the parent of this package.
pub fn root() -> PathBuf {
    if Path::new("rfhbench/Cargo.toml").is_file() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Where runs write traces and result files.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = root().join("rfhbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The value after `flag` in `args`, parsed.
pub fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

/// The measured values of `declared`, as `{name: {value, unit}}`; every
/// declared metric must be measured and nothing else.
fn metrics_json(declared: &[Metric], measured: &[(&str, f64)]) -> Result<Json, String> {
    if measured.len() != declared.len() {
        return Err(format!(
            "measured {} metrics, declared {}",
            measured.len(),
            declared.len()
        ));
    }
    declared
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("no finite value for {}", m.name))?;
            Ok((
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            ))
        })
        .collect::<Result<_, String>>()
        .map(Json::Obj)
}

/// One run of one workload, printed as the JSON result line.
fn once(args: &[String]) -> Result<(), String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let seed = flag(args, "--seed")?.unwrap_or(11);
    let seconds: f64 = flag(args, "--seconds")?.ok_or("--seconds is required")?;
    let traced = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let jobs = host::jobs();
    // Before any thread starts: the experiment pool reads it.
    std::env::set_var("RFH_JOBS", jobs.to_string());
    let ctx = Ctx {
        seed,
        seconds,
        jobs,
        root: root(),
        tracer: Tracer::new(traced),
    };
    let run = workload::run(&name, &ctx)?;
    for e in &run.tally.errors {
        eprintln!("{name}: FAILED: {e}");
    }
    let metrics = match run.corpus {
        Some((cases, configs)) => {
            let spans = ctx.tracer.spans();
            eprintln!("{}", trace::summary_table(&spans));
            let doc = Json::Obj(vec![
                ("workload".into(), Json::str(name.as_str())),
                ("seed".into(), Json::u64(seed)),
                (
                    "end_to_end".into(),
                    metrics_json(&registry::END_TO_END, &run.end_to_end)?,
                ),
                ("spans".into(), trace::spans_json(&spans, &name)),
            ]);
            let path = out_dir()?.join(format!("trace.{name}.json"));
            std::fs::write(&path, doc.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("[wrote {}]", path.display());
            metrics_json(
                &registry::PER_LAYER,
                &layers::measure(&cases, &configs, seed)?,
            )?
        }
        None => metrics_json(&registry::END_TO_END, &run.end_to_end)?,
    };
    let detail = run
        .detail
        .into_iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| (k, Json::Num(v)))
        .collect();
    println!(
        "{}",
        Json::Obj(vec![("detail".into(), Json::Obj(detail))]).render()
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(run.tally.failed == 0)),
        ("attempted".into(), Json::u64(run.tally.attempted)),
        ("failed".into(), Json::u64(run.tally.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::run(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("pin-expected") => workload::sim_suite::expected_tsv().map(|tsv| print!("{tsv}")),
        Some(_) => once(&args),
        None => Err(
            "usage: rfh-benchmark --workload W --seconds S [--seed N] [--trace 0|1] \
                     | run | compare A B | pin-expected"
                .into(),
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rfh-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_requires_exactly_the_declared_metrics() {
        let declared = &registry::END_TO_END;
        let mut measured: Vec<(&str, f64)> = declared.iter().map(|m| (m.name, 1.5)).collect();
        let json = metrics_json(declared, &measured).expect("complete");
        assert_eq!(
            json.get("setup_s").and_then(|m| m.get("unit")),
            Some(&Json::str("s"))
        );
        measured[0].1 = f64::NAN;
        assert!(metrics_json(declared, &measured).is_err(), "NaN");
        measured.pop();
        assert!(metrics_json(declared, &measured).is_err(), "missing");
    }
}
