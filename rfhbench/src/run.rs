//! `run`: every workload in its own child process, so peak RSS and cache
//! state stay per workload; a table of every metric and every ungated
//! detail; a result file.

use std::process::{Command, Stdio};

use rfh::rfhd::Json;

use crate::registry::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{flag, host, out_dir, root};

/// Seconds per run under `--quick`.
const QUICK_SECONDS: f64 = 3.0;

/// What one child run printed as its result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Json,
    /// Ungated numbers, from the line before the result.
    detail: Vec<(String, f64)>,
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("RFH_JOBS", host::jobs().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The daemon's knobs must not reach the measured process.
    for (key, _) in std::env::vars() {
        if key.starts_with("RFHD_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>, what: &str| {
        rfh::rfhd::json::parse(line.unwrap_or("")).map_err(|e| format!("{workload} {what}: {e}"))
    };
    let doc = parse(lines.next(), "result")?;
    let detail = match parse(lines.next(), "detail")?.get("detail") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{workload}: a detail value is not a number"))?,
        _ => return Err(format!("{workload}: no detail line")),
    };
    let num = |k: &str| doc.get(k).and_then(Json::as_u64);
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: num("attempted").ok_or("result without `attempted`")?,
        failed: num("failed").ok_or("result without `failed`")?,
        metrics: doc
            .get("metrics")
            .cloned()
            .ok_or("result without `metrics`")?,
        detail,
    })
}

/// Values over the runs with their median and quartiles, as JSON fields
/// and as the `median q1 q3 n` columns of a table row.
fn series(values: Vec<f64>) -> (Vec<(String, Json)>, String) {
    let (med, (q1, q3)) = (median(&values), quartiles(&values));
    let cols = format!("{med:>12.4} {q1:>12.4} {q3:>12.4} {:>3}", values.len());
    let fields = vec![
        (
            "values".into(),
            Json::Arr(values.into_iter().map(Json::Num).collect()),
        ),
        ("median".into(), Json::Num(med)),
        ("q1".into(), Json::Num(q1)),
        ("q3".into(), Json::Num(q3)),
    ];
    (fields, cols)
}

/// One metric's values over the runs: summary JSON plus a table row.
fn summarize(workload: &str, m: &Metric, runs: &[ChildResult]) -> Result<(Json, String), String> {
    let values = runs
        .iter()
        .map(|r| {
            r.metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: no value for {}", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let (mut fields, cols) = series(values);
    fields.insert(0, ("unit".into(), Json::str(m.unit)));
    let bound = m
        .bound
        .map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
    let row = format!(
        "{:<14} {:<40} {:<9} {cols} {:<7} {:>6}  {}",
        workload,
        m.name,
        m.unit,
        m.better.name(),
        bound,
        m.moves
    );
    Ok((Json::Obj(fields), row))
}

/// The ungated detail over the runs, with the first run's fields.
fn detail(workload: &str, runs: &[ChildResult], rows: &mut Vec<String>) -> Json {
    let Some(first) = runs.first() else {
        return Json::Obj(Vec::new());
    };
    let fields = first
        .detail
        .iter()
        .map(|(name, _)| {
            let values = runs
                .iter()
                .filter_map(|r| r.detail.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            let (fields, cols) = series(values);
            rows.push(format!(
                "{workload:<14} {:<40} {:<9} {cols} ungated",
                format!("detail.{name}"),
                "-"
            ));
            (name.clone(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(fields)
}

fn table(
    workload: &str,
    declared: &[Metric],
    runs: &[ChildResult],
    rows: &mut Vec<String>,
) -> Result<Json, String> {
    declared
        .iter()
        .map(|m| {
            let (json, row) = summarize(workload, m, runs)?;
            rows.push(row);
            Ok((m.name.to_string(), json))
        })
        .collect::<Result<_, String>>()
        .map(Json::Obj)
}

/// The traced run's end-to-end median against the untraced runs', %.
fn trace_overhead_pct(workload: &str, untraced: &Json) -> Result<f64, String> {
    let path = out_dir()?.join(format!("trace.{workload}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = rfh::rfhd::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let p50 = |doc: &Json, path: [&str; 2]| {
        doc.get(path[0])
            .and_then(|m| m.get("op_p50_ms"))
            .and_then(|m| m.get(path[1]))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}: no op_p50_ms"))
    };
    let traced = p50(&doc, ["end_to_end", "value"])?;
    let base = p50(untraced, ["end_to_end", "median"])?;
    Ok((traced - base) / base * 100.0)
}

pub fn run(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let traced = args.iter().any(|a| a == "--traced");
    let reps: usize = if quick {
        1
    } else {
        flag(args, "--reps")?.unwrap_or(1)
    };
    let seed: u64 = flag(args, "--seed")?.unwrap_or(11);
    let seconds = if quick {
        QUICK_SECONDS
    } else {
        declared_run_seconds()?
    };
    let out_path = match flag::<String>(args, "--out")? {
        Some(p) => p.into(),
        None => out_dir()?.join("run.json"),
    };

    let mut rows = Vec::new();
    let mut workloads = Vec::new();
    let mut failed_ops = 0;
    for w in WORKLOADS {
        // Consecutive seeds: the spread then includes the inputs' variation.
        let runs = (0..reps)
            .map(|i| child(w, seed + i as u64, seconds, false))
            .collect::<Result<Vec<_>, _>>()?;
        let mut fields = vec![
            (
                "attempted".into(),
                Json::u64(runs.iter().map(|r| r.attempted).sum()),
            ),
            (
                "failed".into(),
                Json::u64(runs.iter().map(|r| r.failed).sum()),
            ),
            ("correct".into(), Json::Bool(runs.iter().all(|r| r.correct))),
            (
                "end_to_end".into(),
                table(w, &END_TO_END, &runs, &mut rows)?,
            ),
            ("detail".into(), detail(w, &runs, &mut rows)),
        ];
        failed_ops += runs.iter().map(|r| r.failed).sum::<u64>();
        if traced {
            let traced_run = child(w, seed, seconds, true)?;
            failed_ops += traced_run.failed;
            fields.push((
                "per_layer".into(),
                table(w, &PER_LAYER, &[traced_run], &mut rows)?,
            ));
            let pct = trace_overhead_pct(w, &Json::Obj(fields.clone()))?;
            rows.push(format!(
                "{w:<14} {:<40} {:<9} {pct:>12.2}",
                "trace_overhead_pct", "%"
            ));
            fields.push(("trace_overhead_pct".into(), Json::Num(pct)));
        }
        workloads.push((w.to_string(), Json::Obj(fields)));
    }

    println!(
        "{:<14} {:<40} {:<9} {:>12} {:>12} {:>12} {:>3} {:<7} {:>6}  moves",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "better", "bound"
    );
    for row in &rows {
        println!("{row}");
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("rfh-benchmark-v1")),
        ("host".into(), host::block(&root(), reps, seed, seconds)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    std::fs::write(&out_path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    eprintln!("[wrote {}]", out_path.display());
    if failed_ops > 0 {
        return Err(format!("{failed_ops} operation(s) failed"));
    }
    Ok(())
}

/// `run_seconds` from `BENCHMARK.json`.
pub fn declared_run_seconds() -> Result<f64, String> {
    crate::compare::benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}
