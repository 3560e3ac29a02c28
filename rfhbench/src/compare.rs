//! `compare A B`: every (workload, end-to-end metric) of result file B
//! against result file A, under the bounds `BENCHMARK.json` declares;
//! then the ungated detail both files hold, for reading only.

use rfh::rfhd::Json;

use crate::registry::Better;
use crate::stats::{median, quartiles};

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, or better.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell.
    Unresolved,
}

/// The rule: every run of one side beating every run of the other
/// decides outright (B wholly better is ok; B wholly worse is judged on
/// its medians). Otherwise an interquartile range wider than the bound,
/// as a share of its median, on either side leaves it unresolved, and
/// the medians decide the rest.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: &[f64], y: &[f64]| {
        x.iter().all(|&u| {
            y.iter().all(|&v| match better {
                Better::Lower => u < v,
                Better::Higher => u > v,
            })
        })
    };
    if beats(b, a) {
        return Verdict::Ok;
    }
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs()
    };
    if !beats(a, b) && spread(a, ma).max(spread(b, mb)) > bound {
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The parsed `BENCHMARK.json`.
pub fn benchmark_json() -> Result<Json, String> {
    let path = crate::root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    rfh::rfhd::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    rfh::rfhd::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `name` in `section` (`end_to_end` or `detail`).
fn values(doc: &Json, workload: &str, section: &str, name: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: rfh-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let declared = benchmark_json()?;
    let metrics = declared
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err(format!("{a_path} has no workloads"));
    };
    let row = |workload: &str, name: &str, va: &[f64], vb: &[f64], bound: &str, verdict: &str| {
        let (ma, mb) = (median(va), median(vb));
        println!(
            "{workload:<14} {name:<26} {ma:>12.4} {mb:>12.4} {:>9.2} {bound:>8}  {verdict}",
            (mb - ma) / ma * 100.0
        );
    };
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>9} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change%", "bound%"
    );
    let mut not_ok = 0;
    for (workload, _) in workloads {
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: `better` must be lower or higher")),
            };
            let section = |doc| values(doc, workload, "end_to_end", name);
            let (Some(va), Some(vb)) = (section(&a), section(&b)) else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let v = verdict(&va, &vb, better, bound);
            if v != Verdict::Ok {
                not_ok += 1;
            }
            row(
                workload,
                name,
                &va,
                &vb,
                &format!("{:.1}", bound * 100.0),
                &format!("{v:?}"),
            );
        }
    }
    for (workload, fields) in workloads {
        let Some(Json::Obj(detail)) = fields.get("detail") else {
            continue;
        };
        for (name, _) in detail {
            let section = |doc| values(doc, workload, "detail", name);
            if let (Some(va), Some(vb)) = (section(&a), section(&b)) {
                row(workload, name, &va, &vb, "-", "ungated");
            }
        }
    }
    if not_ok > 0 {
        return Err(format!(
            "{not_ok} (workload, metric) pair(s) regressed or unresolved"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_within_the_bound_are_ok_and_beyond_it_regress() {
        let a = [10.0, 10.1, 10.2];
        assert_eq!(
            verdict(&a, &[10.3, 10.5, 10.6], Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[11.0, 11.2, 12.5], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.5, 9.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_one_side_wins_every_run() {
        let a = [10.0, 14.0, 18.0];
        let b = [11.0, 15.0, 19.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::Unresolved);
        // B better in every pairing: ok despite the spread.
        assert_eq!(
            verdict(&a, &[5.0, 6.0, 9.5], Better::Lower, 0.1),
            Verdict::Ok
        );
        // B worse in every pairing and by more than the bound: regressed.
        assert_eq!(
            verdict(&a, &[19.0, 25.0, 30.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        // B worse in every pairing but within the bound: ok.
        assert_eq!(
            verdict(&[10.0, 10.2, 10.4], &[10.5, 10.6, 10.7], Better::Lower, 0.1),
            Verdict::Ok
        );
    }
}
