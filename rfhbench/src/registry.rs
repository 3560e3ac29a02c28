//! The metric registry: every workload and metric the harness reports.
//! `BENCHMARK.json` at the repository root declares the same set; a unit
//! test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub const fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer only: the end-to-end metric this layer metric should
    /// move, and on which workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// The workloads, in run order; `BENCHMARK.json` gives why each is here.
pub const WORKLOADS: [&str; 4] = ["paper_repro", "compile_large", "sim_suite", "daemon_edit"];

/// End-to-end metrics (tracing off), reported by every workload.
///
/// The bounds are wide because the hosts are noisy. In
/// `rfhbench/results/ten-runs-{1,2}.json`, two sets of ten runs of one
/// commit on a shared 2-CPU machine, the interquartile range of
/// `op_p50_ms` and `ops_per_s` reaches 15.9% of the median (39% for
/// `setup_s`), and the second set's medians are up to 14.3% worse than
/// the first's. A tighter bound would flag that noise as a regression.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const COMPILE: &str = "op_p50_ms @ compile_large; op_p50_ms @ daemon_edit";
const LINT: &str = "op_p50_ms @ compile_large; ops_per_s @ daemon_edit";
const SIM: &str = "op_p50_ms @ sim_suite; op_p50_ms @ paper_repro";
const EDIT: &str = "op_p50_ms, ops_per_s @ daemon_edit";
const DAEMON: &str = "ops_per_s @ daemon_edit";

/// Per-layer metrics (traced run), reported by every workload over that
/// workload's own kernels.
pub const PER_LAYER: [Metric; 23] = [
    layer("isa.parse_ns_per_instr", "ns/instr", Better::Lower, COMPILE),
    layer(
        "isa.validate_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer("isa.print_ns_per_instr", "ns/instr", Better::Lower, COMPILE),
    layer(
        "analysis.dom_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "analysis.liveness_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "analysis.strands_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "analysis.defuse_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "analysis.absint_ns_per_instr",
        "ns/instr",
        Better::Lower,
        LINT,
    ),
    layer(
        "alloc.allocate_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "alloc.validate_placements_ns_per_instr",
        "ns/instr",
        Better::Lower,
        COMPILE,
    ),
    layer(
        "lint.lint_kernel_ns_per_instr",
        "ns/instr",
        Better::Lower,
        LINT,
    ),
    layer(
        "sim.exec_null_ns_per_warp_instr",
        "ns/instr",
        Better::Lower,
        SIM,
    ),
    layer(
        "sim.exec_swcount_ns_per_warp_instr",
        "ns/instr",
        Better::Lower,
        SIM,
    ),
    layer(
        "sim.exec_hwcount_ns_per_warp_instr",
        "ns/instr",
        Better::Lower,
        SIM,
    ),
    layer(
        "sim.exec_capture_ns_per_warp_instr",
        "ns/instr",
        Better::Lower,
        SIM,
    ),
    layer("sim.timing_ns_per_cycle", "ns/cycle", Better::Lower, SIM),
    layer(
        "workloads.all_ms",
        "ms",
        Better::Lower,
        "setup_s @ all workloads",
    ),
    layer("workloads.by_name_ms", "ms", Better::Lower, DAEMON),
    layer(
        "workloads.random_program_ms",
        "ms",
        Better::Lower,
        "setup_s @ compile_large, daemon_edit",
    ),
    layer("rfhd.handle_alloc_cold_ms", "ms", Better::Lower, DAEMON),
    layer("rfhd.handle_alloc_edit_ms", "ms", Better::Lower, EDIT),
    layer("rfhd.strand_hit_ratio", "ratio", Better::Higher, EDIT),
    layer(
        "energy.saving_pct",
        "%",
        Better::Higher,
        "none: modelled energy; a speed-only change must leave it unchanged",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rfh::rfhd::Json;

    fn declared() -> Json {
        let path = crate::root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        rfh::rfhd::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(m: &'a Json, key: &str) -> &'a Json {
        m.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    fn check(declared: &Json, registry: &[Metric]) {
        let declared = declared.as_arr().expect("metric list");
        assert_eq!(declared.len(), registry.len(), "metric count");
        for (d, r) in declared.iter().zip(registry) {
            assert_eq!(field(d, "name").as_str(), Some(r.name));
            assert_eq!(field(d, "unit").as_str(), Some(r.unit), "{}", r.name);
            assert_eq!(
                field(d, "better").as_str(),
                Some(r.better.name()),
                "{}",
                r.name
            );
            assert_eq!(d.get("bound").and_then(Json::as_f64), r.bound, "{}", r.name);
        }
    }

    #[test]
    fn registry_equals_benchmark_json() {
        let doc = declared();
        let workloads = field(&doc, "workloads").as_arr().expect("workload list");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| field(w, "name").as_str().expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        check(field(&doc, "end_to_end"), &END_TO_END);
        check(field(&doc, "per_layer"), &PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_per_layer_metrics_name_their_target() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }
}
