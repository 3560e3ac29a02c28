//! Workload registry.

use crate::spec::{Suite, Workload, WorkloadEntry};
use crate::suites;

/// Every workload's name and constructor, across the three suites in
/// suite order: the one list of workload names.
fn table() -> impl Iterator<Item = &'static WorkloadEntry> {
    suites::sdk::WORKLOADS
        .iter()
        .chain(suites::parboil::WORKLOADS)
        .chain(suites::rodinia::WORKLOADS)
}

/// All workloads across the three suites, in suite order.
pub fn all() -> Vec<Workload> {
    table().map(|(_, build)| build()).collect()
}

/// The workloads of one suite.
pub fn suite_of(suite: Suite) -> Vec<Workload> {
    all().into_iter().filter(|w| w.suite == suite).collect()
}

/// Looks up a workload by its lower-case name, building only that one.
pub fn by_name(name: &str) -> Option<Workload> {
    table().find(|(n, _)| *n == name).map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let ws = all();
        assert!(
            ws.len() >= 15,
            "expected a substantial suite, got {}",
            ws.len()
        );
        let mut names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate workload names");
        for s in Suite::ALL {
            assert!(!suite_of(s).is_empty(), "{s} suite is empty");
        }
    }

    #[test]
    fn table_names_are_the_built_names() {
        for (name, build) in table() {
            assert_eq!(*name, build().name);
        }
    }

    #[test]
    fn by_name_round_trips() {
        for w in all() {
            let found = by_name(&w.name).unwrap();
            assert_eq!(found.suite, w.suite);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn kernels_are_valid_and_sized_sanely() {
        for w in all() {
            rfh_isa::validate(&w.kernel).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(w.kernel.instr_count() >= 8, "{} too trivial", w.name);
            assert!(
                w.launch.total_threads() >= 256,
                "{} too few threads",
                w.name
            );
            assert!(
                w.kernel.num_regs() <= 32,
                "{} exceeds the 32 registers/thread budget",
                w.name
            );
        }
    }
}

#[cfg(test)]
mod execution_tests {
    use super::*;
    use rfh_sim::exec::ExecMode;
    use rfh_sim::sink::NullSink;

    #[test]
    fn every_workload_verifies_against_its_reference() {
        for w in all() {
            let mut sink = NullSink;
            w.run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut sink])
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn every_workload_verifies_after_allocation() {
        // The end-to-end proof: every read the compile-time placements
        // route finds its current definition (upper levels poisoned at
        // strand boundaries), and the results still match the host
        // reference, for several hierarchy shapes.
        let model = rfh_energy::EnergyModel::paper();
        for cfg in [
            rfh_alloc::AllocConfig::two_level(3),
            rfh_alloc::AllocConfig::three_level(3, true),
            rfh_alloc::AllocConfig::three_level(1, false),
        ] {
            for w in all() {
                let mut kernel = w.kernel.clone();
                rfh_alloc::allocate(&mut kernel, &cfg, &model).unwrap();
                let mut sink = NullSink;
                w.run_and_verify(ExecMode::Hierarchy(cfg), &kernel, &mut [&mut sink])
                    .unwrap_or_else(|e| panic!("{cfg}: {e}"));
            }
        }
    }
}
