//! Shared machinery: run workloads under a configuration and count
//! hierarchy accesses, verifying every run against the host reference.

use rfh_alloc::AllocConfig;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::Kernel;
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::ExecMode;
use rfh_sim::rfc::{HwCounter, RfcConfig};
use rfh_workloads::Workload;

/// Access counts of the single-level baseline (every operand in the MRF).
///
/// # Panics
///
/// Panics if the workload fails to execute or verify — that is a bug in
/// the toolchain, not a recoverable condition for an experiment.
pub fn baseline_counts(w: &Workload) -> AccessCounts {
    let mut counter = SwCounter::default();
    w.run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut counter])
        .unwrap_or_else(|e| panic!("baseline run failed: {e}"));
    counter.counts()
}

/// Allocates the workload's kernel under `cfg` and counts accesses with
/// hierarchy-faithful execution (operands actually flow through the
/// modeled ORF/LRF and the run is verified end-to-end).
///
/// [`ExperimentCtx`](crate::ExperimentCtx) replays its SW cells instead
/// of executing them; this is the execution oracle those replays are
/// tested against.
///
/// # Panics
///
/// As for [`baseline_counts`].
pub fn sw_counts(w: &Workload, cfg: &AllocConfig, model: &EnergyModel) -> AccessCounts {
    let mut kernel = w.kernel.clone();
    rfh_alloc::allocate(&mut kernel, cfg, model)
        .unwrap_or_else(|e| panic!("allocation failed: {e}"));
    let mut counter = SwCounter::default();
    w.run_and_verify(ExecMode::Hierarchy(*cfg), &kernel, &mut [&mut counter])
        .unwrap_or_else(|e| panic!("sw run failed: {e}"));
    counter.counts()
}

/// A copy of `kernel` carrying the static-liveness (`dead_after`)
/// annotations the hardware cache scheme requires.
pub(crate) fn dead_annotated(kernel: &Kernel) -> Kernel {
    let mut kernel = kernel.clone();
    let lv = rfh_analysis::Liveness::compute(&kernel);
    rfh_analysis::liveness::annotate_dead(&mut kernel, &lv);
    kernel
}

/// Counts accesses under the hardware-managed cache baseline (with the
/// static-liveness annotations the HW scheme requires), from one verified
/// baseline-mode execution.
///
/// [`ExperimentCtx`](crate::ExperimentCtx) replays its HW cells instead
/// of executing them; this is the execution oracle those replays are
/// tested against.
///
/// # Panics
///
/// As for [`baseline_counts`].
pub fn hw_counts(w: &Workload, cfg: &RfcConfig) -> AccessCounts {
    let kernel = dead_annotated(&w.kernel);
    let mut counter = HwCounter::new(*cfg, &kernel);
    w.run_and_verify(ExecMode::Baseline, &kernel, &mut [&mut counter])
        .unwrap_or_else(|e| panic!("hw run failed: {e}"));
    counter.counts()
}

/// Per-benchmark normalized energy: `energy(scheme) / energy(baseline)`.
///
/// # Panics
///
/// Panics if `orf_entries` is outside the energy model's ORF table
/// (1–8 for the paper's Table 3). This surfaces
/// [`EnergyModel::orf_access`]'s contract instead of silently clamping
/// an out-of-range configuration onto the nearest table row, which would
/// misprice it without any indication.
pub fn normalized_energy(
    counts: &AccessCounts,
    base: &AccessCounts,
    model: &EnergyModel,
    orf_entries: usize,
) -> f64 {
    let e = model.energy(counts, orf_entries).total();
    let b = model
        .baseline_energy(base.total_reads(), base.total_writes())
        .total();
    e / b
}

/// Arithmetic mean over per-benchmark normalized values (the paper reports
/// averages over its benchmark set).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        rfh_workloads::by_name("vectoradd").unwrap()
    }

    #[test]
    fn baseline_counts_are_all_mrf() {
        let c = baseline_counts(&small());
        assert!(c.mrf_read > 0);
        assert_eq!(c.orf_read_private + c.orf_read_shared + c.lrf_read, 0);
    }

    #[test]
    fn sw_counts_preserve_read_totals() {
        let model = EnergyModel::paper();
        let w = small();
        let base = baseline_counts(&w);
        let sw = sw_counts(&w, &AllocConfig::three_level(3, true), &model);
        assert_eq!(
            sw.total_reads(),
            base.total_reads(),
            "SW adds no overhead reads"
        );
        assert!(sw.mrf_read < base.mrf_read);
    }

    #[test]
    fn hw_counts_add_writeback_reads() {
        let w = rfh_workloads::by_name("scalarprod").unwrap();
        let base = baseline_counts(&w);
        let hw = hw_counts(&w, &RfcConfig::two_level(6));
        assert!(
            hw.total_reads() >= base.total_reads(),
            "RFC writebacks add reads"
        );
    }

    #[test]
    fn normalized_energy_below_one_for_sw() {
        let model = EnergyModel::paper();
        let w = small();
        let base = baseline_counts(&w);
        let sw = sw_counts(&w, &AllocConfig::three_level(3, true), &model);
        let n = normalized_energy(&sw, &base, &model, 3);
        assert!(n < 1.0 && n > 0.1, "normalized = {n}");
    }

    #[test]
    #[should_panic(expected = "ORF size out of range")]
    fn normalized_energy_rejects_oversized_orf() {
        // Regression: this used to clamp 9 down to 8 and silently price
        // the configuration with the wrong Table 3 row.
        let model = EnergyModel::paper();
        let base = baseline_counts(&small());
        normalized_energy(&base, &base, &model, 9);
    }

    #[test]
    #[should_panic(expected = "ORF size out of range")]
    fn normalized_energy_rejects_zero_entries() {
        let model = EnergyModel::paper();
        let base = baseline_counts(&small());
        normalized_energy(&base, &base, &model, 0);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
