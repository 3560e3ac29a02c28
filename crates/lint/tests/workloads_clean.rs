//! Every registered workload lints with **zero errors** — before and
//! after allocation under the paper's best configuration. Warnings are
//! allowed (the `reduction` tree has unavoidably conservative race
//! findings, and several kernels legitimately exceed the upper-level
//! capacity), but an error on shipped-and-passing workload code would be
//! a false positive by construction: every workload also passes the
//! differential execution suite.

use rfh_lint::{lint_kernel, LintOptions, Severity};

#[test]
fn all_workloads_lint_without_errors() {
    let config = rfh_alloc::AllocConfig::default();
    let model = rfh_energy::EnergyModel::paper();
    let options = LintOptions {
        alloc: config,
        ..Default::default()
    };
    let workloads = rfh_workloads::all();
    assert!(workloads.len() >= 35, "workload registry shrank");

    for w in &workloads {
        let errors: Vec<_> = lint_kernel(&w.kernel, &options)
            .into_iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "workload {} lints with errors before allocation: {errors:?}",
            w.name
        );

        let mut allocated = w.kernel.clone();
        rfh_alloc::allocate(&mut allocated, &config, &model)
            .unwrap_or_else(|e| panic!("workload {} fails to allocate: {e}", w.name));
        let errors: Vec<_> = lint_kernel(&allocated, &options)
            .into_iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "workload {} lints with errors after allocation: {errors:?}",
            w.name
        );
    }
}

/// Lint's placement checks (RFH-L006/L007) report the placement
/// validator's own findings, so they must stay quiet on every allocation
/// the validator accepts: every workload, under every configuration the
/// figures sweep (1–8 ORF entries with no, split and unified LRF), with
/// last-use hints off and on. Hint allocation is what produces guarded
/// entries read under the same guard.
#[test]
fn placement_checks_accept_what_the_validator_accepts() {
    use rfh_alloc::{allocate_with_hints, validate_placements, AllocConfig, ORF_SIZES};
    use rfh_lint::Code;

    let model = rfh_energy::EnergyModel::paper();
    let configs = ORF_SIZES.flat_map(|e| {
        let three = |split| AllocConfig::three_level(e, split);
        [AllocConfig::two_level(e), three(true), three(false)]
    });
    let mut checked = 0;
    for w in &rfh_workloads::all() {
        for (config, hints) in configs.clone().flat_map(|c| [(c, false), (c, true)]) {
            let mut k = w.kernel.clone();
            allocate_with_hints(&mut k, &config, &model, hints).expect("allocation succeeds");
            if validate_placements(&k, &config).is_err() {
                continue;
            }
            checked += 1;
            let options = LintOptions {
                alloc: config,
                ..Default::default()
            };
            let placement: Vec<_> = lint_kernel(&k, &options)
                .into_iter()
                .filter(|d| matches!(d.code, Code::LrfMisuse | Code::OrfConflict))
                .collect();
            assert!(
                placement.is_empty(),
                "{} under {config:?}, hints {hints}: the validator accepts the placements \
                 but lint reports {placement:?}",
                w.name
            );
        }
    }
    assert!(checked > 0, "the validator accepted no allocation");
}
