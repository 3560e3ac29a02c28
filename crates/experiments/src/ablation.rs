//! Ablations of the design choices DESIGN.md calls out.
//!
//! Each row removes or swaps one mechanism of the best configuration
//! (3-entry ORF, split LRF, partial ranges + read operands, Figure 7
//! savings-per-slot priority) and reports the normalized energy:
//!
//! * the §4.3/§4.4 allocation optimizations, individually and together;
//! * split vs unified vs no LRF (§3.2 / §6.3);
//! * Figure 7's savings-per-occupied-slot priority vs raw savings;
//! * the HW cache's allocation policy (write-allocate per §2.2 vs also
//!   allocating read misses).

use rfh_alloc::AllocConfig;
use rfh_sim::rfc::RfcConfig;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{norm, pct, Table};
use crate::runner::{mean, normalized_energy};

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What was changed relative to the best configuration.
    pub name: String,
    /// Mean normalized energy across workloads.
    pub energy: f64,
}

/// Runs the ablation matrix. The SW (variant × workload) cells run in
/// parallel over the `RFH_JOBS` pool, and both HW variants of a workload
/// come from one batched execution; the best configuration and the HW
/// baseline come from the shared context cache.
///
/// # Panics
///
/// Panics if any workload fails to execute or verify.
pub fn run(ctx: &ExperimentCtx) -> Vec<AblationRow> {
    let n = ctx.workloads().len();
    let best = AllocConfig::three_level(3, true);

    let sw_variants: Vec<(&str, AllocConfig)> = vec![
        ("best (split LRF, both opts, Fig.7 priority)", best),
        (
            "no partial ranges",
            AllocConfig {
                partial_ranges: false,
                ..best
            },
        ),
        (
            "no read operands",
            AllocConfig {
                read_operands: false,
                ..best
            },
        ),
        (
            "neither optimization",
            AllocConfig {
                partial_ranges: false,
                read_operands: false,
                ..best
            },
        ),
        ("unified LRF", AllocConfig::three_level(3, false)),
        ("no LRF (two-level)", AllocConfig::two_level(3)),
        (
            "raw-savings priority",
            AllocConfig {
                occupancy_priority: false,
                ..best
            },
        ),
    ];

    let hw_variants: Vec<(&str, RfcConfig)> = vec![
        ("HW RFC(6), write-allocate (§2.2)", RfcConfig::two_level(6)),
        (
            "HW RFC(6), also allocate read misses",
            RfcConfig {
                allocate_on_read_miss: true,
                ..RfcConfig::two_level(6)
            },
        ),
    ];

    let idx: Vec<usize> = (0..n).collect();
    let hw_cfgs: Vec<RfcConfig> = hw_variants.iter().map(|&(_, cfg)| cfg).collect();
    let hw_energies: Vec<Vec<f64>> = par_map(&idx, |&i| {
        let base = ctx.baseline(i);
        ctx.hw_counts_many(i, &hw_cfgs)
            .iter()
            .map(|c| normalized_energy(c, &base, ctx.model(), 6))
            .collect()
    });
    let cells: Vec<(AllocConfig, usize)> = sw_variants
        .iter()
        .flat_map(|&(_, cfg)| (0..n).map(move |i| (cfg, i)))
        .collect();
    let sw_energies: Vec<f64> = par_map(&cells, |&(cfg, i)| ctx.sw_normalized(i, &cfg));
    let sw_rows = sw_variants
        .iter()
        .zip(sw_energies.chunks(n))
        .map(|(&(name, _), per_variant)| AblationRow {
            name: name.into(),
            energy: mean(per_variant),
        });
    let hw_rows = hw_variants
        .iter()
        .enumerate()
        .map(|(v, &(name, _))| AblationRow {
            name: name.into(),
            energy: mean(&hw_energies.iter().map(|e| e[v]).collect::<Vec<_>>()),
        });
    sw_rows.chain(hw_rows).collect()
}

/// Renders the ablation table, with deltas against the best configuration.
pub fn print(rows: &[AblationRow]) -> String {
    let best = rows.first().map(|r| r.energy).unwrap_or(1.0);
    let mut t = Table::new(&["variant", "normalized energy", "Δ vs best"]);
    for r in rows {
        t.row(&[r.name.clone(), norm(r.energy), pct(r.energy - best)]);
    }
    format!("Ablations of the best configuration\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_mechanisms_never_helps() {
        let workloads: Vec<rfh_workloads::Workload> =
            ["matrixmul", "mandelbrot", "dct8x8", "cp", "needle"]
                .iter()
                .map(|n| rfh_workloads::by_name(n).unwrap())
                .collect();
        let rows = run(&ExperimentCtx::new(&workloads));
        let best = rows[0].energy;
        // Partial ranges can very slightly hurt (the §4.3 greedy
        // sub-optimality the paper acknowledges); everything else must
        // not beat the full design by more than noise.
        for r in &rows[1..7] {
            assert!(
                r.energy >= best - 0.005,
                "{} ({}) beat the full design ({best})",
                r.name,
                r.energy
            );
        }
        // Read operands and the LRF are the load-bearing mechanisms.
        let no_ro = rows
            .iter()
            .find(|r| r.name.contains("read operands"))
            .unwrap();
        assert!(no_ro.energy > best + 0.005);
        let no_lrf = rows.iter().find(|r| r.name.contains("two-level")).unwrap();
        assert!(no_lrf.energy > best + 0.01);
    }
}
