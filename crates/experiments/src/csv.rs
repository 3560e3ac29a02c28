//! CSV serialization of experiment results, for downstream plotting.

use crate::{ablation, characterize, fig11, fig12, fig13, fig14, fig15, fig2, hints, limit, perf};

fn line(cells: &[String]) -> String {
    cells.join(",") + "\n"
}

/// Figure 2 as CSV (one row per suite, both panels).
pub fn fig2_csv(rows: &[fig2::SuiteUsage]) -> String {
    let mut out = line(&[
        "suite".into(),
        "read0".into(),
        "read1".into(),
        "read2".into(),
        "read_more".into(),
        "life1".into(),
        "life2".into(),
        "life3".into(),
        "life_more".into(),
        "read_once_within3".into(),
    ]);
    for r in rows {
        out += &line(&[
            r.suite.to_string(),
            r.read_fracs[0].to_string(),
            r.read_fracs[1].to_string(),
            r.read_fracs[2].to_string(),
            r.read_fracs[3].to_string(),
            r.life_fracs[0].to_string(),
            r.life_fracs[1].to_string(),
            r.life_fracs[2].to_string(),
            r.life_fracs[3].to_string(),
            r.read_once_within3.to_string(),
        ]);
    }
    out
}

/// Figure 11 as CSV.
pub fn fig11_csv(f: &fig11::Fig11) -> String {
    let mut out = line(&[
        "entries".into(),
        "hw_upper_reads".into(),
        "hw_mrf_reads".into(),
        "sw_upper_reads".into(),
        "sw_mrf_reads".into(),
        "hw_upper_writes".into(),
        "hw_mrf_writes".into(),
        "sw_upper_writes".into(),
        "sw_mrf_writes".into(),
    ]);
    for (h, s) in f.hw.iter().zip(&f.sw) {
        out += &line(&[
            h.entries.to_string(),
            h.upper_reads.to_string(),
            h.mrf_reads.to_string(),
            s.upper_reads.to_string(),
            s.mrf_reads.to_string(),
            h.upper_writes.to_string(),
            h.mrf_writes.to_string(),
            s.upper_writes.to_string(),
            s.mrf_writes.to_string(),
        ]);
    }
    out
}

/// Figure 12 as CSV.
pub fn fig12_csv(f: &fig12::Fig12) -> String {
    let mut out = line(&[
        "entries".into(),
        "scheme".into(),
        "lrf_reads".into(),
        "orf_reads".into(),
        "mrf_reads".into(),
        "lrf_writes".into(),
        "orf_writes".into(),
        "mrf_writes".into(),
    ]);
    for (scheme, rows) in [("hw", &f.hw), ("sw", &f.sw)] {
        for r in rows {
            out += &line(&[
                r.entries.to_string(),
                scheme.into(),
                r.lrf_reads.to_string(),
                r.orf_reads.to_string(),
                r.mrf_reads.to_string(),
                r.lrf_writes.to_string(),
                r.orf_writes.to_string(),
                r.mrf_writes.to_string(),
            ]);
        }
    }
    out
}

/// Figure 13 as CSV.
pub fn fig13_csv(f: &fig13::Fig13) -> String {
    let mut out = line(&[
        "entries".into(),
        "hw".into(),
        "hw_lrf".into(),
        "sw".into(),
        "sw_lrf_split".into(),
    ]);
    for p in &f.points {
        out += &line(&[
            p.entries.to_string(),
            p.hw.to_string(),
            p.hw_lrf.to_string(),
            p.sw.to_string(),
            p.sw_lrf_split.to_string(),
        ]);
    }
    out
}

/// Figure 14 as CSV.
pub fn fig14_csv(points: &[fig14::Fig14Point]) -> String {
    let mut out = line(&[
        "entries".into(),
        "mrf_wire".into(),
        "mrf_access".into(),
        "orf_wire".into(),
        "orf_access".into(),
        "lrf_wire".into(),
        "lrf_access".into(),
    ]);
    for p in points {
        let b = p.breakdown;
        out += &line(&[
            p.entries.to_string(),
            b.mrf_wire.to_string(),
            b.mrf_access.to_string(),
            b.orf_wire.to_string(),
            b.orf_access.to_string(),
            b.lrf_wire.to_string(),
            b.lrf_access.to_string(),
        ]);
    }
    out
}

/// Figure 15 as CSV.
pub fn fig15_csv(rows: &[fig15::BenchEnergy]) -> String {
    let mut out = line(&[
        "benchmark".into(),
        "suite".into(),
        "normalized_energy".into(),
    ]);
    for r in rows {
        out += &line(&[r.name.clone(), r.suite.clone(), r.energy.to_string()]);
    }
    out
}

/// Scheduler performance sweep as CSV.
pub fn perf_csv(points: &[perf::PerfPoint]) -> String {
    let mut out = line(&["active_warps".into(), "normalized_runtime".into()]);
    for p in points {
        out += &line(&[p.active_warps.to_string(), p.normalized_runtime.to_string()]);
    }
    out
}

/// Limit study as CSV.
pub fn limit_csv(l: &limit::LimitStudy) -> String {
    let mut out = line(&["experiment".into(), "normalized_energy".into()]);
    for (name, v) in [
        ("realistic", l.realistic),
        ("ideal_all_lrf", l.ideal_all_lrf),
        ("ideal_all_orf5", l.ideal_all_orf5),
        ("variable_orf", l.variable_orf),
        ("variable_orf_6warps", l.variable_orf_6warps),
        ("hw_flush_backedge", l.hw_flush_backedge),
        ("hw_keep_backedge", l.hw_keep_backedge),
        ("sched_8_at_3", l.sched_8_at_3),
        ("sched_5_at_3", l.sched_5_at_3),
        ("never_flush", l.never_flush),
    ] {
        out += &line(&[name.into(), v.to_string()]);
    }
    out
}

/// Ablations as CSV.
pub fn ablation_csv(rows: &[ablation::AblationRow]) -> String {
    let mut out = line(&["variant".into(), "normalized_energy".into()]);
    for r in rows {
        out += &line(&[r.name.replace(',', ";"), r.energy.to_string()]);
    }
    out
}

/// Last-use hints, off vs on, as CSV: every hierarchy access count and the
/// normalized energy of both allocations, one row per workload.
pub fn hints_csv(rows: &[hints::HintsRow]) -> String {
    let fields = [
        "mrf_read",
        "mrf_write",
        "orf_read_private",
        "orf_read_shared",
        "orf_write_private",
        "orf_write_shared",
        "lrf_read",
        "lrf_write",
        "energy",
    ];
    let mut header = vec!["benchmark".to_string()];
    for side in ["off", "on"] {
        header.extend(fields.iter().map(|f| format!("{f}_{side}")));
    }
    let mut out = line(&header);
    for r in rows {
        let mut cells = vec![r.name.clone()];
        for (c, energy) in [(&r.off, r.energy_off), (&r.on, r.energy_on)] {
            cells.extend(
                [
                    c.mrf_read,
                    c.mrf_write,
                    c.orf_read_private,
                    c.orf_read_shared,
                    c.orf_write_private,
                    c.orf_write_shared,
                    c.lrf_read,
                    c.lrf_write,
                ]
                .map(|n| n.to_string()),
            );
            cells.push(energy.to_string());
        }
        out += &line(&cells);
    }
    out
}

/// Characterization as CSV.
pub fn characterize_csv(rows: &[characterize::Character]) -> String {
    let mut out = line(&[
        "benchmark".into(),
        "suite".into(),
        "warp_instructions".into(),
        "alu".into(),
        "mem".into(),
        "sfu".into(),
        "tex".into(),
        "divergent".into(),
        "registers".into(),
        "strands".into(),
        "instrs_per_strand".into(),
    ]);
    for r in rows {
        out += &line(&[
            r.name.clone(),
            r.suite.clone(),
            r.warp_instructions.to_string(),
            r.alu_frac.to_string(),
            r.mem_frac.to_string(),
            r.sfu_frac.to_string(),
            r.tex_frac.to_string(),
            r.divergent_frac.to_string(),
            r.registers.to_string(),
            r.strands.to_string(),
            r.mean_strand_len.to_string(),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shapes_are_rectangular() {
        let ws: Vec<rfh_workloads::Workload> = ["vectoradd", "needle"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect();
        let ctx = crate::ExperimentCtx::new(&ws);
        let f13 = fig13::run(&ctx);
        let csv = fig13_csv(&f13);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 9, "header + 8 entries");
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));

        let rows = characterize::run(&ctx);
        let csv = characterize_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
    }
}
