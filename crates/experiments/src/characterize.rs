//! Workload characterization: the benchmark-property table papers print
//! next to Table 1 — dynamic instruction counts, instruction mix, register
//! demand, strand structure, and divergence.
//! Every count is a per-warp sum over the context's recorded baseline
//! stream: the mix and the strand ends weigh each static instruction by
//! how often it issued, and divergence counts the stream's partial-mask
//! steps. Nothing is replayed.

use rfh_isa::Unit;
use rfh_testkit::pool::par_map;

use crate::ctx::ExperimentCtx;
use crate::report::{pct, Table};

/// Dynamic characteristics of one workload.
#[derive(Debug, Clone)]
pub struct Character {
    /// Workload name.
    pub name: String,
    /// Suite label.
    pub suite: String,
    /// Dynamic warp instructions.
    pub warp_instructions: u64,
    /// Fraction issued to the private ALU.
    pub alu_frac: f64,
    /// Fraction on the memory port.
    pub mem_frac: f64,
    /// Fraction on the SFU.
    pub sfu_frac: f64,
    /// Fraction on the texture unit.
    pub tex_frac: f64,
    /// Fraction of warp instructions issued with a partial active mask.
    pub divergent_frac: f64,
    /// Registers per thread (static demand).
    pub registers: u16,
    /// Static strand count.
    pub strands: usize,
    /// Mean dynamic strand length in instructions (distance between
    /// strand-end bits along the issued stream).
    pub mean_strand_len: f64,
}

/// Characterizes every workload, fanning the workloads out over the
/// `RFH_JOBS` pool.
///
/// # Panics
///
/// Panics if a workload's recorded baseline run fails or mismatches its
/// host reference.
pub fn run(ctx: &ExperimentCtx) -> Vec<Character> {
    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    par_map(&idx, |&i| {
        let w = &ctx.workloads()[i];
        let info = rfh_analysis::strand::mark_strands(&w.kernel);
        let issues = ctx.issue_counts(i);
        let [mut alu, mut mem, mut sfu, mut tex, mut strand_ends] = [0u64; 5];
        let static_instrs = w.kernel.iter_instrs().zip(issues).zip(info.end_bits());
        for (((_, instr), &n), &ends) in static_instrs {
            match instr.op.unit() {
                Unit::Alu => alu += n,
                Unit::Mem => mem += n,
                Unit::Sfu => sfu += n,
                Unit::Tex => tex += n,
                Unit::Control => {}
            }
            if ends {
                strand_ends += n;
            }
        }
        let total: u64 = issues.iter().sum();
        let t = total.max(1) as f64;
        Character {
            name: w.name.clone(),
            suite: w.suite.to_string(),
            warp_instructions: total,
            alu_frac: alu as f64 / t,
            mem_frac: mem as f64 / t,
            sfu_frac: sfu as f64 / t,
            tex_frac: tex as f64 / t,
            divergent_frac: ctx.stream(i).divergent_instructions() as f64 / t,
            registers: w.kernel.num_regs(),
            strands: info.strands.len(),
            mean_strand_len: total as f64 / strand_ends.max(1) as f64,
        }
    })
}

/// Renders the characterization table.
pub fn print(rows: &[Character]) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "suite",
        "warp instrs",
        "ALU",
        "MEM",
        "SFU",
        "TEX",
        "divergent",
        "regs",
        "strands",
        "instrs/strand",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.suite.clone(),
            r.warp_instructions.to_string(),
            pct(r.alu_frac),
            pct(r.mem_frac),
            pct(r.sfu_frac),
            pct(r.tex_frac),
            pct(r.divergent_frac),
            r.registers.to_string(),
            r.strands.to_string(),
            format!("{:.1}", r.mean_strand_len),
        ]);
    }
    format!("Workload characterization\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_consistent() {
        let ws: Vec<rfh_workloads::Workload> =
            ["mandelbrot", "mri-q", "sortingnetworks", "bicubictexture"]
                .iter()
                .map(|n| rfh_workloads::by_name(n).unwrap())
                .collect();
        let rows = run(&ExperimentCtx::new(&ws));
        for r in &rows {
            let sum = r.alu_frac + r.mem_frac + r.sfu_frac + r.tex_frac;
            assert!(sum <= 1.0 + 1e-9, "{}: {sum}", r.name);
            assert!(r.warp_instructions > 0);
            assert!(r.registers <= 32);
            assert!(r.mean_strand_len >= 1.0);
        }
        let mandel = rows.iter().find(|r| r.name == "mandelbrot").unwrap();
        assert!(mandel.divergent_frac > 0.1, "mandelbrot diverges");
        let mri = rows.iter().find(|r| r.name == "mri-q").unwrap();
        assert!(mri.sfu_frac > 0.05, "mri-q is SFU-heavy");
        let sorting = rows.iter().find(|r| r.name == "sortingnetworks").unwrap();
        assert!(sorting.alu_frac > 0.7, "sorting networks are ALU-dense");
        let tex = rows.iter().find(|r| r.name == "bicubictexture").unwrap();
        assert!(tex.tex_frac > 0.05, "bicubic uses the texture unit");
    }
}
