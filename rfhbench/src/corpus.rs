//! Kernel inputs shared by the workloads and the per-layer pass: the 35
//! suite workloads, seeded generated kernels, and one-immediate edits.

use rfh::alloc::AllocConfig;
use rfh::isa::{Kernel, Operand};
use rfh::sim::exec::Launch;
use rfh::sim::mem::GlobalMemory;
use rfh::workloads::generator::{random_program, GenConfig};
use rfh::workloads::spec::VerifyFn;
use rfh_testkit::rng::{Rng, SmallRng};

/// The allocation configuration every workload compiles with: the paper's
/// best design, three ORF entries and a split LRF.
pub const CONFIG: AllocConfig = AllocConfig::three_level(3, true);

/// One kernel with everything needed to compile, lint and run it.
#[derive(Clone)]
pub struct Case {
    /// Workload name, or `gen<seed>` for a generated kernel.
    pub name: String,
    /// The unallocated kernel as assembly text.
    pub text: String,
    /// The unallocated kernel.
    pub kernel: Kernel,
    /// Launch geometry.
    pub launch: Launch,
    /// Initial global memory.
    pub memory: GlobalMemory,
    /// Host reference check, for suite workloads.
    pub verify: Option<VerifyFn>,
}

/// The 35 suite workloads.
pub fn suite() -> Vec<Case> {
    rfh::workloads::all()
        .into_iter()
        .map(|w| Case {
            text: rfh::isa::printer::print_kernel(&w.kernel),
            name: w.name,
            kernel: w.kernel,
            launch: w.launch,
            memory: w.memory,
            verify: Some(w.verify),
        })
        .collect()
}

/// A generated kernel with `segments` code segments.
pub fn generated(seed: u64, segments: usize, run_len: usize, pool: u16) -> Case {
    let cfg = GenConfig {
        segments,
        run_len,
        max_trips: 5,
        pool,
    };
    let (kernel, launch, memory) = random_program(seed, cfg);
    Case {
        name: kernel.name.clone(),
        text: rfh::isa::printer::print_kernel(&kernel),
        kernel,
        launch,
        memory,
        verify: None,
    }
}

/// `kernel` with one integer immediate, drawn by `rng`, incremented: the
/// smallest edit, which changes exactly one strand. `None` when the
/// kernel has no integer immediate.
pub fn edit_one_immediate(kernel: &Kernel, rng: &mut SmallRng) -> Option<Kernel> {
    let count = kernel
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .flat_map(|i| &i.srcs)
        .filter(|s| matches!(s, Operand::Imm(_)))
        .count();
    if count == 0 {
        return None;
    }
    let pick = rng.gen_range(0..count);
    let mut edited = kernel.clone();
    let imm = edited
        .blocks
        .iter_mut()
        .flat_map(|b| &mut b.instrs)
        .flat_map(|i| &mut i.srcs)
        .filter_map(|s| match s {
            Operand::Imm(v) => Some(v),
            _ => None,
        })
        .nth(pick)?;
    *imm = imm.wrapping_add(1);
    Some(edited)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_testkit::rng::SeedableRng;

    #[test]
    fn an_edit_changes_one_immediate_and_stays_valid() {
        let case = generated(3, 16, 6, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        let edited = edit_one_immediate(&case.kernel, &mut rng).expect("has immediates");
        rfh::isa::validate(&edited).expect("still valid");
        let text = rfh::isa::printer::print_kernel(&edited);
        let changed = case
            .text
            .lines()
            .zip(text.lines())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 1);
    }
}
