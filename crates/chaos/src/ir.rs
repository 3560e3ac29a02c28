//! Structural IR mutators.
//!
//! These model corruption *between* the parser and the allocator: a
//! structurally damaged kernel object (from a buggy front-end pass, say).
//! The contract is that `rfh_isa::validate` — and therefore
//! `rfh_alloc::allocate` — either rejects the kernel with a structured
//! error or the kernel is genuinely valid, in which case allocation and
//! hierarchy-mode execution must preserve its (new) semantics
//! exactly.

use rfh_isa::{BlockId, Kernel};
use rfh_testkit::prelude::*;

/// Applies 1–2 random structural corruptions to `kernel` in place.
pub fn mutate_kernel(kernel: &mut Kernel, rng: &mut SmallRng) {
    let rounds = rng.gen_range(1usize..=2);
    for _ in 0..rounds {
        mutate_once(kernel, rng);
    }
}

/// Picks a uniformly random instruction position, or `None` for an empty
/// kernel.
fn pick_instr(kernel: &Kernel, rng: &mut SmallRng) -> Option<(usize, usize)> {
    let total = kernel.instr_count();
    if total == 0 {
        return None;
    }
    let mut n = rng.gen_range(0..total);
    for (b, block) in kernel.blocks.iter().enumerate() {
        if n < block.instrs.len() {
            return Some((b, n));
        }
        n -= block.instrs.len();
    }
    None
}

fn mutate_once(kernel: &mut Kernel, rng: &mut SmallRng) {
    let Some((b, i)) = pick_instr(kernel, rng) else {
        return;
    };
    match rng.gen_range(0u32..5) {
        // Drop an instruction (may remove a terminator or a definition
        // another instruction depends on).
        0 => {
            kernel.blocks[b].instrs.remove(i);
        }
        // Duplicate an instruction in place (duplicated terminators put
        // code after an `exit`/`bra`; duplicated ALU ops are often
        // harmless).
        1 => {
            let instr = kernel.blocks[b].instrs[i].clone();
            kernel.blocks[b].instrs.insert(i, instr);
        }
        // Retarget a branch to a random block — occasionally out of
        // range, which validation must reject rather than index past the
        // block list.
        2 => {
            let n_blocks = kernel.blocks.len() as u32;
            let branches: Vec<(usize, usize)> = kernel
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(bb, blk)| {
                    blk.instrs
                        .iter()
                        .enumerate()
                        .filter(|(_, ins)| ins.target.is_some())
                        .map(move |(ii, _)| (bb, ii))
                })
                .collect();
            if let Some(&(bb, ii)) = branches.get(rng.gen_range(0..branches.len().max(1))) {
                let t = rng.gen_range(0..n_blocks + 2);
                kernel.blocks[bb].instrs[ii].target = Some(BlockId::new(t));
            }
        }
        // Swap the first two source operands (annotation arrays stay
        // parallel, so this is structurally valid but semantically
        // different for non-commutative ops).
        3 => {
            let instr = &mut kernel.blocks[b].instrs[i];
            if instr.srcs.len() >= 2 {
                instr.srcs.swap(0, 1);
            }
        }
        // Toggle a strand-end bit (stale strand markings from a buggy
        // pass; the allocator re-marks strands, so this must never change
        // results).
        _ => {
            let instr = &mut kernel.blocks[b].instrs[i];
            instr.ends_strand = !instr.ends_strand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_deterministic_and_usually_changes_the_kernel() {
        let kernel = rfh_isa::parse_kernel(
            ".kernel t\nBB0:\n  mov r0, %tid.x\n  iadd r1 r0, 1\n  st.global r0, r1\n  exit\n",
        )
        .unwrap();
        let mut changed = 0;
        for seed in 0..50u64 {
            let mut a = kernel.clone();
            let mut b = kernel.clone();
            mutate_kernel(&mut a, &mut SmallRng::seed_from_u64(seed));
            mutate_kernel(&mut b, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed} not deterministic");
            if a != kernel {
                changed += 1;
            }
        }
        assert!(changed > 30, "only {changed}/50 mutants differed");
    }
}
