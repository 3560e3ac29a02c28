//! Property: RFH-L005 across barrier intervals agrees with a brute-force
//! reference on generated kernels with `bar`s inserted at random
//! non-terminator positions.
//!
//! The generator emits no barriers, so without the inserted ones every
//! kernel is one barrier interval. With them, a colliding pair can recur
//! in several intervals and must still be reported once. The reference
//! follows the rule in the `race` module doc, written out directly:
//!
//! * barrier intervals are walked instruction by instruction from the
//!   kernel entry and from the position after every reachable `bar`;
//! * every generated shared access indexes through a fresh `and` mask,
//!   which the affine resolver cannot express, so each access gets an
//!   "unverifiable index" note and any two accesses with a store collide
//!   unless their abstract address intervals are disjoint (a store always
//!   collides with itself);
//! * each unordered colliding pair is reported once, anchored at the
//!   earlier store, or at the store of a store-load pair, with the exact
//!   message text;
//! * the findings come out in the lint's order: program order, then
//!   message.
//!
//! `RFH_LINT_PROP_CASES` scales the seed budget.

use std::collections::{BTreeMap, BTreeSet};

use rfh_analysis::absint::{self, AbsCtx};
use rfh_analysis::strand::mark_strands;
use rfh_isa::{ops, InstrRef, Kernel, Opcode, Operand, Space};
use rfh_lint::{lint_kernel, Code, LintOptions, Severity};
use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};
use rfh_workloads::generator::{random_program, GenConfig};

/// One expected or reported RFH-L005 finding.
type Finding = (u32, Option<usize>, Severity, String);

/// Inserts 1 to 4 `bar`s, each before some block's last instruction, so
/// every terminator stays last.
fn insert_barriers(kernel: &mut Kernel, rng: &mut SmallRng) {
    for _ in 0..rng.gen_range(1..=4usize) {
        let b = rng.gen_range(0..kernel.blocks.len());
        let last = kernel.blocks[b].instrs.len() - 1;
        let at = rng.gen_range(0..=last);
        kernel.blocks[b].instrs.insert(at, ops::bar());
    }
}

/// Blocks reachable from the entry.
fn reachable_blocks(kernel: &Kernel) -> Vec<bool> {
    let mut seen = vec![false; kernel.blocks.len()];
    let mut work = vec![kernel.entry()];
    while let Some(b) = work.pop() {
        if !std::mem::replace(&mut seen[b.index()], true) {
            work.extend(kernel.successors(b));
        }
    }
    seen
}

/// The positions an instruction-by-instruction walk reaches from `start`
/// without executing a `bar`.
fn interval(kernel: &Kernel, start: InstrRef) -> BTreeSet<InstrRef> {
    let mut seen = BTreeSet::new();
    let mut work = vec![start];
    while let Some(at) = work.pop() {
        if kernel.instr(at).op.is_barrier() || !seen.insert(at) {
            continue;
        }
        if at.index + 1 < kernel.block(at.block).instrs.len() {
            work.push(InstrRef {
                block: at.block,
                index: at.index + 1,
            });
        } else {
            for s in kernel.successors(at.block) {
                work.push(InstrRef { block: s, index: 0 });
            }
        }
    }
    seen
}

/// The reference RFH-L005 findings, in the lint's order, and the number
/// of colliding pairs found in more than one interval.
fn reference(kernel: &Kernel) -> (Vec<Finding>, usize) {
    let reachable = reachable_blocks(kernel);
    let mut marked = kernel.clone();
    mark_strands(&mut marked);
    let facts = absint::analyze(&marked, AbsCtx::default());

    let mut accesses = BTreeMap::new();
    for (at, i) in kernel.iter_instrs() {
        let is_store = match i.op {
            Opcode::Ld(Space::Shared) => false,
            Opcode::St(Space::Shared) => true,
            _ => continue,
        };
        if !reachable[at.block.index()] {
            continue;
        }
        // The generator's masked addressing, which the resolver cannot
        // express: the address is defined by `and addr, x, mask` earlier
        // in the block (an inserted `bar` may sit in between).
        let Some(Operand::Reg(addr)) = i.srcs.first() else {
            panic!("{at}: shared access without a register address");
        };
        let def = kernel.block(at.block).instrs[..at.index]
            .iter()
            .rev()
            .find(|d| d.def_regs().any(|r| r == *addr));
        assert!(
            def.is_some_and(|d| d.op == Opcode::And),
            "{at}: address not masked in the access's block"
        );
        accesses.insert(at, is_store);
    }

    let range = |at: InstrRef| {
        let iv = facts.fact(at).srcs[0];
        (iv.lo, iv.hi)
    };
    let mut starts = vec![InstrRef {
        block: kernel.entry(),
        index: 0,
    }];
    for (at, i) in kernel.iter_instrs() {
        if !i.op.is_barrier() || !reachable[at.block.index()] {
            continue;
        }
        if at.index + 1 < kernel.block(at.block).instrs.len() {
            starts.push(InstrRef {
                block: at.block,
                index: at.index + 1,
            });
        } else {
            for s in kernel.successors(at.block) {
                starts.push(InstrRef { block: s, index: 0 });
            }
        }
    }
    let mut seen_in: BTreeMap<(InstrRef, InstrRef), usize> = BTreeMap::new();
    for start in starts {
        let here: Vec<InstrRef> = interval(kernel, start)
            .into_iter()
            .filter(|at| accesses.contains_key(at))
            .collect();
        for (i, &a) in here.iter().enumerate() {
            for &b in &here[i..] {
                if !accesses[&a] && !accesses[&b] {
                    continue;
                }
                let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
                if a != b && (ahi < blo || bhi < alo) {
                    continue;
                }
                *seen_in.entry((a, b)).or_default() += 1;
            }
        }
    }

    let text = |at: InstrRef| kernel.instr(at).to_string();
    let mut findings: Vec<Finding> = Vec::new();
    for &at in accesses.keys() {
        let (lo, hi) = range(at);
        let narrowed = if lo != i32::MIN || hi != i32::MAX {
            format!(" (abstract word range [{lo}, {hi}])")
        } else {
            String::new()
        };
        findings.push((
            at.block.index() as u32,
            Some(at.index),
            Severity::Note,
            format!(
                "shared-memory access `{}` has an unverifiable (non-affine) index{narrowed}: \
                 the race analysis treats it as may-alias with every other shared access",
                text(at)
            ),
        ));
    }
    for &(a, b) in seen_in.keys() {
        let (store, other) = if accesses[&a] { (a, b) } else { (b, a) };
        let message = if a == b {
            format!(
                "shared-memory store `{}` may race with itself across threads \
                 (address not provably thread-private, no intervening barrier)",
                text(store)
            )
        } else {
            format!(
                "shared-memory store `{}` may race with the access `{}` at {other} \
                 (no intervening barrier proves the threads disjoint)",
                text(store),
                text(other)
            )
        };
        findings.push((
            store.block.index() as u32,
            Some(store.index),
            Severity::Warning,
            message,
        ));
    }
    findings.sort_by(|x, y| (x.0, x.1, &x.3).cmp(&(y.0, y.1, &y.3)));
    let recurring = seen_in.values().filter(|&&n| n > 1).count();
    (findings, recurring)
}

#[test]
fn race_findings_across_barrier_intervals_match_the_reference() {
    let cases = rfh_testkit::env::positive_usize_knob("RFH_LINT_PROP_CASES").unwrap_or(60);
    let options = LintOptions::default();
    let mut rng = SmallRng::seed_from_u64(5);
    let (mut warnings, mut recurring) = (0, 0);
    for seed in 0..cases as u64 {
        let cfg = GenConfig {
            segments: [6, 12, 24][seed as usize % 3],
            ..GenConfig::default()
        };
        let (mut kernel, _, _) = random_program(seed, cfg);
        insert_barriers(&mut kernel, &mut rng);
        rfh_isa::validate(&kernel).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let got: Vec<Finding> = lint_kernel(&kernel, &options)
            .into_iter()
            .filter(|d| d.code == Code::SharedRace)
            .map(|d| (d.block.index() as u32, d.instr, d.severity, d.message))
            .collect();
        let (want, pairs_recurring) = reference(&kernel);
        assert_eq!(got, want, "seed {seed}: RFH-L005 findings differ");
        warnings += got.iter().filter(|f| f.2 == Severity::Warning).count();
        recurring += pairs_recurring;
    }
    // The property is only as strong as its inputs: races must be found,
    // and some of them in more than one barrier interval.
    assert!(warnings > 0, "no race warnings in {cases} cases");
    assert!(recurring > 0, "no pair recurs across barrier intervals");
}
