//! RFH-L005 — statically detectable shared-memory races.
//!
//! Conservative, thread-index-offset based: every shared-memory address is
//! resolved to the affine form `coef * tid + off` where possible. Two
//! accesses in the same *barrier interval* (both reachable from one
//! synchronization point without crossing another `bar`), at least one of
//! them a store, race unless the address forms prove all threads stay
//! disjoint:
//!
//! * same nonzero `coef`, and `off` difference not a nonzero multiple of
//!   `coef` — each thread stays in its own lane;
//! * both uniform (`coef == 0`) at *different* offsets.
//!
//! Everything else — unresolvable addresses, mixed strides, a uniform
//! address written by every thread — is flagged. Guards are ignored
//! (predication that partitions threads across disjoint ranges is beyond
//! this analysis), so the check over-approximates: findings are warnings.
//!
//! Two abstract-interpretation refinements sharpen the check:
//!
//! * a colliding pair is **suppressed** when the two accesses' address
//!   intervals (from `rfh_analysis::absint`) are disjoint — no thread of
//!   one access can touch a word of the other, whatever the strides;
//! * every access whose index the affine resolver cannot express emits a
//!   note-severity "unverifiable index" finding, so a silent may-alias
//!   assumption is visible in the report.

use std::collections::HashMap;

use rfh_analysis::absint::AbsResults;
use rfh_analysis::DomTree;
use rfh_isa::{InstrRef, Kernel, Opcode, Operand, Reg, Space, Special};

use crate::diag::{Code, Diagnostic};

/// An address as an affine function of the thread index, if resolvable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Addr {
    Affine { coef: i64, off: i64 },
    Unknown,
}

const MAX_RESOLVE_DEPTH: usize = 16;

/// Resolves register values to address forms within one kernel.
struct Resolver<'k> {
    kernel: &'k Kernel,
    /// Per register, its defining instruction when the kernel defines it
    /// exactly once (`None`: defined more than once). Gathered once per
    /// check for the "unique definition anywhere" fallback.
    sole_def: HashMap<Reg, Option<InstrRef>>,
}

impl<'k> Resolver<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let mut sole_def: HashMap<Reg, Option<InstrRef>> = HashMap::new();
        for (at, instr) in kernel.iter_instrs() {
            for r in instr.def_regs() {
                sole_def
                    .entry(r)
                    .and_modify(|d| *d = None)
                    .or_insert(Some(at));
            }
        }
        Resolver { kernel, sole_def }
    }

    /// Resolves the value of `reg` as seen by the instruction at `at`,
    /// following unguarded definitions backward within the block and,
    /// failing that, a unique unguarded definition elsewhere in the kernel.
    fn resolve_reg(&self, at: InstrRef, reg: Reg, depth: usize) -> Addr {
        if depth == 0 {
            return Addr::Unknown;
        }
        let block = self.kernel.block(at.block);
        for index in (0..at.index).rev() {
            let instr = &block.instrs[index];
            if instr.def_regs().any(|r| r == reg) {
                if instr.guard.is_some() {
                    return Addr::Unknown;
                }
                return self.eval_def(
                    InstrRef {
                        block: at.block,
                        index,
                    },
                    reg,
                    depth,
                );
            }
        }
        // Not defined earlier in this block: usable only if the kernel has
        // exactly one unguarded definition of the register anywhere.
        let Some(Some(def_at)) = self.sole_def.get(&reg).copied() else {
            return Addr::Unknown;
        };
        if self.kernel.instr(def_at).guard.is_some() {
            return Addr::Unknown;
        }
        self.eval_def(def_at, reg, depth)
    }

    /// Evaluates the definition at `def_at` (known to define `reg`).
    fn eval_def(&self, def_at: InstrRef, reg: Reg, depth: usize) -> Addr {
        let instr = self.kernel.instr(def_at);
        // Only the low word of a wide definition has a simple value.
        if instr.dst.map(|d| d.reg) != Some(reg) {
            return Addr::Unknown;
        }
        let operand = |slot: usize| -> Addr { self.eval_operand(def_at, slot, depth - 1) };
        match instr.op {
            Opcode::Mov => operand(0),
            Opcode::IAdd => add(operand(0), operand(1), 1),
            Opcode::ISub => add(operand(0), operand(1), -1),
            Opcode::IMul => mul(operand(0), operand(1)),
            Opcode::Shl => match (operand(0), operand(1)) {
                (a, Addr::Affine { coef: 0, off: sh }) if (0..31).contains(&sh) => mul(
                    a,
                    Addr::Affine {
                        coef: 0,
                        off: 1 << sh,
                    },
                ),
                _ => Addr::Unknown,
            },
            _ => Addr::Unknown,
        }
    }

    fn eval_operand(&self, at: InstrRef, slot: usize, depth: usize) -> Addr {
        match self.kernel.instr(at).srcs.get(slot) {
            Some(Operand::Imm(v)) => Addr::Affine {
                coef: 0,
                off: *v as i64,
            },
            Some(Operand::Special(Special::TidX)) => Addr::Affine { coef: 1, off: 0 },
            Some(Operand::Reg(r)) => self.resolve_reg(at, *r, depth),
            _ => Addr::Unknown,
        }
    }
}

fn add(a: Addr, b: Addr, sign: i64) -> Addr {
    match (a, b) {
        (Addr::Affine { coef: ca, off: oa }, Addr::Affine { coef: cb, off: ob }) => Addr::Affine {
            coef: ca + sign * cb,
            off: oa + sign * ob,
        },
        _ => Addr::Unknown,
    }
}

fn mul(a: Addr, b: Addr) -> Addr {
    match (a, b) {
        (Addr::Affine { coef: 0, off: k }, Addr::Affine { coef, off })
        | (Addr::Affine { coef, off }, Addr::Affine { coef: 0, off: k }) => Addr::Affine {
            coef: coef * k,
            off: off * k,
        },
        _ => Addr::Unknown,
    }
}

/// One shared-memory access.
#[derive(Debug, Clone)]
struct Access {
    at: InstrRef,
    is_store: bool,
    addr: Addr,
    /// The instruction's printed form, rendered once for every message
    /// that quotes it.
    text: String,
}

/// Can threads collide at these two address forms? (`self_pair`: the two
/// accesses are the same instruction executed by different threads.)
fn may_collide(a: Addr, b: Addr, self_pair: bool) -> bool {
    match (a, b) {
        (Addr::Affine { coef: ca, off: oa }, Addr::Affine { coef: cb, off: ob }) if ca == cb => {
            if ca == 0 {
                // Uniform addresses: every thread hits `off`.
                oa == ob
            } else if self_pair || oa == ob {
                // Same stride, same offset: collisions require the
                // same thread index.
                false
            } else {
                // Same stride, different offsets: threads t and t' with
                // coef * (t - t') == ob - oa collide.
                (ob - oa) % ca == 0
            }
        }
        // Mixed strides (e.g. broadcast slot vs. per-thread lane), or at
        // least one unresolvable address.
        _ => true,
    }
}

/// Instruction positions reachable from `start` (inclusive) without
/// crossing a barrier: one barrier interval.
fn interval_from(kernel: &Kernel, start: InstrRef) -> Vec<InstrRef> {
    let mut out = Vec::new();
    let mut visited_blocks = vec![false; kernel.blocks.len()];
    let mut work = vec![start];
    while let Some(at) = work.pop() {
        if at.index == 0 {
            if visited_blocks[at.block.index()] {
                continue;
            }
            visited_blocks[at.block.index()] = true;
        }
        let block = kernel.block(at.block);
        let mut crossed_bar = false;
        for index in at.index..block.instrs.len() {
            if block.instrs[index].op.is_barrier() {
                crossed_bar = true;
                break;
            }
            out.push(InstrRef {
                block: at.block,
                index,
            });
        }
        if !crossed_bar {
            for succ in kernel.successors(at.block) {
                if !visited_blocks[succ.index()] {
                    work.push(InstrRef {
                        block: succ,
                        index: 0,
                    });
                }
            }
        }
    }
    out
}

/// The message tail, after "shared-memory store `…` may race with ", of
/// a store racing with itself. Any other pair's tail names the other
/// access: "the access `…` at … (…)".
const SELF_TAIL: &str =
    "itself across threads (address not provably thread-private, no intervening barrier)";

/// Runs the check, appending RFH-L005 findings to `diags`.
///
/// The findings come out in [`Diagnostic::sort_key`] order: accesses in
/// program order, each with its note (if any) and then, for a store, its
/// warnings ordered by message. A note ("shared-memory access …") sorts
/// before the same instruction's warnings ("shared-memory store …"), and
/// one store's warnings share the prefix up to their tail, so ordering
/// them by the rank of their tail orders them by message.
pub(crate) fn check(kernel: &Kernel, dom: &DomTree, res: &AbsResults, diags: &mut Vec<Diagnostic>) {
    let resolver = Resolver::new(kernel);
    let accesses: Vec<Access> = kernel
        .iter_instrs()
        .filter(|(at, _)| dom.is_reachable(at.block))
        .filter_map(|(at, i)| {
            let is_store = match i.op {
                Opcode::Ld(Space::Shared) => false,
                Opcode::St(Space::Shared) => true,
                _ => return None,
            };
            Some(Access {
                at,
                is_store,
                addr: match i.srcs.first() {
                    Some(Operand::Reg(r)) => resolver.resolve_reg(at, *r, MAX_RESOLVE_DEPTH),
                    Some(other) => eval_const_operand(*other),
                    None => Addr::Unknown,
                },
                text: i.to_string(),
            })
        })
        .collect();
    let pairs = if accesses.iter().any(|a| a.is_store) {
        race_pairs(kernel, dom, res, &accesses)
    } else {
        Vec::new()
    };

    // Each message tail is rendered once, indexed by access, with the
    // self-pair tail last; `rank` orders the tails by their text.
    let self_tail = accesses.len();
    let tails: Vec<String> = if pairs.is_empty() {
        Vec::new()
    } else {
        accesses
            .iter()
            .map(|a| {
                format!(
                    "the access `{}` at {} (no intervening barrier proves the threads disjoint)",
                    a.text, a.at
                )
            })
            .chain([SELF_TAIL.to_string()])
            .collect()
    };
    let mut by_rank: Vec<usize> = (0..tails.len()).collect();
    by_rank.sort_unstable_by(|&x, &y| tails[x].cmp(&tails[y]));
    let mut rank = vec![0u32; tails.len()];
    for (r, &k) in by_rank.iter().enumerate() {
        rank[k] = r as u32;
    }

    // One key per unordered pair: the anchoring store (the earlier store,
    // or the store of a store-load pair) and the rank of the other
    // access's tail (the self-pair tail's for a store racing with
    // itself). Sorting the keys orders the warnings, and `dedup` drops the
    // pairs found again in a later barrier interval.
    let mut keys: Vec<(u32, u32)> = pairs
        .into_iter()
        .map(|(a, b)| {
            let (store, other) = if accesses[a].is_store { (a, b) } else { (b, a) };
            let other_rank = if a == b { rank[self_tail] } else { rank[other] };
            (store as u32, other_rank)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();

    let mut keys = keys.into_iter().peekable();
    for (k, a) in accesses.iter().enumerate() {
        // Indices the affine resolver could not verify participate in
        // every race decision as may-alias; surface that assumption as a
        // note, quoting the abstract interval when it narrows the range
        // at all.
        if a.addr == Addr::Unknown {
            let iv = res.fact(a.at).srcs[0];
            let range = if iv.lo != i32::MIN || iv.hi != i32::MAX {
                format!(" (abstract word range [{}, {}])", iv.lo, iv.hi)
            } else {
                String::new()
            };
            diags.push(Diagnostic::note_at(
                Code::SharedRace,
                a.at,
                format!(
                    "shared-memory access `{}` has an unverifiable (non-affine) index{range}: \
                     the race analysis treats it as may-alias with every other shared access",
                    a.text
                ),
            ));
        }
        let mut prefix = None;
        while let Some((_, r)) = keys.next_if(|&(store, _)| store as usize == k) {
            let prefix: &String = prefix
                .get_or_insert_with(|| format!("shared-memory store `{}` may race with ", a.text));
            let tail = &tails[by_rank[r as usize]];
            let mut msg = String::with_capacity(prefix.len() + tail.len());
            msg.push_str(prefix);
            msg.push_str(tail);
            diags.push(Diagnostic::at(Code::SharedRace, a.at, msg));
        }
    }
}

/// Every colliding pair `(earlier, later)` of access indices (equal for a
/// store racing with itself) that shares a barrier interval and involves
/// a store, once per interval it is found in.
fn race_pairs(
    kernel: &Kernel,
    dom: &DomTree,
    res: &AbsResults,
    accesses: &[Access],
) -> Vec<(usize, usize)> {
    // Barrier-interval start points: the kernel entry and the position
    // just after every barrier.
    let mut starts: Vec<InstrRef> = vec![InstrRef {
        block: kernel.entry(),
        index: 0,
    }];
    for (at, i) in kernel.iter_instrs() {
        if i.op.is_barrier() && dom.is_reachable(at.block) {
            let block_len = kernel.block(at.block).instrs.len();
            if at.index + 1 < block_len {
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
    }

    // The access index at each instruction position, if it is one.
    let mut block_base = Vec::with_capacity(kernel.blocks.len());
    let mut positions = 0;
    for b in &kernel.blocks {
        block_base.push(positions);
        positions += b.instrs.len();
    }
    let mut access_at: Vec<Option<usize>> = vec![None; positions];
    for (k, a) in accesses.iter().enumerate() {
        access_at[block_base[a.at.block.index()] + a.at.index] = Some(k);
    }
    let ranges: Vec<(i32, i32)> = accesses
        .iter()
        .map(|a| {
            let iv = res.fact(a.at).srcs[0];
            (iv.lo, iv.hi)
        })
        .collect();

    let mut pairs = Vec::new();
    let mut in_interval = vec![false; accesses.len()];
    let mut here: Vec<usize> = Vec::new();
    for start in starts {
        for at in interval_from(kernel, start) {
            if let Some(k) = access_at[block_base[at.block.index()] + at.index] {
                if !in_interval[k] {
                    in_interval[k] = true;
                    here.push(k);
                }
            }
        }
        here.sort_unstable();
        for (i, &x) in here.iter().enumerate() {
            let a = &accesses[x];
            for &y in &here[i..] {
                let b = &accesses[y];
                if !a.is_store && !b.is_store {
                    continue;
                }
                let self_pair = x == y;
                if !may_collide(a.addr, b.addr, self_pair) {
                    continue;
                }
                // Interval sharpening: two distinct accesses with disjoint
                // address intervals cannot alias, whatever the strides.
                // (A self-pair shares one interval, so disjointness can
                // never clear it.)
                if !self_pair {
                    let (ra, rb) = (ranges[x], ranges[y]);
                    if ra.1 < rb.0 || rb.1 < ra.0 {
                        continue;
                    }
                }
                pairs.push((x, y));
            }
        }
        for k in here.drain(..) {
            in_interval[k] = false;
        }
    }
    pairs
}

fn eval_const_operand(op: Operand) -> Addr {
    match op {
        Operand::Imm(v) => Addr::Affine {
            coef: 0,
            off: v as i64,
        },
        Operand::Special(Special::TidX) => Addr::Affine { coef: 1, off: 0 },
        _ => Addr::Unknown,
    }
}
