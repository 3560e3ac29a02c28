//! Checks shared between the property tests (`tests/property.rs`) and the
//! pinned regression inputs (`tests/regressions.rs`). Each check panics on
//! violation; the property runner catches and shrinks, `#[test]`s just
//! fail.

use std::collections::{HashMap, HashSet};

use rfh::alloc::{allocate, validate_placements, AllocConfig};
use rfh::energy::EnergyModel;
use rfh::sim::exec::{execute, ExecMode};
use rfh::sim::sink::{InstrEvent, NullSink, TraceSink};
use rfh::workloads::generator::{random_program, GenConfig};

/// The headline invariant: for any generated program and any hierarchy
/// shape, the allocated kernel computes exactly the same memory image as
/// the baseline, with operands flowing through the modeled ORF/LRF.
pub fn check_allocated_matches_baseline(seed: u64, cfg: AllocConfig, shape: GenConfig) {
    let (kernel, launch, mem) = random_program(seed, shape);

    let mut base_mem = mem.clone();
    let mut sink = NullSink;
    execute(
        &kernel,
        &launch,
        &mut base_mem,
        ExecMode::Baseline,
        &mut [&mut sink],
    )
    .unwrap();

    let mut allocated = kernel.clone();
    allocate(&mut allocated, &cfg, &EnergyModel::paper()).unwrap();
    validate_placements(&allocated, &cfg).unwrap();

    let mut hier_mem = mem.clone();
    execute(
        &allocated,
        &launch,
        &mut hier_mem,
        ExecMode::Hierarchy(cfg),
        &mut [&mut sink],
    )
    .unwrap();

    assert_eq!(base_mem.words(), hier_mem.words());
}

/// Dynamic per-warp checker for `dead_after` flags, shared by the default
/// and the hint-refined liveness properties.
#[derive(Default)]
struct DeadChecker {
    // per warp: registers currently flagged dead
    dead: HashMap<usize, HashSet<u16>>,
    violation: Option<String>,
}

impl TraceSink for DeadChecker {
    fn on_instr(&mut self, ev: &InstrEvent<'_>) {
        // The flags are path-sensitive ("last read on this path") but
        // this checker sees a serialized interleaving of divergent
        // paths, so it only *marks* registers dead during fully
        // convergent, unpredicated execution — where dynamic order
        // equals path order — and checks reads always.
        let converged = ev.active_mask == u32::MAX && ev.exec_mask == ev.active_mask;
        let dead = self.dead.entry(ev.warp).or_default();
        let mut to_mark = Vec::new();
        for (slot, src) in ev.instr.srcs.iter().enumerate() {
            if let Some(r) = src.as_reg() {
                if dead.contains(&r.index()) && self.violation.is_none() {
                    self.violation = Some(format!("warp {} read dead {r} at {}", ev.warp, ev.at));
                }
                if ev.instr.dead_after[slot] && converged {
                    to_mark.push(r.index());
                }
            }
        }
        dead.extend(to_mark);
        // Definitions revive the register (a guarded def makes the old
        // value unobservable only for some lanes, but the flag
        // semantics already account for that via liveness).
        for r in ev.instr.def_regs() {
            dead.remove(&r.index());
        }
    }
}

fn run_dead_checker(
    kernel: &rfh::isa::Kernel,
    launch: &rfh::sim::exec::Launch,
    mem: &mut rfh::sim::mem::GlobalMemory,
) {
    let mut checker = DeadChecker::default();
    execute(kernel, launch, mem, ExecMode::Baseline, &mut [&mut checker]).unwrap();
    assert!(checker.violation.is_none(), "{:?}", checker.violation);
}

/// Liveness annotations are sound: an operand flagged dead is never read
/// again before a redefinition (checked dynamically per warp).
pub fn check_dead_after_flags(seed: u64, shape: GenConfig) {
    let (mut kernel, launch, mut mem) = random_program(seed, shape);
    let lv = rfh::analysis::Liveness::compute(&kernel);
    rfh::analysis::liveness::annotate_dead(&mut kernel, &lv);
    run_dead_checker(&kernel, &launch, &mut mem);
}

/// The last-use hint pass only strengthens `dead_after`: the refined flags
/// (covered reads excluded from liveness) must still never let a flagged
/// register be read before a redefinition, on the same dynamic check as
/// [`check_dead_after_flags`].
pub fn check_refined_dead_flags(seed: u64, shape: GenConfig) {
    let (mut kernel, launch, mut mem) = random_program(seed, shape);
    let info = rfh::analysis::strand::mark_strands(&kernel);
    let hints = rfh::analysis::absint::last_use::analyze(&kernel, &info);
    rfh::analysis::liveness::annotate_dead_excluding(&mut kernel, &hints.liveness, &hints.excluded);
    run_dead_checker(&kernel, &launch, &mut mem);
}

/// The abstract interpreter is sound on arbitrary generated programs:
/// every register value the executor writes lies inside the predicted
/// interval, matches the affine form bit-exactly when one is claimed, and
/// never diverges across executing lanes when marked uniform. Predicate
/// writes respect known/uniform claims, and no lane executes an
/// instruction the analysis proved unreachable.
pub fn check_absint_sound(seed: u64, shape: GenConfig) {
    use rfh::analysis::absint::{self, AbsCtx, AbsResults};
    use rfh::isa::{InstrRef, Kernel, Reg};

    struct ValueChecker<'a> {
        kernel: &'a Kernel,
        res: &'a AbsResults,
        warps_per_cta: usize,
        violation: Option<String>,
    }

    impl ValueChecker<'_> {
        fn check_claim(
            &mut self,
            claim: &absint::AbsVal,
            warp: usize,
            at: InstrRef,
            reg: Reg,
            lanes: &[u32],
            exec_mask: u32,
        ) {
            let mut first: Option<u32> = None;
            for (lane, &v) in lanes.iter().enumerate() {
                if exec_mask & (1 << lane) == 0 {
                    continue;
                }
                let signed = v as i32;
                if signed < claim.lo || signed > claim.hi {
                    self.violation = Some(format!(
                        "interval broken at {at}: warp {warp} lane {lane} wrote {signed} to \
                         {reg}, outside [{}, {}]",
                        claim.lo, claim.hi
                    ));
                    return;
                }
                if let Some((coef, off)) = claim.affine {
                    let tid = ((warp % self.warps_per_cta) * 32 + lane) as i32;
                    let expect = coef.wrapping_mul(tid).wrapping_add(off) as u32;
                    if v != expect {
                        self.violation = Some(format!(
                            "affine claim broken at {at}: lane {lane} wrote {v:#x} to {reg}, \
                             expected {coef}·{tid} + {off}"
                        ));
                        return;
                    }
                }
                match first {
                    None => first = Some(v),
                    Some(w0) if claim.uniform && v != w0 => {
                        self.violation = Some(format!(
                            "uniform claim broken at {at}: {reg} got {w0:#x} and {v:#x}"
                        ));
                        return;
                    }
                    Some(_) => {}
                }
            }
        }
    }

    impl TraceSink for ValueChecker<'_> {
        fn on_instr(&mut self, ev: &InstrEvent<'_>) {
            if self.violation.is_none() && ev.exec_mask != 0 && !self.res.fact(ev.at).reachable {
                self.violation = Some(format!("lanes executed unreachable-marked {}", ev.at));
            }
        }

        fn on_reg_write(
            &mut self,
            warp: usize,
            at: InstrRef,
            reg: Reg,
            lanes: &[u32],
            exec_mask: u32,
        ) {
            if self.violation.is_some() {
                return;
            }
            let Some(d) = self.kernel.instr(at).dst else {
                return;
            };
            let f = self.res.fact(at);
            let claim = if reg == d.reg { &f.dst } else { &f.dst_hi };
            if let Some(claim) = *claim {
                self.check_claim(&claim, warp, at, reg, lanes, exec_mask);
            }
        }

        fn on_pred_write(
            &mut self,
            warp: usize,
            at: InstrRef,
            pred: rfh::isa::PredReg,
            bits: u32,
            exec_mask: u32,
        ) {
            if self.violation.is_some() {
                return;
            }
            let Some(claim) = &self.res.fact(at).pdst else {
                return;
            };
            let exec_bits = bits & exec_mask;
            if let Some(v) = claim.known {
                let expect = if v { exec_mask } else { 0 };
                if exec_bits != expect {
                    self.violation = Some(format!(
                        "known-predicate claim broken at {at}: warp {warp} wrote {bits:#x} to \
                         {pred}, analysis proved every lane writes {v}"
                    ));
                }
            } else if claim.uniform && exec_bits != 0 && exec_bits != exec_mask {
                self.violation = Some(format!(
                    "uniform-predicate claim broken at {at}: mixed bits {bits:#x} in {pred}"
                ));
            }
        }
    }

    let (kernel, launch, mut mem) = random_program(seed, shape);
    let res = absint::analyze(
        &kernel,
        AbsCtx {
            threads_per_cta: Some(launch.threads_per_cta as u32),
            ctas: Some(launch.ctas as u32),
        },
    );
    let mut checker = ValueChecker {
        kernel: &kernel,
        res: &res,
        warps_per_cta: launch.threads_per_cta.div_ceil(32),
        violation: None,
    };
    execute(
        &kernel,
        &launch,
        &mut mem,
        ExecMode::Baseline,
        &mut [&mut checker],
    )
    .unwrap();
    assert!(checker.violation.is_none(), "{:?}", checker.violation);
}

/// `allocate_with_hints(.., false)` must be byte-for-byte the plain
/// `allocate` pipeline, and the hinted pipeline must still place
/// validator-clean annotations and execute to exactly the baseline image.
pub fn check_hinted_allocation(seed: u64, cfg: AllocConfig, shape: GenConfig) {
    let (kernel, launch, mem) = random_program(seed, shape);

    let mut plain = kernel.clone();
    allocate(&mut plain, &cfg, &EnergyModel::paper()).unwrap();
    let mut off = kernel.clone();
    rfh::alloc::allocate_with_hints(&mut off, &cfg, &EnergyModel::paper(), false).unwrap();
    assert_eq!(
        plain, off,
        "hints off must splice into the default pipeline"
    );

    let mut on = kernel.clone();
    rfh::alloc::allocate_with_hints(&mut on, &cfg, &EnergyModel::paper(), true).unwrap();
    validate_placements(&on, &cfg).unwrap();

    let mut base_mem = mem.clone();
    execute(&kernel, &launch, &mut base_mem, ExecMode::Baseline, &mut []).unwrap();
    let mut hier_mem = mem.clone();
    execute(
        &on,
        &launch,
        &mut hier_mem,
        ExecMode::Hierarchy(cfg),
        &mut [],
    )
    .unwrap();
    assert_eq!(base_mem.words(), hier_mem.words());
}

/// Strand partitioning is consistent: every strand's instructions are
/// layout-contiguous, exactly the last one carries the end bit, and every
/// instruction belongs to exactly one strand.
pub fn check_strand_partition(seed: u64, shape: GenConfig) {
    let (kernel, _, _) = random_program(seed, shape);
    let info = rfh::analysis::strand::mark_strands(&kernel);
    let mut covered = 0usize;
    for s in &info.strands {
        for (i, at) in s.instrs.iter().enumerate() {
            let last = i + 1 == s.instrs.len();
            assert!(
                !info.end_bits()[covered + i] || last,
                "interior instruction with end bit in strand {:?}",
                s.id
            );
            assert_eq!(info.strand_of(*at), s.id);
        }
        covered += s.instrs.len();
        // Layout contiguity.
        for w in s.instrs.windows(2) {
            let a = (w[0].block.index(), w[0].index);
            let b = (w[1].block.index(), w[1].index);
            assert!(b == (a.0, a.1 + 1) || (b.0 > a.0 && b.1 == 0));
        }
    }
    assert_eq!(covered, kernel.instr_count());
}

/// The textual format round-trips the generated kernel exactly.
pub fn check_text_round_trip(seed: u64, shape: GenConfig) {
    let (kernel, _, _) = random_program(seed, shape);
    let text = rfh::isa::printer::print_kernel(&kernel);
    let parsed = rfh::isa::parse_kernel(&text).unwrap();
    assert_eq!(parsed, kernel);
}
