//! Execute once, replay the rest.
//!
//! Allocation only annotates instructions: it never inserts, removes, or
//! reorders them. So every allocated variant of a kernel issues exactly
//! the dynamic instruction stream of the unallocated kernel's baseline
//! run — the same flat pcs with the same active and executing lanes —
//! provided its placements deliver the architecturally current value to
//! every read. The paper evaluates its design points the same way: one
//! Ocelot trace per benchmark feeds the access counter (§5.1).
//!
//! * [`StreamRecorder`] is a [`TraceSink`] attached to one verified
//!   baseline run. It records each warp's `(flat pc, active mask, exec
//!   mask)` sequence and merges identical warp traces, so a [`Stream`]
//!   holds each distinct trace once with the number of warps that issued
//!   it.
//! * [`replay`] feeds a stream to fresh sinks against any kernel of the
//!   recorded shape, decoded by the executor's own `soa::decode` (the same
//!   slab rows, destination plans, fills and strand ends), and folds each
//!   distinct trace's sink with its warp count.
//!
//! In hierarchy mode the replay checks placements with a value-free *tag
//! model* in place of values: each lane's architectural register holds
//! the id of its current definition, and every MRF/ORF/LRF row holds the
//! id its last write or fill put there, with the upper rows poisoned at
//! every strand end exactly as execution poisons them. A read whose row
//! does not hold the current definition is an [`ExecError::BadPlacement`].
//! That is stronger than comparing final memory, which cannot see a read
//! of a stale value that happens to be equal.

use rfh_analysis::DomTree;
use rfh_isa::{InstrRef, Instruction, Kernel, Operand, Width};

use super::soa::{self, DecodedKernel, DecodedOp, OpKind, SrcOp};
use super::{check_launchable, ExecError, ExecMode, POISON};
use crate::machine::MachineConfig;
use crate::sink::{InstrEvent, TraceSink};

/// One recorded warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// Flat pc: the instruction's index in `Kernel::iter_instrs` order.
    pc: u32,
    active: u32,
    exec: u32,
}

/// The dynamic instruction stream of one verified baseline run, stored as
/// its distinct per-warp traces (see the module docs).
#[derive(Debug, Clone)]
pub struct Stream {
    /// Distinct warp traces in first-completion order, each with the
    /// number of warps that issued it.
    traces: Vec<(Vec<Step>, u64)>,
    /// The recorded kernel, against which replayed kernels are checked.
    shape: Vec<Vec<Instruction>>,
}

impl Stream {
    /// Number of distinct warp traces.
    pub fn distinct_traces(&self) -> usize {
        self.traces.len()
    }

    /// Number of warps the recorded run executed.
    pub fn warps(&self) -> u64 {
        self.traces.iter().map(|(_, n)| n).sum()
    }

    /// Warp instructions the recorded run issued.
    pub fn warp_instructions(&self) -> u64 {
        self.traces.iter().map(|(t, n)| t.len() as u64 * n).sum()
    }

    /// Warp instructions one replay walks: the distinct traces' total.
    pub fn replayed_instructions(&self) -> u64 {
        self.traces.iter().map(|(t, _)| t.len() as u64).sum()
    }
}

/// Records a [`Stream`] from the run it observes (see the module docs).
/// Attach it to a baseline-mode run of the kernel given to
/// [`StreamRecorder::new`], then call [`StreamRecorder::finish`].
#[derive(Debug)]
pub struct StreamRecorder {
    block_start: Vec<u32>,
    shape: Vec<Vec<Instruction>>,
    /// In-flight traces, indexed by global warp id.
    live: Vec<Vec<Step>>,
    traces: Vec<(Vec<Step>, u64)>,
}

impl StreamRecorder {
    /// A recorder for runs of `kernel`.
    pub fn new(kernel: &Kernel) -> Self {
        let mut block_start = Vec::with_capacity(kernel.blocks.len());
        let mut total = 0u32;
        for b in &kernel.blocks {
            block_start.push(total);
            total += b.instrs.len() as u32;
        }
        StreamRecorder {
            block_start,
            shape: kernel.blocks.iter().map(|b| b.instrs.clone()).collect(),
            live: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// The recorded stream of every warp that completed.
    pub fn finish(self) -> Stream {
        Stream {
            traces: self.traces,
            shape: self.shape,
        }
    }
}

impl TraceSink for StreamRecorder {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        if event.warp >= self.live.len() {
            self.live.resize_with(event.warp + 1, Vec::new);
        }
        self.live[event.warp].push(Step {
            pc: self.block_start[event.at.block.index()] + event.at.index as u32,
            active: event.active_mask,
            exec: event.exec_mask,
        });
    }

    fn on_warp_done(&mut self, warp: usize) {
        let Some(trace) = self.live.get_mut(warp).map(std::mem::take) else {
            return;
        };
        match self.traces.iter_mut().find(|(t, _)| *t == trace) {
            Some((_, warps)) => *warps += 1,
            None => self.traces.push((trace, 1)),
        }
    }
}

/// Whether two instructions differ at most in their annotations
/// (`read_locs`, `write_loc`, `ends_strand`, `dead_after`).
fn same_shape(a: &Instruction, b: &Instruction) -> bool {
    a.op == b.op
        && a.dst == b.dst
        && a.pdst == b.pdst
        && a.srcs == b.srcs
        && a.psrc == b.psrc
        && a.guard == b.guard
        && a.target == b.target
}

fn check_shape(kernel: &Kernel, stream: &Stream) -> Result<(), ExecError> {
    let mismatch = |what: &str, block: usize, index: usize| ExecError::Unsupported {
        what: format!("replayed kernel differs from the recorded one: {what}"),
        at: InstrRef {
            block: rfh_isa::BlockId::new(block as u32),
            index,
        },
    };
    if kernel.blocks.len() != stream.shape.len() {
        return Err(mismatch("block count", 0, 0));
    }
    for (b, (block, recorded)) in kernel.blocks.iter().zip(&stream.shape).enumerate() {
        if block.instrs.len() != recorded.len() {
            return Err(mismatch("block length", b, 0));
        }
        if let Some(i) = (0..recorded.len()).find(|&i| !same_shape(&block.instrs[i], &recorded[i]))
        {
            return Err(mismatch("instruction", b, i));
        }
    }
    Ok(())
}

/// Replays `stream` against `kernel` under `mode`, counting each distinct
/// warp trace with a fresh sink: `mk_sink()` builds it, the trace is fed
/// to it as warp 0 followed by `on_warp_done(0)`, and `fold(sink, warps)`
/// receives it with the number of warps that issued the trace.
///
/// `kernel` must have the recorded kernel's shape: it may differ only in
/// its annotations (`read_locs`, `write_loc`, `ends_strand`,
/// `dead_after`), as an allocated or dead-annotated copy does. Events
/// carry masks but no values, so `on_reg_write` and `on_pred_write` are
/// never called.
///
/// Folding by warp count is valid only for sinks whose result is a sum of
/// independent per-warp contributions: `SwCounter`, `StrandCounter`, and
/// `HwCounter` (its per-warp cache state resets in `on_warp_done`, and its
/// shared-datapath register set is fixed by the kernel). A sink that
/// correlates warps — a timing capture, a per-warp profile — must observe
/// a real execution instead.
///
/// # Errors
///
/// The validation and placement-range errors of
/// [`super::execute_with`]; [`ExecError::Unsupported`] for a kernel of a
/// different shape; and, in hierarchy mode, [`ExecError::BadPlacement`]
/// for the first read (in replay order) that does not see its register's
/// current definition.
pub fn replay<S, M, F>(
    kernel: &Kernel,
    stream: &Stream,
    mode: ExecMode,
    machine: &MachineConfig,
    mut mk_sink: M,
    mut fold: F,
) -> Result<(), ExecError>
where
    S: TraceSink,
    M: FnMut() -> S,
    F: FnMut(S, u64),
{
    check_launchable(kernel, &mode)?;
    check_shape(kernel, stream)?;
    let ipdom = DomTree::post_dominators(kernel);
    let dk = soa::decode(kernel, &mode, &ipdom, machine);
    let mut tags = dk.hierarchy.then(|| Tags::new(&dk));
    for (trace, warps) in &stream.traces {
        let mut sink = mk_sink();
        if let Some(tags) = tags.as_mut() {
            tags.reset(&dk);
        }
        for step in trace {
            let op = &dk.ops[step.pc as usize];
            sink.on_instr(&InstrEvent {
                warp: 0,
                at: op.at,
                instr: op.instr,
                active_mask: step.active,
                exec_mask: step.exec,
                plan: &op.plan,
            });
            if let Some(tags) = tags.as_mut() {
                tags.step(&dk, op, step.active, step.exec)?;
            }
        }
        sink.on_warp_done(0);
        fold(sink, *warps);
    }
    Ok(())
}

/// The value-free tag model of one warp, lane-major like `SoaWarp.data`.
struct Tags {
    /// Id of each register's current definition, `arch[r * width + lane]`.
    arch: Vec<u32>,
    /// Id held by each storage row: the MRF rows, then the ORF and LRF.
    slab: Vec<u32>,
    /// Pre-execute MRF ids captured for the instruction's fills.
    fill_buf: Vec<u32>,
    next_id: u32,
}

/// The lanes set in `mask`.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

impl Tags {
    fn new(dk: &DecodedKernel<'_>) -> Self {
        Tags {
            arch: vec![0; dk.upper_base],
            slab: vec![0; dk.slab_len],
            fill_buf: vec![0; 3 * dk.width],
            next_id: 1,
        }
    }

    /// Every register starts as definition 0 (the zeroed register file),
    /// which the MRF holds; the upper levels start poisoned.
    fn reset(&mut self, dk: &DecodedKernel<'_>) {
        self.arch.fill(0);
        self.slab[..dk.upper_base].fill(0);
        self.slab[dk.upper_base..].fill(POISON);
        self.next_id = 1;
    }

    /// Applies one warp instruction in the executor's order: operand reads
    /// (checked), fill capture, destination write, fill deposit, strand
    /// poison.
    fn step(
        &mut self,
        dk: &DecodedKernel<'_>,
        op: &DecodedOp<'_>,
        mask: u32,
        exec: u32,
    ) -> Result<(), ExecError> {
        let width = dk.width;
        // The operand slots each dispatch class reads on executing lanes.
        let (reads, writes) = match op.kind {
            OpKind::Bra { .. } | OpKind::Exit | OpKind::Bar => {
                dk.end_strand(op, &mut self.slab);
                return Ok(());
            }
            // Rejected at issue by execution, so never in a recorded stream.
            OpKind::AluWide => {
                return Err(ExecError::Unsupported {
                    what: format!("64-bit destination on `{}`", op.instr),
                    at: op.at,
                })
            }
            OpKind::St(_) | OpKind::Setp { .. } => (2, false),
            OpKind::Ld(_) | OpKind::Tex => (1, true),
            OpKind::Sel { .. } => (2, true),
            OpKind::Alu { .. } => (3, true),
        };
        for slot in 0..reads {
            let (SrcOp::Slab(base), Some(Operand::Reg(r))) =
                (op.srcs[slot], op.instr.srcs.get(slot))
            else {
                continue;
            };
            let (row, arch) = (base as usize, r.index() as usize * width);
            if let Some(lane) = lanes(exec).find(|&l| self.slab[row + l] != self.arch[arch + l]) {
                let held = self.slab[row + lane];
                return Err(ExecError::BadPlacement {
                    what: format!(
                        "slot {slot} reads {r} from {} in lane {lane}, which holds {}",
                        op.instr.read_locs[slot],
                        if held == POISON {
                            "a poisoned entry"
                        } else {
                            "a stale definition"
                        }
                    ),
                    at: op.at,
                });
            }
        }

        for (i, f) in op.fills.iter().enumerate() {
            let base = f.reg_off as usize;
            self.fill_buf[i * width..(i + 1) * width]
                .copy_from_slice(&self.slab[base..base + width]);
        }

        if writes && exec != 0 {
            if let Some(d) = op.instr.dst {
                let (lo, hi) = (self.next_id, self.next_id + 1);
                self.next_id += 2;
                let r = d.reg.index() as usize * width;
                let wide = d.width == Width::W64;
                let dst = &op.dst;
                for lane in lanes(exec) {
                    self.arch[r + lane] = lo;
                    if wide {
                        self.arch[r + width + lane] = hi;
                    }
                    for &row in &dst.lo[..dst.n_lo as usize] {
                        self.slab[row as usize + lane] = lo;
                    }
                    for &row in &dst.hi[..dst.n_hi as usize] {
                        self.slab[row as usize + lane] = hi;
                    }
                }
            }
        }

        for (i, f) in op.fills.iter().enumerate() {
            let deposit = if f.covered_by_dst { mask & !exec } else { mask };
            for lane in lanes(deposit) {
                self.slab[f.orf_off as usize + lane] = self.fill_buf[i * width + lane];
            }
        }

        dk.end_strand(op, &mut self.slab);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::SwCounter;
    use crate::exec::{execute, execute_with, Launch};
    use crate::mem::GlobalMemory;
    use rfh_alloc::AllocConfig;
    use rfh_energy::{AccessCounts, EnergyModel};
    use rfh_isa::{ReadLoc, WriteLoc};

    /// Per-lane trip counts (lane % 4 + 1) over two CTAs of two warps.
    const DIVERGENT: &str = "
.kernel div
BB0:
  mov r0, %tid.x
  mov r9, %ctaid.x
  imul r9 r9, %ntid.x
  iadd r9 r9, r0
  and r7 r0, 3
  mov r1, 0
  mov r2, 0
BB1:
  iadd r1 r1, 1
  iadd r2 r2, r1
  setp.le p0 r1, r7
  @p0 bra BB1
BB2:
  st.global r9, r2
  exit
";

    fn record(kernel: &Kernel, launch: &Launch) -> (Stream, GlobalMemory, AccessCounts) {
        let mut mem = GlobalMemory::new(256);
        let mut rec = StreamRecorder::new(kernel);
        let mut sw = SwCounter::default();
        execute(
            kernel,
            launch,
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut rec, &mut sw],
        )
        .unwrap();
        (rec.finish(), mem, sw.counts())
    }

    fn replay_sw(
        kernel: &Kernel,
        stream: &Stream,
        mode: ExecMode,
    ) -> Result<AccessCounts, ExecError> {
        let mut total = AccessCounts::default();
        replay(
            kernel,
            stream,
            mode,
            &MachineConfig::paper(),
            SwCounter::default,
            |sink, warps| total += sink.counts() * warps,
        )?;
        Ok(total)
    }

    #[test]
    fn identical_warps_collapse_to_one_trace() {
        let kernel = rfh_isa::parse_kernel(DIVERGENT).unwrap();
        let launch = Launch::new(2, 64);
        let (stream, _, base) = record(&kernel, &launch);
        // Every warp runs the same per-lane trip counts.
        assert_eq!(stream.distinct_traces(), 1);
        assert_eq!(stream.warps(), 4);
        assert_eq!(
            stream.warp_instructions(),
            4 * stream.replayed_instructions()
        );
        assert_eq!(
            replay_sw(&kernel, &stream, ExecMode::Baseline).unwrap(),
            base
        );
        // A partial last warp issues different masks: a second trace.
        let (stream, _, _) = record(&kernel, &Launch::new(1, 40));
        assert_eq!((stream.distinct_traces(), stream.warps()), (2, 2));
    }

    #[test]
    fn replayed_counts_equal_a_hierarchy_execution() {
        let model = EnergyModel::paper();
        let base = rfh_isa::parse_kernel(DIVERGENT).unwrap();
        let launch = Launch::new(2, 64);
        let (stream, base_mem, _) = record(&base, &launch);
        for cfg in [
            AllocConfig::two_level(1),
            AllocConfig::two_level(3),
            AllocConfig::three_level(2, true),
            AllocConfig::three_level(3, false),
        ] {
            let mut kernel = base.clone();
            rfh_alloc::allocate(&mut kernel, &cfg, &model).unwrap();
            let mut mem = GlobalMemory::new(256);
            let mut sw = SwCounter::default();
            execute(
                &kernel,
                &launch,
                &mut mem,
                ExecMode::Hierarchy(cfg),
                &mut [&mut sw],
            )
            .unwrap();
            assert_eq!(mem.words(), base_mem.words());
            let replayed = replay_sw(&kernel, &stream, ExecMode::Hierarchy(cfg)).unwrap();
            assert_eq!(replayed, sw.counts(), "{cfg:?}");
        }
    }

    #[test]
    fn a_kernel_of_another_shape_is_rejected() {
        let kernel = rfh_isa::parse_kernel(DIVERGENT).unwrap();
        let (stream, _, _) = record(&kernel, &Launch::new(1, 32));
        let mut other = kernel.clone();
        other.blocks[1].instrs[1] =
            rfh_isa::parse_kernel(".kernel o\nBB0:\n  iadd r2 r2, 2\n  exit\n")
                .unwrap()
                .blocks[0]
                .instrs[0]
                .clone();
        let err = replay_sw(&other, &stream, ExecMode::Baseline).unwrap_err();
        assert!(
            matches!(&err, ExecError::Unsupported { what, .. } if what.contains("differs")),
            "{err}"
        );
        // Annotations alone are not a different shape.
        let mut annotated = kernel.clone();
        rfh_analysis::strand::mark_strands(&mut annotated);
        annotated.blocks[1].instrs[1].dead_after[0] = true;
        assert!(replay_sw(&annotated, &stream, ExecMode::Baseline).is_ok());
    }

    #[test]
    fn a_stale_but_equal_read_passes_execution_and_fails_replay() {
        // r1 is defined twice with the same value; the second definition
        // goes only to the MRF, but the add still reads ORF0, which holds
        // the first. The values agree, so execution cannot tell.
        let mut kernel = rfh_isa::parse_kernel(
            ".kernel stale\nBB0:\n  mov r0, %tid.x\n  mov r1, 7\n  mov r1, 7\n  \
             iadd r2 r1, 1\n  st.global r0, r2\n  exit\n",
        )
        .unwrap();
        let launch = Launch::new(1, 32);
        let (stream, base_mem, _) = record(&kernel, &launch);
        rfh_analysis::strand::mark_strands(&mut kernel);
        kernel.blocks[0].instrs[1].write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        kernel.blocks[0].instrs[3].read_locs[0] = ReadLoc::Orf(0);
        let cfg = AllocConfig::two_level(3);
        let mut mem = GlobalMemory::new(256);
        execute(
            &kernel,
            &launch,
            &mut mem,
            ExecMode::Hierarchy(cfg),
            &mut [],
        )
        .unwrap();
        assert_eq!(mem.words(), base_mem.words(), "execution accepts it");
        let err = replay_sw(&kernel, &stream, ExecMode::Hierarchy(cfg)).unwrap_err();
        let ExecError::BadPlacement { what, at } = &err else {
            panic!("{err}");
        };
        assert_eq!(at.index, 3);
        assert!(what.contains("slot 0 reads r1 from ORF0"), "{what}");
        assert!(what.contains("stale"), "{what}");
    }

    #[test]
    fn replay_poisons_at_strand_ending_branches() {
        let (kernel, cfg) = crate::exec::tests::orf_carried_across_backedge();
        let mut recorded = kernel.clone();
        for i in recorded.blocks.iter_mut().flat_map(|b| b.instrs.iter_mut()) {
            i.read_locs.fill(ReadLoc::Mrf);
            i.write_loc = WriteLoc::Mrf;
        }
        let mut machine = MachineConfig::paper();
        machine.max_warp_instructions = 1000;
        let mut mem = GlobalMemory::new(32);
        let mut rec = StreamRecorder::new(&recorded);
        execute_with(
            &recorded,
            &Launch::new(1, 32),
            &mut mem,
            ExecMode::Baseline,
            &machine,
            &mut [&mut rec],
        )
        .unwrap();
        let err = replay_sw(&kernel, &rec.finish(), ExecMode::Hierarchy(cfg)).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlacement { what, .. } if what.contains("poisoned")),
            "{err}"
        );
    }
}
