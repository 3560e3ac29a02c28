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
//!   it, and which distinct trace each global warp issued.
//! * [`replay`] feeds a stream to fresh sinks against any kernel of the
//!   recorded shape, decoded by the executor's own `soa::decode`, and
//!   folds each distinct trace's sink with its warp count.
//! * [`Stream::timing_traces`] expands the warp-to-trace map into the
//!   per-warp traces the timing model replays.
//!
//! In hierarchy mode the replay checks placements with the tag model
//! hierarchy-mode execution runs inline (`super::tags`), one tag state per
//! distinct trace, so replay and execution accept and reject the same
//! placements.

use rfh_analysis::DomTree;
use rfh_isa::{InstrRef, Instruction, Kernel};

use super::tags::{TagPlan, Tags};
use super::{check_launchable, soa, ExecError, ExecMode};
use crate::machine::MachineConfig;
use crate::sink::{InstrEvent, TraceSink};
use crate::timing::TraceOp;

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
    /// Per global warp, the index of the distinct trace it issued.
    warp_trace: Vec<u32>,
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

    /// The per-warp timing traces of the recorded run, by global warp, as a
    /// [`TraceCapture`](crate::timing::TraceCapture) would capture them:
    /// flat pcs mapped through one [`TraceOp::of`] table of the kernel.
    pub fn timing_traces(&self, machine: &MachineConfig) -> Vec<Vec<TraceOp>> {
        let table: Vec<TraceOp> = self
            .shape
            .iter()
            .flatten()
            .map(|i| TraceOp::of(i, machine))
            .collect();
        self.warp_trace
            .iter()
            .map(|&t| {
                let steps = &self.traces[t as usize].0;
                steps.iter().map(|s| table[s.pc as usize]).collect()
            })
            .collect()
    }
}

/// Records a [`Stream`] from the run it observes (see the module docs).
/// Attach it to a baseline-mode run of the kernel given to
/// [`StreamRecorder::new`], then call [`StreamRecorder::finish`].
#[derive(Debug)]
pub struct StreamRecorder {
    block_start: Vec<usize>,
    shape: Vec<Vec<Instruction>>,
    /// In-flight traces, indexed by global warp id.
    live: Vec<Vec<Step>>,
    traces: Vec<(Vec<Step>, u64)>,
    /// Completed warps' trace indices.
    warp_trace: Vec<u32>,
}

impl StreamRecorder {
    /// A recorder for runs of `kernel`.
    pub fn new(kernel: &Kernel) -> Self {
        StreamRecorder {
            block_start: kernel.block_starts(),
            shape: kernel.blocks.iter().map(|b| b.instrs.clone()).collect(),
            live: Vec::new(),
            traces: Vec::new(),
            warp_trace: Vec::new(),
        }
    }

    /// The recorded stream of every warp that completed.
    pub fn finish(self) -> Stream {
        Stream {
            traces: self.traces,
            warp_trace: self.warp_trace,
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
            pc: (self.block_start[event.at.block.index()] + event.at.index) as u32,
            active: event.active_mask,
            exec: event.exec_mask,
        });
    }

    fn on_warp_done(&mut self, warp: usize) {
        let Some(trace) = self.live.get_mut(warp).map(std::mem::take) else {
            return;
        };
        let found = self.traces.iter().position(|(t, _)| *t == trace);
        let id = found.unwrap_or_else(|| {
            self.traces.push((trace, 0));
            self.traces.len() - 1
        });
        self.traces[id].1 += 1;
        if warp >= self.warp_trace.len() {
            self.warp_trace.resize(warp + 1, u32::MAX);
        }
        self.warp_trace[warp] = id as u32;
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
/// correlates warps — a timing capture, a per-warp profile — cannot be
/// folded; timing reads [`Stream::timing_traces`] instead.
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
    let dk = soa::decode(kernel, &ipdom, machine);
    let plan = match &mode {
        ExecMode::Baseline => None,
        ExecMode::Hierarchy(cfg) => Some(TagPlan::new(&dk, cfg)),
    };
    let mut tags = plan.as_ref().map(Tags::new);
    for (trace, warps) in &stream.traces {
        let mut sink = mk_sink();
        if let (Some(plan), Some(tags)) = (&plan, tags.as_mut()) {
            tags.reset(plan);
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
            if let (Some(plan), Some(tags)) = (&plan, tags.as_mut()) {
                tags.step(plan, step.pc as usize, step.active, step.exec)?;
            }
        }
        sink.on_warp_done(0);
        fold(sink, *warps);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::SwCounter;
    use crate::exec::{execute, execute_with, Launch};
    use crate::mem::GlobalMemory;
    use crate::timing::{CtaMap, TraceCapture};
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

    /// Records a baseline run, checking that the stream's timing traces
    /// equal a capture of the same run.
    fn record(kernel: &Kernel, launch: &Launch) -> (Stream, GlobalMemory, AccessCounts) {
        let machine = MachineConfig::paper();
        let mut mem = GlobalMemory::new(256);
        let mut rec = StreamRecorder::new(kernel);
        let mut sw = SwCounter::default();
        let mut cap = TraceCapture::new(machine.clone(), launch.threads_per_cta);
        execute(
            kernel,
            launch,
            &mut mem,
            ExecMode::Baseline,
            &mut [&mut rec, &mut sw, &mut cap],
        )
        .unwrap();
        let stream = rec.finish();
        assert_eq!(stream.timing_traces(&machine), cap.traces);
        (stream, mem, sw.counts())
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
        // A partial last warp issues different masks: a second trace, and
        // warps 0, 2 and 1, 3 share one in two CTAs.
        let (stream, _, _) = record(&kernel, &Launch::new(2, 40));
        assert_eq!((stream.distinct_traces(), stream.warps()), (2, 4));
        let ctas = CtaMap::new(&MachineConfig::paper(), 40);
        assert_eq!(
            (0..4).map(|w| ctas.cta_of(w)).collect::<Vec<_>>(),
            [0, 0, 1, 1]
        );
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
