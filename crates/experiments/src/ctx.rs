//! The shared experiment context: one workload set, one energy model, and
//! memoized per-cell results.
//!
//! Every figure of the evaluation sweeps some cross-product of
//! (workload × configuration), and the cross-products overlap heavily —
//! `fig12`, `fig13`, `fig14`, `fig15`, `limit`, and `ablation` all visit
//! `AllocConfig::three_level(k, true)` cells, and every experiment needs
//! each workload's single-level baseline. [`ExperimentCtx`] caches
//!
//! * per workload, the baseline access counts, the recorded baseline
//!   instruction [`Stream`], and that stream's issue counts
//!   ([`Stream::issue_counts`]),
//! * SW access counts per (workload, [`AllocConfig`]), kept per strand
//!   (whose sum is what a `SwCounter` counts) so the §7 per-strand oracle
//!   reads the same cell as every other SW experiment,
//! * HW cache access counts per (workload, [`RfcConfig`]),
//!
//! in unbounded [`rfh_rfhd::cache::Store`]s — the same memoization
//! component behind the daemon's kernel cache — so the experiment modules
//! can fan cells out across [`rfh_testkit::pool::par_map`] workers and
//! share one cache with hit/miss statistics for free.
//!
//! The execution contract: each workload is **executed once**. Its
//! baseline cell is one baseline-mode run, verified against the host
//! reference, that also records the run's distinct per-warp traces.
//! Allocation only annotates instructions, so every other cell issues the
//! same dynamic stream:
//!
//! * a SW cell allocates a copy of the kernel, requires the allocation
//!   not to have been demoted (the allocator has validated its
//!   placements), and is **priced** from the workload's one issue-count
//!   vector ([`price_strands`]): each static instruction's access plan
//!   times how often it issued, grouped by strand. Limit's 6-warp cells
//!   and the `on` side of `hints` are priced the same way, unmemoized;
//! * an [`ExperimentCtx::hw_counts_many`] batch [`replay`]s the
//!   dead-annotated kernel once with one [`HwCounter`] per
//!   not-yet-cached configuration (the cache has state, so it cannot be
//!   priced);
//! * `characterize` sums its mix and strand ends from the issue counts and
//!   its divergence from the stream ([`Stream::divergent_instructions`]),
//!   and `perf` expands its timing traces from it
//!   ([`Stream::timing_traces`]).
//!
//! The HW batches are the context's only replays. The tag-checked
//! hierarchy-mode replay is the test oracle of pricing: the context's
//! tests compare the two on every SW cell `repro all` and `hints` fill.
//! [`ExperimentCtx::executions`] counts the real executions; `fig2`, which
//! takes no context, is the one `repro` arm that executes on its own. All
//! cached quantities are deterministic functions of their key; concurrent
//! computation of the same key is benign (first writer wins, results are
//! identical) but does the work twice, so the experiments request each
//! cell from one pool item.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rfh_alloc::AllocConfig;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::Kernel;
use rfh_rfhd::cache::{CacheStats, Store};
use rfh_sim::counts::{price_strands, SwCounter};
use rfh_sim::exec::{replay, ExecMode, Stream, StreamRecorder};
use rfh_sim::machine::MachineConfig;
use rfh_sim::rfc::{HwCounter, RfcConfig};
use rfh_sim::sink::{InstrEvent, TraceSink};
use rfh_testkit::pool::par_map;
use rfh_workloads::Workload;

use crate::runner;

/// Memoized experiment state over one workload set (see module docs).
pub struct ExperimentCtx<'w> {
    workloads: &'w [Workload],
    model: EnergyModel,
    baselines: Vec<OnceLock<Baseline>>,
    sw: Store<(usize, AllocConfig), SwCell>,
    hw: Store<(usize, RfcConfig), AccessCounts>,
    executions: AtomicU64,
}

/// One workload's baseline cell: the counts and recorded stream of its one
/// verified run, and the stream's issue counts every SW cell is priced
/// from.
struct Baseline {
    counts: AccessCounts,
    stream: Stream,
    issues: Vec<u64>,
}

/// One SW cell: the priced per-strand counts and their sum.
#[derive(Clone)]
struct SwCell {
    total: AccessCounts,
    per_strand: Arc<[AccessCounts]>,
}

/// One HW batch: a counter per configuration, observing the same trace.
#[derive(Clone)]
struct HwBatch(Vec<HwCounter>);

impl TraceSink for HwBatch {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        for c in &mut self.0 {
            c.on_instr(event);
        }
    }

    fn on_warp_done(&mut self, warp: usize) {
        for c in &mut self.0 {
            c.on_warp_done(warp);
        }
    }
}

impl<'w> ExperimentCtx<'w> {
    /// A fresh context over `workloads` with the paper's energy model.
    pub fn new(workloads: &'w [Workload]) -> Self {
        ExperimentCtx {
            workloads,
            model: EnergyModel::paper(),
            baselines: workloads.iter().map(|_| OnceLock::new()).collect(),
            sw: Store::unbounded(),
            hw: Store::unbounded(),
            executions: AtomicU64::new(0),
        }
    }

    /// The workload set this context memoizes over.
    pub fn workloads(&self) -> &'w [Workload] {
        self.workloads
    }

    /// The energy model shared by every experiment.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// The baseline cell of workload `i`: one verified baseline-mode run,
    /// counted and recorded on first use and shared by every subsequent
    /// caller (and thread).
    fn baseline_cell(&self, i: usize) -> &Baseline {
        self.baselines[i].get_or_init(|| {
            self.executions.fetch_add(1, Ordering::Relaxed);
            let w = &self.workloads[i];
            let mut counter = SwCounter::default();
            let mut recorder = StreamRecorder::new(&w.kernel);
            w.run_and_verify(
                ExecMode::Baseline,
                &w.kernel,
                &mut [&mut counter, &mut recorder],
            )
            .unwrap_or_else(|e| panic!("baseline run failed: {e}"));
            let stream = recorder.finish();
            Baseline {
                counts: counter.counts(),
                issues: stream.issue_counts(),
                stream,
            }
        })
    }

    /// The recorded baseline stream of workload `i`.
    pub(crate) fn stream(&self, i: usize) -> &Stream {
        &self.baseline_cell(i).stream
    }

    /// How often each static instruction of workload `i` issued in its
    /// baseline run, indexed by flat pc ([`Stream::issue_counts`]).
    pub(crate) fn issue_counts(&self, i: usize) -> &[u64] {
        &self.baseline_cell(i).issues
    }

    /// Single-level baseline access counts of workload `i`, equal to
    /// [`runner::baseline_counts`].
    ///
    /// # Panics
    ///
    /// As for [`runner::baseline_counts`]; also if `i` is out of range.
    pub fn baseline(&self, i: usize) -> AccessCounts {
        self.baseline_cell(i).counts
    }

    /// SW access counts of workload `i` under `cfg`, memoized per
    /// (workload, config): the sum of [`Self::sw_strand_counts`], equal to
    /// [`runner::sw_counts`].
    ///
    /// # Panics
    ///
    /// As for [`Self::allocated`] — toolchain bugs.
    pub fn sw_counts(&self, i: usize, cfg: &AllocConfig) -> AccessCounts {
        self.sw_cell(i, cfg).total
    }

    /// The per-strand counts behind [`Self::sw_counts`] (indexed by strand
    /// of the allocated kernel), from the same memoized pricing.
    ///
    /// # Panics
    ///
    /// As for [`Self::sw_counts`].
    pub fn sw_strand_counts(&self, i: usize, cfg: &AllocConfig) -> Arc<[AccessCounts]> {
        self.sw_cell(i, cfg).per_strand
    }

    fn sw_cell(&self, i: usize, cfg: &AllocConfig) -> SwCell {
        self.sw.get_or_insert_with((i, *cfg), || {
            let per_strand = self.priced_strand_counts(i, cfg, &self.model);
            SwCell {
                total: per_strand
                    .iter()
                    .fold(AccessCounts::default(), |a, b| a + *b),
                per_strand: per_strand.into(),
            }
        })
    }

    /// Per-strand SW counts of workload `i` allocated under `cfg` with
    /// `model`, priced from the workload's issue counts. Not memoized: the
    /// allocated kernel is dropped on return.
    ///
    /// # Panics
    ///
    /// As for [`Self::allocated`].
    pub(crate) fn priced_strand_counts(
        &self,
        i: usize,
        cfg: &AllocConfig,
        model: &EnergyModel,
    ) -> Vec<AccessCounts> {
        self.price(i, &self.allocated(i, cfg, model, false))
    }

    /// A copy of workload `i`'s kernel allocated under `cfg` with `model`,
    /// with the abstract-interpreter last-use hints when `hints` is set.
    /// [`rfh_alloc::allocate`] has validated the placements it returns, so
    /// the one failure left to check is a demotion: the allocator's own
    /// output failed validation and it fell back to MRF-only placement,
    /// whose counts would silently stand in for the configuration's.
    ///
    /// # Panics
    ///
    /// If allocation fails or demotes the kernel (allocator bugs), naming
    /// the workload and configuration.
    pub(crate) fn allocated(
        &self,
        i: usize,
        cfg: &AllocConfig,
        model: &EnergyModel,
        hints: bool,
    ) -> Kernel {
        let name = &self.workloads[i].name;
        let mut kernel = self.workloads[i].kernel.clone();
        let stats = rfh_alloc::allocate_with_hints(&mut kernel, cfg, model, hints)
            .unwrap_or_else(|e| panic!("{name}: allocation under {cfg} failed: {e}"));
        assert!(
            stats.demoted == 0,
            "{name}: allocation under {cfg} demoted to MRF-only placement"
        );
        kernel
    }

    /// Per-strand SW counts of `kernel`, an allocated copy of workload
    /// `i`'s kernel, priced from the workload's issue counts
    /// ([`price_strands`]).
    ///
    /// # Panics
    ///
    /// If `kernel` is not of the workload kernel's shape, naming the
    /// workload.
    pub(crate) fn price(&self, i: usize, kernel: &Kernel) -> Vec<AccessCounts> {
        let base = self.baseline_cell(i);
        price_strands(kernel, &base.stream, &base.issues)
            .unwrap_or_else(|e| panic!("{}: pricing failed: {e}", self.workloads[i].name))
    }

    /// Hardware-cache access counts of workload `i` under `cfg`, memoized
    /// per (workload, config): [`Self::hw_counts_many`] of one config.
    ///
    /// # Panics
    ///
    /// As for [`Self::hw_counts_many`].
    pub fn hw_counts(&self, i: usize, cfg: &RfcConfig) -> AccessCounts {
        self.hw_counts_many(i, std::slice::from_ref(cfg))[0]
    }

    /// Hardware-cache access counts of workload `i` under each of `cfgs`,
    /// in `cfgs` order, each equal to [`runner::hw_counts`]. The configs
    /// not yet cached (deduplicated) are counted together by one
    /// baseline-mode replay of the dead-annotated kernel; cached ones cost
    /// nothing.
    ///
    /// # Panics
    ///
    /// As for [`runner::baseline_counts`].
    pub fn hw_counts_many(&self, i: usize, cfgs: &[RfcConfig]) -> Vec<AccessCounts> {
        let mut out: Vec<Option<AccessCounts>> =
            cfgs.iter().map(|cfg| self.hw.get(&(i, *cfg))).collect();
        let mut missing: Vec<RfcConfig> = Vec::new();
        for (cfg, found) in cfgs.iter().zip(&out) {
            if found.is_none() && !missing.contains(cfg) {
                missing.push(*cfg);
            }
        }
        if !missing.is_empty() {
            let fresh = self.replay_hw_counts(i, &missing);
            for (cfg, counts) in missing.iter().zip(fresh) {
                let counts = self.hw.insert((i, *cfg), counts);
                for (want, slot) in cfgs.iter().zip(out.iter_mut()) {
                    if want == cfg {
                        *slot = Some(counts);
                    }
                }
            }
        }
        out.into_iter()
            .map(|c| c.expect("every config is cached or freshly counted"))
            .collect()
    }

    /// The `[HW, SW]` panels of a sweep over upper-level sizes 1–8: per
    /// size, every workload's (counts, baseline) pair in workload order.
    /// The HW configs `hw(1..=8)` of a workload are one
    /// [`Self::hw_counts_many`] batch; the (size × workload) SW cells
    /// `sw(size)` fan out over the `RFH_JOBS` pool.
    pub(crate) fn entry_sweep(
        &self,
        hw: fn(usize) -> RfcConfig,
        sw: fn(usize) -> AllocConfig,
    ) -> [Vec<Vec<(AccessCounts, AccessCounts)>>; 2] {
        let n = self.workloads.len();
        let idx: Vec<usize> = (0..n).collect();
        let hw_cfgs: Vec<RfcConfig> = (1..=8usize).map(hw).collect();
        let hw_counted: Vec<(Vec<AccessCounts>, AccessCounts)> = par_map(&idx, |&i| {
            (self.hw_counts_many(i, &hw_cfgs), self.baseline(i))
        });
        let cells: Vec<(usize, usize)> = (1..=8usize)
            .flat_map(|entries| (0..n).map(move |i| (entries, i)))
            .collect();
        let counted: Vec<[(AccessCounts, AccessCounts); 2]> = par_map(&cells, |&(entries, i)| {
            let (hw, b) = &hw_counted[i];
            [(hw[entries - 1], *b), (self.sw_counts(i, &sw(entries)), *b)]
        });
        [0, 1].map(|s| {
            (counted.chunks(n))
                .map(|per_entry| per_entry.iter().map(|c| c[s]).collect())
                .collect()
        })
    }

    fn replay_hw_counts(&self, i: usize, cfgs: &[RfcConfig]) -> Vec<AccessCounts> {
        let kernel = runner::dead_annotated(&self.workloads[i].kernel);
        let batch = HwBatch(cfgs.iter().map(|c| HwCounter::new(*c, &kernel)).collect());
        let mut totals = vec![AccessCounts::default(); cfgs.len()];
        replay(
            &kernel,
            self.stream(i),
            ExecMode::Baseline,
            &MachineConfig::paper(),
            || batch.clone(),
            |b, warps| {
                for (sum, c) in totals.iter_mut().zip(&b.0) {
                    *sum += c.counts() * warps;
                }
            },
        )
        .unwrap_or_else(|e| panic!("{}: replay failed: {e}", self.workloads[i].name));
        totals
    }

    /// Verified executions this context has performed: one baseline run
    /// per workload touched, however many cells were priced or replayed
    /// from it. An observation of how much work the sweeps shared, like
    /// [`Self::cache_stats`].
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Per-benchmark normalized energy of SW counts against the memoized
    /// baseline: `energy(sw(i, cfg)) / energy(baseline(i))`.
    ///
    /// # Panics
    ///
    /// As for [`runner::normalized_energy`] (the ORF size contract) and
    /// [`Self::sw_counts`].
    pub fn sw_normalized(&self, i: usize, cfg: &AllocConfig) -> f64 {
        runner::normalized_energy(
            &self.sw_counts(i, cfg),
            &self.baseline(i),
            &self.model,
            cfg.orf_entries,
        )
    }

    /// Snapshots of the two cell caches' counters, in the order (SW
    /// counts, HW counts) — observability into how much sharing a sweep
    /// actually got.
    pub fn cache_stats(&self) -> [CacheStats; 2] {
        [self.sw.stats(), self.hw.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_sim::counts::StrandCounter;

    fn workloads() -> Vec<Workload> {
        by_names(&["vectoradd", "scalarprod"])
    }

    fn by_names(names: &[&str]) -> Vec<Workload> {
        names
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
    }

    /// Workloads with divergent warps and distinct per-warp traces.
    fn divergent() -> Vec<Workload> {
        by_names(&["mandelbrot", "reduction", "histogram", "sobolqrng"])
    }

    #[test]
    fn memoized_results_match_direct_computation() {
        let ws = workloads();
        let ctx = ExperimentCtx::new(&ws);
        let cfg = AllocConfig::three_level(3, true);
        let rfc = RfcConfig::two_level(6);
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(ctx.baseline(i), runner::baseline_counts(w));
            assert_eq!(
                ctx.sw_counts(i, &cfg),
                runner::sw_counts(w, &cfg, ctx.model())
            );
            assert_eq!(ctx.hw_counts(i, &rfc), runner::hw_counts(w, &rfc));
            // Second lookups hit the caches and agree exactly.
            assert_eq!(ctx.baseline(i), ctx.baseline(i));
            assert_eq!(ctx.sw_counts(i, &cfg), ctx.sw_counts(i, &cfg));
        }
        let [sw, _hw] = ctx.cache_stats();
        assert!(sw.hits >= ws.len() as u64, "second lookups hit the cache");
        assert_eq!(sw.entries, ws.len());
    }

    #[test]
    fn concurrent_lookups_of_one_cell_agree() {
        let ws = workloads();
        let ctx = ExperimentCtx::new(&ws);
        let cfg = AllocConfig::two_level(3);
        let hits: Vec<(AccessCounts, AccessCounts)> =
            par_map(&[0usize; 16], |_| (ctx.baseline(0), ctx.sw_counts(0, &cfg)));
        assert!(hits.windows(2).all(|p| p[0] == p[1]));
        let [sw, _] = ctx.cache_stats();
        assert_eq!(sw.entries, 1, "sixteen lookups share one cell");
    }

    /// The 18 distinct HW configurations `repro all` counts: two-level and
    /// three-level at 1–8 entries, flush-at-backedge, allocate-on-read-miss.
    fn figure_rfc_configs() -> Vec<RfcConfig> {
        let mut cfgs: Vec<RfcConfig> = (1..=8)
            .flat_map(|e| [RfcConfig::two_level(e), RfcConfig::three_level(e)])
            .collect();
        cfgs.push(RfcConfig {
            flush_on_backward_branch: true,
            ..RfcConfig::two_level(6)
        });
        cfgs.push(RfcConfig {
            allocate_on_read_miss: true,
            ..RfcConfig::two_level(6)
        });
        cfgs
    }

    /// The 22 SW configurations `repro all` memoizes: two-level and split
    /// three-level at 1–8 entries, unified three-level at 3,
    /// ideal-no-deschedule, and ablation's four variants of the best
    /// design. `repro_sweeps_execute_each_cell_once` pins that these are
    /// exactly the cells the arms fill.
    fn figure_alloc_configs() -> Vec<AllocConfig> {
        let best = AllocConfig::three_level(3, true);
        let mut cfgs: Vec<AllocConfig> = (1..=8)
            .flat_map(|e| [AllocConfig::two_level(e), AllocConfig::three_level(e, true)])
            .collect();
        cfgs.push(AllocConfig::three_level(3, false));
        cfgs.extend([
            AllocConfig {
                ideal_no_deschedule_split: true,
                ..best
            },
            AllocConfig {
                partial_ranges: false,
                ..best
            },
            AllocConfig {
                read_operands: false,
                ..best
            },
            AllocConfig {
                partial_ranges: false,
                read_operands: false,
                ..best
            },
            AllocConfig {
                occupancy_priority: false,
                ..best
            },
        ]);
        cfgs
    }

    /// Per-strand counts of `kernel`, an allocated copy of workload `i`'s
    /// kernel, by a tag-checked hierarchy-mode [`StrandCounter`] replay
    /// of the recorded baseline stream: the oracle pricing is checked
    /// against.
    fn replayed_strand_counts(
        ctx: &ExperimentCtx,
        i: usize,
        kernel: &Kernel,
        cfg: &AllocConfig,
    ) -> Vec<AccessCounts> {
        let counter = StrandCounter::new(kernel);
        let mut per_strand = vec![AccessCounts::default(); counter.per_strand().len()];
        replay(
            kernel,
            ctx.stream(i),
            ExecMode::Hierarchy(*cfg),
            &MachineConfig::paper(),
            || counter.clone(),
            |c, warps| {
                for (sum, s) in per_strand.iter_mut().zip(c.per_strand()) {
                    *sum += *s * warps;
                }
            },
        )
        .unwrap_or_else(|e| panic!("{}: replay failed: {e}", ctx.workloads()[i].name));
        per_strand
    }

    #[test]
    fn priced_sw_cells_equal_tag_checked_replays() {
        // Every SW cell `repro all` and `hints` fill, on every workload:
        // the 22 memoized configurations, limit's eight split three-level
        // cells under the 6-warp model, and hints' `on` kernel.
        let ws = rfh_workloads::all();
        let ctx = ExperimentCtx::new(&ws);
        let model6 = crate::limit::six_warp_model(ctx.model());
        let best = AllocConfig::three_level(3, true);
        let mut cells: Vec<(AllocConfig, &EnergyModel, bool)> = figure_alloc_configs()
            .into_iter()
            .map(|cfg| (cfg, ctx.model(), false))
            .collect();
        cells.extend((1..=8).map(|k| (AllocConfig::three_level(k, true), &model6, false)));
        cells.push((best, ctx.model(), true));
        assert_eq!(cells.len(), 31);
        let idx: Vec<usize> = (0..ws.len()).collect();
        par_map(&idx, |&i| {
            for &(cfg, model, hints) in &cells {
                let kernel = ctx.allocated(i, &cfg, model, hints);
                let replayed = replayed_strand_counts(&ctx, i, &kernel, &cfg);
                let priced = ctx.price(i, &kernel);
                let cell = format!(
                    "{} {cfg} hints={hints} 6-warp={}",
                    ws[i].name,
                    model == &model6
                );
                assert_eq!(priced, replayed, "{cell}");
                if model == ctx.model() && !hints {
                    assert_eq!(*ctx.sw_strand_counts(i, &cfg), *priced, "{cell}");
                }
            }
        });
        assert_eq!(ctx.executions(), 35);
    }

    #[test]
    fn issue_counts_equal_a_pc_counting_sink() {
        /// Counts the warp instructions issued at each flat pc.
        struct PcCounter {
            block_start: Vec<usize>,
            counts: Vec<u64>,
        }
        impl TraceSink for PcCounter {
            fn on_instr(&mut self, event: &InstrEvent<'_>) {
                self.counts[self.block_start[event.at.block.index()] + event.at.index] += 1;
            }
        }
        let ws = divergent();
        let ctx = ExperimentCtx::new(&ws);
        for (i, w) in ws.iter().enumerate() {
            let mut pcs = PcCounter {
                block_start: w.kernel.block_starts(),
                counts: vec![0; w.kernel.iter_instrs().count()],
            };
            w.run_and_verify(ExecMode::Baseline, &w.kernel, &mut [&mut pcs])
                .unwrap();
            assert_eq!(ctx.issue_counts(i), pcs.counts, "{}", w.name);
            assert!(
                ctx.stream(i).distinct_traces() > 1,
                "{}: divergent warps issue distinct traces",
                w.name
            );
        }
    }

    #[test]
    fn batched_hw_counts_equal_per_config_runs() {
        let mut ws = by_names(&["vectoradd", "needle"]);
        ws.extend(divergent());
        let ctx = ExperimentCtx::new(&ws);
        let cfgs = figure_rfc_configs();
        // Cache two configs first, then ask for all 18 with both cached
        // ones and a duplicate in the request: same counts, no execution.
        let mut request = vec![cfgs[5], cfgs[5]];
        request.extend(&cfgs);
        request.push(cfgs[17]);
        for (i, w) in ws.iter().enumerate() {
            let separate: Vec<AccessCounts> =
                cfgs.iter().map(|c| runner::hw_counts(w, c)).collect();
            assert_eq!(ctx.hw_counts(i, &cfgs[5]), separate[5]);
            assert_eq!(ctx.hw_counts(i, &cfgs[12]), separate[12]);
            let batched = ctx.hw_counts_many(i, &request);
            let want: Vec<AccessCounts> = request
                .iter()
                .map(|c| separate[cfgs.iter().position(|x| x == c).unwrap()])
                .collect();
            assert_eq!(batched, want, "{}", w.name);
            // Everything is cached now.
            assert_eq!(ctx.hw_counts_many(i, &request), want);
        }
        assert_eq!(ctx.executions(), ws.len() as u64, "one run per workload");
        let [_, hw] = ctx.cache_stats();
        assert_eq!(hw.entries, ws.len() * cfgs.len());
    }

    #[test]
    fn suite_warps_collapse_to_their_distinct_traces() {
        // Every other workload's 32 warps issue one trace; sobolqrng's
        // warps are all distinct.
        const MULTI: [(&str, usize); 7] = [
            ("reduction", 6),
            ("histogram", 15),
            ("sobelfilter", 3),
            ("hotspot", 3),
            ("srad", 3),
            ("mandelbrot", 17),
            ("sobolqrng", 32),
        ];
        let ws = rfh_workloads::all();
        let ctx = ExperimentCtx::new(&ws);
        let (mut traces, mut warps, mut issued, mut replayed) = (0, 0, 0, 0);
        for (i, w) in ws.iter().enumerate() {
            let stream = ctx.stream(i);
            let want = MULTI
                .iter()
                .find(|(name, _)| *name == w.name)
                .map_or(1, |&(_, n)| n);
            assert_eq!(stream.distinct_traces(), want, "{}", w.name);
            assert_eq!(stream.warps(), 32, "{}", w.name);
            let priced: u64 = ctx.issue_counts(i).iter().sum();
            assert_eq!(priced, stream.warp_instructions(), "{}", w.name);
            traces += stream.distinct_traces();
            warps += stream.warps();
            issued += priced;
            replayed += stream.replayed_instructions();
        }
        assert_eq!((ws.len(), warps, traces), (35, 1120, 107));
        assert_eq!((issued, replayed), (181_301, 16_962));
    }

    #[test]
    fn sw_cells_equal_fresh_sw_counter_runs() {
        let mut ws = workloads();
        ws.extend(divergent());
        let ctx = ExperimentCtx::new(&ws);
        for (i, w) in ws.iter().enumerate() {
            for cfg in figure_alloc_configs() {
                let mut kernel = w.kernel.clone();
                rfh_alloc::allocate(&mut kernel, &cfg, ctx.model()).unwrap();
                let mut executed = StrandCounter::new(&kernel);
                w.run_and_verify(ExecMode::Hierarchy(cfg), &kernel, &mut [&mut executed])
                    .unwrap();
                assert_eq!(
                    &*ctx.sw_strand_counts(i, &cfg),
                    executed.per_strand(),
                    "{} {cfg:?}",
                    w.name
                );
                assert_eq!(ctx.sw_counts(i, &cfg), executed.total());
            }
        }
        assert_eq!(ctx.executions(), ws.len() as u64, "one run per workload");
    }

    #[test]
    fn fig11_counts_each_workload_hw_sweep_in_one_run() {
        let ws = by_names(&["vectoradd", "scalarprod", "mandelbrot", "needle"]);
        let ctx = ExperimentCtx::new(&ws);
        crate::fig11::run(&ctx);
        // One baseline run per workload: the HW batch replays it, and the
        // eight SW cells are priced from its issue counts.
        assert_eq!(ctx.executions(), 4);
    }

    #[test]
    fn repro_sweeps_execute_each_cell_once() {
        let ws = workloads();
        let ctx = ExperimentCtx::new(&ws);
        crate::fig11::run(&ctx);
        crate::fig12::run(&ctx);
        crate::fig13::run(&ctx);
        crate::fig13::split_vs_unified(&ctx, 3);
        crate::fig14::run(&ctx);
        crate::fig15::run(&ctx);
        crate::limit::run(&ctx);
        crate::ablation::run(&ctx);
        crate::characterize::run(&ctx);
        crate::perf::run(&ctx, &[2, 8]);
        crate::hints::run(&ctx);
        // Per workload: 1 baseline run. Its 4 HW batches (fig11, fig12,
        // limit's flush variant, ablation's read-miss variant) replay it,
        // perf expands its timing traces, and characterize, its 22 SW
        // cells, limit's 8 cells under the 6-warp model and hints' `on`
        // kernel read its issue counts.
        assert_eq!(ctx.executions(), ws.len() as u64);
        let [sw, hw] = ctx.cache_stats();
        assert_eq!(sw.entries, 22 * ws.len());
        assert_eq!(hw.entries, 18 * ws.len());
        // The filled SW cells are exactly the oracle test's 22 configs.
        for i in 0..ws.len() {
            for cfg in figure_alloc_configs() {
                ctx.sw_counts(i, &cfg);
            }
        }
        let [after, _] = ctx.cache_stats();
        assert_eq!((after.entries, after.misses), (sw.entries, sw.misses));
    }
}
