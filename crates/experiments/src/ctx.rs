//! The shared experiment context: one workload set, one energy model, and
//! memoized per-cell results.
//!
//! Every figure of the evaluation sweeps some cross-product of
//! (workload × configuration), and the cross-products overlap heavily —
//! `fig12`, `fig13`, `fig14`, `fig15`, `limit`, and `ablation` all visit
//! `AllocConfig::three_level(k, true)` cells, and every experiment needs
//! each workload's single-level baseline. [`ExperimentCtx`] caches
//!
//! * baseline access counts per workload,
//! * allocated kernels per (workload, [`AllocConfig`]),
//! * hierarchy-faithful SW access counts per (workload, [`AllocConfig`]),
//!   kept per strand (a [`StrandCounter`](rfh_sim::counts::StrandCounter)
//!   run, whose sum is what a `SwCounter` counts) so the §7 per-strand
//!   oracle reads the same cell as every other SW experiment,
//! * HW cache access counts per (workload, [`RfcConfig`]),
//!
//! in unbounded [`rfh_rfhd::cache::Store`]s — the same memoization
//! component behind the daemon's kernel cache — so the experiment modules
//! can fan cells out across [`rfh_testkit::pool::par_map`] workers and
//! share one cache with hit/miss statistics for free.
//!
//! The execution contract: each baseline is one baseline-mode run, each
//! SW cell is one hierarchy run of its own allocated kernel, and each
//! [`ExperimentCtx::hw_counts_many`] batch is one baseline-mode run that
//! counts every not-yet-cached HW configuration at once (the HW configs
//! only change how the same dynamic instruction stream is counted). Every
//! run is verified against the workload's host reference;
//! [`ExperimentCtx::executions`] counts them. All cached quantities are
//! deterministic functions of their key; concurrent computation of the
//! same key is benign (first writer wins, results are identical) but
//! executes twice, so the experiments request each cell from one pool
//! item.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rfh_alloc::AllocConfig;
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::Kernel;
use rfh_rfhd::cache::{CacheStats, Store};
use rfh_sim::rfc::RfcConfig;
use rfh_workloads::Workload;

use crate::runner;

/// Memoized experiment state over one workload set (see module docs).
pub struct ExperimentCtx<'w> {
    workloads: &'w [Workload],
    model: EnergyModel,
    baselines: Vec<OnceLock<AccessCounts>>,
    kernels: Store<(usize, AllocConfig), Arc<Kernel>>,
    sw: Store<(usize, AllocConfig), SwCell>,
    hw: Store<(usize, RfcConfig), AccessCounts>,
    executions: AtomicU64,
}

/// One SW cell: the per-strand counts of one hierarchy run and their sum.
#[derive(Clone)]
struct SwCell {
    total: AccessCounts,
    per_strand: Arc<[AccessCounts]>,
}

impl<'w> ExperimentCtx<'w> {
    /// A fresh context over `workloads` with the paper's energy model.
    pub fn new(workloads: &'w [Workload]) -> Self {
        ExperimentCtx {
            workloads,
            model: EnergyModel::paper(),
            baselines: workloads.iter().map(|_| OnceLock::new()).collect(),
            kernels: Store::unbounded(),
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

    /// Single-level baseline access counts of workload `i`, computed on
    /// first use and shared by every subsequent caller (and thread).
    ///
    /// # Panics
    ///
    /// As for [`runner::baseline_counts`]; also if `i` is out of range.
    pub fn baseline(&self, i: usize) -> AccessCounts {
        *self.baselines[i].get_or_init(|| {
            self.executions.fetch_add(1, Ordering::Relaxed);
            runner::baseline_counts(&self.workloads[i])
        })
    }

    /// The kernel of workload `i` allocated under `cfg` (with this
    /// context's model), memoized per (workload, config).
    ///
    /// # Panics
    ///
    /// Panics if allocation fails — a toolchain bug, as for
    /// [`runner::sw_counts`].
    pub fn allocated(&self, i: usize, cfg: &AllocConfig) -> Arc<Kernel> {
        // The store runs the computation outside its lock, so a slow
        // allocation does not serialize the pool; a concurrent duplicate
        // is benign (the allocator is deterministic, first insert wins).
        self.kernels.get_or_insert_with((i, *cfg), || {
            let mut kernel = self.workloads[i].kernel.clone();
            rfh_alloc::allocate(&mut kernel, cfg, &self.model)
                .unwrap_or_else(|e| panic!("allocation failed: {e}"));
            Arc::new(kernel)
        })
    }

    /// Hierarchy-faithful SW access counts of workload `i` under `cfg`,
    /// memoized per (workload, config): the sum of
    /// [`Self::sw_strand_counts`], equal to a `SwCounter` over the same
    /// run. Uses [`Self::allocated`], so the allocation itself is also
    /// shared.
    ///
    /// # Panics
    ///
    /// As for [`runner::sw_counts`].
    pub fn sw_counts(&self, i: usize, cfg: &AllocConfig) -> AccessCounts {
        self.sw_cell(i, cfg).total
    }

    /// The per-strand counts behind [`Self::sw_counts`] (indexed by strand
    /// of the allocated kernel), from the same memoized run.
    ///
    /// # Panics
    ///
    /// As for [`runner::sw_counts`].
    pub fn sw_strand_counts(&self, i: usize, cfg: &AllocConfig) -> Arc<[AccessCounts]> {
        self.sw_cell(i, cfg).per_strand
    }

    fn sw_cell(&self, i: usize, cfg: &AllocConfig) -> SwCell {
        self.sw.get_or_insert_with((i, *cfg), || {
            let kernel = self.allocated(i, cfg);
            self.executions.fetch_add(1, Ordering::Relaxed);
            let counter = runner::strand_counter(&self.workloads[i], &kernel, cfg);
            SwCell {
                total: counter.total(),
                per_strand: counter.per_strand().into(),
            }
        })
    }

    /// Hardware-cache access counts of workload `i` under `cfg`, memoized
    /// per (workload, config): [`Self::hw_counts_many`] of one config.
    ///
    /// # Panics
    ///
    /// As for [`runner::hw_counts`].
    pub fn hw_counts(&self, i: usize, cfg: &RfcConfig) -> AccessCounts {
        self.hw_counts_many(i, std::slice::from_ref(cfg))[0]
    }

    /// Hardware-cache access counts of workload `i` under each of `cfgs`,
    /// in `cfgs` order. The configs not yet cached (deduplicated) are
    /// counted together by one verified execution
    /// ([`runner::hw_counts_many`]); cached ones cost no execution.
    ///
    /// # Panics
    ///
    /// As for [`runner::hw_counts`].
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
            self.executions.fetch_add(1, Ordering::Relaxed);
            let fresh = runner::hw_counts_many(&self.workloads[i], &missing);
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

    /// Verified executions this context has performed to fill its cells:
    /// one per baseline, one per SW cell, one per HW batch. An observation
    /// of how much work the sweeps shared, like [`Self::cache_stats`].
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

    /// Snapshots of the three cell caches' counters, in the order
    /// (allocated kernels, SW counts, HW counts) — observability into how
    /// much sharing a sweep actually got.
    pub fn cache_stats(&self) -> [CacheStats; 3] {
        [self.kernels.stats(), self.sw.stats(), self.hw.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_testkit::pool::par_map;

    fn workloads() -> Vec<Workload> {
        ["vectoradd", "scalarprod"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect()
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
        let [kernels, sw, _hw] = ctx.cache_stats();
        assert_eq!(kernels.entries, ws.len(), "one allocation per workload");
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
        let [_, sw, _] = ctx.cache_stats();
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

    #[test]
    fn batched_hw_counts_equal_per_config_runs() {
        let ws: Vec<Workload> = ["vectoradd", "mandelbrot", "needle"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect();
        let ctx = ExperimentCtx::new(&ws);
        let cfgs = figure_rfc_configs();
        // Cache two configs first, then ask for all 18 with both cached
        // ones and a duplicate in the request: one more run, same counts.
        let mut request = vec![cfgs[5], cfgs[5]];
        request.extend(&cfgs);
        request.push(cfgs[17]);
        for (i, w) in ws.iter().enumerate() {
            let separate: Vec<AccessCounts> =
                cfgs.iter().map(|c| runner::hw_counts(w, c)).collect();
            assert_eq!(runner::hw_counts_many(w, &cfgs), separate);

            assert_eq!(ctx.hw_counts(i, &cfgs[5]), separate[5]);
            assert_eq!(ctx.hw_counts(i, &cfgs[12]), separate[12]);
            let before = ctx.executions();
            let batched = ctx.hw_counts_many(i, &request);
            assert_eq!(
                ctx.executions(),
                before + 1,
                "one run for 16 missing configs"
            );
            let want: Vec<AccessCounts> = request
                .iter()
                .map(|c| separate[cfgs.iter().position(|x| x == c).unwrap()])
                .collect();
            assert_eq!(batched, want, "{}", w.name);
            // Everything is cached now.
            assert_eq!(ctx.hw_counts_many(i, &request), want);
            assert_eq!(ctx.executions(), before + 1);
        }
        assert!(runner::hw_counts_many(&ws[0], &[]).is_empty());
        let [_, _, hw] = ctx.cache_stats();
        assert_eq!(hw.entries, ws.len() * cfgs.len());
    }

    #[test]
    fn sw_cells_equal_fresh_sw_counter_runs() {
        let ws = workloads();
        let ctx = ExperimentCtx::new(&ws);
        let cfgs = [
            AllocConfig::two_level(1),
            AllocConfig::two_level(4),
            AllocConfig::three_level(3, true),
            AllocConfig::three_level(8, false),
            AllocConfig {
                ideal_no_deschedule_split: true,
                ..AllocConfig::three_level(3, true)
            },
        ];
        for (i, w) in ws.iter().enumerate() {
            for cfg in &cfgs {
                let fresh = runner::sw_counts(w, cfg, ctx.model());
                assert_eq!(ctx.sw_counts(i, cfg), fresh, "{} {cfg:?}", w.name);
                let per_strand = ctx.sw_strand_counts(i, cfg);
                let sum = per_strand
                    .iter()
                    .fold(AccessCounts::default(), |a, b| a + *b);
                assert_eq!(sum, fresh, "per-strand counts sum to the SwCounter total");
            }
        }
        assert_eq!(ctx.executions(), (ws.len() * cfgs.len()) as u64);
    }

    #[test]
    fn fig11_counts_each_workload_hw_sweep_in_one_run() {
        let ws: Vec<Workload> = ["vectoradd", "scalarprod", "mandelbrot", "needle"]
            .iter()
            .map(|n| rfh_workloads::by_name(n).unwrap())
            .collect();
        let ctx = ExperimentCtx::new(&ws);
        crate::fig11::run(&ctx);
        // 4 baselines + 4 HW batches of eight sizes + 32 SW cells (one HW
        // run per size would make it 68).
        assert_eq!(ctx.executions(), 40);
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
        // Per workload: 1 baseline, 4 HW batches (fig11, fig12, limit's
        // flush variant, ablation's read-miss variant), 22 SW cells.
        assert_eq!(ctx.executions(), 27 * ws.len() as u64);
    }

    #[test]
    fn allocated_kernels_are_shared() {
        let ws = workloads();
        let ctx = ExperimentCtx::new(&ws);
        let cfg = AllocConfig::three_level(3, true);
        let a = ctx.allocated(0, &cfg);
        let b = ctx.allocated(0, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the kernel");
    }
}
