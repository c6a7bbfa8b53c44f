//! Iteration timelines with checkpointing — Figs. 11 and 12.
//!
//! A [`TimelineModel`] combines the compute model (F&B window), the
//! sharding planner (per-rank/per-node checkpoint volumes) and the storage
//! bandwidths into the per-phase durations of one training iteration that
//! takes a checkpoint, for each of the paper's three methods:
//!
//! * **Baseline** — blocking save with Megatron-DeepSpeed sharding;
//! * **Base-Async** — asynchronous two-phase checkpointing, still full
//!   states and baseline sharding;
//! * **MoC-Async** — PEC + fully sharded + asynchronous two-level
//!   management.

use crate::compute::{ComputeModel, IterationWorkload};
use crate::hardware::ClusterSpec;
use moc_core::selection::PecConfig;
use moc_core::sharding::{CheckpointWorkload, ShardingPlanner, ShardingStrategy};
use moc_core::topology::ParallelTopology;
use moc_moe::MoeModelConfig;

/// Fixed software overhead of triggering an asynchronous checkpoint
/// (thread handoff, bookkeeping) that cannot be overlapped.
pub const ASYNC_SYNC_OVERHEAD_SEC: f64 = 0.06;

/// One of the paper's checkpointing methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSpec {
    /// Display label.
    pub label: &'static str,
    /// Whether saving blocks training (vs asynchronous overlap).
    pub blocking: bool,
    /// Parameter-sharding strategy.
    pub strategy: ShardingStrategy,
    /// `K_snapshot` (`None` = save all experts).
    pub k_snapshot: Option<usize>,
    /// `K_persist` (`None` = persist all snapshotted experts).
    pub k_persist: Option<usize>,
}

impl MethodSpec {
    /// The Megatron-DeepSpeed blocking baseline.
    pub fn baseline() -> Self {
        Self {
            label: "Baseline",
            blocking: true,
            strategy: ShardingStrategy::Baseline,
            k_snapshot: None,
            k_persist: None,
        }
    }

    /// Asynchronous checkpointing without PEC or full sharding.
    pub fn base_async() -> Self {
        Self {
            label: "Base-Async",
            blocking: false,
            strategy: ShardingStrategy::Baseline,
            k_snapshot: None,
            k_persist: None,
        }
    }

    /// The fully optimised MoC-System configuration.
    pub fn moc_async(k_snapshot: usize, k_persist: usize) -> Self {
        Self {
            label: "MoC-Async",
            blocking: false,
            strategy: ShardingStrategy::FullyShardedAdaptive,
            k_snapshot: Some(k_snapshot),
            k_persist: Some(k_persist),
        }
    }

    /// Fully sharded synchronous-phase variant used in Fig. 11 (both
    /// levels at the same `K`).
    pub fn fully_sharded_k(k: usize) -> Self {
        Self {
            label: "FullySharded",
            blocking: false,
            strategy: ShardingStrategy::FullyShardedAdaptive,
            k_snapshot: Some(k),
            k_persist: Some(k),
        }
    }
}

/// Per-phase durations of a training iteration that checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTimeline {
    /// Forward + backward window (`T_F&B`).
    pub fb_sec: f64,
    /// Weight update.
    pub update_sec: f64,
    /// GPU→CPU snapshot duration (bottleneck rank).
    pub snapshot_sec: f64,
    /// CPU→storage persist duration (bottleneck rank).
    pub persist_sec: f64,
    /// Training time lost to this checkpoint (`O_save`, Eq. 10).
    pub o_save_sec: f64,
    /// Wall-clock of the iteration including checkpoint effects.
    pub iteration_sec: f64,
    /// Fraction of (snapshot + persist) hidden behind training.
    pub overlap_fraction: f64,
    /// Lower bound on the checkpoint interval in seconds (persist must
    /// drain before the next checkpoint's persist can start).
    pub min_interval_sec: f64,
}

/// Builds iteration timelines for a model/topology/cluster combination.
#[derive(Debug, Clone)]
pub struct TimelineModel {
    compute: ComputeModel,
    planner: ShardingPlanner,
    work: IterationWorkload,
}

impl TimelineModel {
    /// Creates a timeline model.
    ///
    /// # Panics
    ///
    /// Panics if the model cannot be placed on the topology.
    pub fn new(
        model: MoeModelConfig,
        topo: ParallelTopology,
        cluster: ClusterSpec,
        work: IterationWorkload,
    ) -> Self {
        let planner = ShardingPlanner::new(model, topo).expect("placeable model");
        Self {
            compute: ComputeModel::new(cluster),
            planner,
            work,
        }
    }

    /// The underlying planner.
    pub fn planner(&self) -> &ShardingPlanner {
        &self.planner
    }

    /// F&B window in seconds.
    pub fn fb_secs(&self) -> f64 {
        self.compute
            .fb_breakdown(self.planner.model(), self.planner.topology(), &self.work)
            .total()
    }

    fn workload_for(&self, strategy: ShardingStrategy, k: Option<usize>) -> CheckpointWorkload {
        match k {
            None => self.planner.plan_full(strategy),
            Some(k) => {
                let model = self.planner.model();
                let pec = PecConfig::sequential(k, model.num_experts(), model.num_moe_layers());
                // Checkpoint index 0 is representative; sequential selection
                // keeps per-rank counts within ±1 across the rotation.
                self.planner.plan_pec(strategy, &pec, 0)
            }
        }
    }

    /// Bottleneck-rank snapshot seconds for a method.
    pub fn snapshot_secs(&self, method: &MethodSpec) -> f64 {
        let w = self.workload_for(method.strategy, method.k_snapshot);
        self.compute.cluster().snapshot_secs(w.bottleneck().1)
    }

    /// Bottleneck-rank persist seconds for a method (ranks write their
    /// shards to the distributed filesystem in parallel).
    pub fn persist_secs(&self, method: &MethodSpec) -> f64 {
        let w = self.workload_for(method.strategy, method.k_persist);
        self.compute.cluster().persist_secs(w.bottleneck().1)
    }

    /// The full iteration timeline under `method`.
    pub fn timeline(&self, method: &MethodSpec) -> IterationTimeline {
        let fb_sec = self.fb_secs();
        let update_sec = self
            .compute
            .update_secs(self.planner.model(), self.planner.topology());
        let snapshot_sec = self.snapshot_secs(method);
        let persist_sec = self.persist_secs(method);

        let (o_save_sec, min_interval_sec) = if method.blocking {
            (snapshot_sec + persist_sec, snapshot_sec + persist_sec)
        } else {
            let stall = (snapshot_sec - fb_sec).max(0.0);
            (stall + ASYNC_SYNC_OVERHEAD_SEC, persist_sec)
        };
        let iteration_sec = fb_sec + update_sec + o_save_sec;
        let save_total = snapshot_sec + persist_sec;
        let overlap_fraction = if save_total > 0.0 {
            (1.0 - o_save_sec / save_total).max(0.0)
        } else {
            1.0
        };
        IterationTimeline {
            fb_sec,
            update_sec,
            snapshot_sec,
            persist_sec,
            o_save_sec,
            iteration_sec,
            overlap_fraction,
            min_interval_sec,
        }
    }
}

/// The headline Fig. 12 comparison for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Configuration label (e.g. "Case1").
    pub case: String,
    /// Baseline timeline.
    pub baseline: IterationTimeline,
    /// Base-Async timeline.
    pub base_async: IterationTimeline,
    /// MoC-Async timeline.
    pub moc_async: IterationTimeline,
}

impl Fig12Row {
    /// Iteration speedup of MoC-Async over the blocking baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline.iteration_sec / self.moc_async.iteration_sec
    }

    /// Relative `O_save` reduction of MoC-Async vs the baseline.
    pub fn o_save_reduction(&self) -> f64 {
        1.0 - self.moc_async.o_save_sec / self.baseline.o_save_sec
    }
}

/// Builds the Fig. 12 row for one Table-2 case.
pub fn fig12_row(
    case: &str,
    model: MoeModelConfig,
    topo: ParallelTopology,
    cluster: ClusterSpec,
    moc_k_snapshot: usize,
    moc_k_persist: usize,
) -> Fig12Row {
    let tm = TimelineModel::new(model, topo, cluster, IterationWorkload::default_case());
    Fig12Row {
        case: case.to_string(),
        baseline: tm.timeline(&MethodSpec::baseline()),
        base_async: tm.timeline(&MethodSpec::base_async()),
        moc_async: tm.timeline(&MethodSpec::moc_async(moc_k_snapshot, moc_k_persist)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_moe::presets;

    fn tm(topo: ParallelTopology) -> TimelineModel {
        TimelineModel::new(
            presets::gpt_350m_16e(),
            topo,
            ClusterSpec::a800(),
            IterationWorkload::default_case(),
        )
    }

    #[test]
    fn blocking_baseline_pays_full_save() {
        let t = tm(ParallelTopology::case1()).timeline(&MethodSpec::baseline());
        assert!(t.o_save_sec > 2.0, "blocking save {t:?}");
        assert!((t.o_save_sec - (t.snapshot_sec + t.persist_sec)).abs() < 1e-9);
        assert!(t.iteration_sec > t.fb_sec + t.update_sec + 2.0);
    }

    #[test]
    fn fig12_speedup_and_reduction_bands() {
        // Paper: 3.25–5.12× iteration speedup, ≥98% O_save reduction.
        for (case, topo) in [
            ("Case1", ParallelTopology::case1()),
            ("Case2", ParallelTopology::case2()),
            ("Case3", ParallelTopology::case3()),
        ] {
            let row = fig12_row(
                case,
                presets::gpt_350m_16e(),
                topo,
                ClusterSpec::a800(),
                4,
                1,
            );
            assert!(
                (2.0..8.0).contains(&row.speedup()),
                "{case}: speedup {}",
                row.speedup()
            );
            assert!(
                row.o_save_reduction() > 0.95,
                "{case}: reduction {}",
                row.o_save_reduction()
            );
        }
    }

    #[test]
    fn moc_async_halves_min_interval() {
        // Fig. 12 discussion: MoC-Async persists less, so the checkpoint
        // interval lower bound shrinks substantially.
        let tm = tm(ParallelTopology::case2());
        let base = tm.timeline(&MethodSpec::base_async());
        let moc = tm.timeline(&MethodSpec::moc_async(4, 1));
        assert!(
            moc.min_interval_sec < 0.6 * base.min_interval_sec,
            "moc {} vs base {}",
            moc.min_interval_sec,
            base.min_interval_sec
        );
    }

    #[test]
    fn smaller_k_shrinks_snapshot_monotonically() {
        let tm = tm(ParallelTopology::case3());
        let mut prev = f64::INFINITY;
        for k in [16, 8, 4, 2, 1] {
            let t = tm.timeline(&MethodSpec::fully_sharded_k(k));
            assert!(
                t.snapshot_sec <= prev + 1e-9,
                "k={k}: snapshot {} grew past {}",
                t.snapshot_sec,
                prev
            );
            prev = t.snapshot_sec;
        }
    }

    #[test]
    fn fully_sharded_full_beats_baseline_snapshot() {
        // Fig. 11: "even the full savings (K=16) outperform the baseline"
        // thanks to fully sharded checkpointing.
        let tm = tm(ParallelTopology::case1());
        let base = tm.snapshot_secs(&MethodSpec::baseline());
        let fs16 = tm.snapshot_secs(&MethodSpec::fully_sharded_k(16));
        assert!(fs16 < base, "fs {fs16} vs baseline {base}");
    }

    #[test]
    fn async_overlap_fraction_high() {
        let tm = tm(ParallelTopology::case2());
        let t = tm.timeline(&MethodSpec::base_async());
        assert!(
            t.overlap_fraction > 0.8,
            "base-async overlap {}",
            t.overlap_fraction
        );
        let moc = tm.timeline(&MethodSpec::moc_async(4, 1));
        assert!(moc.overlap_fraction > t.overlap_fraction);
    }

    #[test]
    fn case1_snapshot_exceeds_fb_for_baseline_async() {
        // Paper: baseline snapshot duration exceeds F&B in Case 1 — the
        // motivation for fully sharded checkpointing there.
        let tm = tm(ParallelTopology::case1());
        let t = tm.timeline(&MethodSpec::base_async());
        assert!(
            t.snapshot_sec > t.fb_sec,
            "snapshot {} should exceed fb {}",
            t.snapshot_sec,
            t.fb_sec
        );
        assert!(t.o_save_sec > ASYNC_SYNC_OVERHEAD_SEC);
    }
}
