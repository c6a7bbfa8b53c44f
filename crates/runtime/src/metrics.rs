//! Wall-clock metrics of a live run.
//!
//! The analytic models in `moc-cluster` predict per-phase times from
//! hardware constants; the runtime *measures* them. [`MetricsRegistry`]
//! accumulates per-phase wall-clock statistics, stall and recovery
//! counters, and a per-iteration timeline, which [`RunSummary`] exposes
//! alongside training results. [`RunSummary::analytic_projection`] feeds
//! the measured phase means back into `moc-cluster`'s discrete-event
//! simulator so live runs can be compared against the analytic timelines.

use moc_ckpt::EngineStats;
use moc_cluster::events::{simulate, EventSimConfig, EventSimReport};
use moc_cluster::ClusterSpec;
use moc_obs::{LogHistogram, ObsRunReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// A measured phase of the runtime's iteration loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Forward + backward over the rank's sub-batch (max across ranks).
    Compute,
    /// Gradient reduction on the coordinator thread. The runtime no
    /// longer records it — ranks reduce among themselves on the ring or
    /// hierarchical collective — so it always reads empty; the variant
    /// stays for readers that still report it (`moc-e2e`'s
    /// `collective.star_reduce_ms`, which therefore reads 0).
    Reduce,
    /// Ring reduce leg: active fold/copy/send work (median across ranks
    /// — the representative per-rank cost of the decentralized
    /// collective).
    ReduceScatter,
    /// Ring gather leg: active copy/forward work (median across ranks).
    AllGather,
    /// Ring blocking time waiting on peers (max across ranks): the
    /// exposed, non-overlapped part of the collective.
    RingWait,
    /// Cross-rank pipelining in the ring: the sum of every rank's active
    /// leg work minus the slowest rank's collective wall (busy + wait) —
    /// seconds of collective work that ran concurrently with other
    /// ranks' work instead of extending the critical path.
    CommOverlap,
    /// Stall injected into a straggling rank's step.
    StragglerStall,
    /// TP replica-consistency exchange (max across ranks; only recorded
    /// in mixed-parallelism worlds).
    TpSync,
    /// Blocking time in the PP stage relay — the pipeline bubble (max
    /// across ranks; only recorded in mixed-parallelism worlds).
    PpBubble,
    /// Optimizer step: the slowest rank's local load + Adam step after
    /// its all-reduce.
    Apply,
    /// Shard serialization at checkpoint time (max across ranks).
    CkptSerialize,
    /// Handing shards to the async node agents (includes stall waits).
    CkptSubmit,
    /// Synchronous-mode blocking write of all shards.
    CkptWrite,
    /// Recovery planning (source resolution over memory + storage).
    RecoveryPlan,
    /// Fetching planned shard payloads.
    RecoveryFetch,
    /// Broadcasting and applying restored state on every rank.
    RecoveryRestore,
    /// Elastic shrink rebalance: computing the adoption plan, migrating
    /// expert ownership, and reconfiguring the surviving ranks.
    ShrinkRebalance,
    /// Elastic expand: exporting a survivor's replica, respawning and
    /// seeding the returning ranks, and restoring the home placement.
    ExpandRestore,
}

impl Phase {
    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Reduce => "reduce",
            Phase::ReduceScatter => "reduce-scatter",
            Phase::AllGather => "all-gather",
            Phase::RingWait => "ring-wait",
            Phase::CommOverlap => "comm-overlap",
            Phase::StragglerStall => "straggler-stall",
            Phase::TpSync => "tp-sync",
            Phase::PpBubble => "pp-bubble",
            Phase::Apply => "apply",
            Phase::CkptSerialize => "ckpt-serialize",
            Phase::CkptSubmit => "ckpt-submit",
            Phase::CkptWrite => "ckpt-write",
            Phase::RecoveryPlan => "recovery-plan",
            Phase::RecoveryFetch => "recovery-fetch",
            Phase::RecoveryRestore => "recovery-restore",
            Phase::ShrinkRebalance => "shrink-rebalance",
            Phase::ExpandRestore => "expand-restore",
        }
    }
}

/// Accumulated statistics of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of recorded occurrences.
    pub count: u64,
    /// Total seconds across occurrences.
    pub total_secs: f64,
    /// Longest single occurrence.
    pub max_secs: f64,
    /// Shortest single occurrence (0 when never recorded) — the least
    /// scheduler-disturbed sample, which scaling benchmarks compare.
    pub min_secs: f64,
    /// Log-scale distribution of the samples (p50/p99 queries).
    pub hist: LogHistogram,
}

impl PhaseStats {
    /// Records one occurrence.
    pub fn record(&mut self, secs: f64) {
        if self.count == 0 || secs < self.min_secs {
            self.min_secs = secs;
        }
        self.count += 1;
        self.total_secs += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
        self.hist.record(secs);
    }

    /// Mean seconds per occurrence (0 when never recorded).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }

    /// Median seconds (log-bucket estimate, ~9 % resolution).
    pub fn p50_secs(&self) -> f64 {
        self.hist.percentile(0.50)
    }

    /// 99th-percentile seconds (log-bucket estimate).
    pub fn p99_secs(&self) -> f64 {
        self.hist.percentile(0.99)
    }
}

/// One entry of the run timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Run-relative monotonic seconds at which the event was recorded
    /// (anchored at registry creation — coordinator start), ordering
    /// events across ranks within an iteration.
    pub at_secs: f64,
    /// Iteration the event belongs to.
    pub iteration: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Kinds of timeline events.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A checkpoint was taken; lists nodes whose agents stalled.
    Checkpoint {
        /// Nodes that had to wait for a free buffer.
        stalled_nodes: Vec<usize>,
        /// Wall seconds the checkpoint added to the iteration.
        overhead_secs: f64,
    },
    /// Node kills were injected at the start of this iteration.
    FaultInjected {
        /// Nodes killed.
        nodes: Vec<usize>,
    },
    /// The coordinator detected missing ranks and identified dead nodes.
    FaultDetected {
        /// Nodes declared dead.
        nodes: Vec<usize>,
        /// Seconds from iteration start to detection.
        detect_secs: f64,
    },
    /// Ranks went silent for a heartbeat window and entered the
    /// suspected set; they hold a lease and are re-admitted without
    /// recovery if they reply before `k_misses` windows elapse.
    FaultSuspected {
        /// Ranks newly suspected.
        ranks: Vec<usize>,
        /// Consecutive missed windows so far (1-based).
        misses: u32,
    },
    /// A suspected rank replied within its lease and was re-admitted —
    /// a gray failure tolerated with no recovery.
    SuspicionCleared {
        /// The re-admitted rank.
        rank: usize,
    },
    /// A two-level recovery completed.
    Recovery {
        /// Iteration training resumed from.
        resume_iteration: u64,
        /// Shards restored from healthy nodes' CPU memory.
        memory_hits: usize,
        /// Shards restored from persistent storage.
        storage_hits: usize,
        /// Total wall seconds of the recovery.
        total_secs: f64,
        /// DP indices of the shard groups the dead ranks belonged to —
        /// the groups whose state the recovery targeted.
        shard_groups: Vec<usize>,
        /// Restored shards owned by those shard groups under the
        /// group-keyed checkpoint placement (the rest of the restore is
        /// survivor rollback).
        group_owned_shards: usize,
    },
    /// A validation evaluation.
    Eval {
        /// Validation loss.
        loss: f32,
    },
    /// A ring collective aborted mid-iteration (a peer stopped
    /// responding); the runtime recovers and resumes on the rebuilt
    /// mesh.
    CollectiveAbort {
        /// Ranks that reported aborting their ring collective.
        aborted_ranks: Vec<usize>,
    },
    /// A straggler slowdown was injected into a rank's step.
    StragglerInjected {
        /// Rank slowed down.
        rank: usize,
        /// Step-duration multiplier.
        factor: f64,
    },
    /// The health plane scored a rank's step samples as sustained
    /// outliers and walked it out of the healthy state. The detector's
    /// corroboration hook now declares this rank one lease window
    /// sooner should it go silent.
    HealthDegraded {
        /// The degraded rank.
        rank: usize,
        /// Robust z-score of the tipping sample.
        z: f64,
    },
    /// The run shrank elastically onto its surviving ranks: no respawn —
    /// the dead shard groups' batch slices and experts were adopted and
    /// training continued degraded within the same run.
    ElasticShrink {
        /// Shard groups (DP indices) that died.
        dead_groups: Vec<usize>,
        /// Slice adoption pairs `(dead group, adopting group)`.
        adoptions: Vec<(usize, usize)>,
        /// Experts whose ownership migrated to a surviving group.
        experts_migrated: usize,
        /// Wall seconds of the rebalance (plan + reconfigure), excluding
        /// the state recovery it follows.
        shrink_secs: f64,
    },
    /// Replacement ranks rejoined and the world expanded back to the
    /// configured shape.
    ElasticExpand {
        /// Shard groups that returned.
        returning_groups: Vec<usize>,
        /// Experts whose ownership moved back to its home group.
        experts_returned: usize,
        /// Iterations the run spent degraded before this expand.
        degraded_iterations: u64,
        /// Wall seconds of the expand (export + respawn + seed +
        /// reconfigure).
        expand_secs: f64,
    },
}

/// Mutable metric accumulation during a run.
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    phases: BTreeMap<Phase, PhaseStats>,
    timeline: Vec<TimelineEvent>,
    /// Checkpoint submissions that stalled waiting for a buffer.
    pub stall_count: u64,
    /// Node kills injected.
    pub faults_injected: u64,
    /// Straggler slowdowns injected.
    pub stragglers_injected: u64,
    /// Ring collectives that aborted on a fault.
    pub ring_aborts: u64,
    /// Gradient chunk buffers preallocated by the collective layer across
    /// all mesh builds (the layer's total heap footprint: steady-state
    /// iterations allocate nothing).
    pub collective_allocs: u64,
    /// Recoveries executed.
    pub recoveries: u64,
    /// Ranks that entered the suspected set (summed over collections).
    pub suspicions: u64,
    /// Suspected ranks that replied within their lease and were
    /// re-admitted without recovery.
    pub suspicions_cleared: u64,
    /// Shard groups dragged through a recovery (summed over recoveries).
    pub shard_groups_recovered: u64,
    /// Elastic shrinks executed (recoveries that continued on the
    /// survivors instead of respawning).
    pub elastic_shrinks: u64,
    /// Elastic expands executed (replacement ranks rejoined).
    pub elastic_expands: u64,
    /// Experts whose ownership migrated across all shrinks.
    pub experts_migrated: u64,
    /// Iterations completed while the world was shrunk.
    pub degraded_iterations: u64,
    /// Degraded iterations that ran on the survivor ring (full-DP-size
    /// ring with dead slots driven by their adopters).
    pub survivor_ring_iterations: u64,
    /// Iterations that ran on the two-level hierarchical reduce.
    pub hierarchical_iterations: u64,
    /// Step replies whose TP group exchanged mismatching parameter CRCs.
    pub tp_divergences: u64,
    /// Bytes fetched during recoveries.
    pub recovered_bytes: u64,
    /// Recovery shards served from CPU memory.
    pub memory_hits: u64,
    /// Recovery shards served from persistent storage.
    pub storage_hits: u64,
    /// Iterations executed, including re-done work after rollbacks.
    pub iterations_executed: u64,
    /// Checkpoints taken (bootstrap excluded).
    pub checkpoints_taken: u64,
    /// Total wall seconds spent in the iteration loop.
    pub loop_secs: f64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry anchored at now.
    pub fn new() -> Self {
        Self::with_anchor(Instant::now())
    }

    /// Creates an empty registry whose timeline timestamps are relative
    /// to `start` — pass the trace collector's anchor so timeline
    /// events and trace spans share one clock.
    pub fn with_anchor(start: Instant) -> Self {
        Self {
            start,
            phases: BTreeMap::new(),
            timeline: Vec::new(),
            stall_count: 0,
            faults_injected: 0,
            stragglers_injected: 0,
            ring_aborts: 0,
            collective_allocs: 0,
            recoveries: 0,
            suspicions: 0,
            suspicions_cleared: 0,
            shard_groups_recovered: 0,
            elastic_shrinks: 0,
            elastic_expands: 0,
            experts_migrated: 0,
            degraded_iterations: 0,
            survivor_ring_iterations: 0,
            hierarchical_iterations: 0,
            tp_divergences: 0,
            recovered_bytes: 0,
            memory_hits: 0,
            storage_hits: 0,
            iterations_executed: 0,
            checkpoints_taken: 0,
            loop_secs: 0.0,
        }
    }

    /// Records one occurrence of a phase.
    pub fn record(&mut self, phase: Phase, secs: f64) {
        self.phases.entry(phase).or_default().record(secs);
    }

    /// Times a closure into a phase, returning its output.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(phase, start.elapsed().as_secs_f64());
        out
    }

    /// Appends a timeline event, stamped with run-relative seconds.
    pub fn event(&mut self, iteration: u64, kind: EventKind) {
        self.timeline.push(TimelineEvent {
            at_secs: self.start.elapsed().as_secs_f64(),
            iteration,
            kind,
        });
    }

    /// Statistics of one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// All recorded phases.
    pub fn phases(&self) -> &BTreeMap<Phase, PhaseStats> {
        &self.phases
    }

    /// The timeline so far.
    pub fn timeline(&self) -> &[TimelineEvent] {
        &self.timeline
    }
}

/// Immutable result of a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// `(iteration, validation loss)` curve.
    pub val_curve: Vec<(u64, f32)>,
    /// Final validation loss.
    pub final_val_loss: f32,
    /// Measured PLT (Eq. 7) across all faults.
    pub plt: f64,
    /// `K_snapshot` in effect at each fault (Dynamic-K trace).
    pub k_trace: Vec<usize>,
    /// Iterations executed including redone work.
    pub iterations_executed: u64,
    /// Checkpoints taken (bootstrap excluded).
    pub checkpoints_taken: u64,
    /// Node kills injected.
    pub faults_injected: u64,
    /// Straggler slowdowns injected.
    pub stragglers_injected: u64,
    /// Ring collectives that aborted on a fault.
    pub ring_aborts: u64,
    /// Gradient chunk buffers preallocated by the collective layer across
    /// all mesh builds; steady-state ring iterations allocate nothing.
    pub collective_allocs: u64,
    /// Recoveries executed.
    pub recoveries: u64,
    /// Ranks that entered the suspected set. A gray failure suspected
    /// and then cleared contributes here but not to `recoveries`.
    pub suspicions: u64,
    /// Suspected ranks re-admitted within their lease — gray failures
    /// tolerated with no recovery.
    pub suspicions_cleared: u64,
    /// Store operations that succeeded only after at least one retry
    /// (transient faults absorbed by the backoff wrapper).
    pub store_retries: u64,
    /// Store operations that exhausted every retry attempt and surfaced
    /// a typed error.
    pub store_retry_exhaustions: u64,
    /// Shard groups dragged through a recovery (summed over recoveries;
    /// equals `recoveries × groups-per-dead-node` for node kills).
    pub shard_groups_recovered: u64,
    /// Elastic shrinks executed: recoveries that continued on the
    /// surviving ranks (no respawn), the dead groups' slices and experts
    /// adopted.
    pub elastic_shrinks: u64,
    /// Elastic expands executed: replacement ranks rejoined and the
    /// world returned to the configured shape.
    pub elastic_expands: u64,
    /// Experts whose checkpoint ownership migrated across all shrinks.
    pub experts_migrated: u64,
    /// Iterations completed while the world was shrunk (the run's
    /// degraded-step count).
    pub degraded_iterations: u64,
    /// Degraded iterations that ran on the survivor ring — the
    /// full-DP-size ring whose dead slots are driven by their adopters.
    /// Every degraded iteration does, so this equals
    /// `degraded_iterations`.
    pub survivor_ring_iterations: u64,
    /// Iterations that ran on the two-level hierarchical reduce
    /// (full-shape `CollectiveKind::Hierarchical` steps).
    pub hierarchical_iterations: u64,
    /// Whether every TP group's per-iteration replica-consistency
    /// exchange saw bitwise-identical parameter CRCs (vacuously true
    /// when `tp = 1`).
    pub tp_groups_consistent: bool,
    /// Checkpoint submissions that stalled on buffer exhaustion.
    pub stall_count: u64,
    /// Bytes fetched during recoveries.
    pub recovered_bytes: u64,
    /// Recovery shards served from CPU memory.
    pub memory_hits: u64,
    /// Recovery shards served from persistent storage.
    pub storage_hits: u64,
    /// Bytes held by the persistent store at the end of the run
    /// (including manifests and any orphaned shards).
    pub persisted_bytes: u64,
    /// Aggregated checkpoint-engine counters across all node engines:
    /// full/delta shard mix, stored vs raw bytes, manifest bytes, pool
    /// footprint, and background persist time.
    pub ckpt_engine: EngineStats,
    /// Per-checkpoint `(serialized bytes, serialize seconds)` samples —
    /// the snapshot-tier calibration inputs ([`TierLink::fit`]).
    ///
    /// [`TierLink::fit`]: moc_store::TierLink::fit
    pub snapshot_samples: Vec<(u64, f64)>,
    /// Per-checkpoint `(persisted bytes, blocking write seconds)`
    /// samples — the persist-tier calibration inputs. Only synchronous
    /// checkpoint mode produces these: async persists drain in the
    /// background where per-batch wall time is not attributable to an
    /// iteration.
    pub persist_samples: Vec<(u64, f64)>,
    /// Per-phase wall-clock statistics.
    pub phases: BTreeMap<Phase, PhaseStats>,
    /// Ordered run timeline (checkpoints, faults, recoveries, evals).
    pub timeline: Vec<TimelineEvent>,
    /// Total wall seconds of the iteration loop.
    pub loop_secs: f64,
    /// Checkpoint interval the run used.
    pub i_ckpt: u64,
    /// Final parameters of rank 0, flattened in registration order.
    pub final_params: Vec<f32>,
    /// Whether every rank finished with bitwise-identical parameters.
    pub replicas_consistent: bool,
    /// What observability produced: span counts, flight dumps, and the
    /// trace path (inert when `ObsConfig.enabled` was false).
    pub obs: ObsRunReport,
    /// The health plane's per-rank verdict (`None` when
    /// `ObsConfig.health` was off).
    pub health: Option<moc_obs::HealthReport>,
}

impl RunSummary {
    /// Statistics of one phase.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// Cumulative injected straggler stall across the run (the
    /// `StragglerStall` phase total).
    pub fn straggler_stall_secs(&self) -> f64 {
        self.phase(Phase::StragglerStall).total_secs
    }

    /// Mean wall seconds a checkpoint added to its iteration:
    /// serialization plus submission (async) or blocking write (sync).
    pub fn checkpoint_overhead_secs(&self) -> f64 {
        if self.checkpoints_taken == 0 {
            return 0.0;
        }
        let total = self.phase(Phase::CkptSerialize).total_secs
            + self.phase(Phase::CkptSubmit).total_secs
            + self.phase(Phase::CkptWrite).total_secs;
        total / self.checkpoints_taken as f64
    }

    /// Mean wall seconds per executed iteration.
    pub fn mean_iteration_secs(&self) -> f64 {
        if self.iterations_executed == 0 {
            0.0
        } else {
            self.loop_secs / self.iterations_executed as f64
        }
    }

    /// The measured phase means expressed as an `moc-cluster` event-sim
    /// configuration: the validation hook tying live wall-clock numbers
    /// back to the analytic models.
    pub fn event_sim_config(&self) -> EventSimConfig {
        // Every completed iteration runs one compute and one collective
        // step, so the collective's legs, its exposed peer wait and the
        // TP/PP group phases are all charged per exchange.
        let exchanges = self.phase(Phase::Compute).count.max(1) as f64;
        let collective_total = self.phase(Phase::ReduceScatter).total_secs
            + self.phase(Phase::AllGather).total_secs
            + self.phase(Phase::RingWait).total_secs
            + self.phase(Phase::TpSync).total_secs
            + self.phase(Phase::PpBubble).total_secs;
        EventSimConfig {
            fb_sec: self.phase(Phase::Compute).mean_secs() + collective_total / exchanges,
            update_sec: self.phase(Phase::Apply).mean_secs(),
            snapshot_sec: self.phase(Phase::CkptSerialize).mean_secs()
                + self.phase(Phase::CkptSubmit).mean_secs(),
            persist_sec: self.phase(Phase::CkptWrite).mean_secs(),
            i_ckpt: self.i_ckpt.max(1),
            iterations: self.iterations_executed,
        }
    }

    /// Replays the measured phase means through `moc-cluster`'s
    /// discrete-event simulator, projecting what the analytic timeline
    /// model predicts for this workload.
    pub fn analytic_projection(&self) -> EventSimReport {
        simulate(&self.event_sim_config())
    }

    /// Calibrates a [`ClusterSpec`] against this run: least-squares fits
    /// of the snapshot and persist tier links from the measured
    /// per-checkpoint `(bytes, seconds)` samples. Tiers without
    /// fittable samples keep `base`'s constants.
    pub fn calibrated_cluster(&self, base: &ClusterSpec) -> ClusterSpec {
        base.calibrated(&self.snapshot_samples, &self.persist_samples)
    }

    /// The analytic projection with the checkpoint tiers replaced by a
    /// (typically [`RunSummary::calibrated_cluster`]-fitted) spec's
    /// predictions for this run's mean checkpoint volumes — the
    /// validation loop tying the analytic model to live measurements.
    pub fn analytic_projection_with(&self, spec: &ClusterSpec) -> EventSimReport {
        let mean = |samples: &[(u64, f64)]| {
            if samples.is_empty() {
                0
            } else {
                samples.iter().map(|&(b, _)| b).sum::<u64>() / samples.len() as u64
            }
        };
        let mut config = self.event_sim_config();
        if !self.snapshot_samples.is_empty() {
            config.snapshot_sec = spec.snapshot_secs(mean(&self.snapshot_samples));
        }
        if !self.persist_samples.is_empty() {
            config.persist_sec = spec.persist_secs(mean(&self.persist_samples));
        }
        simulate(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_accumulate() {
        let mut m = MetricsRegistry::new();
        m.record(Phase::Compute, 0.5);
        m.record(Phase::Compute, 1.5);
        let s = m.phase(Phase::Compute);
        assert_eq!(s.count, 2);
        assert!((s.total_secs - 2.0).abs() < 1e-12);
        assert!((s.mean_secs() - 1.0).abs() < 1e-12);
        assert!((s.max_secs - 1.5).abs() < 1e-12);
        assert!((s.min_secs - 0.5).abs() < 1e-12);
        assert_eq!(m.phase(Phase::Apply), PhaseStats::default());
    }

    #[test]
    fn time_measures_closures() {
        let mut m = MetricsRegistry::new();
        let out = m.time(Phase::Reduce, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(out, 42);
        assert!(m.phase(Phase::Reduce).total_secs >= 0.002);
    }

    #[test]
    fn timeline_preserves_order() {
        let mut m = MetricsRegistry::new();
        m.event(1, EventKind::Eval { loss: 5.0 });
        m.event(2, EventKind::FaultInjected { nodes: vec![0] });
        assert_eq!(m.timeline().len(), 2);
        assert_eq!(m.timeline()[0].iteration, 1);
    }

    #[test]
    fn timeline_timestamps_are_run_relative_and_monotonic() {
        let mut m = MetricsRegistry::new();
        m.event(1, EventKind::Eval { loss: 5.0 });
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.event(2, EventKind::FaultInjected { nodes: vec![0] });
        let t = m.timeline();
        assert!(t[0].at_secs >= 0.0);
        assert!(t[1].at_secs >= t[0].at_secs + 0.002);
    }

    #[test]
    fn phase_percentiles_come_from_the_histogram() {
        let mut m = MetricsRegistry::new();
        for i in 0..100u64 {
            m.record(Phase::Compute, 1e-3 + 9e-3 * (i as f64 / 100.0));
        }
        let s = m.phase(Phase::Compute);
        assert_eq!(s.hist.count(), 100);
        assert!(s.p50_secs() > 1e-3 && s.p50_secs() < s.p99_secs());
        assert!(s.p99_secs() <= s.max_secs * 1.1);
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(Phase::CkptSubmit.label(), "ckpt-submit");
        assert_eq!(Phase::RecoveryRestore.label(), "recovery-restore");
        assert_eq!(Phase::ReduceScatter.label(), "reduce-scatter");
        assert_eq!(Phase::AllGather.label(), "all-gather");
        assert_eq!(Phase::StragglerStall.label(), "straggler-stall");
    }
}
