//! Runtime configuration.
//!
//! A [`RuntimeConfig`] fully determines a live run: the model and virtual
//! cluster, the training workload, the two-level checkpointing policy
//! (including whether persists run synchronously inside the iteration or
//! asynchronously through the node agents), and the fault schedule. All
//! randomness derives from `seed`, so two runs with the same configuration
//! produce bitwise-identical parameters.

use crate::collective::CollectiveKind;
use crate::faults::{ChaosPlan, DetectorConfig};
use crate::injector::SlowEvent;
use moc_ckpt::EngineConfig;
use moc_core::placement::num_failure_domains;
use moc_core::topology::ParallelTopology;
use moc_moe::MoeModelConfig;
use moc_obs::ObsConfig;
use moc_store::{FaultPlan, RetryPolicy};
use moc_train::{AdamConfig, PecMode};
use std::fmt;
use std::time::Duration;

/// How checkpoints reach the persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// The paper's baseline: training blocks while shards are written to
    /// CPU memory *and* persistent storage inside the iteration.
    Sync,
    /// MoC's two-level path: shards are handed to the per-node agents,
    /// which copy to CPU memory and persist in the background while
    /// training continues (Fig. 8–9).
    Async,
}

/// Elastic-recovery policy: what the coordinator does when a node dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Recover node deaths by *shrinking* onto the surviving ranks
    /// (surviving shard groups adopt the dead groups' batch slices and
    /// experts) instead of respawning the dead ranks. When every node is
    /// dead the coordinator still falls back to respawn — there is
    /// nobody left to shrink onto.
    pub shrink: bool,
    /// Expert replication factor of the placement plan: every expert is
    /// assigned to this many shard groups on distinct failure domains,
    /// and migration prefers a surviving replica. Must be at least 1 and
    /// at most the number of failure domains.
    pub replication: usize,
    /// Iterations after a shrink at which replacement ranks rejoin and
    /// the world expands back to the configured shape (`None` = stay
    /// degraded to the end of the run).
    pub rejoin_after: Option<u64>,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            shrink: false,
            replication: 1,
            rejoin_after: None,
        }
    }
}

impl ElasticConfig {
    /// Shrink-mode recovery with the given replication factor and no
    /// automatic rejoin.
    pub fn shrink(replication: usize) -> Self {
        Self {
            shrink: true,
            replication,
            rejoin_after: None,
        }
    }
}

/// Error from [`RuntimeConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The TP/PP shape cannot be mapped onto the model: a pipeline stage
    /// or tensor slice would own nothing. (Until PR 4 this variant
    /// rejected *any* `tp·pp > 1`; the live runtime now runs real shard
    /// groups and only genuinely impossible shapes are refused.)
    UnsupportedParallelism {
        /// Configured tensor-parallel degree.
        tp: usize,
        /// Configured pipeline-parallel degree.
        pp: usize,
        /// Why the shape cannot run.
        reason: String,
    },
    /// The global batch does not divide evenly over the DP ranks.
    BatchNotDivisible {
        /// Configured global batch.
        batch: usize,
        /// Data-parallel degree.
        dp: usize,
    },
    /// The expert count does not spread evenly over the EP degree.
    ExpertsNotDivisible {
        /// Experts per MoE layer.
        experts: usize,
        /// Expert-parallel degree.
        ep: usize,
    },
    /// A PEC degree is zero or exceeds the expert count.
    BadPecDegree {
        /// Offending value.
        k: usize,
        /// Expert count.
        experts: usize,
    },
    /// `K_persist` exceeds `K_snapshot`: only snapshotted shards can be
    /// persisted, so the persist level must be a subset.
    PersistExceedsSnapshot {
        /// Configured persist degree.
        k_persist: usize,
        /// Configured snapshot degree.
        k_snapshot: usize,
    },
    /// The checkpoint interval is zero.
    ZeroCheckpointInterval,
    /// The corpus topic count does not divide the vocabulary.
    TopicsDontDivideVocab {
        /// Topic count.
        topics: usize,
        /// Vocabulary size.
        vocab: usize,
    },
    /// The ring collective's chunk size is zero.
    ZeroRingChunk,
    /// The checkpoint-engine policy is inconsistent (zero rebase interval
    /// or in-flight limit).
    BadCkptEngine {
        /// Why the engine config was rejected.
        reason: String,
    },
    /// The elastic replication factor cannot be hosted by the cluster:
    /// it is zero, or exceeds the number of distinct failure domains
    /// (nodes hosting shard-group leaders), so no placement plan can
    /// spread an expert's replicas over distinct domains. Rejected here
    /// — before any run starts — instead of panicking inside the
    /// placement planner.
    ReplicationExceedsDomains {
        /// Configured replication factor.
        replication: usize,
        /// Failure domains the topology offers.
        domains: usize,
    },
    /// A straggler event names a rank outside the world, a slowdown
    /// factor below 1, or a zero duration.
    BadStraggler {
        /// Offending rank.
        rank: usize,
        /// Offending slowdown factor.
        factor: f64,
        /// Offending profile duration.
        duration: u64,
    },
    /// The suspicion detector declares after zero misses — it would
    /// never admit any reply.
    ZeroDetectorMisses,
    /// The store retry policy allows zero attempts — every operation
    /// would fail before trying.
    ZeroRetryAttempts,
    /// The chaos plan contains a flap (die-then-rejoin) event but the
    /// elastic config has no shrink mode or no rejoin horizon, so the
    /// flapped node could never come back.
    FlapWithoutRejoin,
    /// A chaos event is out of range or inconsistent with the detector.
    BadChaosEvent {
        /// Why the event was rejected.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnsupportedParallelism { tp, pp, reason } => {
                write!(f, "unsupported TP={tp}/PP={pp} shape: {reason}")
            }
            ConfigError::BatchNotDivisible { batch, dp } => {
                write!(f, "global batch {batch} must divide over dp {dp}")
            }
            ConfigError::ExpertsNotDivisible { experts, ep } => {
                write!(f, "experts {experts} must divide over ep {ep}")
            }
            ConfigError::BadPecDegree { k, experts } => {
                write!(f, "pec degree {k} invalid for {experts} experts")
            }
            ConfigError::PersistExceedsSnapshot {
                k_persist,
                k_snapshot,
            } => {
                write!(
                    f,
                    "k_persist {k_persist} must not exceed k_snapshot {k_snapshot}"
                )
            }
            ConfigError::ZeroCheckpointInterval => write!(f, "i_ckpt must be positive"),
            ConfigError::TopicsDontDivideVocab { topics, vocab } => {
                write!(f, "topics {topics} must divide vocab {vocab}")
            }
            ConfigError::ZeroRingChunk => write!(f, "ring_chunk must be positive"),
            ConfigError::BadCkptEngine { reason } => {
                write!(f, "checkpoint engine config invalid: {reason}")
            }
            ConfigError::ReplicationExceedsDomains {
                replication,
                domains,
            } => {
                write!(
                    f,
                    "replication factor {replication} cannot be hosted by \
                     {domains} failure domains"
                )
            }
            ConfigError::BadStraggler {
                rank,
                factor,
                duration,
            } => {
                write!(
                    f,
                    "straggler rank {rank} / factor {factor} / duration {duration} invalid"
                )
            }
            ConfigError::ZeroDetectorMisses => {
                write!(f, "detector k_misses must be at least 1")
            }
            ConfigError::ZeroRetryAttempts => {
                write!(f, "store retry policy must allow at least 1 attempt")
            }
            ConfigError::FlapWithoutRejoin => {
                write!(
                    f,
                    "chaos plan flaps a node but elastic shrink/rejoin_after is \
                     not configured, so it could never rejoin"
                )
            }
            ConfigError::BadChaosEvent { reason } => {
                write!(f, "chaos event invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full description of a live training run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Model architecture (one full replica per DP rank).
    pub model: MoeModelConfig,
    /// Virtual cluster layout (one OS thread per DP rank).
    pub topology: ParallelTopology,
    /// Training horizon in iterations.
    pub total_iterations: u64,
    /// Checkpoint every `i_ckpt` iterations.
    pub i_ckpt: u64,
    /// Experts snapshotted per layer per checkpoint (`K_snapshot`).
    pub k_snapshot: usize,
    /// Experts persisted per layer per checkpoint (`K_persist`).
    pub k_persist: usize,
    /// Which state parts PEC governs (W / O / WO / NONE).
    pub pec_mode: PecMode,
    /// Whether recovery may read healthy nodes' CPU-memory snapshots.
    pub two_level: bool,
    /// Synchronous baseline or asynchronous two-level checkpointing.
    pub checkpoint_mode: CheckpointMode,
    /// Checkpoint-engine policy: delta shards, rebase interval, and the
    /// double-buffered in-flight limit of the persist pipeline.
    pub ckpt: EngineConfig,
    /// Fault schedule driving the injector.
    pub faults: FaultPlan,
    /// Straggler (slow-rank) schedule driving the injector.
    pub stragglers: Vec<SlowEvent>,
    /// FaultPlan v2: the unified chaos schedule (gray failures, flaps,
    /// mesh chaos, store outages) merged with `faults`/`stragglers` by
    /// the injector. Empty by default.
    pub chaos: ChaosPlan,
    /// Suspicion-based failure detection: consecutive missed heartbeat
    /// windows before a silent rank is declared dead, and the lease
    /// granted per additional window. `k_misses = 1` is the legacy
    /// single-miss detector.
    pub detector: DetectorConfig,
    /// Backoff policy of the [`moc_store::RetryStore`] wrapped around
    /// the run's object store: every store operation retries transient
    /// failures with capped exponential backoff before surfacing a typed
    /// exhaustion error.
    pub retry: RetryPolicy,
    /// Which collective exchanges gradients each iteration.
    pub collective: CollectiveKind,
    /// Ring/hierarchical chunk size in `f32` elements.
    pub ring_chunk: usize,
    /// Elastic-recovery policy: shrink onto survivors vs respawn, the
    /// placement replication factor, and the rejoin horizon.
    pub elastic: ElasticConfig,
    /// Dynamic-K cumulative PLT budget (`None` = fixed K).
    pub dynamic_k_budget: Option<f64>,
    /// Global batch (sequences per iteration, split over DP ranks).
    pub batch: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Topic count of the synthetic corpus.
    pub topics: usize,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Master seed (model init, corpus, gate noise).
    pub seed: u64,
    /// Evaluate validation loss every this many iterations (0 = only at end).
    pub eval_every: u64,
    /// How long the coordinator waits for a rank's iteration result before
    /// declaring its node failed. Must exceed the worst-case iteration
    /// compute time.
    pub heartbeat_timeout: Duration,
    /// Observability: span tracing, flight recorder, trace export.
    /// Disabled by default — the hot path then pays one branch per
    /// would-be span.
    pub obs: ObsConfig,
}

impl RuntimeConfig {
    /// A small deterministic default: the tiny 8-expert LM, one sequence
    /// per rank, PEC `K_snapshot = 2`, `K_persist = 1`, async two-level
    /// checkpointing, ring gradient exchange, no faults.
    pub fn tiny(topology: ParallelTopology) -> Self {
        let model = moc_moe::presets::tiny_lm_8e();
        Self {
            model,
            topology,
            total_iterations: 24,
            i_ckpt: 6,
            k_snapshot: 2,
            k_persist: 1,
            pec_mode: PecMode::WO,
            two_level: true,
            checkpoint_mode: CheckpointMode::Async,
            ckpt: EngineConfig::default(),
            faults: FaultPlan::None,
            stragglers: Vec::new(),
            chaos: ChaosPlan::none(),
            detector: DetectorConfig::default(),
            retry: RetryPolicy::default(),
            collective: CollectiveKind::Ring,
            ring_chunk: 4096,
            elastic: ElasticConfig::default(),
            dynamic_k_budget: None,
            batch: topology.dp(),
            seq_len: 32,
            topics: 8,
            adam: AdamConfig::default(),
            seed: 17,
            eval_every: 8,
            heartbeat_timeout: Duration::from_secs(2),
            obs: ObsConfig::default(),
        }
    }

    /// Full checkpointing baseline over the same workload: PEC disabled,
    /// synchronous persists, storage-only recovery, ring gradient
    /// exchange.
    pub fn baseline(topology: ParallelTopology) -> Self {
        let model = moc_moe::presets::tiny_lm_8e();
        let n = model.num_experts();
        Self {
            k_snapshot: n,
            k_persist: n,
            pec_mode: PecMode::NONE,
            two_level: false,
            checkpoint_mode: CheckpointMode::Sync,
            ckpt: EngineConfig::full_only(),
            ..Self::tiny(topology)
        }
    }

    /// Number of rank threads (`dp · tp · pp`): one OS thread per global
    /// rank of the grid.
    pub fn world_size(&self) -> usize {
        self.topology.world_size()
    }

    /// Sequences each rank computes per iteration: the global batch
    /// splits over the DP axis; the `tp · pp` members of one shard group
    /// step the same DP slice.
    pub fn batch_per_rank(&self) -> usize {
        self.batch / self.topology.dp()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (tp, pp) = (self.topology.tp(), self.topology.pp());
        if pp > self.model.num_layers() {
            return Err(ConfigError::UnsupportedParallelism {
                tp,
                pp,
                reason: format!(
                    "{pp} pipeline stages over {} layers leaves a stage with no layer",
                    self.model.num_layers()
                ),
            });
        }
        if tp > self.model.hidden_size() {
            return Err(ConfigError::UnsupportedParallelism {
                tp,
                pp,
                reason: format!(
                    "{tp} tensor slices over hidden size {} leaves a slice with no column",
                    self.model.hidden_size()
                ),
            });
        }
        let dp = self.topology.dp();
        if self.batch == 0 || !self.batch.is_multiple_of(dp) {
            return Err(ConfigError::BatchNotDivisible {
                batch: self.batch,
                dp,
            });
        }
        let experts = self.model.num_experts();
        if !experts.is_multiple_of(self.topology.ep()) {
            return Err(ConfigError::ExpertsNotDivisible {
                experts,
                ep: self.topology.ep(),
            });
        }
        for k in [self.k_snapshot, self.k_persist] {
            if k == 0 || k > experts {
                return Err(ConfigError::BadPecDegree { k, experts });
            }
        }
        if self.k_persist > self.k_snapshot {
            return Err(ConfigError::PersistExceedsSnapshot {
                k_persist: self.k_persist,
                k_snapshot: self.k_snapshot,
            });
        }
        if self.i_ckpt == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        let vocab = self.model.vocab_size();
        if self.topics == 0 || !vocab.is_multiple_of(self.topics) {
            return Err(ConfigError::TopicsDontDivideVocab {
                topics: self.topics,
                vocab,
            });
        }
        if self.ring_chunk == 0 {
            return Err(ConfigError::ZeroRingChunk);
        }
        let domains = num_failure_domains(&self.topology);
        if self.elastic.replication == 0 || self.elastic.replication > domains {
            return Err(ConfigError::ReplicationExceedsDomains {
                replication: self.elastic.replication,
                domains,
            });
        }
        if let Err(reason) = self.ckpt.validate() {
            return Err(ConfigError::BadCkptEngine { reason });
        }
        for event in &self.stragglers {
            // The finiteness check also rejects NaN, which would slip
            // through a plain `factor < 1.0` comparison.
            if event.rank >= self.world_size()
                || !event.factor.is_finite()
                || event.factor < 1.0
                || event.duration == 0
            {
                return Err(ConfigError::BadStraggler {
                    rank: event.rank,
                    factor: event.factor,
                    duration: event.duration,
                });
            }
        }
        if self.detector.k_misses == 0 {
            return Err(ConfigError::ZeroDetectorMisses);
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        self.chaos
            .validate(self.topology.nodes(), self.world_size(), &self.detector)?;
        if self.chaos.has_flap() && !(self.elastic.shrink && self.elastic.rejoin_after.is_some()) {
            return Err(ConfigError::FlapWithoutRejoin);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ParallelTopology {
        ParallelTopology::dp_ep(2, 4, 8, 8).unwrap()
    }

    #[test]
    fn tiny_config_is_valid() {
        let cfg = RuntimeConfig::tiny(topo());
        cfg.validate().unwrap();
        assert_eq!(cfg.world_size(), 8);
        assert_eq!(cfg.batch_per_rank(), 1);
    }

    #[test]
    fn baseline_disables_pec() {
        let cfg = RuntimeConfig::baseline(topo());
        cfg.validate().unwrap();
        assert_eq!(cfg.k_snapshot, cfg.model.num_experts());
        assert_eq!(cfg.checkpoint_mode, CheckpointMode::Sync);
        assert!(!cfg.two_level);
        assert_eq!(cfg.collective, CollectiveKind::Ring);
    }

    #[test]
    fn tiny_defaults_to_ring_collective() {
        let cfg = RuntimeConfig::tiny(topo());
        assert_eq!(cfg.collective, CollectiveKind::Ring);
        assert!(cfg.ring_chunk > 0);
    }

    #[test]
    fn zero_ring_chunk_rejected() {
        let cfg = RuntimeConfig {
            ring_chunk: 0,
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroRingChunk));
    }

    #[test]
    fn bad_straggler_rejected() {
        let out_of_range = RuntimeConfig {
            stragglers: vec![SlowEvent::once(2, 99, 2.0)],
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            out_of_range.validate(),
            Err(ConfigError::BadStraggler { rank: 99, .. })
        ));
        let speedup = RuntimeConfig {
            stragglers: vec![SlowEvent::once(2, 0, 0.5)],
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            speedup.validate(),
            Err(ConfigError::BadStraggler { rank: 0, .. })
        ));
        let zero_duration = RuntimeConfig {
            stragglers: vec![SlowEvent::sustained(0, 2, 0, 2.0)],
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            zero_duration.validate(),
            Err(ConfigError::BadStraggler { rank: 0, .. })
        ));
        for bad in [f64::NAN, f64::INFINITY] {
            let cfg = RuntimeConfig {
                stragglers: vec![SlowEvent::once(2, 0, bad)],
                ..RuntimeConfig::tiny(topo())
            };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::BadStraggler { .. })),
                "factor {bad} must be rejected"
            );
        }
    }

    #[test]
    fn unhostable_replication_rejected() {
        // topo(): 2 nodes -> 2 failure domains.
        for bad in [0usize, 3, 9] {
            let cfg = RuntimeConfig {
                elastic: ElasticConfig::shrink(bad),
                ..RuntimeConfig::tiny(topo())
            };
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::ReplicationExceedsDomains {
                    replication: bad,
                    domains: 2
                }),
                "replication {bad} must be rejected"
            );
        }
        let ok = RuntimeConfig {
            elastic: ElasticConfig::shrink(2),
            ..RuntimeConfig::tiny(topo())
        };
        ok.validate().unwrap();
    }

    #[test]
    fn bad_ckpt_engine_rejected() {
        let cfg = RuntimeConfig {
            ckpt: EngineConfig {
                rebase_interval: 0,
                ..EngineConfig::default()
            },
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadCkptEngine { .. })
        ));
    }

    #[test]
    fn tiny_enables_delta_baseline_disables() {
        assert!(RuntimeConfig::tiny(topo()).ckpt.delta);
        assert!(!RuntimeConfig::baseline(topo()).ckpt.delta);
    }

    #[test]
    fn uneven_batch_rejected() {
        let cfg = RuntimeConfig {
            batch: 5,
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BatchNotDivisible { batch: 5, dp: 8 })
        );
    }

    #[test]
    fn zero_interval_rejected() {
        let cfg = RuntimeConfig {
            i_ckpt: 0,
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCheckpointInterval));
    }

    #[test]
    fn bad_pec_rejected() {
        let cfg = RuntimeConfig {
            k_snapshot: 99,
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadPecDegree { k: 99, .. })
        ));
    }

    #[test]
    fn persist_above_snapshot_rejected() {
        let cfg = RuntimeConfig {
            k_snapshot: 2,
            k_persist: 4,
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::PersistExceedsSnapshot {
                k_persist: 4,
                k_snapshot: 2
            })
        );
    }

    #[test]
    fn supported_tp_pp_shapes_accepted() {
        // tiny_lm_8e has 4 layers, so pp <= 4 and any small tp is fine.
        for (nodes, gpn, dp, tp, pp, ep) in
            [(2, 8, 4, 4, 1, 4), (2, 8, 4, 1, 4, 2), (2, 8, 2, 2, 4, 2)]
        {
            let topology = ParallelTopology::new(nodes, gpn, dp, tp, pp, ep).unwrap();
            let cfg = RuntimeConfig {
                batch: dp,
                ..RuntimeConfig::tiny(topology)
            };
            cfg.validate()
                .unwrap_or_else(|e| panic!("shape {topology} must validate: {e}"));
            assert_eq!(cfg.world_size(), dp * tp * pp);
            assert_eq!(cfg.batch_per_rank(), 1);
        }
    }

    #[test]
    fn starved_pipeline_stage_rejected() {
        // 8 pipeline stages over the tiny model's 4 layers: a stage would
        // own no layer.
        let cfg = RuntimeConfig {
            topology: ParallelTopology::new(2, 8, 2, 1, 8, 2).unwrap(),
            batch: 2,
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::UnsupportedParallelism { pp: 8, .. })
        ));
    }

    #[test]
    fn starved_tensor_slice_rejected() {
        let hidden = RuntimeConfig::tiny(topo()).model.hidden_size();
        let tp = hidden + 1;
        // Build a grid wide enough to hold the oversized tp degree.
        let cfg = RuntimeConfig {
            topology: ParallelTopology::new(1, 2 * tp, 2, tp, 1, 2).unwrap(),
            batch: 2,
            ..RuntimeConfig::tiny(topo())
        };
        match cfg.validate() {
            Err(ConfigError::UnsupportedParallelism {
                tp: got, reason, ..
            }) => {
                assert_eq!(got, tp);
                assert!(reason.contains("slice"), "reason: {reason}");
            }
            other => panic!("expected UnsupportedParallelism, got {other:?}"),
        }
    }

    #[test]
    fn zero_detector_misses_rejected() {
        let cfg = RuntimeConfig {
            detector: DetectorConfig {
                k_misses: 0,
                lease: None,
            },
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDetectorMisses));
    }

    #[test]
    fn zero_retry_attempts_rejected() {
        let cfg = RuntimeConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroRetryAttempts));
    }

    #[test]
    fn flap_requires_elastic_rejoin() {
        use crate::faults::{ChaosEvent, FaultKind};
        let flap = ChaosPlan {
            events: vec![ChaosEvent {
                iteration: 2,
                kind: FaultKind::Flap { node: 0 },
            }],
            ..ChaosPlan::none()
        };
        let no_elastic = RuntimeConfig {
            chaos: flap.clone(),
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(no_elastic.validate(), Err(ConfigError::FlapWithoutRejoin));
        let shrink_no_rejoin = RuntimeConfig {
            chaos: flap.clone(),
            elastic: ElasticConfig::shrink(1),
            ..RuntimeConfig::tiny(topo())
        };
        assert_eq!(
            shrink_no_rejoin.validate(),
            Err(ConfigError::FlapWithoutRejoin)
        );
        let ok = RuntimeConfig {
            chaos: flap,
            elastic: ElasticConfig {
                shrink: true,
                replication: 1,
                rejoin_after: Some(2),
            },
            ..RuntimeConfig::tiny(topo())
        };
        ok.validate().unwrap();
    }

    #[test]
    fn chaos_events_validated_against_shape_and_detector() {
        use crate::faults::{ChaosEvent, FaultKind};
        let declared_dead = RuntimeConfig {
            chaos: ChaosPlan {
                events: vec![ChaosEvent {
                    iteration: 2,
                    kind: FaultKind::HeartbeatLoss { rank: 0, misses: 2 },
                }],
                ..ChaosPlan::none()
            },
            ..RuntimeConfig::tiny(topo())
        };
        // tiny() defaults to k_misses = 2, so a 2-window loss would be a
        // death, not a gray failure.
        assert!(matches!(
            declared_dead.validate(),
            Err(ConfigError::BadChaosEvent { .. })
        ));
        let out_of_range = RuntimeConfig {
            chaos: ChaosPlan {
                events: vec![ChaosEvent {
                    iteration: 2,
                    kind: FaultKind::MeshDrop { rank: 99 },
                }],
                ..ChaosPlan::none()
            },
            ..RuntimeConfig::tiny(topo())
        };
        assert!(matches!(
            out_of_range.validate(),
            Err(ConfigError::BadChaosEvent { .. })
        ));
    }

    #[test]
    fn straggler_rank_bound_is_the_global_world() {
        // dp = 2, tp = 2, pp = 2: global ranks 0..8 are all valid
        // straggler victims even though dp is only 2.
        let topology = ParallelTopology::new(1, 8, 2, 2, 2, 2).unwrap();
        let ok = RuntimeConfig {
            stragglers: vec![SlowEvent::once(2, 7, 2.0)],
            batch: 2,
            ..RuntimeConfig::tiny(topology)
        };
        ok.validate().unwrap();
        let bad = RuntimeConfig {
            stragglers: vec![SlowEvent::once(2, 8, 2.0)],
            batch: 2,
            ..RuntimeConfig::tiny(topology)
        };
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::BadStraggler { rank: 8, .. })
        ));
    }
}
