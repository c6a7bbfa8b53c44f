//! # moc-runtime — a live multi-rank training runtime
//!
//! Where `moc-cluster` *models* checkpoint timelines analytically and
//! `moc-train`'s harness replays faults inside a single-threaded loop,
//! this crate actually runs the scenario the paper is about: a
//! multi-rank hybrid-parallel (DP × TP × PP with EP inside DP) training
//! job in which a node dies mid-iteration and two-level recovery
//! happens live, with wall-clock measurements of every phase. Every
//! global rank of the grid is an OS thread; gradients all-reduce per DP
//! gradient group, TP groups exchange replica-consistency CRCs, PP
//! chains relay stage tokens, and checkpoint duties are owned per shard
//! group ([`owner_coord`]).
//!
//! * [`config`] — [`RuntimeConfig`]: model, topology, PEC policy,
//!   sync/async checkpoint mode, collective choice, fault and straggler
//!   plans, seeds;
//! * [`coordinator`] — the control plane: thread-per-rank membership,
//!   iteration barriers, heartbeat-based failure detection, recovery
//!   orchestration;
//! * [`collective`] — the gradient-exchange layer, run by the rank
//!   threads over peer channels with preallocated zero-alloc chunk
//!   buffers ([`collective::ChunkPool`]): [`CollectiveKind::Ring`] is a
//!   decentralized chunked ring all-reduce
//!   ([`collective::ring_all_reduce`]), [`CollectiveKind::Hierarchical`]
//!   its two-level node-aware variant; a recovery rebuilds the mesh and
//!   training resumes straight onto it;
//! * [`rank`] — rank worker threads owning real [`moc_train::TinyMoeLm`]
//!   replicas, plus the checkpoint-sharding ownership map
//!   ([`owner_rank`]);
//! * [`node`] — per-node CPU-memory tier handle and the asynchronous
//!   checkpoint engine ([`moc_ckpt::CkptEngine`]): copy-on-snapshot into
//!   pooled buffers, delta shards against the last full shard, and a
//!   per-node manifest chain committed strictly after the shards, so
//!   checkpoint iterations perform no blocking store I/O and recovery
//!   (through [`moc_ckpt::ChainStore`]) only ever sees committed state;
//! * [`injector`] — [`FaultInjector`]: materialises a
//!   [`moc_store::FaultPlan`] into mid-iteration node kills and a
//!   [`SlowEvent`] schedule into straggler slowdowns;
//! * [`faults`] — FaultPlan v2 ([`ChaosPlan`]): a unified seeded
//!   schedule adding gray failures — heartbeat loss, mesh-channel
//!   delay/drop, transient store outages, node flaps — plus the
//!   K-missed-heartbeats suspicion detector ([`DetectorConfig`]) and
//!   the chaos-schedule generator behind the soak harness;
//! * [`recovery_exec`] — live execution of two-level recovery plans;
//!   with [`ElasticConfig::shrink`] the coordinator recovers node
//!   deaths *elastically*: surviving shard groups adopt the dead
//!   groups' batch slices and experts under a `moc-elastic` placement
//!   plan, the run continues degraded (bitwise on the fixed-shape
//!   trajectory), and replacement ranks can rejoin later;
//! * [`metrics`] — per-phase wall-clock statistics, run timelines, and
//!   the [`RunSummary::analytic_projection`] hook feeding measured phase
//!   times back into `moc-cluster`'s event simulator.
//!
//! # Determinism
//!
//! Batches, gate noise, expert selection and fault schedules are all pure
//! functions of the configured seed and iteration number (batch slice
//! and gate noise keyed by the *DP coordinate*, so a shard group's
//! members step identically), and gradients are reduced in one fixed
//! combine order — the DP-order left fold `((g₀ + g₁) + g₂) + …` scaled
//! by `1/dp` within each DP gradient group
//! ([`collective::sequential_sum_reference`]) — regardless of which
//! collective runs it and independent of message arrival timing (see
//! [`collective::ring`]). So a run's final parameters are bitwise
//! reproducible, ring and hierarchical runs of the same seed are bitwise
//! identical, a `(dp, tp, pp)` grid run is bitwise identical to the
//! `tp = pp = 1` baseline with the same `dp`, and a faulted run under
//! full checkpointing recovers to exactly the state an unfaulted run had
//! at the resume iteration. The coordinator cross-checks every rank's
//! final parameter checksum ([`RunSummary::replicas_consistent`]) and
//! every TP group's per-iteration CRC exchange
//! ([`RunSummary::tp_groups_consistent`]).
//!
//! # Examples
//!
//! ```
//! use moc_runtime::{Coordinator, RuntimeConfig};
//! use moc_core::ParallelTopology;
//! use moc_store::MemoryObjectStore;
//! use std::sync::Arc;
//!
//! let topo = ParallelTopology::dp_ep(2, 2, 4, 4).unwrap();
//! let config = RuntimeConfig {
//!     total_iterations: 8,
//!     i_ckpt: 4,
//!     ..RuntimeConfig::tiny(topo)
//! };
//! let summary = Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(summary.replicas_consistent);
//! ```

#![warn(missing_docs)]

pub mod collective;
pub mod config;
pub mod coordinator;
pub mod faults;
pub mod injector;
pub mod metrics;
pub mod node;
pub(crate) mod rank;
pub mod recovery_exec;
pub mod report;

pub use collective::{
    ChunkPool, CollectiveKind, GroupAbort, GroupEndpoints, GroupMesh, HierMesh, RingAbort,
    RingMesh, RingTimings,
};
pub use config::{CheckpointMode, ConfigError, ElasticConfig, RuntimeConfig};
pub use coordinator::{Coordinator, RuntimeError};
pub use faults::{
    generate_schedule, ChaosEvent, ChaosPlan, ChaosProfile, DetectorConfig, FaultKind, MeshChaos,
    SuspicionSim, SuspicionVerdict,
};
pub use injector::{FaultInjector, SlowEvent};
pub use metrics::{EventKind, MetricsRegistry, Phase, PhaseStats, RunSummary, TimelineEvent};
pub use moc_ckpt::{ChainStore, EngineConfig as CkptEngineConfig, EngineStats as CkptEngineStats};
pub use moc_obs::{ObsConfig, ObsRunReport};
pub use node::NodeRuntime;
pub use rank::{owner_coord, owner_rank};
pub use recovery_exec::{execute_recovery, RecoveryOutcome};
