//! # moc-core — the Mixture-of-Checkpoint System
//!
//! The paper's primary contribution, reproduced as a library:
//!
//! * [`selection`] — Partial Experts Checkpointing (PEC) with sequential
//!   and load-aware expert selection (Section 3);
//! * [`plt`] — the Proportion of Lost Tokens metric, analytic and
//!   event-accurate (Eq. 7, Fig. 5);
//! * [`dynamic_k`] — the Dynamic-K controller bounding PLT under fault
//!   accumulation (Section 5.3, Fig. 15(b));
//! * [`topology`] — ZeRO-2 DP + EP layouts (Table 2);
//! * [`placement`] — failure-domain-aware expert placement plans, the
//!   substrate of `moc-elastic`'s shrink/expand recovery;
//! * [`sharding`] — baseline / equal-expert / equal / adaptive non-expert
//!   checkpoint sharding with bottleneck-rank analysis (Section 4, Fig. 10);
//! * [`twolevel`] — the Fig. 9 triple-buffer model and the
//!   [`twolevel::ShardJob`] a checkpoint hands to `moc_ckpt::CkptEngine`,
//!   the one asynchronous snapshot/persist engine (Section 5);
//! * [`recovery`] — two-level recovery planning (Fig. 8);
//! * [`overhead`] — the closed-form overhead model and adaptive
//!   configuration (Eqs. 3–16).
//!
//! # Examples
//!
//! ```
//! use moc_core::selection::PecConfig;
//!
//! // Fig. 4: 4 MoE layers, 3 experts, K_pec = 1 — rotating interleave.
//! let pec = PecConfig::sequential(1, 3, 4);
//! let first: Vec<usize> = pec.select(0).iter().map(|e| e.expert).collect();
//! assert_eq!(first, vec![0, 1, 2, 0]);
//! ```

#![warn(missing_docs)]

pub mod dynamic_k;
pub mod overhead;
pub mod placement;
pub mod plt;
pub mod recovery;
pub mod selection;
pub mod sharding;
pub mod topology;
pub mod twolevel;

pub use dynamic_k::DynamicK;
pub use overhead::{AdaptivePecChoice, AdaptivePecInputs, OverheadInputs};
pub use placement::{domain_of_group, num_failure_domains, PlacementError, PlacementPlan};
pub use plt::{analytic_plt, PltAccumulator, PltReport, PltSimulation};
pub use recovery::{RecoveryAction, RecoveryError, RecoveryPlan, RecoverySource};
pub use selection::{PecConfig, SelectionStrategy};
pub use sharding::{
    base_module, expert_module_name, CheckpointWorkload, PlanError, RankWorkload, SaveItem,
    ShardingPlanner, ShardingStrategy,
};
pub use topology::{ParallelTopology, RankCoord, TopologyError};
pub use twolevel::TripleBuffer;
