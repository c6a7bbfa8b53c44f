//! Decentralized gradient collectives.
//!
//! Gradients are exchanged among the rank threads themselves; the
//! coordinator never touches a gradient. Every iteration runs one
//! chunked all-reduce per DP gradient group:
//!
//! * [`mesh`] — [`RingMesh`]: per-rank peer channels forming the ring
//!   topology, rebuilt by the coordinator after every recovery;
//! * [`ring`] — [`ring_all_reduce`]: the chunked reduce + gather legs
//!   with the fixed DP-order combine contract (bitwise identical to
//!   [`sequential_sum_reference`]) and deadline-based abort on peer
//!   death;
//! * [`buffers`] — [`ChunkPool`]: preallocated, never-growing chunk
//!   buffers, so steady-state iterations perform zero gradient-buffer
//!   heap allocations;
//! * [`groups`] — [`GroupMesh`]: TP replica-consistency rings and PP
//!   stage-relay chains for mixed-parallelism worlds (`tp · pp > 1`),
//!   with the same deadline-abort discipline as the ring;
//! * [`hier`] — [`hier_all_reduce`]: the two-level topology-aware
//!   variant — members fold onto a same-node leader, leaders pipeline
//!   the running partial along the node chain — reproducing the same
//!   bits while keeping most ranks' traffic intra-node.
//!
//! With TP/PP shard groups, one ring runs *per DP gradient group* — the
//! `dp` ranks sharing `(tp, pp)` coordinates — rather than over the
//! flat world.

pub mod buffers;
pub mod groups;
pub mod hier;
pub mod mesh;
pub mod ring;

pub use buffers::{ChunkPool, PooledBuf};
pub use groups::{GroupAbort, GroupEndpoints, GroupMesh, GroupMsg};
pub use hier::{hier_all_reduce, HierEndpoints, HierMesh, HierMsg};
pub use mesh::{Leg, RingEndpoints, RingMesh, RingMsg};
pub use ring::{ring_all_reduce, sequential_sum_reference, RingAbort, RingTimings};

/// Which collective performs the per-iteration gradient exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Chunked ring all-reduce among the rank threads; per-rank cost is
    /// ~flat in world size. While the world is elastically shrunk, the
    /// ring keeps running over the survivors: the mesh keeps its full DP
    /// size and each dead slot is driven by its adopter with the adopted
    /// gradient, preserving the fold order bitwise.
    Ring,
    /// Two-level hierarchical reduce ([`hier_all_reduce`]): members fold
    /// onto their node leader in DP order, leaders pipeline the running
    /// partial along the node chain, and the result gathers back out —
    /// same bits as the flat ring, but most ranks only talk to a
    /// same-node leader. A degraded (shrunk) run falls back to the
    /// survivor ring.
    Hierarchical,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveKind::Ring => f.write_str("ring"),
            CollectiveKind::Hierarchical => f.write_str("hierarchical"),
        }
    }
}
