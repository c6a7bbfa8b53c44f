//! Two-level checkpointing management — Section 5.
//!
//! * [`buffers`] — the triple-buffer state machine of Fig. 9, which
//!   `moc_cluster::events` replays in virtual time;
//! * [`ShardJob`] — the unit of work a checkpoint hands to the
//!   asynchronous engine (`moc_ckpt::CkptEngine`), which snapshots it and
//!   persists the persist-PEC subset.

pub mod buffers;

pub use buffers::{BufferError, BufferId, BufferState, SnapshotOutcome, TripleBuffer};

use bytes::Bytes;
use moc_store::ShardKey;

/// One shard to checkpoint: its key, payload, and whether the persist
/// level should also write it (persist-PEC subset membership).
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Key the shard is stored under (version = checkpoint iteration).
    pub key: ShardKey,
    /// Payload bytes (already serialized model state).
    pub payload: Bytes,
    /// Whether persist-PEC persists this shard to storage.
    pub persist: bool,
}
