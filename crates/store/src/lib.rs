//! # moc-store — storage substrate for the MoC-System reproduction
//!
//! The checkpoint data paths of the paper (Fig. 3, Fig. 8), built from
//! scratch:
//!
//! * [`key`] — versioned shard keys, the key-value naming scheme of the
//!   two-level checkpointing management;
//! * [`frame`] — crash-safe binary framing with checksums;
//! * [`object`] — the persistent tier: an [`ObjectStore`] trait with
//!   in-memory and real file-backed implementations;
//! * [`memory`] — the CPU-memory tier: per-node snapshot stores that a
//!   node fault wipes;
//! * [`failure`] — deterministic fault schedules (explicit, periodic,
//!   Poisson with rate λ);
//! * [`retry`] — [`RetryStore`]: capped exponential backoff around every
//!   store operation, with typed exhaustion errors, so transient blips
//!   don't abort checkpoints or recovery;
//! * [`chaos`] — [`ChaosStore`]: deterministic operation-indexed fault
//!   injection (the storage leg of the runtime's FaultPlan v2);
//! * [`tier`] — bandwidth specifications of the transfer paths
//!   (1 GB/s A800 / 2 GB/s H100 snapshot bandwidths from the paper).
//!
//! # Examples
//!
//! ```
//! use moc_store::{MemoryObjectStore, ObjectStore, ShardKey, StatePart};
//! use bytes::Bytes;
//!
//! let store = MemoryObjectStore::new();
//! let key = ShardKey::new("layer1.expert0", StatePart::Weights, 100);
//! store.put(&key, Bytes::from_static(b"expert weights"))?;
//! assert_eq!(store.latest_version("layer1.expert0", StatePart::Weights, 100)?, Some(100));
//! # Ok::<(), moc_store::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod failure;
pub mod frame;
pub mod key;
pub mod memory;
pub mod object;
pub mod retry;
pub mod tier;

pub use chaos::{ChaosStore, OutagePath, StoreFaultPlan, StoreOutage};
pub use failure::{FaultEvent, FaultPlan};
pub use key::{ShardKey, StatePart};
pub use memory::{ClusterMemory, NodeId, NodeMemoryStore};
pub use object::{BatchShard, FileObjectStore, MemoryObjectStore, ObjectStore, StoreError};
pub use retry::{RetryPolicy, RetryStore};
pub use tier::{StorageHierarchy, TierLink, GB, GIB};
