//! # moc-ckpt — the asynchronous sharded checkpoint engine
//!
//! The one checkpoint engine. Where `moc_core::twolevel` models the
//! paper's Fig. 9 triple buffer and defines the `ShardJob` a checkpoint
//! submits, and `moc-train` serializes module state, this crate owns the
//! checkpoint *data path* end to end — snapshot → shard → persist — as a
//! pipeline instead of a blocking call:
//!
//! * [`plan`] — partial-expert shard selection (PEC-FSS): the rotating
//!   `K_snapshot` / `K_persist` expert sets, with per-rank byte workloads
//!   from `moc_core::sharding`;
//! * [`pool`] — the reusable buffer pool behind copy-on-snapshot and
//!   delta-encode scratch (its allocation count plateaus after warm-up);
//! * [`delta`] — delta shards: byte-plane XOR + RLE against the slot's
//!   last full shard, with periodic full rebase and CRC self-checking;
//! * [`manifest`] — the versioned manifest chain: per-writer commit
//!   records naming every shard (kind, base, CRC), written strictly
//!   *after* the shards so the store's atomic rename makes each manifest
//!   a commit point;
//! * [`writer`] — [`ShardWriter`]: the synchronous persist core (encode,
//!   write shards, commit manifest; nothing committed on failure);
//! * [`engine`] — [`CkptEngine`]: the per-node background pipeline with
//!   double-buffered admission, so training threads never perform store
//!   I/O at a checkpoint;
//! * [`reader`] — [`ChainStore`]: a read-only `ObjectStore` view serving
//!   only committed state, reconstructing `full ⊕ delta` bitwise — the
//!   view recovery plans against, which makes torn persists invisible;
//! * [`testing`] — crash-injection store wrappers for consistency tests.
//!
//! # Examples
//!
//! ```
//! use moc_ckpt::{ChainStore, EngineConfig, ShardWriter};
//! use moc_store::{MemoryObjectStore, ObjectStore, ShardKey, StatePart};
//! use std::sync::Arc;
//!
//! let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
//! let mut writer = ShardWriter::new(0, store.clone(), EngineConfig::default());
//! let key = ShardKey::new("layer1.expert0", StatePart::Weights, 10);
//! let payload = vec![0u8; 64];
//! writer.persist(10, [(&key, &payload[..])])?;
//!
//! let chain = ChainStore::load(store)?;
//! assert_eq!(chain.newest_committed(), Some(10));
//! assert_eq!(&chain.get(&key)?.unwrap()[..], &payload[..]);
//! # Ok::<(), moc_store::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod engine;
pub mod manifest;
pub mod plan;
pub mod pool;
pub mod reader;
pub mod testing;
pub mod writer;

pub use config::EngineConfig;
pub use engine::{CkptEngine, EngineStats};
pub use manifest::{manifest_module, manifest_writer, ManifestEntry, ShardKind, ShardRecord};
pub use plan::{shard_group_of_expert, CheckpointSelection, PartialPlan};
pub use pool::BufferPool;
pub use reader::ChainStore;
pub use writer::{ShardWriter, WriterStats};
