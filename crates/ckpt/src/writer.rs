//! The synchronous shard writer: delta encoding + two-phase manifest
//! commit.
//!
//! [`ShardWriter`] is the persist core shared by the background
//! [`crate::engine::CkptEngine`] worker and by synchronous callers (the
//! training-lab checkpointer). One [`ShardWriter::persist`] call writes
//! one checkpoint batch: every shard payload first (full or
//! delta-encoded) as one [`ObjectStore::put_batch`], then — a separate,
//! later `put` — the [`crate::manifest::ManifestEntry`] that commits
//! them. A crash — or an injected store failure — between or during
//! shard writes leaves orphans that no manifest references and **no**
//! writer state changes, so the chain's last committed checkpoint stays
//! recoverable bit-for-bit.
//!
//! Each checksum is computed once and carried: the raw payload's CRC
//! (dedup key, delta header, and the stored CRC of a full shard), the
//! delta base's CRC (kept with the base) and the stored CRC (manifest
//! record and, through [`BatchShard`], the store's frame header).

use crate::config::EngineConfig;
use crate::delta;
use crate::manifest::{manifest_module, ManifestEntry, ShardKind, ShardRecord};
use crate::pool::BufferPool;
use bytes::Bytes;
use moc_store::frame::crc32;
use moc_store::{BatchShard, ObjectStore, ShardKey, StatePart, StoreError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Work counters of one writer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriterStats {
    /// Committed checkpoint batches (manifests written).
    pub checkpoints: u64,
    /// Shards stored as full payloads.
    pub full_shards: u64,
    /// Shards stored as deltas.
    pub delta_shards: u64,
    /// Shards skipped because the identical payload was already committed.
    pub dedup_skips: u64,
    /// Full writes that replaced an existing delta base (periodic rebase
    /// or unprofitable delta).
    pub rebases: u64,
    /// Raw payload bytes of written shards (before delta encoding).
    pub raw_bytes: u64,
    /// Bytes actually stored for those shards (after delta encoding).
    pub stored_bytes: u64,
    /// Manifest payload bytes written.
    pub manifest_bytes: u64,
    /// Chain-aware GC passes executed.
    pub gc_runs: u64,
    /// Shard objects GC removed from the store.
    pub gc_pruned_shards: u64,
    /// Manifest objects GC removed from the store.
    pub gc_pruned_manifests: u64,
    /// Seconds spent delta-encoding.
    pub encode_secs: f64,
    /// Seconds spent in store writes (shards + manifests).
    pub persist_secs: f64,
}

impl WriterStats {
    /// Bytes the delta encoding avoided storing.
    pub fn delta_saved_bytes(&self) -> u64 {
        self.raw_bytes.saturating_sub(self.stored_bytes)
    }

    /// Folds another writer's counters into this one.
    pub fn merge(&mut self, other: &WriterStats) {
        self.checkpoints += other.checkpoints;
        self.full_shards += other.full_shards;
        self.delta_shards += other.delta_shards;
        self.dedup_skips += other.dedup_skips;
        self.rebases += other.rebases;
        self.raw_bytes += other.raw_bytes;
        self.stored_bytes += other.stored_bytes;
        self.manifest_bytes += other.manifest_bytes;
        self.gc_runs += other.gc_runs;
        self.gc_pruned_shards += other.gc_pruned_shards;
        self.gc_pruned_manifests += other.gc_pruned_manifests;
        self.encode_secs += other.encode_secs;
        self.persist_secs += other.persist_secs;
    }
}

/// Per-slot delta state: the last committed full shard and what has been
/// written against it.
struct BaseState {
    /// Version of the last committed full shard.
    version: u64,
    /// Its payload: the very buffer that was handed to the store, shared
    /// by refcount.
    bytes: Bytes,
    /// CRC of that payload.
    crc: u32,
    /// Consecutive deltas committed against it.
    deltas_since: u64,
    /// Version of the slot's last committed write (full or delta).
    last_version: u64,
    /// CRC of that write's raw payload (dedup key).
    last_crc: u32,
    /// Manifest record of that last committed write. A dedup-skipped
    /// shard still contributes this record to the new manifest, so
    /// re-committing a version (e.g. re-executed checkpoint iterations
    /// after a rollback) overwrites the old manifest with a superset,
    /// never a gutted one.
    last_record: ShardRecord,
}

/// Synchronous checkpoint writer owning one manifest chain.
pub struct ShardWriter {
    writer_id: usize,
    config: EngineConfig,
    store: Arc<dyn ObjectStore>,
    bases: HashMap<(String, StatePart), BaseState>,
    /// Last committed manifest version (the chain head).
    committed: Option<u64>,
    /// The writer's committed chain, ascending by version — its own
    /// committed `ChainStore` view, which chain-aware GC prunes from the
    /// head.
    chain: Vec<ManifestEntry>,
    /// Commits since the last GC pass.
    commits_since_gc: u64,
    pool: BufferPool,
    stats: WriterStats,
}

impl std::fmt::Debug for ShardWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriter")
            .field("writer_id", &self.writer_id)
            .field("committed", &self.committed)
            .finish()
    }
}

impl ShardWriter {
    /// Creates a writer persisting chain `writer_id` into `store`.
    pub fn new(writer_id: usize, store: Arc<dyn ObjectStore>, config: EngineConfig) -> Self {
        let pool = BufferPool::new(config.pool_idle_limit);
        Self::with_pool(writer_id, store, config, pool)
    }

    /// Like [`ShardWriter::new`] but drawing encode scratch from an
    /// external pool (the engine shares one pool across submit copies and
    /// writer scratch so the whole pipeline has one heap footprint).
    pub fn with_pool(
        writer_id: usize,
        store: Arc<dyn ObjectStore>,
        config: EngineConfig,
        pool: BufferPool,
    ) -> Self {
        Self {
            writer_id,
            config,
            store,
            bases: HashMap::new(),
            committed: None,
            chain: Vec::new(),
            commits_since_gc: 0,
            pool,
            stats: WriterStats::default(),
        }
    }

    /// The writer's chain id.
    pub fn writer_id(&self) -> usize {
        self.writer_id
    }

    /// The last committed checkpoint version.
    pub fn committed_version(&self) -> Option<u64> {
        self.committed
    }

    /// Work counters so far.
    pub fn stats(&self) -> WriterStats {
        self.stats.clone()
    }

    /// The writer's scratch-buffer pool (shared with the engine so the
    /// whole persist pipeline draws from one footprint).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Persists one checkpoint batch and commits it with a manifest.
    /// Shard keys carry their own versions (an old in-memory snapshot may
    /// be persisted under a manifest of a newer iteration); `version` is
    /// the checkpoint iteration the manifest commits.
    ///
    /// # Errors
    ///
    /// Propagates the first store failure. Nothing is committed in that
    /// case: the manifest is only written after every shard write
    /// succeeded, and the writer's delta state is left untouched.
    pub fn persist<'a>(
        &mut self,
        version: u64,
        shards: impl IntoIterator<Item = (&'a ShardKey, &'a [u8])>,
    ) -> Result<(), StoreError> {
        let mut records: Vec<ShardRecord> = Vec::new();
        let mut staged: HashMap<(String, StatePart), BaseState> = HashMap::new();
        let mut puts: Vec<BatchShard> = Vec::new();
        let mut batch = WriterStats::default();

        for (key, raw) in shards {
            let slot = (key.module.clone(), key.part);
            let raw_crc = crc32(raw);
            let base = staged.get(&slot).or_else(|| self.bases.get(&slot));
            if let Some(b) = base {
                if b.last_version == key.version && b.last_crc == raw_crc {
                    // Already durably committed: skip the write but keep
                    // the record in this manifest so the commit stays
                    // self-contained even if it overwrites a previous
                    // manifest of the same version.
                    records.push(b.last_record.clone());
                    batch.dedup_skips += 1;
                    continue;
                }
            }

            // Delta-eligible: a strictly older committed base exists, the
            // rebase budget allows another delta, and encoding pays off.
            let delta_base = base.filter(|b| {
                self.config.delta
                    && b.version < key.version
                    && b.deltas_since + 1 < self.config.rebase_interval
            });
            let encoded = delta_base.and_then(|b| {
                let mut scratch = self.pool.acquire();
                let t0 = Instant::now();
                let ok =
                    delta::encode_with_crcs(&b.bytes, b.crc, raw, raw_crc, b.version, &mut scratch);
                batch.encode_secs += t0.elapsed().as_secs_f64();
                ok.then(|| (Bytes::copy_from_slice(&scratch), b))
            });

            let (stored, stored_crc, kind, next_base) = match encoded {
                Some((delta_bytes, b)) => {
                    batch.delta_shards += 1;
                    let crc = crc32(&delta_bytes);
                    let kind = ShardKind::Delta {
                        base_version: b.version,
                    };
                    let next = (b.version, b.bytes.clone(), b.crc, b.deltas_since + 1);
                    (delta_bytes, crc, kind, next)
                }
                None => {
                    batch.full_shards += 1;
                    if base.is_some() {
                        batch.rebases += 1;
                    }
                    let full = Bytes::copy_from_slice(raw);
                    let next = (key.version, full.clone(), raw_crc, 0);
                    (full, raw_crc, ShardKind::Full, next)
                }
            };

            batch.raw_bytes += raw.len() as u64;
            batch.stored_bytes += stored.len() as u64;
            let record = ShardRecord {
                key: key.clone(),
                kind,
                stored_crc,
                stored_len: stored.len() as u64,
                raw_len: raw.len() as u64,
            };
            let (version, bytes, crc, deltas_since) = next_base;
            let next_state = BaseState {
                version,
                bytes,
                crc,
                deltas_since,
                last_version: key.version,
                last_crc: raw_crc,
                last_record: record.clone(),
            };
            records.push(record);
            puts.push(BatchShard {
                key: key.clone(),
                payload: stored,
                crc: stored_crc,
            });
            staged.insert(slot, next_state);
        }

        let t0 = Instant::now();
        self.store.put_batch(&puts)?;
        drop(puts); // the batch's delta payloads are not needed past here
        batch.persist_secs += t0.elapsed().as_secs_f64();

        // Commit point: the manifest goes in only after every shard write
        // succeeded. Anything before a crash here is an orphan the chain
        // reader never surfaces.
        let entry = ManifestEntry {
            version,
            // On a re-commit of the head version (re-executed checkpoint
            // after a rollback) the chain pointer stays strictly older.
            prev: self.committed.filter(|&c| c < version),
            shards: records,
        };
        let payload = entry.encode();
        batch.manifest_bytes += payload.len() as u64;
        let manifest_key =
            ShardKey::new(manifest_module(self.writer_id), StatePart::Extra, version);
        let t0 = Instant::now();
        self.store.put(&manifest_key, payload)?;
        batch.persist_secs += t0.elapsed().as_secs_f64();

        // Committed: fold the staged delta state and counters in.
        for (slot, state) in staged {
            self.bases.insert(slot, state);
        }
        self.committed = Some(version);
        // Maintain the committed chain. A rollback can re-commit *any*
        // earlier version (re-executed checkpoint iterations after a
        // recovery): entries at or above it are stale re-execution
        // targets — the replay will re-commit them in order — so they
        // drop here, keeping the chain ascending and duplicate-free
        // (the sortedness GC's keep anchor relies on).
        self.chain.retain(|e| e.version < version);
        self.chain.push(entry);
        batch.checkpoints = 1;
        self.stats.merge(&batch);
        self.commits_since_gc += 1;
        Ok(())
    }

    /// Runs [`ShardWriter::gc`] when the configured GC interval has
    /// elapsed since the last pass. Returns whether a pass ran. The
    /// engine's background worker calls this after every committed
    /// batch; synchronous callers may invoke it at their own cadence.
    ///
    /// # Errors
    ///
    /// Propagates store failures from the pass.
    pub fn maybe_gc(&mut self) -> Result<bool, StoreError> {
        if self.config.gc_interval == 0 || self.commits_since_gc < self.config.gc_interval {
            return Ok(false);
        }
        self.commits_since_gc = 0;
        self.gc()?;
        Ok(true)
    }

    /// Chain-aware garbage collection over this writer's committed view.
    ///
    /// The prune anchor is the `gc_keep_last`-newest committed version:
    /// every shard version the chain's records show superseded at that
    /// anchor is nominated (see `superseded_before`). A nominated shard
    /// is *doomed* unless a retained record still needs it — directly (a
    /// dedup re-commit re-records an old key) or as the full base of a
    /// retained delta — so superseded
    /// full+delta groups are dropped while every version the chain still
    /// reports keeps reconstructing bitwise.
    ///
    /// Deletion is two-phase for crash safety under the reader's
    /// prefix-strict commit rule: first every manifest listing a doomed
    /// record is *compacted* (atomically rewritten without it; leading
    /// manifests left empty are deleted so the chain start advances),
    /// then the doomed shard objects are removed. A crash between the
    /// phases leaves unreferenced orphans, never a manifest pointing at
    /// missing bytes.
    ///
    /// Store deletions go through [`ObjectStore::prune`] per slot,
    /// capped at the slot's contiguous doomed prefix of *stored*
    /// versions, so a slot another writer also persisted (expert
    /// migration during an elastic shrink) can never lose a foreign
    /// committed shard.
    ///
    /// # Errors
    ///
    /// Propagates store failures; the in-memory chain only forgets what
    /// the store confirmed.
    pub fn gc(&mut self) -> Result<(), StoreError> {
        if self.chain.len() <= self.config.gc_keep_last {
            return Ok(());
        }
        let keep_from = self.chain[self.chain.len() - self.config.gc_keep_last].version;
        let nominated = superseded_before(&self.chain, keep_from);

        // Partition the chain's keys: a nominated key survives only if a
        // kept record still needs it as its delta base (delta -> full is
        // one level, so a single closure pass suffices).
        let mut kept: HashSet<ShardKey> = HashSet::new();
        for entry in &self.chain {
            for record in &entry.shards {
                if !nominated.contains(&record.key) {
                    kept.insert(record.key.clone());
                }
            }
        }
        for entry in &self.chain {
            for record in &entry.shards {
                if let ShardKind::Delta { base_version } = record.kind {
                    if kept.contains(&record.key) {
                        kept.insert(ShardKey::new(
                            record.key.module.clone(),
                            record.key.part,
                            base_version,
                        ));
                    }
                }
            }
        }
        // Per-slot candidate versions (nominated and unneeded), for the
        // stored-prefix scan below.
        let mut cand_by_slot: BTreeMap<(String, StatePart), HashSet<u64>> = BTreeMap::new();
        for entry in &self.chain {
            for record in &entry.shards {
                let k = &record.key;
                if nominated.contains(k) && !kept.contains(k) {
                    cand_by_slot
                        .entry((k.module.clone(), k.part))
                        .or_default()
                        .insert(k.version);
                }
            }
        }
        if cand_by_slot.is_empty() {
            return Ok(());
        }

        // Deletion goes through [`ObjectStore::prune`], a strictly
        // range-below operation, so only each slot's contiguous
        // candidate prefix of *stored* versions is actually deletable —
        // a kept old delta base, or a foreign writer's interleaved
        // version (expert migration during an elastic shrink), caps the
        // range. Keys beyond the cap stay committed and recoverable
        // instead of becoming dead weight in a compacted manifest.
        let mut stored: BTreeMap<(String, StatePart), Vec<u64>> = BTreeMap::new();
        for key in self.store.keys()? {
            stored
                .entry((key.module, key.part))
                .or_default()
                .push(key.version);
        }
        let mut doomed: HashSet<ShardKey> = HashSet::new();
        let mut prune_bounds: Vec<(String, StatePart, u64)> = Vec::new();
        for ((module, part), candidates) in &cand_by_slot {
            let Some(versions) = stored.get_mut(&(module.clone(), *part)) else {
                continue;
            };
            versions.sort_unstable();
            let mut bound = None;
            for &v in versions.iter() {
                if candidates.contains(&v) {
                    doomed.insert(ShardKey::new(module.clone(), *part, v));
                    bound = Some(v);
                } else {
                    break;
                }
            }
            if let Some(v) = bound {
                prune_bounds.push((module.clone(), *part, v));
            }
        }
        if doomed.is_empty() {
            return Ok(());
        }

        // Phase 1: compact every manifest listing a doomed record —
        // after this, no committed manifest references the bytes phase 2
        // removes. Each stored rewrite succeeds *before* the in-memory
        // entry adopts it, so a mid-phase store failure leaves the
        // writer's view never ahead of the store: un-compacted entries
        // still carry their records and a later pass re-nominates them.
        for entry in &mut self.chain {
            if !entry.shards.iter().any(|r| doomed.contains(&r.key)) {
                continue;
            }
            let mut compacted = entry.clone();
            compacted.shards.retain(|r| !doomed.contains(&r.key));
            let manifest_key = ShardKey::new(
                manifest_module(self.writer_id),
                StatePart::Extra,
                entry.version,
            );
            let payload = compacted.encode();
            self.stats.manifest_bytes += payload.len() as u64;
            self.store.put(&manifest_key, payload)?;
            *entry = compacted;
        }
        // Leading manifests left empty carry no information: delete them
        // so the chain start advances (never past the keep anchor).
        let mut first_kept_idx = 0usize;
        while first_kept_idx < self.chain.len() - self.config.gc_keep_last
            && self.chain[first_kept_idx].shards.is_empty()
        {
            first_kept_idx += 1;
        }
        let mut pruned_manifests = 0u64;
        if first_kept_idx > 0 {
            let first_kept = self.chain[first_kept_idx].version;
            pruned_manifests = self.store.prune(
                &manifest_module(self.writer_id),
                StatePart::Extra,
                first_kept,
            )? as u64;
            self.chain.drain(..first_kept_idx);
        }

        // Phase 2: the deletions themselves, per slot up to the bound
        // established above.
        let mut pruned_shards = 0u64;
        for (module, part, v) in prune_bounds {
            pruned_shards += self.store.prune(&module, part, v + 1)? as u64;
        }
        self.stats.gc_runs += 1;
        self.stats.gc_pruned_shards += pruned_shards;
        self.stats.gc_pruned_manifests += pruned_manifests;
        Ok(())
    }
}

/// GC's nomination over a committed chain: per slot, every recorded
/// version older than the slot's *anchor* — its newest version
/// `≤ keep_from`. The anchor itself is never nominated, so a slot PEC
/// skipped since its last persist keeps that version, and a slot with no
/// version at or below `keep_from` nominates nothing.
///
/// Returned as a `ShardKey` set so GC's membership probes reuse a
/// record's key reference instead of cloning its module string (GC runs
/// on the background persist thread, which sits on the checkpoint
/// critical path in sync mode).
fn superseded_before(chain: &[ManifestEntry], keep_from: u64) -> HashSet<ShardKey> {
    let keys = || chain.iter().flat_map(|e| &e.shards).map(|r| &r.key);
    let mut anchors: HashMap<(&str, StatePart), u64> = HashMap::new();
    for key in keys().filter(|k| k.version <= keep_from) {
        let anchor = anchors.entry((&key.module, key.part)).or_default();
        *anchor = (*anchor).max(key.version);
    }
    keys()
        .filter(|k| {
            anchors
                .get(&(k.module.as_str(), k.part))
                .is_some_and(|&anchor| k.version < anchor)
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ChainStore;
    use moc_store::MemoryObjectStore;

    fn payload(seed: u8, len: usize) -> Vec<u8> {
        let values: Vec<f32> = (0..len)
            .map(|i| (i as f32) + f32::from(seed) * 1e-3)
            .collect();
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn store() -> Arc<dyn ObjectStore> {
        Arc::new(MemoryObjectStore::new())
    }

    #[test]
    fn full_then_delta_then_rebase() {
        let store = store();
        let cfg = EngineConfig {
            delta: true,
            rebase_interval: 3,
            ..EngineConfig::default()
        };
        let mut w = ShardWriter::new(0, store.clone(), cfg);
        let key = |v: u64| ShardKey::new("layer1.expert0", StatePart::Weights, v);
        for v in 1..=5u64 {
            let p = payload(v as u8, 256);
            w.persist(v * 10, [(&key(v * 10), &p[..])]).unwrap();
        }
        let s = w.stats();
        // v10 full, v20/v30 deltas, v40 rebase (budget exhausted), v50 delta.
        assert_eq!(s.checkpoints, 5);
        assert_eq!(s.full_shards, 2);
        assert_eq!(s.delta_shards, 3);
        assert_eq!(s.rebases, 1);
        assert!(s.stored_bytes < s.raw_bytes, "deltas must save bytes");
        // Every version reconstructs bitwise through the chain.
        let chain = ChainStore::load(store).unwrap();
        for v in 1..=5u64 {
            let got = chain.get(&key(v * 10)).unwrap().unwrap();
            assert_eq!(&got[..], &payload(v as u8, 256)[..], "version {v}");
        }
    }

    #[test]
    fn identical_repersist_is_deduped() {
        let store = store();
        let mut w = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let key = ShardKey::new("m", StatePart::Optimizer, 7);
        let p = payload(1, 64);
        w.persist(10, [(&key, &p[..])]).unwrap();
        w.persist(20, [(&key, &p[..])]).unwrap();
        let s = w.stats();
        assert_eq!(s.dedup_skips, 1);
        assert_eq!(s.full_shards, 1);
        // Both manifests committed; the shard resolves either way.
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), Some(20));
        assert_eq!(&chain.get(&key).unwrap().unwrap()[..], &p[..]);
    }

    #[test]
    fn store_failure_commits_nothing() {
        let store = store();
        let mut w = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let k1 = ShardKey::new("a", StatePart::Weights, 10);
        let p1 = payload(3, 128);
        w.persist(10, [(&k1, &p1[..])]).unwrap();

        let flaky = crate::testing::FlakyStore::new(store.clone(), 1);
        let mut w2 = ShardWriter::new(0, Arc::new(flaky), EngineConfig::default());
        let k2a = ShardKey::new("a", StatePart::Weights, 20);
        let k2b = ShardKey::new("b", StatePart::Weights, 20);
        let p2 = payload(4, 128);
        // First put succeeds, second fails: no manifest for version 20.
        assert!(w2.persist(20, [(&k2a, &p2[..]), (&k2b, &p2[..])]).is_err());
        assert_eq!(w2.committed_version(), None);

        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), Some(10));
        // The torn version is invisible; version 10 still reconstructs.
        assert_eq!(
            chain.latest_version("a", StatePart::Weights, 99).unwrap(),
            Some(10)
        );
        assert_eq!(&chain.get(&k1).unwrap().unwrap()[..], &p1[..]);
    }

    /// Whatever the batch holds — fulls, deltas, dedup skips, nothing at
    /// all — a persist is exactly one `put_batch` of the shards it
    /// writes, then one `put` of the manifest that commits them.
    #[test]
    fn persist_is_one_batch_then_one_manifest_put() {
        use crate::testing::{RecordingStore, StoreCall};
        let recording = Arc::new(RecordingStore::new());
        let mut w = ShardWriter::new(0, recording.clone(), EngineConfig::default());
        let key = |m: &str, v: u64| ShardKey::new(m, StatePart::Weights, v);
        let (p1, p2) = (payload(1, 128), payload(2, 128));
        let (a10, b10, c10) = (key("a", 10), key("b", 10), key("c", 10));
        w.persist(10, [(&a10, &p1[..]), (&b10, &p1[..]), (&c10, &p1[..])])
            .unwrap();
        // Version 20: `a` deltas, `b` is re-sent unchanged under its old
        // key (dedup: no write), `c` is absent.
        let a20 = key("a", 20);
        w.persist(20, [(&a20, &p2[..]), (&b10, &p1[..])]).unwrap();
        w.persist(30, std::iter::empty()).unwrap();
        assert_eq!(
            recording.calls(),
            vec![
                StoreCall::PutBatch(3),
                StoreCall::Put,
                StoreCall::PutBatch(1),
                StoreCall::Put,
                StoreCall::PutBatch(0),
                StoreCall::Put,
            ]
        );
        let log = recording.log();
        assert_eq!(log.len(), 4 + 3, "four shards, three manifests");
        assert_eq!(w.stats().dedup_skips, 1);
        assert_eq!(w.stats().delta_shards, 1);
    }

    /// A re-committed version (re-executed checkpoint iteration after a
    /// rollback) overwrites the old manifest with a superset: dedup
    /// skips the store writes but keeps every record, so the chain keeps
    /// resolving the version and later deltas against it.
    #[test]
    fn recommitted_version_keeps_its_records() {
        let store = store();
        let mut w = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let key10 = ShardKey::new("m", StatePart::Weights, 10);
        let key20 = ShardKey::new("m", StatePart::Weights, 20);
        let p10 = payload(1, 128);
        let p20 = payload(2, 128);
        w.persist(10, [(&key10, &p10[..])]).unwrap();
        w.persist(20, [(&key20, &p20[..])]).unwrap(); // delta vs 10
                                                      // Replay re-commits version 20 with the identical payload.
        w.persist(20, [(&key20, &p20[..])]).unwrap();
        assert_eq!(w.stats().dedup_skips, 1);
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), Some(20));
        assert_eq!(
            &chain.get(&key20).unwrap().unwrap()[..],
            &p20[..],
            "the re-committed manifest must still carry the record"
        );
        // And a later delta against the same chain still resolves.
        let key30 = ShardKey::new("m", StatePart::Weights, 30);
        let p30 = payload(3, 128);
        w.persist(30, [(&key30, &p30[..])]).unwrap();
        let chain = ChainStore::load(w.store.clone()).unwrap();
        assert_eq!(&chain.get(&key30).unwrap().unwrap()[..], &p30[..]);
    }

    /// Two versions of one slot inside a single batch: the second
    /// delta-encodes against the first (staged) base, and the chain
    /// resolves both even though base and delta share a manifest.
    #[test]
    fn intra_batch_same_slot_delta_resolves() {
        let store = store();
        let mut w = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let k1 = ShardKey::new("m", StatePart::Weights, 5);
        let k2 = ShardKey::new("m", StatePart::Weights, 9);
        let p1 = payload(1, 128);
        let p2 = payload(2, 128);
        w.persist(9, [(&k1, &p1[..]), (&k2, &p2[..])]).unwrap();
        assert_eq!(
            w.stats().delta_shards,
            1,
            "second write deltas vs staged base"
        );
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(&chain.get(&k1).unwrap().unwrap()[..], &p1[..]);
        assert_eq!(&chain.get(&k2).unwrap().unwrap()[..], &p2[..]);
    }

    /// Chain-aware GC drops superseded full+delta groups from the head
    /// of the chain — and their manifests — while every version the
    /// chain still reports reconstructs bitwise.
    #[test]
    fn gc_prunes_superseded_groups_and_keeps_chain_valid() {
        let store = store();
        let cfg = EngineConfig {
            rebase_interval: 2,
            gc_keep_last: 2,
            ..EngineConfig::with_gc(1)
        };
        let mut w = ShardWriter::new(0, store.clone(), cfg);
        let key = |v: u64| ShardKey::new("m", StatePart::Weights, v);
        for v in 1..=8u64 {
            let p = payload(v as u8, 256);
            w.persist(v * 10, [(&key(v * 10), &p[..])]).unwrap();
            w.maybe_gc().unwrap();
        }
        let s = w.stats();
        assert!(s.gc_runs > 0, "GC must have run: {s:?}");
        assert!(s.gc_pruned_shards > 0, "old groups must be dropped");
        assert!(s.gc_pruned_manifests > 0, "their manifests too");

        let chain = ChainStore::load(store.clone()).unwrap();
        let committed = chain.committed_versions();
        assert!(
            committed.len() < 8,
            "superseded versions must be gone: {committed:?}"
        );
        assert!(
            committed.contains(&80),
            "the chain head must survive: {committed:?}"
        );
        // Every version the post-GC chain reports still reconstructs
        // bitwise (no stranded delta, no missing base).
        for &v in &committed {
            let got = chain.get(&key(v)).unwrap().unwrap();
            assert_eq!(&got[..], &payload((v / 10) as u8, 256)[..], "version {v}");
        }
        // Bytes actually shrank versus the no-GC run.
        let unpruned = store_without_gc(8);
        assert!(
            store.total_bytes().unwrap() < unpruned,
            "GC must reclaim store bytes"
        );
    }

    fn store_without_gc(versions: u64) -> u64 {
        let store = store();
        let cfg = EngineConfig {
            rebase_interval: 2,
            ..EngineConfig::default()
        };
        let mut w = ShardWriter::new(0, store.clone(), cfg);
        for v in 1..=versions {
            let p = payload(v as u8, 256);
            let key = ShardKey::new("m", StatePart::Weights, v * 10);
            w.persist(v * 10, [(&key, &p[..])]).unwrap();
        }
        store.total_bytes().unwrap()
    }

    /// GC never strands a delta: the full base of retained deltas
    /// survives even when it sits far below the prune anchor, while
    /// superseded sibling deltas between base and anchor are dropped.
    #[test]
    fn gc_keeps_delta_bases_alive() {
        let store = store();
        let cfg = EngineConfig {
            rebase_interval: 8,
            gc_keep_last: 2,
            ..EngineConfig::with_gc(1)
        };
        let mut w = ShardWriter::new(0, store.clone(), cfg);
        let key = |v: u64| ShardKey::new("m", StatePart::Weights, v);
        for v in 1..=6u64 {
            let p = payload(v as u8, 256);
            w.persist(v * 10, [(&key(v * 10), &p[..])]).unwrap();
            w.maybe_gc().unwrap();
        }
        // With rebase_interval 8 every later shard deltas against the
        // v10 full: the middle deltas are superseded, but deleting them
        // would require removing versions *above* the still-needed v10
        // base — outside `prune`'s range-below reach — so GC leaves the
        // whole group intact and recoverable rather than compacting
        // records it cannot reclaim.
        assert_eq!(w.stats().gc_pruned_shards, 0);
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.committed_versions().len(), 6);
        for v in 1..=6u64 {
            let got = chain.get(&key(v * 10)).unwrap().unwrap();
            assert_eq!(&got[..], &payload(v as u8, 256)[..], "version {v}");
        }
    }

    /// GC caps each slot's deletion at the contiguous doomed prefix of
    /// *stored* versions: a foreign writer's interleaved shard (expert
    /// migration during an elastic shrink) is never collateral damage.
    #[test]
    fn gc_spares_foreign_writers_shards() {
        let store = store();
        // Writer 1 owns "m" during a degraded window and committed v25.
        let mut w1 = ShardWriter::new(1, store.clone(), EngineConfig::full_only());
        let foreign = ShardKey::new("m", StatePart::Weights, 25);
        let fp = payload(9, 64);
        w1.persist(25, [(&foreign, &fp[..])]).unwrap();

        // Writer 0 wrote v10/v20 before and v30/v40 after; its GC wants
        // v10..v30 gone but must stop below the foreign v25.
        let cfg = EngineConfig {
            gc_keep_last: 1,
            rebase_interval: 2,
            ..EngineConfig::with_gc(8)
        };
        let mut w0 = ShardWriter::new(0, store.clone(), cfg);
        let key = |v: u64| ShardKey::new("m", StatePart::Weights, v);
        for v in [10u64, 20, 30, 40] {
            let p = payload(v as u8, 64);
            w0.persist(v, [(&key(v), &p[..])]).unwrap();
        }
        w0.gc().unwrap();
        assert!(w0.stats().gc_pruned_shards > 0);
        // v10 and v20 (below the foreign shard) are gone; v25 survives.
        assert!(store.get(&key(10)).unwrap().is_none());
        assert!(store.get(&key(20)).unwrap().is_none());
        assert_eq!(&store.get(&foreign).unwrap().unwrap()[..], &fp[..]);
        // Writer 1's chain still validates and serves its shard.
        let view = ChainStore::load_for_writers(store, &[1]).unwrap();
        assert_eq!(&view.get(&foreign).unwrap().unwrap()[..], &fp[..]);
    }

    /// The nomination keeps each slot's anchor: a skipped expert's only
    /// version survives, and versions newer than the keep point are
    /// never nominated.
    #[test]
    fn nomination_spares_anchors_and_newer_versions() {
        let entry = |version: u64, modules: &[&str]| ManifestEntry {
            version,
            prev: None,
            shards: modules
                .iter()
                .map(|m| ShardRecord {
                    key: ShardKey::new(*m, StatePart::Weights, version),
                    kind: ShardKind::Full,
                    stored_crc: 0,
                    stored_len: 0,
                    raw_len: 0,
                })
                .collect(),
        };
        // The non-expert persists every time; expert0 only at 10,
        // expert1 only at 20.
        let chain = [
            entry(10, &["embedding", "layer1.expert0"]),
            entry(20, &["embedding", "layer1.expert1"]),
            entry(30, &["embedding"]),
        ];
        let key = |m: &str, v: u64| ShardKey::new(m, StatePart::Weights, v);
        assert_eq!(
            superseded_before(&chain, 30),
            HashSet::from([key("embedding", 10), key("embedding", 20)])
        );
        assert_eq!(
            superseded_before(&chain, 20),
            HashSet::from([key("embedding", 10)])
        );
        assert!(superseded_before(&chain, 5).is_empty());
    }

    #[test]
    fn delta_disabled_writes_full_only() {
        let store = store();
        let mut w = ShardWriter::new(0, store, EngineConfig::full_only());
        let key = |v: u64| ShardKey::new("m", StatePart::Weights, v);
        for v in [1u64, 2, 3] {
            let p = payload(v as u8, 64);
            w.persist(v, [(&key(v), &p[..])]).unwrap();
        }
        let s = w.stats();
        assert_eq!(s.delta_shards, 0);
        assert_eq!(s.full_shards, 3);
        assert_eq!(s.raw_bytes, s.stored_bytes);
    }
}
