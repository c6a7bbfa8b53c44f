//! Reading a manifest chain back: committed-state resolution.
//!
//! [`ChainStore`] is a read-only [`ObjectStore`] view over a raw store
//! that the checkpoint engine persisted into. It decodes every writer's
//! manifest chain, determines the *committed* checkpoint versions — those
//! for which **every** writer's manifest exists, decodes, and whose listed
//! shards (including transitive delta bases) are all present — and then
//! serves exactly the committed shards, transparently reconstructing
//! delta shards (`full ⊕ delta`) and verifying every CRC on the way.
//!
//! Orphaned shards from a torn persist (a writer died between shard
//! writes, before its manifest) are invisible: the two-level recovery
//! planner running on top of this view can only ever choose state that
//! reconstructs bit-for-bit. Commit validation is prefix-strict: versions
//! after the first incomplete one are rejected even if later manifests
//! look whole, so a chain is either accepted up to a consistent point or
//! not at all.

use crate::delta;
use crate::manifest::{manifest_writer, ManifestEntry, ShardKind, ShardRecord};
use bytes::Bytes;
use moc_store::frame::crc32;
use moc_store::{ObjectStore, ShardKey, StatePart, StoreError};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

fn read_only_error() -> StoreError {
    StoreError::Io(std::io::Error::other("chain view is read-only"))
}

fn integrity_error(msg: String) -> StoreError {
    StoreError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// Read-only committed-state view over an engine-written store.
pub struct ChainStore {
    inner: Arc<dyn ObjectStore>,
    /// Globally committed checkpoint versions, ascending.
    committed: BTreeSet<u64>,
    /// Writer ids that contributed manifests.
    writers: BTreeSet<usize>,
    /// Committed shard records: slot → version → record.
    slots: BTreeMap<(String, StatePart), BTreeMap<u64, ShardRecord>>,
    /// Every decoded record whose shard bytes are present, committed or
    /// not — delta bases resolve against this wider set: a base's
    /// *bytes* only need to exist and pass their CRC, its manifest
    /// version need not be globally committed (another writer's torn
    /// chain must not strand every later delta).
    bases: BTreeMap<(String, StatePart), BTreeMap<u64, ShardRecord>>,
}

impl std::fmt::Debug for ChainStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainStore")
            .field("writers", &self.writers.len())
            .field("committed", &self.committed.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl ChainStore {
    /// Loads and validates the manifest chains of `store`, inferring the
    /// writer set from the manifests observed. Prefer
    /// [`ChainStore::load_expecting`] when the writer count is known: a
    /// crash before a writer's *first* manifest would otherwise make that
    /// writer invisible and the global commit rule vacuous.
    ///
    /// # Errors
    ///
    /// Propagates raw-store failures. Malformed or incomplete chain
    /// *content* is not an error — those versions are simply not
    /// committed.
    pub fn load(store: Arc<dyn ObjectStore>) -> Result<Self, StoreError> {
        Self::load_expecting(store, None)
    }

    /// Like [`ChainStore::load`], but requiring manifests from writers
    /// `0..expected` (plus any extra chains observed): a version is
    /// committed only if **every** such writer committed it.
    ///
    /// # Errors
    ///
    /// Propagates raw-store failures.
    pub fn load_expecting(
        store: Arc<dyn ObjectStore>,
        expected_writers: Option<usize>,
    ) -> Result<Self, StoreError> {
        Self::load_inner(store, expected_writers.map(|n| (0..n).collect()), None)
    }

    /// Like [`ChainStore::load`], but the commit rule spans exactly the
    /// `required` writers: a version is committed when **every required**
    /// writer committed it and all listed shards (of every chain that
    /// has the version, required or not) validate. Chains outside
    /// `required` still *serve* their shards at committed versions —
    /// this is the elastic-shrink view, where a dead node's frozen chain
    /// must keep serving its pre-fault checkpoints without its absence
    /// freezing the commit frontier.
    ///
    /// # Errors
    ///
    /// Propagates raw-store failures.
    pub fn load_for_writers(
        store: Arc<dyn ObjectStore>,
        required: &[usize],
    ) -> Result<Self, StoreError> {
        let set: BTreeSet<usize> = required.iter().copied().collect();
        Self::load_inner(
            store,
            Some(set.iter().copied().collect::<Vec<_>>()),
            Some(set),
        )
    }

    /// Shared loader. `ensure` writers contribute (possibly empty)
    /// chains even without manifests; `commit_over`, when given,
    /// restricts the commit intersection to that writer set (otherwise
    /// every observed-or-ensured chain participates).
    fn load_inner(
        store: Arc<dyn ObjectStore>,
        ensure: Option<Vec<usize>>,
        commit_over: Option<BTreeSet<usize>>,
    ) -> Result<Self, StoreError> {
        let keys = store.keys()?;
        let key_set: HashSet<&ShardKey> = keys.iter().collect();

        // Decode every manifest, grouped by writer.
        let mut chains: BTreeMap<usize, BTreeMap<u64, ManifestEntry>> = BTreeMap::new();
        for key in &keys {
            let Some(writer) = manifest_writer(&key.module) else {
                continue;
            };
            let Some(payload) = store.get(key)? else {
                continue;
            };
            if let Ok(entry) = ManifestEntry::decode(&payload) {
                if entry.version == key.version {
                    chains
                        .entry(writer)
                        .or_default()
                        .insert(entry.version, entry);
                }
            }
        }

        // An expected writer with no manifests at all contributes an
        // empty chain, voiding every candidate version — a crash that
        // early left nothing committed.
        for w in ensure.unwrap_or_default() {
            chains.entry(w).or_default();
        }
        let writers: BTreeSet<usize> = chains.keys().copied().collect();
        // The writers whose agreement commits a version: all of them,
        // unless an explicit required set restricts the rule.
        let commit_writers: BTreeSet<usize> = commit_over.unwrap_or_else(|| writers.clone());
        let mut committed = BTreeSet::new();
        let mut slots: BTreeMap<(String, StatePart), BTreeMap<u64, ShardRecord>> = BTreeMap::new();

        // Index every record whose shard bytes exist, from every decoded
        // manifest (even uncommitted ones): the delta-base resolution
        // set. Integrity is still enforced at fetch time via the
        // record's CRC.
        let mut bases: BTreeMap<(String, StatePart), BTreeMap<u64, ShardRecord>> = BTreeMap::new();
        for chain in chains.values() {
            for entry in chain.values() {
                for record in &entry.shards {
                    if key_set.contains(&record.key) {
                        bases
                            .entry((record.key.module.clone(), record.key.part))
                            .or_default()
                            .insert(record.key.version, record.clone());
                    }
                }
            }
        }

        if !chains.is_empty() && !commit_writers.is_empty() {
            // Candidate versions: committed by every commit-rule writer
            // (a required writer without a chain voids everything).
            let empty = BTreeMap::new();
            let mut candidates: Option<BTreeSet<u64>> = None;
            for &w in &commit_writers {
                let versions: BTreeSet<u64> =
                    chains.get(&w).unwrap_or(&empty).keys().copied().collect();
                candidates = Some(match candidates {
                    None => versions,
                    Some(c) => c.intersection(&versions).copied().collect(),
                });
            }

            // Accept ascending, prefix-strict: a version is committed only
            // if every listed shard — from every chain that has the
            // version — exists and every delta's base resolves to a full
            // record.
            'versions: for v in candidates.unwrap_or_default() {
                let mut version_records: Vec<&ShardRecord> = Vec::new();
                for chain in chains.values() {
                    let Some(entry) = chain.get(&v) else {
                        // A non-required writer never committed v; its
                        // chain simply contributes nothing here.
                        continue;
                    };
                    for record in &entry.shards {
                        if !key_set.contains(&record.key) {
                            break 'versions;
                        }
                        if let ShardKind::Delta { base_version } = record.kind {
                            let base_ok = bases
                                .get(&(record.key.module.clone(), record.key.part))
                                .and_then(|m| m.get(&base_version))
                                .is_some_and(|r| r.kind == ShardKind::Full);
                            if !base_ok {
                                break 'versions;
                            }
                        }
                        version_records.push(record);
                    }
                }
                for record in version_records {
                    slots
                        .entry((record.key.module.clone(), record.key.part))
                        .or_default()
                        .insert(record.key.version, record.clone());
                }
                committed.insert(v);
            }
        }

        Ok(Self {
            inner: store,
            committed,
            writers,
            slots,
            bases,
        })
    }

    /// The newest globally committed checkpoint version.
    pub fn newest_committed(&self) -> Option<u64> {
        self.committed.last().copied()
    }

    /// All committed checkpoint versions, ascending.
    pub fn committed_versions(&self) -> Vec<u64> {
        self.committed.iter().copied().collect()
    }

    /// Writer chains observed in the store.
    pub fn writer_count(&self) -> usize {
        self.writers.len()
    }

    /// Committed shard records of one slot, ascending by version.
    pub fn slot_records(&self, module: &str, part: StatePart) -> Vec<&ShardRecord> {
        self.slots
            .get(&(module.to_string(), part))
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }

    fn record(&self, key: &ShardKey) -> Option<&ShardRecord> {
        self.slots
            .get(&(key.module.clone(), key.part))
            .and_then(|m| m.get(&key.version))
    }

    /// Fetches a committed shard's stored payload, CRC-verified against
    /// its manifest record.
    fn fetch_stored(&self, record: &ShardRecord) -> Result<Bytes, StoreError> {
        let payload = self.inner.get(&record.key)?.ok_or_else(|| {
            integrity_error(format!("committed shard {} missing from store", record.key))
        })?;
        if payload.len() as u64 != record.stored_len || crc32(&payload) != record.stored_crc {
            return Err(integrity_error(format!(
                "committed shard {} fails manifest crc/len check",
                record.key
            )));
        }
        Ok(payload)
    }

    /// Reconstructs the raw payload of a committed shard (applying its
    /// delta against the base full shard when necessary).
    fn reconstruct(&self, record: &ShardRecord) -> Result<Bytes, StoreError> {
        let stored = self.fetch_stored(record)?;
        match record.kind {
            ShardKind::Full => Ok(stored),
            ShardKind::Delta { base_version } => {
                let base_key =
                    ShardKey::new(record.key.module.clone(), record.key.part, base_version);
                // The base resolves against the wider decoded-record set
                // (its own version may be uncommitted); its CRC is still
                // verified against the manifest record on fetch.
                let base_record = self
                    .bases
                    .get(&(base_key.module.clone(), base_key.part))
                    .and_then(|m| m.get(&base_key.version))
                    .ok_or_else(|| {
                        integrity_error(format!("delta base {base_key} unresolvable"))
                    })?;
                if base_record.kind != ShardKind::Full {
                    return Err(integrity_error(format!(
                        "delta base {base_key} is not a full shard"
                    )));
                }
                // `fetch_stored` just verified the base against
                // `stored_crc` — for a full shard the CRC of the raw
                // payload the delta was encoded against — so the apply
                // matches base to delta by that value instead of hashing
                // the base a second time.
                let base = self.fetch_stored(base_record)?;
                delta::apply_with_base_crc(&base, base_record.stored_crc, &stored)
                    .map_err(|e| integrity_error(format!("applying delta {}: {e}", record.key)))
            }
        }
    }
}

impl ObjectStore for ChainStore {
    fn put(&self, _key: &ShardKey, _payload: Bytes) -> Result<(), StoreError> {
        Err(read_only_error())
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        match self.record(key) {
            Some(record) => self.reconstruct(&record.clone()).map(Some),
            None => Ok(None),
        }
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        Ok(self
            .slots
            .get(&(module.to_string(), part))
            .and_then(|m| m.range(..=at_or_before).next_back().map(|(&v, _)| v)))
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        let mut keys: Vec<ShardKey> = self
            .slots
            .values()
            .flat_map(|m| m.values().map(|r| r.key.clone()))
            .collect();
        keys.sort();
        Ok(keys)
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        Ok(self
            .slots
            .values()
            .flat_map(|m| m.values().map(|r| r.stored_len))
            .sum())
    }

    fn prune(
        &self,
        _module: &str,
        _part: StatePart,
        _before_version: u64,
    ) -> Result<usize, StoreError> {
        Err(read_only_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::writer::ShardWriter;
    use moc_store::MemoryObjectStore;

    fn payload(tag: u8, n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| ((i as f32) * 0.5 + f32::from(tag) * 1e-3).to_le_bytes())
            .collect()
    }

    /// Two writers, several checkpoints, deltas on: the view serves
    /// exactly the committed keys and reconstructs bitwise.
    #[test]
    fn multi_writer_commit_and_reconstruct() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let mut w0 = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let mut w1 = ShardWriter::new(1, store.clone(), EngineConfig::default());
        for v in [10u64, 20, 30] {
            let a = payload(v as u8, 128);
            let b = payload(v as u8 + 100, 128);
            let ka = ShardKey::new("a", StatePart::Weights, v);
            let kb = ShardKey::new("b", StatePart::Weights, v);
            w0.persist(v, [(&ka, &a[..])]).unwrap();
            w1.persist(v, [(&kb, &b[..])]).unwrap();
        }
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.writer_count(), 2);
        assert_eq!(chain.committed_versions(), vec![10, 20, 30]);
        for v in [10u64, 20, 30] {
            let got = chain
                .get(&ShardKey::new("a", StatePart::Weights, v))
                .unwrap()
                .unwrap();
            assert_eq!(&got[..], &payload(v as u8, 128)[..]);
        }
        assert_eq!(
            chain.latest_version("b", StatePart::Weights, 25).unwrap(),
            Some(20)
        );
    }

    /// A version one writer never committed is not globally committed.
    #[test]
    fn partial_version_not_committed() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let mut w0 = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let mut w1 = ShardWriter::new(1, store.clone(), EngineConfig::default());
        let p = payload(1, 64);
        let ka = ShardKey::new("a", StatePart::Weights, 10);
        let kb = ShardKey::new("b", StatePart::Weights, 10);
        w0.persist(10, [(&ka, &p[..])]).unwrap();
        w1.persist(10, [(&kb, &p[..])]).unwrap();
        // Writer 0 alone reaches version 20: not globally committed.
        let ka2 = ShardKey::new("a", StatePart::Weights, 20);
        w0.persist(20, [(&ka2, &p[..])]).unwrap();
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), Some(10));
        assert_eq!(chain.get(&ka2).unwrap(), None, "uncommitted key invisible");
        assert_eq!(
            chain.latest_version("a", StatePart::Weights, 99).unwrap(),
            Some(10)
        );
    }

    /// One writer's torn version must not strand the chain: a later
    /// committed version whose delta base sits at the globally
    /// *uncommitted* version still resolves (the base bytes exist and
    /// are CRC-checked), so the chain makes progress once both writers
    /// commit again.
    #[test]
    fn delta_base_at_uncommitted_version_still_resolves() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let mut w0 = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let mut w1 = ShardWriter::new(1, store.clone(), EngineConfig::default());
        let ka = |v: u64| ShardKey::new("a", StatePart::Weights, v);
        let kb = |v: u64| ShardKey::new("b", StatePart::Weights, v);
        // v10: both commit. v20: only writer 0 commits (writer 1 torn);
        // the payload length changes at v20, forcing a full rebase —
        // writer 0's delta base now sits at the uncommitted version 20.
        w0.persist(10, [(&ka(10), &payload(1, 128)[..])]).unwrap();
        w1.persist(10, [(&kb(10), &payload(2, 128)[..])]).unwrap();
        w0.persist(20, [(&ka(20), &payload(3, 192)[..])]).unwrap();
        // v30: both commit; writer 0's shard deltas against the v20 base.
        w0.persist(30, [(&ka(30), &payload(4, 192)[..])]).unwrap();
        w1.persist(30, [(&kb(30), &payload(5, 128)[..])]).unwrap();
        assert_eq!(w0.stats().delta_shards, 1, "v30 must delta against v20");

        let chain = ChainStore::load_expecting(store, Some(2)).unwrap();
        assert_eq!(
            chain.committed_versions(),
            vec![10, 30],
            "v20 stays uncommitted but must not block v30"
        );
        let got = chain.get(&ka(30)).unwrap().unwrap();
        assert_eq!(
            &got[..],
            &payload(4, 192)[..],
            "delta vs an uncommitted base reconstructs"
        );
        assert_eq!(
            chain.get(&ka(20)).unwrap(),
            None,
            "v20 itself stays invisible"
        );
    }

    /// The elastic-shrink view: after writer 1 dies, the commit rule
    /// spans only writer 0, so writer 0's later versions commit — while
    /// writer 1's frozen chain keeps serving its pre-fault shards.
    #[test]
    fn live_writer_view_advances_past_a_dead_chain() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let mut w0 = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let mut w1 = ShardWriter::new(1, store.clone(), EngineConfig::default());
        let ka = |v: u64| ShardKey::new("a", StatePart::Weights, v);
        let kb = ShardKey::new("b", StatePart::Weights, 10);
        w0.persist(10, [(&ka(10), &payload(1, 64)[..])]).unwrap();
        w1.persist(10, [(&kb, &payload(2, 64)[..])]).unwrap();
        // Writer 1 dies; writer 0 keeps checkpointing.
        w0.persist(20, [(&ka(20), &payload(3, 64)[..])]).unwrap();

        // The full-quorum view stays pinned at 10 …
        let all = ChainStore::load_expecting(store.clone(), Some(2)).unwrap();
        assert_eq!(all.newest_committed(), Some(10));
        // … the live-writer view advances, and still serves the dead
        // writer's committed shard.
        let live = ChainStore::load_for_writers(store, &[0]).unwrap();
        assert_eq!(live.committed_versions(), vec![10, 20]);
        assert_eq!(
            &live.get(&ka(20)).unwrap().unwrap()[..],
            &payload(3, 64)[..]
        );
        assert_eq!(&live.get(&kb).unwrap().unwrap()[..], &payload(2, 64)[..]);
        assert_eq!(
            live.latest_version("b", StatePart::Weights, 99).unwrap(),
            Some(10)
        );
    }

    /// A required writer with no chain at all voids every version under
    /// the live-writer view, exactly like `load_expecting`.
    #[test]
    fn missing_required_writer_voids_commits() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let mut w0 = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let k = ShardKey::new("a", StatePart::Weights, 10);
        w0.persist(10, [(&k, &payload(1, 64)[..])]).unwrap();
        let view = ChainStore::load_for_writers(store, &[0, 7]).unwrap();
        assert_eq!(view.newest_committed(), None);
    }

    /// Orphaned shards without any manifest are invisible.
    #[test]
    fn orphans_are_invisible() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let orphan = ShardKey::new("ghost", StatePart::Weights, 5);
        store.put(&orphan, Bytes::from_static(b"torn")).unwrap();
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), None);
        assert_eq!(chain.get(&orphan).unwrap(), None);
        assert!(chain.keys().unwrap().is_empty());
    }

    /// Deleting a committed shard's bytes surfaces loudly on get, and a
    /// corrupted payload fails its manifest CRC.
    #[test]
    fn missing_or_corrupt_committed_shard_errors() {
        let raw_store = Arc::new(MemoryObjectStore::new());
        let store: Arc<dyn ObjectStore> = raw_store.clone();
        let mut w = ShardWriter::new(0, store.clone(), EngineConfig::default());
        let key = ShardKey::new("m", StatePart::Weights, 10);
        let p = payload(2, 64);
        w.persist(10, [(&key, &p[..])]).unwrap();

        // Corrupt the stored payload behind the manifest's back.
        raw_store.put(&key, Bytes::from_static(b"junk")).unwrap();
        let chain = ChainStore::load(store.clone()).unwrap();
        assert!(chain.get(&key).is_err(), "corruption must not pass");

        // Remove it entirely: the version no longer validates at load
        // time, so the chain rejects it as incomplete.
        raw_store.prune("m", StatePart::Weights, 11).unwrap();
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), None);
        assert_eq!(chain.get(&key).unwrap(), None);
    }

    #[test]
    fn view_is_read_only() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let chain = ChainStore::load(store).unwrap();
        let key = ShardKey::new("m", StatePart::Weights, 1);
        assert!(chain.put(&key, Bytes::new()).is_err());
        assert!(chain.prune("m", StatePart::Weights, 1).is_err());
    }
}
