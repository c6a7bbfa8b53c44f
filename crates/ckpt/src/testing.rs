//! Fault-injection store wrappers for crash-consistency tests.
//!
//! These wrappers let tests model a node dying *between* shard writes —
//! the torn-persist scenario — and record global put order so "any prefix
//! of persisted shards" properties can be checked literally.

use bytes::Bytes;
use moc_store::{BatchShard, MemoryObjectStore, ObjectStore, ShardKey, StatePart, StoreError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A store whose `put` starts failing after a budget of writes — the
/// writer "dies" mid-persist, before its manifest.
///
/// Compatibility shim over the promoted [`moc_store::ChaosStore`]: a
/// permanent write outage starting at operation index `allow_puts`.
/// Write-only by design — the chaos plane's read faults live on
/// `ChaosStore` schedules; this shim keeps the classic torn-persist
/// semantics the crash-consistency tests pin.
pub struct FlakyStore {
    chaos: moc_store::ChaosStore,
}

impl FlakyStore {
    /// Allows `allow_puts` writes, then fails every later one.
    pub fn new(inner: Arc<dyn ObjectStore>, allow_puts: i64) -> Self {
        let start = allow_puts.max(0) as u64;
        Self {
            chaos: moc_store::ChaosStore::new(
                inner,
                moc_store::StoreFaultPlan::permanent_write_outage(start),
            ),
        }
    }

    /// Restores full write service.
    pub fn heal(&self) {
        self.chaos.heal();
    }
}

impl ObjectStore for FlakyStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.chaos.put(key, payload)
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        self.chaos.get(key)
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        self.chaos.latest_version(module, part, at_or_before)
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        self.chaos.keys()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.chaos.total_bytes()
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        self.chaos.prune(module, part, before_version)
    }
}

/// A store that sleeps on every `put`, surfacing pipeline backpressure.
pub struct SlowStore {
    inner: Arc<dyn ObjectStore>,
    delay: Duration,
}

impl SlowStore {
    /// Delays every write by `delay`.
    pub fn new(inner: Arc<dyn ObjectStore>, delay: Duration) -> Self {
        Self { inner, delay }
    }
}

impl ObjectStore for SlowStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        std::thread::sleep(self.delay);
        self.inner.put(key, payload)
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(key)
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        self.inner.latest_version(module, part, at_or_before)
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        self.inner.keys()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        self.inner.prune(module, part, before_version)
    }
}

/// A store counting every read: `get` calls, payload bytes served, and
/// `keys` listings. Tests wrap a real store in this to prove access-path
/// properties — e.g. that key listing and recovery *planning* never
/// deserialize shard payloads, only the shards a plan actually fetches.
pub struct CountingStore {
    inner: Arc<dyn ObjectStore>,
    gets: AtomicI64,
    get_bytes: AtomicI64,
    key_listings: AtomicI64,
}

impl CountingStore {
    /// Wraps `inner`, counting reads.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        Self {
            inner,
            gets: AtomicI64::new(0),
            get_bytes: AtomicI64::new(0),
            key_listings: AtomicI64::new(0),
        }
    }

    /// Number of `get` calls served.
    pub fn gets(&self) -> i64 {
        self.gets.load(Ordering::SeqCst)
    }

    /// Total payload bytes returned by `get`.
    pub fn get_bytes(&self) -> i64 {
        self.get_bytes.load(Ordering::SeqCst)
    }

    /// Number of `keys` listings served.
    pub fn key_listings(&self) -> i64 {
        self.key_listings.load(Ordering::SeqCst)
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.inner.put(key, payload)
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        let got = self.inner.get(key)?;
        self.gets.fetch_add(1, Ordering::SeqCst);
        if let Some(payload) = &got {
            self.get_bytes
                .fetch_add(payload.len() as i64, Ordering::SeqCst);
        }
        Ok(got)
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        self.inner.latest_version(module, part, at_or_before)
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        self.key_listings.fetch_add(1, Ordering::SeqCst);
        self.inner.keys()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        self.inner.prune(module, part, before_version)
    }
}

/// A store recording the global order of successful `put`s, so tests can
/// replay any prefix into a fresh store and check what it reconstructs.
/// A batch is recorded shard by shard — it may tear between any two —
/// and its size is logged apart, so tests can also pin how the writer
/// groups its store calls.
#[derive(Default)]
pub struct RecordingStore {
    inner: MemoryObjectStore,
    log: Mutex<Vec<(ShardKey, Bytes)>>,
    calls: Mutex<Vec<StoreCall>>,
}

/// One write call a [`RecordingStore`] served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreCall {
    /// A single `put`.
    Put,
    /// A `put_batch` of this many shards.
    PutBatch(usize),
}

impl RecordingStore {
    /// Creates an empty recording store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The successful puts, in order.
    pub fn log(&self) -> Vec<(ShardKey, Bytes)> {
        self.log.lock().clone()
    }

    /// The write calls served, in order.
    pub fn calls(&self) -> Vec<StoreCall> {
        self.calls.lock().clone()
    }

    /// Materializes the first `n` puts into a fresh in-memory store (the
    /// state a crash after put `n` would leave behind).
    pub fn prefix(&self, n: usize) -> MemoryObjectStore {
        let store = MemoryObjectStore::new();
        for (key, payload) in self.log.lock().iter().take(n) {
            store.put(key, payload.clone()).expect("memory put");
        }
        store
    }

    fn record(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.inner.put(key, payload.clone())?;
        self.log.lock().push((key.clone(), payload));
        Ok(())
    }
}

impl ObjectStore for RecordingStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.calls.lock().push(StoreCall::Put);
        self.record(key, payload)
    }

    fn put_batch(&self, batch: &[BatchShard]) -> Result<(), StoreError> {
        self.calls.lock().push(StoreCall::PutBatch(batch.len()));
        batch
            .iter()
            .try_for_each(|shard| self.record(&shard.key, shard.payload.clone()))
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(key)
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        self.inner.latest_version(module, part, at_or_before)
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        self.inner.keys()
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.inner.total_bytes()
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        self.inner.prune(module, part, before_version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_store_fails_after_budget() {
        let store = FlakyStore::new(Arc::new(MemoryObjectStore::new()), 2);
        let k = |v| ShardKey::new("m", StatePart::Weights, v);
        assert!(store.put(&k(1), Bytes::new()).is_ok());
        assert!(store.put(&k(2), Bytes::new()).is_ok());
        assert!(store.put(&k(3), Bytes::new()).is_err());
        store.heal();
        assert!(store.put(&k(4), Bytes::new()).is_ok());
    }

    #[test]
    fn recording_store_replays_prefixes() {
        let store = RecordingStore::new();
        let k = |v| ShardKey::new("m", StatePart::Weights, v);
        for v in 1..=3u64 {
            store.put(&k(v), Bytes::from(vec![v as u8])).unwrap();
        }
        assert_eq!(store.log().len(), 3);
        let prefix = store.prefix(2);
        assert!(prefix.get(&k(2)).unwrap().is_some());
        assert!(prefix.get(&k(3)).unwrap().is_none());
    }
}
