//! The asynchronous checkpoint engine: snapshot → shard → persist as a
//! pipeline.
//!
//! One [`CkptEngine`] serves one node. [`CkptEngine::submit`] runs on the
//! training-side thread and performs **no store I/O**: it snapshots every
//! shard into the node's CPU-memory tier (a refcounted handoff), copies
//! the persist subset into pooled buffers (the copy-on-snapshot), and
//! enqueues the batch for the background writer. Admission is
//! double-buffered: up to [`crate::EngineConfig::inflight_limit`] batches
//! may be draining; beyond that `submit` stalls and reports it — the
//! checkpoint stall "S" of the paper's Fig. 3.
//!
//! The writer thread drains batches through a [`crate::ShardWriter`]:
//! delta-encode, write shards, then commit the manifest
//! ([`crate::manifest`]). Training iterations therefore never block on
//! persistence in steady state, and a node death mid-drain can only lose
//! the uncommitted tail.

use crate::config::EngineConfig;
use crate::pool::{BufferPool, PooledBuf};
use crate::writer::{ShardWriter, WriterStats};
use crossbeam::channel::{unbounded, Receiver, Sender};
use moc_core::twolevel::ShardJob;
use moc_obs::{ckpt_flow_id, Flow, SpanKind, TraceSink};
use moc_store::{NodeMemoryStore, ObjectStore, ShardKey};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Aggregated work counters of an engine (or several, via
/// [`EngineStats::merge`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Checkpoint batches submitted.
    pub batches: u64,
    /// Shards copied into the CPU-memory snapshot tier.
    pub snapshots: u64,
    /// Bytes handed to the snapshot tier.
    pub snapshot_bytes: u64,
    /// Submissions that stalled on the in-flight limit.
    pub stalls: u64,
    /// Buffers the pipeline's pool ever allocated.
    pub pool_allocs: u64,
    /// Pool acquires served without allocating.
    pub pool_reuses: u64,
    /// The background [`ShardWriter`]'s counters: committed checkpoints,
    /// full/delta shard mix, raw vs stored bytes, encode/persist time.
    pub writer: WriterStats,
    /// Store errors the writer hit (each aborts its batch uncommitted).
    pub errors: Vec<String>,
}

impl EngineStats {
    /// Bytes the delta encoding avoided storing.
    pub fn delta_saved_bytes(&self) -> u64 {
        self.writer.delta_saved_bytes()
    }

    /// Folds another engine's counters into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.batches += other.batches;
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.stalls += other.stalls;
        self.pool_allocs += other.pool_allocs;
        self.pool_reuses += other.pool_reuses;
        self.writer.merge(&other.writer);
        self.errors.extend(other.errors.iter().cloned());
    }
}

struct Batch {
    version: u64,
    entries: Vec<(ShardKey, PooledBuf)>,
}

struct Inner {
    inflight: Mutex<usize>,
    /// Signalled when a batch finishes draining.
    drained: Condvar,
    /// Submit-side counters plus the writer's latest snapshot.
    stats: Mutex<EngineStats>,
    /// Cumulative bytes the writer stored, mirrored lock-free after
    /// every batch so a telemetry sampler can probe it live.
    persisted_bytes: Arc<AtomicU64>,
}

/// Asynchronous checkpoint engine of one node.
pub struct CkptEngine {
    writer_id: usize,
    config: EngineConfig,
    memory: Option<Arc<NodeMemoryStore>>,
    pool: BufferPool,
    inner: Arc<Inner>,
    tx: Option<Sender<Batch>>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for CkptEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptEngine")
            .field("writer_id", &self.writer_id)
            .finish()
    }
}

impl CkptEngine {
    /// Spawns the engine's writer thread. `memory` is the node's
    /// CPU-memory snapshot tier (pass `None` for persist-only use).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn spawn(
        writer_id: usize,
        memory: Option<Arc<NodeMemoryStore>>,
        store: Arc<dyn ObjectStore>,
        config: EngineConfig,
    ) -> Self {
        Self::spawn_observed(writer_id, memory, store, config, TraceSink::disabled())
    }

    /// [`CkptEngine::spawn`] with a trace sink for the writer thread:
    /// background persist and GC batches become `persist`/`gc` spans,
    /// and each committed persist ends the checkpoint flow started by
    /// the submitting trainer ([`ckpt_flow_id`]).
    pub fn spawn_observed(
        writer_id: usize,
        memory: Option<Arc<NodeMemoryStore>>,
        store: Arc<dyn ObjectStore>,
        config: EngineConfig,
        sink: TraceSink,
    ) -> Self {
        config.validate().expect("valid engine config");
        let pool = BufferPool::new(config.pool_idle_limit);
        let inner = Arc::new(Inner {
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            stats: Mutex::new(EngineStats::default()),
            persisted_bytes: Arc::new(AtomicU64::new(0)),
        });
        let (tx, rx) = unbounded::<Batch>();
        let writer = ShardWriter::with_pool(writer_id, store, config, pool.clone());
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name(format!("moc-ckpt-{writer_id}"))
            .spawn(move || writer_loop(rx, writer, worker_inner, writer_id, sink))
            .expect("spawn ckpt writer");
        Self {
            writer_id,
            config,
            memory,
            pool,
            inner,
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// The engine's writer / manifest-chain id.
    pub fn writer_id(&self) -> usize {
        self.writer_id
    }

    /// The engine's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Submits one checkpoint batch. All shards are snapshotted to the
    /// memory tier; shards flagged `persist` are copied into pooled
    /// buffers and queued for the background writer. Returns whether the
    /// submission stalled on the in-flight limit. Performs no store I/O.
    pub fn submit(&self, version: u64, shards: Vec<ShardJob>) -> bool {
        let mut entries = Vec::new();
        let mut snapshots = 0u64;
        let mut snapshot_bytes = 0u64;
        for shard in shards {
            if let Some(memory) = &self.memory {
                memory.put(&shard.key, shard.payload.clone());
            }
            snapshots += 1;
            snapshot_bytes += shard.payload.len() as u64;
            if shard.persist {
                let mut buf = self.pool.acquire();
                buf.copy_from(&shard.payload);
                entries.push((shard.key, buf));
            }
        }

        // Double-buffered admission: stall only when `inflight_limit`
        // batches are already draining.
        let mut stalled = false;
        {
            let mut inflight = self.inner.inflight.lock();
            while *inflight >= self.config.inflight_limit {
                stalled = true;
                // The writer notifies `drained` after every batch, so a
                // plain blocking wait suffices (no polling).
                self.inner.drained.wait(&mut inflight);
            }
            *inflight += 1;
        }
        {
            let mut stats = self.inner.stats.lock();
            stats.batches += 1;
            stats.snapshots += snapshots;
            stats.snapshot_bytes += snapshot_bytes;
            if stalled {
                stats.stalls += 1;
            }
        }
        if self
            .tx
            .as_ref()
            .expect("engine not shut down")
            .send(Batch { version, entries })
            .is_err()
        {
            panic!("ckpt writer thread died");
        }
        stalled
    }

    /// Blocks until every submitted batch has drained to the store.
    pub fn wait_idle(&self) {
        let mut inflight = self.inner.inflight.lock();
        while *inflight > 0 {
            self.inner.drained.wait(&mut inflight);
        }
    }

    /// A shared handle on the cumulative bytes this engine's writer has
    /// stored, updated after every drained batch — safe for read-only
    /// sampling (e.g. a telemetry plane) while the writer runs.
    pub fn persisted_bytes_probe(&self) -> Arc<AtomicU64> {
        self.inner.persisted_bytes.clone()
    }

    /// Current counters (submit side + the writer's last completed batch).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.inner.stats.lock().clone();
        stats.pool_allocs = self.pool.allocations();
        stats.pool_reuses = self.pool.reuses();
        stats
    }

    /// Shuts the writer down after draining, returning final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for CkptEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn writer_loop(
    rx: Receiver<Batch>,
    mut writer: ShardWriter,
    inner: Arc<Inner>,
    writer_id: usize,
    mut sink: TraceSink,
) {
    while let Ok(batch) = rx.recv() {
        let persist_start = sink.now();
        let result = writer.persist(
            batch.version,
            batch.entries.iter().map(|(key, buf)| (key, &buf[..])),
        );
        sink.record(
            SpanKind::Persist,
            "persist",
            batch.version,
            persist_start,
            sink.now() - persist_start,
            Flow::End(ckpt_flow_id(batch.version, writer_id)),
        );
        // Chain-aware GC rides the background worker: after a committed
        // batch, superseded full+delta groups of this writer's chain are
        // dropped on the configured cadence. A GC store failure leaves
        // the commit intact and is reported distinctly.
        let gc_result = if result.is_ok() {
            let gc_start = sink.now();
            let gc = writer.maybe_gc();
            if matches!(gc, Ok(true)) {
                sink.span(SpanKind::Gc, "gc", batch.version, gc_start);
            }
            gc.map(|_| ())
        } else {
            Ok(())
        };
        {
            let mut stats = inner.stats.lock();
            stats.writer = writer.stats();
            inner
                .persisted_bytes
                .store(stats.writer.stored_bytes, Ordering::Relaxed);
            if let Err(e) = result {
                stats.errors.push(format!(
                    "persist of version {} aborted uncommitted: {e}",
                    batch.version
                ));
            }
            if let Err(e) = gc_result {
                stats
                    .errors
                    .push(format!("gc after version {} failed: {e}", batch.version));
            }
        }
        drop(batch); // buffers return to the pool
        {
            let mut inflight = inner.inflight.lock();
            *inflight = inflight.saturating_sub(1);
        }
        inner.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ChainStore;
    use bytes::Bytes;
    use moc_store::{MemoryObjectStore, StatePart};

    fn job(module: &str, version: u64, fill: u8, persist: bool) -> ShardJob {
        let payload: Vec<u8> = (0..256)
            .flat_map(|i| ((i as f32) + f32::from(fill) * 1e-3).to_le_bytes())
            .collect();
        ShardJob {
            key: ShardKey::new(module, StatePart::Weights, version),
            payload: Bytes::from(payload),
            persist,
        }
    }

    #[test]
    fn submit_snapshots_and_persists_with_manifest() {
        let memory = Arc::new(NodeMemoryStore::new());
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let engine = CkptEngine::spawn(
            0,
            Some(memory.clone()),
            store.clone(),
            EngineConfig::default(),
        );
        engine.submit(10, vec![job("a", 10, 1, true), job("b", 10, 2, false)]);
        engine.wait_idle();
        // Both shards snapshotted; only `a` persisted, under a manifest.
        assert_eq!(memory.version("a", StatePart::Weights), Some(10));
        assert_eq!(memory.version("b", StatePart::Weights), Some(10));
        let chain = ChainStore::load(store).unwrap();
        assert_eq!(chain.newest_committed(), Some(10));
        assert_eq!(
            chain.latest_version("a", StatePart::Weights, 99).unwrap(),
            Some(10)
        );
        assert_eq!(
            chain.latest_version("b", StatePart::Weights, 99).unwrap(),
            None
        );
        let stats = engine.shutdown();
        assert_eq!(stats.snapshots, 2);
        assert_eq!(stats.writer.checkpoints, 1);
        assert_eq!(stats.writer.full_shards, 1);
        assert!(stats.errors.is_empty());
    }

    #[test]
    fn successive_versions_use_deltas_and_reconstruct() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let engine = CkptEngine::spawn(3, None, store.clone(), EngineConfig::default());
        for v in 1..=4u64 {
            engine.submit(v * 10, vec![job("m", v * 10, v as u8, true)]);
        }
        engine.wait_idle();
        let stats = engine.stats();
        assert!(
            stats.writer.delta_shards > 0,
            "close payloads must delta: {stats:?}"
        );
        assert!(stats.writer.stored_bytes < stats.writer.raw_bytes);
        let chain = ChainStore::load(store).unwrap();
        for v in 1..=4u64 {
            let got = chain
                .get(&ShardKey::new("m", StatePart::Weights, v * 10))
                .unwrap()
                .unwrap();
            assert_eq!(got, job("m", v * 10, v as u8, true).payload, "version {v}");
        }
        engine.shutdown();
    }

    /// The background worker runs chain-aware GC on the configured
    /// cadence: superseded versions disappear from the committed view
    /// while everything the view still reports reconstructs.
    #[test]
    fn background_gc_prunes_superseded_versions() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let config = EngineConfig {
            rebase_interval: 2,
            gc_keep_last: 2,
            ..EngineConfig::with_gc(1)
        };
        let engine = CkptEngine::spawn(0, None, store.clone(), config);
        for v in 1..=8u64 {
            engine.submit(v * 10, vec![job("m", v * 10, v as u8, true)]);
        }
        engine.wait_idle();
        let stats = engine.shutdown();
        assert!(stats.writer.gc_runs > 0, "{stats:?}");
        assert!(stats.writer.gc_pruned_shards > 0);
        assert!(stats.errors.is_empty(), "{:?}", stats.errors);
        let chain = ChainStore::load(store).unwrap();
        let committed = chain.committed_versions();
        assert!(committed.len() < 8, "{committed:?}");
        assert!(committed.contains(&80));
        for &v in &committed {
            assert!(
                chain
                    .get(&ShardKey::new("m", StatePart::Weights, v))
                    .unwrap()
                    .is_some(),
                "version {v} must stay recoverable"
            );
        }
    }

    #[test]
    fn steady_state_pool_stops_allocating() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let engine = CkptEngine::spawn(0, None, store, EngineConfig::default());
        for v in 1..=3u64 {
            engine.submit(v, vec![job("m", v, v as u8, true)]);
            engine.wait_idle();
        }
        let after_warmup = engine.pool().allocations();
        for v in 4..=20u64 {
            engine.submit(v, vec![job("m", v, v as u8, true)]);
            engine.wait_idle();
        }
        assert_eq!(
            engine.pool().allocations(),
            after_warmup,
            "steady state must reuse pooled buffers"
        );
        engine.shutdown();
    }

    #[test]
    fn inflight_limit_stalls_third_batch() {
        let store: Arc<dyn ObjectStore> = Arc::new(crate::testing::SlowStore::new(
            Arc::new(MemoryObjectStore::new()),
            std::time::Duration::from_millis(30),
        ));
        let engine = CkptEngine::spawn(
            0,
            None,
            store,
            EngineConfig {
                inflight_limit: 2,
                ..EngineConfig::default()
            },
        );
        let a = engine.submit(1, vec![job("m", 1, 1, true)]);
        let b = engine.submit(2, vec![job("m", 2, 2, true)]);
        let c = engine.submit(3, vec![job("m", 3, 3, true)]);
        engine.wait_idle();
        assert!(!a && !b, "first two batches fit the double buffer");
        assert!(c, "third batch must stall");
        assert_eq!(engine.stats().stalls, 1);
        engine.shutdown();
    }

    #[test]
    fn store_failure_surfaces_in_errors_not_manifests() {
        let inner: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let flaky: Arc<dyn ObjectStore> =
            Arc::new(crate::testing::FlakyStore::new(inner.clone(), 2));
        let engine = CkptEngine::spawn(0, None, flaky, EngineConfig::default());
        engine.submit(10, vec![job("a", 10, 1, true)]); // shard + manifest: ok
        engine.wait_idle();
        engine.submit(20, vec![job("a", 20, 2, true)]); // first put fails
        engine.wait_idle();
        let stats = engine.shutdown();
        assert_eq!(stats.errors.len(), 1);
        let chain = ChainStore::load(inner).unwrap();
        assert_eq!(chain.newest_committed(), Some(10));
    }
}
