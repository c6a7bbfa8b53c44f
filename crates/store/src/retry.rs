//! Retry/backoff wrapper: tolerance for transient object-store faults.
//!
//! Real object stores blip — a request times out, a connection resets —
//! and a training run that aborts a checkpoint (or worse, a recovery) on
//! the first transient error converts a milliseconds-long gray failure
//! into minutes of lost work. [`RetryStore`] wraps any [`ObjectStore`]
//! and retries every operation under a [`RetryPolicy`]: deterministic
//! capped exponential backoff, with a typed
//! [`StoreError::RetriesExhausted`] error once the budget is spent so
//! callers can tell "the store is really down" from "the store blipped".
//!
//! The backoff sequence is a pure function of the policy (no jitter, no
//! clock reads), so runs stay deterministic in *outcome*: a fault window
//! shorter than the retry budget is fully absorbed, a longer one
//! surfaces the same typed error every time.

use crate::object::{BatchShard, ObjectStore, StoreError};
use crate::{ShardKey, StatePart};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Capped exponential backoff parameters for [`RetryStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (the first try included). Must be
    /// at least 1; 1 means "no retries".
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry sleep: attempt `k` (0-based retry
    /// index) sleeps `min(base_delay * 2^k, max_delay)`.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// 4 attempts with 2 ms base delay capped at 20 ms: absorbs
    /// multi-operation transient windows while keeping the worst-case
    /// added latency per operation under ~50 ms.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (pass-through with typed errors).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// Backoff before retry `k` (0-based): `min(base * 2^k, max)`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        exp.min(self.max_delay)
    }

    /// Worst-case total sleep an operation can accumulate before the
    /// typed exhaustion error surfaces.
    pub fn worst_case_sleep(&self) -> Duration {
        (0..self.max_attempts.saturating_sub(1))
            .map(|k| self.backoff(k))
            .sum()
    }
}

/// An [`ObjectStore`] wrapper retrying every operation per a
/// [`RetryPolicy`].
///
/// Wraps the store *once* at run start so every consumer — checkpoint
/// engine writers, recovery fetch through `ChainStore`, garbage
/// collection — inherits the same tolerance.
pub struct RetryStore {
    inner: Arc<dyn ObjectStore>,
    policy: RetryPolicy,
    /// `Arc` so a telemetry sampler can hold a read-only probe on the
    /// live count without going through the store wrapper.
    retries: Arc<AtomicU64>,
    exhaustions: AtomicU64,
}

impl RetryStore {
    /// Wraps `inner` with `policy`. Panics if `policy.max_attempts == 0`.
    pub fn new(inner: Arc<dyn ObjectStore>, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "retry policy needs >= 1 attempt");
        Self {
            inner,
            policy,
            retries: Arc::new(AtomicU64::new(0)),
            exhaustions: AtomicU64::new(0),
        }
    }

    /// Retries performed so far (excluding first attempts).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// A shared handle on the live retry counter, for read-only
    /// sampling (e.g. a telemetry plane) while operations run.
    pub fn retries_probe(&self) -> Arc<AtomicU64> {
        self.retries.clone()
    }

    /// Operations that failed even after the full retry budget.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions.load(Ordering::Relaxed)
    }

    fn run<T>(
        &self,
        op: &'static str,
        mut f: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut last = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let delay = self.policy.backoff(attempt - 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            match f() {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        self.exhaustions.fetch_add(1, Ordering::Relaxed);
        Err(StoreError::RetriesExhausted {
            op,
            attempts: self.policy.max_attempts,
            last: Box::new(last.expect("max_attempts >= 1 ran at least once")),
        })
    }
}

impl ObjectStore for RetryStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.run("put", || self.inner.put(key, payload.clone()))
    }

    /// One retried operation: a failed attempt re-issues the whole
    /// batch (stores overwrite identical keys, so the shards that did
    /// land are simply stored again).
    fn put_batch(&self, batch: &[BatchShard]) -> Result<(), StoreError> {
        self.run("put_batch", || self.inner.put_batch(batch))
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        self.run("get", || self.inner.get(key))
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        self.run("latest_version", || {
            self.inner.latest_version(module, part, at_or_before)
        })
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        self.run("keys", || self.inner.keys())
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.run("total_bytes", || self.inner.total_bytes())
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        self.run("prune", || self.inner.prune(module, part, before_version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosStore, OutagePath, StoreFaultPlan, StoreOutage};
    use crate::MemoryObjectStore;

    fn key(v: u64) -> ShardKey {
        ShardKey::new("m.e0", StatePart::Weights, v)
    }

    fn policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(40),
        }
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(5),
        };
        let seq: Vec<u128> = (0..4).map(|k| p.backoff(k).as_millis()).collect();
        assert_eq!(seq, vec![2, 4, 5, 5]);
        assert_eq!(p.worst_case_sleep(), Duration::from_millis(16));
    }

    #[test]
    fn transient_window_shorter_than_budget_is_absorbed() {
        let inner = Arc::new(MemoryObjectStore::new());
        let plan = StoreFaultPlan {
            outages: vec![StoreOutage {
                path: OutagePath::Writes,
                start_op: 0,
                failures: 2,
            }],
        };
        let chaos = Arc::new(ChaosStore::new(inner.clone(), plan));
        let store = RetryStore::new(chaos.clone(), policy(4));
        store.put(&key(1), Bytes::from_static(b"x")).unwrap();
        assert_eq!(store.retries(), 2, "two faulted attempts were retried");
        assert_eq!(store.exhaustions(), 0);
        assert_eq!(inner.len(), 1, "the payload landed despite the blip");
    }

    #[test]
    fn exhaustion_is_typed_and_carries_the_last_error() {
        let inner = Arc::new(MemoryObjectStore::new());
        let chaos = Arc::new(ChaosStore::new(
            inner,
            StoreFaultPlan::permanent_write_outage(0),
        ));
        let store = RetryStore::new(chaos, policy(3));
        let err = store.put(&key(1), Bytes::from_static(b"x")).unwrap_err();
        match err {
            StoreError::RetriesExhausted { op, attempts, last } => {
                assert_eq!(op, "put");
                assert_eq!(attempts, 3);
                assert!(matches!(*last, StoreError::Injected { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(store.exhaustions(), 1);
    }

    #[test]
    fn reads_are_retried_too() {
        let inner = Arc::new(MemoryObjectStore::new());
        inner.put(&key(7), Bytes::from_static(b"v")).unwrap();
        let plan = StoreFaultPlan {
            outages: vec![StoreOutage {
                path: OutagePath::Reads,
                start_op: 0,
                failures: 1,
            }],
        };
        let chaos = Arc::new(ChaosStore::new(inner, plan));
        let store = RetryStore::new(chaos, policy(2));
        assert_eq!(store.get(&key(7)).unwrap(), Some(Bytes::from_static(b"v")));
        assert_eq!(store.retries(), 1);
    }
}
