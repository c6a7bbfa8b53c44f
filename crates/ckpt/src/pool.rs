//! Reusable byte-buffer pool for the copy-on-snapshot and encode stages.
//!
//! The engine copies every persist-bound payload into a pooled buffer at
//! submit time (the "copy-on-snapshot": the training thread hands the
//! bytes over and immediately moves on) and the writer encodes deltas into
//! a second pooled buffer. Buffers return to the pool on drop, so after a
//! short warm-up the pool itself stops allocating —
//! [`BufferPool::allocations`] plateaus, which the runtime surfaces as
//! `pool_allocs` and tests pin down. What leaves the pool's accounting
//! is the `Bytes` handed to the object store, one exact-size copy per
//! stored shard: a full shard's is shared by refcount with the writer's
//! delta base (one buffer serves both), a delta's is copied out of the
//! pooled encode scratch, and a store that streams to disk
//! (`FileObjectStore`) drops it as soon as the batch is written, while
//! an in-memory store keeps it as the stored object. The delta codec's
//! planar scratch is not pooled either: it is one buffer per encoding
//! thread, reused for every shard (see [`crate::delta`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct PoolInner {
    idle: Mutex<Vec<Vec<u8>>>,
    /// Buffers ever allocated (fresh `Vec` constructions).
    allocations: AtomicU64,
    /// Acquires served from the idle list.
    reuses: AtomicU64,
    /// Idle buffers beyond this cap are dropped instead of retained.
    idle_limit: usize,
}

/// A shared pool of reusable `Vec<u8>` buffers.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("allocations", &self.allocations())
            .field("reuses", &self.reuses())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool retaining at most `idle_limit` idle buffers.
    pub fn new(idle_limit: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                idle: Mutex::new(Vec::new()),
                allocations: AtomicU64::new(0),
                reuses: AtomicU64::new(0),
                idle_limit,
            }),
        }
    }

    /// Acquires an empty buffer (reusing an idle one when available).
    pub fn acquire(&self) -> PooledBuf {
        let buf = self.inner.idle.lock().pop();
        let buf = match buf {
            Some(mut b) => {
                b.clear();
                self.inner.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        PooledBuf {
            buf,
            pool: self.inner.clone(),
        }
    }

    /// Fresh `Vec` constructions so far (the pool's heap footprint).
    pub fn allocations(&self) -> u64 {
        self.inner.allocations.load(Ordering::Relaxed)
    }

    /// Acquires served without allocating.
    pub fn reuses(&self) -> u64 {
        self.inner.reuses.load(Ordering::Relaxed)
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.inner.idle.lock().len()
    }
}

/// A buffer borrowed from a [`BufferPool`]; returns on drop.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Replaces the contents with a copy of `data`.
    pub fn copy_from(&mut self, data: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(data);
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} bytes)", self.buf.len())
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let mut idle = self.pool.idle.lock();
        if idle.len() < self.pool.idle_limit {
            idle.push(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_after_return() {
        let pool = BufferPool::new(8);
        {
            let mut a = pool.acquire();
            a.copy_from(b"hello");
            assert_eq!(&a[..], b"hello");
        }
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire();
        assert!(b.is_empty(), "reused buffer must come back cleared");
        assert_eq!(pool.allocations(), 1, "no second allocation");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn idle_limit_bounds_retention() {
        let pool = BufferPool::new(2);
        let bufs: Vec<PooledBuf> = (0..5).map(|_| pool.acquire()).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2, "only idle_limit buffers retained");
        assert_eq!(pool.allocations(), 5);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let pool = BufferPool::new(16);
        for _ in 0..100 {
            let mut b = pool.acquire();
            b.copy_from(&[7u8; 512]);
        }
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.reuses(), 99);
    }
}
