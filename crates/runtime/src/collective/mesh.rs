//! Ring topology wiring: per-rank peer channels.
//!
//! A [`RingMesh`] owns one directed channel per ring link (`r → (r+1) mod
//! world`) plus the shared [`ChunkPool`]. The coordinator builds a mesh
//! when a run starts (and a fresh one after every recovery, so messages
//! stranded by an aborted collective can never leak into the next epoch)
//! and hands each rank its [`RingEndpoints`]: the sender towards its
//! successor and the receiver from its predecessor. Rank threads then run
//! the collective entirely among themselves — the coordinator never sees
//! gradient bytes in ring mode.

use super::buffers::{ChunkPool, PooledBuf};
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Which leg of the all-reduce a ring message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Reduce leg: the buffer carries a partial rank-order sum.
    Reduce,
    /// Gather leg: the buffer carries a fully reduced, averaged chunk.
    Gather,
}

/// One chunk in flight between ring neighbours.
#[derive(Debug)]
pub struct RingMsg {
    /// Recovery generation the sender was stepping in.
    pub epoch: u64,
    /// Iteration the collective belongs to.
    pub iteration: u64,
    /// Reduce or gather leg.
    pub leg: Leg,
    /// Chunk index within the flattened gradient.
    pub chunk_index: usize,
    /// The chunk payload, borrowed from the mesh's pool.
    pub buf: PooledBuf,
}

/// One rank's view of the ring: its two neighbour channels plus the
/// shared chunk pool and geometry.
#[derive(Clone)]
pub struct RingEndpoints {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    pub(crate) chunk: usize,
    pub(crate) send: Sender<RingMsg>,
    pub(crate) recv: Receiver<RingMsg>,
    pub(crate) pool: ChunkPool,
}

impl std::fmt::Debug for RingEndpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingEndpoints")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("chunk", &self.chunk)
            .finish()
    }
}

impl RingEndpoints {
    /// The rank these endpoints belong to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks on the ring.
    pub fn world(&self) -> usize {
        self.world
    }
}

/// The full ring: one channel per directed link, shared chunk pool.
pub struct RingMesh {
    links: Vec<(Sender<RingMsg>, Receiver<RingMsg>)>,
    world: usize,
    chunk: usize,
    pool: ChunkPool,
}

impl std::fmt::Debug for RingMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingMesh")
            .field("world", &self.world)
            .field("chunk", &self.chunk)
            .field("pool", &self.pool)
            .finish()
    }
}

impl RingMesh {
    /// Builds the ring for `world` ranks exchanging gradients of
    /// `grad_len` elements in chunks of `chunk` elements.
    ///
    /// The pool is sized so the chunk producer never starves in a
    /// fault-free iteration (`chunks + 2` buffers: every chunk of one
    /// iteration can be in flight at once, with slack), bounding the
    /// collective's memory at roughly one extra gradient copy regardless
    /// of world size.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0` or `chunk == 0`.
    pub fn new(world: usize, grad_len: usize, chunk: usize) -> Self {
        let chunks = grad_len.div_ceil(chunk).max(1);
        Self::with_pool_buffers(world, chunk, chunks + 2)
    }

    /// Builds the ring with an explicit pool size. A pool smaller than
    /// the chunk count forces the source rank onto its backpressure path
    /// (waiting for in-flight buffers to complete their transit) every
    /// iteration; the collective still completes because buffers always
    /// drain at the gather terminus. Exposed for tests and for capping
    /// the collective's memory below one gradient copy.
    ///
    /// # Panics
    ///
    /// Panics if `world`, `chunk`, or `buffers` is zero.
    pub fn with_pool_buffers(world: usize, chunk: usize, buffers: usize) -> Self {
        assert!(world > 0, "ring needs at least one rank");
        assert!(chunk > 0, "ring chunk must be positive");
        assert!(buffers > 0, "ring pool needs at least one buffer");
        let pool = ChunkPool::new(buffers, chunk);
        let links = (0..world).map(|_| unbounded()).collect();
        Self {
            links,
            world,
            chunk,
            pool,
        }
    }

    /// The endpoints rank `rank` needs to participate: sender on the link
    /// towards `(rank + 1) % world`, receiver on the link from
    /// `(rank + world - 1) % world`.
    ///
    /// They are clones of channel ends the mesh keeps, so while the mesh
    /// lives, dropping a rank's endpoints (a killed rank) never
    /// disconnects its neighbours' links: they see silence, not
    /// `Disconnected`.
    pub fn endpoints(&self, rank: usize) -> RingEndpoints {
        assert!(
            rank < self.world,
            "rank {rank} outside world {}",
            self.world
        );
        let pred = (rank + self.world - 1) % self.world;
        RingEndpoints {
            rank,
            world: self.world,
            chunk: self.chunk,
            send: self.links[rank].0.clone(),
            recv: self.links[pred].1.clone(),
            pool: self.pool.clone(),
        }
    }

    /// The shared chunk pool (for allocation accounting).
    pub fn pool(&self) -> &ChunkPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_wire_successor_and_predecessor() {
        let mesh = RingMesh::new(3, 10, 4);
        // Rank 0 sends on link 0; rank 1 receives from link 0.
        let e0 = mesh.endpoints(0);
        let e1 = mesh.endpoints(1);
        let buf = mesh.pool().try_get(2).unwrap();
        e0.send
            .send(RingMsg {
                epoch: 0,
                iteration: 1,
                leg: Leg::Reduce,
                chunk_index: 0,
                buf,
            })
            .unwrap();
        let got = e1.recv.try_recv().unwrap();
        assert_eq!(got.chunk_index, 0);
        // Ring wrap: rank 2 sends on link 2; rank 0 receives from link 2.
        let e2 = mesh.endpoints(2);
        let buf = mesh.pool().try_get(2).unwrap();
        e2.send
            .send(RingMsg {
                epoch: 0,
                iteration: 1,
                leg: Leg::Gather,
                chunk_index: 5,
                buf,
            })
            .unwrap();
        assert_eq!(e0.recv.try_recv().unwrap().chunk_index, 5);
    }

    /// A killed rank drops its endpoints, but the mesh keeps both ends of
    /// every link: the neighbours see an empty channel (never
    /// `Disconnected`), and sends towards the dead rank still succeed.
    #[test]
    fn dropped_endpoints_never_disconnect_neighbours() {
        use crossbeam::channel::TryRecvError;
        let mesh = RingMesh::new(3, 8, 4);
        let e0 = mesh.endpoints(0);
        let e2 = mesh.endpoints(2);
        drop(mesh.endpoints(1));
        // Rank 2's predecessor is the dead rank 1.
        assert_eq!(e2.recv.try_recv().err(), Some(TryRecvError::Empty));
        // Rank 0's successor is the dead rank 1.
        let buf = mesh.pool().try_get(4).unwrap();
        let msg = RingMsg {
            epoch: 0,
            iteration: 1,
            leg: Leg::Reduce,
            chunk_index: 0,
            buf,
        };
        assert!(e0.send.send(msg).is_ok());
    }

    #[test]
    fn pool_sized_for_one_iteration_of_chunks() {
        let mesh = RingMesh::new(4, 100, 8); // 13 chunks
        assert_eq!(mesh.pool().preallocated(), 15);
        // Short gradients still get a working pool.
        let tiny = RingMesh::new(2, 3, 1024);
        assert_eq!(tiny.pool().preallocated(), 3);
    }

    #[test]
    fn dropped_message_returns_buffer_to_pool() {
        let mesh = RingMesh::new(2, 8, 8);
        let before = mesh.pool().available();
        let e0 = mesh.endpoints(0);
        let buf = mesh.pool().try_get(8).unwrap();
        e0.send
            .send(RingMsg {
                epoch: 0,
                iteration: 1,
                leg: Leg::Reduce,
                chunk_index: 0,
                buf,
            })
            .unwrap();
        assert_eq!(mesh.pool().available(), before - 1);
        drop(mesh.endpoints(1).recv.try_recv().unwrap());
        assert_eq!(mesh.pool().available(), before);
    }
}
