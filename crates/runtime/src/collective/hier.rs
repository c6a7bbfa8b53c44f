//! Two-level hierarchical all-reduce: intra-node fold, inter-node chain.
//!
//! The flat ring ([`super::ring`]) pipelines every chunk through **all**
//! `dp` ranks, so each hop crosses whatever link separates ring
//! neighbours — on a multi-node world most hops are inter-node. The
//! hierarchical reduce exploits the node topology instead: every node's
//! members fold onto a same-node *leader*, and only the leaders talk
//! across nodes. Most ranks touch a single same-node channel twice (one
//! upload, one download) per iteration.
//!
//! # Determinism contract
//!
//! Like the ring, the result must be bitwise identical to the reference
//! fold [`super::sequential_sum_reference`],
//! `((g₀ + g₁) + g₂) + … + g_{dp−1}` scaled by `1/dp`.
//! Per-node partial sums would change the bracketing, so the reduce leg
//! instead pipelines the **running** partial along the leader chain in
//! node order:
//!
//! * the head leader (slot 0) seeds each chunk with a copy of its own
//!   gradient chunk and folds its node's members in slot order;
//! * each later leader folds its own chunk onto the arriving partial,
//!   then its members in slot order, and forwards;
//! * the tail leader completes the fold, applies the `1/dp` scale, and
//!   starts the gather leg: result chunks travel back up the leader
//!   chain, with every leader downloading copies to its members.
//!
//! The per-slot fold order is exactly `0, 1, …, dp−1` — the same
//! bracketing as the reference and the flat ring — because the runtime's
//! `tp`-fastest rank layout makes a DP group's ascending-slot members
//! ascending in global rank, and `node_of_global` is monotone in rank, so
//! every node's slots form one contiguous run in slot order.
//!
//! # Memory
//!
//! Unlike the ring's backpressured `chunks + 2` pool, the hierarchical
//! pool is sized for the worst-case number of simultaneously in-flight
//! chunks (`2 · world · chunks + 2`: every member's uploads plus every
//! member's downloads plus the chain buffer), so no send path ever has to
//! poll for a free buffer and the upload / chain / download pipelines can
//! never deadlock against each other. That trades roughly two gradient
//! copies per participant of bounded, preallocated memory for a
//! backpressure-free hot path; the pool still never grows after
//! mesh-build.
//!
//! # Fault behaviour
//!
//! Identical discipline to the ring: every blocking receive carries a
//! deadline and a dead peer turns the collective into a [`RingAbort`]
//! instead of a hang. As on the ring, the mesh keeps its channel ends, so
//! a dead peer reaches its neighbours only as a receive timeout, never as
//! a disconnected inbox. The caller reports the abort; the coordinator
//! recovers, rebuilds the mesh and resumes on it.

use super::buffers::{ChunkPool, PooledBuf};
use super::mesh::Leg;
use super::ring::{RingAbort, RingTimings};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const POOL_MSG: &str = "hier pool sized for worst-case in-flight chunks";

/// One chunk in flight inside the hierarchical collective. Unlike
/// [`super::RingMsg`], messages carry their origin slot: a leader
/// receives uploads, chain partials and gather results interleaved on
/// one channel and demultiplexes by `(leg, from, chunk_index)`.
#[derive(Debug)]
pub struct HierMsg {
    /// Recovery generation the sender was stepping in.
    pub epoch: u64,
    /// Iteration the collective belongs to.
    pub iteration: u64,
    /// Reduce (upload / chain partial) or gather (result) leg.
    pub leg: Leg,
    /// DP slot of the sender.
    pub from: usize,
    /// Chunk index within the flattened gradient.
    pub chunk_index: usize,
    /// The chunk payload, borrowed from the mesh's pool.
    pub buf: PooledBuf,
}

/// A leader's outbound wiring along the chain and into its node run.
#[derive(Clone)]
struct LeaderLinks {
    /// Member slots of this leader's node run (ascending, excluding the
    /// leader itself) with their download channels.
    members: Vec<(usize, Sender<HierMsg>)>,
    /// Previous leader's slot — the chain partial source. `None` at the
    /// chain head (slot 0), which seeds the fold itself.
    prev_leader: Option<usize>,
    /// Next leader's slot and inbox: receives this leader's partials and
    /// sources the gather result. `None` at the chain tail, which
    /// completes the fold and originates the gather leg.
    next_leader: Option<(usize, Sender<HierMsg>)>,
    /// Sender towards the previous leader for the gather return leg
    /// (`None` at the chain head, the gather terminus).
    prev_tx: Option<Sender<HierMsg>>,
}

#[derive(Clone)]
enum HierRole {
    /// Non-leader slot: uploads its chunks to the node leader and waits
    /// for downloaded results.
    Member { leader: Sender<HierMsg> },
    /// First slot of a node run: folds its run and drives the chain.
    Leader(LeaderLinks),
}

/// One slot's view of the hierarchical collective: its inbox, its role
/// wiring, and the shared chunk pool and geometry.
#[derive(Clone)]
pub struct HierEndpoints {
    slot: usize,
    world: usize,
    chunk: usize,
    recv: Receiver<HierMsg>,
    pool: ChunkPool,
    role: HierRole,
}

impl std::fmt::Debug for HierEndpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierEndpoints")
            .field("slot", &self.slot)
            .field("world", &self.world)
            .field("chunk", &self.chunk)
            .field("leader", &self.is_leader())
            .finish()
    }
}

impl HierEndpoints {
    /// The DP slot these endpoints belong to.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Number of slots participating in the collective.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Whether this slot leads its node run.
    pub fn is_leader(&self) -> bool {
        matches!(self.role, HierRole::Leader(_))
    }
}

/// The full two-level mesh for one DP group: a per-slot inbox, the node
/// runs derived from the slot → node map, and the shared chunk pool.
pub struct HierMesh {
    txs: Vec<Sender<HierMsg>>,
    rxs: Vec<Receiver<HierMsg>>,
    /// First slot of each node run, ascending.
    leaders: Vec<usize>,
    /// Leader slot of every slot's run.
    leader_of: Vec<usize>,
    world: usize,
    chunk: usize,
    pool: ChunkPool,
}

impl std::fmt::Debug for HierMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierMesh")
            .field("world", &self.world)
            .field("chunk", &self.chunk)
            .field("leaders", &self.leaders)
            .field("pool", &self.pool)
            .finish()
    }
}

impl HierMesh {
    /// Builds the mesh for slots exchanging gradients of `grad_len`
    /// elements in chunks of `chunk` elements. `node_of[d]` is the node
    /// hosting slot `d`; every maximal run of consecutive equal node ids
    /// becomes one intra-node group led by its first slot. (The
    /// coordinator derives `node_of` from the topology, where it is
    /// non-decreasing in slot order — see the module docs.)
    ///
    /// # Panics
    ///
    /// Panics if `node_of` is empty or `chunk == 0`.
    pub fn new(node_of: &[usize], grad_len: usize, chunk: usize) -> Self {
        assert!(!node_of.is_empty(), "hier mesh needs at least one slot");
        assert!(chunk > 0, "hier chunk must be positive");
        let world = node_of.len();
        let mut leaders = Vec::new();
        let mut leader_of = Vec::with_capacity(world);
        for (slot, &node) in node_of.iter().enumerate() {
            if slot == 0 || node != node_of[slot - 1] {
                leaders.push(slot);
            }
            leader_of.push(*leaders.last().expect("run started"));
        }
        let chunks = grad_len.div_ceil(chunk).max(1);
        let pool = ChunkPool::new(2 * world * chunks + 2, chunk);
        let (txs, rxs) = (0..world).map(|_| unbounded()).unzip();
        Self {
            txs,
            rxs,
            leaders,
            leader_of,
            world,
            chunk,
            pool,
        }
    }

    /// The endpoints slot `slot` needs to participate.
    ///
    /// They are clones of channel ends the mesh keeps, so while the mesh
    /// lives, dropping a slot's endpoints (a killed rank) never
    /// disconnects its peers' links: they see silence, not `Disconnected`.
    pub fn endpoints(&self, slot: usize) -> HierEndpoints {
        assert!(
            slot < self.world,
            "slot {slot} outside world {}",
            self.world
        );
        let role = if self.leader_of[slot] == slot {
            let li = self
                .leaders
                .iter()
                .position(|&l| l == slot)
                .expect("leader indexed");
            let members = (slot + 1..self.world)
                .take_while(|&m| self.leader_of[m] == slot)
                .map(|m| (m, self.txs[m].clone()))
                .collect();
            HierRole::Leader(LeaderLinks {
                members,
                prev_leader: (li > 0).then(|| self.leaders[li - 1]),
                next_leader: self.leaders.get(li + 1).map(|&n| (n, self.txs[n].clone())),
                prev_tx: (li > 0).then(|| self.txs[self.leaders[li - 1]].clone()),
            })
        } else {
            HierRole::Member {
                leader: self.txs[self.leader_of[slot]].clone(),
            }
        };
        HierEndpoints {
            slot,
            world: self.world,
            chunk: self.chunk,
            recv: self.rxs[slot].clone(),
            pool: self.pool.clone(),
            role,
        }
    }

    /// The shared chunk pool (for allocation accounting).
    pub fn pool(&self) -> &ChunkPool {
        &self.pool
    }
}

/// Chunk geometry: element range of chunk `c`.
fn chunk_range(c: usize, chunk: usize, len: usize) -> std::ops::Range<usize> {
    (c * chunk)..((c + 1) * chunk).min(len)
}

/// Demultiplexing receive: returns the buffer for `(leg, from, chunk)`,
/// stashing any other current-collective message that arrives first.
/// Messages from dead epochs/iterations are dropped. The deadline resets
/// on any current-collective progress, matching the ring's discipline.
fn take(
    recv: &Receiver<HierMsg>,
    pending: &mut BTreeMap<(bool, usize, usize), PooledBuf>,
    leg: Leg,
    from: usize,
    chunk: usize,
    stamp: (u64, u64),
    timeout: Duration,
) -> Result<PooledBuf, RingAbort> {
    let (epoch, iteration) = stamp;
    let key = (leg == Leg::Gather, from, chunk);
    let mut deadline = Instant::now() + timeout;
    loop {
        if let Some(buf) = pending.remove(&key) {
            return Ok(buf);
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        match recv.recv_timeout(remaining) {
            Ok(msg) if msg.epoch == epoch && msg.iteration == iteration => {
                pending.insert((msg.leg == Leg::Gather, msg.from, msg.chunk_index), msg.buf);
                deadline = Instant::now() + timeout;
            }
            Ok(_) => {} // stray from a dead epoch: drop
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                return Err(RingAbort { leg, chunk });
            }
        }
    }
}

/// Runs one two-level hierarchical all-reduce over `grad` in place: on
/// success every slot's `grad` holds the slot-order sum of all slots'
/// gradients scaled by `1/world`, bitwise identical to the reference fold
/// and the flat ring (see the module docs for why the bracketing is
/// preserved).
///
/// `timeout` bounds how long the slot waits without making progress
/// before declaring the collective dead.
///
/// # Errors
///
/// Returns [`RingAbort`] when a peer stops responding for longer than
/// `timeout` — a dead peer shows up only this way, since the mesh keeps
/// its links connected — or when the slot's inbox disconnects, which
/// needs the mesh and every peer's endpoints dropped.
pub fn hier_all_reduce(
    ep: &HierEndpoints,
    grad: &mut [f32],
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let inv = 1.0f32 / ep.world as f32;
    if ep.world == 1 || grad.is_empty() {
        // Degenerate world: match the reference's scale step exactly.
        for x in grad.iter_mut() {
            *x *= inv;
        }
        return Ok(RingTimings::default());
    }
    let start = Instant::now();
    let mut timings = match &ep.role {
        HierRole::Member { leader } => run_member(ep, grad, leader, epoch, iteration, timeout)?,
        HierRole::Leader(links) => run_leader(ep, grad, links, inv, epoch, iteration, timeout)?,
    };
    timings.wait_secs =
        (start.elapsed().as_secs_f64() - timings.reduce_scatter_secs - timings.all_gather_secs)
            .max(0.0);
    Ok(timings)
}

/// Member slot: upload every chunk to the node leader, then download the
/// results. Downloads arrive in chunk order (the leader emits them in
/// order on one FIFO channel), so no demultiplexing is needed.
fn run_member(
    ep: &HierEndpoints,
    grad: &mut [f32],
    leader: &Sender<HierMsg>,
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let chunks = grad.len().div_ceil(ep.chunk);
    let mut rs_busy = 0.0f64;
    let mut ag_busy = 0.0f64;
    for c in 0..chunks {
        let t = Instant::now();
        let range = chunk_range(c, ep.chunk, grad.len());
        let buf = ep.pool.try_copy(&grad[range]).expect(POOL_MSG);
        let msg = HierMsg {
            epoch,
            iteration,
            leg: Leg::Reduce,
            from: ep.slot,
            chunk_index: c,
            buf,
        };
        if leader.send(msg).is_err() {
            return Err(RingAbort {
                leg: Leg::Reduce,
                chunk: c,
            });
        }
        rs_busy += t.elapsed().as_secs_f64();
    }
    let mut next = 0usize;
    let mut deadline = Instant::now() + timeout;
    while next < chunks {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match ep.recv.recv_timeout(remaining) {
            Ok(msg)
                if msg.epoch == epoch
                    && msg.iteration == iteration
                    && msg.leg == Leg::Gather
                    && msg.chunk_index == next =>
            {
                let t = Instant::now();
                let range = chunk_range(next, ep.chunk, grad.len());
                grad[range].copy_from_slice(&msg.buf);
                ag_busy += t.elapsed().as_secs_f64();
                next += 1;
                deadline = Instant::now() + timeout;
            }
            Ok(_) => {} // stray from a dead epoch: drop
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                return Err(RingAbort {
                    leg: Leg::Gather,
                    chunk: next,
                });
            }
        }
    }
    Ok(RingTimings {
        reduce_scatter_secs: rs_busy,
        all_gather_secs: ag_busy,
        wait_secs: 0.0,
    })
}

/// Leader slot: fold the node run onto the running chain partial in slot
/// order, forward (or, at the tail, complete + scale + originate the
/// gather), then relay gather results back up the chain and download
/// them to the run's members.
fn run_leader(
    ep: &HierEndpoints,
    grad: &mut [f32],
    links: &LeaderLinks,
    inv: f32,
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let chunks = grad.len().div_ceil(ep.chunk);
    let mut pending = BTreeMap::new();
    let mut rs_busy = 0.0f64;
    let mut ag_busy = 0.0f64;
    let send = |tx: &Sender<HierMsg>, leg: Leg, c: usize, buf: PooledBuf| {
        tx.send(HierMsg {
            epoch,
            iteration,
            leg,
            from: ep.slot,
            chunk_index: c,
            buf,
        })
        .map_err(|_| RingAbort { leg, chunk: c })
    };
    for c in 0..chunks {
        let range = chunk_range(c, ep.chunk, grad.len());
        let mut partial = match links.prev_leader {
            // Chain head (slot 0): seed the fold with a *copy* of its own
            // chunk — a zero-seeded fold would flip -0.0 to +0.0 and
            // break bit-identity with the reference fold.
            None => {
                let t = Instant::now();
                let buf = ep.pool.try_copy(&grad[range.clone()]).expect(POOL_MSG);
                rs_busy += t.elapsed().as_secs_f64();
                buf
            }
            Some(from) => {
                let mut buf = take(
                    &ep.recv,
                    &mut pending,
                    Leg::Reduce,
                    from,
                    c,
                    (epoch, iteration),
                    timeout,
                )?;
                let t = Instant::now();
                for (p, own) in buf.iter_mut().zip(&grad[range.clone()]) {
                    *p += *own;
                }
                rs_busy += t.elapsed().as_secs_f64();
                buf
            }
        };
        for (m, _) in &links.members {
            let mbuf = take(
                &ep.recv,
                &mut pending,
                Leg::Reduce,
                *m,
                c,
                (epoch, iteration),
                timeout,
            )?;
            let t = Instant::now();
            for (p, x) in partial.iter_mut().zip(mbuf.iter()) {
                *p += *x;
            }
            rs_busy += t.elapsed().as_secs_f64();
        }
        match &links.next_leader {
            Some((_, tx)) => {
                let t = Instant::now();
                send(tx, Leg::Reduce, c, partial)?;
                rs_busy += t.elapsed().as_secs_f64();
            }
            None => {
                // Chain tail: the fold is complete — average, keep the
                // chunk, and originate the gather leg.
                let t = Instant::now();
                for x in partial.iter_mut() {
                    *x *= inv;
                }
                grad[range].copy_from_slice(&partial);
                rs_busy += t.elapsed().as_secs_f64();
                let t = Instant::now();
                for (_, tx) in &links.members {
                    let copy = ep.pool.try_copy(&partial).expect(POOL_MSG);
                    send(tx, Leg::Gather, c, copy)?;
                }
                if let Some(ptx) = &links.prev_tx {
                    send(ptx, Leg::Gather, c, partial)?;
                }
                // With a single-leader chain the partial drops here,
                // returning its buffer to the pool.
                ag_busy += t.elapsed().as_secs_f64();
            }
        }
    }
    if let Some((next_slot, _)) = &links.next_leader {
        for c in 0..chunks {
            let buf = take(
                &ep.recv,
                &mut pending,
                Leg::Gather,
                *next_slot,
                c,
                (epoch, iteration),
                timeout,
            )?;
            let t = Instant::now();
            let range = chunk_range(c, ep.chunk, grad.len());
            grad[range].copy_from_slice(&buf);
            for (_, tx) in &links.members {
                let copy = ep.pool.try_copy(&buf).expect(POOL_MSG);
                send(tx, Leg::Gather, c, copy)?;
            }
            if let Some(ptx) = &links.prev_tx {
                send(ptx, Leg::Gather, c, buf)?;
            }
            // At the chain head the message drops here, returning its
            // buffer to the pool for the next iteration.
            ag_busy += t.elapsed().as_secs_f64();
        }
    }
    Ok(RingTimings {
        reduce_scatter_secs: rs_busy,
        all_gather_secs: ag_busy,
        wait_secs: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::ring::sequential_sum_reference;

    /// Runs a full hierarchical all-reduce over `grads` on real threads,
    /// returning each slot's resulting gradient.
    fn run_hier(grads: &[Vec<f32>], node_of: &[usize], chunk: usize) -> Vec<Vec<f32>> {
        assert_eq!(grads.len(), node_of.len());
        let mesh = HierMesh::new(node_of, grads[0].len(), chunk);
        let handles: Vec<_> = grads
            .iter()
            .enumerate()
            .map(|(slot, grad)| {
                let ep = mesh.endpoints(slot);
                let mut grad = grad.clone();
                std::thread::spawn(move || {
                    hier_all_reduce(&ep, &mut grad, 0, 1, Duration::from_secs(5)).unwrap();
                    grad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn grads(world: usize, len: usize) -> Vec<Vec<f32>> {
        (0..world)
            .map(|r| {
                (0..len)
                    .map(|i| ((r * len + i) as f32).sin() * 100.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_reference_fold_bitwise_across_node_shapes_and_chunks() {
        let shapes: [&[usize]; 6] = [
            &[0, 0, 1, 1],       // two nodes, two slots each
            &[0, 0, 0, 0],       // single node: no leader chain
            &[0, 1, 2, 3],       // one slot per node: leaders only
            &[0, 0, 0, 1, 1, 2], // uneven runs
            &[0, 1, 1, 1],       // solo head leader
            &[0, 0, 0, 1],       // solo tail leader
        ];
        for node_of in shapes {
            let grads = grads(node_of.len(), 37);
            let reference = sequential_sum_reference(&grads);
            for chunk in [1, 5, 16, 37, 64] {
                for (slot, out) in run_hier(&grads, node_of, chunk).iter().enumerate() {
                    assert_eq!(
                        bits(out),
                        bits(&reference),
                        "nodes {node_of:?} chunk {chunk} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_zero_survives_the_fold_identically() {
        let grads = vec![vec![-0.0f32, 1.0], vec![-0.0f32, 2.0], vec![-0.0f32, -3.0]];
        let reference = sequential_sum_reference(&grads);
        assert_eq!(reference[0].to_bits(), (-0.0f32).to_bits());
        for out in run_hier(&grads, &[0, 0, 1], 1) {
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn two_leader_chain_wraps_correctly() {
        let grads = vec![vec![1.5f32, -2.0, 3.25], vec![0.5f32, 4.0, -1.25]];
        let reference = sequential_sum_reference(&grads);
        for out in run_hier(&grads, &[0, 1], 2) {
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn single_slot_matches_reference_scale() {
        let mesh = HierMesh::new(&[0], 4, 4);
        let ep = mesh.endpoints(0);
        let mut grad = vec![1.0f32, -3.0, 0.5, 7.0];
        let reference = sequential_sum_reference(std::slice::from_ref(&grad));
        hier_all_reduce(&ep, &mut grad, 0, 1, Duration::from_secs(1)).unwrap();
        assert_eq!(bits(&grad), bits(&reference));
    }

    #[test]
    fn dead_member_aborts_every_survivor_instead_of_hanging() {
        let node_of = [0usize, 0, 1, 1];
        let mesh = HierMesh::new(&node_of, 64, 8);
        // Slot 2 (a leader) never joins the collective.
        let handles: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .map(|slot| {
                let ep = mesh.endpoints(slot);
                std::thread::spawn(move || {
                    let mut grad = vec![1.0f32; 64];
                    hier_all_reduce(&ep, &mut grad, 0, 1, Duration::from_millis(200))
                })
            })
            .collect();
        for h in handles {
            let result = h.join().unwrap();
            assert!(result.is_err(), "survivors must abort, not hang");
        }
    }

    /// A killed slot drops its endpoints, but the mesh keeps every inbox
    /// and sender: the dead leader's neighbours (the previous leader and
    /// its own member) see an empty inbox (never `Disconnected`), and
    /// sends towards the dead slot still succeed.
    #[test]
    fn dropped_endpoints_never_disconnect_neighbours() {
        use crossbeam::channel::TryRecvError;
        let mesh = HierMesh::new(&[0, 0, 1, 1], 8, 4);
        let head = mesh.endpoints(0);
        let member = mesh.endpoints(3);
        drop(mesh.endpoints(2));
        let msg = || HierMsg {
            epoch: 0,
            iteration: 1,
            leg: Leg::Reduce,
            from: 0,
            chunk_index: 0,
            buf: mesh.pool().try_get(4).unwrap(),
        };
        for ep in [&head, &member] {
            assert_eq!(ep.recv.try_recv().err(), Some(TryRecvError::Empty));
        }
        let HierRole::Leader(links) = &head.role else {
            panic!("slot 0 leads its node");
        };
        let (next, to_next) = links.next_leader.as_ref().unwrap();
        assert_eq!(*next, 2);
        assert!(to_next.send(msg()).is_ok());
        let HierRole::Member { leader } = &member.role else {
            panic!("slot 3 is a member of slot 2's node");
        };
        assert!(leader.send(msg()).is_ok());
    }

    #[test]
    fn pool_covers_worst_case_in_flight_without_growing() {
        // 8 chunks, 4 slots: all uploads + all downloads + the chain
        // buffer can be simultaneously in flight; the pool must never
        // hand out `None` (the hot path expects it).
        let grads = grads(4, 64);
        let reference = sequential_sum_reference(&grads);
        for out in run_hier(&grads, &[0, 0, 1, 1], 8) {
            assert_eq!(bits(&out), bits(&reference));
        }
        let mesh = HierMesh::new(&[0, 0, 1, 1], 64, 8);
        assert_eq!(mesh.pool().preallocated(), 2 * 4 * 8 + 2);
    }
}
