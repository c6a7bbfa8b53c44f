//! The chunked ring all-reduce, executed by the rank threads themselves.
//!
//! # Determinism contract
//!
//! The runtime's replicas stay bitwise identical because every rank
//! applies the *same* reduced gradient, and a recovered run reproduces an
//! unfaulted one because the reduction is a pure function of the rank
//! gradients. Float addition is not associative, so both properties pin
//! the reduction to one fixed combine order: the rank-order left fold
//! `((g₀ + g₁) + g₂) + … + g_{w−1}`, scaled by `1/w` — exactly
//! [`sequential_sum_reference`].
//!
//! A classical ring reduce-scatter cannot honour that contract: chunk `c`
//! accumulates along a *rotated* path `c+1, …, c`, so each chunk gets a
//! different bracketing and the result diverges from the DP-order fold
//! in the last ulps. Instead, the reduce leg here pipelines every chunk along
//! the ring in rank order — rank 0 emits its chunk, each rank folds its
//! own contribution in sequence, and the last rank completes the fold and
//! applies the `1/w` scale — then the gather leg pipelines the finished
//! chunks around the remaining arc so every rank ends with the full
//! averaged gradient. Chunk `c+1` flows while chunk `c` is still in
//! flight, so per-rank traffic is ~`2·|grad|` **independent of world
//! size** (the decentralized `2·(w−1)/w·|grad|` shape of Eq. 3's comm
//! model).
//!
//! # Fault behaviour
//!
//! Every blocking receive carries a deadline. A dead peer makes the
//! collective return [`RingAbort`] once the deadline passes, instead of
//! hanging; the caller reports the abort to the coordinator, which
//! detects the failure, recovers, rebuilds the mesh, and resumes on the
//! fresh ring.
//!
//! A dead peer never disconnects a channel. `RingMesh::endpoints` hands
//! out clones of channel ends the mesh keeps, and the coordinator holds
//! every mesh until its next rebuild, so a killed rank's dropped
//! endpoints leave its neighbours' links connected: the death reaches the
//! ring only as a receive timeout. The `Disconnected` arms below handle
//! an error the channel API can still return — once the mesh *and* the
//! peer's endpoints are both gone — not a fault signal.
//! Aborting never corrupts state: the local gradient buffer is rebuilt
//! from scratch next iteration and an aborted iteration is never applied.

use super::mesh::{Leg, RingEndpoints, RingMsg};
use crossbeam::channel::RecvTimeoutError;
use std::time::{Duration, Instant};

/// Polling slice used while the chunk producer waits for pool buffers or
/// inbound gather chunks, keeping the two conditions interleaved without
/// a `select`.
const POLL_SLICE: Duration = Duration::from_micros(200);

/// Per-leg busy/wait timings of one rank's participation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingTimings {
    /// Seconds actively folding / copying / sending on the reduce leg.
    pub reduce_scatter_secs: f64,
    /// Seconds actively copying / forwarding on the gather leg.
    pub all_gather_secs: f64,
    /// Seconds blocked waiting on peers (exposed, non-overlapped comm).
    pub wait_secs: f64,
}

/// A ring collective that gave up waiting on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingAbort {
    /// Leg the rank was stalled on.
    pub leg: Leg,
    /// Chunk index the rank was waiting for.
    pub chunk: usize,
}

impl std::fmt::Display for RingAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ring collective aborted waiting for {:?} chunk {}",
            self.leg, self.chunk
        )
    }
}

/// Runs one chunked ring all-reduce over `grad` in place: on success
/// every rank's `grad` holds the rank-order sum of all ranks' gradients
/// scaled by `1/world`, bitwise identical to [`sequential_sum_reference`].
///
/// `timeout` bounds how long the rank waits without making progress
/// before declaring the collective dead.
///
/// # Errors
///
/// Returns [`RingAbort`] when a peer stops responding for longer than
/// `timeout` — a dead peer shows up only this way, since the mesh keeps
/// its links connected (see the module docs) — or when the ring's
/// channel disconnects, which needs the mesh and the peer's endpoints
/// both dropped.
pub fn ring_all_reduce(
    ep: &RingEndpoints,
    grad: &mut [f32],
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let world = ep.world;
    let inv = 1.0f32 / world as f32;
    if world == 1 || grad.is_empty() {
        // Degenerate ring: match the reference's scale step exactly.
        for x in grad.iter_mut() {
            *x *= inv;
        }
        return Ok(RingTimings::default());
    }
    let start = Instant::now();
    let mut timings = if ep.rank == 0 {
        run_source(ep, grad, epoch, iteration, timeout)?
    } else {
        run_relay(ep, grad, inv, epoch, iteration, timeout)?
    };
    timings.wait_secs =
        (start.elapsed().as_secs_f64() - timings.reduce_scatter_secs - timings.all_gather_secs)
            .max(0.0);
    Ok(timings)
}

/// Chunk geometry: element range of chunk `c`.
fn chunk_range(c: usize, chunk: usize, len: usize) -> std::ops::Range<usize> {
    (c * chunk)..((c + 1) * chunk).min(len)
}

/// Whether a message belongs to this collective (anything else is a
/// stray from a dead epoch and is dropped).
fn is_current(msg: &RingMsg, epoch: u64, iteration: u64) -> bool {
    msg.epoch == epoch && msg.iteration == iteration
}

/// Rank 0: emits every chunk into the reduce leg (gated on pool buffers)
/// and consumes the gather leg, forwarding when the ring is longer than
/// two ranks. The two duties are interleaved so pool backpressure can
/// never deadlock against unconsumed gather traffic.
fn run_source(
    ep: &RingEndpoints,
    grad: &mut [f32],
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let chunks = grad.len().div_ceil(ep.chunk);
    // With world == 2 this rank is also the gather terminus and must not
    // forward (its successor is the gather source).
    let forward_gather = ep.world > 2;
    let mut sent = 0usize;
    let mut gathered = 0usize;
    let mut rs_busy = 0.0f64;
    let mut ag_busy = 0.0f64;
    let mut deadline = Instant::now() + timeout;
    while sent < chunks || gathered < chunks {
        let mut progressed = false;
        while sent < chunks {
            let range = chunk_range(sent, ep.chunk, grad.len());
            let t = Instant::now();
            let Some(buf) = ep.pool.try_copy(&grad[range]) else {
                break;
            };
            let msg = RingMsg {
                epoch,
                iteration,
                leg: Leg::Reduce,
                chunk_index: sent,
                buf,
            };
            if ep.send.send(msg).is_err() {
                return Err(RingAbort {
                    leg: Leg::Reduce,
                    chunk: sent,
                });
            }
            rs_busy += t.elapsed().as_secs_f64();
            sent += 1;
            progressed = true;
        }
        if gathered < chunks {
            // Once all sends are out we can block for the remaining
            // deadline; while sends are pool-gated, poll in short slices
            // so freed buffers are picked up promptly.
            let now = Instant::now();
            let slice = if sent == chunks {
                deadline.saturating_duration_since(now)
            } else {
                POLL_SLICE.min(deadline.saturating_duration_since(now))
            };
            match ep.recv.recv_timeout(slice) {
                Ok(msg)
                    if is_current(&msg, epoch, iteration)
                        && msg.leg == Leg::Gather
                        && msg.chunk_index == gathered =>
                {
                    let t = Instant::now();
                    let range = chunk_range(gathered, ep.chunk, grad.len());
                    grad[range].copy_from_slice(&msg.buf);
                    if forward_gather && ep.send.send(msg).is_err() {
                        return Err(RingAbort {
                            leg: Leg::Gather,
                            chunk: gathered,
                        });
                    }
                    ag_busy += t.elapsed().as_secs_f64();
                    gathered += 1;
                    progressed = true;
                }
                Ok(_) => {} // stray from a dead epoch: drop
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RingAbort {
                        leg: Leg::Gather,
                        chunk: gathered,
                    });
                }
            }
        }
        if progressed {
            deadline = Instant::now() + timeout;
        } else if Instant::now() >= deadline {
            let (leg, chunk) = if sent < chunks {
                (Leg::Reduce, sent)
            } else {
                (Leg::Gather, gathered)
            };
            return Err(RingAbort { leg, chunk });
        }
    }
    Ok(RingTimings {
        reduce_scatter_secs: rs_busy,
        all_gather_secs: ag_busy,
        wait_secs: 0.0,
    })
}

/// Ranks 1..world: fold the rank's own gradient into each reduce chunk
/// (completing the fold and applying the average at the last rank) and
/// copy/forward gather chunks. Reduce and gather messages interleave on
/// the predecessor channel, so both legs are driven from one receive
/// loop; within each leg, channel FIFO order guarantees chunks arrive in
/// index order.
fn run_relay(
    ep: &RingEndpoints,
    grad: &mut [f32],
    inv: f32,
    epoch: u64,
    iteration: u64,
    timeout: Duration,
) -> Result<RingTimings, RingAbort> {
    let chunks = grad.len().div_ceil(ep.chunk);
    let last = ep.world - 1;
    let gather_terminus = ep.world - 2;
    let mut next_reduce = 0usize;
    // The last rank produces the gather leg instead of consuming it.
    let mut next_gather = if ep.rank == last { chunks } else { 0 };
    let mut rs_busy = 0.0f64;
    let mut ag_busy = 0.0f64;
    let mut deadline = Instant::now() + timeout;
    while next_reduce < chunks || next_gather < chunks {
        let stalled_on = if next_reduce < chunks {
            (Leg::Reduce, next_reduce)
        } else {
            (Leg::Gather, next_gather)
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        let msg = match ep.recv.recv_timeout(remaining) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                return Err(RingAbort {
                    leg: stalled_on.0,
                    chunk: stalled_on.1,
                });
            }
        };
        if !is_current(&msg, epoch, iteration) {
            continue; // stray from a dead epoch: drop
        }
        match msg.leg {
            Leg::Reduce if msg.chunk_index == next_reduce && next_reduce < chunks => {
                let t = Instant::now();
                let mut msg = msg;
                let range = chunk_range(next_reduce, ep.chunk, grad.len());
                for (partial, own) in msg.buf.iter_mut().zip(&grad[range.clone()]) {
                    *partial += *own;
                }
                if ep.rank == last {
                    // Fold complete: average, keep the chunk, start the
                    // gather leg with the same buffer.
                    for x in msg.buf.iter_mut() {
                        *x *= inv;
                    }
                    grad[range].copy_from_slice(&msg.buf);
                    msg.leg = Leg::Gather;
                }
                if ep.send.send(msg).is_err() {
                    return Err(RingAbort {
                        leg: Leg::Reduce,
                        chunk: next_reduce,
                    });
                }
                rs_busy += t.elapsed().as_secs_f64();
                next_reduce += 1;
                deadline = Instant::now() + timeout;
            }
            Leg::Gather if msg.chunk_index == next_gather && next_gather < chunks => {
                let t = Instant::now();
                let range = chunk_range(next_gather, ep.chunk, grad.len());
                grad[range].copy_from_slice(&msg.buf);
                if ep.rank != gather_terminus && ep.send.send(msg).is_err() {
                    return Err(RingAbort {
                        leg: Leg::Gather,
                        chunk: next_gather,
                    });
                }
                // At the terminus the message drops here, returning its
                // buffer to the pool for the next iteration.
                ag_busy += t.elapsed().as_secs_f64();
                next_gather += 1;
                deadline = Instant::now() + timeout;
            }
            _ => {} // stray chunk index: drop
        }
    }
    Ok(RingTimings {
        reduce_scatter_secs: rs_busy,
        all_gather_secs: ag_busy,
        wait_secs: 0.0,
    })
}

/// The reference reduction: the pure DP-order left fold scaled by
/// `1/world` — the fixed combine order every collective must reproduce
/// bitwise, and the oracle the collective tests compare against. The
/// fold is seeded with rank 0's gradient itself (not `0.0 + g₀`, which
/// would flip `-0.0` to `+0.0`). Exposed for tests and benchmarks.
pub fn sequential_sum_reference(grads: &[Vec<f32>]) -> Vec<f32> {
    let Some(first) = grads.first() else {
        return Vec::new();
    };
    let mut sum = first.clone();
    for grad in &grads[1..] {
        for (s, x) in sum.iter_mut().zip(grad) {
            *s += *x;
        }
    }
    let inv = 1.0 / grads.len() as f32;
    for s in &mut sum {
        *s *= inv;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::RingMesh;

    /// Runs a full ring all-reduce over `grads` on real threads,
    /// returning each rank's resulting gradient.
    fn run_ring(grads: &[Vec<f32>], chunk: usize) -> Vec<Vec<f32>> {
        let world = grads.len();
        let mesh = RingMesh::new(world, grads[0].len(), chunk);
        let handles: Vec<_> = grads
            .iter()
            .enumerate()
            .map(|(rank, grad)| {
                let ep = mesh.endpoints(rank);
                let mut grad = grad.clone();
                std::thread::spawn(move || {
                    ring_all_reduce(&ep, &mut grad, 0, 1, Duration::from_secs(5)).unwrap();
                    grad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_reference_fold_bitwise_across_chunk_sizes() {
        let grads: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..37)
                    .map(|i| ((r * 37 + i) as f32).sin() * 100.0)
                    .collect()
            })
            .collect();
        let reference = sequential_sum_reference(&grads);
        for chunk in [1, 5, 16, 37, 64] {
            for out in run_ring(&grads, chunk) {
                assert_eq!(bits(&out), bits(&reference), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn negative_zero_survives_the_fold_identically() {
        // The fold must be seeded with g₀ itself: a `0.0 + g₀` seed
        // would turn an all-(-0.0) element into +0.0.
        let grads = vec![vec![-0.0f32, 1.0], vec![-0.0f32, 2.0], vec![-0.0f32, -3.0]];
        let reference = sequential_sum_reference(&grads);
        assert_eq!(reference[0].to_bits(), (-0.0f32).to_bits());
        for out in run_ring(&grads, 1) {
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn two_rank_ring_wraps_correctly() {
        let grads = vec![vec![1.5f32, -2.0, 3.25], vec![0.5f32, 4.0, -1.25]];
        let reference = sequential_sum_reference(&grads);
        for out in run_ring(&grads, 2) {
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn single_rank_matches_reference_scale() {
        let mesh = RingMesh::new(1, 4, 4);
        let ep = mesh.endpoints(0);
        let mut grad = vec![1.0f32, -3.0, 0.5, 7.0];
        let reference = sequential_sum_reference(std::slice::from_ref(&grad));
        ring_all_reduce(&ep, &mut grad, 0, 1, Duration::from_secs(1)).unwrap();
        assert_eq!(bits(&grad), bits(&reference));
    }

    #[test]
    fn dead_peer_aborts_every_survivor_instead_of_hanging() {
        let world = 4;
        let mesh = RingMesh::new(world, 64, 8);
        // Rank 2 never joins the collective (its node died mid-iteration).
        let handles: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .map(|rank| {
                let ep = mesh.endpoints(rank);
                std::thread::spawn(move || {
                    let mut grad = vec![1.0f32; 64];
                    ring_all_reduce(&ep, &mut grad, 0, 1, Duration::from_millis(200))
                })
            })
            .collect();
        for h in handles {
            let result = h.join().unwrap();
            assert!(result.is_err(), "survivors must abort, not hang");
        }
    }

    /// Runs a ring over a deliberately undersized pool so the source
    /// rank's `try_copy` genuinely returns `None` and the interleaved
    /// backpressure path (break out of the send loop, poll gathers to
    /// recycle transit buffers) is exercised.
    fn run_starved_ring(world: usize, len: usize, chunk: usize, buffers: usize) -> Vec<Vec<f32>> {
        let grads: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                (0..len)
                    .map(|i| ((r * len + i) as f32).cos() * 10.0)
                    .collect()
            })
            .collect();
        let reference = sequential_sum_reference(&grads);
        let mesh = RingMesh::with_pool_buffers(world, chunk, buffers);
        let handles: Vec<_> = grads
            .iter()
            .enumerate()
            .map(|(rank, grad)| {
                let ep = mesh.endpoints(rank);
                let mut grad = grad.clone();
                std::thread::spawn(move || {
                    ring_all_reduce(&ep, &mut grad, 0, 1, Duration::from_secs(10)).unwrap();
                    grad
                })
            })
            .collect();
        let outs: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for out in &outs {
            assert_eq!(bits(out), bits(&reference), "starved ring must still fold");
        }
        outs
    }

    #[test]
    fn pool_backpressure_still_completes() {
        // 8 chunks but a single buffer: only one chunk can ever be in
        // flight, so every send after the first waits for a full transit
        // — with world > 2 the source must keep forwarding gathers while
        // starved, or this deadlocks.
        run_starved_ring(3, 64, 8, 1);
        // Two-rank ring: the source is also the gather terminus, so the
        // recycle happens in its own interleaved loop.
        run_starved_ring(2, 64, 8, 1);
        // Mid-sized pool: pipelining with intermittent starvation.
        run_starved_ring(4, 96, 8, 3);
    }
}
