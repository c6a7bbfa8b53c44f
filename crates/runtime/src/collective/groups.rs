//! Group wiring for TP replica-consistency exchange and the PP stage
//! relay.
//!
//! With `tp · pp > 1` the world is no longer a flat DP rank list: every
//! global rank sits in a TP group (same `(dp, pp)` coordinates), a PP
//! chain (same `(dp, tp)`), and a DP gradient group (same `(tp, pp)`).
//! The DP groups run the all-reduce from [`super::ring`] or
//! [`super::hier`]; this module provides the other two group
//! collectives:
//!
//! * **TP consistency ring** — the members of a TP group hold replicas
//!   of the same tensor-sliced state, so each iteration they circulate
//!   their parameter CRCs around a small ring ([`tp_exchange`]) and flag
//!   divergence. This models the invariant a real tensor-parallel group
//!   shares (identical optimizer trajectories over the sharded state)
//!   at the fidelity this runtime emulates (full replicas).
//! * **PP stage relay** — the members of a PP chain relay an activation
//!   token forward stage by stage before reporting and a gradient token
//!   backward after the local backward pass ([`pp_forward_wait`] /
//!   [`pp_forward_send`] / [`pp_backward`]), serializing the stages the
//!   way a real pipeline's dependency structure does.
//!
//! Every blocking receive carries a deadline: a dead group member makes
//! the survivors return [`GroupAbort`] instead of hanging, which the
//! rank surfaces to the coordinator exactly like a ring abort — the
//! failure is *detected* through the group, never shortcut.
//!
//! Like the ring mesh, a [`GroupMesh`] is rebuilt after every recovery,
//! so tokens stranded by an aborted iteration die with their channels.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use moc_core::topology::{ParallelTopology, RankCoord};
use std::time::{Duration, Instant};

/// A control token circulating inside a TP ring or PP chain.
#[derive(Debug, Clone, Copy)]
pub struct GroupMsg {
    /// Recovery generation the sender was stepping in.
    pub epoch: u64,
    /// Iteration the token belongs to.
    pub iteration: u64,
    /// Token payload: a parameter CRC (TP) or a stage token (PP).
    pub payload: u64,
}

/// A group collective that gave up waiting on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAbort {
    /// The TP consistency ring stalled (peer dead or disconnected).
    TpRing,
    /// The PP relay stalled waiting for the upstream stage's token.
    PpForward,
    /// The PP relay stalled waiting for the downstream stage's token.
    PpBackward,
}

impl std::fmt::Display for GroupAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupAbort::TpRing => f.write_str("tp consistency ring stalled"),
            GroupAbort::PpForward => f.write_str("pp forward relay stalled"),
            GroupAbort::PpBackward => f.write_str("pp backward relay stalled"),
        }
    }
}

/// One rank's endpoints into its TP ring and PP chain. Channels absent
/// when the corresponding degree is 1 (the baseline DP+EP world carries
/// no group traffic at all).
#[derive(Clone)]
pub struct GroupEndpoints {
    /// The rank's grid coordinates.
    pub coord: RankCoord,
    /// TP group size.
    pub tp: usize,
    /// PP chain length.
    pub pp: usize,
    /// Sender towards the next TP ring member.
    pub(crate) tp_send: Option<Sender<GroupMsg>>,
    /// Receiver from the previous TP ring member.
    pub(crate) tp_recv: Option<Receiver<GroupMsg>>,
    /// Forward link to the next pipeline stage (absent on the last).
    pub(crate) fwd_send: Option<Sender<GroupMsg>>,
    /// Forward link from the previous stage (absent on stage 0).
    pub(crate) fwd_recv: Option<Receiver<GroupMsg>>,
    /// Backward link to the previous stage (absent on stage 0).
    pub(crate) bwd_send: Option<Sender<GroupMsg>>,
    /// Backward link from the next stage (absent on the last).
    pub(crate) bwd_recv: Option<Receiver<GroupMsg>>,
}

impl std::fmt::Debug for GroupEndpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupEndpoints")
            .field("coord", &self.coord)
            .field("tp", &self.tp)
            .field("pp", &self.pp)
            .finish()
    }
}

/// Receives the next token of `(epoch, iteration)` from `recv`,
/// dropping strays from dead epochs, with an overall deadline.
fn recv_current(
    recv: &Receiver<GroupMsg>,
    epoch: u64,
    iteration: u64,
    deadline: Instant,
) -> Option<GroupMsg> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match recv.recv_timeout(remaining) {
            Ok(msg) if msg.epoch == epoch && msg.iteration == iteration => return Some(msg),
            Ok(_) => continue, // stray from a dead epoch: drop
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

impl GroupEndpoints {
    /// Circulates this rank's parameter CRC around the TP ring and
    /// compares it against every peer's: a ring all-gather of `tp - 1`
    /// hops. Returns whether the TP group is bitwise consistent.
    ///
    /// # Errors
    ///
    /// Returns [`GroupAbort::TpRing`] when a TP peer stops responding
    /// for longer than `timeout`.
    pub fn tp_exchange(
        &self,
        crc: u32,
        epoch: u64,
        iteration: u64,
        timeout: Duration,
    ) -> Result<bool, GroupAbort> {
        let (Some(send), Some(recv)) = (&self.tp_send, &self.tp_recv) else {
            return Ok(true); // tp = 1: trivially consistent
        };
        let own = u64::from(crc);
        if send
            .send(GroupMsg {
                epoch,
                iteration,
                payload: own,
            })
            .is_err()
        {
            return Err(GroupAbort::TpRing);
        }
        let mut consistent = true;
        let deadline = Instant::now() + timeout;
        for hop in 1..self.tp {
            let msg = recv_current(recv, epoch, iteration, deadline).ok_or(GroupAbort::TpRing)?;
            if msg.payload != own {
                consistent = false;
            }
            // Forward so every member sees every CRC (a value travels
            // tp - 1 hops in total).
            if hop + 1 < self.tp && send.send(msg).is_err() {
                return Err(GroupAbort::TpRing);
            }
        }
        Ok(consistent)
    }

    /// Waits for the upstream stage's forward (activation) token;
    /// returns immediately on stage 0. Returns the seconds spent
    /// blocked — the rank's pipeline-bubble time for this iteration.
    ///
    /// # Errors
    ///
    /// Returns [`GroupAbort::PpForward`] when the upstream stage stops
    /// responding for longer than `timeout`.
    pub fn pp_forward_wait(
        &self,
        epoch: u64,
        iteration: u64,
        timeout: Duration,
    ) -> Result<f64, GroupAbort> {
        let Some(recv) = &self.fwd_recv else {
            return Ok(0.0);
        };
        let start = Instant::now();
        recv_current(recv, epoch, iteration, start + timeout).ok_or(GroupAbort::PpForward)?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// Hands the forward token to the next stage (no-op on the last).
    ///
    /// # Errors
    ///
    /// Returns [`GroupAbort::PpForward`] if the downstream channel is
    /// gone.
    pub fn pp_forward_send(&self, epoch: u64, iteration: u64) -> Result<(), GroupAbort> {
        if let Some(send) = &self.fwd_send {
            send.send(GroupMsg {
                epoch,
                iteration,
                payload: self.coord.pp as u64,
            })
            .map_err(|_| GroupAbort::PpForward)?;
        }
        Ok(())
    }

    /// Runs the backward leg of the relay: waits for the downstream
    /// stage's gradient token (the last stage starts the leg), then
    /// passes it upstream. Returns the seconds spent blocked.
    ///
    /// # Errors
    ///
    /// Returns [`GroupAbort::PpBackward`] when the downstream stage
    /// stops responding for longer than `timeout`.
    pub fn pp_backward(
        &self,
        epoch: u64,
        iteration: u64,
        timeout: Duration,
    ) -> Result<f64, GroupAbort> {
        let start = Instant::now();
        if let Some(recv) = &self.bwd_recv {
            recv_current(recv, epoch, iteration, start + timeout).ok_or(GroupAbort::PpBackward)?;
        }
        if let Some(send) = &self.bwd_send {
            send.send(GroupMsg {
                epoch,
                iteration,
                payload: self.coord.pp as u64,
            })
            .map_err(|_| GroupAbort::PpBackward)?;
        }
        Ok(start.elapsed().as_secs_f64())
    }
}

/// The full group wiring of one epoch: TP rings and PP chains for every
/// global rank. Rebuilt (like the ring mesh) after every recovery.
pub struct GroupMesh {
    endpoints: Vec<GroupEndpoints>,
}

impl std::fmt::Debug for GroupMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupMesh")
            .field("world", &self.endpoints.len())
            .finish()
    }
}

impl GroupMesh {
    /// Builds the TP rings and PP chains of `topo`.
    pub fn new(topo: &ParallelTopology) -> Self {
        let world = topo.world_size();
        let (tp, pp) = (topo.tp(), topo.pp());
        // One channel per directed TP ring link (rank -> next member) and
        // per PP chain link in each direction.
        let mut tp_links: Vec<Option<(Sender<GroupMsg>, Receiver<GroupMsg>)>> =
            (0..world).map(|_| None).collect();
        let mut fwd_links: Vec<Option<(Sender<GroupMsg>, Receiver<GroupMsg>)>> =
            (0..world).map(|_| None).collect();
        let mut bwd_links: Vec<Option<(Sender<GroupMsg>, Receiver<GroupMsg>)>> =
            (0..world).map(|_| None).collect();
        for rank in 0..world {
            let c = topo.coords_of(rank);
            if tp > 1 {
                tp_links[rank] = Some(unbounded());
            }
            if pp > 1 && c.pp + 1 < pp {
                // `fwd_links[rank]` carries rank -> next stage;
                // `bwd_links[rank]` carries next stage -> rank.
                fwd_links[rank] = Some(unbounded());
                bwd_links[rank] = Some(unbounded());
            }
        }
        let endpoints = (0..world)
            .map(|rank| {
                let c = topo.coords_of(rank);
                let tp_pred = topo.global_rank_of(RankCoord {
                    tp: (c.tp + tp - 1) % tp,
                    ..c
                });
                let pp_prev =
                    (c.pp > 0).then(|| topo.global_rank_of(RankCoord { pp: c.pp - 1, ..c }));
                GroupEndpoints {
                    coord: c,
                    tp,
                    pp,
                    tp_send: tp_links[rank].as_ref().map(|(s, _)| s.clone()),
                    tp_recv: tp_links[tp_pred].as_ref().map(|(_, r)| r.clone()),
                    fwd_send: fwd_links[rank].as_ref().map(|(s, _)| s.clone()),
                    fwd_recv: pp_prev
                        .and_then(|p| fwd_links[p].as_ref())
                        .map(|(_, r)| r.clone()),
                    bwd_send: pp_prev
                        .and_then(|p| bwd_links[p].as_ref())
                        .map(|(s, _)| s.clone()),
                    bwd_recv: bwd_links[rank].as_ref().map(|(_, r)| r.clone()),
                }
            })
            .collect();
        Self { endpoints }
    }

    /// The endpoints of one global rank.
    pub fn endpoints(&self, rank: usize) -> GroupEndpoints {
        self.endpoints[rank].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_222() -> ParallelTopology {
        ParallelTopology::new(1, 8, 2, 2, 2, 2).unwrap()
    }

    /// Drives one full iteration of TP exchange + PP relay on real
    /// threads, returning every rank's consistency verdict.
    fn drive(topo: &ParallelTopology, crcs: Vec<u32>) -> Vec<bool> {
        let mesh = GroupMesh::new(topo);
        let handles: Vec<_> = (0..topo.world_size())
            .map(|rank| {
                let ep = mesh.endpoints(rank);
                let crc = crcs[rank];
                std::thread::spawn(move || {
                    let timeout = Duration::from_secs(5);
                    let consistent = ep.tp_exchange(crc, 0, 1, timeout).unwrap();
                    ep.pp_forward_wait(0, 1, timeout).unwrap();
                    ep.pp_forward_send(0, 1).unwrap();
                    ep.pp_backward(0, 1, timeout).unwrap();
                    consistent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn identical_crcs_are_consistent_everywhere() {
        let topo = topo_222();
        let verdicts = drive(&topo, vec![7; 8]);
        assert!(verdicts.into_iter().all(|c| c));
    }

    #[test]
    fn diverged_tp_member_flags_its_whole_group() {
        let topo = topo_222();
        let mut crcs = vec![7u32; 8];
        crcs[1] = 8; // rank 1 = (dp 0, tp 1, pp 0); TP group {0, 1}
        let verdicts = drive(&topo, crcs);
        assert!(!verdicts[0] && !verdicts[1], "both members must notice");
        assert!(verdicts[2..].iter().all(|&c| c), "other groups untouched");
    }

    #[test]
    fn wider_tp_ring_circulates_every_crc() {
        // tp = 4: divergence three hops away must still be seen.
        let topo = ParallelTopology::new(1, 8, 2, 4, 1, 2).unwrap();
        let mut crcs = vec![3u32; 8];
        crcs[3] = 9; // (dp 0, tp 3)
        let verdicts = drive(&topo, crcs);
        assert!(!verdicts[0..4].iter().any(|&c| c));
        assert!(verdicts[4..8].iter().all(|&c| c));
    }

    #[test]
    fn dead_stage_aborts_both_directions() {
        // pp = 4 chain at (dp 0, tp 0): stage 2 never joins.
        let topo = ParallelTopology::new(1, 8, 2, 1, 4, 2).unwrap();
        let mesh = GroupMesh::new(&topo);
        let timeout = Duration::from_millis(100);
        let handles: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .map(|stage| {
                let ep = mesh.endpoints(topo.global_rank_of(RankCoord {
                    dp: 0,
                    tp: 0,
                    pp: stage,
                }));
                std::thread::spawn(move || {
                    ep.pp_forward_wait(0, 1, timeout)?;
                    ep.pp_forward_send(0, 1)?;
                    ep.pp_backward(0, 1, timeout)?;
                    Ok::<(), GroupAbort>(())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Stage 3 never gets the forward token; stages 0 and 1 never get
        // the backward token. Nobody hangs.
        assert!(matches!(results[2], Err(GroupAbort::PpForward)));
        assert!(matches!(results[0], Err(GroupAbort::PpBackward)));
        assert!(matches!(results[1], Err(GroupAbort::PpBackward)));
    }

    #[test]
    fn stale_epoch_tokens_are_dropped() {
        let topo = ParallelTopology::new(1, 4, 2, 2, 1, 2).unwrap();
        let mesh = GroupMesh::new(&topo);
        let e0 = mesh.endpoints(0);
        let e1 = mesh.endpoints(1);
        // Rank 1 leaks a token from a dead epoch, then sends the real one.
        e1.tp_send
            .as_ref()
            .unwrap()
            .send(GroupMsg {
                epoch: 0,
                iteration: 9,
                payload: 0xDEAD,
            })
            .unwrap();
        let h =
            std::thread::spawn(move || e1.tp_exchange(5, 1, 2, Duration::from_secs(5)).unwrap());
        assert!(e0.tp_exchange(5, 1, 2, Duration::from_secs(5)).unwrap());
        assert!(h.join().unwrap());
    }

    #[test]
    fn degenerate_degrees_are_noops() {
        let topo = ParallelTopology::dp_ep(1, 4, 4, 4).unwrap();
        let mesh = GroupMesh::new(&topo);
        let ep = mesh.endpoints(2);
        let timeout = Duration::from_millis(10);
        assert!(ep.tp_exchange(1, 0, 1, timeout).unwrap());
        assert_eq!(ep.pp_forward_wait(0, 1, timeout).unwrap(), 0.0);
        ep.pp_forward_send(0, 1).unwrap();
        ep.pp_backward(0, 1, timeout).unwrap();
    }
}
