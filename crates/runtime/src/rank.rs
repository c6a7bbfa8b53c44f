//! Rank worker threads and the coordinator↔rank wire protocol.
//!
//! Each *global* rank of the DP × TP × PP grid is an OS thread owning a
//! full replica of the model (the paper's ZeRO-2 DP setting replicates
//! weights; checkpoint *duties* are sharded over the shard groups, not
//! the replicas). A rank's [`moc_core::topology::RankCoord`] fixes its
//! role: the `tp · pp` members of one DP index form a shard group and
//! step the same DP batch slice with the same gate-noise seed, so the
//! grid run is bitwise identical to the `tp = pp = 1` baseline with the
//! same `dp`. Ranks run a lock-step protocol over crossbeam channels:
//!
//! 1. `Step`: exchange parameter CRCs around the TP consistency ring,
//!    wait for the upstream pipeline stage's token, compute
//!    forward+backward on the DP slice, relay tokens on (forward to the
//!    next stage, backward to the previous), then all-reduce the
//!    gradient with the DP-group peers through the collective the step
//!    names ([`crate::collective::ring_all_reduce`] or
//!    [`crate::collective::hier_all_reduce`]), apply the optimizer step
//!    locally — every replica applies the same reduced gradient, so
//!    replicas stay bitwise identical — and report only timings and
//!    routing statistics.
//! 2. `Checkpoint`: serialize the modules this rank *owns* under the
//!    group-aware checkpoint-sharding placement and report the shard
//!    jobs.
//! 3. `Restore`: overwrite local state from recovery blobs.
//! 4. `InstallLinks`: adopt fresh ring/group endpoints (sent at run
//!    start and after every recovery or expand, so aborted collectives
//!    can never leak messages into the next epoch).
//!
//! A `Step` carrying `die: true` makes the thread exit mid-iteration
//! without reporting — the injected node kill. The coordinator learns
//! of it through the missing reply, through the ring aborts the death
//! causes in the DP-group peers, or through the stalled PP relays of its
//! shard group.
//!
//! The flattened gradient and the CRC scratch live in per-thread
//! buffers reused across iterations, so steady-state steps perform zero
//! gradient-buffer heap allocations after the first iteration.

use crate::collective::{
    hier_all_reduce, ring_all_reduce, CollectiveKind, GroupEndpoints, HierEndpoints, RingAbort,
    RingEndpoints,
};
use crate::config::RuntimeConfig;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use moc_core::topology::{ParallelTopology, RankCoord};
use moc_core::twolevel::ShardJob;
use moc_moe::{ExpertId, MoeModelConfig};
use moc_obs::{Counter, Flow, SpanKind, TelemetryCell, TraceSink};
use moc_store::{ShardKey, StatePart};
use moc_train::checkpoint::{deserialize_module, expert_of, serialize_module};
use moc_train::{adam_step, MarkovCorpus, ParamStore, TinyMoeLm};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One restored shard broadcast to every rank after recovery.
#[derive(Debug, Clone)]
pub(crate) struct RestoreBlob {
    pub module: String,
    pub part: StatePart,
    pub payload: Bytes,
}

/// One adopted DP slice's result, carried alongside a rank's own
/// gradient while the run is elastically shrunk: the gradient the dead
/// shard group would have produced (bitwise — slice and gate noise are
/// pure functions of `(iteration, dp)`), plus its routing statistics.
struct AdoptedGrad {
    /// The dead shard group's DP index.
    dp: usize,
    /// Its slice's flattened gradient.
    grad: Vec<f32>,
    /// Its slice's per-layer expert loads.
    expert_loads: Vec<Vec<u64>>,
}

/// Per-step chaos directives, lowered by the coordinator from the
/// FaultPlan v2 schedule. Default is no chaos.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepChaos {
    /// Gray control-plane failure: delay the step *report* by this much.
    /// The rank's data-plane collectives complete normally; only the
    /// coordinator sees silence — long enough to be suspected, short
    /// enough to be re-admitted.
    pub report_delay: Option<Duration>,
    /// Mesh congestion: enter this step's collectives late by this much.
    /// Past the peer heartbeat deadline, the collective aborts and the
    /// coordinator rolls back without declaring deaths.
    pub mesh_delay: Option<Duration>,
    /// Mesh partition: every collective message of this rank is dropped;
    /// the rank aborts the step immediately and its peers time out.
    pub mesh_drop: bool,
}

/// Coordinator → rank commands.
#[derive(Debug, Clone)]
pub(crate) enum RankCommand {
    /// Run one training iteration; `die` simulates the node kill.
    Step {
        iteration: u64,
        /// Recovery generation, echoed back so the coordinator can
        /// discard replies from threads that predate a rollback.
        epoch: u64,
        die: bool,
        /// Collective to exchange gradients through this iteration (a
        /// degraded world runs the survivor `Ring` whatever the
        /// configured collective).
        collective: CollectiveKind,
        /// Injected straggler slowdown factor, if this rank is a victim.
        slow_factor: Option<f64>,
        /// Injected gray-failure directives for this step.
        chaos: StepChaos,
    },
    /// Adopt fresh collective endpoints (run start and after every
    /// recovery or expand): the rank's DP-group ring, the dead DP slots
    /// it drives while the world is shrunk, its two-level endpoints
    /// (hierarchical collective at full shape), and its TP/PP group
    /// links (mixed-parallelism worlds only).
    InstallLinks {
        ring: RingEndpoints,
        /// Ring endpoints of the dead DP slots this rank adopted: while
        /// degraded, the mesh keeps its full DP size and the adopter
        /// drives each dead slot's position with the adopted gradient.
        adopted_rings: Vec<(usize, RingEndpoints)>,
        hier: Option<HierEndpoints>,
        groups: Option<GroupEndpoints>,
    },
    /// Adopt an elastic-rebalance role: replace the rank's
    /// checkpoint-duty module set and the dead DP slices it additionally
    /// computes each step (sent at elastic-run start, after every
    /// shrink, and after every expand).
    Reconfigure {
        owned: Arc<Vec<String>>,
        adopted_slices: Arc<Vec<usize>>,
    },
    /// Serialize the rank's *entire* replica state (every module, both
    /// parts) — the bitwise template a rejoining rank is seeded from.
    ExportState,
    /// Serialize owned modules for the checkpoint at `iteration`.
    Checkpoint {
        iteration: u64,
        snapshot: Arc<HashSet<ExpertId>>,
        persist: Arc<HashSet<ExpertId>>,
    },
    /// Evaluate validation loss (sent to rank 0 only).
    Eval,
    /// Overwrite local state from recovery blobs. `iteration` is the
    /// iteration the coordinator tags the transition's own spans with
    /// (the fault's detection iteration, or the expand iteration), so a
    /// freshly spawned rank's restore lands in the same trace window.
    Restore {
        blobs: Arc<Vec<RestoreBlob>>,
        iteration: u64,
    },
    /// Report final parameters and exit.
    Finish,
}

/// Rank → coordinator events.
#[derive(Debug)]
pub(crate) enum RankEvent {
    /// Iteration result: the gradient was all-reduced peer-to-peer within
    /// the DP group and applied locally; only statistics travel to the
    /// coordinator.
    StepDone {
        rank: usize,
        iteration: u64,
        epoch: u64,
        expert_loads: Vec<Vec<u64>>,
        compute_secs: f64,
        /// Injected straggler stall, 0 when the rank was not slowed.
        stall_secs: f64,
        /// Active reduce-leg work (fold/copy/send).
        reduce_scatter_secs: f64,
        /// Active gather-leg work (copy/forward).
        all_gather_secs: f64,
        /// Blocking time waiting on ring peers.
        ring_wait_secs: f64,
        /// Local optimizer step (load + Adam).
        apply_secs: f64,
        /// Whether the rank's TP group exchanged identical param CRCs.
        tp_consistent: bool,
        /// Time spent in the TP consistency exchange.
        tp_sync_secs: f64,
        /// Blocking time in the PP relay (the rank's pipeline bubble).
        pp_wait_secs: f64,
        /// Per-layer expert loads of each adopted dead slice (elastic
        /// degraded mode; empty otherwise) — the gradients themselves
        /// were folded in-band by the survivor ring, but the routing
        /// statistics still travel to the coordinator.
        adopted_loads: Vec<Vec<Vec<u64>>>,
    },
    /// A group collective (DP ring, TP ring, or PP relay) timed out on a
    /// peer and the iteration was abandoned without applying (the
    /// coordinator will recover and roll back).
    StepAborted {
        rank: usize,
        iteration: u64,
        epoch: u64,
    },
    /// Serialized checkpoint shards of the rank's owned modules.
    Shards {
        rank: usize,
        jobs: Vec<ShardJob>,
        serialize_secs: f64,
    },
    /// Validation loss (rank 0).
    EvalLoss { loss: f32 },
    /// Recovery blobs applied.
    Restored { rank: usize },
    /// The rank's full replica state (reply to `ExportState`; the
    /// coordinator has exactly one export outstanding at a time, so the
    /// reply needs no origin).
    StateExport { blobs: Vec<RestoreBlob> },
    /// Final flattened parameters and their checksum.
    Finished {
        rank: usize,
        params: Vec<f32>,
        param_crc: u32,
    },
}

/// Everything a rank thread needs.
pub(crate) struct RankContext {
    pub rank: usize,
    pub coord: RankCoord,
    pub config: RuntimeConfig,
    pub commands: Receiver<RankCommand>,
    pub events: Sender<RankEvent>,
    pub sink: TraceSink,
    /// Live-telemetry counter cell (inert when telemetry is off).
    pub telemetry: TelemetryCell,
}

/// The model layer a module belongs to (`layer{N}.…` names), if any.
fn layer_of(module: &str) -> Option<usize> {
    let rest = module.strip_prefix("layer")?;
    let (layer_str, _) = rest.split_once('.')?;
    layer_str.parse().ok()
}

/// The grid coordinates that own checkpointing a module under the
/// runtime's group-aware checkpoint-sharding placement:
///
/// * **DP**: expert modules live on the shard group hosting them under
///   the plan's group keying ([`moc_ckpt::shard_group_of_expert`]);
///   non-expert modules spread over all DP indices by a deterministic
///   name hash — mirroring `moc_train::TrainingCheckpointer`'s node
///   placement.
/// * **PP**: a module with a layer index lives on the pipeline stage
///   owning that layer; layer-less modules (the embedding) live on
///   stage 0.
/// * **TP**: the owning tensor slice within the stage is spread by a
///   second name hash, so TP peers share the group's serialization
///   load.
pub fn owner_coord(topo: &ParallelTopology, model: &MoeModelConfig, module: &str) -> RankCoord {
    let n = model.num_experts();
    let dp = match expert_of(model, module) {
        Some(id) => moc_ckpt::shard_group_of_expert(topo, id, n),
        None => {
            let h: usize = module.bytes().map(|b| b as usize).sum();
            h % topo.dp()
        }
    };
    let pp = match layer_of(module) {
        Some(layer) => topo.stage_of_layer(layer, model.num_layers()),
        None => 0,
    };
    let tp = module.bytes().fold(0usize, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as usize)
    }) % topo.tp();
    RankCoord { dp, tp, pp }
}

/// The global rank that owns checkpointing a module (see
/// [`owner_coord`]). With `tp = pp = 1` this is exactly the DP owner of
/// the pre-shard-group runtime.
pub fn owner_rank(topo: &ParallelTopology, model: &MoeModelConfig, module: &str) -> usize {
    topo.global_rank_of(owner_coord(topo, model, module))
}

/// Flattens every parameter gradient in registration order.
#[cfg(test)]
pub(crate) fn flatten_grads(store: &ParamStore) -> Vec<f32> {
    let mut out = Vec::new();
    flatten_grads_into(store, &mut out);
    out
}

/// Flattens every parameter gradient in registration order into a reused
/// buffer — after warm-up the buffer's capacity suffices and no
/// allocation happens.
pub(crate) fn flatten_grads_into(store: &ParamStore, out: &mut Vec<f32>) {
    out.clear();
    for p in store.params() {
        out.extend_from_slice(p.grad.data());
    }
}

/// Loads a flattened gradient back into the store.
pub(crate) fn load_grads(store: &mut ParamStore, grad: &[f32]) {
    let mut offset = 0;
    for p in store.params_mut() {
        let n = p.grad.len();
        p.grad.data_mut().copy_from_slice(&grad[offset..offset + n]);
        offset += n;
    }
    assert_eq!(offset, grad.len(), "gradient length mismatch");
}

/// Flattens every parameter value in registration order.
pub(crate) fn flatten_values(store: &ParamStore) -> Vec<f32> {
    let mut out = Vec::with_capacity(store.scalar_count() as usize);
    for p in store.params() {
        out.extend_from_slice(p.value.data());
    }
    out
}

/// CRC-32 over the little-endian bit pattern of a parameter vector, used
/// to verify replicas stayed bitwise identical.
pub(crate) fn params_crc(params: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(params.len() * 4);
    for &x in params {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    moc_store::frame::crc32(&bytes)
}

/// CRC-32 over every parameter value in registration order, staged
/// through a reused byte scratch — after warm-up the buffer's capacity
/// suffices and the per-iteration TP consistency check allocates
/// nothing.
pub(crate) fn store_params_crc(store: &ParamStore, scratch: &mut Vec<u8>) -> u32 {
    scratch.clear();
    for p in store.params() {
        for &x in p.value.data() {
            scratch.extend_from_slice(&x.to_le_bytes());
        }
    }
    moc_store::frame::crc32(scratch)
}

/// Gate-noise seed of one shard group at one iteration. Keyed by the DP
/// coordinate — not the global rank — so the `tp · pp` members of a
/// shard group draw identical gate noise and a grid run reproduces the
/// `tp = pp = 1` baseline bitwise.
pub(crate) fn noise_seed(seed: u64, iteration: u64, dp: usize) -> u64 {
    seed ^ (iteration << 1) ^ (dp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The rank thread body: processes commands until `Finish` or a `die`.
pub(crate) fn run_rank(ctx: RankContext) {
    // The sink moves out so span recording can borrow it mutably while
    // the abort closures capture `ctx.events`; dropping it at thread exit
    // (including a `die` return) flushes its spans into the merged trace,
    // and the flight-recorder ring is written at record time, so a dead
    // rank's final spans stay visible to the fault dump.
    let mut sink = ctx.sink;
    let cfg = &ctx.config;
    let corpus = MarkovCorpus::new(cfg.model.vocab_size(), cfg.topics, cfg.seed);
    let mut model = TinyMoeLm::new(cfg.model.clone(), cfg.seed);
    let per = cfg.batch_per_rank();
    // The batch slice follows the DP coordinate: every member of a shard
    // group steps the same slice (TP/PP parallelize the model, not the
    // data).
    let lo = ctx.coord.dp * per;

    // Checkpoint duties start at the static group-aware placement; an
    // elastic run replaces them (and installs adopted dead slices)
    // through `Reconfigure`.
    let mut owned: Vec<String> = model
        .store()
        .module_names()
        .into_iter()
        .filter(|m| owner_rank(&cfg.topology, &cfg.model, m) == ctx.rank)
        .collect();
    let mut adopted_slices: Vec<usize> = Vec::new();

    // Collective endpoints and the flattened-gradient / CRC buffers
    // persist across iterations: the gradient buffer is the rank's only
    // gradient-sized scratch and is never reallocated after the first
    // step. The same holds for the gradient of each adopted dead slice
    // while the run is shrunk: allocated on the first degraded step,
    // reused until the next `Reconfigure` drops them.
    let mut ring: Option<RingEndpoints> = None;
    let mut adopted_rings: Vec<(usize, RingEndpoints)> = Vec::new();
    let mut hier: Option<HierEndpoints> = None;
    let mut groups: Option<GroupEndpoints> = None;
    let mut grad_buf: Vec<f32> = Vec::new();
    let mut adopted: Vec<AdoptedGrad> = Vec::new();
    let mut crc_buf: Vec<u8> = Vec::new();
    // Commands without an iteration of their own (Eval, ExportState) are
    // traced under the last stepped iteration.
    let mut last_iteration: u64 = 0;

    while let Ok(command) = ctx.commands.recv() {
        match command {
            RankCommand::Step {
                iteration,
                epoch,
                die,
                collective,
                slow_factor,
                chaos,
            } => {
                last_iteration = iteration;
                let abort = |_: crate::collective::GroupAbort| {
                    let _ = ctx.events.send(RankEvent::StepAborted {
                        rank: ctx.rank,
                        iteration,
                        epoch,
                    });
                };
                // Injected mesh partition: the rank's collective messages
                // are all dropped this step, so nothing it could do would
                // complete — abandon immediately; peers time out and the
                // coordinator rolls the iteration back.
                if chaos.mesh_drop {
                    let drop_trace = sink.now();
                    sink.span(SpanKind::Fault, "mesh-drop", iteration, drop_trace);
                    let _ = ctx.events.send(RankEvent::StepAborted {
                        rank: ctx.rank,
                        iteration,
                        epoch,
                    });
                    continue;
                }
                // Injected mesh congestion: enter the collectives late.
                if let Some(d) = chaos.mesh_delay {
                    let delay_trace = sink.now();
                    std::thread::sleep(d);
                    sink.record(
                        SpanKind::Fault,
                        "mesh-delay",
                        iteration,
                        delay_trace,
                        d.as_secs_f64(),
                        Flow::None,
                    );
                }
                // TP replica-consistency exchange on the entry params
                // (the state every peer should share after the previous
                // apply). Skipped entirely — including the
                // O(|params|) CRC — when the TP degree is 1 (e.g. a
                // PP-only grid).
                let tp_start = Instant::now();
                let tp_trace = sink.now();
                let mut tp_consistent = true;
                let mut tp_sync_secs = 0.0;
                if let Some(g) = groups.as_ref().filter(|g| g.tp > 1) {
                    let crc = store_params_crc(model.store(), &mut crc_buf);
                    match g.tp_exchange(crc, epoch, iteration, cfg.heartbeat_timeout) {
                        Ok(consistent) => {
                            tp_consistent = consistent;
                            tp_sync_secs = tp_start.elapsed().as_secs_f64();
                            ctx.telemetry
                                .add_secs(Counter::CollectiveNanos, tp_sync_secs);
                            sink.record(
                                SpanKind::Collective,
                                "tp-sync",
                                iteration,
                                tp_trace,
                                tp_sync_secs,
                                Flow::None,
                            );
                        }
                        Err(e) => {
                            abort(e);
                            continue;
                        }
                    }
                }
                // PP forward relay: wait for the upstream stage's token.
                let mut pp_wait_secs = 0.0;
                if let Some(g) = &groups {
                    let wait_trace = sink.now();
                    match g.pp_forward_wait(epoch, iteration, cfg.heartbeat_timeout) {
                        Ok(waited) => {
                            pp_wait_secs += waited;
                            ctx.telemetry.add_secs(Counter::CollectiveNanos, waited);
                            sink.record(
                                SpanKind::Collective,
                                "pp-wait",
                                iteration,
                                wait_trace,
                                waited,
                                Flow::None,
                            );
                        }
                        Err(e) => {
                            abort(e);
                            continue;
                        }
                    }
                }
                let start = Instant::now();
                let compute_trace = sink.now();
                model.store_mut().zero_grads();
                let global = corpus.batch(iteration - 1, cfg.batch, cfg.seq_len);
                let sub = &global[lo..lo + per];
                let stats =
                    model.forward_backward(sub, noise_seed(cfg.seed, iteration, ctx.coord.dp));
                // The rank's own gradient is flattened immediately: the
                // adopted-slice passes below reuse the store's gradient
                // buffers and would otherwise clobber it.
                flatten_grads_into(model.store(), &mut grad_buf);
                // Elastic degraded mode: additionally compute each
                // adopted dead group's slice. Slice and gate noise are
                // pure functions of `(iteration, dp)`, so these
                // gradients are bitwise what the dead ranks would have
                // produced — the survivor ring folds them at the dead DP
                // positions and the trajectory matches the fixed shape.
                if adopted.len() != adopted_slices.len() {
                    adopted = (adopted_slices.iter())
                        .map(|&dp| AdoptedGrad {
                            dp,
                            grad: Vec::new(),
                            expert_loads: Vec::new(),
                        })
                        .collect();
                }
                for a in &mut adopted {
                    model.store_mut().zero_grads();
                    let alo = a.dp * per;
                    let astats = model.forward_backward(
                        &global[alo..alo + per],
                        noise_seed(cfg.seed, iteration, a.dp),
                    );
                    flatten_grads_into(model.store(), &mut a.grad);
                    a.expert_loads = astats.expert_loads;
                }
                let compute_secs = start.elapsed().as_secs_f64();
                ctx.telemetry.add_secs(Counter::ComputeNanos, compute_secs);
                // Recorded before the `die` early-return below: a killed
                // rank's last compute span must land in its flight ring.
                sink.record(
                    SpanKind::Phase,
                    "compute",
                    iteration,
                    compute_trace,
                    compute_secs,
                    Flow::None,
                );
                // An injected straggler stretches the step: the extra
                // wall time is reported so stall amplification shows up
                // in the metrics, while the numerics stay untouched.
                let stall_secs = match slow_factor {
                    Some(factor) => {
                        let stall = compute_secs * (factor - 1.0);
                        ctx.telemetry.add_secs(Counter::StallNanos, stall);
                        let stall_trace = sink.now();
                        std::thread::sleep(std::time::Duration::from_secs_f64(stall));
                        sink.record(
                            SpanKind::Phase,
                            "straggler-stall",
                            iteration,
                            stall_trace,
                            stall,
                            Flow::None,
                        );
                        stall
                    }
                    None => 0.0,
                };
                if die {
                    // The node dies mid-iteration: work done, never
                    // reported, relay tokens never sent — the death
                    // propagates through the group collectives.
                    return;
                }
                // PP relay: hand the activation token downstream, then
                // run the backward leg (last stage initiates).
                if let Some(g) = &groups {
                    let relay_trace = sink.now();
                    let relay = g
                        .pp_forward_send(epoch, iteration)
                        .and_then(|()| g.pp_backward(epoch, iteration, cfg.heartbeat_timeout));
                    match relay {
                        Ok(waited) => {
                            pp_wait_secs += waited;
                            ctx.telemetry.add_secs(Counter::CollectiveNanos, waited);
                            sink.span(SpanKind::Collective, "pp-relay", iteration, relay_trace);
                        }
                        Err(e) => {
                            abort(e);
                            continue;
                        }
                    }
                }
                let ring_trace = sink.now();
                let timeout = cfg.heartbeat_timeout;
                let (span_name, result) = if collective == CollectiveKind::Hierarchical {
                    // Hierarchical steps only run at full shape: while the
                    // world is shrunk the coordinator falls back to the
                    // survivor ring.
                    debug_assert!(adopted.is_empty(), "hierarchical step in degraded mode");
                    let endpoints = hier.as_ref().expect("hier endpoints installed");
                    (
                        "hier-all-reduce",
                        hier_all_reduce(endpoints, &mut grad_buf, epoch, iteration, timeout),
                    )
                } else {
                    // While the world is shrunk the rank also drives its
                    // adopted dead slots' ring positions, each on a
                    // scoped helper thread running the unchanged
                    // collective over the adopted gradient: the mesh
                    // keeps its full DP size, so the fold order — and
                    // therefore the bits — match the fixed shape. Every
                    // slot ends with the same averaged gradient, so the
                    // rank's own buffer holds the result. The slots must
                    // run concurrently: a dead slot downstream of this
                    // rank's own relays gradient chunks the rank itself
                    // is blocked on.
                    let endpoints = ring.as_ref().expect("ring endpoints installed");
                    let own_grad = &mut grad_buf;
                    let result = std::thread::scope(|scope| {
                        let helpers: Vec<_> = adopted
                            .iter_mut()
                            .map(|a| {
                                let ep = adopted_rings
                                    .iter()
                                    .find(|(d, _)| *d == a.dp)
                                    .map(|(_, ep)| ep)
                                    .expect("adopted slot endpoints installed");
                                let grad = &mut a.grad;
                                scope.spawn(move || {
                                    ring_all_reduce(ep, grad, epoch, iteration, timeout)
                                })
                            })
                            .collect();
                        let own = ring_all_reduce(endpoints, own_grad, epoch, iteration, timeout);
                        let mut helper_abort: Option<RingAbort> = None;
                        for h in helpers {
                            if let Err(e) = h.join().expect("adopted-slot ring thread") {
                                helper_abort.get_or_insert(e);
                            }
                        }
                        match (own, helper_abort) {
                            (Ok(t), None) => Ok(t),
                            (Err(e), _) | (Ok(_), Some(e)) => Err(e),
                        }
                    });
                    ("ring-all-reduce", result)
                };
                match result {
                    Ok(timings) => {
                        ctx.telemetry.add_secs(
                            Counter::CollectiveNanos,
                            timings.reduce_scatter_secs
                                + timings.all_gather_secs
                                + timings.wait_secs,
                        );
                        sink.span(SpanKind::Collective, span_name, iteration, ring_trace);
                        let apply_start = Instant::now();
                        let apply_trace = sink.now();
                        load_grads(model.store_mut(), &grad_buf);
                        adam_step(model.store_mut(), &cfg.adam);
                        sink.span(SpanKind::Phase, "apply", iteration, apply_trace);
                        // Injected heartbeat loss: the all-reduce and the
                        // apply completed — only the StepDone report goes
                        // silent, past one or more collect windows; the
                        // coordinator suspects, then re-admits on arrival.
                        if let Some(d) = chaos.report_delay {
                            let loss_trace = sink.now();
                            std::thread::sleep(d);
                            sink.record(
                                SpanKind::Fault,
                                "heartbeat-loss",
                                iteration,
                                loss_trace,
                                d.as_secs_f64(),
                                Flow::None,
                            );
                        }
                        let _ = ctx.events.send(RankEvent::StepDone {
                            rank: ctx.rank,
                            iteration,
                            epoch,
                            expert_loads: stats.expert_loads,
                            compute_secs,
                            stall_secs,
                            reduce_scatter_secs: timings.reduce_scatter_secs,
                            all_gather_secs: timings.all_gather_secs,
                            ring_wait_secs: timings.wait_secs,
                            apply_secs: apply_start.elapsed().as_secs_f64(),
                            tp_consistent,
                            tp_sync_secs,
                            pp_wait_secs,
                            adopted_loads: adopted
                                .iter_mut()
                                .map(|a| std::mem::take(&mut a.expert_loads))
                                .collect(),
                        });
                    }
                    Err(_) => {
                        // A peer died or stalled past the heartbeat:
                        // abandon the iteration without applying; the
                        // coordinator rolls everyone back.
                        let _ = ctx.events.send(RankEvent::StepAborted {
                            rank: ctx.rank,
                            iteration,
                            epoch,
                        });
                    }
                }
            }
            RankCommand::InstallLinks {
                ring: new_ring,
                adopted_rings: new_adopted,
                hier: new_hier,
                groups: new_groups,
            } => {
                ring = Some(new_ring);
                adopted_rings = new_adopted;
                hier = new_hier;
                groups = new_groups;
            }
            RankCommand::Reconfigure {
                owned: new_owned,
                adopted_slices: new_slices,
            } => {
                owned = (*new_owned).clone();
                adopted_slices = (*new_slices).clone();
                adopted.clear();
            }
            RankCommand::ExportState => {
                let export_trace = sink.now();
                let blobs: Vec<RestoreBlob> = model
                    .store()
                    .module_names()
                    .into_iter()
                    .flat_map(|module| {
                        [StatePart::Weights, StatePart::Optimizer].map(|part| RestoreBlob {
                            payload: serialize_module(&model, &module, part),
                            module: module.clone(),
                            part,
                        })
                    })
                    .collect();
                sink.span(
                    SpanKind::Elastic,
                    "export-state",
                    last_iteration,
                    export_trace,
                );
                let _ = ctx.events.send(RankEvent::StateExport { blobs });
            }
            RankCommand::Checkpoint {
                iteration,
                snapshot,
                persist,
            } => {
                let start = Instant::now();
                let serialize_trace = sink.now();
                let mut jobs = Vec::new();
                for module in &owned {
                    let expert = expert_of(&cfg.model, module);
                    for part in [StatePart::Weights, StatePart::Optimizer] {
                        let governed = match part {
                            StatePart::Weights => cfg.pec_mode.weights,
                            StatePart::Optimizer => cfg.pec_mode.optimizer,
                            StatePart::Extra => false,
                        };
                        let (do_snapshot, do_persist) = match (expert, governed) {
                            (None, _) | (Some(_), false) => (true, true),
                            (Some(id), true) => (snapshot.contains(&id), persist.contains(&id)),
                        };
                        if do_snapshot {
                            jobs.push(ShardJob {
                                key: ShardKey::new(module.clone(), part, iteration),
                                payload: serialize_module(&model, module, part),
                                persist: do_persist,
                            });
                        }
                    }
                }
                sink.span(SpanKind::Ckpt, "ckpt-serialize", iteration, serialize_trace);
                let _ = ctx.events.send(RankEvent::Shards {
                    rank: ctx.rank,
                    jobs,
                    serialize_secs: start.elapsed().as_secs_f64(),
                });
            }
            RankCommand::Eval => {
                let eval_trace = sink.now();
                let val = corpus.validation(cfg.batch, cfg.seq_len);
                let loss = model.evaluate(&val).loss;
                sink.span(SpanKind::Control, "eval", last_iteration, eval_trace);
                let _ = ctx.events.send(RankEvent::EvalLoss { loss });
            }
            RankCommand::Restore { blobs, iteration } => {
                let restore_trace = sink.now();
                for blob in blobs.iter() {
                    deserialize_module(&mut model, &blob.module, blob.part, &blob.payload);
                }
                model.store_mut().zero_grads();
                sink.span(SpanKind::Fault, "restore-apply", iteration, restore_trace);
                let _ = ctx.events.send(RankEvent::Restored { rank: ctx.rank });
            }
            RankCommand::Finish => {
                let params = flatten_values(model.store());
                let param_crc = params_crc(&params);
                let _ = ctx.events.send(RankEvent::Finished {
                    rank: ctx.rank,
                    params,
                    param_crc,
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ParallelTopology {
        ParallelTopology::dp_ep(2, 4, 8, 8).unwrap()
    }

    #[test]
    fn every_module_has_exactly_one_owner() {
        let cfg = RuntimeConfig::tiny(topo());
        let model = TinyMoeLm::new(cfg.model.clone(), 1);
        for module in model.store().module_names() {
            let owner = owner_rank(&cfg.topology, &cfg.model, &module);
            assert!(owner < cfg.topology.dp(), "{module} -> rank {owner}");
        }
    }

    #[test]
    fn expert_owner_follows_ep_placement() {
        let cfg = RuntimeConfig::tiny(topo());
        // tiny_lm_8e: 8 experts over ep=8 -> expert e on ep rank e.
        for e in 0..8 {
            let owner = owner_rank(&cfg.topology, &cfg.model, &format!("layer1.expert{e}"));
            assert_eq!(owner, e);
        }
    }

    #[test]
    fn expert_owner_spreads_over_ep_groups() {
        // dp=16, ep=8 -> two EP groups; layers alternate groups.
        let topo = ParallelTopology::dp_ep(2, 8, 16, 8).unwrap();
        let model = moc_moe::presets::tiny_lm_8e();
        let l1 = owner_rank(&topo, &model, "layer1.expert0");
        let l3 = owner_rank(&topo, &model, "layer3.expert0");
        assert_eq!(l1, 0);
        assert_eq!(l3, 8, "second MoE layer owned by the second EP group");
    }

    #[test]
    fn owner_coord_spreads_over_stages_and_slices() {
        // dp=2, tp=2, pp=2 over the 4-layer tiny model: layers 0-1 on
        // stage 0, layers 2-3 on stage 1; the embedding on stage 0.
        let topo = ParallelTopology::new(1, 8, 2, 2, 2, 2).unwrap();
        let model = moc_moe::presets::tiny_lm_8e();
        assert_eq!(owner_coord(&topo, &model, "layer1.expert0").pp, 0);
        assert_eq!(owner_coord(&topo, &model, "layer3.expert0").pp, 1);
        assert_eq!(owner_coord(&topo, &model, "embedding").pp, 0);
        // Every owner is a valid global rank, and ownership is a
        // partition: each module has exactly one owner in the world.
        let m = TinyMoeLm::new(model.clone(), 1);
        let mut seen_tp = std::collections::HashSet::new();
        for module in m.store().module_names() {
            let owner = owner_rank(&topo, &model, &module);
            assert!(owner < topo.world_size(), "{module} -> {owner}");
            seen_tp.insert(owner_coord(&topo, &model, &module).tp);
        }
        assert_eq!(seen_tp.len(), 2, "both tensor slices share the load");
    }

    #[test]
    fn owner_rank_with_flat_topology_matches_dp_owner() {
        // tp = pp = 1: the global owner must equal the historical DP
        // owner, keeping pre-shard-group stores recoverable.
        let topo = ParallelTopology::dp_ep(2, 4, 8, 8).unwrap();
        let model = moc_moe::presets::tiny_lm_8e();
        let m = TinyMoeLm::new(model.clone(), 1);
        for module in m.store().module_names() {
            let c = owner_coord(&topo, &model, &module);
            assert_eq!((c.tp, c.pp), (0, 0));
            assert_eq!(owner_rank(&topo, &model, &module), c.dp);
        }
    }

    #[test]
    fn grad_roundtrip_preserves_values() {
        let cfg = RuntimeConfig::tiny(topo());
        let mut model = TinyMoeLm::new(cfg.model.clone(), 3);
        let corpus = MarkovCorpus::new(cfg.model.vocab_size(), cfg.topics, cfg.seed);
        let batch = corpus.batch(0, 2, 16);
        model.forward_backward(&batch, 1);
        let grad = flatten_grads(model.store());
        assert_eq!(grad.len() as u64, model.store().scalar_count());
        let mut other = TinyMoeLm::new(cfg.model.clone(), 3);
        load_grads(other.store_mut(), &grad);
        assert_eq!(flatten_grads(other.store()), grad);
    }

    #[test]
    fn params_crc_detects_divergence() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(params_crc(&a), params_crc(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1); // one-ulp divergence
        assert_ne!(params_crc(&a), params_crc(&b));
    }

    #[test]
    fn noise_seeds_differ_per_rank_and_iteration() {
        assert_ne!(noise_seed(7, 1, 0), noise_seed(7, 1, 1));
        assert_ne!(noise_seed(7, 1, 0), noise_seed(7, 2, 0));
        assert_eq!(noise_seed(7, 5, 3), noise_seed(7, 5, 3));
    }
}
