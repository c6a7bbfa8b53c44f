//! The coordinator control plane.
//!
//! [`Coordinator::run`] drives a live training run: it spawns one OS
//! thread per global rank, steps the ranks through lock-step iterations
//! whose gradient exchange they run among themselves (the ring or
//! hierarchical collective over crossbeam channels), orchestrates two-level
//! checkpoints through the per-node agents, injects node kills from the
//! fault plan, *detects* failures through missing heartbeat replies, and
//! executes live recovery — pulling from surviving nodes' CPU-memory
//! snapshots when possible, falling back to the persistent store —
//! before rewinding the data stream and resuming.
//!
//! Everything observable is deterministic in the configuration seed: the
//! same config produces bitwise-identical final parameters, which the
//! coordinator verifies by comparing every rank's parameter checksum.

use crate::collective::{CollectiveKind, GroupMesh, HierMesh, RingMesh};
use crate::config::{CheckpointMode, ConfigError, RuntimeConfig};
use crate::injector::FaultInjector;
use crate::metrics::{EventKind, MetricsRegistry, Phase, RunSummary};
use crate::node::NodeRuntime;
use crate::rank::{owner_coord, run_rank, RankCommand, RankContext, RankEvent, StepChaos};
use crate::recovery_exec::{execute_recovery, RecoveryOutcome};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use moc_ckpt::{ChainStore, EngineStats, PartialPlan};
use moc_core::dynamic_k::DynamicK;
use moc_core::placement::PlacementPlan;
use moc_core::plt::PltAccumulator;
use moc_core::recovery::RecoveryError;
use moc_core::topology::RankCoord;
use moc_core::twolevel::ShardJob;
use moc_elastic::{plan_expand, plan_shrink, PlacementPlanner};
use moc_moe::ExpertId;
use moc_obs::{
    ckpt_flow_id, Counter, Flow, HealthConfig, HealthScorer, HealthState, SpanKind, TelemetryCell,
    TraceCollector, TraceSink, BACKGROUND_TID_BASE,
};
use moc_store::{ChaosStore, ClusterMemory, NodeId, ObjectStore, RetryStore, StatePart};
use moc_train::checkpoint::expert_of;
use moc_train::TinyMoeLm;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Error from a live run.
#[derive(Debug)]
pub enum RuntimeError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// Recovery could not restore a module from any surviving source.
    Recovery(RecoveryError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "invalid runtime config: {e}"),
            RuntimeError::Recovery(e) => write!(f, "live recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Config(e) => Some(e),
            RuntimeError::Recovery(e) => Some(e),
        }
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

impl From<RecoveryError> for RuntimeError {
    fn from(e: RecoveryError) -> Self {
        RuntimeError::Recovery(e)
    }
}

/// Consecutive no-progress recoveries tolerated before the run fails
/// loudly (see `Run::recoveries_without_progress`).
const MAX_RECOVERIES_WITHOUT_PROGRESS: u32 = 3;

/// The live-runtime entry point.
pub struct Coordinator {
    config: RuntimeConfig,
    store: Arc<dyn ObjectStore>,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("model", &self.config.model.name())
            .field("topology", &self.config.topology.to_string())
            .finish()
    }
}

impl Coordinator {
    /// Creates a coordinator persisting checkpoints into `store`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for inconsistent configurations.
    pub fn new(config: RuntimeConfig, store: Arc<dyn ObjectStore>) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Self { config, store })
    }

    /// Runs the configured training job to completion and returns the
    /// measured summary.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Recovery`] if a fault strikes state that no
    /// surviving source can restore (impossible after the bootstrap
    /// checkpoint this method always takes).
    pub fn run(self) -> Result<RunSummary, RuntimeError> {
        Run::start(self.config, self.store)?.drive()
    }
}

/// Group-collective statistics every step reply carries.
#[derive(Clone, Copy)]
struct GroupStats {
    tp_consistent: bool,
    tp_sync_secs: f64,
    pp_wait_secs: f64,
}

/// One rank's report from an iteration.
enum StepReply {
    /// The rank finished the collective and applied the step.
    Done(StepStats),
    /// The rank abandoned the collective after a peer timeout.
    Aborted,
}

/// Statistics of a completed step.
struct StepStats {
    expert_loads: Vec<Vec<u64>>,
    /// Expert loads of the dead slices this rank adopted (survivor ring
    /// only; the adopted gradients themselves were folded in-band).
    adopted_loads: Vec<Vec<Vec<u64>>>,
    compute_secs: f64,
    stall_secs: f64,
    reduce_scatter_secs: f64,
    all_gather_secs: f64,
    ring_wait_secs: f64,
    apply_secs: f64,
    group: GroupStats,
}

/// In-flight run state.
struct Run {
    config: RuntimeConfig,
    store: Arc<dyn ObjectStore>,
    /// Handle onto the retry wrapper every store op flows through, kept
    /// for its retry/exhaustion counters (the `store` field above is the
    /// same object, type-erased).
    retry_store: Arc<RetryStore>,
    memory: ClusterMemory,
    nodes: Vec<NodeRuntime>,
    cmd_txs: Vec<Sender<RankCommand>>,
    handles: Vec<Option<JoinHandle<()>>>,
    events: Receiver<RankEvent>,
    events_tx: Sender<RankEvent>,
    injector: FaultInjector,
    metrics: MetricsRegistry,
    /// Partial-expert checkpoint plan: the rotating snapshot / persist
    /// selections (rebuilt when Dynamic-K raises K).
    plan: PartialPlan,
    dynamic_k: Option<DynamicK>,
    ckpt_index: u64,
    /// Recovery generation: bumped on every recovery so events from
    /// threads spawned before a rollback can never be mistaken for
    /// replies to re-executed iterations.
    epoch: u64,
    plt: PltAccumulator,
    cum_routed: Vec<Vec<u64>>,
    routed_at: HashMap<u64, Vec<Vec<u64>>>,
    /// Checkpoint iterations currently retained in `routed_at`, oldest
    /// first (the bootstrap version 0 is kept separately, forever).
    ckpt_history: Vec<u64>,
    val_curve: Vec<(u64, f32)>,
    k_trace: Vec<usize>,
    module_names: Vec<String>,
    /// Flattened-gradient length, fixed by the model architecture.
    grad_len: usize,
    /// The live ring meshes, one per DP gradient group; rebuilt after
    /// every recovery and expand so
    /// stranded messages die with their channels. While the world is
    /// shrunk these are the survivor rings: still full DP size, with
    /// each dead slot driven by its adopter.
    meshes: Vec<RingMesh>,
    /// The two-level leader meshes, one per DP gradient group
    /// (hierarchical collective, full shape only); rebuilt with the
    /// ring meshes.
    hier_meshes: Vec<HierMesh>,
    /// TP/PP group wiring (mixed-parallelism worlds only); rebuilt with
    /// the ring meshes.
    group_mesh: Option<GroupMesh>,
    /// Recoveries triggered since the last completed iteration. Failure
    /// detection is timeout-based, so a rank that is merely slower than
    /// `heartbeat_timeout` is indistinguishable from a dead one; if the
    /// same iteration keeps timing out the run would otherwise livelock
    /// in rollback. After a few consecutive recoveries with no forward
    /// progress the run fails loudly instead, pointing at the timeout.
    recoveries_without_progress: u32,
    /// Per-global-rank liveness. Always all-true outside elastic shrink
    /// mode (the respawn path revives ranks within the recovery); under
    /// elastic shrink, the dead shard groups' ranks stay false until an
    /// expand revives them.
    live: Vec<bool>,
    /// The failure-domain-aware expert placement (elastic mode only):
    /// checkpoint duties are keyed by this plan instead of the static
    /// `owner_coord`, so partial-expert selection follows migrations.
    placement: Option<PlacementPlan>,
    /// Shard groups currently dead (DP indices), cumulative across
    /// shrinks until an expand revives them.
    dead_groups: BTreeSet<usize>,
    /// Active slice adoption: dead group → surviving group computing its
    /// DP batch slice.
    adoptions: BTreeMap<usize, usize>,
    /// Iteration at which the current degraded window began (the most
    /// recent shrink's resume point), `None` when full-shape.
    degraded_since: Option<u64>,
    /// Value of `metrics.degraded_iterations` when the current degraded
    /// window opened (its first shrink): the expand event reports the
    /// window's length as the counter delta, so the executed-iteration
    /// counter stays the single source of truth.
    degraded_counter_base: u64,
    /// Per-checkpoint `(serialized bytes, serialize secs)` calibration
    /// samples.
    snapshot_samples: Vec<(u64, f64)>,
    /// Per-checkpoint `(persisted bytes, blocking write secs)` samples
    /// (sync mode only).
    persist_samples: Vec<(u64, f64)>,
    /// Run-wide span collector (inert when `config.obs` is disabled);
    /// hands sinks to every rank/engine thread and takes flight dumps
    /// when faults are declared.
    collector: TraceCollector,
    /// The coordinator's own span sink (control-plane lane).
    sink: TraceSink,
    /// The coordinator's live-telemetry counter cell (inert unless
    /// [`moc_obs::ObsConfig::telemetry_interval`] is set).
    telemetry: TelemetryCell,
    /// Flow id of the currently open fault arrow: allocated when a kill
    /// is injected, consumed by the recovery span that resolves it.
    fault_flow: Option<u64>,
    /// Streaming per-rank health scorer (`None` unless
    /// `config.obs.health`); fed from the step samples every successful
    /// collection already carries. Pure observer — it never touches the
    /// training math, so scored runs stay bitwise identical to dark
    /// runs.
    health: Option<HealthScorer>,
    /// Ranks the health plane currently scores worse than healthy: the
    /// suspicion detector's corroboration set. Silence from an
    /// already-degraded rank is declared one lease window sooner.
    health_degraded: BTreeSet<usize>,
}

impl Run {
    fn start(config: RuntimeConfig, store: Arc<dyn ObjectStore>) -> Result<Self, RuntimeError> {
        let world = config.world_size();
        let num_nodes = config.topology.nodes();
        // The collector exists before any thread it hands sinks to, and
        // its anchor doubles as the metrics clock so timeline events and
        // trace spans share one run-relative timebase.
        let collector = TraceCollector::new(&config.obs);
        let metrics = match collector.anchor() {
            Some(anchor) => MetricsRegistry::with_anchor(anchor),
            None => MetricsRegistry::new(),
        };
        let sink = collector.sink(num_nodes as u32, 0, "control-plane", "coordinator");
        // Every store op — checkpoint persists, recovery fetches, GC —
        // flows through the retry wrapper; the chaos wrapper (when the
        // plan injects store faults) sits inside it so injected failures
        // are what the retries absorb.
        let inner: Arc<dyn ObjectStore> = if config.chaos.store.is_empty() {
            store
        } else {
            Arc::new(ChaosStore::new(store, config.chaos.store.clone()))
        };
        let retry_store = Arc::new(RetryStore::new(inner, config.retry));
        let store: Arc<dyn ObjectStore> = retry_store.clone();
        let memory = ClusterMemory::new(num_nodes);
        let nodes: Vec<NodeRuntime> = (0..num_nodes)
            .map(|n| {
                NodeRuntime::spawn(
                    NodeId(n),
                    memory.node_arc(NodeId(n)),
                    store.clone(),
                    config.ckpt,
                    collector.sink(
                        n as u32,
                        BACKGROUND_TID_BASE + n as u32,
                        &format!("node{n}"),
                        &format!("ckpt-engine {n}"),
                    ),
                )
            })
            .collect();
        // Live telemetry: the coordinator's own cell plus read-only
        // probes into counters other components already keep (store
        // retries, per-node persisted bytes). Engines survive recoveries
        // (only ranks respawn), so registering once here is enough.
        let telemetry = collector.telemetry_cell();
        collector.telemetry_probe(Counter::StoreRetries, retry_store.retries_probe());
        for node in &nodes {
            collector.telemetry_probe(Counter::PersistedBytes, node.persisted_bytes_probe());
        }
        let (events_tx, events) = unbounded();

        let layers = config.model.num_moe_layers();
        let n_experts = config.model.num_experts();
        let plan = PartialPlan::new(config.k_snapshot, config.k_persist, n_experts, layers);
        let dynamic_k = config
            .dynamic_k_budget
            .map(|budget| DynamicK::new(config.k_snapshot, n_experts, budget));
        let probe = TinyMoeLm::new(config.model.clone(), config.seed);
        let module_names = probe.store().module_names();
        let grad_len = usize::try_from(probe.store().scalar_count()).expect("model fits memory");
        drop(probe);
        let injector = FaultInjector::new(
            &config.faults,
            &config.stragglers,
            &config.chaos,
            config.total_iterations,
            num_nodes,
            world,
        );
        let cum_routed = vec![vec![0u64; n_experts]; layers];

        // Elastic mode plans the failure-domain-aware placement up
        // front; `validate()` already rejected unhostable replication
        // factors, so planning cannot fail here.
        let placement = config.elastic.shrink.then(|| {
            PlacementPlanner::new(
                config.topology,
                n_experts,
                layers,
                config.elastic.replication,
            )
            .plan()
            .expect("validated replication factor")
        });

        let mut run = Self {
            config,
            store,
            retry_store,
            memory,
            nodes,
            cmd_txs: Vec::with_capacity(world),
            handles: Vec::with_capacity(world),
            events,
            events_tx,
            injector,
            metrics,
            plan,
            dynamic_k,
            ckpt_index: 0,
            epoch: 0,
            plt: PltAccumulator::new(layers),
            cum_routed,
            routed_at: HashMap::new(),
            ckpt_history: Vec::new(),
            val_curve: Vec::new(),
            k_trace: Vec::new(),
            module_names,
            grad_len,
            meshes: Vec::new(),
            hier_meshes: Vec::new(),
            group_mesh: None,
            recoveries_without_progress: 0,
            live: vec![true; world],
            placement,
            dead_groups: BTreeSet::new(),
            adoptions: BTreeMap::new(),
            degraded_since: None,
            degraded_counter_base: 0,
            snapshot_samples: Vec::new(),
            persist_samples: Vec::new(),
            collector,
            sink,
            telemetry,
            fault_flow: None,
            health: None,
            health_degraded: BTreeSet::new(),
        };
        if run.config.obs.enabled && run.config.obs.health {
            run.health = Some(HealthScorer::new(HealthConfig::default()));
        }
        for rank in 0..world {
            let (tx, handle) = run.spawn_rank(rank);
            run.cmd_txs.push(tx);
            run.handles.push(Some(handle));
        }
        run.build_links();
        if run.placement.is_some() {
            // Key checkpoint duties by the placement plan from the very
            // first checkpoint, so selection follows the same map before
            // and after migrations.
            run.send_reconfigure();
        }
        Ok(run)
    }

    /// Builds fresh collective wiring — one ring mesh per DP gradient
    /// group plus the hierarchical leader meshes (full-shape
    /// hierarchical runs) and the TP/PP group
    /// mesh (mixed parallelism only) — and hands every rank its
    /// endpoints. The previous meshes (if any) are dropped, which drops
    /// any messages an aborted collective stranded in their channels.
    ///
    /// A shrunk world keeps running the ring: the meshes stay full DP
    /// size and each dead slot's endpoints go to the surviving adopter
    /// of that slice, which drives the slot with the adopted gradient on
    /// a helper thread. The fold order — and the result — stays bitwise
    /// the fixed-shape ring's for any adoption map.
    fn build_links(&mut self) {
        let topo = self.config.topology;
        let num_groups = topo.num_dp_groups();
        self.meshes = (0..num_groups)
            .map(|_| RingMesh::new(topo.dp(), self.grad_len, self.config.ring_chunk))
            .collect();
        // The leader chain only serves the full-shape world: a degraded
        // hierarchical run falls back to the survivor ring, so no leader
        // meshes are built while shrunk.
        self.hier_meshes =
            if self.config.collective == CollectiveKind::Hierarchical && !self.degraded() {
                (0..num_groups)
                    .map(|g| {
                        let node_of: Vec<usize> = (0..topo.dp())
                            .map(|d| topo.node_of_global(d * num_groups + g))
                            .collect();
                        HierMesh::new(&node_of, self.grad_len, self.config.ring_chunk)
                    })
                    .collect()
            } else {
                Vec::new()
            };
        for mesh in &self.meshes {
            self.metrics.collective_allocs += mesh.pool().preallocated() as u64;
        }
        for mesh in &self.hier_meshes {
            self.metrics.collective_allocs += mesh.pool().preallocated() as u64;
        }
        self.group_mesh = (num_groups > 1).then(|| GroupMesh::new(&topo));
        for (rank, tx) in self.cmd_txs.iter().enumerate() {
            if !self.live[rank] {
                continue;
            }
            // A rank's DP group is its position-independent coordinate
            // pair `(tp, pp)`; its slot on that group's ring is its DP
            // index.
            let group = rank % num_groups;
            let slot = rank / num_groups;
            let mesh = &self.meshes[group];
            // Dead slots this rank adopts: it drives each one on the same
            // ring, in place of the dead member.
            let adopted_rings = self
                .adoptions
                .iter()
                .filter(|&(_, &a)| a == slot)
                .map(|(&d, _)| (d, mesh.endpoints(d)))
                .collect();
            let hier = self.hier_meshes.get(group).map(|m| m.endpoints(slot));
            let groups = self.group_mesh.as_ref().map(|g| g.endpoints(rank));
            tx.send(RankCommand::InstallLinks {
                ring: mesh.endpoints(slot),
                adopted_rings,
                hier,
                groups,
            })
            .expect("rank thread alive");
        }
    }

    /// The collective this iteration runs on: the configured one, except
    /// that a degraded (elastically shrunk) world runs the survivor ring
    /// — the full-DP-size ring whose dead slots are driven by their
    /// adopters — whether the configured collective is the flat ring or
    /// the hierarchical reduce (the leader chain is not rebuilt for
    /// shrunk shapes).
    fn collective(&self) -> CollectiveKind {
        if self.degraded() {
            CollectiveKind::Ring
        } else {
            self.config.collective
        }
    }

    /// Whether the run is currently shrunk below its configured shape.
    fn degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Live rank count (the reply quorum of every barrier).
    fn live_world(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// The lowest-indexed live rank (eval target and state-export
    /// donor; rank 0 unless its shard group died).
    fn first_live_rank(&self) -> usize {
        self.live
            .iter()
            .position(|&l| l)
            .expect("at least one live rank")
    }

    fn spawn_rank(&self, rank: usize) -> (Sender<RankCommand>, JoinHandle<()>) {
        let (tx, rx) = unbounded();
        let node = self.node_of(rank);
        let ctx = RankContext {
            rank,
            coord: self.config.topology.coords_of(rank),
            config: self.config.clone(),
            commands: rx,
            events: self.events_tx.clone(),
            sink: self.collector.sink(
                node as u32,
                rank as u32,
                &format!("node{node}"),
                &format!("rank {rank}"),
            ),
            telemetry: self.collector.telemetry_cell(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("moc-rank-{rank}"))
            .spawn(move || run_rank(ctx))
            .expect("spawn rank thread");
        (tx, handle)
    }

    fn world(&self) -> usize {
        self.config.world_size()
    }

    fn node_of(&self, rank: usize) -> usize {
        self.config.topology.node_of_global(rank)
    }

    /// Records per-iteration TP/PP group statistics: TP divergences (the
    /// replica-consistency verdicts) plus the TP-sync and pipeline-bubble
    /// phases, charged as the max across ranks. No-ops in a flat world,
    /// keeping baseline summaries free of empty phases.
    fn record_group_stats(&mut self, stats: impl Iterator<Item = (usize, GroupStats)>) {
        if self.config.topology.num_dp_groups() == 1 {
            return;
        }
        let mut max_tp = 0.0f64;
        let mut max_pp = 0.0f64;
        for (_, s) in stats {
            if !s.tp_consistent {
                self.metrics.tp_divergences += 1;
            }
            max_tp = max_tp.max(s.tp_sync_secs);
            max_pp = max_pp.max(s.pp_wait_secs);
        }
        self.metrics.record(Phase::TpSync, max_tp);
        self.metrics.record(Phase::PpBubble, max_pp);
    }

    fn send_all(&self, command: &RankCommand) {
        for (rank, tx) in self.cmd_txs.iter().enumerate() {
            if self.live[rank] {
                tx.send(command.clone()).expect("rank thread alive");
            }
        }
    }

    /// The grid coordinate owning a module's checkpoint duties under the
    /// *current* elastic placement: expert modules follow the placement
    /// plan's (possibly migrated) owner, non-expert modules keep their
    /// static spread with dead groups remapped through the slice
    /// adoptions. Falls back to the static [`owner_coord`] outside
    /// elastic mode.
    fn module_owner_coord(&self, module: &str) -> RankCoord {
        let mut c = owner_coord(&self.config.topology, &self.config.model, module);
        let Some(placement) = &self.placement else {
            return c;
        };
        if let Some(id) = expert_of(&self.config.model, module) {
            c.dp = placement.owner_of(id);
        }
        if let Some(&adopter) = self.adoptions.get(&c.dp) {
            c.dp = adopter;
        }
        c
    }

    /// Pushes the current placement-keyed checkpoint duties and slice
    /// adoptions to every live rank (elastic mode only; sent at run
    /// start and after every shrink or expand).
    fn send_reconfigure(&self) {
        let topo = &self.config.topology;
        let mut owned: Vec<Vec<String>> = vec![Vec::new(); self.world()];
        for module in &self.module_names {
            let rank = topo.global_rank_of(self.module_owner_coord(module));
            owned[rank].push(module.clone());
        }
        for (rank, tx) in self.cmd_txs.iter().enumerate() {
            if !self.live[rank] {
                continue;
            }
            let dp = topo.coords_of(rank).dp;
            let adopted_slices: Vec<usize> = self
                .adoptions
                .iter()
                .filter(|&(_, &a)| a == dp)
                .map(|(&d, _)| d)
                .collect();
            tx.send(RankCommand::Reconfigure {
                owned: Arc::new(std::mem::take(&mut owned[rank])),
                adopted_slices: Arc::new(adopted_slices),
            })
            .expect("rank thread alive");
        }
    }

    fn drive(mut self) -> Result<RunSummary, RuntimeError> {
        self.bootstrap();

        let loop_start = Instant::now();
        let mut it = 1u64;
        while it <= self.config.total_iterations {
            let iter_start = Instant::now();
            // 0. Elastic expand: once the rejoin horizon passes,
            //    replacement ranks come back *before* this iteration's
            //    faults are injected — a kill scheduled here strikes the
            //    freshly expanded world (the "kill during migration"
            //    scenario).
            if let (Some(since), Some(after)) =
                (self.degraded_since, self.config.elastic.rejoin_after)
            {
                if it >= since + after {
                    self.expand(it);
                }
            }
            self.metrics.iterations_executed += 1;

            // 1. Inject scheduled kills: the node's CPU memory dies now;
            //    its ranks are told to die mid-iteration.
            let kills = self.injector.kills_at(it);
            if !kills.is_empty() {
                let inject_start = self.sink.now();
                // Quiesce agents first so the surviving tier contents are
                // deterministic when recovery plans against them.
                for node in &self.nodes {
                    node.wait_idle();
                }
                for &node in &kills {
                    self.memory.fault(NodeId(node));
                }
                self.metrics.faults_injected += kills.len() as u64;
                self.metrics.event(
                    it,
                    EventKind::FaultInjected {
                        nodes: kills.clone(),
                    },
                );
                // Open the fault flow arrow: stepped at detection, closed
                // by the recovery span that resolves it.
                let flow = self.collector.next_flow_id();
                self.fault_flow = Some(flow);
                self.sink.record(
                    SpanKind::Fault,
                    "fault-injected",
                    it,
                    inject_start,
                    self.sink.now() - inject_start,
                    Flow::Start(flow),
                );
            }

            // 2. Step all ranks through this iteration's collective,
            //    injecting scheduled straggler slowdowns and gray chaos
            //    (heartbeat report delays, mesh delays/drops).
            let collective = self.collective();
            let slows = self.injector.slows_at(it);
            if !slows.is_empty() {
                self.metrics.stragglers_injected += slows.len() as u64;
                for &(rank, factor) in &slows {
                    self.metrics
                        .event(it, EventKind::StragglerInjected { rank, factor });
                }
            }
            let report_delays = self.injector.report_delays_at(it);
            let mesh_chaos = self.injector.mesh_chaos_at(it);
            let window = self.collect_window();
            let lease = self.config.detector.lease_for(window);
            for (rank, tx) in self.cmd_txs.iter().enumerate() {
                if !self.live[rank] {
                    continue;
                }
                let die = kills.contains(&self.node_of(rank));
                let slow_factor = slows.iter().find(|&&(r, _)| r == rank).map(|&(_, f)| f);
                // A scheduled loss of `m` heartbeat windows delays the
                // rank's reply to land halfway through the m-th lease:
                // the detector suspects it m times, then (for m below
                // `k_misses`) re-admits it without recovery.
                let report_delay = report_delays
                    .iter()
                    .find(|&&(r, _)| r == rank)
                    .map(|&(_, m)| window + lease * (m - 1) + lease / 2);
                let mesh = mesh_chaos
                    .iter()
                    .find(|&&(r, _)| r == rank)
                    .map(|&(_, m)| m);
                let chaos = StepChaos {
                    report_delay,
                    mesh_delay: mesh
                        .and_then(|m| (!m.drop).then(|| window.mul_f64(m.window_fraction))),
                    mesh_drop: mesh.is_some_and(|m| m.drop),
                };
                tx.send(RankCommand::Step {
                    iteration: it,
                    epoch: self.epoch,
                    die,
                    collective,
                    slow_factor,
                    chaos,
                })
                .expect("rank thread alive");
            }

            // 3.–5. Gradient exchange: the ranks all-reduce and apply
            //    among themselves while the coordinator collects their
            //    reports. Missing or aborted ranks mean dead nodes:
            //    detect, recover, and resume from the rolled-back
            //    iteration.
            if let Some(resume) = self.exchange(it)? {
                self.telemetry.incr(Counter::Iterations);
                self.telemetry
                    .add_secs(Counter::IterationNanos, iter_start.elapsed().as_secs_f64());
                it = resume + 1;
                continue;
            }
            self.recoveries_without_progress = 0;
            if self.degraded() {
                // A shrunk world always runs the survivor ring.
                self.metrics.degraded_iterations += 1;
                self.metrics.survivor_ring_iterations += 1;
            }
            if collective == CollectiveKind::Hierarchical {
                self.metrics.hierarchical_iterations += 1;
            }

            // 6. Two-level checkpoint.
            if it.is_multiple_of(self.config.i_ckpt) {
                self.checkpoint(it);
            }

            // 7. Validation.
            let eval_due = (self.config.eval_every > 0
                && it.is_multiple_of(self.config.eval_every))
                || it == self.config.total_iterations;
            if eval_due {
                let loss = self.eval();
                self.val_curve.push((it, loss));
                self.metrics.event(it, EventKind::Eval { loss });
            }

            self.telemetry.incr(Counter::Iterations);
            self.telemetry
                .add_secs(Counter::IterationNanos, iter_start.elapsed().as_secs_f64());
            it += 1;
        }
        self.metrics.loop_secs = loop_start.elapsed().as_secs_f64();

        self.finish()
    }

    /// Full synchronous checkpoint of everything at iteration 0 — the
    /// recoverability floor every PEC run needs.
    fn bootstrap(&mut self) {
        self.full_checkpoint(0);
        self.routed_at.insert(0, self.cum_routed.clone());
    }

    /// Untimed full-selection synchronous checkpoint at `version`
    /// (bootstrap and the rejoin barrier share it; excluded from the
    /// checkpoint phase stats and counters).
    fn full_checkpoint(&mut self, version: u64) {
        // Quiesce first: an in-flight async checkpoint of the same
        // version may write the same keys through a *different* writer
        // (ownership moved at a shrink/expand), and the per-node queues
        // only order writes within one writer — draining serializes the
        // cross-writer overwrite so the last record always matches the
        // stored bytes.
        for node in self.nodes.iter().filter(|n| n.alive()) {
            node.wait_idle();
        }
        let full = self.plan.full_selection();
        let snapshot = Arc::new(full.snapshot);
        let persist = Arc::new(full.persist);
        self.send_all(&RankCommand::Checkpoint {
            iteration: version,
            snapshot,
            persist,
        });
        let (shards, _) = self.collect_shards(false);
        self.submit_and_drain(version, shards);
    }

    /// The rejoin barrier: a full re-commit of the current state by
    /// every live writer at `version`. Taken whenever previously-dead
    /// writers come back (elastic expand, total-loss restart): their
    /// frozen chains share no recent version with the survivors' — the
    /// survivors may even have GC'd the shared prefix — so without this
    /// barrier the next recovery's live-writer commit rule could find
    /// an *empty* intersection and fail on a store full of committed
    /// state. Survivors' writers dedup the unchanged payloads, so the
    /// barrier costs one manifest round in steady state.
    fn barrier_checkpoint(&mut self, version: u64) {
        self.full_checkpoint(version);
        self.record_routed_at(version);
    }

    /// The gradient exchange of iteration `it`: the ranks all-reduce and
    /// apply among themselves; the coordinator only collects statistics
    /// and watches for aborts. Returns `Some(resume)` when a fault was
    /// detected and recovered.
    fn exchange(&mut self, it: u64) -> Result<Option<u64>, RuntimeError> {
        let collect_start = Instant::now();
        let replies = self.collect(it);
        let missing: Vec<usize> = (0..self.world())
            .filter(|&r| self.live[r] && !replies.contains_key(&r))
            .collect();
        let aborted: Vec<usize> = replies
            .iter()
            .filter(|(_, r)| matches!(r, StepReply::Aborted))
            .map(|(&rank, _)| rank)
            .collect();
        if !missing.is_empty() || !aborted.is_empty() {
            let resume = self.handle_exchange_fault(it, &missing, &aborted, collect_start)?;
            return Ok(Some(resume));
        }
        let health_samples: Vec<(usize, f64, f64)> = replies
            .iter()
            .filter_map(|(&rank, r)| match r {
                StepReply::Done(d) => Some((rank, d.compute_secs + d.stall_secs, d.stall_secs)),
                StepReply::Aborted => None,
            })
            .collect();
        self.observe_health(it, &health_samples);

        // Compute / wait / apply are reported as the max across ranks
        // (the iteration's critical path); the ring legs as the median
        // across ranks (the representative per-rank cost of the
        // decentralized collective, robust to scheduler outliers on
        // oversubscribed hosts).
        let mut max_compute = 0.0f64;
        let mut max_wait = 0.0f64;
        let mut max_apply = 0.0f64;
        let mut max_collective_wall = 0.0f64;
        let mut sum_busy = 0.0f64;
        let mut rs_vals: Vec<f64> = Vec::new();
        let mut ag_vals: Vec<f64> = Vec::new();
        for reply in replies.values() {
            let StepReply::Done(d) = reply else { continue };
            max_compute = max_compute.max(d.compute_secs);
            max_wait = max_wait.max(d.ring_wait_secs);
            max_apply = max_apply.max(d.apply_secs);
            let busy = d.reduce_scatter_secs + d.all_gather_secs;
            sum_busy += busy;
            max_collective_wall = max_collective_wall.max(busy + d.ring_wait_secs);
            rs_vals.push(d.reduce_scatter_secs);
            ag_vals.push(d.all_gather_secs);
            if d.stall_secs > 0.0 {
                self.metrics.record(Phase::StragglerStall, d.stall_secs);
            }
        }
        rs_vals.sort_by(f64::total_cmp);
        ag_vals.sort_by(f64::total_cmp);
        let median_rs = rs_vals[rs_vals.len() / 2];
        let median_ag = ag_vals[ag_vals.len() / 2];
        self.metrics.record(Phase::Compute, max_compute);
        self.metrics.record(Phase::ReduceScatter, median_rs);
        self.metrics.record(Phase::AllGather, median_ag);
        self.metrics.record(Phase::RingWait, max_wait);
        self.metrics.record(Phase::Apply, max_apply);
        // Cross-rank pipelining: total active collective work minus the
        // slowest rank's collective wall — the seconds of ring work that
        // ran concurrently with other ranks' work instead of extending
        // the critical path.
        let overlap = (sum_busy - max_collective_wall).max(0.0);
        self.metrics.record(Phase::CommOverlap, overlap);
        self.record_group_stats(replies.iter().filter_map(|(&rank, r)| match r {
            StepReply::Done(d) => Some((rank, d.group)),
            StepReply::Aborted => None,
        }));
        // Routing statistics come from each shard group's representative
        // only (TP/PP members duplicate the same DP slice) — its own
        // loads plus the adopted dead slices it computed (survivor ring).
        let num_groups = self.config.topology.num_dp_groups();
        let mut routing: Vec<&Vec<Vec<u64>>> = Vec::new();
        for (&rank, r) in &replies {
            let StepReply::Done(d) = r else { continue };
            if rank % num_groups != 0 {
                continue;
            }
            routing.push(&d.expert_loads);
            routing.extend(d.adopted_loads.iter());
        }
        self.record_routing(routing.into_iter());
        Ok(None)
    }

    /// The exchange's fault path: surface detection events, enforce the
    /// forward-progress bound, and recover. Returns the resume iteration.
    fn handle_exchange_fault(
        &mut self,
        it: u64,
        missing: &[usize],
        aborted: &[usize],
        collect_start: Instant,
    ) -> Result<u64, RuntimeError> {
        let dead_nodes: BTreeSet<usize> = missing.iter().map(|&r| self.node_of(r)).collect();
        if !dead_nodes.is_empty() {
            let detect_secs = collect_start.elapsed().as_secs_f64();
            self.metrics.event(
                it,
                EventKind::FaultDetected {
                    nodes: dead_nodes.iter().copied().collect(),
                    detect_secs,
                },
            );
            // The detection span covers the failed collect that revealed
            // the dead nodes, stepping the open fault flow.
            let flow = self.fault_flow.map(Flow::Step).unwrap_or(Flow::None);
            let end = self.sink.now();
            self.sink.record(
                SpanKind::Fault,
                "fault-detected",
                it,
                (end - detect_secs).max(0.0),
                detect_secs,
                flow,
            );
        }
        if !aborted.is_empty() {
            self.metrics.ring_aborts += 1;
            self.metrics.event(
                it,
                EventKind::CollectiveAbort {
                    aborted_ranks: aborted.to_vec(),
                },
            );
        }
        self.recoveries_without_progress += 1;
        assert!(
            self.recoveries_without_progress <= MAX_RECOVERIES_WITHOUT_PROGRESS,
            "{} consecutive recoveries without completing an iteration: \
             ranks are timing out repeatedly — if no faults were injected, \
             heartbeat_timeout ({:?}) is shorter than the iteration compute \
             time and healthy nodes are being declared dead",
            self.recoveries_without_progress,
            self.config.heartbeat_timeout,
        );
        self.recover(it, &dead_nodes)
    }

    /// Accumulates per-layer routing counters and PLT processed totals
    /// from every rank's expert loads.
    fn record_routing<'a>(&mut self, all_loads: impl Iterator<Item = &'a Vec<Vec<u64>>>) {
        for loads in all_loads {
            for (layer, layer_loads) in loads.iter().enumerate() {
                self.plt.record_processed(layer, layer_loads.iter().sum());
                for (slot, &l) in self.cum_routed[layer].iter_mut().zip(layer_loads) {
                    *slot += l;
                }
            }
        }
    }

    /// Feeds per-rank step samples (`(rank, step seconds, stall
    /// seconds)`) of a successful collection into the health scorer and
    /// surfaces its transitions: a run event plus a control-plane span
    /// when a rank leaves the healthy state, and maintenance of the
    /// corroboration set either way. No-op when health scoring is off.
    fn observe_health(&mut self, it: u64, samples: &[(usize, f64, f64)]) {
        let Some(scorer) = self.health.as_mut() else {
            return;
        };
        let mut transitions = Vec::new();
        for &(rank, step_secs, stall_secs) in samples {
            if let Some(t) = scorer.observe(rank, it, step_secs, stall_secs, 0) {
                transitions.push(t);
            }
        }
        for t in transitions {
            if t.to == HealthState::Healthy {
                self.health_degraded.remove(&t.rank);
            } else {
                self.health_degraded.insert(t.rank);
            }
            if t.from == HealthState::Healthy {
                self.metrics.event(
                    it,
                    EventKind::HealthDegraded {
                        rank: t.rank,
                        z: t.z,
                    },
                );
                let now = self.sink.now();
                self.sink.record(
                    SpanKind::Control,
                    "health-degraded",
                    it,
                    now,
                    0.0,
                    Flow::None,
                );
            }
        }
    }

    /// One heartbeat collection window: twice the heartbeat, because
    /// survivors of a mid-collective death only report after their *own*
    /// peer timeout fires, so the coordinator must outwait
    /// detection-by-proxy, not just compute.
    fn collect_window(&self) -> Duration {
        self.config.heartbeat_timeout * 2
    }

    /// Records the transition of `silent` ranks into the suspected set:
    /// the ranks newly suspected this miss get a timeline event, a fault
    /// span, and a flight-recorder dump — captured *now*, while the
    /// evidence of why they went silent is still in the ring buffers,
    /// not only if they are later declared dead.
    fn note_suspects(
        &mut self,
        iteration: u64,
        silent: &[usize],
        suspected: &mut BTreeSet<usize>,
        misses: u32,
    ) {
        let fresh: Vec<usize> = silent
            .iter()
            .copied()
            .filter(|&r| suspected.insert(r))
            .collect();
        if fresh.is_empty() {
            return;
        }
        self.metrics.suspicions += fresh.len() as u64;
        self.telemetry.add(Counter::Suspicions, fresh.len() as u64);
        self.metrics.event(
            iteration,
            EventKind::FaultSuspected {
                ranks: fresh.clone(),
                misses,
            },
        );
        self.sink.span(
            SpanKind::Fault,
            "fault-suspected",
            iteration,
            self.sink.now(),
        );
        self.collector.flight_dump(&format!(
            "ranks {fresh:?} suspected at iteration {iteration} after {misses} missed window(s)"
        ));
    }

    /// A suspected rank replied within its lease: re-admit it with no
    /// recovery and record the cleared suspicion.
    fn note_cleared(&mut self, iteration: u64, rank: usize, suspected: &mut BTreeSet<usize>) {
        if suspected.remove(&rank) {
            self.metrics.suspicions_cleared += 1;
            self.telemetry.incr(Counter::SuspicionsCleared);
            self.metrics
                .event(iteration, EventKind::SuspicionCleared { rank });
            self.sink
                .span(SpanKind::Fault, "fault-cleared", iteration, self.sink.now());
        }
    }

    /// Collects every rank's report for `iteration` under the suspicion
    /// detector: a timed-out [`Self::collect_window`] marks the
    /// still-silent ranks suspected and grants them a lease; only
    /// `k_misses` consecutive misses end collection (declaring the
    /// holdouts). A suspected rank that replies mid-lease is re-admitted
    /// — no recovery. With `k_misses == 1` this is exactly the legacy
    /// single-miss detector.
    fn collect(&mut self, iteration: u64) -> BTreeMap<usize, StepReply> {
        let mut replies = BTreeMap::new();
        let window = self.collect_window();
        let lease = self.config.detector.lease_for(window);
        let k = self.config.detector.k_misses;
        let mut misses = 0u32;
        let mut suspected = BTreeSet::new();
        while replies.len() < self.live_world() {
            let wait = if misses == 0 { window } else { lease };
            match self.events.recv_timeout(wait) {
                Ok(RankEvent::StepDone {
                    rank,
                    iteration: it,
                    epoch,
                    expert_loads,
                    adopted_loads,
                    compute_secs,
                    stall_secs,
                    reduce_scatter_secs,
                    all_gather_secs,
                    ring_wait_secs,
                    apply_secs,
                    tp_consistent,
                    tp_sync_secs,
                    pp_wait_secs,
                }) if it == iteration && epoch == self.epoch => {
                    replies.insert(
                        rank,
                        StepReply::Done(StepStats {
                            expert_loads,
                            adopted_loads,
                            compute_secs,
                            stall_secs,
                            reduce_scatter_secs,
                            all_gather_secs,
                            ring_wait_secs,
                            apply_secs,
                            group: GroupStats {
                                tp_consistent,
                                tp_sync_secs,
                                pp_wait_secs,
                            },
                        }),
                    );
                    self.note_cleared(iteration, rank, &mut suspected);
                    misses = 0;
                }
                Ok(RankEvent::StepAborted {
                    rank,
                    iteration: it,
                    epoch,
                }) if it == iteration && epoch == self.epoch => {
                    replies.insert(rank, StepReply::Aborted);
                    self.note_cleared(iteration, rank, &mut suspected);
                    misses = 0;
                }
                Ok(_) => {} // stale event from before a recovery
                Err(RecvTimeoutError::Timeout) => {
                    misses += 1;
                    let silent: Vec<usize> = (0..self.live.len())
                        .filter(|&r| self.live[r] && !replies.contains_key(&r))
                        .collect();
                    if misses >= self.effective_k(k, &silent) {
                        break;
                    }
                    self.note_suspects(iteration, &silent, &mut suspected, misses);
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        replies
    }

    /// The miss threshold in force for this collection's silent set:
    /// when every silent rank was already scored degraded by the health
    /// plane, their silence corroborates an existing signal and the
    /// detector declares one lease window sooner
    /// ([`crate::DetectorConfig::corroborated_k`]). A mixed silent set keeps
    /// the full threshold — a healthy rank must get its whole lease.
    fn effective_k(&self, k: u32, silent: &[usize]) -> u32 {
        if !silent.is_empty() && silent.iter().all(|r| self.health_degraded.contains(r)) {
            self.config.detector.corroborated_k()
        } else {
            k
        }
    }

    /// Upper bound on how long the coordinator waits for a reply that is
    /// not allowed to go missing (shard serialization, restores,
    /// evaluation, state export, shutdown). A rank-thread panic leaves
    /// the events channel open — the coordinator holds a sender for
    /// respawns — so without this cap such a bug would hang the run
    /// instead of failing it loudly.
    fn reply_deadline(&self) -> std::time::Duration {
        (self.config.heartbeat_timeout * 10).max(std::time::Duration::from_secs(60))
    }

    /// Receives the next event, panicking (not hanging) if no rank
    /// replies within the deadline.
    fn recv_reply(&self, context: &str) -> RankEvent {
        match self.events.recv_timeout(self.reply_deadline()) {
            Ok(event) => event,
            Err(e) => panic!("rank lost during {context} ({e:?})"),
        }
    }

    /// Gathers one `Shards` reply per live rank, returning `(rank, jobs)`
    /// plus the slowest serialization time.
    fn collect_shards(&mut self, record_metrics: bool) -> (Vec<(usize, Vec<ShardJob>)>, f64) {
        let mut out: BTreeMap<usize, Vec<ShardJob>> = BTreeMap::new();
        let mut max_serialize = 0.0f64;
        while out.len() < self.live_world() {
            // Non-matching events are stale and discarded.
            if let RankEvent::Shards {
                rank,
                jobs,
                serialize_secs,
            } = self.recv_reply("checkpoint collection")
            {
                max_serialize = max_serialize.max(serialize_secs);
                out.insert(rank, jobs);
            }
        }
        if record_metrics {
            self.metrics.record(Phase::CkptSerialize, max_serialize);
        }
        (out.into_iter().collect(), max_serialize)
    }

    /// Groups per-rank shard jobs by hosting node. Every *live* node
    /// gets an entry (possibly empty), so every live node's manifest
    /// chain advances at every checkpoint — the commit rule over the
    /// live writer set requires it. Dead nodes get nothing: their chains
    /// freeze at their last pre-fault commit.
    fn group_by_node(&self, shards: Vec<(usize, Vec<ShardJob>)>) -> BTreeMap<usize, Vec<ShardJob>> {
        let mut per_node: BTreeMap<usize, Vec<ShardJob>> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].alive())
            .map(|n| (n, Vec::new()))
            .collect();
        for (rank, jobs) in shards {
            let node = self.node_of(rank);
            debug_assert!(self.nodes[node].alive(), "shards only from live ranks");
            per_node.entry(node).or_default().extend(jobs);
        }
        per_node
    }

    /// Synchronous write: submit to every node's engine and block until
    /// the pipelines drained — the paper's baseline behaviour of paying
    /// the full persist inside the iteration. Returns the blocking wall
    /// time (the persist-tier calibration sample).
    fn write_sync(&mut self, version: u64, shards: Vec<(usize, Vec<ShardJob>)>) -> f64 {
        let start = Instant::now();
        self.submit_and_drain(version, shards);
        let secs = start.elapsed().as_secs_f64();
        self.metrics.record(Phase::CkptWrite, secs);
        secs
    }

    /// Untimed submit + drain (bootstrap and sync mode share it).
    fn submit_and_drain(&mut self, version: u64, shards: Vec<(usize, Vec<ShardJob>)>) {
        for (node, jobs) in self.group_by_node(shards) {
            self.nodes[node].submit(version, jobs);
        }
        for node in self.nodes.iter().filter(|n| n.alive()) {
            node.wait_idle();
        }
    }

    /// Asynchronous submission through the per-node engines: copies into
    /// pooled buffers and enqueues; no store I/O on this thread.
    fn submit_async(&mut self, version: u64, shards: Vec<(usize, Vec<ShardJob>)>) -> Vec<usize> {
        let per_node = self.group_by_node(shards);
        let mut stalled_nodes = Vec::new();
        let start = Instant::now();
        for (node, jobs) in per_node {
            // Each per-node submission starts a checkpoint flow arrow;
            // the node engine's background `persist` span ends it.
            let submit_trace = self.sink.now();
            let stalled = self.nodes[node].submit(version, jobs);
            self.sink.record(
                SpanKind::Ckpt,
                "ckpt-submit",
                version,
                submit_trace,
                self.sink.now() - submit_trace,
                Flow::Start(ckpt_flow_id(version, node)),
            );
            if stalled {
                self.metrics.stall_count += 1;
                self.telemetry.incr(Counter::CkptStalls);
                stalled_nodes.push(node);
            }
        }
        self.metrics
            .record(Phase::CkptSubmit, start.elapsed().as_secs_f64());
        stalled_nodes
    }

    fn checkpoint(&mut self, iteration: u64) {
        let t = self.ckpt_index;
        self.ckpt_index += 1;
        // The engine's PartialPlan rotates persist-PEC independently with
        // stride `k_persist`, so its coverage never stalls when
        // `K_snapshot` is large, and pulls persist-due experts into the
        // snapshot window so persist ⊆ serialized holds on the live path
        // (§5.1's key-value retrieval, deterministically).
        let selection = self.plan.at(t);
        let snapshot = Arc::new(selection.snapshot);
        let persist = Arc::new(selection.persist);
        let overhead_start = Instant::now();
        let collect_trace = self.sink.now();
        self.send_all(&RankCommand::Checkpoint {
            iteration,
            snapshot,
            persist,
        });
        let (shards, serialize_secs) = self.collect_shards(true);
        self.sink
            .span(SpanKind::Ckpt, "ckpt-collect", iteration, collect_trace);
        // Calibration samples: serialized bytes against the serialize
        // wall (snapshot tier), and — in sync mode — persisted bytes
        // against the blocking write wall (persist tier).
        let serialized_bytes: u64 = shards
            .iter()
            .flat_map(|(_, jobs)| jobs.iter())
            .map(|j| j.payload.len() as u64)
            .sum();
        let persist_bytes: u64 = shards
            .iter()
            .flat_map(|(_, jobs)| jobs.iter())
            .filter(|j| j.persist)
            .map(|j| j.payload.len() as u64)
            .sum();
        self.snapshot_samples
            .push((serialized_bytes, serialize_secs));
        let stalled_nodes = match self.config.checkpoint_mode {
            CheckpointMode::Sync => {
                let write_trace = self.sink.now();
                let write_secs = self.write_sync(iteration, shards);
                self.sink.record(
                    SpanKind::Ckpt,
                    "ckpt-write",
                    iteration,
                    write_trace,
                    write_secs,
                    Flow::None,
                );
                self.persist_samples.push((persist_bytes, write_secs));
                Vec::new()
            }
            CheckpointMode::Async => self.submit_async(iteration, shards),
        };
        self.record_routed_at(iteration);
        self.metrics.checkpoints_taken += 1;
        let overhead_secs = overhead_start.elapsed().as_secs_f64();
        self.telemetry.add(Counter::CkptBytes, serialized_bytes);
        self.telemetry.add_secs(Counter::CkptNanos, overhead_secs);
        self.metrics.event(
            iteration,
            EventKind::Checkpoint {
                stalled_nodes,
                overhead_secs,
            },
        );
    }

    /// Records the cumulative routing counters at a checkpoint version,
    /// pruning versions old enough that no recovery can restore them any
    /// more: with `k_persist >= 1` every expert persists at least once per
    /// `num_experts` checkpoints, so versions older than the last
    /// `2 * num_experts` checkpoints (plus the bootstrap at 0, kept
    /// forever) can never be chosen by a recovery plan.
    fn record_routed_at(&mut self, iteration: u64) {
        if self
            .routed_at
            .insert(iteration, self.cum_routed.clone())
            .is_none()
        {
            self.ckpt_history.push(iteration);
        }
        let cap = 2 * self.plan.num_experts + 1;
        while self.ckpt_history.len() > cap {
            let old = self.ckpt_history.remove(0);
            self.routed_at.remove(&old);
        }
    }

    fn eval(&mut self) -> f32 {
        // Replicas are bitwise identical, so any live rank evaluates the
        // same loss; rank 0 unless its shard group died in a shrink.
        self.cmd_txs[self.first_live_rank()]
            .send(RankCommand::Eval)
            .expect("eval rank alive");
        loop {
            // Non-matching events are stale and discarded.
            if let RankEvent::EvalLoss { loss } = self.recv_reply("evaluation") {
                return loss;
            }
        }
    }

    /// Executes a live two-level recovery after `dead_nodes` were detected
    /// at `detected_at`, returning the iteration training resumes from.
    fn recover(
        &mut self,
        detected_at: u64,
        dead_nodes: &BTreeSet<usize>,
    ) -> Result<u64, RuntimeError> {
        let recovery_start = Instant::now();
        let recovery_trace = self.sink.now();
        // No dead nodes means a collective aborted without anyone dying
        // (mesh drop, super-window delay): membership is untouched and
        // the recovery degenerates to a rollback of the live world.
        let rollback_only = dead_nodes.is_empty();
        // The moment the coordinator declares the fault, snapshot every
        // thread's flight-recorder ring — the dead ranks' final spans are
        // still in their rings even though the threads are gone.
        self.collector.flight_dump(&if rollback_only {
            format!("collective aborted at iteration {detected_at}: rolling back, no deaths")
        } else {
            format!("fault detected at iteration {detected_at}: dead nodes {dead_nodes:?}")
        });
        // Invalidate replies from threads spawned before this recovery.
        self.epoch += 1;
        // Quiesce surviving agents so the plan sees settled tiers.
        for node in &self.nodes {
            node.wait_idle();
        }
        for &node in dead_nodes {
            self.memory.fault(NodeId(node));
            self.nodes[node].set_alive(false);
        }
        let healthy: Vec<bool> = self.nodes.iter().map(NodeRuntime::alive).collect();

        let slots: Vec<(String, StatePart)> = self
            .module_names
            .iter()
            .flat_map(|m| {
                [
                    (m.clone(), StatePart::Weights),
                    (m.clone(), StatePart::Optimizer),
                ]
            })
            .collect();
        // Recovery plans against the *committed* chain view, not the raw
        // store: delta shards reconstruct transparently and a torn
        // persist (shards without their manifest) is invisible, so the
        // plan can only choose state that restores bit-for-bit. The
        // commit rule spans the writers that were alive up to this fault
        // — nodes already lost to an earlier shrink stopped committing
        // at their death, so requiring them would freeze the commit
        // frontier at the pre-shrink checkpoint (their frozen chains
        // still *serve* their old shards).
        let required: Vec<usize> = (0..self.nodes.len())
            .filter(|n| healthy[*n] || dead_nodes.contains(n))
            .collect();
        let chain = ChainStore::load_for_writers(self.store.clone(), &required)
            .map_err(RecoveryError::from)?;
        let outcome = execute_recovery(
            &slots,
            &self.memory,
            &chain,
            &healthy,
            detected_at,
            self.config.two_level,
        )?;
        self.metrics.record(Phase::RecoveryPlan, outcome.plan_secs);
        self.metrics
            .record(Phase::RecoveryFetch, outcome.fetch_secs);
        let exec_trace = self.sink.now() - outcome.plan_secs - outcome.fetch_secs;
        self.sink.record(
            SpanKind::Fault,
            "recovery-plan",
            detected_at,
            exec_trace,
            outcome.plan_secs,
            Flow::None,
        );
        self.sink.record(
            SpanKind::Fault,
            "recovery-fetch",
            detected_at,
            exec_trace + outcome.plan_secs,
            outcome.fetch_secs,
            Flow::None,
        );
        self.metrics.recoveries += 1;
        self.metrics.recovered_bytes += outcome.bytes;
        self.metrics.memory_hits += outcome.memory_hits as u64;
        self.metrics.storage_hits += outcome.storage_hits as u64;

        let resume = outcome.plan.resume_iteration;
        let fault_plt = self.account_plt(&outcome, resume);
        self.k_trace.push(self.plan.k_snapshot);
        if let Some(ctl) = self.dynamic_k.as_mut() {
            // The controller escalates *both* levels: once K saturates at
            // N, every checkpoint persists everything and PLT growth
            // stops entirely — the property that lets the budget bound
            // hold under fault accumulation (Section 5.3).
            let new_k = ctl.on_fault_recovery(fault_plt);
            let k_persist = self.plan.k_persist.max(new_k.min(self.plan.num_experts));
            self.plan = self.plan.with_k(new_k, k_persist);
        }

        // A dead rank drags its whole shard group — the `tp · pp` ranks
        // sharing its DP index, which jointly own the group's checkpoint
        // shards — through the rollback.
        let shard_groups: BTreeSet<usize> = dead_nodes
            .iter()
            .flat_map(|&node| self.config.topology.global_ranks_on_node(node))
            .map(|rank| self.config.topology.coords_of(rank).dp)
            .collect();
        self.metrics.shard_groups_recovered += shard_groups.len() as u64;
        // How many restored expert shards the dead shard groups own under
        // the group keying in effect at the fault — the part of the
        // restore that recovered *their* state rather than rolling
        // survivors back.
        let group_owned_shards = outcome
            .plan
            .actions
            .iter()
            .filter(|a| shard_groups.contains(&self.module_owner_coord(&a.module).dp))
            .count();

        // Elastic shrink is possible whenever at least one shard group
        // survives the fault; with nobody left to shrink onto, even an
        // elastic run must fall back to respawning.
        let all_dead: BTreeSet<usize> = self
            .dead_groups
            .iter()
            .copied()
            .chain(shard_groups.iter().copied())
            .collect();
        let shrink = !rollback_only
            && self.config.elastic.shrink
            && all_dead.len() < self.config.topology.num_shard_groups();

        let mut rejoin_barrier = false;
        if rollback_only {
            // Membership is unchanged: nobody to retire, nobody to
            // respawn. (Entering the shrink path here would spuriously
            // start a degraded window for an empty dead set.)
        } else if shrink {
            self.shrink_rebalance(resume, &shard_groups, &all_dead);
        } else {
            // Restart the dead nodes' ranks with fresh threads (the
            // fixed-shape respawn recovery). When an elastic run lost
            // its last survivors there is nobody to shrink onto, so the
            // whole world restarts: ranks retired by earlier shrinks
            // respawn too, and the placement returns home.
            let mut to_respawn: BTreeSet<usize> = dead_nodes
                .iter()
                .flat_map(|&node| self.config.topology.global_ranks_on_node(node))
                .collect();
            to_respawn.extend((0..self.world()).filter(|&r| !self.live[r]));
            // Reviving writers retired by an earlier shrink: their
            // frozen chains need the rejoin barrier below.
            rejoin_barrier = !self.dead_groups.is_empty();
            for rank in to_respawn {
                let (tx, handle) = self.spawn_rank(rank);
                let old_tx = std::mem::replace(&mut self.cmd_txs[rank], tx);
                drop(old_tx);
                if let Some(old) = self.handles[rank].take() {
                    let _ = old.join();
                }
                self.handles[rank] = Some(handle);
                self.live[rank] = true;
            }
            for node in &mut self.nodes {
                node.set_alive(true);
            }
            if let Some(placement) = &self.placement {
                let returning = std::mem::take(&mut self.dead_groups);
                self.placement = Some(placement.restored(&returning).0);
                self.adoptions.clear();
                self.degraded_since = None;
                self.send_reconfigure();
            }
        }

        // Rebuild the collective wiring: fresh channels drop anything the
        // aborted collectives stranded, and respawned ranks need
        // endpoints. Training resumes straight onto the new mesh — a
        // shrunk run on the survivor ring (dead slots driven by their
        // adopters).
        self.build_links();

        // Broadcast restored state; every live rank (survivor or
        // respawned) rolls back to the recovered versions.
        let restore_start = Instant::now();
        let restore_trace = self.sink.now();
        self.send_all(&RankCommand::Restore {
            blobs: Arc::new(outcome.blobs),
            iteration: detected_at,
        });
        let mut restored = HashSet::new();
        while restored.len() < self.live_world() {
            // Stale pre-recovery events are drained and discarded here.
            if let RankEvent::Restored { rank } = self.recv_reply("restore") {
                restored.insert(rank);
            }
        }
        self.metrics.record(
            Phase::RecoveryRestore,
            restore_start.elapsed().as_secs_f64(),
        );
        self.sink.span(
            SpanKind::Fault,
            "recovery-restore",
            detected_at,
            restore_trace,
        );

        // Rewind bookkeeping: routing statistics return to the resume
        // iteration; the data stream rewinds implicitly (batches are a
        // pure function of the iteration number).
        self.cum_routed = self
            .routed_at
            .get(&resume)
            .expect("resume iteration was checkpointed")
            .clone();
        if rejoin_barrier {
            self.barrier_checkpoint(resume);
        }
        self.metrics.event(
            detected_at,
            EventKind::Recovery {
                resume_iteration: resume,
                memory_hits: outcome.memory_hits,
                storage_hits: outcome.storage_hits,
                total_secs: recovery_start.elapsed().as_secs_f64(),
                shard_groups: shard_groups.into_iter().collect(),
                group_owned_shards,
            },
        );
        self.telemetry.incr(Counter::Recoveries);
        self.telemetry.add_secs(
            Counter::RecoveryNanos,
            recovery_start.elapsed().as_secs_f64(),
        );
        // The parent recovery span closes the fault flow opened by the
        // injection (arrow: fault-injected → fault-detected → recovery).
        let flow = self.fault_flow.take().map(Flow::End).unwrap_or(Flow::None);
        self.sink.record(
            SpanKind::Fault,
            "recovery",
            detected_at,
            recovery_trace,
            self.sink.now() - recovery_trace,
            flow,
        );
        Ok(resume)
    }

    /// The elastic shrink: instead of respawning, the surviving shard
    /// groups adopt the dead groups' DP batch slices and experts, and
    /// training continues on the reduced world within the same run. The
    /// newly dead groups' ranks are retired (members on healthy nodes
    /// are orphaned — a shard group cannot function without its dead
    /// members), the placement migrates expert ownership onto surviving
    /// replicas, and every live rank is reconfigured with its new
    /// duties.
    fn shrink_rebalance(
        &mut self,
        resume: u64,
        newly_dead: &BTreeSet<usize>,
        all_dead: &BTreeSet<usize>,
    ) {
        let start = Instant::now();
        let topo = self.config.topology;
        let group_span = topo.tp() * topo.pp();
        for &g in newly_dead {
            for rank in g * group_span..(g + 1) * group_span {
                self.live[rank] = false;
                // Replacing the sender drops the old channel, so an
                // orphaned member on a healthy node exits its command
                // loop and can be joined at shutdown (members on the
                // dead nodes already exited mid-iteration).
                let (dangling, _) = unbounded();
                drop(std::mem::replace(&mut self.cmd_txs[rank], dangling));
            }
        }

        let placement = self
            .placement
            .as_ref()
            .expect("elastic mode plans placement");
        let plan = plan_shrink(placement, all_dead).expect("a shard group survives");
        let experts_migrated = plan.experts_migrated();
        self.metrics.experts_migrated += experts_migrated as u64;
        self.adoptions = plan.adoptions;
        self.placement = Some(plan.placement);
        self.dead_groups = all_dead.clone();
        if self.degraded_since.is_none() {
            // First shrink of this degraded window: snapshot the executed
            // counter so the expand can report the window's length as a
            // counter delta. A second shrink extends the same window.
            self.degraded_counter_base = self.metrics.degraded_iterations;
        }
        self.degraded_since = Some(resume);
        self.metrics.elastic_shrinks += 1;
        self.send_reconfigure();

        let shrink_secs = start.elapsed().as_secs_f64();
        self.metrics.record(Phase::ShrinkRebalance, shrink_secs);
        self.sink.record(
            SpanKind::Elastic,
            "shrink-rebalance",
            resume,
            self.sink.now() - shrink_secs,
            shrink_secs,
            Flow::None,
        );
        self.metrics.event(
            resume,
            EventKind::ElasticShrink {
                dead_groups: newly_dead.iter().copied().collect(),
                adoptions: self.adoptions.iter().map(|(&d, &a)| (d, a)).collect(),
                experts_migrated,
                shrink_secs,
            },
        );
    }

    /// The elastic expand: replacement ranks rejoin at iteration `it`,
    /// seeded bitwise from a survivor's replica, and the placement and
    /// batch slices return home. The expanded world continues on the
    /// survivors' exact trajectory — the rejoin is numerically
    /// invisible.
    fn expand(&mut self, it: u64) {
        let start = Instant::now();
        // Export the replica template first: every live rank holds the
        // same bits, so the lowest-indexed one serves.
        self.cmd_txs[self.first_live_rank()]
            .send(RankCommand::ExportState)
            .expect("export rank alive");
        let blobs = loop {
            if let RankEvent::StateExport { blobs } = self.recv_reply("state export") {
                break blobs;
            }
        };

        let returning = std::mem::take(&mut self.dead_groups);
        let mut new_ranks = Vec::new();
        for rank in 0..self.world() {
            if self.live[rank] {
                continue;
            }
            let (tx, handle) = self.spawn_rank(rank);
            drop(std::mem::replace(&mut self.cmd_txs[rank], tx));
            if let Some(old) = self.handles[rank].take() {
                let _ = old.join();
            }
            self.handles[rank] = Some(handle);
            self.live[rank] = true;
            new_ranks.push(rank);
        }
        for node in &mut self.nodes {
            node.set_alive(true);
        }

        let placement = self
            .placement
            .as_ref()
            .expect("elastic mode plans placement");
        let plan = plan_expand(placement, &returning);
        let experts_returned = plan.experts_returned;
        self.placement = Some(plan.placement);
        self.adoptions.clear();
        self.degraded_since = None;
        // Degraded-window length reported on the expand event: the delta
        // of the per-iteration counter (incremented only when an
        // iteration actually completes degraded) since the window's
        // first shrink — not re-derived from iteration numbers, which
        // double-counted rolled-back iterations when a second kill
        // landed inside the window.
        let degraded_iterations = self
            .metrics
            .degraded_iterations
            .saturating_sub(self.degraded_counter_base);

        // Fresh wiring (the returning ranks need endpoints), bitwise
        // seed, then the restored duty map.
        self.build_links();
        let blobs = Arc::new(blobs);
        for &rank in &new_ranks {
            self.cmd_txs[rank]
                .send(RankCommand::Restore {
                    blobs: blobs.clone(),
                    iteration: it,
                })
                .expect("respawned rank alive");
        }
        let mut seeded = HashSet::new();
        while seeded.len() < new_ranks.len() {
            if let RankEvent::Restored { rank } = self.recv_reply("expand seed") {
                seeded.insert(rank);
            }
        }
        self.send_reconfigure();
        // Rejoin barrier: the returning writers' chains froze at the
        // shrink and the survivors may have GC'd every version the two
        // sides shared, so all live writers re-commit the current state
        // — otherwise a fault right after the expand would find no
        // commonly committed version to recover from.
        self.barrier_checkpoint(it - 1);

        self.metrics.elastic_expands += 1;
        let expand_secs = start.elapsed().as_secs_f64();
        self.metrics.record(Phase::ExpandRestore, expand_secs);
        self.sink.record(
            SpanKind::Elastic,
            "expand-restore",
            it,
            self.sink.now() - expand_secs,
            expand_secs,
            Flow::None,
        );
        self.metrics.event(
            it,
            EventKind::ElasticExpand {
                returning_groups: returning.into_iter().collect(),
                experts_returned,
                degraded_iterations,
                expand_secs,
            },
        );
    }

    /// Exact lost-token accounting (Eq. 7): for every expert restored at
    /// version `v`, the tokens it routed between `v` and the resume
    /// iteration are lost.
    fn account_plt(&mut self, outcome: &RecoveryOutcome, resume: u64) -> f64 {
        let layers = self.config.model.num_moe_layers();
        let routed_r = self
            .routed_at
            .get(&resume)
            .expect("resume iteration was checkpointed")
            .clone();
        // BTreeMap keeps the accumulation order deterministic (f64 sums
        // feed the Dynamic-K thresholds).
        let mut expert_versions: BTreeMap<ExpertId, u64> = BTreeMap::new();
        for action in &outcome.plan.actions {
            if let Some(id) = expert_of(&self.config.model, &action.module) {
                let v = expert_versions.entry(id).or_insert(u64::MAX);
                *v = (*v).min(action.version);
            }
        }
        let mut fault_plt = 0.0;
        for (id, version) in expert_versions {
            let routed_v = self
                .routed_at
                .get(&version)
                .expect("expert restored from a recorded version");
            let lost = routed_r[id.layer][id.expert].saturating_sub(routed_v[id.layer][id.expert]);
            self.plt.record_loss(id.layer, lost);
            if self.plt.processed(id.layer) > 0 {
                fault_plt += lost as f64 / self.plt.processed(id.layer) as f64;
            }
        }
        fault_plt / layers as f64
    }

    fn finish(mut self) -> Result<RunSummary, RuntimeError> {
        let window = self.collect_window();
        // Drain in-flight persists before measuring final storage state.
        for node in self.nodes.iter().filter(|n| n.alive()) {
            node.wait_idle();
        }
        self.send_all(&RankCommand::Finish);
        let mut finals: BTreeMap<usize, (Vec<f32>, u32)> = BTreeMap::new();
        while finals.len() < self.live_world() {
            if let RankEvent::Finished {
                rank,
                params,
                param_crc,
            } = self.recv_reply("shutdown")
            {
                finals.insert(rank, (params, param_crc));
            }
        }
        // Dropping the dead ranks' senders (done at shrink time) ended
        // their threads; every handle joins cleanly.
        drop(self.cmd_txs);
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        let mut ckpt_engine = EngineStats::default();
        for node in &mut self.nodes {
            ckpt_engine.merge(&node.shutdown());
        }
        // Every rank thread joined and every engine writer exited, so all
        // sinks have flushed their thread-local buffers; merging the
        // coordinator's own spans last completes the trace.
        self.sink.flush();
        // The audit's detection-latency bound: the detector's worst-case
        // declaration time over the collect window, doubled for
        // recv_timeout overshoot on oversubscribed hosts, plus constant
        // slack for the rank-side step preceding the collection (the
        // injection span opens at iteration start, before collect).
        self.collector
            .set_detect_bound(2.0 * self.config.detector.declare_after(window).as_secs_f64() + 5.0);
        let health = self.health.as_ref().map(HealthScorer::report);
        if let Some(report) = &health {
            if let Some(trace) = &self.config.obs.trace_path {
                // Best effort, like every other observability artifact.
                let _ = std::fs::write(
                    trace.with_file_name("health.json"),
                    report.to_json().pretty() + "\n",
                );
            }
        }
        let obs = self.collector.finish();

        let lead = *finals.keys().next().expect("a live rank reported");
        let crc0 = finals[&lead].1;
        let replicas_consistent = finals.values().all(|(_, crc)| *crc == crc0);
        let final_params = finals.remove(&lead).expect("lead rank reported").0;
        let final_val_loss = self.val_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN);
        let persisted_bytes = self.store.total_bytes().unwrap_or(0);

        Ok(RunSummary {
            val_curve: self.val_curve,
            final_val_loss,
            plt: self.plt.plt(),
            k_trace: self.k_trace,
            iterations_executed: self.metrics.iterations_executed,
            checkpoints_taken: self.metrics.checkpoints_taken,
            faults_injected: self.metrics.faults_injected,
            stragglers_injected: self.metrics.stragglers_injected,
            ring_aborts: self.metrics.ring_aborts,
            collective_allocs: self.metrics.collective_allocs,
            recoveries: self.metrics.recoveries,
            suspicions: self.metrics.suspicions,
            suspicions_cleared: self.metrics.suspicions_cleared,
            store_retries: self.retry_store.retries(),
            store_retry_exhaustions: self.retry_store.exhaustions(),
            shard_groups_recovered: self.metrics.shard_groups_recovered,
            elastic_shrinks: self.metrics.elastic_shrinks,
            elastic_expands: self.metrics.elastic_expands,
            experts_migrated: self.metrics.experts_migrated,
            degraded_iterations: self.metrics.degraded_iterations,
            survivor_ring_iterations: self.metrics.survivor_ring_iterations,
            hierarchical_iterations: self.metrics.hierarchical_iterations,
            tp_groups_consistent: self.metrics.tp_divergences == 0,
            stall_count: self.metrics.stall_count,
            recovered_bytes: self.metrics.recovered_bytes,
            memory_hits: self.metrics.memory_hits,
            storage_hits: self.metrics.storage_hits,
            persisted_bytes,
            ckpt_engine,
            snapshot_samples: self.snapshot_samples,
            persist_samples: self.persist_samples,
            phases: self.metrics.phases().clone(),
            timeline: self.metrics.timeline().to_vec(),
            loop_secs: self.metrics.loop_secs,
            i_ckpt: self.config.i_ckpt,
            final_params,
            replicas_consistent,
            obs,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::topology::ParallelTopology;
    use moc_store::{FaultEvent, FaultPlan, MemoryObjectStore};

    fn quick_config() -> RuntimeConfig {
        RuntimeConfig {
            total_iterations: 12,
            i_ckpt: 4,
            eval_every: 6,
            seq_len: 16,
            ..RuntimeConfig::tiny(ParallelTopology::dp_ep(2, 2, 4, 4).unwrap())
        }
    }

    fn run(config: RuntimeConfig) -> RunSummary {
        Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn fault_free_run_trains_and_stays_consistent() {
        let summary = run(quick_config());
        assert!(summary.replicas_consistent, "replicas diverged");
        assert_eq!(summary.iterations_executed, 12);
        assert_eq!(summary.checkpoints_taken, 3);
        assert_eq!(summary.faults_injected, 0);
        assert_eq!(summary.plt, 0.0);
        let first = summary.val_curve.first().unwrap().1;
        assert!(
            summary.final_val_loss < first,
            "loss should fall: {first} -> {}",
            summary.final_val_loss
        );
    }

    #[test]
    fn identical_seeds_reproduce_bitwise() {
        let a = run(quick_config());
        let b = run(quick_config());
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.val_curve, b.val_curve);
    }

    #[test]
    fn node_kill_recovers_and_resumes() {
        let config = RuntimeConfig {
            faults: FaultPlan::At(vec![FaultEvent {
                iteration: 7,
                node: 1,
            }]),
            heartbeat_timeout: std::time::Duration::from_millis(500),
            ..quick_config()
        };
        let summary = run(config);
        assert_eq!(summary.faults_injected, 1);
        assert_eq!(summary.recoveries, 1);
        assert!(summary.replicas_consistent);
        // Rolled back from 7 to the checkpoint at 4: 3 redone iterations.
        assert_eq!(summary.iterations_executed, 12 + 3);
        assert!(summary.recovered_bytes > 0);
        assert!(summary.memory_hits + summary.storage_hits > 0);
    }

    #[test]
    fn persist_rotation_covers_every_expert() {
        // K_persist = 1 persists one expert per layer per checkpoint, as a
        // subset of the snapshot selection; after a full rotation every
        // expert must have a post-bootstrap version in persistent storage.
        let config = RuntimeConfig {
            total_iterations: 36,
            i_ckpt: 2,
            k_snapshot: 2,
            k_persist: 1,
            eval_every: 0,
            ..quick_config()
        };
        let store = Arc::new(MemoryObjectStore::new());
        Coordinator::new(config.clone(), store.clone())
            .unwrap()
            .run()
            .unwrap();
        let layers: Vec<usize> = config.model.moe_layer_indices().to_vec();
        for layer in layers {
            for expert in 0..config.model.num_experts() {
                let module = format!("layer{layer}.expert{expert}");
                let latest = store
                    .latest_version(&module, moc_store::StatePart::Weights, u64::MAX)
                    .unwrap()
                    .unwrap_or(0);
                assert!(
                    latest > 0,
                    "{module} never persisted past bootstrap (latest {latest})"
                );
            }
        }
    }

    #[test]
    fn two_level_recovery_uses_surviving_memory() {
        let config = RuntimeConfig {
            faults: FaultPlan::At(vec![FaultEvent {
                iteration: 6,
                node: 0,
            }]),
            heartbeat_timeout: std::time::Duration::from_millis(500),
            two_level: true,
            ..quick_config()
        };
        let summary = run(config);
        assert!(
            summary.memory_hits > 0,
            "healthy node snapshots must serve recovery: {summary:?}"
        );
        assert!(
            summary.storage_hits > 0,
            "dead node slots come from storage"
        );
    }
}
