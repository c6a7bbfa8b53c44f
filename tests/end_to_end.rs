//! Cross-crate integration tests: the full MoC pipeline from model
//! description through sharding, asynchronous saving, fault injection and
//! recovery, on both per-node checkpoint engines fed synthetic state and
//! the real training lab.

use bytes::Bytes;
use moc_system::ckpt::{
    ChainStore, CheckpointSelection, CkptEngine, EngineConfig as CkptConfig, PartialPlan,
};
use moc_system::cluster::timeline::fig12_row;
use moc_system::cluster::ClusterSpec;
use moc_system::core::plt::{analytic_plt, PltSimulation};
use moc_system::core::recovery::{fetch_action, plan_recovery, RecoveryPlan};
use moc_system::core::selection::PecConfig;
use moc_system::core::sharding::{
    base_module, expert_module_name, ShardingPlanner, ShardingStrategy,
};
use moc_system::core::twolevel::ShardJob;
use moc_system::core::ParallelTopology;
use moc_system::moe::presets;
use moc_system::moe::{ExpertId, LoadModel, LoadProfile, MoeModelConfig};
use moc_system::store::{
    ClusterMemory, FaultEvent, FileObjectStore, MemoryObjectStore, NodeId, ObjectStore, ShardKey,
    StatePart,
};
use moc_system::train::harness::{run_experiment, FaultToleranceConfig, TrainConfig};
use moc_system::train::PecMode;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// One `CkptEngine` per node over a shared store, fed the way the live
/// runtime feeds its engines: checkpoint `t` snapshots the experts of
/// `PartialPlan::at(t)` (every expert at bootstrap), sharded over ranks
/// by `ShardingPlanner::plan_selected`. An expert shard persists when its
/// expert is in the persist set; non-expert shards always persist.
struct NodeEngines {
    planner: ShardingPlanner,
    strategy: ShardingStrategy,
    plan: PartialPlan,
    memory: ClusterMemory,
    store: Arc<dyn ObjectStore>,
    engines: Vec<CkptEngine>,
    healthy: Vec<bool>,
    /// Payloads are `bytes / scale` long (at least 16).
    scale: u64,
}

impl NodeEngines {
    fn new(
        model: MoeModelConfig,
        topo: ParallelTopology,
        store: Arc<dyn ObjectStore>,
        strategy: ShardingStrategy,
        (k_snapshot, k_persist): (usize, usize),
        scale: u64,
    ) -> Self {
        let plan = PartialPlan::new(
            k_snapshot,
            k_persist,
            model.num_experts(),
            model.num_moe_layers(),
        );
        let planner = ShardingPlanner::new(model, topo).unwrap();
        let nodes = topo.nodes();
        let memory = ClusterMemory::new(nodes);
        let engines = (0..nodes)
            .map(|n| {
                let tier = Some(memory.node_arc(NodeId(n)));
                CkptEngine::spawn(n, tier, store.clone(), CkptConfig::default())
            })
            .collect();
        Self {
            planner,
            strategy,
            plan,
            memory,
            store,
            engines,
            healthy: vec![true; nodes],
            scale,
        }
    }

    /// Submits checkpoint `version` of `selection` on every node.
    fn checkpoint(&self, version: u64, selection: &CheckpointSelection) {
        let model = self.planner.model();
        let persist: HashSet<String> = selection
            .persist
            .iter()
            .map(|id| expert_module_name(model, id))
            .collect();
        let mut snapshot: Vec<ExpertId> = selection.snapshot.iter().copied().collect();
        snapshot.sort();
        let workload = self.planner.plan_selected(self.strategy, &snapshot);
        let mut per_node: Vec<Vec<ShardJob>> = vec![Vec::new(); self.engines.len()];
        for (rank, load) in workload.per_rank.iter().enumerate() {
            let node = self.planner.topology().node_of(rank);
            for item in &load.items {
                let module = base_module(&item.module);
                // The payload's first 8 bytes carry its version, so a
                // restore shows which version it produced.
                let mut payload = vec![0u8; (item.bytes / self.scale).max(16) as usize];
                payload[..8].copy_from_slice(&version.to_le_bytes());
                per_node[node].push(ShardJob {
                    key: ShardKey::new(item.module.clone(), item.part, version),
                    payload: Bytes::from(payload),
                    persist: !module.contains(".expert") || persist.contains(module),
                });
            }
        }
        for (engine, jobs) in self.engines.iter().zip(per_node) {
            engine.submit(version, jobs);
        }
    }

    fn wait_idle(&self) {
        self.engines.iter().for_each(CkptEngine::wait_idle);
    }

    /// Wipes `node`'s CPU memory and marks it unhealthy.
    fn fault(&mut self, node: usize) {
        self.memory.fault(NodeId(node));
        self.healthy[node] = false;
    }

    /// The committed chain view over the store.
    fn chain(&self) -> ChainStore {
        ChainStore::load_expecting(self.store.clone(), Some(self.engines.len())).unwrap()
    }

    /// Plans two-level recovery of every slot the strategy ever writes,
    /// reading storage through the committed chain view.
    fn recover(&self, chain: &ChainStore, at_iteration: u64) -> RecoveryPlan {
        let slots: BTreeSet<(String, StatePart)> = self
            .planner
            .plan_full(self.strategy)
            .per_rank
            .into_iter()
            .flat_map(|r| r.items)
            .map(|item| (item.module, item.part))
            .collect();
        let slots: Vec<_> = slots.into_iter().collect();
        plan_recovery(
            &slots,
            &self.memory,
            chain,
            &self.healthy,
            at_iteration,
            true,
        )
        .unwrap()
    }
}

#[test]
fn sharded_engine_checkpoints_and_recovers_on_disk() {
    let root = std::env::temp_dir().join(format!("moc-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(FileObjectStore::open(&root).unwrap());
    let mut nodes = NodeEngines::new(
        presets::tiny_lm_16e(),
        ParallelTopology::case3(),
        store.clone(),
        ShardingStrategy::FullyShardedAdaptive,
        (4, 2),
        1,
    );
    nodes.checkpoint(0, &nodes.plan.full_selection());
    for (t, it) in [10u64, 20, 30].into_iter().enumerate() {
        nodes.checkpoint(it, &nodes.plan.at(t as u64));
    }
    nodes.wait_idle();
    assert!(store.total_bytes().unwrap() > 0, "real files written");

    nodes.fault(1);
    let chain = nodes.chain();
    let plan = nodes.recover(&chain, 35);
    assert_eq!(plan.resume_iteration, 30);
    // Every action fetchable and version-consistent.
    for action in &plan.actions {
        let bytes = fetch_action(action, &nodes.memory, &chain).unwrap();
        let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        assert_eq!(v, action.version);
    }
    drop(nodes);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn plt_simulator_tracks_real_training_plt() {
    // The event-accurate PLT simulator and the real training lab should
    // agree on the order of magnitude of update loss for the same
    // (K, I_ckpt, fault) configuration.
    let train = TrainConfig {
        total_iterations: 96,
        eval_every: 96,
        batch: 4,
        seq_len: 16,
        ..TrainConfig::tiny_8e()
    };
    let faults = vec![FaultEvent {
        iteration: 48,
        node: 0,
    }];
    let ft = FaultToleranceConfig::pec(&train.model, 1, 1, PecMode::WO, false, 8, faults.clone());
    let real = run_experiment(&train, &ft).plt;

    let sim = PltSimulation {
        load: LoadModel::new(2, 8, 64, 1, LoadProfile::Balanced, 0),
        snapshot_pec: PecConfig::sequential(1, 8, 2),
        k_persist: 1,
        i_ckpt: 8,
        total_iterations: 96,
        faults,
        two_level_recovery: false,
        topology: ParallelTopology::case1(),
    }
    .run()
    .plt;

    let analytic = analytic_plt(1, 8, 8, 96, 1);
    assert!(real > 0.0 && sim > 0.0);
    assert!(
        (real / sim) > 0.3 && (real / sim) < 3.0,
        "real {real} vs simulated {sim}"
    );
    assert!(
        (sim / analytic) > 0.5 && (sim / analytic) < 2.0,
        "sim {sim} vs analytic {analytic}"
    );
}

#[test]
fn paper_claim_pec_checkpoint_shrinks_majorly() {
    // Headline: "PEC achieves a 57.7% reduction in total checkpoint size"
    // (K=1 on GPT-350M-16E). Eq. 6 with the Fig. 2 composition gives an
    // even larger reduction; assert at least the paper's.
    let model = presets::gpt_350m_16e();
    assert!(model.pec_size_ratio(1) < 0.423 + 1e-9);
}

#[test]
fn paper_claim_fig12_bands_hold() {
    let model = presets::gpt_350m_16e();
    for topo in [
        ParallelTopology::case1(),
        ParallelTopology::case2(),
        ParallelTopology::case3(),
    ] {
        let row = fig12_row("case", model.clone(), topo, ClusterSpec::a800(), 4, 1);
        assert!(
            row.o_save_reduction() > 0.95,
            "o_save cut {}",
            row.o_save_reduction()
        );
        assert!(row.speedup() > 2.0, "speedup {}", row.speedup());
    }
}

#[test]
fn engine_with_memory_store_handles_many_checkpoints() {
    let nodes = NodeEngines::new(
        presets::tiny_lm_8e(),
        ParallelTopology::case1(),
        Arc::new(MemoryObjectStore::new()),
        ShardingStrategy::FullySharded,
        (1, 1),
        64,
    );
    nodes.checkpoint(0, &nodes.plan.full_selection());
    for it in 1..=40u64 {
        nodes.checkpoint(it * 10, &nodes.plan.at(it - 1));
    }
    nodes.wait_idle();
    let chain = nodes.chain();
    // The bootstrap and 40 checkpoints, all committed by every node.
    let committed: Vec<u64> = (0..=40).map(|it| it * 10).collect();
    assert_eq!(chain.committed_versions(), committed);
    let plan = nodes.recover(&chain, 1000);
    assert_eq!(plan.resume_iteration, 400);
}

#[test]
fn sharding_plans_are_deterministic() {
    let planner = ShardingPlanner::new(presets::gpt_350m_16e(), ParallelTopology::case3()).unwrap();
    let pec = PecConfig::sequential(2, 16, 12);
    let a = planner.plan_pec(ShardingStrategy::FullyShardedAdaptive, &pec, 5);
    let b = planner.plan_pec(ShardingStrategy::FullyShardedAdaptive, &pec, 5);
    assert_eq!(a, b);
}
