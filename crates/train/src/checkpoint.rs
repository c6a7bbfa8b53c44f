//! Bridge between the training lab and the MoC checkpoint system.
//!
//! [`TrainingCheckpointer`] serializes real model state ([`ParamStore`]
//! tensors) into shard payloads, runs PEC selection (snapshot and persist
//! levels, with the paper's "W"/"O"/"WO" variants controlling whether PEC
//! applies to weights, optimizer states, or both — Fig. 14(a)), stores
//! them in a simulated cluster (per-node CPU memory + shared object
//! store), and performs two-level recovery after node faults, physically
//! rolling expert tensors back to their restored versions.
//!
//! Persistence goes through the checkpoint engine's
//! [`moc_ckpt::ShardWriter`]: shards are delta-encoded against their last
//! full version and committed by a versioned manifest, and recovery reads
//! the store through [`moc_ckpt::ChainStore`] so only committed state —
//! reconstructed `full ⊕ delta`, CRC-checked — is ever restored.

use crate::model::TinyMoeLm;
use crate::params::Param;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use moc_ckpt::{ChainStore, EngineConfig, ShardWriter, WriterStats};
use moc_core::recovery::{fetch_action, plan_recovery, RecoveryError, RecoverySource};
use moc_core::selection::PecConfig;
use moc_core::topology::ParallelTopology;
use moc_moe::{ExpertId, ExpertLoadTracker};
use moc_store::{ClusterMemory, MemoryObjectStore, NodeId, ObjectStore, ShardKey, StatePart};
use std::collections::HashMap;
use std::sync::Arc;

/// Which state categories PEC applies to (Fig. 14(a)'s W / O / WO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PecMode {
    /// Apply PEC to model weights.
    pub weights: bool,
    /// Apply PEC to optimizer states.
    pub optimizer: bool,
}

impl PecMode {
    /// PEC on weights only ("W").
    pub const W: PecMode = PecMode {
        weights: true,
        optimizer: false,
    };
    /// PEC on optimizer states only ("O").
    pub const O: PecMode = PecMode {
        weights: false,
        optimizer: true,
    };
    /// PEC on both ("WO").
    pub const WO: PecMode = PecMode {
        weights: true,
        optimizer: true,
    };
    /// PEC disabled (full checkpointing baseline).
    pub const NONE: PecMode = PecMode {
        weights: false,
        optimizer: false,
    };
}

/// Checkpointer configuration.
#[derive(Debug, Clone)]
pub struct CheckpointerConfig {
    /// Snapshot-level PEC selection (`K_snapshot`).
    pub snapshot_pec: PecConfig,
    /// Experts persisted per layer (`K_persist ≤ K_snapshot`).
    pub k_persist: usize,
    /// Which state parts PEC governs.
    pub mode: PecMode,
    /// Whether recovery may use healthy nodes' memory snapshots.
    pub two_level: bool,
    /// Virtual cluster placing experts on nodes.
    pub topology: ParallelTopology,
    /// Persist-pipeline policy (delta shards, rebase interval).
    pub engine: EngineConfig,
}

/// Outcome of a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Iteration training resumes from.
    pub resume_iteration: u64,
    /// Restored version per expert (staleness relative to
    /// `resume_iteration` is the PLT driver). Reports the *older* of the
    /// weight/optimizer versions when the mode splits them.
    pub expert_versions: Vec<(ExpertId, u64)>,
    /// Shards restored from CPU memory.
    pub memory_hits: usize,
    /// Shards restored from persistent storage.
    pub storage_hits: usize,
}

/// Serializes, saves and recovers real training state through the MoC
/// mechanisms.
pub struct TrainingCheckpointer {
    config: CheckpointerConfig,
    memory: ClusterMemory,
    store: Arc<dyn ObjectStore>,
    writer: ShardWriter,
    checkpoint_index: u64,
    /// Cumulative per-expert routed tokens recorded at each checkpoint
    /// version (for exact lost-token accounting).
    routed_at_version: HashMap<u64, Vec<Vec<u64>>>,
}

impl std::fmt::Debug for TrainingCheckpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingCheckpointer")
            .field("checkpoint_index", &self.checkpoint_index)
            .finish()
    }
}

impl TrainingCheckpointer {
    /// Creates a checkpointer over an in-memory object store.
    pub fn new(config: CheckpointerConfig) -> Self {
        let nodes = config.topology.nodes();
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
        let writer = ShardWriter::new(0, store.clone(), config.engine);
        Self {
            config,
            memory: ClusterMemory::new(nodes),
            store,
            writer,
            checkpoint_index: 0,
            routed_at_version: HashMap::new(),
        }
    }

    /// The persist writer's counters (full/delta shard mix, stored vs raw
    /// bytes).
    pub fn writer_stats(&self) -> WriterStats {
        self.writer.stats()
    }

    /// The configuration.
    pub fn config(&self) -> &CheckpointerConfig {
        &self.config
    }

    /// Number of PEC checkpoints taken (bootstrap excluded).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoint_index
    }

    /// Cumulative routed tokens `[layer][expert]` recorded at `version`.
    pub fn routed_at(&self, version: u64) -> Option<&Vec<Vec<u64>>> {
        self.routed_at_version.get(&version)
    }

    /// Full checkpoint of everything (training start / Dynamic-K resets).
    pub fn bootstrap(&mut self, model: &TinyMoeLm, iteration: u64, routed: Vec<Vec<u64>>) {
        let all: Vec<ExpertId> = model.config().expert_ids();
        self.save(model, iteration, &all, &all, routed);
    }

    /// Replaces the snapshot-level `K` (the Dynamic-K control knob).
    pub fn set_k(&mut self, k: usize) {
        let pec = &mut self.config.snapshot_pec;
        *pec = PecConfig::new(k, pec.num_experts, pec.num_moe_layers, pec.strategy);
        self.config.k_persist = self.config.k_persist.min(k);
    }

    /// PEC checkpoint at `iteration`. `tracker` enables load-aware
    /// selection; `routed` is the cumulative per-expert token count.
    /// Returns the snapshot-level expert selection.
    pub fn checkpoint(
        &mut self,
        model: &TinyMoeLm,
        iteration: u64,
        tracker: Option<&ExpertLoadTracker>,
        routed: Vec<Vec<u64>>,
    ) -> Vec<ExpertId> {
        let t = self.checkpoint_index;
        self.checkpoint_index += 1;
        let snap_sel = match tracker {
            Some(tr) => self.config.snapshot_pec.select_with_tracker(t, tr),
            None => self.config.snapshot_pec.select(t),
        };
        // persist-PEC rotates independently (stride K_persist) so its
        // coverage never stalls when K_snapshot is large; experts outside
        // the current snapshot window persist their latest in-memory
        // snapshot (Section 5.1's key-value retrieval from memory).
        let pec = &self.config.snapshot_pec;
        let persist_sel =
            PecConfig::sequential(self.config.k_persist, pec.num_experts, pec.num_moe_layers)
                .select(t);
        self.save(model, iteration, &snap_sel, &persist_sel, routed);
        snap_sel
    }

    fn save(
        &mut self,
        model: &TinyMoeLm,
        iteration: u64,
        snapshot_experts: &[ExpertId],
        persist_experts: &[ExpertId],
        routed: Vec<Vec<u64>>,
    ) {
        self.routed_at_version.insert(iteration, routed);
        let cfg = model.config().clone();
        let n = cfg.num_experts();
        let snap: std::collections::HashSet<ExpertId> = snapshot_experts.iter().copied().collect();
        let persist: std::collections::HashSet<ExpertId> =
            persist_experts.iter().copied().collect();
        // Snapshot level runs inline; the persist level is batched and
        // handed to the engine's shard writer, which delta-encodes and
        // commits the whole batch under one manifest.
        let mut batch: Vec<(ShardKey, Bytes)> = Vec::new();
        for module in model.store().module_names() {
            let expert = expert_of(&cfg, &module);
            for part in [StatePart::Weights, StatePart::Optimizer] {
                let governed = match part {
                    StatePart::Weights => self.config.mode.weights,
                    StatePart::Optimizer => self.config.mode.optimizer,
                    StatePart::Extra => false,
                };
                let (do_snapshot, do_persist) = match (expert, governed) {
                    (None, _) | (Some(_), false) => (true, true),
                    (Some(id), true) => (snap.contains(&id), persist.contains(&id)),
                };
                let node = self.module_node(&cfg, &module, n);
                if do_snapshot {
                    let payload = serialize_module(model, &module, part);
                    let key = ShardKey::new(module.clone(), part, iteration);
                    self.memory.node(node).put(&key, payload.clone());
                    if do_persist {
                        batch.push((key, payload));
                    }
                } else if do_persist {
                    // Persist the expert's latest in-memory snapshot (an
                    // older version than `iteration`); the writer dedups
                    // it if that exact version is already committed.
                    if let Some((version, payload)) = self.memory.node(node).get(&module, part) {
                        batch.push((ShardKey::new(module.clone(), part, version), payload));
                    }
                }
            }
        }
        self.writer
            .persist(iteration, batch.iter().map(|(k, b)| (k, &b[..])))
            .expect("in-memory store persist");
    }

    /// Which virtual node holds a module's snapshot.
    fn module_node(&self, cfg: &moc_moe::MoeModelConfig, module: &str, n: usize) -> NodeId {
        let topo = &self.config.topology;
        match expert_of(cfg, module) {
            Some(id) => {
                let rank = topo.ranks_hosting_expert(id.expert, n)[0];
                NodeId(topo.node_of(rank))
            }
            None => {
                // Non-expert modules spread round-robin over ranks (the
                // fully sharded placement); hash by name for determinism.
                let h: usize = module.bytes().map(|b| b as usize).sum();
                NodeId(topo.node_of(h % topo.dp()))
            }
        }
    }

    /// Injects a fault on `node` and recovers `model` from the freshest
    /// sources, resuming at the latest complete checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError`] if any module has no recoverable state
    /// (train without a bootstrap checkpoint to see it).
    pub fn fault_and_recover(
        &mut self,
        model: &mut TinyMoeLm,
        node: usize,
        at_iteration: u64,
    ) -> Result<RecoverySummary, RecoveryError> {
        self.memory.fault(NodeId(node));
        let mut healthy = vec![true; self.config.topology.nodes()];
        healthy[node] = false;

        let cfg = model.config().clone();
        let slots: Vec<(String, StatePart)> = model
            .store()
            .module_names()
            .into_iter()
            .flat_map(|m| [(m.clone(), StatePart::Weights), (m, StatePart::Optimizer)])
            .collect();
        // Recovery reads through the committed chain view: delta shards
        // reconstruct transparently and uncommitted (torn) persists are
        // invisible.
        let chain = ChainStore::load_expecting(self.store.clone(), Some(1))?;
        let plan = plan_recovery(
            &slots,
            &self.memory,
            &chain,
            &healthy,
            at_iteration,
            self.config.two_level,
        )?;
        let mut expert_versions: HashMap<ExpertId, u64> = HashMap::new();
        let mut memory_hits = 0;
        let mut storage_hits = 0;
        for action in &plan.actions {
            let bytes = fetch_action(action, &self.memory, &chain)?;
            deserialize_module(model, &action.module, action.part, &bytes);
            match action.source {
                RecoverySource::Memory { .. } => memory_hits += 1,
                RecoverySource::Storage => storage_hits += 1,
            }
            if let Some(id) = expert_of(&cfg, &action.module) {
                let v = expert_versions.entry(id).or_insert(u64::MAX);
                *v = (*v).min(action.version);
            }
        }
        let mut expert_versions: Vec<(ExpertId, u64)> = expert_versions.into_iter().collect();
        expert_versions.sort();
        Ok(RecoverySummary {
            resume_iteration: plan.resume_iteration,
            expert_versions,
            memory_hits,
            storage_hits,
        })
    }

    /// Total bytes currently persisted.
    pub fn persisted_bytes(&self) -> u64 {
        self.store.total_bytes().unwrap_or(0)
    }
}

/// Maps a module name to its expert identity, if it is an expert module.
pub fn expert_of(cfg: &moc_moe::MoeModelConfig, module: &str) -> Option<ExpertId> {
    let rest = module.strip_prefix("layer")?;
    let (layer_str, tail) = rest.split_once('.')?;
    let expert_str = tail.strip_prefix("expert")?;
    let layer: usize = layer_str.parse().ok()?;
    let expert: usize = expert_str.parse().ok()?;
    let position = cfg.moe_layer_position(layer)?;
    Some(ExpertId::new(position, expert))
}

/// Serializes a module's tensors for one state part.
///
/// Weights: each tensor's values, f32 LE, in registration order.
/// Optimizer: per tensor `steps:u64 | m | v`.
pub fn serialize_module(model: &TinyMoeLm, module: &str, part: StatePart) -> Bytes {
    let params = model.store().module_params(module);
    let mut buf = BytesMut::new();
    for p in params {
        match part {
            StatePart::Weights => put_matrix(&mut buf, &p.value),
            StatePart::Optimizer => {
                buf.put_u64_le(p.steps);
                put_matrix(&mut buf, &p.m);
                put_matrix(&mut buf, &p.v);
            }
            StatePart::Extra => {}
        }
    }
    buf.freeze()
}

/// Restores a module's tensors from a serialized payload.
///
/// # Panics
///
/// Panics if the payload does not match the module's tensor shapes.
pub fn deserialize_module(model: &mut TinyMoeLm, module: &str, part: StatePart, bytes: &Bytes) {
    let names: Vec<String> = model
        .store()
        .module_params(module)
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let mut buf = bytes.clone();
    for name in names {
        let store = model.store_mut();
        let idx_param: &mut Param = store
            .params_mut()
            .iter_mut()
            .find(|p| p.name == name)
            .expect("param exists");
        match part {
            StatePart::Weights => get_matrix(&mut buf, &mut idx_param.value),
            StatePart::Optimizer => {
                assert!(buf.remaining() >= 8, "truncated optimizer payload");
                idx_param.steps = buf.get_u64_le();
                get_matrix(&mut buf, &mut idx_param.m);
                get_matrix(&mut buf, &mut idx_param.v);
            }
            StatePart::Extra => {}
        }
    }
    assert_eq!(buf.remaining(), 0, "payload length mismatch for {module}");
}

fn put_matrix(buf: &mut BytesMut, m: &crate::tensor::Matrix) {
    buf.reserve(4 * m.len());
    for &x in m.data() {
        buf.put_f32_le(x);
    }
}

fn get_matrix(buf: &mut Bytes, m: &mut crate::tensor::Matrix) {
    assert!(buf.remaining() >= 4 * m.len(), "truncated tensor payload");
    for x in m.data_mut() {
        *x = buf.get_f32_le();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::selection::SelectionStrategy;
    use moc_moe::presets;

    fn model() -> TinyMoeLm {
        TinyMoeLm::new(presets::tiny_lm_8e(), 42)
    }

    fn checkpointer(
        k_snapshot: usize,
        k_persist: usize,
        mode: PecMode,
        two_level: bool,
    ) -> TrainingCheckpointer {
        let cfg = presets::tiny_lm_8e();
        TrainingCheckpointer::new(CheckpointerConfig {
            snapshot_pec: PecConfig::new(
                k_snapshot,
                cfg.num_experts(),
                cfg.num_moe_layers(),
                SelectionStrategy::Sequential,
            ),
            k_persist,
            mode,
            two_level,
            topology: ParallelTopology::dp_ep(2, 4, 8, 8).unwrap(),
            engine: EngineConfig::default(),
        })
    }

    fn zero_routed(cfg: &moc_moe::MoeModelConfig) -> Vec<Vec<u64>> {
        vec![vec![0; cfg.num_experts()]; cfg.num_moe_layers()]
    }

    #[test]
    fn expert_of_parses_module_names() {
        let cfg = presets::tiny_lm_8e(); // moe layers at 1, 3
        assert_eq!(expert_of(&cfg, "layer1.expert3"), Some(ExpertId::new(0, 3)));
        assert_eq!(expert_of(&cfg, "layer3.expert0"), Some(ExpertId::new(1, 0)));
        assert_eq!(expert_of(&cfg, "layer0.ffn"), None);
        assert_eq!(expert_of(&cfg, "embedding"), None);
        assert_eq!(expert_of(&cfg, "layer1.gate"), None);
    }

    #[test]
    fn serialize_roundtrip_preserves_state() {
        let mut m = model();
        // Perturb state so the roundtrip is meaningful.
        m.store_mut().value_mut("layer1.expert0/w1").data_mut()[0] = 1.25;
        m.store_mut().params_mut()[3].steps = 7;
        let w = serialize_module(&m, "layer1.expert0", StatePart::Weights);
        let o = serialize_module(&m, "layer1.expert0", StatePart::Optimizer);
        let mut restored = model();
        deserialize_module(&mut restored, "layer1.expert0", StatePart::Weights, &w);
        deserialize_module(&mut restored, "layer1.expert0", StatePart::Optimizer, &o);
        assert_eq!(restored.store().value("layer1.expert0/w1").data()[0], 1.25);
    }

    #[test]
    fn full_checkpoint_recovery_restores_exact_state() {
        let mut m = model();
        let routed = zero_routed(m.config());
        let mut ck = checkpointer(8, 8, PecMode::NONE, true);
        m.store_mut().value_mut("embedding/tok").data_mut()[0] = 9.5;
        ck.bootstrap(&m, 0, routed.clone());
        let snapshot = m.clone();
        // Trash the live model, then recover.
        for p in m.store_mut().params_mut() {
            p.value.fill_zero();
        }
        let summary = ck.fault_and_recover(&mut m, 0, 5).unwrap();
        assert_eq!(summary.resume_iteration, 0);
        assert_eq!(
            m.store().value("embedding/tok").data()[0],
            snapshot.store().value("embedding/tok").data()[0]
        );
    }

    #[test]
    fn pec_recovery_rolls_experts_back() {
        let mut m = model();
        let routed = zero_routed(m.config());
        let mut ck = checkpointer(1, 1, PecMode::WO, false);
        ck.bootstrap(&m, 0, routed.clone());
        // Change an expert weight, checkpoint (which may not include it),
        // then recover: experts outside the selection revert.
        let probe = "layer1.expert5/w1";
        let original = m.store().value(probe).data()[0];
        m.store_mut().value_mut(probe).data_mut()[0] = 7.75;
        // Selection at t=0, K=1: layer position 0 saves expert 0 only.
        ck.checkpoint(&m, 10, None, routed.clone());
        let summary = ck.fault_and_recover(&mut m, 0, 12).unwrap();
        assert_eq!(summary.resume_iteration, 10);
        assert_eq!(
            m.store().value(probe).data()[0],
            original,
            "expert 5 must roll back to bootstrap"
        );
        let v5 = summary
            .expert_versions
            .iter()
            .find(|(id, _)| *id == ExpertId::new(0, 5))
            .unwrap()
            .1;
        assert_eq!(v5, 0, "expert 5 restored from bootstrap version");
        let v0 = summary
            .expert_versions
            .iter()
            .find(|(id, _)| *id == ExpertId::new(0, 0))
            .unwrap()
            .1;
        assert_eq!(v0, 10, "expert 0 saved at the checkpoint");
    }

    #[test]
    fn mode_w_keeps_optimizer_fresh() {
        let mut m = model();
        let routed = zero_routed(m.config());
        let mut ck = checkpointer(1, 1, PecMode::W, false);
        ck.bootstrap(&m, 0, routed.clone());
        m.store_mut()
            .params_mut()
            .iter_mut()
            .for_each(|p| p.steps = 33);
        ck.checkpoint(&m, 10, None, routed.clone());
        ck.fault_and_recover(&mut m, 0, 11).unwrap();
        // Optimizer was saved fully at iteration 10: steps restored to 33
        // even for unselected experts.
        let p = m
            .store()
            .params()
            .iter()
            .find(|p| p.name == "layer1.expert5/w1")
            .unwrap();
        assert_eq!(p.steps, 33);
    }

    #[test]
    fn two_level_recovery_prefers_memory() {
        let mut m = model();
        let routed = zero_routed(m.config());
        // K_snapshot = 4, K_persist = 1.
        let mut ck = checkpointer(4, 1, PecMode::WO, true);
        ck.bootstrap(&m, 0, routed.clone());
        ck.checkpoint(&m, 10, None, routed.clone());
        let s = ck.fault_and_recover(&mut m, 1, 12).unwrap();
        assert!(s.memory_hits > 0, "healthy node snapshots used");
        // Snapshot-selected experts on healthy nodes restore at 10; the
        // same selection through storage-only would mostly sit at 0.
        let fresh = s.expert_versions.iter().filter(|(_, v)| *v == 10).count();
        assert!(fresh >= 4, "snapshot level supplies fresher experts: {s:?}");
    }

    #[test]
    fn persisted_bytes_grow_with_checkpoints() {
        let m = model();
        let routed = zero_routed(m.config());
        let mut ck = checkpointer(2, 1, PecMode::WO, true);
        ck.bootstrap(&m, 0, routed.clone());
        let b0 = ck.persisted_bytes();
        ck.checkpoint(&m, 10, None, routed.clone());
        assert!(ck.persisted_bytes() > b0);
    }
}
