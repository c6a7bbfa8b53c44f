//! Experiment driver: pre-training with faults and recovery, downstream
//! probes, and fine-tuning — the machinery behind Figs. 5, 14, 15 and
//! Tables 3–4.
//!
//! A run trains a [`TinyMoeLm`] on a [`MarkovCorpus`], checkpoints through
//! a [`TrainingCheckpointer`] every `I_ckpt` iterations, injects node
//! faults from a schedule, and performs real rollback recovery: after a
//! fault, expert tensors revert to their restored versions, the data
//! stream rewinds to the resume iteration, and the lost token updates are
//! accounted into a measured PLT (Eq. 7).

use crate::adam::{adam_step, AdamConfig};
use crate::checkpoint::{CheckpointerConfig, PecMode, TrainingCheckpointer};
use crate::data::MarkovCorpus;
use crate::model::TinyMoeLm;
use moc_core::dynamic_k::DynamicK;
use moc_core::placement::{num_failure_domains, PlacementError};
use moc_core::plt::PltAccumulator;
use moc_core::selection::{PecConfig, SelectionStrategy};
use moc_core::topology::ParallelTopology;
use moc_moe::{ExpertLoadTracker, MoeModelConfig};
use moc_store::FaultEvent;

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture.
    pub model: MoeModelConfig,
    /// Topic count of the synthetic corpus.
    pub topics: usize,
    /// Sequences per batch.
    pub batch: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Training horizon in iterations.
    pub total_iterations: u64,
    /// Evaluate validation loss every this many iterations.
    pub eval_every: u64,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Master seed (model init, corpus, gate noise).
    pub seed: u64,
}

impl TrainConfig {
    /// A fast default over the tiny 8-expert model.
    pub fn tiny_8e() -> Self {
        Self {
            model: moc_moe::presets::tiny_lm_8e(),
            topics: 8,
            batch: 8,
            seq_len: 32,
            total_iterations: 240,
            eval_every: 40,
            adam: AdamConfig::default(),
            seed: 17,
        }
    }

    /// A fast default over the tiny 16-expert model.
    pub fn tiny_16e() -> Self {
        Self {
            model: moc_moe::presets::tiny_lm_16e(),
            ..Self::tiny_8e()
        }
    }
}

/// Fault-tolerance configuration of a run.
#[derive(Debug, Clone)]
pub struct FaultToleranceConfig {
    /// Experts snapshotted per layer per checkpoint (`K_snapshot`).
    pub k_snapshot: usize,
    /// Experts persisted per layer per checkpoint (`K_persist`).
    pub k_persist: usize,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// Which state parts PEC governs (W / O / WO / NONE).
    pub mode: PecMode,
    /// Two-level recovery from healthy nodes' memory.
    pub two_level: bool,
    /// Checkpoint interval in iterations.
    pub i_ckpt: u64,
    /// Fault schedule.
    pub faults: Vec<FaultEvent>,
    /// Dynamic-K budget (None = fixed K).
    pub dynamic_k_budget: Option<f64>,
    /// Virtual cluster topology.
    pub topology: ParallelTopology,
    /// Expert replication factor for elastic placement planning (`1` =
    /// no replication). Validated against the topology's failure-domain
    /// count by [`FaultToleranceConfig::validate`].
    pub replication: usize,
}

impl FaultToleranceConfig {
    /// Full checkpointing, no PEC, storage recovery (the paper baseline).
    pub fn baseline(model: &MoeModelConfig, i_ckpt: u64, faults: Vec<FaultEvent>) -> Self {
        Self {
            k_snapshot: model.num_experts(),
            k_persist: model.num_experts(),
            strategy: SelectionStrategy::Sequential,
            mode: PecMode::NONE,
            two_level: false,
            i_ckpt,
            faults,
            dynamic_k_budget: None,
            topology: ParallelTopology::dp_ep(2, 4, 8, 8).expect("lab topology"),
            replication: 1,
        }
    }

    /// The same configuration over a different virtual topology (e.g. a
    /// TP/PP grid). The single-loop harness computes identical numerics
    /// on any topology — only checkpoint-shard placement and which
    /// memory tier a fault wipes follow the node mapping — so reports
    /// are comparable across topologies at equal `(dp, ep)`.
    pub fn with_topology(mut self, topology: ParallelTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Checks the configuration against the cluster it names. The one
    /// constraint the topology alone cannot absorb is the replication
    /// factor: a cluster with fewer failure domains than requested
    /// replicas cannot host any placement plan, which used to surface
    /// as a panic deep inside the planner.
    ///
    /// # Errors
    ///
    /// [`PlacementError::ZeroReplication`] or
    /// [`PlacementError::ReplicationExceedsDomains`] when the cluster
    /// cannot host `replication`.
    pub fn validate(&self) -> Result<(), PlacementError> {
        let domains = num_failure_domains(&self.topology);
        if self.replication == 0 {
            return Err(PlacementError::ZeroReplication);
        }
        if self.replication > domains {
            return Err(PlacementError::ReplicationExceedsDomains {
                replication: self.replication,
                domains,
            });
        }
        Ok(())
    }

    /// PEC with the given `(K_snapshot, K_persist)` and mode.
    pub fn pec(
        model: &MoeModelConfig,
        k_snapshot: usize,
        k_persist: usize,
        mode: PecMode,
        two_level: bool,
        i_ckpt: u64,
        faults: Vec<FaultEvent>,
    ) -> Self {
        Self {
            k_snapshot,
            k_persist,
            mode,
            two_level,
            ..Self::baseline(model, i_ckpt, faults)
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `(iteration, validation loss)` curve.
    pub val_curve: Vec<(u64, f32)>,
    /// Final validation loss.
    pub final_val_loss: f32,
    /// `(iteration, topic-match accuracy)` curve (the vision-proxy
    /// "test accuracy" of Fig. 14(b)).
    pub acc_curve: Vec<(u64, f64)>,
    /// Measured PLT (Eq. 7) across all faults.
    pub plt: f64,
    /// `K` in effect at each fault (Dynamic-K trace).
    pub k_trace: Vec<usize>,
    /// Wall iterations executed (including redone work after rollbacks).
    pub iterations_executed: u64,
    /// Total bytes persisted over the run.
    pub persisted_bytes: u64,
}

/// Runs one pre-training experiment.
///
/// # Panics
///
/// Panics if the corpus topics do not divide the vocabulary, the fault
/// schedule references nodes outside the topology, or
/// [`FaultToleranceConfig::validate`] rejects the configuration.
pub fn run_experiment(train: &TrainConfig, ft: &FaultToleranceConfig) -> RunReport {
    run_experiment_with_model(train, ft).0
}

/// Like [`run_experiment`], additionally returning the trained model (for
/// downstream probing and fine-tuning).
pub fn run_experiment_with_model(
    train: &TrainConfig,
    ft: &FaultToleranceConfig,
) -> (RunReport, TinyMoeLm) {
    ft.validate()
        .unwrap_or_else(|e| panic!("invalid fault-tolerance config: {e}"));
    let corpus = MarkovCorpus::new(train.model.vocab_size(), train.topics, train.seed);
    let mut model = TinyMoeLm::new(train.model.clone(), train.seed);
    let layers = train.model.num_moe_layers();
    let n = train.model.num_experts();

    let mut checkpointer = TrainingCheckpointer::new(CheckpointerConfig {
        snapshot_pec: PecConfig::new(ft.k_snapshot, n, layers, ft.strategy),
        k_persist: ft.k_persist,
        mode: ft.mode,
        two_level: ft.two_level,
        topology: ft.topology,
        engine: moc_ckpt::EngineConfig::default(),
    });
    let mut tracker = ExpertLoadTracker::new(layers, n);
    let mut cum_routed = vec![vec![0u64; n]; layers];
    checkpointer.bootstrap(&model, 0, cum_routed.clone());

    let mut dynamic_k = ft
        .dynamic_k_budget
        .map(|b| DynamicK::new(ft.k_snapshot, n, b));
    let mut plt_acc = PltAccumulator::new(layers);
    let mut faults = ft.faults.clone();
    faults.sort_by_key(|f| f.iteration);
    let mut fault_idx = 0;
    let mut k_trace = Vec::new();

    let mut val_curve = Vec::new();
    let mut acc_curve = Vec::new();
    let mut executed = 0u64;
    let mut it = 1u64;
    while it <= train.total_iterations {
        executed += 1;
        let batch = corpus.batch(it - 1, train.batch, train.seq_len);
        let stats = model.forward_backward(&batch, train.seed ^ (it << 1));
        adam_step(model.store_mut(), &train.adam);
        for (layer, loads) in stats.expert_loads.iter().enumerate() {
            tracker.record(layer, loads);
            plt_acc.record_processed(layer, loads.iter().sum());
            for (slot, &l) in cum_routed[layer].iter_mut().zip(loads) {
                *slot += l;
            }
        }

        if it.is_multiple_of(ft.i_ckpt) {
            let selected = checkpointer.checkpoint(
                &model,
                it,
                matches!(ft.strategy, SelectionStrategy::LoadAware).then_some(&tracker),
                cum_routed.clone(),
            );
            for id in selected {
                tracker.mark_saved(id);
            }
        }

        if it.is_multiple_of(train.eval_every) || it == train.total_iterations {
            let val = corpus.validation(train.batch, train.seq_len);
            val_curve.push((it, model.evaluate(&val).loss));
            acc_curve.push((it, topic_accuracy(&mut model, &corpus, 2)));
        }

        // Fault?
        while fault_idx < faults.len() && faults[fault_idx].iteration == it {
            let fault = faults[fault_idx];
            fault_idx += 1;
            k_trace.push(checkpointer.config().snapshot_pec.k);
            let summary = checkpointer
                .fault_and_recover(&mut model, fault.node, it)
                .expect("bootstrap checkpoint guarantees recoverability");
            let r = summary.resume_iteration;
            // Exact lost-token accounting per expert.
            let routed_r = checkpointer.routed_at(r).expect("checkpointed").clone();
            let mut fault_plt = 0.0;
            for (id, version) in &summary.expert_versions {
                let routed_v = checkpointer
                    .routed_at(*version)
                    .expect("expert restored from a recorded version");
                let lost = routed_r[id.layer][id.expert] - routed_v[id.layer][id.expert];
                plt_acc.record_loss(id.layer, lost);
                if plt_acc.processed(id.layer) > 0 {
                    fault_plt += lost as f64 / plt_acc.processed(id.layer) as f64;
                }
            }
            fault_plt /= layers as f64;
            if let Some(ctl) = dynamic_k.as_mut() {
                let new_k = ctl.on_fault_recovery(fault_plt);
                checkpointer.set_k(new_k);
            }
            // Rewind: data and routing bookkeeping return to iteration r.
            cum_routed = routed_r;
            tracker = ExpertLoadTracker::new(layers, n);
            it = r;
        }
        it += 1;
    }

    let final_val_loss = val_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN);
    (
        RunReport {
            val_curve,
            final_val_loss,
            acc_curve,
            plt: plt_acc.plt(),
            k_trace,
            iterations_executed: executed,
            persisted_bytes: checkpointer.persisted_bytes(),
        },
        model,
    )
}

/// Topic-match accuracy: fraction of probe positions where the model's
/// greedy next token lands in the prefix's topic (the vision-proxy
/// classification metric).
pub fn topic_accuracy(model: &mut TinyMoeLm, corpus: &MarkovCorpus, probes_per_topic: u64) -> f64 {
    let mut hits = 0u64;
    let mut total = 0u64;
    for topic in 0..corpus.topics() {
        for probe in 0..probes_per_topic {
            let seq = corpus.topic_probe(topic, probe, 12);
            let pred = model.predict_next(&seq);
            total += 1;
            if corpus.topic_of(pred) == topic {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

/// Next-token exact-match accuracy on topic-restricted probes — the
/// downstream-task proxy suite (Table 3). Returns one accuracy per topic.
pub fn downstream_suite(
    model: &mut TinyMoeLm,
    corpus: &MarkovCorpus,
    probes_per_topic: u64,
    probe_len: usize,
) -> Vec<f64> {
    (0..corpus.topics())
        .map(|topic| {
            let mut hits = 0u64;
            let mut total = 0u64;
            for probe in 0..probes_per_topic {
                let seq = corpus.topic_probe(topic, probe, probe_len);
                // Evaluate greedy prediction at a few cut points.
                for cut in [probe_len / 2, probe_len - 1] {
                    let pred = model.predict_next(&seq[..cut]);
                    total += 1;
                    if pred == seq[cut] {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total.max(1) as f64
        })
        .collect()
}

/// Fine-tuning methods of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinetuneMethod {
    /// No fine-tuning (the pre-trained base).
    Base,
    /// Fine-tune with all expert parameters frozen ("FT-w.o.E").
    FreezeExperts,
    /// Fine-tune with full-state checkpointing ("FT-Full").
    Full,
    /// Fine-tune with PEC checkpoints and a midpoint fault ("FT-PEC").
    Pec {
        /// Experts saved per layer per checkpoint.
        k: usize,
    },
}

/// Runs the Table-4 fine-tuning comparison: pre-train once, then fine-tune
/// on a shifted corpus under `method`, with a fault at the midpoint for
/// the checkpointed variants. Returns mean downstream accuracy on the
/// shifted distribution.
pub fn finetune_experiment(
    train: &TrainConfig,
    pretrained: &TinyMoeLm,
    method: FinetuneMethod,
    ft_iterations: u64,
    i_ckpt: u64,
) -> f64 {
    let shifted =
        MarkovCorpus::new(train.model.vocab_size(), train.topics, train.seed).shifted(0x0F17);
    let mut model = pretrained.clone();
    if method == FinetuneMethod::Base {
        return mean(&downstream_suite(&mut model, &shifted, 4, 16));
    }
    let n = train.model.num_experts();
    let layers = train.model.num_moe_layers();
    let (k, mode) = match method {
        FinetuneMethod::Pec { k } => (k, PecMode::WO),
        _ => (n, PecMode::NONE),
    };
    let mut checkpointer = TrainingCheckpointer::new(CheckpointerConfig {
        snapshot_pec: PecConfig::sequential(k, n, layers),
        k_persist: k,
        mode,
        two_level: false,
        topology: ParallelTopology::dp_ep(2, 4, 8, 8).expect("lab topology"),
        engine: moc_ckpt::EngineConfig::default(),
    });
    let mut cum = vec![vec![0u64; n]; layers];
    checkpointer.bootstrap(&model, 0, cum.clone());
    let midpoint = ft_iterations / 2;
    let mut it = 1u64;
    while it <= ft_iterations {
        let batch = shifted.batch(it - 1, train.batch, train.seq_len);
        let stats = model.forward_backward(&batch, train.seed ^ (it << 3));
        if method == FinetuneMethod::FreezeExperts {
            // Zero expert gradients: only non-expert parameters update.
            let names: Vec<String> = model
                .store()
                .params()
                .iter()
                .filter(|p| p.name.contains(".expert"))
                .map(|p| p.name.clone())
                .collect();
            for name in names {
                model.store_mut().grad_mut(&name).fill_zero();
            }
        }
        adam_step(model.store_mut(), &train.adam);
        for (layer, loads) in stats.expert_loads.iter().enumerate() {
            for (slot, &l) in cum[layer].iter_mut().zip(loads) {
                *slot += l;
            }
        }
        if it.is_multiple_of(i_ckpt) {
            checkpointer.checkpoint(&model, it, None, cum.clone());
        }
        if it == midpoint && method != FinetuneMethod::FreezeExperts {
            let summary = checkpointer
                .fault_and_recover(&mut model, 0, it)
                .expect("recoverable");
            cum = checkpointer
                .routed_at(summary.resume_iteration)
                .expect("recorded")
                .clone();
            it = summary.resume_iteration;
        }
        it += 1;
    }
    mean(&downstream_suite(&mut model, &shifted, 4, 16))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unhostable_replication_rejected() {
        let train = quick_train();
        // The lab topology has 2 nodes -> 2 failure domains.
        let mut ft = FaultToleranceConfig::baseline(&train.model, 20, vec![]);
        ft.validate().unwrap();
        ft.replication = 3;
        assert_eq!(
            ft.validate(),
            Err(PlacementError::ReplicationExceedsDomains {
                replication: 3,
                domains: 2
            })
        );
        ft.replication = 0;
        assert_eq!(ft.validate(), Err(PlacementError::ZeroReplication));
        ft.replication = 2;
        ft.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid fault-tolerance config")]
    fn run_experiment_rejects_unhostable_replication() {
        let train = quick_train();
        let ft = FaultToleranceConfig {
            replication: 5,
            ..FaultToleranceConfig::baseline(&train.model, 20, vec![])
        };
        run_experiment(&train, &ft);
    }

    fn quick_train() -> TrainConfig {
        TrainConfig {
            batch: 4,
            seq_len: 16,
            total_iterations: 60,
            eval_every: 20,
            ..TrainConfig::tiny_8e()
        }
    }

    #[test]
    fn fault_free_training_reduces_loss() {
        let train = quick_train();
        let ft = FaultToleranceConfig::baseline(&train.model, 20, vec![]);
        let report = run_experiment(&train, &ft);
        let first = report.val_curve.first().unwrap().1;
        assert!(
            report.final_val_loss < first,
            "loss should fall: {first} -> {}",
            report.final_val_loss
        );
        assert_eq!(report.plt, 0.0);
        assert_eq!(report.iterations_executed, 60);
    }

    #[test]
    fn tp_pp_topology_reproduces_flat_reports() {
        // Same dp and ep, but each DP rank's state spread over a 2×2
        // TP/PP shard group across two nodes: the harness numerics and
        // the full-checkpointing recovery must be identical to the flat
        // layout, fault-free and faulted.
        let train = quick_train();
        let grid = ParallelTopology::new(2, 8, 4, 2, 2, 4).unwrap();
        let flat = ParallelTopology::dp_ep(1, 4, 4, 4).unwrap();
        for faults in [
            vec![],
            vec![FaultEvent {
                iteration: 35,
                node: 0,
            }],
        ] {
            let base = FaultToleranceConfig::baseline(&train.model, 10, faults).with_topology(flat);
            let on_grid = base.clone().with_topology(grid);
            let flat_report = run_experiment(&train, &base);
            let grid_report = run_experiment(&train, &on_grid);
            assert_eq!(
                flat_report, grid_report,
                "grid topology must not change the harness trajectory"
            );
        }
    }

    #[test]
    fn fault_with_full_checkpointing_loses_no_updates() {
        let train = quick_train();
        // Fault strikes 5 iterations past the latest checkpoint (30).
        let faults = vec![FaultEvent {
            iteration: 35,
            node: 0,
        }];
        let ft = FaultToleranceConfig::baseline(&train.model, 10, faults);
        let report = run_experiment(&train, &ft);
        assert_eq!(report.plt, 0.0, "full checkpointing has zero PLT");
        // Rollback redoes iterations 31..=35: executed = 60 + 5.
        assert_eq!(report.iterations_executed, 65);
    }

    #[test]
    fn pec_fault_incurs_plt_and_still_trains() {
        let train = quick_train();
        let faults = vec![FaultEvent {
            iteration: 30,
            node: 0,
        }];
        let ft = FaultToleranceConfig::pec(&train.model, 1, 1, PecMode::WO, false, 10, faults);
        let report = run_experiment(&train, &ft);
        assert!(report.plt > 0.0, "PEC recovery loses expert updates");
        let first = report.val_curve.first().unwrap().1;
        assert!(report.final_val_loss < first, "training still converges");
    }

    #[test]
    fn two_level_reduces_plt_vs_storage_only() {
        let train = quick_train();
        let faults = vec![FaultEvent {
            iteration: 30,
            node: 0,
        }];
        let storage =
            FaultToleranceConfig::pec(&train.model, 4, 1, PecMode::WO, false, 10, faults.clone());
        let twolevel = FaultToleranceConfig::pec(&train.model, 4, 1, PecMode::WO, true, 10, faults);
        let plt_storage = run_experiment(&train, &storage).plt;
        let plt_two = run_experiment(&train, &twolevel).plt;
        assert!(
            plt_two < plt_storage,
            "two-level {plt_two} must beat storage {plt_storage}"
        );
    }

    #[test]
    fn pec_persists_fewer_bytes_than_full() {
        let train = quick_train();
        let full = FaultToleranceConfig::baseline(&train.model, 10, vec![]);
        let pec = FaultToleranceConfig::pec(&train.model, 1, 1, PecMode::WO, false, 10, vec![]);
        let b_full = run_experiment(&train, &full).persisted_bytes;
        let b_pec = run_experiment(&train, &pec).persisted_bytes;
        assert!(
            (b_pec as f64) < 0.7 * b_full as f64,
            "pec {b_pec} vs full {b_full}"
        );
    }

    #[test]
    fn dynamic_k_raises_k_under_fault_burst() {
        let train = TrainConfig {
            total_iterations: 120,
            ..quick_train()
        };
        let faults: Vec<FaultEvent> = (1..=6)
            .map(|i| FaultEvent {
                iteration: i * 18,
                node: 0,
            })
            .collect();
        let ft = FaultToleranceConfig {
            dynamic_k_budget: Some(0.02),
            ..FaultToleranceConfig::pec(&train.model, 1, 1, PecMode::WO, false, 6, faults)
        };
        let report = run_experiment(&train, &ft);
        assert!(report.k_trace.len() >= 2);
        assert!(
            report.k_trace.last().unwrap() > report.k_trace.first().unwrap(),
            "K must grow: {:?}",
            report.k_trace
        );
    }

    #[test]
    fn downstream_suite_beats_chance_after_training() {
        let train = quick_train();
        let ft = FaultToleranceConfig::baseline(&train.model, 20, vec![]);
        let corpus = MarkovCorpus::new(train.model.vocab_size(), train.topics, train.seed);
        let mut model = TinyMoeLm::new(train.model.clone(), train.seed);
        let before = mean(&downstream_suite(&mut model, &corpus, 2, 12));
        let _ = ft;
        // Train briefly.
        let report = run_experiment(&train, &ft);
        let _ = report;
        // Chance level is 1/vocab = 1/256; topic accuracy chance 1/8.
        assert!(before < 0.3, "untrained accuracy near chance, got {before}");
    }

    #[test]
    fn finetune_base_differs_from_full() {
        let train = quick_train();
        let pretrained = {
            let ft = FaultToleranceConfig::baseline(&train.model, 20, vec![]);
            let _ = run_experiment(&train, &ft);
            TinyMoeLm::new(train.model.clone(), train.seed)
        };
        let base = finetune_experiment(&train, &pretrained, FinetuneMethod::Base, 0, 10);
        let full = finetune_experiment(&train, &pretrained, FinetuneMethod::Full, 120, 10);
        assert!((0.0..=1.0).contains(&base));
        assert!(
            full > base,
            "fine-tuning should help on the shifted corpus: {full} vs {base}"
        );
    }
}
