//! Fully sharded checkpointing — Section 4 and Fig. 10(b-d).
//!
//! Under ZeRO-2 DP + EP, optimizer states are already partitioned: every
//! rank writes its own non-expert ZeRO shard, and each expert's optimizer
//! shard is split over its `dp/ep` replica ranks. What the sharding
//! strategies of Section 4 change is who writes the *model parameters*:
//!
//! * **Baseline** (Megatron-DeepSpeed, Fig. 7(a)): rank 0 writes all
//!   non-expert weights; only EP-group-0 ranks write expert weights.
//! * **Equal expert sharding (EE)** (Section 4.1): each EP group writes a
//!   `1/num_ep_groups` slice of every hosted expert's weights.
//! * **Equal non-expert sharding (EN)** (Section 4.2): non-expert weights
//!   are spread over all DP ranks at layer granularity (greedy LPT).
//! * **Adaptive non-expert sharding (AN)** (Section 4.3): non-expert
//!   layers go to the ranks left idle by the PEC selection pattern
//!   (greedy least-total-load).
//!
//! The planner reports per-rank byte workloads — whose maximum is the
//! *bottleneck rank* that determines blocking checkpoint time — and the
//! explicit per-rank save items the checkpoint engine executes.

use crate::selection::PecConfig;
use crate::topology::ParallelTopology;
use moc_moe::{ExpertId, MoeModelConfig};
use moc_store::StatePart;
use std::fmt;

/// Which sharding strategy to plan with (the Fig. 10 x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardingStrategy {
    /// Megatron-DeepSpeed default: rank 0 + EP-group-0 (Fig. 7(a)).
    Baseline,
    /// Equal expert sharding only ("EE").
    EqualExpert,
    /// Equal expert + equal non-expert sharding ("EE+EN") — the paper's
    /// fully sharded checkpointing.
    FullySharded,
    /// Equal expert + adaptive non-expert sharding ("EE+AN").
    FullyShardedAdaptive,
}

impl ShardingStrategy {
    /// All strategies in Fig. 10 order.
    pub const ALL: [ShardingStrategy; 4] = [
        ShardingStrategy::Baseline,
        ShardingStrategy::EqualExpert,
        ShardingStrategy::FullySharded,
        ShardingStrategy::FullyShardedAdaptive,
    ];

    /// The label used in Fig. 10.
    pub fn label(&self) -> &'static str {
        match self {
            ShardingStrategy::Baseline => "Baseline",
            ShardingStrategy::EqualExpert => "EE",
            ShardingStrategy::FullySharded => "EE+EN",
            ShardingStrategy::FullyShardedAdaptive => "EE+AN",
        }
    }
}

impl fmt::Display for ShardingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One unit of state a rank must write at a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveItem {
    /// Module name the bytes belong to.
    pub module: String,
    /// State category.
    pub part: StatePart,
    /// Bytes this rank writes for the module (may be a slice).
    pub bytes: u64,
}

/// Per-rank checkpoint workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankWorkload {
    /// Non-expert ZeRO optimizer shard bytes.
    pub non_expert_optimizer: u64,
    /// Expert optimizer shard bytes.
    pub expert_optimizer: u64,
    /// Expert weight bytes.
    pub expert_weights: u64,
    /// Non-expert weight bytes.
    pub non_expert_weights: u64,
    /// Explicit save items (weights granularity; optimizer shards are
    /// folded into aggregate items).
    pub items: Vec<SaveItem>,
}

impl RankWorkload {
    /// Total bytes this rank writes.
    pub fn total(&self) -> u64 {
        self.non_expert_optimizer
            + self.expert_optimizer
            + self.expert_weights
            + self.non_expert_weights
    }
}

/// The planned checkpoint workload of all DP ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointWorkload {
    /// Workloads indexed by DP rank.
    pub per_rank: Vec<RankWorkload>,
}

impl CheckpointWorkload {
    /// Total bytes written across all ranks (the Fig. 10(a) quantity).
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.total()).sum()
    }

    /// The bottleneck rank and its byte workload (Fig. 10(b-d) y-axis).
    pub fn bottleneck(&self) -> (usize, u64) {
        self.per_rank
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.total()))
            .max_by_key(|&(i, b)| (b, usize::MAX - i))
            .unwrap_or((0, 0))
    }

    /// Ratio of bottleneck to mean workload (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.per_rank.is_empty() {
            return 1.0;
        }
        let total = self.total_bytes() as f64;
        let mean = total / self.per_rank.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.bottleneck().1 as f64 / mean
        }
    }
}

/// Error planning a sharded checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The expert count per layer is not divisible by the EP degree.
    ExpertsNotDivisible {
        /// Experts per MoE layer.
        num_experts: usize,
        /// Expert-parallel degree.
        ep: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ExpertsNotDivisible { num_experts, ep } => {
                write!(f, "{num_experts} experts cannot spread over ep degree {ep}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans per-rank checkpoint workloads for a model on a topology.
#[derive(Debug, Clone)]
pub struct ShardingPlanner {
    model: MoeModelConfig,
    topo: ParallelTopology,
}

impl ShardingPlanner {
    /// Creates a planner.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ExpertsNotDivisible`] if the model's experts
    /// cannot be placed evenly on the topology's EP ranks.
    pub fn new(model: MoeModelConfig, topo: ParallelTopology) -> Result<Self, PlanError> {
        if model.num_moe_layers() > 0 && !model.num_experts().is_multiple_of(topo.ep()) {
            return Err(PlanError::ExpertsNotDivisible {
                num_experts: model.num_experts(),
                ep: topo.ep(),
            });
        }
        Ok(Self { model, topo })
    }

    /// The model being planned for.
    pub fn model(&self) -> &MoeModelConfig {
        &self.model
    }

    /// The topology being planned for.
    pub fn topology(&self) -> &ParallelTopology {
        &self.topo
    }

    /// Plans the workload of a *full* checkpoint (all experts saved).
    pub fn plan_full(&self, strategy: ShardingStrategy) -> CheckpointWorkload {
        let all: Vec<ExpertId> = self.model.expert_ids();
        self.plan_selected(strategy, &all)
    }

    /// Plans the workload of a PEC checkpoint at `checkpoint_index`.
    pub fn plan_pec(
        &self,
        strategy: ShardingStrategy,
        pec: &PecConfig,
        checkpoint_index: u64,
    ) -> CheckpointWorkload {
        self.plan_selected(strategy, &pec.select(checkpoint_index))
    }

    /// Plans the workload for an explicit set of saved experts.
    pub fn plan_selected(
        &self,
        strategy: ShardingStrategy,
        selected: &[ExpertId],
    ) -> CheckpointWorkload {
        let dp = self.topo.dp();
        let n = self.model.num_experts();
        let counts = self.model.param_counts();
        let bytes = self.model.bytes();
        let expert_dp = self.topo.expert_dp().max(1);
        let mut ranks = vec![RankWorkload::default(); dp];

        // --- Optimizer states: inherent ZeRO-2 + EP partitioning. ---
        let ne_opt_shard = counts.non_expert() * bytes.optimizer / dp as u64;
        for (rank, w) in ranks.iter_mut().enumerate() {
            w.non_expert_optimizer = ne_opt_shard;
            w.items.push(SaveItem {
                module: format!("zero-shard.rank{rank}"),
                part: StatePart::Optimizer,
                bytes: ne_opt_shard,
            });
        }
        let expert_opt_shard = counts.per_expert * bytes.optimizer / expert_dp as u64;
        for id in selected {
            for (g, rank) in self
                .topo
                .ranks_hosting_expert(id.expert, n)
                .into_iter()
                .enumerate()
            {
                ranks[rank].expert_optimizer += expert_opt_shard;
                ranks[rank].items.push(SaveItem {
                    module: format!("{}#o{g}", expert_module_name(&self.model, id)),
                    part: StatePart::Optimizer,
                    bytes: expert_opt_shard,
                });
            }
        }

        // --- Expert weights. ---
        let expert_w = counts.per_expert * bytes.weight;
        match strategy {
            ShardingStrategy::Baseline => {
                for id in selected {
                    let rank = self.topo.expert_ep_rank(id.expert, n); // EP group 0
                    ranks[rank].expert_weights += expert_w;
                    ranks[rank].items.push(SaveItem {
                        module: expert_module_name(&self.model, id),
                        part: StatePart::Weights,
                        bytes: expert_w,
                    });
                }
            }
            _ => {
                // EE: slice each expert's weights across its replicas.
                let groups = self.topo.num_ep_groups() as u64;
                let slice = expert_w / groups;
                let remainder = expert_w - slice * groups;
                for id in selected {
                    for (gi, rank) in self
                        .topo
                        .ranks_hosting_expert(id.expert, n)
                        .into_iter()
                        .enumerate()
                    {
                        let b = slice + if (gi as u64) < remainder { 1 } else { 0 };
                        ranks[rank].expert_weights += b;
                        ranks[rank].items.push(SaveItem {
                            module: format!("{}#w{gi}", expert_module_name(&self.model, id)),
                            part: StatePart::Weights,
                            bytes: b,
                        });
                    }
                }
            }
        }

        // --- Non-expert weights. ---
        let non_expert_modules: Vec<(String, u64)> = self
            .model
            .modules()
            .into_iter()
            .filter(|m| !m.kind.is_expert())
            .map(|m| (m.name, m.weight_bytes))
            .collect();
        match strategy {
            ShardingStrategy::Baseline | ShardingStrategy::EqualExpert => {
                for (name, b) in non_expert_modules {
                    ranks[0].non_expert_weights += b;
                    ranks[0].items.push(SaveItem {
                        module: name,
                        part: StatePart::Weights,
                        bytes: b,
                    });
                }
            }
            ShardingStrategy::FullySharded => {
                // Greedy LPT on non-expert weight load only.
                assign_greedy(&mut ranks, non_expert_modules, |w| w.non_expert_weights);
            }
            ShardingStrategy::FullyShardedAdaptive => {
                // Greedy least-total-load: fills the slack the PEC expert
                // pattern leaves on lightly loaded ranks.
                assign_greedy(&mut ranks, non_expert_modules, |w| w.total());
            }
        }

        CheckpointWorkload { per_rank: ranks }
    }

    /// The ideal per-rank workload of Eq. 8 (bytes).
    pub fn ideal_rank_workload(&self) -> u64 {
        let counts = self.model.param_counts();
        let b = self.model.bytes();
        let dp = self.topo.dp() as u64;
        let ep = self.topo.ep() as u64;
        (counts.non_expert() + counts.expert()) * b.optimizer / ep
            + counts.non_expert() * b.weight / dp
            + counts.expert() * b.weight / ep
    }
}

/// Canonical module name of an expert (`layer<transformer-idx>.expert<e>`).
pub fn expert_module_name(model: &MoeModelConfig, id: &ExpertId) -> String {
    let layer = model.moe_layer_indices()[id.layer];
    format!("layer{layer}.expert{}", id.expert)
}

/// Strips a shard-slice suffix (`#o0`, `#w1`, …) from an item module name,
/// recovering the module it belongs to.
pub fn base_module(item_module: &str) -> &str {
    item_module.split('#').next().unwrap_or(item_module)
}

/// Greedy longest-processing-time assignment: sort modules by descending
/// size, place each on the rank minimising `load_of` after placement.
fn assign_greedy(
    ranks: &mut [RankWorkload],
    mut modules: Vec<(String, u64)>,
    load_of: impl Fn(&RankWorkload) -> u64,
) {
    modules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (name, bytes) in modules {
        let (idx, _) = ranks
            .iter()
            .enumerate()
            .min_by_key(|(i, w)| (load_of(w), *i))
            .expect("at least one rank");
        ranks[idx].non_expert_weights += bytes;
        ranks[idx].items.push(SaveItem {
            module: name,
            part: StatePart::Weights,
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_moe::presets;

    fn planner(topo: ParallelTopology) -> ShardingPlanner {
        ShardingPlanner::new(presets::gpt_350m_16e(), topo).unwrap()
    }

    #[test]
    fn full_total_matches_model_checkpoint_size() {
        for topo in [
            ParallelTopology::case1(),
            ParallelTopology::case2(),
            ParallelTopology::case3(),
        ] {
            let p = planner(topo);
            for strategy in ShardingStrategy::ALL {
                let w = p.plan_full(strategy);
                let expected = p.model().full_checkpoint_bytes();
                let total = w.total_bytes();
                // Integer division of shards may shave a few bytes.
                assert!(expected - total < 4096, "{strategy}: {total} vs {expected}");
            }
        }
    }

    #[test]
    fn pec_total_matches_eq6() {
        let p = planner(ParallelTopology::case2());
        let pec = PecConfig::sequential(1, 16, 12);
        let w = p.plan_pec(ShardingStrategy::FullySharded, &pec, 0);
        let expected = p.model().pec_checkpoint_bytes(1);
        assert!(expected - w.total_bytes() < 4096);
    }

    #[test]
    fn baseline_concentrates_non_expert_on_rank0() {
        let p = planner(ParallelTopology::case1());
        let w = p.plan_full(ShardingStrategy::Baseline);
        assert!(w.per_rank[0].non_expert_weights > 0);
        for r in &w.per_rank[1..] {
            assert_eq!(r.non_expert_weights, 0);
        }
        let (rank, _) = w.bottleneck();
        assert_eq!(rank, 0, "rank0 must be the baseline bottleneck");
    }

    #[test]
    fn ee_only_helps_with_multiple_ep_groups() {
        // Case 1/2 have one EP group: EE == Baseline for expert weights.
        for topo in [ParallelTopology::case1(), ParallelTopology::case2()] {
            let p = planner(topo);
            let base = p.plan_full(ShardingStrategy::Baseline);
            let ee = p.plan_full(ShardingStrategy::EqualExpert);
            assert_eq!(base.bottleneck().1, ee.bottleneck().1);
        }
        // Case 3 has two groups: EE halves the expert-weight bottleneck part.
        let p = planner(ParallelTopology::case3());
        let base = p.plan_full(ShardingStrategy::Baseline);
        let ee = p.plan_full(ShardingStrategy::EqualExpert);
        assert!(ee.bottleneck().1 < base.bottleneck().1);
        let base_ew: u64 = base
            .per_rank
            .iter()
            .map(|r| r.expert_weights)
            .max()
            .unwrap();
        let ee_ew: u64 = ee.per_rank.iter().map(|r| r.expert_weights).max().unwrap();
        assert!((ee_ew as f64 / base_ew as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn fully_sharded_reduces_bottleneck_12_to_28_percent() {
        // The paper's full-saving reduction band (Section 6.2.1).
        for (topo, lo, hi) in [
            (ParallelTopology::case1(), 0.08, 0.35),
            (ParallelTopology::case2(), 0.08, 0.35),
            (ParallelTopology::case3(), 0.08, 0.35),
        ] {
            let p = planner(topo);
            let base = p.plan_full(ShardingStrategy::Baseline).bottleneck().1 as f64;
            let fs = p.plan_full(ShardingStrategy::FullySharded).bottleneck().1 as f64;
            let reduction = 1.0 - fs / base;
            assert!(
                (lo..hi).contains(&reduction),
                "{}: reduction {reduction}",
                p.topology()
            );
        }
    }

    #[test]
    fn adaptive_beats_equal_under_pec() {
        // With K_pec = 1 the expert workload is imbalanced (Eq. 9);
        // adaptive non-expert sharding must not be worse than equal.
        let p = planner(ParallelTopology::case1());
        let pec = PecConfig::sequential(1, 16, 12);
        for t in 0..4 {
            let en = p.plan_pec(ShardingStrategy::FullySharded, &pec, t);
            let an = p.plan_pec(ShardingStrategy::FullyShardedAdaptive, &pec, t);
            assert!(
                an.bottleneck().1 <= en.bottleneck().1,
                "t={t}: AN {} vs EN {}",
                an.bottleneck().1,
                en.bottleneck().1
            );
        }
    }

    #[test]
    fn pec_shrinks_bottleneck_vs_full() {
        let p = planner(ParallelTopology::case2());
        let pec = PecConfig::sequential(1, 16, 12);
        let full = p.plan_full(ShardingStrategy::FullySharded);
        let partial = p.plan_pec(ShardingStrategy::FullySharded, &pec, 0);
        assert!(partial.bottleneck().1 < full.bottleneck().1);
        assert!(partial.total_bytes() < full.total_bytes());
    }

    #[test]
    fn expert_optimizer_split_over_replicas() {
        // Case 3: expert_dp = 2, so each replica rank saves half an
        // expert's optimizer.
        let p = planner(ParallelTopology::case3());
        let w = p.plan_full(ShardingStrategy::Baseline);
        let per_expert_opt = p.model().param_counts().per_expert * p.model().bytes().optimizer;
        // Rank 1 hosts experts 2..3 of each of 12 layers (24 experts),
        // optimizer halved.
        let expected = 24 * per_expert_opt / 2;
        assert_eq!(w.per_rank[1].expert_optimizer, expected);
        assert_eq!(w.per_rank[9].expert_optimizer, expected);
    }

    #[test]
    fn imbalance_metric() {
        let p = planner(ParallelTopology::case2());
        let base = p.plan_full(ShardingStrategy::Baseline);
        let fs = p.plan_full(ShardingStrategy::FullySharded);
        assert!(base.imbalance() > fs.imbalance());
        assert!(fs.imbalance() >= 1.0);
    }

    #[test]
    fn items_account_for_all_bytes() {
        let p = planner(ParallelTopology::case3());
        let pec = PecConfig::sequential(2, 16, 12);
        let w = p.plan_pec(ShardingStrategy::FullyShardedAdaptive, &pec, 1);
        for r in &w.per_rank {
            let item_sum: u64 = r.items.iter().map(|i| i.bytes).sum();
            assert_eq!(item_sum, r.total());
        }
    }

    #[test]
    fn planner_rejects_indivisible_experts() {
        let model = presets::gpt_350m_16e(); // 16 experts
        let topo = ParallelTopology::dp_ep(1, 6, 6, 6).unwrap();
        assert!(matches!(
            ShardingPlanner::new(model, topo),
            Err(PlanError::ExpertsNotDivisible { .. })
        ));
    }

    #[test]
    fn ideal_workload_eq8_positive_and_below_total() {
        let p = planner(ParallelTopology::case1());
        let ideal = p.ideal_rank_workload();
        assert!(ideal > 0);
        assert!(ideal < p.model().full_checkpoint_bytes());
    }
}
