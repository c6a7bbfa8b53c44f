//! Hybrid-parallel topology: which rank lives where and owns what.
//!
//! The paper's setting is ZeRO-2 data parallelism combined with expert
//! parallelism (Section 2.2): non-expert layers are replicated across all
//! DP ranks with their optimizer states ZeRO-partitioned; each MoE layer's
//! experts are spread over an EP group of `ep` consecutive ranks; when
//! `dp > ep` there are `dp / ep` EP groups each holding a full replica of
//! the experts (Fig. 6). [`ParallelTopology`] captures that layout plus the
//! physical node mapping and provides the Table-2 experiment cases.
use std::fmt;

/// Error constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A degree field was zero.
    ZeroField(&'static str),
    /// `ep` does not divide `dp`.
    EpDoesNotDivideDp {
        /// Expert-parallel degree.
        ep: usize,
        /// Data-parallel degree.
        dp: usize,
    },
    /// The node grid does not hold `dp · tp · pp` GPUs.
    WorldSizeMismatch {
        /// GPUs available (`nodes · gpus_per_node`).
        gpus: usize,
        /// GPUs required (`dp · tp · pp`).
        world: usize,
    },
}

/// Coordinates of one global rank in the DP × PP × TP grid.
///
/// The global rank order fixes TP as the fastest-varying axis, then PP,
/// then DP: `rank = (dp · pp_degree + pp) · tp_degree + tp`. With that
/// convention the `tp_degree · pp_degree` ranks of one DP index — its
/// *shard group*, which jointly holds one model replica's worth of
/// checkpoint duties — occupy consecutive global ranks, so the physical
/// node mapping of [`ParallelTopology::node_of`] stays consistent between
/// the per-DP-rank and per-global-rank views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankCoord {
    /// Data-parallel index (`0..dp`): which gradient-group member.
    pub dp: usize,
    /// Tensor-parallel index (`0..tp`): which tensor slice.
    pub tp: usize,
    /// Pipeline-parallel index (`0..pp`): which pipeline stage.
    pub pp: usize,
}

impl fmt::Display for RankCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(dp={}, tp={}, pp={})", self.dp, self.tp, self.pp)
    }
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroField(name) => write!(f, "field `{name}` must be positive"),
            TopologyError::EpDoesNotDivideDp { ep, dp } => {
                write!(f, "ep degree {ep} must divide dp degree {dp}")
            }
            TopologyError::WorldSizeMismatch { gpus, world } => {
                write!(f, "cluster has {gpus} gpus but parallelism needs {world}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A hybrid-parallel training topology (DP × TP × PP with EP inside DP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelTopology {
    nodes: usize,
    gpus_per_node: usize,
    dp: usize,
    tp: usize,
    pp: usize,
    ep: usize,
}

impl ParallelTopology {
    /// Creates a topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if a degree is zero, `ep ∤ dp`, or the
    /// node grid cannot hold `dp·tp·pp` GPUs.
    pub fn new(
        nodes: usize,
        gpus_per_node: usize,
        dp: usize,
        tp: usize,
        pp: usize,
        ep: usize,
    ) -> Result<Self, TopologyError> {
        for (v, name) in [
            (nodes, "nodes"),
            (gpus_per_node, "gpus_per_node"),
            (dp, "dp"),
            (tp, "tp"),
            (pp, "pp"),
            (ep, "ep"),
        ] {
            if v == 0 {
                return Err(TopologyError::ZeroField(name));
            }
        }
        if !dp.is_multiple_of(ep) {
            return Err(TopologyError::EpDoesNotDivideDp { ep, dp });
        }
        let world = dp * tp * pp;
        let gpus = nodes * gpus_per_node;
        if world != gpus {
            return Err(TopologyError::WorldSizeMismatch { gpus, world });
        }
        Ok(Self {
            nodes,
            gpus_per_node,
            dp,
            tp,
            pp,
            ep,
        })
    }

    /// Pure DP + EP topology (`tp = pp = 1`), the paper's main setting.
    pub fn dp_ep(
        nodes: usize,
        gpus_per_node: usize,
        dp: usize,
        ep: usize,
    ) -> Result<Self, TopologyError> {
        Self::new(nodes, gpus_per_node, dp, 1, 1, ep)
    }

    /// Table 2, Case 1: 1 node × 8 GPUs, DP=8, EP=8 (2 experts/GPU for
    /// GPT-350M-16E).
    pub fn case1() -> Self {
        Self::dp_ep(1, 8, 8, 8).expect("case1 is valid")
    }

    /// Table 2, Case 2: 2 nodes × 8 GPUs, DP=16, EP=16 (1 expert/GPU).
    pub fn case2() -> Self {
        Self::dp_ep(2, 8, 16, 16).expect("case2 is valid")
    }

    /// Table 2, Case 3: 2 nodes × 8 GPUs, DP=16, EP=8 (2 EP groups,
    /// 2 experts/GPU).
    pub fn case3() -> Self {
        Self::dp_ep(2, 8, 16, 8).expect("case3 is valid")
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Data-parallel degree (`D_dp`).
    pub fn dp(&self) -> usize {
        self.dp
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Pipeline-parallel degree.
    pub fn pp(&self) -> usize {
        self.pp
    }

    /// Expert-parallel degree (`D_ep`).
    pub fn ep(&self) -> usize {
        self.ep
    }

    /// Total GPU count (`dp · tp · pp`).
    pub fn world_size(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// Number of EP groups (`dp / ep`), the expert replication factor
    /// across which expert states can be checkpoint-sharded (Section 4.1).
    pub fn num_ep_groups(&self) -> usize {
        self.dp / self.ep
    }

    /// Expert data-parallel degree: how many replicas of each expert's
    /// optimizer exist (`dp / ep`); ZeRO partitions expert optimizer
    /// states across this group.
    pub fn expert_dp(&self) -> usize {
        self.dp / self.ep
    }

    /// The EP group a DP rank belongs to.
    pub fn ep_group_of(&self, dp_rank: usize) -> usize {
        assert!(dp_rank < self.dp, "dp rank out of range");
        dp_rank / self.ep
    }

    /// A DP rank's position within its EP group.
    pub fn ep_rank_of(&self, dp_rank: usize) -> usize {
        assert!(dp_rank < self.dp, "dp rank out of range");
        dp_rank % self.ep
    }

    /// Physical node hosting a DP rank (ranks fill nodes in order; with
    /// TP/PP, each DP rank's shard group is collapsed onto its first GPU
    /// for checkpoint accounting).
    pub fn node_of(&self, dp_rank: usize) -> usize {
        assert!(dp_rank < self.dp, "dp rank out of range");
        let gpus_per_dp_rank = self.tp * self.pp;
        (dp_rank * gpus_per_dp_rank) / self.gpus_per_node
    }

    /// Experts of one MoE layer hosted per GPU, for a layer of
    /// `num_experts` experts ("Experts/GPU" of Table 2).
    ///
    /// # Panics
    ///
    /// Panics if `ep` does not divide `num_experts`.
    pub fn experts_per_gpu(&self, num_experts: usize) -> usize {
        assert!(
            num_experts.is_multiple_of(self.ep),
            "expert count {num_experts} must divide evenly over ep {}",
            self.ep
        );
        num_experts / self.ep
    }

    /// The EP rank (within every EP group) hosting expert `expert` of a
    /// layer with `num_experts` experts. Experts are placed in contiguous
    /// blocks, the DeepSpeed-MoE convention.
    pub fn expert_ep_rank(&self, expert: usize, num_experts: usize) -> usize {
        assert!(expert < num_experts, "expert index out of range");
        expert / self.experts_per_gpu(num_experts)
    }

    /// All DP ranks hosting a replica of expert `expert` (one per EP
    /// group).
    pub fn ranks_hosting_expert(&self, expert: usize, num_experts: usize) -> Vec<usize> {
        let ep_rank = self.expert_ep_rank(expert, num_experts);
        (0..self.num_ep_groups())
            .map(|g| g * self.ep + ep_rank)
            .collect()
    }

    /// All DP ranks on a given node.
    pub fn ranks_on_node(&self, node: usize) -> Vec<usize> {
        (0..self.dp).filter(|&r| self.node_of(r) == node).collect()
    }

    /// Coordinates of a global rank (TP fastest, then PP, then DP).
    pub fn coords_of(&self, global_rank: usize) -> RankCoord {
        assert!(
            global_rank < self.world_size(),
            "global rank {global_rank} outside world {}",
            self.world_size()
        );
        RankCoord {
            dp: global_rank / (self.tp * self.pp),
            tp: global_rank % self.tp,
            pp: (global_rank / self.tp) % self.pp,
        }
    }

    /// Global rank of a coordinate.
    pub fn global_rank_of(&self, coord: RankCoord) -> usize {
        assert!(
            coord.dp < self.dp && coord.tp < self.tp && coord.pp < self.pp,
            "coordinate {coord} outside DP={} TP={} PP={}",
            self.dp,
            self.tp,
            self.pp
        );
        (coord.dp * self.pp + coord.pp) * self.tp + coord.tp
    }

    /// Number of DP gradient groups (`tp · pp`): sets of ranks sharing
    /// tensor/pipeline coordinates whose gradients are all-reduced
    /// together.
    pub fn num_dp_groups(&self) -> usize {
        self.tp * self.pp
    }

    /// Number of shard groups (`dp`): each shard group is one DP index's
    /// `tp · pp` ranks, jointly owning one replica's checkpoint duties.
    pub fn num_shard_groups(&self) -> usize {
        self.dp
    }

    /// The DP gradient group of a global rank: the ranks sharing its
    /// `(tp, pp)` coordinates, ordered by DP index (the all-reduce fold
    /// order).
    pub fn dp_group(&self, global_rank: usize) -> Vec<usize> {
        let c = self.coords_of(global_rank);
        (0..self.dp)
            .map(|dp| self.global_rank_of(RankCoord { dp, ..c }))
            .collect()
    }

    /// The TP group of a global rank: the ranks sharing its `(dp, pp)`
    /// coordinates, ordered by TP index (the replica-consistency
    /// exchange ring).
    pub fn tp_group(&self, global_rank: usize) -> Vec<usize> {
        let c = self.coords_of(global_rank);
        (0..self.tp)
            .map(|tp| self.global_rank_of(RankCoord { tp, ..c }))
            .collect()
    }

    /// The PP group of a global rank: the ranks sharing its `(dp, tp)`
    /// coordinates, ordered by pipeline stage (the send/recv relay
    /// chain).
    pub fn pp_group(&self, global_rank: usize) -> Vec<usize> {
        let c = self.coords_of(global_rank);
        (0..self.pp)
            .map(|pp| self.global_rank_of(RankCoord { pp, ..c }))
            .collect()
    }

    /// The shard group of a global rank: all `tp · pp` ranks sharing its
    /// DP index, which jointly own the checkpoint shards of one model
    /// replica and are recovered together when any of them dies.
    pub fn shard_group(&self, global_rank: usize) -> Vec<usize> {
        let c = self.coords_of(global_rank);
        let base = c.dp * self.tp * self.pp;
        (base..base + self.tp * self.pp).collect()
    }

    /// Physical node hosting a *global* rank (ranks fill nodes in order).
    pub fn node_of_global(&self, global_rank: usize) -> usize {
        assert!(
            global_rank < self.world_size(),
            "global rank {global_rank} outside world {}",
            self.world_size()
        );
        global_rank / self.gpus_per_node
    }

    /// All global ranks hosted on a given node.
    pub fn global_ranks_on_node(&self, node: usize) -> Vec<usize> {
        (0..self.world_size())
            .filter(|&r| self.node_of_global(r) == node)
            .collect()
    }

    /// The pipeline stage owning model layer `layer` of `num_layers`:
    /// layers are split into `pp` contiguous blocks, earliest layers on
    /// stage 0.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= num_layers` or `num_layers < pp` (a stage
    /// would own no layer).
    pub fn stage_of_layer(&self, layer: usize, num_layers: usize) -> usize {
        assert!(layer < num_layers, "layer index out of range");
        assert!(
            num_layers >= self.pp,
            "{num_layers} layers cannot fill {} pipeline stages",
            self.pp
        );
        layer * self.pp / num_layers
    }
}

impl fmt::Display for ParallelTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} gpus, DP={} TP={} PP={} EP={}",
            self.nodes, self.gpus_per_node, self.dp, self.tp, self.pp, self.ep
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_cases() {
        let c1 = ParallelTopology::case1();
        assert_eq!(c1.world_size(), 8);
        assert_eq!(c1.num_ep_groups(), 1);
        assert_eq!(c1.experts_per_gpu(16), 2);

        let c2 = ParallelTopology::case2();
        assert_eq!(c2.world_size(), 16);
        assert_eq!(c2.num_ep_groups(), 1);
        assert_eq!(c2.experts_per_gpu(16), 1);

        let c3 = ParallelTopology::case3();
        assert_eq!(c3.world_size(), 16);
        assert_eq!(c3.num_ep_groups(), 2);
        assert_eq!(c3.experts_per_gpu(16), 2);
    }

    #[test]
    fn ep_must_divide_dp() {
        let err = ParallelTopology::dp_ep(1, 8, 8, 3);
        assert_eq!(err, Err(TopologyError::EpDoesNotDivideDp { ep: 3, dp: 8 }));
    }

    #[test]
    fn world_size_must_match_gpus() {
        let err = ParallelTopology::dp_ep(1, 8, 16, 8);
        assert!(matches!(err, Err(TopologyError::WorldSizeMismatch { .. })));
    }

    #[test]
    fn zero_fields_rejected() {
        assert_eq!(
            ParallelTopology::new(0, 8, 8, 1, 1, 8),
            Err(TopologyError::ZeroField("nodes"))
        );
    }

    #[test]
    fn ep_groups_and_ranks() {
        let t = ParallelTopology::case3();
        assert_eq!(t.ep_group_of(0), 0);
        assert_eq!(t.ep_group_of(7), 0);
        assert_eq!(t.ep_group_of(8), 1);
        assert_eq!(t.ep_rank_of(11), 3);
    }

    #[test]
    fn node_mapping_fills_in_order() {
        let t = ParallelTopology::case2();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.ranks_on_node(1), (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn node_mapping_with_tp() {
        // 2 nodes x 8 gpus, dp=4, tp=4: each DP rank spans 4 GPUs.
        let t = ParallelTopology::new(2, 8, 4, 4, 1, 4).unwrap();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 0);
        assert_eq!(t.node_of(2), 1);
        assert_eq!(t.node_of(3), 1);
    }

    #[test]
    fn expert_placement_contiguous_blocks() {
        let t = ParallelTopology::case1(); // ep=8, 16 experts -> 2/gpu
        assert_eq!(t.expert_ep_rank(0, 16), 0);
        assert_eq!(t.expert_ep_rank(1, 16), 0);
        assert_eq!(t.expert_ep_rank(2, 16), 1);
        assert_eq!(t.expert_ep_rank(15, 16), 7);
    }

    #[test]
    fn expert_replicas_one_per_group() {
        let t = ParallelTopology::case3(); // 2 groups of 8
        let hosts = t.ranks_hosting_expert(5, 16); // ep_rank = 2
        assert_eq!(hosts, vec![2, 10]);
        let t1 = ParallelTopology::case1();
        assert_eq!(t1.ranks_hosting_expert(5, 16), vec![2]);
    }

    #[test]
    #[should_panic(expected = "must divide evenly")]
    fn uneven_experts_panic() {
        ParallelTopology::case1().experts_per_gpu(12);
    }

    #[test]
    fn display_format() {
        let t = ParallelTopology::case1();
        assert_eq!(t.to_string(), "1x8 gpus, DP=8 TP=1 PP=1 EP=8");
    }

    #[test]
    fn coords_roundtrip_over_full_grid() {
        let t = ParallelTopology::new(2, 8, 2, 2, 4, 2).unwrap();
        for g in 0..t.world_size() {
            let c = t.coords_of(g);
            assert_eq!(t.global_rank_of(c), g);
        }
        // TP varies fastest: consecutive ranks differ in tp first.
        assert_eq!(
            t.coords_of(0),
            RankCoord {
                dp: 0,
                tp: 0,
                pp: 0
            }
        );
        assert_eq!(
            t.coords_of(1),
            RankCoord {
                dp: 0,
                tp: 1,
                pp: 0
            }
        );
        assert_eq!(
            t.coords_of(2),
            RankCoord {
                dp: 0,
                tp: 0,
                pp: 1
            }
        );
        assert_eq!(
            t.coords_of(8),
            RankCoord {
                dp: 1,
                tp: 0,
                pp: 0
            }
        );
    }

    #[test]
    fn groups_partition_the_world() {
        let t = ParallelTopology::new(3, 8, 3, 2, 4, 3).unwrap();
        let world = t.world_size();
        assert_eq!(t.num_dp_groups() * t.dp(), world);
        assert_eq!(t.num_shard_groups() * t.tp() * t.pp(), world);
        for g in 0..world {
            assert_eq!(t.dp_group(g).len(), t.dp());
            assert_eq!(t.tp_group(g).len(), t.tp());
            assert_eq!(t.pp_group(g).len(), t.pp());
            assert_eq!(t.shard_group(g).len(), t.tp() * t.pp());
            assert!(t.dp_group(g).contains(&g));
            assert!(t.tp_group(g).contains(&g));
            assert!(t.pp_group(g).contains(&g));
            assert!(t.shard_group(g).contains(&g));
        }
    }

    #[test]
    fn dp_group_ordered_by_dp_index() {
        let t = ParallelTopology::new(1, 8, 2, 2, 2, 2).unwrap();
        // Rank 1 = (dp 0, tp 1, pp 0); its DP peer is (dp 1, tp 1, pp 0).
        assert_eq!(t.dp_group(1), vec![1, 5]);
        // Rank 2 = (dp 0, tp 0, pp 1); PP chain is [0, 2] in stage order.
        assert_eq!(t.pp_group(2), vec![0, 2]);
        assert_eq!(t.tp_group(2), vec![2, 3]);
        assert_eq!(t.shard_group(5), vec![4, 5, 6, 7]);
    }

    #[test]
    fn global_node_mapping_matches_dp_mapping() {
        let t = ParallelTopology::new(2, 8, 4, 2, 2, 4).unwrap();
        for d in 0..t.dp() {
            let g = t.global_rank_of(RankCoord {
                dp: d,
                tp: 0,
                pp: 0,
            });
            assert_eq!(t.node_of_global(g), t.node_of(d));
        }
        let all: Vec<usize> = (0..t.nodes())
            .flat_map(|n| t.global_ranks_on_node(n))
            .collect();
        assert_eq!(all, (0..t.world_size()).collect::<Vec<_>>());
    }

    #[test]
    fn stage_of_layer_splits_contiguously() {
        let t = ParallelTopology::new(1, 8, 2, 2, 2, 2).unwrap(); // pp = 2
        assert_eq!(t.stage_of_layer(0, 4), 0);
        assert_eq!(t.stage_of_layer(1, 4), 0);
        assert_eq!(t.stage_of_layer(2, 4), 1);
        assert_eq!(t.stage_of_layer(3, 4), 1);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn stage_of_layer_rejects_starved_stage() {
        let t = ParallelTopology::new(1, 8, 2, 1, 4, 2).unwrap();
        t.stage_of_layer(0, 2);
    }
}
