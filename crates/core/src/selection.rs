//! Partial Experts Checkpointing (PEC) expert selection — Section 3.
//!
//! At each checkpoint, PEC saves only `K_pec` of the `N` experts per MoE
//! layer. *Which* experts get saved matters twice over: it determines the
//! update loss on recovery (PLT) and, because experts are spread over EP
//! ranks, it determines the per-rank checkpointing workload (Section 3.2).
//!
//! Two strategies are implemented:
//!
//! * **Sequential** (Fig. 4): at checkpoint `t`, the MoE layer at position
//!   `l` saves experts `{(l + t·K + j) mod N : j < K}` — a static
//!   interleave across layers and EP ranks that balances workload and
//!   guarantees every expert is saved once every `⌈N/K⌉` checkpoints.
//! * **Load-aware**: saves the `K` experts with the most unsaved token
//!   updates, using an [`ExpertLoadTracker`].

use moc_moe::{ExpertId, ExpertLoadTracker};

/// PEC expert-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// Save every expert (conventional full checkpointing).
    Full,
    /// Rotating interleaved selection (Fig. 4), the paper's default.
    Sequential,
    /// Save the experts with the highest unsaved update volume.
    LoadAware,
}

/// Configuration of the PEC mechanism for one checkpoint level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PecConfig {
    /// Experts saved per MoE layer per checkpoint (`K_pec`).
    pub k: usize,
    /// Experts per MoE layer (`N`).
    pub num_experts: usize,
    /// Number of MoE layers (`N_moe`).
    pub num_moe_layers: usize,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
}

impl PecConfig {
    /// Creates a sequential-selection PEC configuration.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > num_experts`.
    pub fn sequential(k: usize, num_experts: usize, num_moe_layers: usize) -> Self {
        Self::new(
            k,
            num_experts,
            num_moe_layers,
            SelectionStrategy::Sequential,
        )
    }

    /// Creates a load-aware PEC configuration.
    pub fn load_aware(k: usize, num_experts: usize, num_moe_layers: usize) -> Self {
        Self::new(k, num_experts, num_moe_layers, SelectionStrategy::LoadAware)
    }

    /// Creates a full-saving configuration (`K = N`).
    pub fn full(num_experts: usize, num_moe_layers: usize) -> Self {
        Self::new(
            num_experts,
            num_experts,
            num_moe_layers,
            SelectionStrategy::Full,
        )
    }

    /// Creates a PEC configuration with an explicit strategy.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > num_experts`.
    pub fn new(
        k: usize,
        num_experts: usize,
        num_moe_layers: usize,
        strategy: SelectionStrategy,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= num_experts, "k {k} exceeds expert count {num_experts}");
        Self {
            k,
            num_experts,
            num_moe_layers,
            strategy,
        }
    }

    /// Whether this configuration saves all experts.
    pub fn is_full(&self) -> bool {
        self.k == self.num_experts
    }

    /// Number of experts saved model-wide per checkpoint (`K · N_moe`).
    pub fn experts_per_checkpoint(&self) -> usize {
        self.k * self.num_moe_layers
    }

    /// Checkpoints needed before every expert has been saved at least once
    /// under sequential selection (`⌈N/K⌉`).
    pub fn rotation_period(&self) -> usize {
        self.num_experts.div_ceil(self.k)
    }

    /// Experts selected for the checkpoint with 0-based index
    /// `checkpoint_index`, across all MoE layers.
    ///
    /// For [`SelectionStrategy::LoadAware`] a tracker must be supplied via
    /// [`PecConfig::select_with_tracker`]; this method falls back to
    /// sequential order in that case.
    pub fn select(&self, checkpoint_index: u64) -> Vec<ExpertId> {
        self.select_inner(checkpoint_index, None)
    }

    /// Experts selected at `checkpoint_index`, consulting `tracker` for
    /// load-aware prioritisation.
    pub fn select_with_tracker(
        &self,
        checkpoint_index: u64,
        tracker: &ExpertLoadTracker,
    ) -> Vec<ExpertId> {
        self.select_inner(checkpoint_index, Some(tracker))
    }

    fn select_inner(
        &self,
        checkpoint_index: u64,
        tracker: Option<&ExpertLoadTracker>,
    ) -> Vec<ExpertId> {
        let n = self.num_experts;
        let mut out = Vec::with_capacity(self.experts_per_checkpoint());
        match (self.strategy, tracker) {
            (SelectionStrategy::Full, _) => {
                for layer in 0..self.num_moe_layers {
                    for expert in 0..n {
                        out.push(ExpertId::new(layer, expert));
                    }
                }
            }
            (SelectionStrategy::LoadAware, Some(t)) => {
                assert_eq!(t.num_layers(), self.num_moe_layers, "tracker layer arity");
                assert_eq!(t.num_experts(), n, "tracker expert arity");
                for layer in 0..self.num_moe_layers {
                    for &expert in t.hottest_experts(layer).iter().take(self.k) {
                        out.push(ExpertId::new(layer, expert));
                    }
                }
            }
            (SelectionStrategy::Sequential, _) | (SelectionStrategy::LoadAware, None) => {
                for layer in 0..self.num_moe_layers {
                    let base = layer as u64 + checkpoint_index * self.k as u64;
                    for j in 0..self.k {
                        let expert = ((base + j as u64) % n as u64) as usize;
                        out.push(ExpertId::new(layer, expert));
                    }
                }
            }
        }
        out
    }

    /// How many of the selected experts at `checkpoint_index` live on each
    /// EP rank, for a layer-expert → EP-rank placement function.
    ///
    /// This is the per-rank *expert-save count* used to reason about
    /// workload imbalance (Eq. 9).
    pub fn selection_load_per_ep_rank(
        &self,
        checkpoint_index: u64,
        ep_degree: usize,
        placement: impl Fn(usize) -> usize,
    ) -> Vec<usize> {
        let mut loads = vec![0usize; ep_degree];
        for id in self.select(checkpoint_index) {
            let rank = placement(id.expert);
            assert!(rank < ep_degree, "placement returned out-of-range rank");
            loads[rank] += 1;
        }
        loads
    }

    /// Whether the PEC configuration satisfies the imbalance condition of
    /// Eq. 9 for a topology (`true` means the expert-save workload cannot
    /// divide evenly over the EP ranks / expert replicas).
    pub fn is_imbalanced(&self, ep_degree: usize, dp_degree: usize) -> bool {
        let kn = self.k * self.num_moe_layers;
        if !kn.is_multiple_of(ep_degree) {
            return true;
        }
        let per_rank = kn / ep_degree;
        let replicas = dp_degree / ep_degree;
        replicas > 0 && !per_rank.is_multiple_of(replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_sequence() {
        // Fig. 4: MoE layers 1,3,5,7 (positions 0..4), N = 3 ranks with one
        // expert each, K = 1. First checkpoint saves experts (0,1,2,0) per
        // layer position; the next saves (1,2,0,1).
        let pec = PecConfig::sequential(1, 3, 4);
        let t0: Vec<usize> = pec.select(0).iter().map(|e| e.expert).collect();
        assert_eq!(t0, vec![0, 1, 2, 0]);
        let t1: Vec<usize> = pec.select(1).iter().map(|e| e.expert).collect();
        assert_eq!(t1, vec![1, 2, 0, 1]);
    }

    #[test]
    fn sequential_covers_all_experts_in_rotation_period() {
        for (k, n) in [(1, 8), (2, 8), (4, 16), (3, 8), (5, 16)] {
            let pec = PecConfig::sequential(k, n, 3);
            let mut saved = vec![vec![false; n]; 3];
            for t in 0..pec.rotation_period() as u64 {
                for id in pec.select(t) {
                    saved[id.layer][id.expert] = true;
                }
            }
            for layer in &saved {
                assert!(
                    layer.iter().all(|&s| s),
                    "k={k} n={n}: rotation must cover all experts"
                );
            }
        }
    }

    #[test]
    fn sequential_selects_k_per_layer() {
        let pec = PecConfig::sequential(3, 8, 5);
        for t in 0..20 {
            let sel = pec.select(t);
            assert_eq!(sel.len(), 15);
            for layer in 0..5 {
                let count = sel.iter().filter(|e| e.layer == layer).count();
                assert_eq!(count, 3);
            }
        }
    }

    #[test]
    fn full_selects_everything() {
        let pec = PecConfig::full(4, 2);
        let sel = pec.select(9);
        assert_eq!(sel.len(), 8);
        assert!(pec.is_full());
    }

    #[test]
    fn load_aware_picks_hottest() {
        let mut tracker = ExpertLoadTracker::new(2, 4);
        tracker.record(0, &[100, 5, 50, 1]);
        tracker.record(1, &[1, 2, 3, 400]);
        let pec = PecConfig::load_aware(2, 4, 2);
        let sel = pec.select_with_tracker(0, &tracker);
        let layer0: Vec<usize> = sel
            .iter()
            .filter(|e| e.layer == 0)
            .map(|e| e.expert)
            .collect();
        let layer1: Vec<usize> = sel
            .iter()
            .filter(|e| e.layer == 1)
            .map(|e| e.expert)
            .collect();
        assert_eq!(layer0, vec![0, 2]);
        assert_eq!(layer1, vec![3, 2]);
    }

    #[test]
    fn load_aware_without_tracker_falls_back_to_sequential() {
        let la = PecConfig::load_aware(1, 4, 2);
        let seq = PecConfig::sequential(1, 4, 2);
        assert_eq!(la.select(3), seq.select(3));
    }

    #[test]
    fn rotation_period_ceil() {
        assert_eq!(PecConfig::sequential(3, 8, 1).rotation_period(), 3);
        assert_eq!(PecConfig::sequential(4, 8, 1).rotation_period(), 2);
        assert_eq!(PecConfig::sequential(8, 8, 1).rotation_period(), 1);
    }

    #[test]
    fn selection_load_per_rank_balances_over_time() {
        // 4 MoE layers, 8 experts over 8 EP ranks (1 expert each), K=1:
        // each checkpoint touches 4 of 8 ranks (imbalanced, Eq. 9), but a
        // full rotation touches all ranks equally.
        let pec = PecConfig::sequential(1, 8, 4);
        assert!(pec.is_imbalanced(8, 8));
        let mut totals = vec![0usize; 8];
        for t in 0..8 {
            let loads = pec.selection_load_per_ep_rank(t, 8, |e| e);
            assert_eq!(loads.iter().sum::<usize>(), 4);
            for (tot, l) in totals.iter_mut().zip(&loads) {
                *tot += l;
            }
        }
        assert!(totals.iter().all(|&t| t == 4), "totals {totals:?}");
    }

    #[test]
    fn imbalance_condition_eq9() {
        // K·N_moe = 12, D_ep = 8 -> 12 mod 8 != 0: imbalanced (paper's
        // GPT-350M-16E K=1 example).
        let pec = PecConfig::sequential(1, 16, 12);
        assert!(pec.is_imbalanced(8, 8));
        // K·N_moe = 16, D_ep = 16, D_dp = 16: 16 mod 16 == 0 and
        // 1 mod 1 == 0: balanced.
        let pec = PecConfig::sequential(1, 16, 16);
        assert!(!pec.is_imbalanced(16, 16));
        // Second clause: per-rank 2, replicas 2 -> balanced; replicas 4 ->
        // 2 mod 4 != 0 -> imbalanced.
        let pec = PecConfig::sequential(2, 16, 16);
        assert!(!pec.is_imbalanced(16, 32));
        assert!(pec.is_imbalanced(16, 64));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        PecConfig::sequential(0, 8, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds expert count")]
    fn oversize_k_panics() {
        PecConfig::sequential(9, 8, 2);
    }
}
