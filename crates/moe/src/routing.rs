//! Expert-load models and the unsaved-update tracker feeding PLT.
//!
//! The PLT metric (Eq. 7) needs, for every MoE layer and expert, the number
//! of tokens whose updates would be lost if training rolled back to the
//! expert's last checkpointed state. [`ExpertLoadTracker`] accumulates
//! routed-token counts per expert between checkpoints; [`LoadModel`]
//! produces deterministic per-iteration expert loads (balanced or skewed)
//! without running a real model, which the simulators use.

use crate::modules::ExpertId;
use rand::{RngExt, SeedableRng};

/// How token load distributes across experts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadProfile {
    /// Every expert receives the same number of tokens (auxiliary-loss
    /// balanced training, the common steady state).
    Balanced,
    /// Zipf-like skew with the given exponent (> 0): expert `i` receives
    /// load ∝ `1 / (i+1)^s`, with the hot expert rotating over iterations
    /// to model routing drift.
    Zipf {
        /// Skew exponent `s`.
        exponent: f64,
    },
    /// Random multinomial loads re-drawn each iteration (seeded).
    Noisy {
        /// Relative jitter in `[0, 1)` around the balanced share.
        jitter: f64,
    },
}

/// Deterministic per-iteration expert token-load generator.
#[derive(Debug, Clone)]
pub struct LoadModel {
    num_layers: usize,
    num_experts: usize,
    tokens_per_iteration: u64,
    top_k: usize,
    profile: LoadProfile,
    seed: u64,
}

impl LoadModel {
    /// Creates a load model for `num_layers` MoE layers of `num_experts`
    /// experts, where each iteration routes `tokens_per_iteration` tokens
    /// through each MoE layer with fan-out `top_k`.
    pub fn new(
        num_layers: usize,
        num_experts: usize,
        tokens_per_iteration: u64,
        top_k: usize,
        profile: LoadProfile,
        seed: u64,
    ) -> Self {
        assert!(num_experts > 0, "need at least one expert");
        Self {
            num_layers,
            num_experts,
            tokens_per_iteration,
            top_k,
            profile,
            seed,
        }
    }

    /// Number of MoE layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Experts per layer.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Tokens routed per layer per iteration.
    pub fn tokens_per_iteration(&self) -> u64 {
        self.tokens_per_iteration
    }

    /// Gate fan-out.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Per-expert token loads of `layer` at `iteration`.
    ///
    /// The sum over experts always equals
    /// `tokens_per_iteration · top_k` (assignments, not unique tokens).
    pub fn loads(&self, iteration: u64, layer: usize) -> Vec<u64> {
        let n = self.num_experts;
        let total = self.tokens_per_iteration * self.top_k as u64;
        match self.profile {
            LoadProfile::Balanced => {
                let base = total / n as u64;
                let rem = (total % n as u64) as usize;
                (0..n).map(|i| base + if i < rem { 1 } else { 0 }).collect()
            }
            LoadProfile::Zipf { exponent } => {
                let rot = (iteration as usize + layer) % n;
                let weights: Vec<f64> = (0..n)
                    .map(|i| {
                        let rank = (i + n - rot) % n;
                        1.0 / ((rank + 1) as f64).powf(exponent)
                    })
                    .collect();
                proportional_split(total, &weights)
            }
            LoadProfile::Noisy { jitter } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    self.seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(iteration)
                        .wrapping_add((layer as u64) << 32),
                );
                let weights: Vec<f64> = (0..n)
                    .map(|_| 1.0 + jitter * (2.0 * rng.random::<f64>() - 1.0))
                    .collect();
                proportional_split(total, &weights)
            }
        }
    }
}

/// Splits `total` into integer parts proportional to `weights`,
/// distributing the rounding remainder to the largest fractional parts.
fn proportional_split(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    let mut parts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * w / sum;
        let floor = exact.floor() as u64;
        parts.push(floor);
        assigned += floor;
        fracs.push((i, exact - floor as f64));
    }
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total - assigned;
    for (i, _) in fracs {
        if leftover == 0 {
            break;
        }
        parts[i] += 1;
        leftover -= 1;
    }
    parts
}

/// Tracks, per expert, the token-update volume not yet captured by any
/// checkpoint — the `L_{i,j}` inputs of the PLT metric (Eq. 7) and the
/// priority signal for load-aware selection (Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpertLoadTracker {
    num_layers: usize,
    num_experts: usize,
    /// `unsaved[layer][expert]`: token-assignments routed since the
    /// expert's last save.
    unsaved: Vec<Vec<u64>>,
    /// Lifetime token-assignments per layer (the `T_i · TopK_i` denominator
    /// accumulates from this).
    lifetime: Vec<u64>,
}

impl ExpertLoadTracker {
    /// Creates a tracker for `num_layers` MoE layers × `num_experts`.
    pub fn new(num_layers: usize, num_experts: usize) -> Self {
        Self {
            num_layers,
            num_experts,
            unsaved: vec![vec![0; num_experts]; num_layers],
            lifetime: vec![0; num_layers],
        }
    }

    /// Number of MoE layers tracked.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Experts per layer tracked.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Records one iteration's routed loads for `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != num_experts` or `layer` is out of range.
    pub fn record(&mut self, layer: usize, loads: &[u64]) {
        assert_eq!(loads.len(), self.num_experts, "load arity mismatch");
        let row = &mut self.unsaved[layer];
        let mut sum = 0;
        for (slot, &l) in row.iter_mut().zip(loads) {
            *slot += l;
            sum += l;
        }
        self.lifetime[layer] += sum;
    }

    /// Marks an expert as saved: its unsaved counter resets to zero.
    pub fn mark_saved(&mut self, id: ExpertId) {
        self.unsaved[id.layer][id.expert] = 0;
    }

    /// Unsaved token-assignments for an expert.
    pub fn unsaved(&self, id: ExpertId) -> u64 {
        self.unsaved[id.layer][id.expert]
    }

    /// Unsaved token-assignments per expert of a layer.
    pub fn unsaved_row(&self, layer: usize) -> &[u64] {
        &self.unsaved[layer]
    }

    /// Lifetime token-assignments of a layer (`T_i · TopK_i` so far).
    pub fn lifetime(&self, layer: usize) -> u64 {
        self.lifetime[layer]
    }

    /// Experts of `layer` ordered by descending unsaved load — the
    /// load-aware selection order. Ties break toward lower expert indices.
    pub fn hottest_experts(&self, layer: usize) -> Vec<usize> {
        let row = &self.unsaved[layer];
        let mut order: Vec<usize> = (0..self.num_experts).collect();
        order.sort_by(|&a, &b| row[b].cmp(&row[a]).then(a.cmp(&b)));
        order
    }

    /// Sum of unsaved counters across all layers and experts.
    pub fn total_unsaved(&self) -> u64 {
        self.unsaved.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_loads_sum_and_spread() {
        let m = LoadModel::new(2, 8, 64, 1, LoadProfile::Balanced, 0);
        let loads = m.loads(0, 0);
        assert_eq!(loads.iter().sum::<u64>(), 64);
        assert!(loads.iter().all(|&l| l == 8));
    }

    #[test]
    fn balanced_handles_remainder() {
        let m = LoadModel::new(1, 3, 10, 1, LoadProfile::Balanced, 0);
        let loads = m.loads(5, 0);
        assert_eq!(loads.iter().sum::<u64>(), 10);
        assert_eq!(loads, vec![4, 3, 3]);
    }

    #[test]
    fn zipf_loads_skewed_and_conserved() {
        let m = LoadModel::new(1, 8, 800, 1, LoadProfile::Zipf { exponent: 1.2 }, 0);
        let loads = m.loads(0, 0);
        assert_eq!(loads.iter().sum::<u64>(), 800);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max > 2 * min, "zipf should be skewed: {loads:?}");
    }

    #[test]
    fn zipf_hot_expert_rotates() {
        let m = LoadModel::new(1, 4, 400, 1, LoadProfile::Zipf { exponent: 1.0 }, 0);
        let hot0 = argmax(&m.loads(0, 0));
        let hot1 = argmax(&m.loads(1, 0));
        assert_ne!(hot0, hot1);
    }

    #[test]
    fn noisy_is_deterministic_per_seed() {
        let m1 = LoadModel::new(1, 8, 128, 2, LoadProfile::Noisy { jitter: 0.5 }, 9);
        let m2 = LoadModel::new(1, 8, 128, 2, LoadProfile::Noisy { jitter: 0.5 }, 9);
        assert_eq!(m1.loads(3, 0), m2.loads(3, 0));
        assert_eq!(m1.loads(3, 0).iter().sum::<u64>(), 256);
    }

    #[test]
    fn top_k_multiplies_assignments() {
        let m = LoadModel::new(1, 4, 100, 2, LoadProfile::Balanced, 0);
        assert_eq!(m.loads(0, 0).iter().sum::<u64>(), 200);
    }

    #[test]
    fn proportional_split_conserves_total() {
        let parts = proportional_split(100, &[0.5, 0.3, 0.2]);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert_eq!(parts, vec![50, 30, 20]);
    }

    #[test]
    fn proportional_split_zero_weights() {
        assert_eq!(proportional_split(10, &[0.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn tracker_accumulates_and_resets() {
        let mut t = ExpertLoadTracker::new(2, 4);
        t.record(0, &[1, 2, 3, 4]);
        t.record(0, &[1, 2, 3, 4]);
        t.record(1, &[10, 0, 0, 0]);
        assert_eq!(t.unsaved(ExpertId::new(0, 3)), 8);
        assert_eq!(t.lifetime(0), 20);
        assert_eq!(t.lifetime(1), 10);
        t.mark_saved(ExpertId::new(0, 3));
        assert_eq!(t.unsaved(ExpertId::new(0, 3)), 0);
        // Lifetime is not affected by saves.
        assert_eq!(t.lifetime(0), 20);
        assert_eq!(t.total_unsaved(), (2 + 4 + 6) + 10);
    }

    #[test]
    fn hottest_experts_orders_by_unsaved() {
        let mut t = ExpertLoadTracker::new(1, 4);
        t.record(0, &[5, 20, 20, 1]);
        assert_eq!(t.hottest_experts(0), vec![1, 2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "load arity mismatch")]
    fn tracker_rejects_wrong_arity() {
        let mut t = ExpertLoadTracker::new(1, 4);
        t.record(0, &[1, 2]);
    }

    fn argmax(v: &[u64]) -> usize {
        v.iter()
            .enumerate()
            .max_by_key(|&(_, &x)| x)
            .map(|(i, _)| i)
            .unwrap()
    }
}
