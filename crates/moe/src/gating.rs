//! Noisy top-k softmax gating (Eq. 1–2) and expert-capacity token dropping.
//!
//! This module provides the *mathematical* gate used both by the routing
//! simulator (for PLT accounting) and by the real training lab in
//! `moc-train`. Given per-expert logits for a token, [`top_k_gate`] returns
//! the selected experts with renormalised softmax weights; [`Dispatcher`]
//! applies capacity limits (GShard-style) and reports dropped tokens.

use rand::{RngExt, SeedableRng};

/// Numerically stable softmax over a logit slice.
///
/// # Examples
///
/// ```
/// let p = moc_moe::gating::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Selects the top-`k` experts by gate probability.
///
/// Returns `(expert index, renormalised weight)` pairs sorted by descending
/// weight. Ties are broken toward the lower expert index so the result is
/// deterministic.
///
/// # Panics
///
/// Panics if `k == 0` or `k > logits.len()`.
pub fn top_k_gate(logits: &[f64], k: usize) -> Vec<(usize, f64)> {
    assert!(
        k >= 1 && k <= logits.len(),
        "invalid k {k} for {} experts",
        logits.len()
    );
    let probs = softmax(logits);
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| {
        probs[b]
            .partial_cmp(&probs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let chosen = &order[..k];
    let norm: f64 = chosen.iter().map(|&i| probs[i]).sum();
    chosen
        .iter()
        .map(|&i| {
            (
                i,
                if norm > 0.0 {
                    probs[i] / norm
                } else {
                    1.0 / k as f64
                },
            )
        })
        .collect()
}

/// Configuration of a gating network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingConfig {
    /// Number of experts `N`.
    pub num_experts: usize,
    /// Experts activated per token.
    pub top_k: usize,
    /// Standard deviation of the Gaussian gate noise (`ε` in Eq. 2).
    pub noise_std: f64,
    /// Capacity factor: each expert accepts at most
    /// `ceil(capacity_factor · top_k · tokens / N)` tokens.
    pub capacity_factor: f64,
}

impl GatingConfig {
    /// Per-expert token capacity for a batch of `tokens` tokens.
    pub fn capacity(&self, tokens: usize) -> usize {
        let ideal =
            self.capacity_factor * self.top_k as f64 * tokens as f64 / self.num_experts as f64;
        ideal.ceil() as usize
    }
}

/// Outcome of dispatching one batch of tokens through a gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Tokens accepted per expert (post-capacity).
    pub accepted: Vec<u64>,
    /// Tokens dropped per expert due to capacity overflow.
    pub dropped: Vec<u64>,
}

impl DispatchOutcome {
    /// Total accepted token-assignments.
    pub fn total_accepted(&self) -> u64 {
        self.accepted.iter().sum()
    }

    /// Total dropped token-assignments.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

/// Applies noisy top-k gating with capacity limits over token logits.
///
/// The dispatcher is deterministic for a given seed: the Gaussian noise of
/// Eq. 2 comes from a seeded RNG.
#[derive(Debug)]
pub struct Dispatcher {
    config: GatingConfig,
    rng: rand::rngs::StdRng,
}

impl Dispatcher {
    /// Creates a dispatcher with the given gate configuration and RNG seed.
    pub fn new(config: GatingConfig, seed: u64) -> Self {
        Self {
            config,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// The gate configuration.
    pub fn config(&self) -> &GatingConfig {
        &self.config
    }

    /// Dispatches a batch of tokens, each described by its expert logits.
    ///
    /// Tokens are processed in order; once an expert is at capacity,
    /// further assignments to it are dropped (the token's weight on that
    /// expert is lost, matching GShard's overflow semantics).
    ///
    /// # Panics
    ///
    /// Panics if any token's logit slice length differs from `num_experts`.
    pub fn dispatch(&mut self, token_logits: &[Vec<f64>]) -> DispatchOutcome {
        let n = self.config.num_experts;
        let cap = self.config.capacity(token_logits.len());
        let mut accepted = vec![0u64; n];
        let mut dropped = vec![0u64; n];
        for logits in token_logits {
            assert_eq!(logits.len(), n, "logit arity mismatch");
            let noisy: Vec<f64> = logits
                .iter()
                .map(|&x| x + self.gauss() * self.config.noise_std)
                .collect();
            for (expert, _w) in top_k_gate(&noisy, self.config.top_k) {
                if accepted[expert] < cap as u64 {
                    accepted[expert] += 1;
                } else {
                    dropped[expert] += 1;
                }
            }
        }
        DispatchOutcome { accepted, dropped }
    }

    /// Standard normal sample (Box–Muller).
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.3, -1.2, 4.0, 0.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn top1_picks_argmax() {
        let g = top_k_gate(&[0.1, 5.0, 0.2], 1);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].0, 1);
        assert!((g[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top2_weights_renormalised() {
        let g = top_k_gate(&[1.0, 2.0, 3.0, -5.0], 2);
        assert_eq!(g[0].0, 2);
        assert_eq!(g[1].0, 1);
        let sum: f64 = g.iter().map(|&(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_ties_break_to_lower_index() {
        let g = top_k_gate(&[1.0, 1.0, 1.0], 2);
        assert_eq!(g[0].0, 0);
        assert_eq!(g[1].0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn top_k_zero_panics() {
        top_k_gate(&[1.0], 0);
    }

    #[test]
    fn capacity_formula() {
        let cfg = GatingConfig {
            num_experts: 8,
            top_k: 1,
            noise_std: 0.0,
            capacity_factor: 1.0,
        };
        assert_eq!(cfg.capacity(64), 8);
        let cfg2 = GatingConfig {
            capacity_factor: 1.25,
            ..cfg
        };
        assert_eq!(cfg2.capacity(64), 10);
    }

    #[test]
    fn dispatch_without_noise_is_deterministic() {
        let cfg = GatingConfig {
            num_experts: 4,
            top_k: 1,
            noise_std: 0.0,
            capacity_factor: 4.0,
        };
        let logits: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let mut l = vec![0.0; 4];
                l[i % 4] = 3.0;
                l
            })
            .collect();
        let a = Dispatcher::new(cfg, 1).dispatch(&logits);
        let b = Dispatcher::new(cfg, 2).dispatch(&logits);
        assert_eq!(a, b);
        assert_eq!(a.accepted, vec![4, 4, 4, 4]);
        assert_eq!(a.total_dropped(), 0);
    }

    #[test]
    fn dispatch_drops_over_capacity() {
        let cfg = GatingConfig {
            num_experts: 2,
            top_k: 1,
            noise_std: 0.0,
            capacity_factor: 0.5,
        };
        // All 8 tokens want expert 0; capacity = ceil(0.5*1*8/2) = 2.
        let logits: Vec<Vec<f64>> = (0..8).map(|_| vec![5.0, 0.0]).collect();
        let out = Dispatcher::new(cfg, 0).dispatch(&logits);
        assert_eq!(out.accepted[0], 2);
        assert_eq!(out.dropped[0], 6);
    }

    #[test]
    fn dispatch_total_assignments_conserved() {
        let cfg = GatingConfig {
            num_experts: 4,
            top_k: 2,
            noise_std: 0.5,
            capacity_factor: 1.0,
        };
        let logits: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![i as f64 % 3.0, 1.0, 0.5, 2.0])
            .collect();
        let out = Dispatcher::new(cfg, 7).dispatch(&logits);
        assert_eq!(out.total_accepted() + out.total_dropped(), 32 * 2);
    }

    #[test]
    fn same_seed_same_outcome_with_noise() {
        let cfg = GatingConfig {
            num_experts: 4,
            top_k: 1,
            noise_std: 1.0,
            capacity_factor: 2.0,
        };
        let logits: Vec<Vec<f64>> = (0..32).map(|_| vec![0.0; 4]).collect();
        let a = Dispatcher::new(cfg, 42).dispatch(&logits);
        let b = Dispatcher::new(cfg, 42).dispatch(&logits);
        assert_eq!(a, b);
    }
}
