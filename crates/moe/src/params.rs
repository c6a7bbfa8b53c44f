//! Parameter accounting: how many parameters live in the expert and
//! non-expert parts of a model, and how large its checkpoints are.
//!
//! These quantities feed Eq. 5 (`C_full`) and Eq. 6 (`C_pec`) of the paper
//! and reproduce the checkpoint composition of Fig. 2.

use crate::config::MoeModelConfig;

/// Parameter counts broken down by component.
///
/// `P_ne` (non-expert) and `P_e` (expert) of Eq. 5 are exposed as
/// [`ParamCounts::non_expert`] and [`ParamCounts::expert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamCounts {
    /// Token + position embedding parameters.
    pub embedding: u64,
    /// All attention sublayer parameters (QKV + output projections + biases).
    pub attention: u64,
    /// Dense (non-MoE) FFN sublayer parameters.
    pub dense_ffn: u64,
    /// Gating-network parameters across all MoE layers.
    pub gates: u64,
    /// LayerNorm parameters (two per layer + final).
    pub norms: u64,
    /// Parameters of a single expert FFN.
    pub per_expert: u64,
    /// Total expert parameters across all MoE layers (`P_e`).
    pub expert_total: u64,
}

impl ParamCounts {
    /// Non-expert parameter count (`P_ne`): everything except the experts.
    pub fn non_expert(&self) -> u64 {
        self.embedding + self.attention + self.dense_ffn + self.gates + self.norms
    }

    /// Expert parameter count (`P_e`).
    pub fn expert(&self) -> u64 {
        self.expert_total
    }

    /// Total parameters (`P_ne + P_e`).
    pub fn total(&self) -> u64 {
        self.non_expert() + self.expert()
    }

    /// Fraction of all parameters residing in experts.
    pub fn expert_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.expert() as f64 / self.total() as f64
        }
    }
}

/// Byte-level composition of a full checkpoint, reproducing Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointComposition {
    /// Bytes of expert weights.
    pub expert_weights: u64,
    /// Bytes of non-expert weights.
    pub non_expert_weights: u64,
    /// Bytes of expert optimizer states.
    pub expert_optimizer: u64,
    /// Bytes of non-expert optimizer states.
    pub non_expert_optimizer: u64,
}

impl CheckpointComposition {
    /// Total checkpoint bytes (`C_full`, Eq. 5).
    pub fn total(&self) -> u64 {
        self.expert_weights
            + self.non_expert_weights
            + self.expert_optimizer
            + self.non_expert_optimizer
    }

    /// The four component fractions in Fig. 2 order: expert weights,
    /// non-expert weights, expert optimizer, non-expert optimizer.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total() as f64;
        if t == 0.0 {
            return [0.0; 4];
        }
        [
            self.expert_weights as f64 / t,
            self.non_expert_weights as f64 / t,
            self.expert_optimizer as f64 / t,
            self.non_expert_optimizer as f64 / t,
        ]
    }
}

impl MoeModelConfig {
    /// Computes the parameter inventory of this architecture.
    ///
    /// Attention: `4h² + 4h` per layer (fused QKV + output projection with
    /// biases). FFN (dense or one expert): `2·h·(mult·h) + (mult+1)·h`.
    /// Gate: `h·N + N` per MoE layer. Norms: `2·2h` per layer plus a final
    /// `2h`. Embeddings: `vocab·h + seq·h` (tied LM head).
    ///
    /// # Examples
    ///
    /// ```
    /// use moc_moe::presets;
    /// let counts = presets::gpt_350m_16e().param_counts();
    /// // Expert parameters dominate the MoE model (Fig. 2: ~86%).
    /// assert!(counts.expert_fraction() > 0.8);
    /// ```
    pub fn param_counts(&self) -> ParamCounts {
        let h = self.hidden_size() as u64;
        let inter = self.ffn_intermediate() as u64;
        let layers = self.num_layers() as u64;
        let moe_layers = self.num_moe_layers() as u64;
        let dense_layers = layers - moe_layers;
        let n_exp = self.num_experts() as u64;

        let embedding = self.vocab_size() as u64 * h + self.max_seq_len() as u64 * h;
        let attention = layers * (4 * h * h + 4 * h);
        let ffn_params = 2 * h * inter + inter + h;
        let dense_ffn = dense_layers * ffn_params;
        let gates = moe_layers * (h * n_exp + n_exp);
        let norms = layers * 4 * h + 2 * h;
        let per_expert = ffn_params;
        let expert_total = moe_layers * n_exp * per_expert;

        ParamCounts {
            embedding,
            attention,
            dense_ffn,
            gates,
            norms,
            per_expert,
            expert_total,
        }
    }

    /// Bytes of a full (conventional) checkpoint, `C_full` of Eq. 5.
    pub fn full_checkpoint_bytes(&self) -> u64 {
        self.checkpoint_composition().total()
    }

    /// Byte-level checkpoint composition (Fig. 2).
    pub fn checkpoint_composition(&self) -> CheckpointComposition {
        let counts = self.param_counts();
        let b = self.bytes();
        CheckpointComposition {
            expert_weights: counts.expert() * b.weight,
            non_expert_weights: counts.non_expert() * b.weight,
            expert_optimizer: counts.expert() * b.optimizer,
            non_expert_optimizer: counts.non_expert() * b.optimizer,
        }
    }

    /// Bytes of one expert's checkpoint states (weights + optimizer).
    pub fn expert_state_bytes(&self) -> u64 {
        self.param_counts().per_expert * self.bytes().total()
    }

    /// Bytes of one expert's weights only.
    pub fn expert_weight_bytes(&self) -> u64 {
        self.param_counts().per_expert * self.bytes().weight
    }

    /// Bytes of one expert's optimizer states only.
    pub fn expert_optimizer_bytes(&self) -> u64 {
        self.param_counts().per_expert * self.bytes().optimizer
    }

    /// Bytes of a PEC checkpoint saving `k_pec` of `N` experts per MoE
    /// layer, `C_pec` of Eq. 6.
    ///
    /// # Panics
    ///
    /// Panics if `k_pec` exceeds the number of experts per layer.
    ///
    /// # Examples
    ///
    /// ```
    /// use moc_moe::presets;
    /// let cfg = presets::gpt_350m_16e();
    /// let full = cfg.full_checkpoint_bytes();
    /// let pec1 = cfg.pec_checkpoint_bytes(1);
    /// assert!(pec1 < full / 4, "K_pec = 1 shrinks the checkpoint substantially");
    /// ```
    pub fn pec_checkpoint_bytes(&self, k_pec: usize) -> u64 {
        assert!(
            k_pec <= self.num_experts(),
            "k_pec {k_pec} exceeds expert count {}",
            self.num_experts()
        );
        let counts = self.param_counts();
        let b = self.bytes().total();
        let saved_experts = self.num_moe_layers() as u64 * k_pec as u64;
        counts.non_expert() * b + saved_experts * counts.per_expert * b
    }

    /// `C_pec / C_full` ratio for a given `k_pec` (Fig. 10(a) y-axis).
    pub fn pec_size_ratio(&self, k_pec: usize) -> f64 {
        self.pec_checkpoint_bytes(k_pec) as f64 / self.full_checkpoint_bytes() as f64
    }

    /// Active parameters per token: non-expert + `top_k` experts per MoE
    /// layer (used by the compute model to size F&B FLOPs).
    pub fn active_params_per_token(&self) -> u64 {
        let counts = self.param_counts();
        counts.non_expert() + self.num_moe_layers() as u64 * self.top_k() as u64 * counts.per_expert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn gpt_350m_16e_total_matches_table1() {
        // Table 1 reports 1.7G parameters for GPT-350M-16E.
        let counts = presets::gpt_350m_16e().param_counts();
        let total = counts.total() as f64;
        assert!(
            (1.5e9..2.0e9).contains(&total),
            "total {total} should be ~1.7B"
        );
    }

    #[test]
    fn gpt_125m_8e_total_matches_table1() {
        // Table 1 reports 323M parameters for GPT-125M-8E.
        let counts = presets::gpt_125m_8e().param_counts();
        let total = counts.total() as f64;
        assert!(
            (2.9e8..3.6e8).contains(&total),
            "total {total} should be ~323M"
        );
    }

    #[test]
    fn composition_matches_fig2() {
        // Fig. 2: expert weights ~12%, non-expert weights ~2%,
        // expert optimizer ~74%, non-expert optimizer ~12%.
        let comp = presets::gpt_350m_16e().checkpoint_composition();
        let [ew, nw, eo, no] = comp.fractions();
        assert!((ew - 0.12).abs() < 0.02, "expert weights {ew}");
        assert!((nw - 0.02).abs() < 0.01, "non-expert weights {nw}");
        assert!((eo - 0.74).abs() < 0.04, "expert optimizer {eo}");
        assert!((no - 0.12).abs() < 0.03, "non-expert optimizer {no}");
    }

    #[test]
    fn pec_full_k_equals_full_checkpoint() {
        let cfg = presets::gpt_350m_16e();
        assert_eq!(
            cfg.pec_checkpoint_bytes(cfg.num_experts()),
            cfg.full_checkpoint_bytes()
        );
    }

    #[test]
    fn pec_size_monotone_in_k() {
        let cfg = presets::gpt_350m_16e();
        let mut prev = 0;
        for k in 1..=cfg.num_experts() {
            let s = cfg.pec_checkpoint_bytes(k);
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn pec_halving_k_removes_half_the_expert_bytes() {
        let cfg = presets::gpt_350m_16e();
        let expert_bytes = cfg.param_counts().expert() * cfg.bytes().total();
        let full = cfg.full_checkpoint_bytes();
        let half = cfg.pec_checkpoint_bytes(cfg.num_experts() / 2);
        assert_eq!(full - half, expert_bytes / 2);
    }

    #[test]
    #[should_panic(expected = "exceeds expert count")]
    fn pec_k_too_large_panics() {
        presets::gpt_350m_16e().pec_checkpoint_bytes(17);
    }

    #[test]
    fn active_params_smaller_than_total_for_moe() {
        let cfg = presets::gpt_350m_16e();
        let counts = cfg.param_counts();
        assert!(cfg.active_params_per_token() < counts.total());
        assert!(cfg.active_params_per_token() > counts.non_expert());
    }

    #[test]
    fn dense_model_has_zero_expert_params() {
        let cfg = MoeModelConfig::builder("d").dense().build().unwrap();
        let counts = cfg.param_counts();
        assert_eq!(counts.expert(), 0);
        assert_eq!(counts.gates, 0);
        assert_eq!(counts.expert_fraction(), 0.0);
        assert_eq!(counts.total(), counts.non_expert());
    }

    #[test]
    fn composition_total_equals_params_times_bytes() {
        let cfg = presets::gpt_125m_8e();
        let counts = cfg.param_counts();
        assert_eq!(
            cfg.full_checkpoint_bytes(),
            counts.total() * cfg.bytes().total()
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let comp = presets::gpt_350m_16e().checkpoint_composition();
        let sum: f64 = comp.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
