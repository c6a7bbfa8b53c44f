//! Model presets matching Table 1 of the paper plus the LLaMA-like MoE
//! configurations used by the scaling simulations (Section 6.2.4).

use crate::config::{MoeModelConfig, StateBytes};

/// GPT-125M-8E (Table 1): 12 layers, hidden 768, 12 heads, 6 MoE layers,
/// 8 experts per layer, ≈323M parameters. Used for the PLT correlation
/// study of Fig. 5.
pub fn gpt_125m_8e() -> MoeModelConfig {
    MoeModelConfig::builder("GPT-125M-8E")
        .num_layers(12)
        .hidden_size(768)
        .num_heads(12)
        .vocab_size(50_257)
        .max_seq_len(2048)
        .moe_every_other_layer()
        .num_experts(8)
        .top_k(1)
        .build()
        .expect("preset is valid")
}

/// GPT-350M-16E (Table 1): 24 layers, hidden 1024, 16 heads, 12 MoE layers,
/// 16 experts per layer, ≈1.7B parameters. The main evaluation model.
pub fn gpt_350m_16e() -> MoeModelConfig {
    MoeModelConfig::builder("GPT-350M-16E")
        .num_layers(24)
        .hidden_size(1024)
        .num_heads(16)
        .vocab_size(50_257)
        .max_seq_len(2048)
        .moe_every_other_layer()
        .num_experts(16)
        .top_k(1)
        .build()
        .expect("preset is valid")
}

/// SwinV2-MoE (Table 1), approximated as a flat transformer with the same
/// MoE structure: 24 blocks ([2, 2, 18, 2] stages), 10 MoE layers,
/// 8 experts per layer, ≈173M parameters.
///
/// The hierarchical window attention of SwinV2 is irrelevant to
/// checkpointing (only the parameter inventory matters), so stages are
/// flattened and the hidden size is chosen so the total lands near 173M.
pub fn swinv2_moe() -> MoeModelConfig {
    MoeModelConfig::builder("SwinV2-MoE")
        .num_layers(24)
        .hidden_size(512)
        .num_heads(16)
        .vocab_size(1_000)
        .max_seq_len(256)
        // 10 MoE layers spread through the deep third stage.
        .moe_layer_indices(vec![5, 7, 9, 11, 13, 15, 17, 19, 21, 23])
        .num_experts(8)
        .top_k(1)
        .build()
        .expect("preset is valid")
}

/// Size classes for the LLaMA-like scaling models of Fig. 13(e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlamaMoeSize {
    /// Hidden size 1024 ("Small").
    Small,
    /// Hidden size 2048 ("Medium") — the default for Fig. 13(a-d,f).
    Medium,
    /// Hidden size 3072 ("Large").
    Large,
}

impl LlamaMoeSize {
    /// Hidden dimension of this size class.
    pub fn hidden_size(self) -> usize {
        match self {
            LlamaMoeSize::Small => 1024,
            LlamaMoeSize::Medium => 2048,
            LlamaMoeSize::Large => 3072,
        }
    }
}

/// LLaMA-like MoE model for the scaling simulations (Section 6.2.4):
/// 24 layers, 16 attention heads with head dimension 128 (hidden is taken
/// from the size class), expert intermediate size 4× hidden, every layer
/// MoE with `num_experts` experts (one per GPU in the DP+EP sweeps).
pub fn llama_moe(size: LlamaMoeSize, num_experts: usize, seq_len: usize) -> MoeModelConfig {
    let hidden = size.hidden_size();
    MoeModelConfig::builder(format!("LLaMA-MoE-{}x{num_experts}E", hidden))
        .num_layers(24)
        .hidden_size(hidden)
        // Head count chosen so head_dim = 128 as in the paper's simulations.
        .num_heads(hidden / 128)
        .vocab_size(32_000)
        // The context capacity (position-embedding rows) is an architecture
        // constant; training on shorter sequences must not change the
        // checkpoint volume (Fig. 13(d)).
        .max_seq_len(seq_len.max(1).max(4096))
        .moe_every(1)
        .num_experts(num_experts)
        .top_k(2)
        .build()
        .expect("preset is valid")
}

/// Tiny 8-expert LM used by the real-training lab (`moc-train`) to stand in
/// for GPT-125M-8E in accuracy experiments: same layer *structure*
/// (every-other-layer MoE, 8 experts, top-1) at a laptop-friendly scale.
pub fn tiny_lm_8e() -> MoeModelConfig {
    MoeModelConfig::builder("Tiny-LM-8E")
        .num_layers(4)
        .hidden_size(48)
        .num_heads(4)
        .vocab_size(256)
        .max_seq_len(64)
        .moe_every_other_layer()
        .num_experts(8)
        .top_k(1)
        .capacity_factor(1.5)
        .bytes(StateBytes::FP32_ADAM)
        .build()
        .expect("preset is valid")
}

/// Tiny 16-expert LM mirroring GPT-350M-16E's structure for the
/// fault-recovery accuracy studies (Fig. 14(a), Table 3).
pub fn tiny_lm_16e() -> MoeModelConfig {
    MoeModelConfig::builder("Tiny-LM-16E")
        .num_layers(4)
        .hidden_size(48)
        .num_heads(4)
        .vocab_size(256)
        .max_seq_len(64)
        .moe_every_other_layer()
        .num_experts(16)
        .top_k(1)
        .capacity_factor(1.5)
        .bytes(StateBytes::FP32_ADAM)
        .build()
        .expect("preset is valid")
}

/// All Table-1 presets with their paper-reported total parameter counts.
pub fn table1() -> Vec<(MoeModelConfig, &'static str)> {
    vec![
        (gpt_125m_8e(), "323M"),
        (gpt_350m_16e(), "1.7G"),
        (swinv2_moe(), "173M"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_have_expected_moe_counts() {
        let p125 = gpt_125m_8e();
        assert_eq!(p125.num_moe_layers(), 6);
        assert_eq!(p125.num_experts(), 8);
        let p350 = gpt_350m_16e();
        assert_eq!(p350.num_moe_layers(), 12);
        assert_eq!(p350.num_experts(), 16);
        let swin = swinv2_moe();
        assert_eq!(swin.num_moe_layers(), 10);
        assert_eq!(swin.num_experts(), 8);
    }

    #[test]
    fn swinv2_total_near_173m() {
        let total = swinv2_moe().param_counts().total() as f64;
        assert!(
            (1.2e8..2.3e8).contains(&total),
            "SwinV2-MoE total {total} should be ~173M"
        );
    }

    #[test]
    fn llama_moe_head_dim_is_128() {
        for size in [
            LlamaMoeSize::Small,
            LlamaMoeSize::Medium,
            LlamaMoeSize::Large,
        ] {
            let cfg = llama_moe(size, 64, 2048);
            assert_eq!(cfg.head_dim(), 128);
            assert_eq!(cfg.num_moe_layers(), 24);
        }
    }

    #[test]
    fn llama_moe_scales_with_expert_count() {
        let small = llama_moe(LlamaMoeSize::Medium, 32, 2048);
        let large = llama_moe(LlamaMoeSize::Medium, 1024, 2048);
        assert!(large.param_counts().total() > 20 * small.param_counts().total());
    }

    #[test]
    fn tiny_presets_mirror_structures() {
        assert_eq!(tiny_lm_8e().num_experts(), 8);
        assert_eq!(tiny_lm_16e().num_experts(), 16);
        assert_eq!(tiny_lm_8e().num_moe_layers(), 2);
    }
}
