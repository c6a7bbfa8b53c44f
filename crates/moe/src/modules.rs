//! Module inventory: the unit-of-sharding view of a model.
//!
//! The fully sharded checkpointing strategies of Section 4 partition work at
//! module granularity — whole experts for the expert part (Section 4.1) and
//! whole layers (Attention / FFN / …) for the non-expert part (Section 4.2).
//! [`MoeModelConfig::modules`] enumerates those units with their checkpoint
//! byte sizes.

use crate::config::MoeModelConfig;
use std::fmt;

/// Identity of an expert: `(MoE-layer position, expert index)`.
///
/// The layer coordinate is the *position among MoE layers* (0-based `l` used
/// by sequential selection), not the transformer layer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExpertId {
    /// Position among the MoE layers (0-based).
    pub layer: usize,
    /// Expert index within the layer (0-based, `< N`).
    pub expert: usize,
}

impl ExpertId {
    /// Creates an expert id.
    pub fn new(layer: usize, expert: usize) -> Self {
        Self { layer, expert }
    }
}

impl fmt::Display for ExpertId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expert{}-{}", self.layer, self.expert)
    }
}

/// What kind of parameters a module holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Token + position embeddings (non-expert).
    Embedding,
    /// Attention sublayer of a transformer layer (non-expert).
    Attention {
        /// Transformer layer index.
        layer: usize,
    },
    /// Dense FFN sublayer (non-expert).
    DenseFfn {
        /// Transformer layer index.
        layer: usize,
    },
    /// MoE gating network (non-expert; saved in full).
    Gate {
        /// Transformer layer index.
        layer: usize,
    },
    /// LayerNorm parameters of a layer, folded together (non-expert).
    Norms {
        /// Transformer layer index, or `usize::MAX` for the final norm.
        layer: usize,
    },
    /// One expert FFN (expert part; the PEC unit).
    Expert(ExpertId),
}

impl ModuleKind {
    /// Whether this module belongs to the expert part of the model.
    pub fn is_expert(&self) -> bool {
        matches!(self, ModuleKind::Expert(_))
    }
}

/// A shardable unit of model state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDesc {
    /// Stable name usable as a checkpoint key (e.g. `"layer3.expert5"`).
    pub name: String,
    /// What the module is.
    pub kind: ModuleKind,
    /// Parameter count of the module.
    pub params: u64,
    /// Weight bytes of the module in a checkpoint.
    pub weight_bytes: u64,
    /// Optimizer-state bytes of the module in a checkpoint.
    pub optimizer_bytes: u64,
}

impl ModuleDesc {
    /// Total checkpoint bytes of the module (weights + optimizer).
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.optimizer_bytes
    }
}

impl MoeModelConfig {
    /// Enumerates all shardable modules of the model with checkpoint sizes.
    ///
    /// Non-expert modules are emitted at layer granularity (the
    /// coarse-grained unit of Section 4.2); each expert is its own module
    /// (the unit of Sections 3 and 4.1).
    ///
    /// # Examples
    ///
    /// ```
    /// use moc_moe::presets;
    /// let cfg = presets::gpt_350m_16e();
    /// let mods = cfg.modules();
    /// let experts = mods.iter().filter(|m| m.kind.is_expert()).count();
    /// assert_eq!(experts, cfg.total_experts());
    /// ```
    pub fn modules(&self) -> Vec<ModuleDesc> {
        let h = self.hidden_size() as u64;
        let b = self.bytes();
        let counts = self.param_counts();
        let mut out = Vec::new();

        let mut push = |name: String, kind: ModuleKind, params: u64| {
            out.push(ModuleDesc {
                name,
                kind,
                params,
                weight_bytes: params * b.weight,
                optimizer_bytes: params * b.optimizer,
            });
        };

        push(
            "embedding".to_string(),
            ModuleKind::Embedding,
            counts.embedding,
        );

        let attn_params = 4 * h * h + 4 * h;
        let ffn_params = counts.per_expert;
        let n_exp = self.num_experts() as u64;
        for layer in 0..self.num_layers() {
            push(
                format!("layer{layer}.attention"),
                ModuleKind::Attention { layer },
                attn_params,
            );
            push(
                format!("layer{layer}.norms"),
                ModuleKind::Norms { layer },
                4 * h,
            );
            if let Some(pos) = self.moe_layer_position(layer) {
                push(
                    format!("layer{layer}.gate"),
                    ModuleKind::Gate { layer },
                    h * n_exp + n_exp,
                );
                for expert in 0..self.num_experts() {
                    push(
                        format!("layer{layer}.expert{expert}"),
                        ModuleKind::Expert(ExpertId::new(pos, expert)),
                        ffn_params,
                    );
                }
            } else {
                push(
                    format!("layer{layer}.ffn"),
                    ModuleKind::DenseFfn { layer },
                    ffn_params,
                );
            }
        }
        push(
            "final.norm".to_string(),
            ModuleKind::Norms { layer: usize::MAX },
            2 * h,
        );
        out
    }

    /// All expert ids of the model in `(layer, expert)` order.
    pub fn expert_ids(&self) -> Vec<ExpertId> {
        (0..self.num_moe_layers())
            .flat_map(|l| (0..self.num_experts()).map(move |e| ExpertId::new(l, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn module_bytes_sum_to_full_checkpoint() {
        for cfg in [
            presets::gpt_125m_8e(),
            presets::gpt_350m_16e(),
            presets::swinv2_moe(),
        ] {
            let total: u64 = cfg.modules().iter().map(|m| m.total_bytes()).sum();
            assert_eq!(total, cfg.full_checkpoint_bytes(), "model {}", cfg.name());
        }
    }

    #[test]
    fn module_params_sum_to_param_counts() {
        let cfg = presets::gpt_125m_8e();
        let total: u64 = cfg.modules().iter().map(|m| m.params).sum();
        assert_eq!(total, cfg.param_counts().total());
    }

    #[test]
    fn expert_modules_match_expert_ids() {
        let cfg = presets::gpt_125m_8e();
        let experts: Vec<ExpertId> = cfg
            .modules()
            .into_iter()
            .filter_map(|m| match m.kind {
                ModuleKind::Expert(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(experts, cfg.expert_ids());
    }

    #[test]
    fn expert_ids_are_layer_major() {
        let cfg = presets::tiny_lm_8e();
        let ids = cfg.expert_ids();
        assert_eq!(ids[0], ExpertId::new(0, 0));
        assert_eq!(ids[1], ExpertId::new(0, 1));
        assert_eq!(ids[8], ExpertId::new(1, 0));
        assert_eq!(ids.len(), cfg.total_experts());
    }

    #[test]
    fn module_names_are_unique() {
        let cfg = presets::gpt_350m_16e();
        let mods = cfg.modules();
        let mut names: Vec<&str> = mods.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn expert_id_display() {
        assert_eq!(ExpertId::new(3, 1).to_string(), "Expert3-1");
    }

    #[test]
    fn dense_layers_have_ffn_modules() {
        let cfg = presets::gpt_125m_8e();
        let dense = cfg
            .modules()
            .iter()
            .filter(|m| matches!(m.kind, ModuleKind::DenseFfn { .. }))
            .count();
        assert_eq!(dense, cfg.num_layers() - cfg.num_moe_layers());
    }
}
