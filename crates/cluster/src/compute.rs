//! Compute-time model of one training iteration's forward+backward pass.
//!
//! Standard transformer FLOP accounting: the forward pass costs
//! `2·P_active` FLOPs per token (matmuls) plus the attention score terms;
//! backward costs twice the forward. MoE models only touch `top_k` experts
//! per token, so `P_active` uses `MoeModelConfig::active_params_per_token`.

use crate::comm::CommModel;
use crate::hardware::ClusterSpec;
use moc_core::ParallelTopology;
use moc_moe::MoeModelConfig;

/// Workload description for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationWorkload {
    /// Sequence length of the batch.
    pub seq_len: usize,
    /// Tokens processed per GPU per iteration (micro-batch × seq).
    pub tokens_per_gpu: u64,
}

impl IterationWorkload {
    /// The default workload used by the Table-2 case studies: 16 sequences
    /// of 2048 tokens per GPU.
    pub fn default_case() -> Self {
        Self {
            seq_len: 2048,
            tokens_per_gpu: 16 * 2048,
        }
    }
}

/// Breakdown of the F&B window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbBreakdown {
    /// Pure compute seconds (forward + backward matmuls).
    pub compute_sec: f64,
    /// All-to-All dispatch/combine seconds (4 per MoE layer).
    pub all_to_all_sec: f64,
    /// Gradient reduce-scatter seconds (ZeRO-2 non-expert grads).
    pub grad_comm_sec: f64,
}

impl FbBreakdown {
    /// Total F&B seconds.
    pub fn total(&self) -> f64 {
        self.compute_sec + self.all_to_all_sec + self.grad_comm_sec
    }
}

/// Computes F&B and update durations for a model on a cluster.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    cluster: ClusterSpec,
    comm: CommModel,
}

impl ComputeModel {
    /// Creates the model.
    pub fn new(cluster: ClusterSpec) -> Self {
        let comm = CommModel::new(cluster.gpu, cluster.gpus_per_node);
        Self { cluster, comm }
    }

    /// The cluster spec in use.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Forward+backward duration of one iteration.
    pub fn fb_breakdown(
        &self,
        model: &MoeModelConfig,
        topo: &ParallelTopology,
        work: &IterationWorkload,
    ) -> FbBreakdown {
        let tokens = work.tokens_per_gpu as f64;
        let active = model.active_params_per_token() as f64;
        // 6·T·P matmul FLOPs + 12·L·h·T·s attention-score FLOPs (causal).
        let matmul = 6.0 * tokens * active;
        let attn = 6.0
            * model.num_layers() as f64
            * model.hidden_size() as f64
            * tokens
            * work.seq_len as f64;
        // TP splits the per-GPU tensor work across tp GPUs (each DP rank
        // spans tp·pp GPUs working on the same tokens).
        let shard = (topo.tp() * topo.pp()) as f64;
        let compute_sec = (matmul + attn) / (self.cluster.gpu.effective_flops() * shard);

        // Four All-to-Alls per MoE layer (dispatch + combine, fwd + bwd),
        // each moving the layer's activation bytes per rank.
        let a2a_bytes = (work.tokens_per_gpu as usize * model.hidden_size() * 2) as u64; // bf16 activations
        let all_to_all_sec =
            4.0 * model.num_moe_layers() as f64 * self.comm.all_to_all_secs(a2a_bytes, topo.ep());

        // ZeRO-2 reduce-scatter of non-expert gradients over the DP group.
        let grad_bytes = model.param_counts().non_expert() * 2;
        let grad_comm_sec = self.comm.reduce_scatter_secs(grad_bytes, topo.dp());

        FbBreakdown {
            compute_sec,
            all_to_all_sec,
            grad_comm_sec,
        }
    }

    /// Weight-update duration: optimizer math over the rank's ZeRO shard
    /// is memory-bound and small next to F&B; modelled as shard bytes over
    /// HBM-class bandwidth plus a fixed kernel-launch floor.
    pub fn update_secs(&self, model: &MoeModelConfig, topo: &ParallelTopology) -> f64 {
        let counts = model.param_counts();
        let shard_params = counts.non_expert() as f64 / topo.dp() as f64
            + counts.expert() as f64 / topo.ep() as f64 / topo.expert_dp() as f64;
        // Adam reads/writes ~16 bytes per parameter at ~1 TB/s effective.
        0.02 + shard_params * 16.0 / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_moe::presets;

    fn fb(topo: ParallelTopology) -> FbBreakdown {
        let m = ComputeModel::new(ClusterSpec::a800());
        m.fb_breakdown(
            &presets::gpt_350m_16e(),
            &topo,
            &IterationWorkload::default_case(),
        )
    }

    #[test]
    fn fb_in_plausible_range() {
        // The paper's Case-1 F&B window is on the order of a second.
        let b = fb(ParallelTopology::case1());
        assert!((0.2..5.0).contains(&b.total()), "F&B {b:?} out of range");
    }

    #[test]
    fn case3_faster_than_case2() {
        // The paper: intra-node EP (Case 3) beats inter-node EP (Case 2).
        let c2 = fb(ParallelTopology::case2());
        let c3 = fb(ParallelTopology::case3());
        assert!(
            c3.all_to_all_sec < c2.all_to_all_sec,
            "case3 a2a {} must beat case2 {}",
            c3.all_to_all_sec,
            c2.all_to_all_sec
        );
        assert!(c3.total() < c2.total());
    }

    #[test]
    fn longer_sequences_cost_more() {
        let m = ComputeModel::new(ClusterSpec::a800());
        let topo = ParallelTopology::case1();
        let model = presets::gpt_350m_16e();
        let short = m.fb_breakdown(
            &model,
            &topo,
            &IterationWorkload {
                seq_len: 512,
                tokens_per_gpu: 16 * 512,
            },
        );
        let long = m.fb_breakdown(
            &model,
            &topo,
            &IterationWorkload {
                seq_len: 4096,
                tokens_per_gpu: 16 * 4096,
            },
        );
        assert!(long.total() > 4.0 * short.total());
    }

    #[test]
    fn h100_faster_than_a800() {
        let topo = ParallelTopology::case1();
        let model = presets::gpt_350m_16e();
        let work = IterationWorkload::default_case();
        let a = ComputeModel::new(ClusterSpec::a800()).fb_breakdown(&model, &topo, &work);
        let h = ComputeModel::new(ClusterSpec::h100()).fb_breakdown(&model, &topo, &work);
        assert!(h.compute_sec < 0.5 * a.compute_sec);
    }

    #[test]
    fn update_small_next_to_fb() {
        let m = ComputeModel::new(ClusterSpec::a800());
        let topo = ParallelTopology::case1();
        let model = presets::gpt_350m_16e();
        let u = m.update_secs(&model, &topo);
        let f = fb(topo).total();
        assert!(u < 0.5 * f, "update {u} vs fb {f}");
        assert!(u > 0.0);
    }
}
