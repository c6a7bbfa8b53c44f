//! Scaling and generalization sweeps — Fig. 13.
//!
//! The paper's ASTRA-sim study projects the three checkpointing methods
//! across GPU counts (32–1024), parallelism (DP+EP vs DP+EP+TP), hardware
//! (A800 vs H100), sequence lengths (512–4096) and model sizes
//! (hidden 1024/2048/3072), plus the total persist volume (Fig. 13(f)).
//! Each sweep point trains a LLaMA-like MoE model with one expert of every
//! layer per GPU, weak-scaling the model with the cluster.

use crate::compute::IterationWorkload;
use crate::hardware::ClusterSpec;
use crate::timeline::{Fig12Row, MethodSpec, TimelineModel};
use moc_core::topology::ParallelTopology;
use moc_moe::presets::{llama_moe, LlamaMoeSize};

/// Parallelism flavours of Fig. 13(a-c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// ZeRO-2 DP + EP, one expert per GPU per layer.
    DpEp,
    /// DP + EP + 4-way tensor parallelism.
    DpEpTp4,
}

impl Parallelism {
    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        match self {
            Parallelism::DpEp => 1,
            Parallelism::DpEpTp4 => 4,
        }
    }
}

/// One point of a Fig. 13 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// GPUs in the cluster.
    pub gpus: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Model hidden size.
    pub hidden: usize,
    /// The Fig.-12-style method comparison at this point.
    pub row: Fig12Row,
    /// Total bytes persisted per checkpoint, full method ("Base-Persist").
    pub persist_bytes_base: u64,
    /// Total bytes persisted per checkpoint under MoC ("MoC-Persist").
    pub persist_bytes_moc: u64,
}

/// Configuration of a scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Parallelism flavour.
    pub parallelism: Parallelism,
    /// Model size class.
    pub size: LlamaMoeSize,
    /// Sequence length.
    pub seq_len: usize,
    /// Tokens per GPU per iteration.
    pub tokens_per_gpu: u64,
    /// MoC saves `1/moc_fraction` of the experts per checkpoint (the
    /// paper uses 8 — "save only 1/8 of the experts").
    pub moc_fraction: usize,
}

impl SweepConfig {
    /// The paper's default sweep: A800, DP+EP, medium model, seq 2048.
    pub fn default_a800() -> Self {
        Self {
            cluster: ClusterSpec::a800(),
            parallelism: Parallelism::DpEp,
            size: LlamaMoeSize::Medium,
            seq_len: 2048,
            tokens_per_gpu: 8 * 2048,
            moc_fraction: 8,
        }
    }

    /// The H100 variant of Fig. 13(c).
    pub fn default_h100() -> Self {
        Self {
            cluster: ClusterSpec::h100(),
            ..Self::default_a800()
        }
    }
}

/// Evaluates one sweep point at `gpus` GPUs.
///
/// # Panics
///
/// Panics if `gpus` is not divisible by the node size × tp degree.
pub fn scaling_point(config: &SweepConfig, gpus: usize) -> ScalingPoint {
    let tp = config.parallelism.tp();
    let gpn = config.cluster.gpus_per_node;
    assert!(gpus.is_multiple_of(gpn), "gpus must fill whole nodes");
    assert!(gpus.is_multiple_of(tp), "gpus must divide by tp");
    let nodes = gpus / gpn;
    let dp = gpus / tp;
    // One expert per GPU per layer in the DP+EP sweep; the TP variant
    // trains the same expert count (experts/GPU = tp).
    let num_experts = gpus;
    let ep = dp; // EP spans the whole DP group.
    let topo = ParallelTopology::new(nodes, gpn, dp, tp, 1, ep).expect("valid sweep topology");
    let model = llama_moe(config.size, num_experts, config.seq_len);

    let k_snapshot = (num_experts / config.moc_fraction).max(1);
    let k_persist = (k_snapshot / 4).max(1);
    let row = fig12_row_with_work(
        &format!("{gpus}gpu"),
        model.clone(),
        topo,
        config.cluster,
        k_snapshot,
        k_persist,
        IterationWorkload {
            seq_len: config.seq_len,
            tokens_per_gpu: config.tokens_per_gpu,
        },
    );

    ScalingPoint {
        gpus,
        seq_len: config.seq_len,
        hidden: config.size.hidden_size(),
        persist_bytes_base: model.full_checkpoint_bytes(),
        persist_bytes_moc: model.pec_checkpoint_bytes(k_persist),
        row,
    }
}

fn fig12_row_with_work(
    case: &str,
    model: moc_moe::MoeModelConfig,
    topo: ParallelTopology,
    cluster: ClusterSpec,
    k_snapshot: usize,
    k_persist: usize,
    work: IterationWorkload,
) -> Fig12Row {
    let tm = TimelineModel::new(model, topo, cluster, work);
    Fig12Row {
        case: case.to_string(),
        baseline: tm.timeline(&MethodSpec::baseline()),
        base_async: tm.timeline(&MethodSpec::base_async()),
        moc_async: tm.timeline(&MethodSpec::moc_async(k_snapshot, k_persist)),
    }
}

/// Sweeps GPU counts (Fig. 13(a-c, f)).
pub fn sweep_gpus(config: &SweepConfig, gpu_counts: &[usize]) -> Vec<ScalingPoint> {
    gpu_counts
        .iter()
        .map(|&g| scaling_point(config, g))
        .collect()
}

/// Sweeps sequence lengths at a fixed GPU count (Fig. 13(d)).
pub fn sweep_seq_len(base: &SweepConfig, gpus: usize, seq_lens: &[usize]) -> Vec<ScalingPoint> {
    seq_lens
        .iter()
        .map(|&s| {
            let tokens = base.tokens_per_gpu / base.seq_len as u64 * s as u64;
            let cfg = SweepConfig {
                seq_len: s,
                tokens_per_gpu: tokens,
                ..*base
            };
            scaling_point(&cfg, gpus)
        })
        .collect()
}

/// Sweeps model sizes at a fixed GPU count (Fig. 13(e)).
pub fn sweep_model_size(base: &SweepConfig, gpus: usize) -> Vec<ScalingPoint> {
    [
        LlamaMoeSize::Small,
        LlamaMoeSize::Medium,
        LlamaMoeSize::Large,
    ]
    .into_iter()
    .map(|size| scaling_point(&SweepConfig { size, ..*base }, gpus))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fb_grows_with_gpu_count() {
        // Fig. 13(a): the F&B window grows with scale (bigger All-to-All).
        let points = sweep_gpus(&SweepConfig::default_a800(), &[32, 128, 512]);
        assert!(points[1].row.moc_async.fb_sec > points[0].row.moc_async.fb_sec);
        assert!(points[2].row.moc_async.fb_sec > points[1].row.moc_async.fb_sec);
    }

    #[test]
    fn base_async_cannot_hide_snapshot_at_small_scale() {
        // Fig. 13(a): below 1024 GPUs the full snapshot exceeds F&B.
        let p = scaling_point(&SweepConfig::default_a800(), 64);
        assert!(p.row.base_async.snapshot_sec > p.row.base_async.fb_sec);
        // MoC's reduced snapshot hides (or nearly hides) in the window.
        assert!(p.row.moc_async.o_save_sec < 0.2 * p.row.base_async.o_save_sec);
    }

    #[test]
    fn moc_async_wins_everywhere() {
        for gpus in [32, 64, 256] {
            let p = scaling_point(&SweepConfig::default_a800(), gpus);
            assert!(
                p.row.moc_async.iteration_sec < p.row.base_async.iteration_sec + 1e-9,
                "{gpus} gpus: moc {} vs base-async {}",
                p.row.moc_async.iteration_sec,
                p.row.base_async.iteration_sec
            );
            assert!(p.row.moc_async.iteration_sec < p.row.baseline.iteration_sec);
        }
    }

    #[test]
    fn persist_size_grows_with_cluster_and_moc_shrinks_it() {
        // Fig. 13(f).
        let points = sweep_gpus(&SweepConfig::default_a800(), &[32, 128, 512]);
        for w in points.windows(2) {
            assert!(w[1].persist_bytes_base > w[0].persist_bytes_base);
        }
        for p in &points {
            assert!(
                (p.persist_bytes_moc as f64) < 0.6 * p.persist_bytes_base as f64,
                "moc persist {} vs base {}",
                p.persist_bytes_moc,
                p.persist_bytes_base
            );
        }
    }

    #[test]
    fn h100_shrinks_fb_more_than_snapshot() {
        // Fig. 13(c): compute advances faster than PCIe, so H100 makes
        // overlap harder for Base-Async.
        let a = scaling_point(&SweepConfig::default_a800(), 128);
        let h = scaling_point(&SweepConfig::default_h100(), 128);
        let fb_ratio = h.row.base_async.fb_sec / a.row.base_async.fb_sec;
        let snap_ratio = h.row.base_async.snapshot_sec / a.row.base_async.snapshot_sec;
        assert!(
            fb_ratio < snap_ratio,
            "fb ratio {fb_ratio} should shrink below snapshot ratio {snap_ratio}"
        );
    }

    #[test]
    fn seq_len_changes_fb_not_snapshot() {
        // Fig. 13(d): checkpoint volume is parameters, not activations.
        let points = sweep_seq_len(&SweepConfig::default_a800(), 64, &[512, 2048, 4096]);
        assert!(points[2].row.moc_async.fb_sec > points[0].row.moc_async.fb_sec);
        let s0 = points[0].row.moc_async.snapshot_sec;
        let s2 = points[2].row.moc_async.snapshot_sec;
        assert!(
            (s0 - s2).abs() < 1e-9,
            "snapshot must not depend on seq len"
        );
    }

    #[test]
    fn larger_models_widen_mocs_advantage() {
        // Fig. 13(e): snapshot grows faster than F&B with model size.
        let points = sweep_model_size(&SweepConfig::default_a800(), 256);
        let gain =
            |p: &ScalingPoint| p.row.base_async.iteration_sec - p.row.moc_async.iteration_sec;
        assert!(gain(&points[2]) > gain(&points[0]));
    }

    #[test]
    fn tp_variant_produces_valid_points() {
        let cfg = SweepConfig {
            parallelism: Parallelism::DpEpTp4,
            ..SweepConfig::default_a800()
        };
        let p = scaling_point(&cfg, 64);
        assert_eq!(p.gpus, 64);
        assert!(p.row.moc_async.iteration_sec > 0.0);
    }
}
