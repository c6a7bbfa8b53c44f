//! Collective-communication cost models (α–β).
//!
//! Each collective over a group of `n` ranks moving `bytes` per rank costs
//! `α·steps + moved_bytes / bandwidth`, where the bandwidth is the NVLink
//! bandwidth if the group fits inside one node and the (much slower)
//! network bandwidth otherwise — the effect behind the paper's observation
//! that confining EP inside a node (Case 3) beats spanning nodes (Case 2).

use crate::hardware::GpuSpec;

/// Where a process group physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupSpan {
    /// All ranks of the group share one node.
    IntraNode,
    /// The group crosses node boundaries.
    InterNode,
}

impl GroupSpan {
    /// Span of a group of `group_size` consecutive ranks on nodes of
    /// `gpus_per_node` GPUs.
    pub fn of(group_size: usize, gpus_per_node: usize) -> Self {
        if group_size <= gpus_per_node {
            GroupSpan::IntraNode
        } else {
            GroupSpan::InterNode
        }
    }
}

/// α–β collective cost model for one GPU class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    gpu: GpuSpec,
    gpus_per_node: usize,
}

impl CommModel {
    /// Creates a model for `gpu` on nodes of `gpus_per_node`.
    pub fn new(gpu: GpuSpec, gpus_per_node: usize) -> Self {
        Self { gpu, gpus_per_node }
    }

    fn bandwidth(&self, span: GroupSpan) -> f64 {
        match span {
            GroupSpan::IntraNode => self.gpu.nvlink_bytes_per_sec,
            GroupSpan::InterNode => self.gpu.network_bytes_per_sec,
        }
    }

    /// All-to-All over `n` ranks, `bytes` sent per rank.
    ///
    /// Each rank ships `bytes · (n−1)/n` off-chip; the transfer is
    /// bandwidth-bound on the slowest link class the group touches.
    pub fn all_to_all_secs(&self, bytes_per_rank: u64, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let span = GroupSpan::of(n, self.gpus_per_node);
        let moved = bytes_per_rank as f64 * (n - 1) as f64 / n as f64;
        self.gpu.comm_latency_sec * (n as f64).log2().ceil() + moved / self.bandwidth(span)
    }

    /// Ring all-reduce of `bytes` over `n` ranks (2·(n−1)/n traffic factor).
    pub fn all_reduce_secs(&self, bytes: u64, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let span = GroupSpan::of(n, self.gpus_per_node);
        let moved = 2.0 * bytes as f64 * (n - 1) as f64 / n as f64;
        2.0 * self.gpu.comm_latency_sec * (n - 1) as f64 + moved / self.bandwidth(span)
    }

    /// Reduce-scatter (or all-gather) of `bytes` over `n` ranks.
    pub fn reduce_scatter_secs(&self, bytes: u64, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let span = GroupSpan::of(n, self.gpus_per_node);
        let moved = bytes as f64 * (n - 1) as f64 / n as f64;
        self.gpu.comm_latency_sec * (n - 1) as f64 + moved / self.bandwidth(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CommModel {
        CommModel::new(GpuSpec::a800(), 8)
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = model();
        assert_eq!(m.all_to_all_secs(1 << 30, 1), 0.0);
        assert_eq!(m.all_reduce_secs(1 << 30, 1), 0.0);
        assert_eq!(m.reduce_scatter_secs(1 << 30, 1), 0.0);
    }

    #[test]
    fn intra_node_beats_inter_node() {
        let m = model();
        // 8 ranks fit in a node; 16 ranks span two.
        let intra = m.all_to_all_secs(64 << 20, 8);
        let inter = m.all_to_all_secs(64 << 20, 16);
        assert!(
            inter > 5.0 * intra,
            "inter {inter} should dwarf intra {intra}"
        );
    }

    #[test]
    fn group_span_classification() {
        assert_eq!(GroupSpan::of(8, 8), GroupSpan::IntraNode);
        assert_eq!(GroupSpan::of(9, 8), GroupSpan::InterNode);
        assert_eq!(GroupSpan::of(2, 8), GroupSpan::IntraNode);
    }

    #[test]
    fn all_reduce_roughly_double_reduce_scatter() {
        let m = model();
        let ar = m.all_reduce_secs(256 << 20, 8);
        let rs = m.reduce_scatter_secs(256 << 20, 8);
        assert!((ar / rs - 2.0).abs() < 0.3, "ratio {}", ar / rs);
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = model();
        let t1 = m.all_to_all_secs(32 << 20, 16);
        let t2 = m.all_to_all_secs(64 << 20, 16);
        assert!(t2 > 1.8 * t1);
    }
}
