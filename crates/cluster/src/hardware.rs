//! Hardware models of the simulated training clusters.
//!
//! The paper's simulations (Section 6.2.4) configure A800 GPUs at
//! 312 TFLOPS with 20% utilisation and 1 GB/s GPU→CPU snapshot bandwidth,
//! and H100 GPUs at 989 TFLOPS / 20% / 2 GB/s. Interconnect constants are
//! chosen to reproduce the paper's qualitative observations (e.g. Case 3's
//! intra-node All-to-All beating Case 2's inter-node one).

use moc_store::{StorageHierarchy, TierLink};

/// One GPU class plus its node-level interconnects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense throughput in TFLOPS.
    pub peak_tflops: f64,
    /// Sustained fraction of peak achieved by training kernels.
    pub utilization: f64,
    /// Intra-node GPU-to-GPU bandwidth (NVLink), bytes/s.
    pub nvlink_bytes_per_sec: f64,
    /// Inter-node network bandwidth per GPU (InfiniBand share), bytes/s.
    pub network_bytes_per_sec: f64,
    /// Collective startup latency per hop, seconds.
    pub comm_latency_sec: f64,
    /// Storage hierarchy (PCIe snapshot path, persist path).
    pub storage: StorageHierarchy,
}

impl GpuSpec {
    /// The paper's A800 configuration.
    pub fn a800() -> Self {
        Self {
            peak_tflops: 312.0,
            utilization: 0.20,
            nvlink_bytes_per_sec: 200e9,
            network_bytes_per_sec: 12.5e9, // 100 Gb/s HDR share
            comm_latency_sec: 15e-6,
            storage: StorageHierarchy::a800(),
        }
    }

    /// The paper's H100 configuration.
    pub fn h100() -> Self {
        Self {
            peak_tflops: 989.0,
            utilization: 0.20,
            nvlink_bytes_per_sec: 450e9,
            network_bytes_per_sec: 50e9, // 400 Gb/s NDR share
            comm_latency_sec: 10e-6,
            storage: StorageHierarchy::h100(),
        }
    }

    /// Effective sustained FLOPS of one GPU.
    pub fn effective_flops(&self) -> f64 {
        self.peak_tflops * 1e12 * self.utilization
    }
}

/// A homogeneous cluster of GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// GPU class.
    pub gpu: GpuSpec,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Per-rank write bandwidth into the distributed filesystem, bytes/s.
    /// Ranks persist their shards in parallel (Megatron-DeepSpeed writes
    /// one file per rank), and cluster filesystems scale with writers, so
    /// the bottleneck is the slowest single rank, not a node aggregate.
    pub persist_bytes_per_sec: f64,
}

impl ClusterSpec {
    /// An A800 cluster with 8 GPUs per node (the paper's testbed).
    pub fn a800() -> Self {
        Self {
            gpu: GpuSpec::a800(),
            gpus_per_node: 8,
            persist_bytes_per_sec: 1.5e9,
        }
    }

    /// An H100 cluster with 8 GPUs per node.
    pub fn h100() -> Self {
        Self {
            gpu: GpuSpec::h100(),
            gpus_per_node: 8,
            persist_bytes_per_sec: 3.0e9,
        }
    }

    /// GPU→CPU snapshot time for `bytes` on one rank.
    pub fn snapshot_secs(&self, bytes: u64) -> f64 {
        self.gpu.storage.snapshot.transfer_secs(bytes)
    }

    /// CPU→storage persist time for `bytes` written by one rank.
    pub fn persist_secs(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.gpu.storage.persist.latency_sec + bytes as f64 / self.persist_bytes_per_sec
    }

    /// Calibrates the spec against measured transfers: least-squares
    /// fits of the snapshot and persist [`TierLink`]s from live
    /// `(bytes, seconds)` samples ([`TierLink::fit`]). A tier whose
    /// samples cannot be fitted (too few distinct sizes, degenerate
    /// slope) keeps its configured constants, so calibration is always
    /// safe to apply.
    pub fn calibrated(
        &self,
        snapshot_samples: &[(u64, f64)],
        persist_samples: &[(u64, f64)],
    ) -> Self {
        let mut spec = *self;
        if let Some(link) = TierLink::fit(snapshot_samples) {
            spec.gpu.storage.snapshot = link;
        }
        if let Some(link) = TierLink::fit(persist_samples) {
            spec.gpu.storage.persist = link;
            spec.persist_bytes_per_sec = link.bandwidth_bytes_per_sec;
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let a = GpuSpec::a800();
        assert!((a.effective_flops() - 62.4e12).abs() < 1e9);
        let h = GpuSpec::h100();
        assert!((h.effective_flops() - 197.8e12).abs() < 1e9);
    }

    #[test]
    fn h100_snapshots_twice_as_fast() {
        let a = ClusterSpec::a800();
        let h = ClusterSpec::h100();
        let bytes = 4 << 30;
        assert!(h.snapshot_secs(bytes) < 0.6 * a.snapshot_secs(bytes));
    }

    #[test]
    fn snapshot_time_scales_with_bytes() {
        let c = ClusterSpec::a800();
        let t1 = c.snapshot_secs(1_000_000_000);
        assert!(
            (t1 - 1.005).abs() < 1e-6,
            "1 GB at 1 GB/s plus latency: {t1}"
        );
    }

    #[test]
    fn persist_zero_bytes_is_free() {
        assert_eq!(ClusterSpec::a800().persist_secs(0), 0.0);
    }

    #[test]
    fn calibration_replaces_fitted_tiers_only() {
        let base = ClusterSpec::a800();
        // Snapshot measured at 2 GB/s with 1 ms latency; persist samples
        // degenerate (one distinct size) and must keep the defaults.
        let snap: Vec<(u64, f64)> = [1u64 << 28, 1 << 29, 1 << 30]
            .iter()
            .map(|&b| (b, 0.001 + b as f64 / 2.0e9))
            .collect();
        let persist = vec![(1u64 << 30, 1.0), (1 << 30, 1.1)];
        let cal = base.calibrated(&snap, &persist);
        assert!(
            (cal.gpu.storage.snapshot.bandwidth_bytes_per_sec - 2.0e9).abs() / 2.0e9 < 1e-6,
            "snapshot bandwidth must follow the fit"
        );
        assert_eq!(cal.persist_bytes_per_sec, base.persist_bytes_per_sec);
        assert_eq!(cal.gpu.storage.persist, base.gpu.storage.persist);
        // Fitted snapshot time reproduces the measurements.
        assert!((cal.snapshot_secs(1 << 30) - snap[2].1).abs() < 1e-9);
    }
}
