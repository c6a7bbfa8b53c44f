//! Storage-tier bandwidth specifications.
//!
//! Transfer durations across the checkpoint hierarchy (GPU→CPU snapshot
//! over PCIe, CPU→storage persist over the network) are pure functions of
//! data volume and tier bandwidth. These specs carry the paper's measured
//! constants (Section 6.2.4: 1 GB/s snapshot bandwidth on A800 nodes,
//! 2 GB/s on H100 nodes) and feed both the analytic overhead model in
//! `moc-core` and the timeline simulator in `moc-cluster`.
use std::time::Duration;

/// One gibibyte in bytes.
pub const GIB: u64 = 1 << 30;
/// One gigabyte (10^9) in bytes — the unit the paper's bandwidths use.
pub const GB: u64 = 1_000_000_000;

/// Bandwidth/latency description of a transfer path between tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierLink {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer latency in seconds (setup, serialization
    /// book-keeping). Small relative to checkpoint volumes.
    pub latency_sec: f64,
}

impl TierLink {
    /// Creates a link from a bandwidth in GB/s (decimal) and latency.
    pub fn from_gbps(gb_per_sec: f64, latency_sec: f64) -> Self {
        Self {
            bandwidth_bytes_per_sec: gb_per_sec * GB as f64,
            latency_sec,
        }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let secs = self.latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec;
        Duration::from_secs_f64(secs)
    }

    /// Time to move `bytes`, as fractional seconds.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec
    }

    /// Least-squares fit of a link from measured `(bytes, seconds)`
    /// transfer samples: the model `secs = latency + bytes / bandwidth`
    /// is linear in `(latency, 1 / bandwidth)`, so an ordinary
    /// least-squares line through the samples calibrates both constants
    /// from live runs. The fitted latency is clamped at 0 (a negative
    /// intercept is measurement noise, not physics).
    ///
    /// Returns `None` when fewer than two distinct byte counts are
    /// available or the fitted slope is not positive — an unfittable or
    /// degenerate sample set must not silently produce a bogus link.
    pub fn fit(samples: &[(u64, f64)]) -> Option<Self> {
        let distinct: std::collections::BTreeSet<u64> = samples.iter().map(|&(b, _)| b).collect();
        if distinct.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|&(b, _)| b as f64).sum::<f64>() / n;
        let mean_y = samples.iter().map(|&(_, s)| s).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(b, s) in samples {
            let dx = b as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (s - mean_y);
        }
        let slope = sxy / sxx; // seconds per byte = 1 / bandwidth
        if !(slope > 0.0 && slope.is_finite()) {
            return None;
        }
        Some(Self {
            bandwidth_bytes_per_sec: 1.0 / slope,
            latency_sec: (mean_y - slope * mean_x).max(0.0),
        })
    }
}

/// Bandwidths of the full two-level hierarchy for one node class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageHierarchy {
    /// GPU→CPU snapshot path (PCIe; per GPU).
    pub snapshot: TierLink,
    /// CPU→persistent-storage path (network filesystem; per node).
    pub persist: TierLink,
    /// Persistent-storage→CPU restore path (reads are typically faster
    /// than writes on distributed filesystems).
    pub restore: TierLink,
}

impl StorageHierarchy {
    /// The A800-node hierarchy used in the paper's measurements:
    /// 1 GB/s GPU→CPU snapshot bandwidth; persist to the cluster
    /// filesystem at 0.8 GB/s per node; restore reads at 1.6 GB/s.
    pub fn a800() -> Self {
        Self {
            snapshot: TierLink::from_gbps(1.0, 0.005),
            persist: TierLink::from_gbps(0.8, 0.020),
            restore: TierLink::from_gbps(1.6, 0.020),
        }
    }

    /// The H100-node hierarchy of the scaling simulations: 2 GB/s
    /// snapshot bandwidth; storage paths matching newer clusters.
    pub fn h100() -> Self {
        Self {
            snapshot: TierLink::from_gbps(2.0, 0.005),
            persist: TierLink::from_gbps(1.6, 0.020),
            restore: TierLink::from_gbps(3.2, 0.020),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let link = TierLink::from_gbps(1.0, 0.0);
        let t1 = link.transfer_secs(GB);
        let t2 = link.transfer_secs(2 * GB);
        assert!((t1 - 1.0).abs() < 1e-9);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_constant() {
        let link = TierLink::from_gbps(1.0, 0.5);
        assert!((link.transfer_secs(0) - 0.5).abs() < 1e-12);
        let d = link.transfer_time(GB);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn h100_snapshot_twice_a800() {
        let a = StorageHierarchy::a800();
        let h = StorageHierarchy::h100();
        let ratio = h.snapshot.bandwidth_bytes_per_sec / a.snapshot.bandwidth_bytes_per_sec;
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_exact_constants() {
        let truth = TierLink::from_gbps(1.5, 0.02);
        let samples: Vec<(u64, f64)> = [GB / 4, GB / 2, GB, 2 * GB]
            .iter()
            .map(|&b| (b, truth.transfer_secs(b)))
            .collect();
        let fitted = TierLink::fit(&samples).unwrap();
        assert!(
            (fitted.bandwidth_bytes_per_sec - truth.bandwidth_bytes_per_sec).abs()
                / truth.bandwidth_bytes_per_sec
                < 1e-9
        );
        assert!((fitted.latency_sec - truth.latency_sec).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_degenerate_samples() {
        assert!(TierLink::fit(&[]).is_none());
        assert!(TierLink::fit(&[(GB, 1.0)]).is_none());
        assert!(
            TierLink::fit(&[(GB, 1.0), (GB, 1.2)]).is_none(),
            "one distinct byte count cannot pin a slope"
        );
        assert!(
            TierLink::fit(&[(GB, 2.0), (2 * GB, 1.0)]).is_none(),
            "negative slope is not a link"
        );
    }

    #[test]
    fn fit_clamps_negative_latency() {
        // Noise-free samples through the origin minus a constant would
        // fit a negative intercept; the clamp keeps latency physical.
        let fitted = TierLink::fit(&[(GB, 0.9), (2 * GB, 1.9)]).unwrap();
        assert!(fitted.latency_sec >= 0.0);
    }

    #[test]
    fn restore_faster_than_persist() {
        for h in [StorageHierarchy::a800(), StorageHierarchy::h100()] {
            assert!(h.restore.bandwidth_bytes_per_sec > h.persist.bandwidth_bytes_per_sec);
        }
    }
}
