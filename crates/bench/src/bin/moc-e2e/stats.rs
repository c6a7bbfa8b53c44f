//! Order statistics over small sample sets.

/// Samples that must lie beyond a percentile before it is trusted
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending (NaN last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at
/// or below it. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for an even count, so a
/// four-job run is not decided by one job.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile
/// position of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Whether the `q`-quantile of `n` samples has [`MIN_BEYOND`] samples
/// beyond it; a tail percentile that fails this is printed as
/// low-confidence.
pub fn tail_resolved(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// First and third quartile of an ascending slice, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (the benchmark driver's):
/// quartile `k` sits at position `k·(n + 1)/4`, counted from 1, between
/// the two nearest samples on a straight line (beyond the last pair for
/// very few samples). `None` under two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let position = k * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        let share = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + share * (sorted[below] - sorted[below - 1])
    };
    Some((at(1), at(3)))
}

/// The distance between the quartiles as a share of the median: the
/// spread the driver holds against a metric's bound. 0 under two samples
/// or for a zero median.
pub fn quartile_spread(sorted: &[f64]) -> f64 {
    match (quartiles(sorted), median(sorted)) {
        (Some((q1, q3)), med) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// A reported value with how far its samples lay apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The value reported: the samples' median unless the metric says
    /// otherwise.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// [`quartile_spread`] of the samples *within this pass*. It says how
    /// disturbed the pass was, not how far two passes differ: slow
    /// periods of the host outlast a pass, so its jobs are correlated.
    /// The run-to-run spread `compare` needs is recorded in
    /// `baseline.json`.
    pub spread: f64,
}

/// Summarises per-job samples of one metric.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        value: median(&s),
        n: s.len(),
        spread: quartile_spread(&s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples sits at rank 90: exactly ten beyond.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_resolved(100, 0.9));
        assert!(!tail_resolved(99, 0.9));
        // p50 needs twenty samples.
        assert!(tail_resolved(20, 0.5));
        assert!(!tail_resolved(19, 0.5));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartile_spread(&ten), 1.0);
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), Some((1.5, 10.5)));
        assert_eq!(quartiles(&[7.0]), None);
        assert_eq!(summarize(&[5.0]).spread, 0.0);
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread, 0.0);
    }
}
