//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is computed here from the
//! per-call nanosecond samples, never from log₂ histogram buckets.

/// The `q`-quantile of `sorted` by the nearest-rank rule: the smallest
/// sample such that at least a `q` share of all samples is ≤ it.
///
/// # Panics
/// If `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `values` in place and return its `q`-quantile (see [`quantile`]).
pub fn quantile_of(values: &mut [u64], q: f64) -> u64 {
    values.sort_unstable();
    quantile(values, q)
}

/// Median of `values` (sorted in place), as `f64`.
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Latency summary of one phase: exact order statistics of raw samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Mean of all but the slowest 1% of samples, microseconds. On a
    /// shared host whose speed switches between regimes for seconds at a
    /// time, a run's median jumps between the regimes as their mix
    /// changes while this mean moves in proportion; trimming the top 1%
    /// keeps a rare multi-millisecond host stall out of it.
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
}

impl Latency {
    /// Summarise nanosecond samples (sorted in place).
    pub fn of(samples_ns: &mut [u64]) -> Option<Latency> {
        if samples_ns.is_empty() {
            return None;
        }
        samples_ns.sort_unstable();
        let kept = &samples_ns[..samples_ns.len() - samples_ns.len() / 100];
        Some(Latency {
            count: samples_ns.len(),
            mean_us: kept.iter().sum::<u64>() as f64 / kept.len() as f64 / 1e3,
            p50_us: quantile(samples_ns, 0.5) as f64 / 1e3,
            p90_us: quantile(samples_ns, 0.9) as f64 / 1e3,
            p99_us: quantile(samples_ns, 0.99) as f64 / 1e3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        let one_to_hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&one_to_hundred, 0.5), 50);
        assert_eq!(quantile(&one_to_hundred, 0.99), 99);
        assert_eq!(quantile(&one_to_hundred, 1.0), 100);
        assert_eq!(quantile(&one_to_hundred, 0.0), 1);
        assert_eq!(quantile(&[7u64], 0.99), 7);
        // Order statistics, not interpolation: the median of an even
        // sample is its lower middle element.
        assert_eq!(quantile(&[1u64, 2, 3, 4], 0.5), 2);
        let mut shuffled = vec![5u64, 1, 4, 2, 3];
        assert_eq!(quantile_of(&mut shuffled, 0.5), 3);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_summary_is_exact_in_microseconds() {
        let mut ns: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let lat = Latency::of(&mut ns).unwrap();
        assert_eq!(lat.count, 1000);
        // The slowest ten are trimmed: the mean of 1..=990 µs.
        assert_eq!(lat.mean_us, 495.5);
        assert_eq!(lat.p50_us, 500.0);
        assert_eq!(lat.p90_us, 900.0);
        assert_eq!(lat.p99_us, 990.0);
        assert!(Latency::of(&mut []).is_none());
    }
}
