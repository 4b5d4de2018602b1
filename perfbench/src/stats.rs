//! Order statistics for reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure is
//! never read off a handful of samples.

/// Samples a reported tail percentile must leave above itself.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
/// The ladder tops out at p99: above it a tail on a shared 2-core host is
/// set by a handful of scheduler stalls and does not repeat between runs.
const LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Median of `xs` (the mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile read off a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// Nearest-rank percentile: the sample of 1-based rank `ceil(p/100 · n)`.
fn rank_of(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of the ladder that leaves at least
/// [`MIN_BEYOND`] samples ranked above it, or `None` when even the median
/// does not (fewer than `2 · MIN_BEYOND` samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    LADDER.iter().find_map(|&p| {
        let rank = rank_of(p, n);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Tail { percentile: p, value: v[rank - 1], beyond, count: n })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with 10 above it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.count), (99.0, 990.0, 10, 1000));
        // The ladder stops at p99 however many samples there are.
        assert_eq!(tail(&ramp(100_000)).unwrap().percentile, 99.0);
        // 999 samples: p99 is rank 990 (ceil 989.01) with 9 above, so p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 999 - 950));
        // 50 samples: p80 is rank 40 with exactly 10 above.
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
        // 48 samples: p80 leaves 9, p75 is rank 36 with 12 above.
        let t = tail(&ramp(48)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 36.0, 12));
        // 20 samples: only the median qualifies.
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
