//! Order statistics for timing samples: median, quartiles, percentiles
//! and the "ten samples beyond" rule for which percentile a sample count
//! supports.

/// Samples a percentile must leave beyond itself before it is worth
/// reporting: with fewer, the figure is a handful of outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The percentiles this harness ever reports, lowest first.
const REPORTABLE: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Ascending copy of `values`. Timing samples are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    out
}

/// The `p`-th percentile (0..=100) of an ascending slice, linearly
/// interpolated between the two nearest ranks. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The `p`-th percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Distance between the first and third quartile of an unsorted sample.
pub fn iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)
}

/// Whether a sample of `n` leaves at least [`MIN_TAIL_SAMPLES`] samples
/// beyond its `p`-th percentile.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    // Whole per-mille steps: `100.0 - 99.9` is not exactly 0.1 in binary.
    let permille = (p.clamp(0.0, 100.0) * 10.0).round() as usize;
    n * (1000 - permille) >= MIN_TAIL_SAMPLES * 1000
}

/// The highest reportable percentile a sample of `n` supports, or `None`
/// when even the median has fewer than ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE
        .iter()
        .rev()
        .copied()
        .find(|&p| supports_percentile(n, p))
}

/// Sub-buckets per power of two: 64 gives buckets under 1.6 % wide.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Fixed-size log-linear histogram of nanosecond samples.
///
/// The serve loops record every query here, not in a growing vector, so
/// the memory the harness adds to `peak_rss_mb` does not depend on how
/// many queries the server completed. Values below 64 ns are exact;
/// above, a bucket spans 1/64 of its power of two and percentiles
/// interpolate inside it.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram covering all of `u64`.
    pub fn new() -> Self {
        let rows = (u64::BITS - SUB_BUCKET_BITS + 1) as usize;
        Histogram {
            counts: vec![0; rows * SUB_BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let shift = (u64::BITS - 1 - value.leading_zeros()) - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        (shift as usize + 1) * SUB_BUCKETS + sub
    }

    /// Lowest value of `bucket` and its width.
    fn bounds_of(bucket: usize) -> (u64, u64) {
        if bucket < SUB_BUCKETS {
            return (bucket as u64, 1);
        }
        let shift = (bucket / SUB_BUCKETS - 1) as u32;
        let sub = (bucket % SUB_BUCKETS) as u64;
        ((SUB_BUCKETS as u64 + sub) << shift, 1 << shift)
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (0..=100), or 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 100.0) / 100.0 * (self.total - 1) as f64;
        let mut before = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (before + count) as f64 {
                let (low, width) = Self::bounds_of(bucket);
                let inside = (rank - before as f64 + 0.5) / count as f64;
                return low as f64 + inside * (width - 1) as f64;
            }
            before += count;
        }
        unreachable!("rank {rank} lies below the total {}", self.total)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.0), 0.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn iqr_is_the_quartile_distance() {
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(iqr(&values), 4.0);
        assert_eq!(iqr(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(supports_percentile(10_000, 99.9));
        assert!(!supports_percentile(9_999, 99.9));
    }

    #[test]
    fn highest_supported_percentile_grows_with_the_sample() {
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(150), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(5_000), Some(99.0));
        assert_eq!(highest_supported_percentile(50_000), Some(99.9));
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for value in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 123_456_789, u64::MAX] {
            let (low, width) = Histogram::bounds_of(Histogram::bucket_of(value));
            assert!(low <= value && value - low < width, "{value}");
            assert!(width == 1 || width as f64 / low as f64 <= 1.0 / 64.0);
        }
    }

    #[test]
    fn histogram_percentiles_track_the_exact_ones() {
        let mut state = 12345u64;
        let mut exact = Vec::new();
        let mut histogram = Histogram::new();
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = 5_000 + (state >> 33) % 400_000;
            exact.push(value as f64);
            histogram.record(value);
        }
        assert_eq!(histogram.len(), 20_000);
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            let want = percentile(&exact, p);
            let got = histogram.percentile(p);
            assert!((got - want).abs() / want < 0.02, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn merged_histograms_count_both_sides() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(30);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.percentile(50.0), 30.0);
        assert!(Histogram::new().is_empty());
        assert_eq!(Histogram::new().percentile(50.0), 0.0);
    }
}
