//! Log-scale histograms for latency-style measurements.
//!
//! Buckets are powers of two over a fixed-point representation (values are
//! scaled by [`SCALE`] before bucketing), so the histogram covers ~nine
//! decades — sub-millisecond to weeks of simulated seconds — in 64 buckets.
//! A quantile reads its bucket's lower edge, so it can sit up to a factor
//! of two below the sample it stands for. Buckets are plain counts: the
//! [`MemoryRecorder`](crate::MemoryRecorder) that owns a histogram writes
//! it under its lock, and *where* a sample lands never depends on which
//! thread recorded it, so histogram contents obey the same determinism
//! contract as the event stream.

/// Fixed-point scale applied before bucketing: 1 unit = 1 microsecond when
/// samples are seconds.
pub const SCALE: f64 = 1e6;

const BUCKETS: usize = 64;

/// A power-of-two histogram.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
        }
    }
}

/// Index of the bucket holding `value`: `floor(log2(value * SCALE)) + 1`,
/// with zero/negative values in bucket 0.
fn bucket_of(value: f64) -> usize {
    let scaled = value * SCALE;
    // NaN, zero, negative and sub-unit values all land in bucket 0.
    if scaled.is_nan() || scaled < 1.0 {
        return 0;
    }
    let scaled = scaled.min(u64::MAX as f64) as u64;
    (64 - scaled.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Lower edge of bucket `i`, in sample units.
fn bucket_floor(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (1u64 << (i - 1)) as f64 / SCALE
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.buckets[bucket_of(value)] += 1;
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`): the lower edge of the bucket
    /// containing the `q`-th sample. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // p50 must sit in the ~1 s bucket, p99 in the ~1000 s bucket.
        assert!((0.25..=1.0).contains(&p50), "p50 = {p50}");
        assert!((250.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert!(p99 > p50);
    }

    #[test]
    fn degenerate_inputs_land_in_the_zero_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        // Every quantile of an empty histogram is the 0 sentinel, including
        // the extremes.
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(3.0);
        assert_eq!(h.count(), 1);
        let floor = h.quantile(0.5);
        // One sample: p0 through p100 all land in its bucket.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), floor, "q = {q}");
        }
        // The bucket floor brackets the sample with bounded relative error.
        assert!(floor > 0.0 && floor <= 3.0, "floor = {floor}");
        assert!(3.0 <= floor * 2.0, "sample above its bucket ceiling");
    }

    #[test]
    fn p0_and_p100_bracket_a_spread_distribution() {
        let mut h = LogHistogram::new();
        h.record(0.001);
        h.record(1.0);
        h.record(4000.0);
        // p0 clamps to the first sample's bucket, p100 to the last's; out of
        // range q values clamp rather than panic.
        let p0 = h.quantile(0.0);
        let p100 = h.quantile(1.0);
        assert!(p0 <= 0.001, "p0 = {p0}");
        assert!((2000.0..=4000.0).contains(&p100), "p100 = {p100}");
        assert_eq!(h.quantile(-1.0), p0);
        assert_eq!(h.quantile(2.0), p100);
    }

    #[test]
    fn huge_values_saturate_the_top_bucket() {
        let mut h = LogHistogram::new();
        h.record(f64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > 0.0);
    }
}
