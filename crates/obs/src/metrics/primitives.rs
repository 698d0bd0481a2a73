//! Lock-free, thread-sharded metric primitives.
//!
//! The three shapes live telemetry needs:
//!
//! * [`Counter`] — a monotonically increasing `u64`. Writes go to one of
//!   [`N_SHARDS`] cache-line-padded relaxed atomics selected by a
//!   per-thread shard index, so concurrent writers never contend on the
//!   same line; reads merge shards with a sum (exact, because addition
//!   commutes).
//! * [`Gauge`] — a point-in-time `i64` with set/add semantics. Sets do not
//!   commute across shards, so a gauge is a single padded atomic; callers
//!   update gauges from low-frequency sequential paths only.
//! * [`Histogram`] — log2-bucketed `u64` distribution ([`N_BUCKETS`]
//!   buckets: value 0 in bucket 0, otherwise bucket = bit length). Each
//!   shard keeps its own count/sum/bucket array; merged views sum shards.
//!
//! ## Determinism
//!
//! Sharding makes *values* exact but says nothing about ordering; the
//! determinism story is the same as the obs layer's: instrumented code
//! updates metrics only from sequential, fixed-order code paths (batch
//! planning/assembly, EM driver loops), never from inside parallel
//! workers. Under that discipline every counter/gauge/det-histogram value
//! is a pure function of the run's inputs at any thread count.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of cache-line-padded shards per counter/histogram. Threads get
/// a shard round-robin on first touch; collisions are possible (shards
/// are not exclusive) but merge-on-read stays exact regardless.
pub const N_SHARDS: usize = 8;

/// Histogram bucket count: bucket 0 holds the value 0; bucket `i` (1..=64)
/// holds values whose bit length is `i`, i.e. the range `[2^(i-1), 2^i)`.
pub const N_BUCKETS: usize = 65;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use. The
    /// worker pool spawns ephemeral scoped threads, so indices cycle
    /// through shards rather than mapping threads 1:1.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// One cache line holding one atomic, so adjacent shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadU64(AtomicU64);

/// A monotonically increasing counter, sharded across threads.
#[derive(Default)]
pub struct Counter {
    shards: [PadU64; N_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to this thread's shard. Relaxed; never blocks.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merged value: the sum of all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time signed value (queue depth, active-set size).
///
/// Unsharded: last-write-wins semantics cannot be merged across shards,
/// and gauges are updated from low-frequency sequential code anyway.
#[repr(align(64))]
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Which clock a histogram's samples come from. This decides how the
/// snapshot layer serializes it: [`Clock::Det`] distributions are pure
/// functions of the run's inputs and export full bucket deltas as
/// deterministic fields; [`Clock::Wall`] distributions hold host-side
/// nanosecond timings and export only a deterministic sample count plus
/// wall-segregated quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Samples derive from the run's inputs (wave sizes, row counts).
    Det,
    /// Samples are wall-clock durations measured via `obs::WallTimer`.
    Wall,
}

/// One shard of a histogram: count, sum and log2 buckets on its own
/// cache-line-aligned block.
#[repr(align(64))]
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl HistShard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log2 bucket index for a value: 0 for 0, otherwise the bit length.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (`u64::MAX` for the top bucket).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A log2-bucketed distribution of `u64` samples, sharded across threads.
pub struct Histogram {
    clock: Clock,
    shards: [HistShard; N_SHARDS],
}

impl Histogram {
    /// A zeroed histogram tagged with its sample clock.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            shards: std::array::from_fn(|_| HistShard::new()),
        }
    }

    /// Which clock this histogram's samples come from.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Records one sample into this thread's shard. Three relaxed adds.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.shards[shard_index()];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merged view: shard-summed count, sum and buckets.
    pub fn merged(&self) -> HistData {
        let mut out = HistData {
            count: 0,
            sum: 0,
            buckets: [0u64; N_BUCKETS],
        };
        for s in &self.shards {
            out.count += s.count.load(Ordering::Relaxed);
            out.sum += s.sum.load(Ordering::Relaxed);
            for (acc, b) in out.buckets.iter_mut().zip(s.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// A merged (shard-summed) histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistData {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Per-bucket sample counts (log2 buckets; see [`bucket_of`]).
    pub buckets: [u64; N_BUCKETS],
}

impl HistData {
    /// Upper bound of the bucket containing quantile `q` (0.0..=1.0), or 0
    /// on an empty histogram. Log2 buckets bound the relative error by 2x.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(N_BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    #[must_use]
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_shards() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound contains it.
        for v in [0u64, 1, 2, 5, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_bound(bucket_of(v)));
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new(Clock::Det);
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let d = h.merged();
        assert_eq!(d.count, 5);
        assert_eq!(d.sum, 110);
        assert_eq!(d.quantile_bound(0.5), 3); // 3rd of 5 samples is 3 -> bucket 2
        assert_eq!(d.max_bound(), 127); // 100 lives in bucket 7, bound 127
        assert_eq!(d.quantile_bound(1.0), 127);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new(Clock::Wall);
        let d = h.merged();
        assert_eq!(d.count, 0);
        assert_eq!(d.quantile_bound(0.5), 0);
        assert_eq!(d.max_bound(), 0);
    }
}
