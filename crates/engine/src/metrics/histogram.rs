//! Log-bucketed latency histograms with striped atomic recording.
//!
//! A [`Histogram`] counts `u64` observations (nanoseconds, by
//! convention) into power-of-two buckets: bucket 0 holds exact zeros,
//! bucket `i` (1 ≤ i ≤ [`MAX_FINITE_BUCKET`]) holds values in
//! `[2^(i-1), 2^i)`, and the last bucket is the overflow (`+Inf`)
//! bucket. Log bucketing gives ~2× relative resolution across twelve
//! decades for a fixed 40-slot footprint — the right trade for serving
//! latencies, where the interesting structure is "which power of two"
//! rather than exact nanoseconds.
//!
//! Recording is lock-free and contention-free: buckets are striped
//! across [`STRIPES`] cache-line-aligned slabs, each worker thread
//! hashing to its own slab (see [`stripe_id`]), so a record is two
//! relaxed `fetch_add`s plus one relaxed `fetch_max` on lines no other
//! core is writing. Readers fold the stripes into a
//! [`HistogramSnapshot`] — a plain value that merges with other
//! snapshots and answers p50/p95/p99/max queries exactly from the
//! bucket counts (quantiles are bucket upper bounds clamped to the
//! recorded maximum, so they are deterministic given the counts).

use super::{stripe_id, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total bucket count: the zero bucket, 38 finite power-of-two buckets
/// (up to `2^38` ns ≈ 275 s), and one overflow bucket.
pub const BUCKETS: usize = 40;

/// Index of the last finite bucket; `BUCKETS - 1` is the overflow
/// (`+Inf`) bucket.
pub const MAX_FINITE_BUCKET: usize = BUCKETS - 2;

/// The bucket an observation lands in: 0 for zero, `floor(log2 v) + 1`
/// for positive values, clamped into the overflow bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold (`u64::MAX` for the overflow
/// bucket); the `le` bound the Prometheus exposition prints.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i <= MAX_FINITE_BUCKET => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// One stripe: a full bucket array plus a sum cell, cache-line aligned
/// so concurrent writers on different stripes never share a line.
#[repr(align(64))]
struct Stripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// A striped, lock-free, log-bucketed histogram of `u64` observations.
pub struct Histogram {
    stripes: Box<[Stripe]>,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram with [`STRIPES`] recording slabs.
    pub fn new() -> Self {
        Histogram { stripes: (0..STRIPES).map(|_| Stripe::new()).collect(), max: AtomicU64::new(0) }
    }

    /// Records one observation on the calling thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[stripe_id() % STRIPES];
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds the stripes into a mergeable point-in-time snapshot. Exact
    /// once concurrent writers have quiesced; otherwise each bucket is
    /// individually consistent (monotone under concurrent recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for s in self.stripes.iter() {
            for (b, cell) in buckets.iter_mut().zip(s.buckets.iter()) {
                *b += cell.load(Ordering::Relaxed);
            }
            sum += s.sum.load(Ordering::Relaxed);
        }
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum, max: self.max.load(Ordering::Relaxed) }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

/// A plain-value view of a [`Histogram`]: per-bucket counts, total
/// count, sum of observations, and the exact maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket (see [`bucket_index`] / [`bucket_upper_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Adds another snapshot into this one (bucket-wise sum, max of
    /// maxes) — how per-query-kind histograms fold into engine totals.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// All of `parts` folded into one snapshot.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a HistogramSnapshot>) -> Self {
        let mut out = Self::empty();
        for h in parts {
            out.merge(h);
        }
        out
    }

    /// The quantile `q` in `[0, 1]`, computed exactly from the bucket
    /// counts: the upper bound of the bucket holding the `ceil(q·count)`-th
    /// smallest observation, clamped to the recorded maximum (so `p100`
    /// *is* the max and quantiles never exceed it). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_value_falls_within_its_bucket_bounds() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above bucket {i} upper bound");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} not above bucket {} bound", i - 1);
            }
        }
    }

    #[test]
    fn upper_bounds_are_strictly_increasing() {
        for i in 1..BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1), "bucket {i}");
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn count_sum_max_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 5, 5, 100, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 70_110);
        assert_eq!(s.max, 70_000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[bucket_index(5)], 2);
    }

    #[test]
    fn quantiles_come_from_bucket_bounds_clamped_to_max() {
        let h = Histogram::new();
        // 99 fast observations and one slow one.
        for _ in 0..99 {
            h.record(1000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50(), bucket_upper_bound(bucket_index(1000)));
        assert_eq!(s.p95(), bucket_upper_bound(bucket_index(1000)));
        // The p99 rank is 99 — still in the fast bucket; p100 is the max.
        assert_eq!(s.p99(), bucket_upper_bound(bucket_index(1000)));
        assert_eq!(s.quantile(1.0), 1_000_000);
    }

    #[test]
    fn single_observation_quantiles_equal_the_observation_bucket() {
        let h = Histogram::new();
        h.record(12_345);
        let s = h.snapshot();
        // One sample: every quantile is that sample's bucket, clamped to
        // the exact max — i.e., exactly the observation.
        assert_eq!(s.p50(), 12_345);
        assert_eq!(s.p99(), 12_345);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(1 << 20);
        b.record(10);
        b.record(u64::MAX);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.max, u64::MAX);
        assert_eq!(m.buckets[bucket_index(10)], 2);
        assert_eq!(m.buckets[BUCKETS - 1], 1);
        // Merging empty is the identity.
        let before = m.clone();
        m.merge(&HistogramSnapshot::empty());
        assert_eq!(m, before);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 97);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000);
    }
}
