//! Serving-tier metrics: a lock-free registry of counters, gauges, and
//! log-bucketed latency histograms.
//!
//! The engine's hot paths (admission, worker loops, the result cache,
//! the wire reader) record into this module with relaxed striped
//! atomics — no locks, no allocation, no shared cache line between
//! recording threads. Readers pull mergeable snapshots and derive
//! exact bucket quantiles; nothing on the read side ever blocks a
//! recorder. Two closed-vocabulary surfaces are built on top:
//!
//! * [`registry::MetricsRegistry`] — the live instruments, one field
//!   per metric, threaded through the scheduler by `Arc`.
//! * [`prometheus`] — the one table per tier that declares every
//!   exported family, and the Prometheus text exposition (format 0.0.4,
//!   served by `--metrics-addr`) and `stats` reply fields derived from
//!   it; pinned family-by-family in the integration tests.
//!
//! Engine workers are plain `std::thread`s, not rayon workers, so a
//! stripe indexed by `rayon::current_thread_index` would collapse onto
//! one slot here. This module instead assigns each OS thread a stripe id
//! at first use ([`stripe_id`]) and stripes over a fixed power-of-two
//! slab count.

pub mod histogram;
pub mod prometheus;
pub mod registry;

pub use histogram::{
    bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS, MAX_FINITE_BUCKET,
};
pub use prometheus::{render, stats_fields, Family, Reading, StatsKey, FAMILIES, ROUTE_FAMILIES};
pub use registry::{MetricsRegistry, RETIRED};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripe count for counters and histograms. Power of two so stripe
/// selection is a mask; 8 covers the worker-pool sizes the engine runs
/// (workers + wire threads) without growing snapshots noticeably.
pub const STRIPES: usize = 8;

/// This thread's stripe id: a small dense integer handed out
/// round-robin the first time a thread records a metric. Stable for
/// the life of the thread, so a worker always hits the same stripe.
#[inline]
pub fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s)
}

/// One cache-line-aligned atomic cell, so adjacent stripes of a
/// [`Counter`] never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A striped, monotonically increasing counter. `add` touches only the
/// calling thread's stripe; `get` folds all stripes (monotone under
/// concurrent recording, exact at quiescence).
#[derive(Default)]
pub struct Counter {
    slots: [PaddedU64; STRIPES],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.slots[stripe_id() % STRIPES].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 on the calling thread's stripe.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The sum across stripes.
    pub fn get(&self) -> u64 {
        self.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A settable instantaneous value (queue depth, in-flight bytes).
/// Unlike [`Counter`] a gauge is a single cell: its writers already
/// serialize on the scheduler queue lock, so striping would only blur
/// the read. Saturates at zero on underflow rather than wrapping —
/// a transiently stale gauge beats a 2^64 spike on a scrape.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value outright.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the value by `n`, clamping at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        // CAS loop (not fetch_sub) so concurrent overshoot can't wrap.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread");
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_tracks_and_saturates() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100); // underflow clamps instead of wrapping
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn stripe_id_is_stable_per_thread() {
        let a = stripe_id();
        let b = stripe_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(stripe_id).join().expect("stripe thread");
        assert_ne!(a, other, "distinct threads get distinct raw stripe ids");
    }

    #[test]
    fn mix64_spreads_nearby_inputs() {
        use ligra_parallel::mix64;
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a >> 32, b >> 32, "high bits differ for adjacent inputs");
        assert_ne!(mix64(0), 0);
    }
}
