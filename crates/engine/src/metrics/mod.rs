//! Serving-tier metrics: a lock-free registry of counters, gauges, and
//! log-bucketed latency histograms.
//!
//! The engine's hot paths (admission, worker loops, the result cache,
//! the wire reader) record into this module with relaxed atomics — no
//! locks, no allocation. Each instrument is one set of cells: the
//! serving tier records from a handful of threads, so spreading a cell
//! across per-thread slots would only make every read a fold. Readers
//! pull mergeable snapshots and derive exact bucket quantiles; nothing
//! on the read side ever blocks a recorder. Two closed-vocabulary
//! surfaces are built on top:
//!
//! * [`registry::MetricsRegistry`] — the live instruments, one field
//!   per metric, threaded through the scheduler by `Arc`.
//! * [`prometheus`] — the one table per tier that declares every
//!   exported family, and the Prometheus text exposition (format 0.0.4,
//!   served by `--metrics-addr`) and `stats` reply fields derived from
//!   it; pinned family-by-family in the integration tests.

pub mod histogram;
pub mod prometheus;
pub mod registry;

pub use histogram::{
    bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS, MAX_FINITE_BUCKET,
};
pub use prometheus::{render, stats_fields, Family, Reading, StatsKey, FAMILIES, ROUTE_FAMILIES};
pub use registry::{MetricsRegistry, RETIRED};

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter: one relaxed atomic cell.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A settable instantaneous value (queue depth, in-flight bytes).
/// Saturates at zero on underflow rather than wrapping — a transiently
/// stale gauge beats a 2^64 spike on a scrape.
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
}
