//! The live metric instruments.
//!
//! [`MetricsRegistry`] is the single allocation of instruments the
//! whole serving tier records into: the scheduler (admission, queue,
//! workers), the mutation log and the wire reader. It is deliberately a
//! struct of named fields rather than a string-keyed map: the metric
//! vocabulary is closed (pinned by tests), lookups are field accesses
//! on the hot path, and a typo is a compile error instead of a silently
//! new time series.
//!
//! The read side is `Engine::stats`: one point-in-time fold of every
//! instrument plus the lock-guarded values (cache counters, fault
//! injections) and static configuration (worker count, queue capacity), which
//! the `stats` reply and the Prometheus exposition both render through
//! [`super::prometheus::FAMILIES`], so the two surfaces can never
//! disagree.

use super::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::query::Query;
use crate::span::QueryStatus;

/// Number of query kinds ([`Query::KIND_NAMES`]); the per-kind
/// histogram arrays are indexed by [`Query::kind_index`].
pub const N_KINDS: usize = Query::KIND_NAMES.len();

/// Lock-free instruments for the serving tier. Shared by `Arc` between
/// the engine, its workers, and the wire front-end.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    // --- admission & queue ---
    /// Queries accepted into the engine (including cache hits).
    pub submitted: Counter,
    /// Queries refused at admission (queue full).
    pub rejected: Counter,
    /// Jobs currently waiting in the queue.
    pub queue_depth: Gauge,

    // --- worker pool ---
    /// Jobs currently executing on a worker.
    pub running: Gauge,
    /// Terminal outcomes by status, indexed like [`RETIRED`].
    retired: [Counter; RETIRED.len()],
    /// Fault-injected dispatches re-enqueued for another attempt.
    pub retries: Counter,
    /// Nanoseconds workers spent executing jobs.
    pub worker_busy_ns: Counter,
    /// Nanoseconds workers spent parked waiting for work.
    pub worker_idle_ns: Counter,

    // --- live mutation subsystem ---
    /// Mutation batches applied (each publishes an epoch).
    pub mutation_batches: Counter,
    /// Arcs inserted by mutation batches (set-semantics no-ops excluded).
    pub mutation_edges_added: Counter,
    /// Arc copies removed by mutation tombstones.
    pub mutation_edges_deleted: Counter,
    /// Arcs held in the serving snapshot's delta overlay right now.
    pub mutation_overlay_edges: Gauge,
    /// Vertices touched by the serving snapshot's overlay right now.
    pub mutation_overlay_vertices: Gauge,
    /// Background compactions that installed a clean CSR.
    pub mutation_compactions: Counter,
    /// Compactions that failed or panicked without touching the store.
    pub mutation_compaction_failures: Counter,
    /// Wall-clock nanoseconds per successful compaction.
    mutation_compact_time: Histogram,

    // --- latency histograms, per query kind ---
    queue_wait: [Histogram; N_KINDS],
    run_time: [Histogram; N_KINDS],

    // --- wire front-end ---
    /// Request lines received (well-formed or not).
    pub wire_requests: Counter,
    /// Bytes read off accepted connections / stdin.
    pub wire_bytes: Counter,
    /// Lines rejected before dispatch: oversized, non-UTF-8, or unparseable.
    pub wire_malformed: Counter,
}

/// Terminal statuses a job can retire with, in the order the `retired`
/// counters use; the Prometheus `status` label is each one's
/// [`QueryStatus::name`]. `Shed` here means a queue-deadline shed; a
/// submit refused at admission never becomes a job and is counted in
/// `rejected`.
pub const RETIRED: [QueryStatus; 5] = [
    QueryStatus::Done,
    QueryStatus::Cancelled,
    QueryStatus::Failed,
    QueryStatus::Panicked,
    QueryStatus::Shed,
];

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn retired_slot(&self, status: QueryStatus) -> &Counter {
        let slot = RETIRED.iter().position(|&s| s == status);
        &self.retired[slot.expect("only terminal statuses retire")]
    }

    /// Counts one terminal outcome.
    #[inline]
    pub fn retire(&self, status: QueryStatus) {
        self.retired_slot(status).incr();
    }

    /// Terminal-outcome count for one of the [`RETIRED`] statuses.
    pub fn retired(&self, status: QueryStatus) -> u64 {
        self.retired_slot(status).get()
    }

    /// Records how long a job of `kind` waited in the queue.
    #[inline]
    pub fn observe_queue_wait(&self, kind: usize, ns: u64) {
        self.queue_wait[kind % N_KINDS].record(ns);
    }

    /// Records how long a job of `kind` ran on a worker.
    #[inline]
    pub fn observe_run_time(&self, kind: usize, ns: u64) {
        self.run_time[kind % N_KINDS].record(ns);
    }

    /// Per-kind queue-wait snapshots, in [`Query::KIND_NAMES`] order.
    pub fn queue_wait_snapshots(&self) -> [HistogramSnapshot; N_KINDS] {
        std::array::from_fn(|kind| self.queue_wait[kind].snapshot())
    }

    /// Per-kind run-time snapshots, in [`Query::KIND_NAMES`] order.
    pub fn run_time_snapshots(&self) -> [HistogramSnapshot; N_KINDS] {
        std::array::from_fn(|kind| self.run_time[kind].snapshot())
    }

    /// Records one successful compaction's wall-clock duration.
    #[inline]
    pub fn observe_compaction(&self, ns: u64) {
        self.mutation_compact_time.record(ns);
    }

    /// Snapshot of the compaction-duration histogram.
    pub fn compaction_snapshot(&self) -> HistogramSnapshot {
        self.mutation_compact_time.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_retire_statuses_are_closed() {
        assert_eq!(N_KINDS, 8);
        // The wire parser accepts exactly the kind names and two aliases.
        let parse = |kind: &str| {
            let line = format!(r#"{{"op":"submit","query":"{kind}"}}"#);
            crate::handler::query_from(&crate::Request::parse(&line).expect("well-formed"))
        };
        for (i, kind) in Query::KIND_NAMES.into_iter().enumerate() {
            let q = parse(kind).expect(kind);
            assert_eq!((q.kind_index(), q.name()), (i, kind));
        }
        assert_eq!(parse("bellman_ford").map(|q| q.name()), Ok("bellman-ford"));
        assert_eq!(parse("k-core").map(|q| q.name()), Ok("kcore"));
        for unknown in ["sssp", "BFS", "pr", ""] {
            let err = parse(unknown).expect_err(unknown);
            assert!(err.contains(&Query::KIND_NAMES.join("|")), "{err}");
        }
        assert_eq!(
            RETIRED.map(QueryStatus::name),
            ["done", "cancelled", "failed", "panicked", "shed"]
        );
        assert!(RETIRED.iter().all(|s| s.is_terminal()));
    }

    #[test]
    fn retire_counts_by_status() {
        let r = MetricsRegistry::new();
        r.retire(QueryStatus::Done);
        r.retire(QueryStatus::Done);
        r.retire(QueryStatus::Shed);
        assert_eq!(r.retired(QueryStatus::Done), 2);
        assert_eq!(r.retired(QueryStatus::Shed), 1);
        assert_eq!(r.retired(QueryStatus::Cancelled), 0);
    }

    #[test]
    fn per_kind_histograms_merge() {
        let r = MetricsRegistry::new();
        r.observe_run_time(0, 100);
        r.observe_run_time(3, 1_000_000);
        let per_kind = r.run_time_snapshots();
        let merged = HistogramSnapshot::merged(&per_kind);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 1_000_000);
        assert_eq!(per_kind[0].count, 1);
        assert_eq!(per_kind[1].count, 0);
    }
}
