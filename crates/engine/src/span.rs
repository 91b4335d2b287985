//! Per-query spans: the engine-level complement of the per-round
//! telemetry in `ligra::stats`.
//!
//! Every submitted query leaves exactly one `QuerySpan` behind — queue
//! wait, run time, edgeMap rounds executed (the acceptance probe for
//! cancellation: a cancelled query reports how many rounds it got
//! through before yielding), terminal status, and whether it was served
//! from the result cache. A span leaves the process as the `span` op's
//! reply, one flat object like every other line ([`span_fields`]).

use crate::metrics::bucket_index;
use crate::wire::JsonObj;
use ligra::stats::{Op, RoundStat};
use ligra::{Recorder, TraversalStats};

/// Terminal (and transient) states of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; result available.
    Done,
    /// Cancelled (explicitly or by deadline); partial result discarded.
    Cancelled,
    /// The query was invalid for the snapshot it ran against, or an
    /// injected transient fault surfaced as a typed error.
    Failed,
    /// The query panicked; the worker caught the unwind and self-healed.
    Panicked,
    /// Retired without running: its queue wait had already consumed the
    /// deadline when a worker picked it up.
    Shed,
}

impl QueryStatus {
    /// Stable lowercase name used on the wire and in exports.
    pub fn name(self) -> &'static str {
        match self {
            QueryStatus::Queued => "queued",
            QueryStatus::Running => "running",
            QueryStatus::Done => "done",
            QueryStatus::Cancelled => "cancelled",
            QueryStatus::Failed => "failed",
            QueryStatus::Panicked => "panicked",
            QueryStatus::Shed => "shed",
        }
    }

    /// Whether the query has reached a final state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            QueryStatus::Done
                | QueryStatus::Cancelled
                | QueryStatus::Failed
                | QueryStatus::Panicked
                | QueryStatus::Shed
        )
    }
}

impl std::fmt::Display for QueryStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One query's lifecycle record.
#[derive(Debug, Clone)]
pub struct QuerySpan {
    /// Engine-assigned query id.
    pub id: u64,
    /// Correlation id: client-supplied on the wire or engine-generated.
    /// The same id names the query's on-disk kernel trace
    /// (`query-<trace_id>.jsonl` under the trace dir), joining this
    /// span to its per-round edgeMap rows. Restricted to
    /// `[A-Za-z0-9_-]` so it embeds raw in JSON and file names.
    pub trace_id: String,
    /// Query name (`bfs`, `pagerank`, ...).
    pub query: String,
    /// Snapshot epoch the query was bound to.
    pub epoch: u64,
    /// Terminal status.
    pub status: QueryStatus,
    /// Served from the result cache without running.
    pub cache_hit: bool,
    /// Nanoseconds between admission and a worker picking the query up.
    pub queue_wait_ns: u64,
    /// Metrics-histogram bucket `queue_wait_ns` falls in
    /// (`metrics::bucket_index`) — lets span consumers aggregate
    /// exactly like the engine's own histograms without redoing the
    /// bucket math.
    pub queue_wait_bucket: u64,
    /// Nanoseconds of execution (0 for cache hits and pre-run cancels).
    pub run_ns: u64,
    /// Metrics-histogram bucket `run_ns` falls in.
    pub run_bucket: u64,
    /// edgeMap rounds executed before completion or cancellation.
    pub rounds: u64,
    /// All recorded telemetry events (edgeMap + vertexMap/filter).
    pub events: u64,
    /// Times the scheduler re-enqueued this query after a transient
    /// dispatch fault (0 outside fault-injection runs).
    pub retries: u64,
}

/// Appends the span's thirteen fields to `obj` in their fixed order —
/// the `span` op's reply, and the one place a span is serialized.
pub(crate) fn span_fields(s: &QuerySpan, obj: JsonObj) -> JsonObj {
    obj.u64("id", s.id)
        .str("trace_id", &s.trace_id)
        .str("query", &s.query)
        .u64("epoch", s.epoch)
        .str("status", s.status.name())
        .bool("cache_hit", s.cache_hit)
        .u64("queue_wait_ns", s.queue_wait_ns)
        .u64("queue_wait_bucket", s.queue_wait_bucket)
        .u64("run_ns", s.run_ns)
        .u64("run_bucket", s.run_bucket)
        .u64("rounds", s.rounds)
        .u64("events", s.events)
        .u64("retries", s.retries)
}

/// Stamps the bucket fields from the span's own `_ns` fields, keeping
/// them consistent with the engine's histogram bucketing by
/// construction.
pub fn fill_span_buckets(s: &mut QuerySpan) {
    s.queue_wait_bucket = bucket_index(s.queue_wait_ns) as u64;
    s.run_bucket = bucket_index(s.run_ns) as u64;
}

/// The [`Recorder`] every served query runs under: it counts the
/// edgeMap rounds and events that feed the span and — when the trace join
/// is enabled — also keeps the full per-round [`TraversalStats`], so the
/// scheduler can write the query's kernel trace to disk under its
/// `trace_id` without paying for full traces on runs nobody asked to
/// trace.
#[derive(Debug, Default)]
pub struct RoundCounter {
    /// Recorded `Op::EdgeMap` events.
    pub edge_map_rounds: u64,
    /// All recorded events.
    pub events: u64,
    /// Full per-round rows, present only when tracing was requested.
    pub trace: Option<TraversalStats>,
}

impl RoundCounter {
    /// A recorder that counts rounds; with `trace_rows` it also keeps
    /// every row for the on-disk kernel-trace join.
    pub fn new(trace_rows: bool) -> Self {
        RoundCounter { trace: trace_rows.then(TraversalStats::new), ..Self::default() }
    }
}

impl Recorder for RoundCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, round: RoundStat) {
        self.events += 1;
        if round.op == Op::EdgeMap {
            self.edge_map_rounds += 1;
        }
        if let Some(t) = &mut self.trace {
            t.record(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra::jsonl::{field, field_u64, Fields};
    use ligra::EdgeMapOptions;
    use ligra_apps::bfs_traced;
    use ligra_graph::generators::path;

    #[test]
    fn round_counter_counts_bfs_depth() {
        let g = path(6);
        let mut plain = RoundCounter::new(false);
        let r = bfs_traced(&g, 0, EdgeMapOptions::new(), &mut plain);
        assert_eq!(plain.edge_map_rounds as usize, r.rounds);
        assert!(plain.events >= plain.edge_map_rounds);
        assert!(plain.trace.is_none());
    }

    // The counts are the same with or without the trace rows, and the
    // rows, when kept, agree with them.
    #[test]
    fn tee_recorder_counts_and_optionally_traces() {
        let g = path(6);
        let mut plain = RoundCounter::new(false);
        let _ = bfs_traced(&g, 0, EdgeMapOptions::new(), &mut plain);
        assert!(plain.trace.is_none());
        assert!(plain.edge_map_rounds > 0);

        let mut traced = RoundCounter::new(true);
        let _ = bfs_traced(&g, 0, EdgeMapOptions::new(), &mut traced);
        assert_eq!((traced.edge_map_rounds, traced.events), (plain.edge_map_rounds, plain.events));
        let rows = traced.trace.expect("trace rows requested");
        assert_eq!(rows.num_rounds() as u64, traced.events);
        assert_eq!(rows.edge_map_rounds().count() as u64, traced.edge_map_rounds);
    }

    #[test]
    fn span_json_is_one_flat_line() {
        let mut s = QuerySpan {
            id: 7,
            trace_id: "abc-123".into(),
            query: "bfs".into(),
            epoch: 2,
            status: QueryStatus::Cancelled,
            cache_hit: false,
            queue_wait_ns: 10,
            queue_wait_bucket: 0,
            run_ns: 20,
            run_bucket: 0,
            rounds: 3,
            events: 9,
            retries: 1,
        };
        fill_span_buckets(&mut s);
        let line = span_fields(&s, JsonObj::new()).finish();
        assert!(!line.contains('\n'));
        assert_eq!(Fields::new(&line).filter(|f| f.is_ok()).count(), 13, "{line}");
        assert_eq!(field(&line, "trace_id"), Some("abc-123"));
        assert_eq!(field(&line, "status"), Some("cancelled"));
        assert_eq!(field_u64(&line, "rounds"), Some(3));
        assert_eq!(field_u64(&line, "retries"), Some(1));
        // Buckets are derived from the _ns fields by the shared bucket math.
        assert_eq!(field_u64(&line, "queue_wait_bucket"), Some(bucket_index(10) as u64));
        assert_eq!(field_u64(&line, "run_bucket"), Some(bucket_index(20) as u64));
    }

    #[test]
    fn status_vocabulary_is_closed() {
        // Pin the wire vocabulary: adding a status is a protocol change
        // and must update this list, DESIGN.md §11, and the serving docs.
        let all = [
            QueryStatus::Queued,
            QueryStatus::Running,
            QueryStatus::Done,
            QueryStatus::Cancelled,
            QueryStatus::Failed,
            QueryStatus::Panicked,
            QueryStatus::Shed,
        ];
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["queued", "running", "done", "cancelled", "failed", "panicked", "shed"]);
        for s in all {
            assert_eq!(s.is_terminal(), !matches!(s, QueryStatus::Queued | QueryStatus::Running));
        }
    }
}
