//! The metric vocabulary, declared once, and its two renderings.
//!
//! A [`Family`] row is everything the serving tier says about one
//! metric: its Prometheus family name, type, label key and help text,
//! the key it answers to in the `stats` / `route-stats` reply, and how
//! to read its value off a point-in-time sample. [`FAMILIES`] (engine,
//! read off [`EngineStats`]) and [`ROUTE_FAMILIES`] (router, read off
//! the live [`RouterMetrics`]) are the only places a family name or a
//! reply key is written; [`render`] turns a table into Prometheus text
//! exposition and [`stats_fields`] turns the same table into the
//! reply's fields, so the surfaces cannot drift. Adding a metric is one
//! instrument, one sample field and one row.
//!
//! The exposition is hand-rolled (format 0.0.4), no client library:
//! every family is rendered unconditionally (zero valued families still
//! appear, so scrapers and the smoke test can grep deterministically),
//! and label values come from fixed in-repo name tables
//! (`Query::KIND_NAMES`, [`RETIRED`] status names, `FaultPoint` names,
//! backend indices) — none contain `"`, `\`, or newlines, so no
//! escaping pass is needed. Histograms print cumulative `_bucket` lines
//! for non-empty buckets plus the mandatory `le="+Inf"`, then `_sum`
//! and `_count`; bucket bounds are the integer upper bounds from
//! [`super::histogram::bucket_upper_bound`].

use super::histogram::{bucket_upper_bound, HistogramSnapshot, MAX_FINITE_BUCKET};
use super::registry::RETIRED;
use crate::query::Query;
use crate::route::{BackendMetrics, RouterMetrics};
use crate::scheduler::EngineStats;
use crate::wire::JsonObj;
use std::fmt::Write;
use Reading::{Histograms, Labeled, Scalar};
use StatsKey::{Key, No, PerLabel, Prefix};

/// What one family reads off a sample. Labeled readings carry one row
/// per label value, in the label set's fixed order; a histogram family
/// without a label key carries exactly one row (its label value unused).
pub enum Reading {
    /// One unlabeled value.
    Scalar(u64),
    /// One value per label value.
    Labeled(Vec<(String, u64)>),
    /// One histogram per label value.
    Histograms(Vec<(String, HistogramSnapshot)>),
}

/// How a family appears in the `stats` / `route-stats` reply.
pub enum StatsKey {
    /// Not in the reply.
    No,
    /// A scalar under this key; a histogram family as `<key>_count`
    /// plus `<key>_p50_ns`, `_p95_ns`, `_p99_ns` and `_max_ns` of all
    /// its label values merged.
    Key(&'static str),
    /// A labeled family, one key per label value in label order.
    PerLabel(&'static [&'static str]),
    /// A labeled family as `<prefix><label value>`, dots underscored.
    Prefix(&'static str),
}

/// One metric family over samples of type `S`.
pub struct Family<S> {
    /// Prometheus family name.
    pub name: &'static str,
    /// `gauge`, `counter` or `histogram`.
    pub kind: &'static str,
    /// Label key, empty for an unlabeled family.
    pub label: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Where the family shows up in the flat-JSON reply.
    pub stats: StatsKey,
    /// Reads the family's current value off a sample.
    pub read: fn(&S) -> Reading,
}

const fn row<S>(
    name: &'static str,
    kind: &'static str,
    label: &'static str,
    help: &'static str,
    stats: StatsKey,
    read: fn(&S) -> Reading,
) -> Family<S> {
    Family { name, kind, label, help, stats, read }
}

fn per_kind(hs: &[HistogramSnapshot]) -> Reading {
    Histograms(Query::KIND_NAMES.iter().zip(hs).map(|(k, h)| (k.to_string(), h.clone())).collect())
}

fn retired(s: &EngineStats) -> Reading {
    let counts = [s.completed, s.cancelled, s.failed, s.panics, s.queue_deadline_sheds];
    Labeled(RETIRED.iter().zip(counts).map(|(st, n)| (st.name().to_string(), n)).collect())
}

fn fault_injections(s: &EngineStats) -> Reading {
    Labeled(s.fault_injections.iter().map(|&(point, n)| (point.to_string(), n)).collect())
}

/// The engine's closed metric vocabulary, in exposition order. The
/// integration suite pins names, types and label keys verbatim, and
/// checks the README table against this one.
#[rustfmt::skip]
pub const FAMILIES: &[Family<EngineStats>] = &[
    row("ligra_epoch", "gauge", "", "Epoch of the installed graph snapshot (0 = none)",
        Key("epoch"), |s| Scalar(s.epoch.unwrap_or(0))),
    row("ligra_workers", "gauge", "", "Configured worker threads",
        Key("workers"), |s| Scalar(s.workers)),
    row("ligra_queue_capacity", "gauge", "", "Configured admission queue capacity",
        Key("queue_capacity"), |s| Scalar(s.queue_capacity)),
    row("ligra_queue_depth", "gauge", "", "Jobs waiting in the admission queue",
        Key("queued"), |s| Scalar(s.queued)),
    row("ligra_running_queries", "gauge", "", "Jobs executing on workers",
        Key("running"), |s| Scalar(s.running)),
    row("ligra_cache_entries", "gauge", "", "Resident result-cache entries",
        Key("cache_len"), |s| Scalar(s.cache_len)),
    row("ligra_queries_submitted_total", "counter", "", "Queries accepted by the engine",
        Key("submitted"), |s| Scalar(s.submitted)),
    row("ligra_queries_rejected_total", "counter", "", "Queries refused because the queue was full",
        Key("rejected"), |s| Scalar(s.rejected)),
    row("ligra_queries_retired_total", "counter", "status", "Terminal query outcomes by status",
        PerLabel(&["completed", "cancelled", "failed", "panics", "queue_deadline_sheds"]), retired),
    row("ligra_dispatch_retries_total", "counter", "", "Fault-injected dispatches re-enqueued",
        Key("retries"), |s| Scalar(s.retries)),
    row("ligra_worker_busy_ns_total", "counter", "", "Nanoseconds workers spent executing jobs",
        Key("worker_busy_ns"), |s| Scalar(s.worker_busy_ns)),
    row("ligra_worker_idle_ns_total", "counter", "", "Nanoseconds workers spent waiting for work",
        Key("worker_idle_ns"), |s| Scalar(s.worker_idle_ns)),
    row("ligra_cache_hits_total", "counter", "", "Result-cache hits",
        Key("cache_hits"), |s| Scalar(s.cache_hits)),
    row("ligra_cache_misses_total", "counter", "", "Result-cache misses",
        Key("cache_misses"), |s| Scalar(s.cache_misses)),
    row("ligra_cache_evictions_total", "counter", "", "Result-cache LRU evictions",
        Key("cache_evictions"), |s| Scalar(s.cache_evictions)),
    row("ligra_mutation_overlay_edges", "gauge", "", "Arcs in the serving snapshot's delta overlay",
        Key("overlay_edges"), |s| Scalar(s.overlay_edges)),
    row("ligra_mutation_overlay_vertices", "gauge", "", "Vertices touched by the delta overlay",
        Key("overlay_vertices"), |s| Scalar(s.overlay_vertices)),
    row("ligra_mutation_batches_applied_total", "counter", "", "Mutation batches applied",
        Key("mutation_batches"), |s| Scalar(s.mutation_batches)),
    row("ligra_mutation_edges_added_total", "counter", "", "Arcs inserted by mutation batches",
        Key("mutation_edges_added"), |s| Scalar(s.mutation_edges_added)),
    row("ligra_mutation_edges_deleted_total", "counter", "", "Arcs removed by mutation tombstones",
        Key("mutation_edges_deleted"), |s| Scalar(s.mutation_edges_deleted)),
    row("ligra_mutation_compactions_total", "counter", "", "Background CSR compactions installed",
        Key("compactions"), |s| Scalar(s.compactions)),
    row("ligra_mutation_compaction_failures_total", "counter", "", "Compactions failed or panicked",
        Key("compaction_failures"), |s| Scalar(s.compaction_failures)),
    row("ligra_mutation_compaction_ns", "histogram", "", "Compaction wall clock, nanoseconds",
        Key("mutation_compact"), |s| Histograms(vec![(String::new(), s.compaction_time.clone())])),
    row("ligra_fault_injections_total", "counter", "point", "Faults fired by injection point",
        Prefix("fault_"), fault_injections),
    row("ligra_wire_requests_total", "counter", "", "Request lines received by the wire reader",
        Key("wire_requests"), |s| Scalar(s.wire_requests)),
    row("ligra_wire_bytes_total", "counter", "", "Bytes read by the wire reader",
        Key("wire_bytes"), |s| Scalar(s.wire_bytes)),
    row("ligra_wire_malformed_total", "counter", "", "Request lines rejected as malformed",
        Key("wire_malformed"), |s| Scalar(s.wire_malformed)),
    row("ligra_queue_wait_ns", "histogram", "query", "Queue wait per query kind, nanoseconds",
        Key("queue_wait"), |s| per_kind(&s.queue_wait)),
    row("ligra_run_time_ns", "histogram", "query", "Run time per query kind, nanoseconds",
        Key("run"), |s| per_kind(&s.run_time)),
];

/// One labeled row per configured replica; the `backend` label is the
/// replica's zero-based index in `--backend` order.
fn per_backend(m: &RouterMetrics, read: fn(&BackendMetrics) -> u64) -> Reading {
    Labeled(m.backends.iter().enumerate().map(|(id, b)| (id.to_string(), read(b))).collect())
}

fn request_ns(m: &RouterMetrics) -> Reading {
    let per_backend = m.backends.iter().enumerate();
    Histograms(per_backend.map(|(id, b)| (id.to_string(), b.request_ns.snapshot())).collect())
}

/// The router's closed metric vocabulary (`ligra-route
/// --metrics-addr`), same shape and rules as [`FAMILIES`]. Pinned by
/// the same integration suite.
#[rustfmt::skip]
pub const ROUTE_FAMILIES: &[Family<RouterMetrics>] = &[
    row("ligra_route_backends", "gauge", "", "Configured backend replicas",
        Key("backends"), |m| Scalar(m.backends.len() as u64)),
    row("ligra_route_backend_state", "gauge", "backend",
        "Replica state: 0 = down, 1 = degraded, 2 = healthy",
        No, |m| per_backend(m, |b| b.state.get())),
    row("ligra_route_backend_outstanding", "gauge", "backend",
        "Requests currently in flight to the replica",
        No, |m| per_backend(m, |b| b.outstanding.get())),
    row("ligra_route_requests_total", "counter", "", "Client request lines the router parsed",
        Key("requests"), |m| Scalar(m.requests.get())),
    row("ligra_route_forwarded_total", "counter", "backend",
        "Requests successfully exchanged with the replica",
        No, |m| per_backend(m, |b| b.forwarded.get())),
    row("ligra_route_backend_errors_total", "counter", "backend",
        "Forward failures: connect errors, timeouts, torn responses",
        No, |m| per_backend(m, |b| b.errors.get())),
    row("ligra_route_retries_total", "counter", "",
        "Transient backend responses retried on another replica",
        Key("retries"), |m| Scalar(m.retries.get())),
    row("ligra_route_failovers_total", "counter", "",
        "Reads rerouted after a replica died mid-request",
        Key("failovers"), |m| Scalar(m.failovers.get())),
    row("ligra_route_sheds_total", "counter", "", "Requests shed with every replica unavailable",
        Key("sheds"), |m| Scalar(m.sheds.get())),
    row("ligra_route_probes_total", "counter", "", "Health probes attempted",
        Key("probes"), |m| Scalar(m.probes.get())),
    row("ligra_route_probe_failures_total", "counter", "", "Health probes failed",
        No, |m| Scalar(m.probe_failures.get())),
    row("ligra_route_journal_entries", "gauge", "", "Entries resident in the write journal",
        Key("journal_entries"), |m| Scalar(m.journal_entries.get())),
    row("ligra_route_journal_replayed_total", "counter", "",
        "Journal entries replayed to lagging replicas",
        Key("journal_replayed"), |m| Scalar(m.journal_replayed.get())),
    row("ligra_route_wire_malformed_total", "counter", "",
        "Client request lines rejected as malformed",
        No, |m| Scalar(m.wire_malformed.get())),
    row("ligra_route_request_ns", "histogram", "backend",
        "Forwarded request round-trip per replica, nanoseconds",
        No, request_ns),
];

/// One histogram's sample lines; `key` empty means no label but `le`.
fn histogram(out: &mut String, name: &str, key: &str, value: &str, h: &HistogramSnapshot) {
    let (own, lead) = if key.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{{{key}=\"{value}\"}}"), format!("{key}=\"{value}\","))
    };
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 || i > MAX_FINITE_BUCKET {
            continue;
        }
        cum += c;
        let le = bucket_upper_bound(i);
        let _ = writeln!(out, "{name}_bucket{{{lead}le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{lead}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{own} {}", h.sum);
    let _ = writeln!(out, "{name}_count{own} {}", h.count);
}

/// Renders `sample` as Prometheus text exposition: every family of
/// `table` exactly once, in table order, with `# HELP` and `# TYPE`
/// headers; labeled families list every label value even at zero.
pub fn render<S>(table: &[Family<S>], sample: &S) -> String {
    let mut out = String::with_capacity(4096);
    for f in table {
        let (name, key) = (f.name, f.label);
        let _ = writeln!(out, "# HELP {name} {}", f.help);
        let _ = writeln!(out, "# TYPE {name} {}", f.kind);
        match (f.read)(sample) {
            Scalar(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            Labeled(rows) => {
                for (value, v) in rows {
                    let _ = writeln!(out, "{name}{{{key}=\"{value}\"}} {v}");
                }
            }
            Histograms(rows) => {
                for (value, h) in rows {
                    histogram(&mut out, name, key, &value, &h);
                }
            }
        }
    }
    out
}

/// Appends every family of `table` that has a [`StatsKey`] to the
/// flat-JSON reply `obj`, in table order.
pub fn stats_fields<S>(table: &[Family<S>], sample: &S, mut obj: JsonObj) -> JsonObj {
    for f in table.iter().filter(|f| !matches!(f.stats, No)) {
        match ((f.read)(sample), &f.stats) {
            (Scalar(v), Key(key)) => obj = obj.u64(key, v),
            (Labeled(rows), PerLabel(keys)) => {
                for (key, (_, v)) in keys.iter().zip(rows) {
                    obj = obj.u64(key, v);
                }
            }
            (Labeled(rows), Prefix(prefix)) => {
                for (value, v) in rows {
                    obj = obj.u64(&format!("{prefix}{}", value.replace('.', "_")), v);
                }
            }
            (Histograms(rows), Key(stem)) => {
                let h = HistogramSnapshot::merged(rows.iter().map(|(_, h)| h));
                obj = obj
                    .u64(&format!("{stem}_count"), h.count)
                    .u64(&format!("{stem}_p50_ns"), h.p50())
                    .u64(&format!("{stem}_p95_ns"), h.p95())
                    .u64(&format!("{stem}_p99_ns"), h.p99())
                    .u64(&format!("{stem}_max_ns"), h.max);
            }
            // A key that does not fit the reading names nothing: the
            // agreement test fails on the missing field.
            (_, _) => {}
        }
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::super::histogram::bucket_index;
    use super::*;
    use crate::span::QueryStatus;
    use crate::{Engine, EngineConfig};

    /// The stats of an idle engine, with one histogram and a few
    /// counters filled in by hand.
    fn sample() -> EngineStats {
        let mut h = HistogramSnapshot::empty();
        h.buckets[bucket_index(1000)] = 3;
        h.buckets[bucket_index(1 << 20)] = 1;
        h.count = 4;
        h.sum = 3 * 1000 + (1 << 20);
        h.max = 1 << 20;
        let mut s = Engine::new(EngineConfig::default()).stats();
        s.completed = 5;
        s.compaction_time = h.clone();
        s.run_time[Query::Bfs { source: 0 }.kind_index()] = h;
        s.fault_injections[1].1 = 7;
        s
    }

    #[test]
    fn labeled_families_emit_every_closed_label_value() {
        let text = render(FAMILIES, &sample());
        for st in RETIRED.map(QueryStatus::name) {
            assert!(
                text.contains(&format!("ligra_queries_retired_total{{status=\"{st}\"}} ")),
                "missing status {st}"
            );
        }
        for kind in Query::KIND_NAMES {
            assert!(
                text.contains(&format!("ligra_run_time_ns_count{{query=\"{kind}\"}} ")),
                "missing kind {kind}"
            );
        }
        assert!(text.contains("ligra_queries_retired_total{status=\"done\"} 5"));
        assert!(text.contains("ligra_fault_injections_total{point=\"graph.load\"} 0"));
        assert!(text.contains("ligra_fault_injections_total{point=\"edgemap.round\"} 7"));
    }

    #[test]
    fn histogram_lines_are_cumulative_and_end_at_inf() {
        let text = render(FAMILIES, &sample());
        let b1000 = bucket_upper_bound(bucket_index(1000));
        let b1m = bucket_upper_bound(bucket_index(1 << 20));
        assert!(
            text.contains(&format!("ligra_run_time_ns_bucket{{query=\"bfs\",le=\"{b1000}\"}} 3"))
        );
        assert!(text.contains(&format!("ligra_run_time_ns_bucket{{query=\"bfs\",le=\"{b1m}\"}} 4")));
        assert!(text.contains("ligra_run_time_ns_bucket{query=\"bfs\",le=\"+Inf\"} 4"));
        assert!(text
            .contains(&format!("ligra_run_time_ns_sum{{query=\"bfs\"}} {}", 3 * 1000 + (1 << 20))));
        assert!(text.contains("ligra_run_time_ns_count{query=\"bfs\"} 4"));
        // Empty histograms still close with +Inf, sum, count.
        assert!(text.contains("ligra_run_time_ns_bucket{query=\"mis\",le=\"+Inf\"} 0"));
        assert!(text.contains("ligra_run_time_ns_sum{query=\"mis\"} 0"));
        // The label-free compaction histogram closes the same way.
        assert!(text.contains("ligra_mutation_compaction_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ligra_mutation_compaction_ns_count 4"));
    }

    #[test]
    fn router_families_emit_every_backend_row() {
        let m = RouterMetrics::with_backends(3);
        m.backends[2].forwarded.add(5);
        let text = render(ROUTE_FAMILIES, &m);
        for id in 0..3 {
            assert!(
                text.contains(&format!("ligra_route_backend_state{{backend=\"{id}\"}} ")),
                "missing state row for backend {id}"
            );
            assert!(
                text.contains(&format!(
                    "ligra_route_request_ns_bucket{{backend=\"{id}\",le=\"+Inf\"}} "
                )),
                "missing histogram close for backend {id}"
            );
        }
        assert!(text.contains("ligra_route_forwarded_total{backend=\"2\"} 5"));
        assert!(text.contains("ligra_route_failovers_total 0"));
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        for line in render(FAMILIES, &sample()).lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, v)| !name.is_empty() && v.parse::<u64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn stats_fields_follow_each_kind_of_key() {
        let reply = stats_fields(FAMILIES, &sample(), JsonObj::new()).finish();
        for field in [
            "\"completed\":5",
            "\"queue_deadline_sheds\":0",
            "\"fault_edgemap_round\":7",
            "\"run_count\":4",
            "\"mutation_compact_max_ns\":1048576",
        ] {
            assert!(reply.contains(field), "{field} missing from {reply}");
        }
    }
}
