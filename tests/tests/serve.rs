//! The serving front-end, in-process: `Replica::handle_line` (the one
//! request handler `ligra-serve` runs) and one loopback `Server`
//! listener (the one connection loop both binaries run).
//!
//! Each test replays the session of a former `scripts/*_smoke.sh` and
//! makes that script's assertions, pattern for pattern:
//!
//! * `serve_session_*` — `serve_smoke.sh`: BFS, cache hit, 0 ms deadline
//!   shed, stats, two Prometheus scrapes, shutdown gate;
//! * `every_family_*` — the `stats` / `route-stats` reply against the
//!   scrape, row by row of the metric tables both are rendered from;
//! * `scrape_listener_*` — the bounded scrape request head;
//! * `mutation_session_*` — `mutate_smoke.sh`: epoch lifecycle through
//!   mutate → compact → delete, `ligra_mutation_*` counters (run with
//!   `--features lock-check` it is also the lock-order certification
//!   the script gave under the oracle);
//! * `injected_*`, `graph_load_*` — `chaos_smoke.sh` phase 1 (needs
//!   `--features fault-inject`).
//!
//! `out_of_range_gen_*` has no script: it pins the error replies of `gen`
//! parameters outside the ranges their generators assert.
//!
//! What only real processes can show — exit codes, SIGKILL, restart —
//! stays in `scripts/route_smoke.sh`; the `--client` retry pump is
//! tested against the real binary in `crates/engine/tests/client_retry.rs`.

use ligra::jsonl::field_u64;
use ligra_engine::metrics::{Family, StatsKey, FAMILIES, RETIRED, ROUTE_FAMILIES};
use ligra_engine::scheduler::RETIRED_CAPACITY;
use ligra_engine::serve::SCRAPE_HEAD_TIMEOUT;
use ligra_engine::{
    Engine, EngineConfig, FaultPoint, Frontend, MutationConfig, MutationLog, Query, Replica,
    Router, RouterConfig, Server,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replica configured like `ligra-serve --workers 2` with its other
/// flags at their defaults.
fn replica_with(config: EngineConfig) -> Arc<Replica> {
    let engine = Arc::new(Engine::new(EngineConfig { workers: 2, ..config }));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    Arc::new(Replica::new(engine, log))
}

/// One reply per request line, through `handle_line` directly.
fn session(replica: &Replica, lines: &[&str]) -> Vec<String> {
    lines.iter().map(|l| replica.handle_line(l).0).collect()
}

/// The scripts' `expect <line-no> <pattern> <label>`.
#[track_caller]
fn expect(replies: &[String], line_no: usize, pattern: &str, label: &str) {
    let reply = &replies[line_no - 1];
    assert!(reply.contains(pattern), "[{label}] reply {line_no} lacks {pattern:?}: {reply}");
}

/// One JSONL connection to a loopback listener.
struct Conn(BufReader<TcpStream>);

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the loopback listener");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
        Conn(BufReader::new(stream))
    }

    fn send(&mut self, bytes: &[u8]) {
        self.0.get_mut().write_all(bytes).expect("send");
    }

    /// The next reply line, or `None` if the server closed the connection.
    fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self.0.read_line(&mut line).expect("read reply");
        (n > 0).then(|| line.trim_end().to_string())
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(format!("{line}\n").as_bytes());
        self.reply().expect("server closed the connection")
    }
}

/// One HTTP/1.0 scrape of a metrics listener: the body.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the metrics listener");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body separator");
    assert!(head.contains(&format!("Content-Length: {}", body.len())), "{head}");
    body.to_string()
}

/// The value on the exposition line starting with `prefix`.
#[track_caller]
fn metric(exposition: &str, prefix: &str) -> u64 {
    let line = exposition
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no exposition line starts with {prefix:?}"));
    line.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("numeric sample")
}

#[track_caller]
fn expect_families(exposition: &str, families: &str) {
    for fam in families.split(' ') {
        assert!(exposition.contains(&format!("# TYPE {fam} ")), "family {fam} missing from scrape");
    }
}

#[test]
fn serve_session_over_loopback_agrees_with_stats_and_two_scrapes() {
    let server = Server::new(replica_with(EngineConfig::default()));
    let addr = server.listen("127.0.0.1:0").expect("bind the JSONL listener");
    let metrics_addr = server.listen_metrics("127.0.0.1:0").expect("bind the metrics listener");

    // The endpoint must be live mid-run, not only at shutdown.
    let before = scrape(metrics_addr);

    let mut conn = Conn::open(addr);
    assert!(conn.ask(r#"{"op":"ping"}"#).contains("\"pong\""));
    let replies: Vec<String> = [
        r#"{"op":"gen","family":"rmat","log_n":12}"#,
        r#"{"op":"submit","query":"bfs","source":0}"#,
        r#"{"op":"wait","id":1}"#,
        r#"{"op":"submit","query":"bfs","source":0}"#,
        r#"{"op":"wait","id":2}"#,
        r#"{"op":"submit","query":"pagerank","max_iters":50,"deadline_ms":0}"#,
        r#"{"op":"wait","id":3}"#,
        r#"{"op":"span","id":3}"#,
        r#"{"op":"stats"}"#,
    ]
    .iter()
    .map(|l| conn.ask(l))
    .collect();

    expect(&replies, 1, "\"ok\":true", "gen accepted");
    expect(&replies, 1, "\"vertices\":4096", "gen size");
    expect(&replies, 3, "\"status\":\"done\"", "bfs completes");
    expect(&replies, 3, "\"cache_hit\":false", "first bfs is a miss");
    expect(&replies, 3, "\"reached\":", "bfs carries a result summary");
    expect(&replies, 5, "\"status\":\"done\"", "repeat bfs completes");
    expect(&replies, 5, "\"cache_hit\":true", "repeat bfs on same epoch is a cache hit");
    expect(&replies, 7, "\"status\":\"shed\"", "0ms-deadline query is shed at dequeue");
    expect(&replies, 7, "\"edge_map_rounds\":0", "shed query never ran an edgeMap round");
    expect(&replies, 8, "\"status\":\"shed\"", "span records the shed");
    expect(&replies, 8, "\"rounds\":0,", "span shows zero rounds");
    expect(&replies, 9, "\"cache_hits\":1", "stats count the hit");
    expect(&replies, 9, "\"queue_deadline_sheds\":1", "stats count the deadline shed");
    expect(&replies, 9, "\"completed\":2", "stats count the completions");
    expect(&replies, 9, "\"connections_active\":1", "stats count this connection");
    // The cached reply repeats the first one's summary, not a recomputation.
    let summary = |r: &str| r[r.find("\"rounds\"").expect("summary")..].to_string();
    assert_eq!(summary(&replies[2]), summary(&replies[4]));

    // Second scrape: every pinned family present, counters agreeing
    // with the session just driven.
    let after = scrape(metrics_addr);
    expect_families(
        &after,
        "ligra_epoch ligra_queue_depth ligra_running_queries ligra_queries_submitted_total \
         ligra_queries_retired_total ligra_queries_rejected_total ligra_cache_hits_total \
         ligra_fault_injections_total ligra_wire_requests_total ligra_wire_malformed_total \
         ligra_queue_wait_ns ligra_run_time_ns",
    );
    assert_eq!(metric(&after, "ligra_queries_submitted_total "), 3);
    assert_eq!(metric(&after, "ligra_queries_retired_total{status=\"done\"} "), 2);
    assert_eq!(metric(&after, "ligra_queries_retired_total{status=\"shed\"} "), 1);
    assert_eq!(metric(&after, "ligra_cache_hits_total "), 1);
    // Ten request lines went over this connection, newline-terminated.
    assert_eq!(metric(&after, "ligra_wire_requests_total "), 10);
    for counter in ["ligra_wire_requests_total ", "ligra_wire_bytes_total "] {
        assert!(
            metric(&after, counter) > metric(&before, counter),
            "{counter}not monotone across scrapes"
        );
    }

    // Clean shutdown: acknowledged and flushed, then the gate closes —
    // the stop is released, the drain finds nothing in flight, and a
    // new connection is dropped unanswered.
    assert!(conn.ask(r#"{"op":"shutdown"}"#).contains("\"shutting-down\""));
    assert!(conn.reply().is_none(), "the connection ends after the acknowledgement");
    assert!(!server.wait_for_stop(), "stopped by the op, not by a signal");
    assert!(server.quiesce());
    assert!(Conn::open(addr).reply().is_none(), "a draining server accepts no new work");
}

/// An unsigned field every well-formed reply of this kind carries.
#[track_caller]
fn num(reply: &str, key: &str) -> u64 {
    field_u64(reply, key).unwrap_or_else(|| panic!("reply has no numeric {key:?} field: {reply}"))
}

/// Checks one metric table against a scrape and the flat-JSON reply
/// rendered from the same table moments earlier: headers in table
/// order, every labeled family listing its whole closed label set
/// (`backends` replicas for the router's), every scalar equal to its
/// reply key and every histogram's `_count` equal to its count key.
#[track_caller]
fn assert_reply_agrees_with_scrape<S>(
    table: &[Family<S>],
    reply: &str,
    exposition: &str,
    backends: usize,
) {
    let types: Vec<&str> = exposition.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    let declared: Vec<String> = table.iter().map(|f| format!("{} {}", f.name, f.kind)).collect();
    assert_eq!(types, declared, "scrape families differ from the table");
    for f in table {
        let name = f.name;
        assert!(exposition.contains(&format!("# HELP {name} {}\n", f.help)), "{name}: HELP");
        let labels: Vec<String> = match f.label {
            "" => vec![String::new()],
            "status" => RETIRED.map(|s| format!("{{status=\"{}\"}}", s.name())).to_vec(),
            "point" => FaultPoint::ALL.map(|p| format!("{{point=\"{}\"}}", p.name())).to_vec(),
            "query" => Query::KIND_NAMES.map(|k| format!("{{query=\"{k}\"}}")).to_vec(),
            "backend" => (0..backends).map(|b| format!("{{backend=\"{b}\"}}")).collect(),
            other => panic!("{name}: label key {other:?} has no closed label set here"),
        };
        let suffix = if f.kind == "histogram" { "_count" } else { "" };
        let values: Vec<u64> =
            labels.iter().map(|l| metric(exposition, &format!("{name}{suffix}{l} "))).collect();
        let samples = exposition.lines().filter(|l| l.starts_with(&format!("{name}{suffix}")));
        assert_eq!(samples.count(), labels.len(), "{name}: label values outside the closed set");
        if f.kind == "histogram" {
            // The mandatory, cumulative `+Inf` bucket equals `_count`.
            for (label, count) in labels.iter().zip(&values) {
                let inf = match label.strip_suffix('}') {
                    Some(open) => format!("{open},le=\"+Inf\"}}"),
                    None => "{le=\"+Inf\"}".to_string(),
                };
                assert_eq!(metric(exposition, &format!("{name}_bucket{inf} ")), *count, "{name}");
            }
        }
        match (&f.stats, f.kind) {
            (StatsKey::No, _) => {}
            (StatsKey::Key(stem), "histogram") => {
                let count = num(reply, &format!("{stem}_count"));
                assert_eq!(count, values.iter().sum::<u64>(), "{name}: {stem}_count");
            }
            (StatsKey::Key(key), _) => assert_eq!(num(reply, key), values[0], "{name}: {key}"),
            (StatsKey::PerLabel(keys), _) => {
                let replied: Vec<u64> = keys.iter().map(|k| num(reply, k)).collect();
                assert_eq!(replied, values, "{name}: {keys:?}");
            }
            (StatsKey::Prefix(prefix), _) => {
                for (label, v) in labels.iter().zip(&values) {
                    let value = label.split('"').nth(1).expect("label value").replace('.', "_");
                    assert_eq!(num(reply, &format!("{prefix}{value}")), *v, "{name}: {label}");
                }
            }
        }
    }
}

/// The reply and the scrape are two renderings of one table: after a
/// live session (cache hit, deadline shed, mutation, compaction, a
/// malformed line) every engine family agrees between `stats` and the
/// scrape, and every router family between `route-stats` and the
/// router's scrape over two replicas.
#[test]
fn every_family_agrees_between_the_reply_and_the_scrape() {
    let server = Server::new(replica_with(EngineConfig::default()));
    let addr = server.listen("127.0.0.1:0").expect("bind the JSONL listener");
    let metrics_addr = server.listen_metrics("127.0.0.1:0").expect("bind the metrics listener");
    let mut conn = Conn::open(addr);
    let session = [
        r#"{"op":"gen","family":"grid3d","side":4}"#,
        r#"{"op":"submit","query":"bfs","source":0}"#,
        r#"{"op":"wait","id":1}"#,
        r#"{"op":"submit","query":"bfs","source":0}"#,
        r#"{"op":"submit","query":"pagerank","max_iters":50,"deadline_ms":0}"#,
        r#"{"op":"wait","id":3}"#,
        r#"{"op":"mutate","add_vertices":1,"add":"0-64"}"#,
        r#"{"op":"compact"}"#,
        "this line is not a request",
    ];
    for line in session {
        conn.ask(line);
    }
    // Nothing is in flight, so nothing moves between the reply and the scrape.
    let stats = conn.ask(r#"{"op":"stats"}"#);
    assert_reply_agrees_with_scrape(FAMILIES, &stats, &scrape(metrics_addr), 0);
    for (key, want) in [
        ("completed", 2),
        ("cache_hits", 1),
        ("queue_deadline_sheds", 1),
        ("mutation_batches", 1),
        ("mutation_compact_count", 1),
        ("wire_malformed", 1),
        ("wire_requests", session.len() as u64 + 1),
    ] {
        assert_eq!(num(&stats, key), want, "{key}: {stats}");
    }

    // The router, probing too rarely to move a counter mid-comparison.
    let backends: Vec<String> = (0..2)
        .map(|_| {
            let replica = Server::new(replica_with(EngineConfig::default()));
            replica.listen("127.0.0.1:0").expect("bind a replica").to_string()
        })
        .collect();
    let router = Router::start(RouterConfig {
        backends,
        probe_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    })
    .expect("router start");
    for line in [&session[..3], &["{\"op\":\"stats\"}"]].concat() {
        router.handle_line(line);
    }
    let settled = Instant::now() + Duration::from_secs(10);
    while router.metrics().probes.get() < 2 && Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(10));
    }
    let route_stats = router.handle_line(r#"{"op":"route-stats"}"#).0;
    assert_reply_agrees_with_scrape(ROUTE_FAMILIES, &route_stats, &router.exposition(), 2);
    assert_eq!(num(&route_stats, "requests"), 5, "{route_stats}");
    assert_eq!(num(&route_stats, "journal_entries"), 1, "{route_stats}");

    // `stats` carries what the `metrics` op used to; the op is gone.
    for reply in [conn.ask(r#"{"op":"metrics"}"#), router.handle_line(r#"{"op":"metrics"}"#).0] {
        assert!(reply.contains("unknown op"), "{reply}");
    }
    router.begin_shutdown();
}

/// A scrape client that says nothing, or never finishes its request
/// head, gets its connection closed — within the head timeout, resp. at
/// the head cap — while a well-behaved scrape beside it still answers.
#[test]
fn scrape_listener_closes_silent_and_oversized_heads() {
    let server = Server::new(replica_with(EngineConfig::default()));
    let metrics_addr = server.listen_metrics("127.0.0.1:0").expect("bind the metrics listener");
    let started = Instant::now();
    let connect = || {
        let stream = TcpStream::connect(metrics_addr).expect("connect to the metrics listener");
        stream.set_read_timeout(Some(3 * SCRAPE_HEAD_TIMEOUT)).expect("set timeout");
        stream
    };

    let mut silent = connect();
    let mut endless = connect();
    let _ = endless.write_all(b"GET /metrics HTTP/1.0\r\nX-Padding: ");
    // Past the head cap; the server may hang up mid-write.
    let _ = endless.write_all(&vec![b'a'; 1 << 20]);
    let mut answer = Vec::new();
    let _ = endless.read_to_end(&mut answer);
    assert!(answer.is_empty(), "an oversized head was answered");
    assert!(started.elapsed() < SCRAPE_HEAD_TIMEOUT, "the head cap waited for the timeout");

    assert!(scrape(metrics_addr).contains("# TYPE ligra_epoch gauge"));

    let closed = silent.read_to_end(&mut answer);
    assert!(matches!(closed, Ok(0)), "a silent client was not hung up on: {closed:?}");
    assert!(started.elapsed() >= SCRAPE_HEAD_TIMEOUT, "hung up before the head timeout");
}

#[test]
fn mutation_session_publishes_pins_compacts_and_counts() {
    let replica = replica_with(EngineConfig::default());
    // 4x4x4 grid: 64 vertices, all reachable from 0. The session grows
    // it by two vertices, re-verifies BFS on the new epoch, compacts,
    // re-verifies on the clean CSR, then deletes the bridge edge and
    // verifies again.
    let replies = session(
        &replica,
        &[
            r#"{"op":"gen","family":"grid3d","side":4}"#,
            r#"{"op":"submit","query":"bfs","source":0}"#,
            r#"{"op":"wait","id":1}"#,
            r#"{"op":"submit","query":"pagerank","max_iters":400}"#,
            r#"{"op":"mutate","add_vertices":2,"add":"0-64,64-65"}"#,
            r#"{"op":"submit","query":"bfs","source":0}"#,
            r#"{"op":"wait","id":3}"#,
            r#"{"op":"wait","id":2}"#,
            r#"{"op":"span","id":2}"#,
            r#"{"op":"graph-stats"}"#,
            r#"{"op":"compact"}"#,
            r#"{"op":"graph-stats"}"#,
            r#"{"op":"submit","query":"bfs","source":0}"#,
            r#"{"op":"wait","id":4}"#,
            r#"{"op":"mutate","del":"0-64"}"#,
            r#"{"op":"submit","query":"bfs","source":0}"#,
            r#"{"op":"wait","id":5}"#,
            r#"{"op":"stats"}"#,
        ],
    );
    expect(&replies, 1, "\"vertices\":64", "gen size");
    expect(&replies, 3, "\"reached\":64", "baseline BFS covers the grid");
    expect(&replies, 5, "\"ok\":true", "mutate accepted");
    expect(&replies, 5, "\"epoch\":2", "mutate publishes a new epoch");
    expect(&replies, 5, "\"vertices_added\":2", "mutate grew the id space");
    expect(&replies, 5, "\"arcs_added\":4", "symmetric insert adds both arcs");
    expect(&replies, 7, "\"reached\":66", "post-mutation BFS reaches the grown vertices");
    expect(&replies, 8, "\"status\":\"done\"", "pre-mutation query still completes");
    expect(&replies, 9, "\"epoch\":1", "pre-mutation query stayed pinned to its epoch");
    expect(&replies, 10, "\"has_overlay\":true", "graph-stats shows the overlay");
    expect(&replies, 10, "\"pending_batches\":1", "graph-stats counts the pending batch");
    expect(&replies, 11, "\"ok\":true", "compact accepted");
    expect(&replies, 11, "\"reapplied_batches\":0", "nothing landed mid-compaction");
    expect(&replies, 12, "\"has_overlay\":false", "compaction flattened the overlay");
    expect(&replies, 12, "\"compactions\":1", "graph-stats counts the compaction");
    expect(&replies, 14, "\"reached\":66", "compacted CSR answers identically");
    expect(&replies, 15, "\"arcs_deleted\":2", "delete tombstones both arcs");
    expect(&replies, 17, "\"reached\":64", "deleted bridge disconnects the grown vertices");
    expect(&replies, 18, "\"mutation_batches\":2", "stats count the applied batches");
    expect(&replies, 18, "\"compactions\":1", "stats count the compaction");

    // The scrape tells the same story in the pinned family vocabulary.
    let exposition = replica.exposition();
    expect_families(
        &exposition,
        "ligra_mutation_overlay_edges ligra_mutation_overlay_vertices \
         ligra_mutation_batches_applied_total ligra_mutation_edges_added_total \
         ligra_mutation_edges_deleted_total ligra_mutation_compactions_total \
         ligra_mutation_compaction_failures_total ligra_mutation_compaction_ns",
    );
    assert_eq!(metric(&exposition, "ligra_mutation_batches_applied_total "), 2);
    assert_eq!(metric(&exposition, "ligra_mutation_edges_added_total "), 4);
    assert_eq!(metric(&exposition, "ligra_mutation_edges_deleted_total "), 2);
    assert_eq!(metric(&exposition, "ligra_mutation_compactions_total "), 1);
    assert_eq!(metric(&exposition, "ligra_mutation_compaction_failures_total "), 0);
    assert_eq!(metric(&exposition, "ligra_mutation_compaction_ns_count "), 1);

    // `"wait":false` kicks the compaction off in the background.
    let replies =
        session(&replica, &[r#"{"op":"mutate","add":"1-62"}"#, r#"{"op":"compact","wait":false}"#]);
    expect(&replies, 2, "\"started\":true", "background compaction starts");
    let flattened = (0..500).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        replica.handle_line(r#"{"op":"graph-stats"}"#).0.contains("\"compactions\":2")
    });
    assert!(flattened, "background compaction never installed");

    // What the script proved by running under the lock oracle: the
    // whole session, handler locks included, keeps one lock order.
    #[cfg(feature = "lock-check")]
    {
        let report = ligra_engine::LockOracle::global()
            .certify()
            .expect("serving session certifies lock order");
        assert!(report.sites.contains(&"serve.connections"), "{:?}", report.sites);
    }
}

/// The job-table leak fix: three ring-fulls of submits, cached and
/// executed, leave no finished job in the live map and exactly one ring
/// of retired reports; the newest id still answers with its summary,
/// the oldest answers `expired`.
#[test]
fn finished_ids_answer_until_they_leave_the_ring() {
    let replica = replica_with(EngineConfig::default());
    let first = session(
        &replica,
        &[r#"{"op":"gen","family":"grid3d","side":3}"#, r#"{"op":"poll","id":1}"#],
    );
    expect(&first, 2, "unknown id 1", "an id never issued");
    let total = 3 * RETIRED_CAPACITY as u64;
    for id in 1..=total {
        // Every fourth query is a new source, so it executes.
        let source = if id % 4 == 0 { id % 27 } else { 0 };
        let replies = session(
            &replica,
            &[
                &format!("{{\"op\":\"submit\",\"query\":\"bfs\",\"source\":{source}}}"),
                &format!("{{\"op\":\"wait\",\"id\":{id}}}"),
            ],
        );
        expect(&replies, 2, "\"status\":\"done\"", "every query completes");
    }
    let engine = replica.engine();
    assert!((1..=total).all(|id| engine.handle(id).is_none()), "a finished job stayed live");
    assert_eq!(engine.spans().len(), RETIRED_CAPACITY);

    let replies = session(
        &replica,
        &[
            r#"{"op":"wait","id":1}"#,
            r#"{"op":"span","id":1}"#,
            &format!("{{\"op\":\"wait\",\"id\":{total}}}"),
            &format!("{{\"op\":\"span\",\"id\":{total}}}"),
        ],
    );
    assert_eq!(replies[0], r#"{"ok":false,"error":"expired id 1"}"#);
    assert_eq!(replies[1], r#"{"ok":false,"error":"expired id 1"}"#);
    expect(&replies, 3, "\"reached\":27", "newest id still answers with its summary");
    expect(&replies, 4, "\"status\":\"done\"", "and its span");
}

/// A `gen` whose parameter is outside the range its generator asserts
/// gets an error reply naming the parameter — the generator would panic
/// the connection thread — and the replica then serves a valid `gen`.
#[test]
fn out_of_range_gen_parameters_get_error_replies() {
    let replica = replica_with(EngineConfig::default());
    let replies = session(
        &replica,
        &[
            r#"{"op":"gen","family":"rmat","log_n":0}"#,
            r#"{"op":"gen","family":"grid3d","side":1}"#,
            r#"{"op":"gen","family":"random-local","n":1}"#,
            r#"{"op":"gen","family":"erdos-renyi","n":0}"#,
            r#"{"op":"gen","family":"rmat","log_n":4,"weighted":true,"max_w":0}"#,
            r#"{"op":"gen","family":"rmat","log_n":4,"weighted":true,"max_w":5}"#,
        ],
    );
    for (i, value) in ["log_n 0", "side 1", "n 1", "n 0", "max_w 0"].into_iter().enumerate() {
        let error = format!(r#"{{"ok":false,"error":"{value} out of range"#);
        expect(&replies, i + 1, &error, "typed error");
    }
    expect(&replies, 6, r#"{"ok":true,"epoch":1,"vertices":16"#, "valid gen after the errors");
}

/// `chaos_smoke.sh` phase 1: an armed `wire.read` fault, a malformed
/// line, an oversized line and a non-UTF-8 line each get an error
/// *reply*, and the same connection then serves a BFS.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_wire_fault_and_hostile_lines_get_replies_and_the_connection_survives() {
    use ligra_engine::{FaultPlan, FaultPoint};

    // wire.read hits: ping=1, ping=2 (injected), garbage=3; the oversized
    // and non-UTF-8 lines are rejected before the fault hook, so the
    // final ping is hit 4.
    let plan = FaultPlan::seeded(11).arm_spec("wire.read:error:2").expect("arm wire.read");
    let replica =
        replica_with(EngineConfig { fault: Some(Arc::new(plan)), ..EngineConfig::default() });
    let server = Server::new(Arc::clone(&replica));
    let addr = server.listen("127.0.0.1:0").expect("bind");
    let mut conn = Conn::open(addr);

    conn.send(b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\nthis line is not a request\n");
    conn.send(&[vec![b'x'; 70_000], b"\n".to_vec()].concat());
    conn.send(b"{\"op\":\"\xff\xfe\"}\n{\"op\":\"ping\"}\n");
    let replies: Vec<String> = (0..6).map(|_| conn.reply().expect("one reply per line")).collect();
    expect(&replies, 1, "\"pong\"", "first ping answers");
    expect(&replies, 2, "injected fault at wire.read", "armed hit surfaces as a typed error");
    expect(&replies, 2, "\"transient\":true", "injected wire error is marked transient");
    expect(&replies, 3, "\"ok\":false", "malformed line gets an error response");
    expect(&replies, 4, "too long", "oversized line is drained and reported");
    expect(&replies, 5, "not valid UTF-8", "non-UTF-8 line is reported");
    expect(&replies, 6, "\"pong\"", "the same connection keeps serving");

    let gen = conn.ask(r#"{"op":"gen","family":"rmat","log_n":10}"#);
    assert_eq!(ligra::jsonl::field_bool(&gen, "ok"), Some(true), "{gen}");
    assert!(conn.ask(r#"{"op":"submit","query":"bfs","source":0}"#).contains("\"id\":1"));
    let done = conn.ask(r#"{"op":"wait","id":1}"#);
    assert!(done.contains("\"status\":\"done\"") && done.contains("\"reached\":"), "{done}");

    let plan = replica.engine().fault_plan().expect("plan installed");
    assert_eq!(plan.injected(FaultPoint::WireRead), 1);
    let stats = replica.handle_line(r#"{"op":"stats"}"#).0;
    assert!(stats.contains("\"wire_malformed\":3"), "garbage, oversized, non-UTF-8: {stats}");
    assert!(stats.contains("\"fault_wire_read\":1"), "{stats}");
}

/// A `graph.load` fault — returned or unwound — comes back as a load
/// error the client sees; the next load goes through.
#[cfg(feature = "fault-inject")]
#[test]
fn graph_load_faults_come_back_as_load_errors() {
    use ligra_engine::{FaultAction, FaultPlan, FaultPoint};

    let path = std::env::temp_dir().join(format!("ligra-serve-test-{}.adj", std::process::id()));
    ligra_graph::io::save_graph(&ligra_graph::generators::grid3d(3), &path).expect("write graph");
    let load = format!("{{\"op\":\"load\",\"path\":\"{}\"}}", path.display());
    for action in [FaultAction::Error, FaultAction::Panic] {
        let plan = FaultPlan::seeded(3).arm_at(FaultPoint::GraphLoad, action, 1);
        let replica =
            replica_with(EngineConfig { fault: Some(Arc::new(plan)), ..EngineConfig::default() });
        let replies = session(&replica, &[&load, &load, r#"{"op":"graph-stats"}"#]);
        expect(&replies, 1, "\"ok\":false", "faulted load is refused");
        expect(&replies, 1, "graph.load", "naming the fault point");
        assert_eq!(replies[1], r#"{"ok":true,"epoch":1}"#, "{}: retried load", action.name());
        expect(&replies, 3, "\"vertices\":27", "and serves");
        // The same hook guards the `--graph` preload path.
        assert_eq!(replica.install_from_file(&path.display().to_string(), true, false), Ok(2));
    }
    let _ = std::fs::remove_file(&path);
}
