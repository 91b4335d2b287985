//! Cross-crate integration tests for the query engine: results served
//! through the scheduler must be byte-identical to direct app calls,
//! snapshots must isolate in-flight queries from graph installs, and the
//! deadline/cache machinery must compose under a concurrent client mix.

use ligra::EdgeMapOptions;
use ligra_apps as apps;
use ligra_engine::wire::{field, field_u64};
use ligra_engine::{Engine, EngineConfig, Query, QueryOutput, QueryStatus, PAGERANK_ALPHA};
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, rmat};
use std::sync::Arc;
use std::time::Duration;

fn engine_with(workers: usize, g: ligra_graph::Graph) -> Engine {
    let engine =
        Engine::new(EngineConfig { workers, queue_capacity: 256, ..EngineConfig::default() });
    engine.install_graph(Arc::new(g));
    engine
}

#[test]
fn served_results_match_direct_app_calls() {
    let g = rmat(&RmatOptions::paper(9));
    let direct_bfs = apps::bfs(&g, 0);
    let direct_cc = apps::cc(&g);
    let direct_pr = apps::pagerank_traced(
        &g,
        PAGERANK_ALPHA,
        0.0,
        5,
        EdgeMapOptions::new(),
        &mut ligra::NoopRecorder,
    );

    let engine = engine_with(2, g);
    let bfs = engine.submit(Query::Bfs { source: 0 }, None).unwrap();
    let cc = engine.submit(Query::Cc, None).unwrap();
    let pr = engine.submit(Query::PageRank { iters: 5 }, None).unwrap();

    assert_eq!(bfs.wait(), QueryStatus::Done);
    match &*bfs.result().unwrap() {
        QueryOutput::Bfs(r) => {
            // Parents may differ under parallel CAS races; the distance
            // vector is the deterministic part of BFS.
            assert_eq!(r.dist, direct_bfs.dist);
            assert_eq!(r.rounds, direct_bfs.rounds);
        }
        other => panic!("expected BFS output, got {:?}", other.summary()),
    }

    assert_eq!(cc.wait(), QueryStatus::Done);
    match &*cc.result().unwrap() {
        QueryOutput::Cc(r) => assert_eq!(r.label, direct_cc.label),
        other => panic!("expected CC output, got {:?}", other.summary()),
    }

    assert_eq!(pr.wait(), QueryStatus::Done);
    match &*pr.result().unwrap() {
        // eps = 0 makes the iteration count exact, so ranks are
        // reproducible bit-for-bit.
        QueryOutput::PageRank(r) => assert_eq!(r.rank, direct_pr.rank),
        other => panic!("expected PageRank output, got {:?}", other.summary()),
    }
}

#[test]
fn snapshot_isolation_and_epoch_keyed_cache() {
    let small = grid3d(6);
    let small_n = small.num_vertices();
    let engine = engine_with(2, small);
    let first_epoch = engine.current_epoch().unwrap();

    let h1 = engine.submit(Query::Cc, None).unwrap();
    assert_eq!(h1.wait(), QueryStatus::Done);

    // Install a new graph: the epoch moves, and the same query now runs
    // against the new snapshot instead of being served from cache.
    let big = grid3d(8);
    let big_n = big.num_vertices();
    let second_epoch = engine.install_graph(Arc::new(big));
    assert!(second_epoch > first_epoch);

    let h2 = engine.submit(Query::Cc, None).unwrap();
    assert_eq!(h2.wait(), QueryStatus::Done);
    let (r1, r2) = (h1.result().unwrap(), h2.result().unwrap());
    match (&*r1, &*r2) {
        (QueryOutput::Cc(a), QueryOutput::Cc(b)) => {
            assert_eq!(a.label.len(), small_n);
            assert_eq!(b.label.len(), big_n);
        }
        _ => panic!("expected CC outputs"),
    }

    // Same epoch + same query = cache hit: identical Arc, no re-run.
    let h3 = engine.submit(Query::Cc, None).unwrap();
    assert_eq!(h3.wait(), QueryStatus::Done);
    assert!(Arc::ptr_eq(&h3.result().unwrap(), &r2));
    assert!(h3.span().unwrap().cache_hit);
    assert_eq!(engine.stats().cache_hits, 1);
}

#[test]
fn zero_deadline_result_is_never_cached() {
    let engine = engine_with(1, rmat(&RmatOptions::paper(9)));
    let q = Query::PageRank { iters: 30 };

    // An already-expired deadline is shed at dequeue: no worker time,
    // zero rounds run.
    let shed = engine.submit(q.clone(), Some(Duration::ZERO)).unwrap();
    assert_eq!(shed.wait(), QueryStatus::Shed);
    assert!(shed.result().is_none());
    let span = shed.span().unwrap();
    assert_eq!(span.rounds, 0, "a shed query must not run any rounds");

    // The shed attempt must not have poisoned the cache with a partial
    // result: the re-run is a miss that completes normally.
    let fresh = engine.submit(q.clone(), None).unwrap();
    assert_eq!(fresh.wait(), QueryStatus::Done);
    assert!(!fresh.span().unwrap().cache_hit);

    let hit = engine.submit(q, None).unwrap();
    assert_eq!(hit.wait(), QueryStatus::Done);
    assert!(hit.span().unwrap().cache_hit);
    assert_eq!(engine.metrics().retired(QueryStatus::Shed), 1);
    assert_eq!(engine.metrics().retired(QueryStatus::Cancelled), 0);
}

/// Closed-loop submitters outnumbering the workers two to one, every
/// query under a deadline: all finish, none is starved past its
/// deadline while queued behind the others.
#[test]
fn concurrent_client_mix_completes_with_consistent_stats() {
    let engine = engine_with(2, rmat(&RmatOptions::paper(8)));
    let n = 1u32 << 8;
    let deadline = Duration::from_secs(30);

    std::thread::scope(|s| {
        for c in 0..4u32 {
            let engine = &engine;
            s.spawn(move || {
                for i in 0..12u32 {
                    let q = match (c + i) % 4 {
                        0 => Query::Bfs { source: (i * 37 + c) % n },
                        1 => Query::Cc,
                        2 => Query::Radii { seed: (c * 100 + i) as u64 },
                        _ => Query::PageRank { iters: 3 + (i % 3) },
                    };
                    let submitted = std::time::Instant::now();
                    let h = engine.submit(q, Some(deadline)).unwrap();
                    assert_eq!(h.wait(), QueryStatus::Done);
                    assert!(submitted.elapsed() <= deadline, "query {} starved", h.id());
                    assert!(h.result().is_some());
                }
            });
        }
    });

    let m = engine.metrics();
    assert_eq!(m.submitted.get(), 48);
    assert_eq!(m.retired(QueryStatus::Done), 48);
    let refused = m.retired(QueryStatus::Cancelled) + m.retired(QueryStatus::Failed);
    assert_eq!(refused + m.rejected.get(), 0);
    assert_eq!(m.queue_depth.get(), 0);
    assert_eq!(m.running.get(), 0);
    // Repeated Cc/PageRank/Radii submissions on one epoch must have been
    // cache-absorbed, and every accepted query left a span behind.
    assert!(engine.stats().cache_hits > 0);
    assert!((1..=48).all(|id| engine.report(id).is_ok_and(|r| r.span.is_some())));
}

#[test]
fn trace_id_joins_span_to_kernel_trace_on_disk() {
    // The observability contract end to end: a client-supplied trace_id
    // flows wire -> span -> on-disk kernel trace, so one id resolves
    // both the engine-level span and the per-round edgeMap rows it
    // summarizes.
    let dir = std::env::temp_dir().join(format!("ligra-join-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let engine = Engine::new(EngineConfig {
        workers: 1,
        trace_dir: Some(dir.clone()),
        ..EngineConfig::default()
    });
    engine.install_graph(Arc::new(rmat(&RmatOptions::paper(9))));
    let h = engine.submit_traced(Query::Bfs { source: 0 }, None, Some("it-join-7".into())).unwrap();
    assert_eq!(h.trace_id(), "it-join-7");
    assert_eq!(h.wait(), QueryStatus::Done);

    // The span carries the trace_id...
    let span = engine.report(h.id()).unwrap().span.expect("finished query has a span");
    assert_eq!(span.trace_id, "it-join-7");
    assert_eq!(span.id, h.id());

    // ...then the kernel trace by the same id, and check the join: the
    // trace's edgeMap rows are exactly the rounds the span counted, and
    // the rows' work sums are real.
    let path = dir.join("query-it-join-7.jsonl");
    let text = std::fs::read_to_string(&path).expect("kernel trace written");
    let edge_rounds = text.lines().filter(|l| field(l, "op") == Some("edge_map")).count() as u64;
    assert_eq!(edge_rounds, span.rounds, "span round count joins to trace rows");
    assert_eq!(text.lines().count() as u64, span.events);
    assert!(text.lines().all(|l| field_u64(l, "time_ns").is_some_and(|t| t > 0)));

    let _ = std::fs::remove_dir_all(&dir);
}
