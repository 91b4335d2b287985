//! End-to-end telemetry: real application runs produce traces whose
//! events are internally consistent, whose exports round-trip losslessly
//! through the JSONL serialization, and whose counters respect the
//! structural bounds of the graph being traversed.

use ligra::{
    from_json_lines, summary, to_json_lines, EdgeMapOptions, Mode, NoopRecorder, Op, Traversal,
    TraversalStats,
};
use ligra_apps as apps;
use ligra_compress::CompressedGraph;
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, rmat};
use ligra_graph::Neighbors;

#[test]
fn bfs_trace_has_one_event_per_round_and_nonzero_monotone_time() {
    let g = rmat(&RmatOptions::paper(11));
    let mut stats = TraversalStats::new();
    let result = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    assert_eq!(stats.edge_map_rounds().count(), result.rounds);
    // Wall-clock is recorded for every event and total time accumulates.
    let mut running = 0u64;
    for r in &stats.rounds {
        assert!(r.time_ns > 0, "every recorded span must have measured time");
        running += r.time_ns;
    }
    assert_eq!(stats.total_time_ns(), running);
}

#[test]
fn auto_trace_explains_every_direction_decision() {
    // `Auto` is the paper's two-way rule and nothing else: every round of
    // every app, on either representation, is sparse or dense exactly as
    // `work > threshold` says, and none touches a bin.
    fn check<G: Neighbors<Weight = ()>>(g: &G, what: &str) {
        let m = g.num_edges() as u64;
        let opts = EdgeMapOptions::default();
        let mut stats = TraversalStats::new();
        let _ = apps::bfs_traced(g, 0, opts, &mut stats);
        let _ = apps::cc_traced(g, opts, &mut stats);
        let _ = apps::pagerank_traced(g, 0.85, 0.0, 3, opts, &mut stats);
        let _ = apps::bc_traced(g, 0, opts, &mut stats);
        let (sparse, dense, ..) = stats.mode_counts();
        assert!(sparse > 0 && dense > 0, "{what}: BFS peaks dense and tails sparse");
        for r in stats.edge_map_rounds() {
            assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges, "{what}: {r:?}");
            assert_eq!(r.threshold, m / 20, "{what}: {r:?}");
            assert!(!r.forced, "{what}: {r:?}");
            assert!(matches!(r.mode, Mode::Sparse | Mode::Dense), "{what}: {r:?}");
            assert_eq!(r.mode == Mode::Dense, r.work > r.threshold, "{what}: {r:?}");
            assert_eq!((r.partitions, r.bins_flushed, r.scatter_bytes), (0, 0, 0), "{what}: {r:?}");
        }
    }
    for (name, g) in [("rmat", rmat(&RmatOptions::paper(12))), ("grid", grid3d(16))] {
        check(&g, name);
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        check(&cg, &format!("{name}/byte-coded"));
    }
}

#[test]
fn whole_frontier_work_is_n_plus_m_without_walking_it_on_every_representation() {
    // A frontier of all of `V` reports `m` out-edges straight from the
    // graph's arc count; a walk over the degrees must agree wherever that
    // count is kept: directed and symmetric CSR, a live overlay (whose
    // `m` is maintained per batch), and a byte-coded graph.
    fn check<G: Neighbors<Weight = ()>>(g: &G, what: &str) {
        let n = g.num_vertices();
        let walked: u64 = (0..n as u32).map(|v| g.out_degree(v) as u64).sum();
        let f = ligra::edge_fn(|_, _, _: ()| true, |_| true);
        let mut stats = TraversalStats::new();
        let mut all = ligra::VertexSubset::all(n);
        let _ = ligra::edge_map_recorded(g, &mut all, &f, EdgeMapOptions::default(), &mut stats);
        // The same set minus one vertex takes the word-at-a-time walk.
        let mut most = ligra::VertexSubset::from_fn(n, |v| v != 0);
        let _ = ligra::edge_map_recorded(g, &mut most, &f, EdgeMapOptions::default(), &mut stats);
        let (whole, proper) = (stats.rounds[0], stats.rounds[1]);
        assert_eq!(whole.frontier_out_edges, walked, "{what}");
        assert_eq!(whole.work, n as u64 + walked, "{what}");
        assert_eq!(proper.frontier_out_edges, walked - g.out_degree(0) as u64, "{what}");
        assert_eq!(whole.mode, Mode::Dense, "{what}");
    }
    let directed = ligra_graph::generators::erdos_renyi(400, 3000, 7, false);
    let batch = ligra_graph::DeltaBatch::new()
        .add_edge(0, 399)
        .add_edge(7, 3)
        .del_edge(0, directed.out_neighbors(0)[0]);
    let (overlay, _, _) = ligra_graph::apply_batch(&directed, &batch).expect("in-range batch");
    assert!(overlay.has_overlay());
    check(&directed, "directed");
    check(&rmat(&RmatOptions::paper(10)), "symmetric");
    check(&overlay, "overlay");
    check(&CompressedGraph::<ligra_compress::ByteCode>::from_graph(&directed), "byte-coded");
}

#[test]
fn pagerank_trace_is_one_edge_map_and_one_vertex_pass_per_iteration() {
    // Everything PageRank does to `V` between two edgeMaps (damping, the
    // L1 term, rolling p, re-zeroing the accumulators, the next shares)
    // is one recorded vertex pass, so `core.vertex_map_ns_per_vertex`
    // keeps its meaning: time per vertex of a whole-`V` vertexMap.
    let g = rmat(&RmatOptions::paper(10));
    let n = g.num_vertices() as u64;
    let mut stats = TraversalStats::new();
    let r = apps::pagerank_traced(&g, 0.85, 0.0, 4, EdgeMapOptions::default(), &mut stats);
    assert_eq!(r.iterations, 4);
    let ops: Vec<Op> = stats.rounds.iter().map(|r| r.op).collect();
    assert_eq!(ops, [Op::EdgeMap, Op::VertexMap].repeat(4));
    for r in &stats.rounds {
        assert_eq!(r.frontier_vertices, n);
        assert!(r.time_ns > 0);
        if r.op == Op::EdgeMap {
            assert_eq!((r.mode, r.edges_scanned), (Mode::Dense, g.num_edges() as u64));
            assert_eq!((r.edges_skipped, r.cas_attempts, r.output_vertices), (0, 0, 0));
        }
    }
}

#[test]
fn auto_scans_no_more_edges_than_any_forced_policy() {
    // Counts, not clocks: BFS frontiers are deterministic, a push round
    // scans its frontier's out-edges and a pull round's scan depends only
    // on the frontier, so these sums repeat exactly on any thread pool.
    // Pull's early exit is what `Auto` buys on the wide rounds; scatter
    // bins every out-edge and so can never get below the push total.
    let g = rmat(&RmatOptions::paper(14));
    let (source, _) = g.max_out_degree();
    let scanned = |t: Traversal| {
        let mut stats = TraversalStats::new();
        let _ = apps::bfs_traced(&g, source, EdgeMapOptions::new().traversal(t), &mut stats);
        stats.edge_map_rounds().map(|r| r.edges_scanned).sum::<u64>()
    };
    let auto = scanned(Traversal::Auto);
    for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
        let forced = scanned(t);
        assert!(auto <= forced, "auto scanned {auto}, forced {t} {forced}");
    }
    let partitioned = scanned(Traversal::Partitioned);
    assert!(auto < partitioned, "auto scanned {auto}, forced partitioned {partitioned}");
}

#[test]
fn conversion_flags_mark_representation_switches() {
    let g = rmat(&RmatOptions::paper(12));
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    for r in stats.edge_map_rounds() {
        let wants_sparse = r.mode == Mode::Sparse;
        let input_sparse = r.input_repr == ligra::ReprKind::Sparse;
        if r.frontier_vertices > 0 {
            assert_eq!(r.converted, wants_sparse != input_sparse);
        }
    }
    // A low-diameter BFS goes sparse -> dense -> sparse, so at least one
    // round converted its input representation.
    assert!(stats.edge_map_rounds().any(|r| r.converted));
}

#[test]
fn dense_pull_scans_at_most_all_in_edges() {
    let g = grid3d(12); // symmetric: in-edges == out-edges == m
    let m = g.num_edges() as u64;
    let mut stats = TraversalStats::new();
    let opts = EdgeMapOptions::new().traversal(Traversal::Dense);
    let _ = apps::bfs_traced(&g, 0, opts, &mut stats);
    for r in stats.edge_map_rounds() {
        assert_eq!(r.mode, Mode::Dense);
        assert!(r.forced);
        // Early exit can only shrink the scan, and scanned + skipped
        // always partition the full in-edge set.
        assert!(r.edges_scanned <= m);
        assert_eq!(r.edges_scanned + r.edges_skipped, m);
    }
}

#[test]
fn frontier_bytes_pin_exact_push_output_and_packed_dense_reads() {
    // Pins the memory-traffic contract of the representation work: the
    // sparse push allocates exactly |output| slots (4 bytes each, no
    // sentinel padding between frontier and result), and every dense round
    // streams the n/8-byte packed bitset — once in, once out.
    let g = rmat(&RmatOptions::paper(12));
    let n = g.num_vertices() as u64;
    let packed = n.div_ceil(64) * 8;
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let mut saw = (false, false);
    for r in stats.edge_map_rounds() {
        if r.frontier_vertices == 0 {
            assert_eq!(r.frontier_bytes, 0);
            continue;
        }
        match r.mode {
            Mode::Sparse => {
                assert_eq!(r.frontier_bytes, 4 * (r.frontier_vertices + r.output_vertices));
                saw.0 = true;
            }
            Mode::Dense | Mode::DenseForward | Mode::Partitioned => {
                assert_eq!(r.frontier_bytes, 2 * packed);
                saw.1 = true;
            }
        }
    }
    assert!(saw.0 && saw.1, "BFS on rMat must exercise both sparse and dense rounds");
}

#[test]
fn partitioned_rounds_report_bin_traffic_and_classic_rounds_do_not() {
    // The three partition telemetry columns are zero on every classic
    // round and internally consistent on partitioned ones: 8 bytes of
    // bin entry per scanned out-edge on an unweighted graph, at least
    // one flushed bin whenever anything was scattered.
    let g = rmat(&RmatOptions::paper(12));
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    for r in stats.edge_map_rounds() {
        assert_eq!(r.partitions, 0, "auto never bins");
        assert_eq!(r.bins_flushed, 0);
        assert_eq!(r.scatter_bytes, 0);
    }

    let mut stats = TraversalStats::new();
    let opts = EdgeMapOptions::new().traversal(Traversal::Partitioned).partition_bits(8);
    let _ = apps::bfs_traced(&g, 0, opts, &mut stats);
    let n = g.num_vertices() as u64;
    let mut saw_scatter = false;
    for r in stats.edge_map_rounds() {
        assert_eq!(r.mode, Mode::Partitioned);
        assert!(r.forced);
        if r.frontier_vertices == 0 {
            continue;
        }
        assert_eq!(r.partitions, n.div_ceil(256));
        assert_eq!(r.scatter_bytes, 8 * r.edges_scanned);
        if r.edges_scanned > 0 {
            assert!(r.bins_flushed > 0);
            saw_scatter = true;
        }
    }
    assert!(saw_scatter, "a forced partitioned BFS must scatter something");
}

#[test]
fn real_traces_round_trip_through_both_formats() {
    let g = rmat(&RmatOptions::paper(10));
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let _ = apps::cc_traced(&g, EdgeMapOptions::default(), &mut stats);
    assert!(stats.rounds.iter().any(|r| r.op != Op::EdgeMap), "vertex ops must be in the trace");

    let via_json = from_json_lines(&to_json_lines(&stats)).expect("json round-trip");
    assert_eq!(via_json, stats);

    // The summary is computed off the events alone, so it is identical
    // for the original and the re-imported trace.
    assert_eq!(format!("{}", summary(&stats)), format!("{}", summary(&via_json)));
}

#[test]
fn noop_recorder_matches_traced_results() {
    // The zero-overhead path must not change algorithm output.
    let g = rmat(&RmatOptions::paper(10));
    let mut stats = TraversalStats::new();
    let traced = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let untraced = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut NoopRecorder);
    assert_eq!(traced.dist, untraced.dist);
    assert!(!stats.rounds.is_empty());
}

#[test]
fn engine_span_jsonl_keys_are_a_closed_vocabulary() {
    // Pin the per-query span schema next to the trace pins: the failure
    // counters ride in these spans (`status` gained "panicked" and
    // "shed"; `retries` counts transient-fault re-dispatches), and
    // downstream consumers key on exact field names in exact order. The
    // `span` op's reply is the one place a span is serialized.
    use ligra_engine::{Engine, EngineConfig, MutationConfig, MutationLog, Replica};
    use std::sync::Arc;

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.install_graph(Arc::new(grid3d(4)));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    let replica = Replica::new(engine, log);
    let ask = |line: &str| replica.handle_line(line).0;
    let submit = ask(r#"{"op":"submit","query":"bfs","source":0,"trace_id":"pin-1"}"#);
    let id = ligra::jsonl::field_u64(&submit, "id").expect("submit accepted");
    let done = ask(&format!("{{\"op\":\"wait\",\"id\":{id}}}"));
    assert_eq!(ligra::jsonl::field(&done, "status"), Some("done"), "{done}");

    let line = ask(&format!("{{\"op\":\"span\",\"id\":{id}}}"));
    let keys: Vec<&str> = ligra::jsonl::Fields::new(&line)
        .map(|pair| pair.unwrap_or_else(|e| panic!("span reply malformed: {e}: {line}")).0)
        .collect();
    assert_eq!(
        keys,
        [
            "ok",
            "id",
            "trace_id",
            "query",
            "epoch",
            "status",
            "cache_hit",
            "queue_wait_ns",
            "queue_wait_bucket",
            "run_ns",
            "run_bucket",
            "rounds",
            "events",
            "retries"
        ],
        "span schema changed: {line}"
    );
    // The same id that names the span names its kernel trace on disk
    // (`query-<trace_id>.jsonl`; joined in tests/tests/engine.rs).
    assert_eq!(ligra::jsonl::field(&line, "trace_id"), Some("pin-1"), "{line}");
}

#[test]
fn prometheus_families_are_a_closed_vocabulary() {
    // Pin the scrape vocabulary verbatim: dashboards and alert rules key
    // on exact family names, types, and label keys. Adding, renaming, or
    // relabeling a family is an observability-contract change and must
    // update this list, DESIGN.md §12, and the README metric table.
    use ligra_engine::metrics::FAMILIES;

    let expected: &[(&str, &str, &str)] = &[
        ("ligra_epoch", "gauge", ""),
        ("ligra_workers", "gauge", ""),
        ("ligra_queue_capacity", "gauge", ""),
        ("ligra_queue_depth", "gauge", ""),
        ("ligra_running_queries", "gauge", ""),
        ("ligra_cache_entries", "gauge", ""),
        ("ligra_queries_submitted_total", "counter", ""),
        ("ligra_queries_rejected_total", "counter", ""),
        ("ligra_queries_retired_total", "counter", "status"),
        ("ligra_dispatch_retries_total", "counter", ""),
        ("ligra_worker_busy_ns_total", "counter", ""),
        ("ligra_worker_idle_ns_total", "counter", ""),
        ("ligra_cache_hits_total", "counter", ""),
        ("ligra_cache_misses_total", "counter", ""),
        ("ligra_cache_evictions_total", "counter", ""),
        ("ligra_mutation_overlay_edges", "gauge", ""),
        ("ligra_mutation_overlay_vertices", "gauge", ""),
        ("ligra_mutation_batches_applied_total", "counter", ""),
        ("ligra_mutation_edges_added_total", "counter", ""),
        ("ligra_mutation_edges_deleted_total", "counter", ""),
        ("ligra_mutation_compactions_total", "counter", ""),
        ("ligra_mutation_compaction_failures_total", "counter", ""),
        ("ligra_mutation_compaction_ns", "histogram", ""),
        ("ligra_fault_injections_total", "counter", "point"),
        ("ligra_wire_requests_total", "counter", ""),
        ("ligra_wire_bytes_total", "counter", ""),
        ("ligra_wire_malformed_total", "counter", ""),
        ("ligra_queue_wait_ns", "histogram", "query"),
        ("ligra_run_time_ns", "histogram", "query"),
    ];
    let actual: Vec<_> = FAMILIES.iter().map(|f| (f.name, f.kind, f.label)).collect();
    assert_eq!(actual, expected, "Prometheus family vocabulary changed");
    for (name, typ, help) in FAMILIES.iter().map(|f| (f.name, f.kind, f.help)) {
        assert!(name.starts_with("ligra_"), "{name}: families share the ligra_ namespace");
        assert!(matches!(typ, "gauge" | "counter" | "histogram"), "{name}: bad type {typ}");
        assert!(!help.is_empty(), "{name}: HELP text is mandatory");
        assert_eq!(
            name.ends_with("_total"),
            typ == "counter",
            "{name}: counters and only counters end in _total"
        );
    }
}

#[test]
fn router_prometheus_families_are_a_closed_vocabulary() {
    // Same contract as above, for the `ligra-route` scrape endpoint
    // (DESIGN.md §16): the router exports its own family vocabulary,
    // disjoint from the engine's, with per-backend labels.
    use ligra_engine::metrics::{FAMILIES, ROUTE_FAMILIES};

    let expected: &[(&str, &str, &str)] = &[
        ("ligra_route_backends", "gauge", ""),
        ("ligra_route_backend_state", "gauge", "backend"),
        ("ligra_route_backend_outstanding", "gauge", "backend"),
        ("ligra_route_requests_total", "counter", ""),
        ("ligra_route_forwarded_total", "counter", "backend"),
        ("ligra_route_backend_errors_total", "counter", "backend"),
        ("ligra_route_retries_total", "counter", ""),
        ("ligra_route_failovers_total", "counter", ""),
        ("ligra_route_sheds_total", "counter", ""),
        ("ligra_route_probes_total", "counter", ""),
        ("ligra_route_probe_failures_total", "counter", ""),
        ("ligra_route_journal_entries", "gauge", ""),
        ("ligra_route_journal_replayed_total", "counter", ""),
        ("ligra_route_wire_malformed_total", "counter", ""),
        ("ligra_route_request_ns", "histogram", "backend"),
    ];
    let actual: Vec<_> = ROUTE_FAMILIES.iter().map(|f| (f.name, f.kind, f.label)).collect();
    assert_eq!(actual, expected, "router Prometheus family vocabulary changed");
    for (name, typ, help) in ROUTE_FAMILIES.iter().map(|f| (f.name, f.kind, f.help)) {
        assert!(name.starts_with("ligra_route_"), "{name}: router families share the namespace");
        assert!(matches!(typ, "gauge" | "counter" | "histogram"), "{name}: bad type {typ}");
        assert!(!help.is_empty(), "{name}: HELP text is mandatory");
        assert_eq!(
            name.ends_with("_total"),
            typ == "counter",
            "{name}: counters and only counters end in _total"
        );
        assert!(
            !FAMILIES.iter().any(|f| f.name == name),
            "{name}: router families must not collide with engine families"
        );
    }
}

#[test]
fn readme_metric_table_matches_the_family_tables() {
    // The README's metric table is the operator's copy of `FAMILIES` +
    // `ROUTE_FAMILIES`: same families, in order, with the same types,
    // label keys and reply keys, so the documented vocabulary cannot
    // drift from the exported one.
    use ligra_engine::metrics::{Family, StatsKey, FAMILIES, ROUTE_FAMILIES};

    fn declared<S>(f: &Family<S>) -> [String; 4] {
        let reply = match f.stats {
            StatsKey::No => String::new(),
            StatsKey::Key(key) => key.to_string(),
            StatsKey::PerLabel(keys) => keys.join(", "),
            StatsKey::Prefix(prefix) => format!("{prefix}<{}>", f.label),
        };
        [f.name.to_string(), f.kind.to_string(), f.label.to_string(), reply]
    }
    let expected: Vec<[String; 4]> =
        FAMILIES.iter().map(declared).chain(ROUTE_FAMILIES.iter().map(declared)).collect();

    let readme = include_str!("../../README.md");
    let documented: Vec<[String; 4]> = readme
        .lines()
        .filter(|l| l.starts_with("| `ligra_"))
        .map(|row| {
            let mut cells = row.split('|').skip(1).map(|c| c.trim().replace('`', ""));
            std::array::from_fn(|_| cells.next().expect("family, type, labels, reply key"))
        })
        .collect();
    assert_eq!(documented, expected, "README metric table differs from the family tables");
    for row in readme.lines().filter(|l| l.starts_with("| `ligra_")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        assert_eq!(cells.len(), 8, "six cells per row: {row}");
        assert!(cells[5].len() > 10 && !cells[6].is_empty(), "question and reader: {row}");
    }
}
