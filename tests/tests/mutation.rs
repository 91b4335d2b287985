//! Live-mutation correctness: random insert/delete/compact interleavings
//! checked against a naive adjacency-set model, traversal-policy
//! equivalence on overlay snapshots, and the engine-level epoch contract
//! (in-flight queries stay pinned to the snapshot they started on; the
//! result cache keys on epoch so mutations invalidate it naturally).

use ligra::jsonl::{field, field_bool, field_u64};
use ligra::{EdgeMapOptions, NoopRecorder, Traversal};
use ligra_apps as apps;
use ligra_engine::{
    Engine, EngineConfig, MutateError, MutationConfig, MutationLog, Query, QueryHandle,
    QueryOutput, QueryStatus, Replica,
};
use ligra_graph::builder::{build_graph, BuildOptions};
use ligra_graph::generators::{random_local, random_weights};
use ligra_graph::{apply_batch, DeltaBatch, Graph, UnitWeighted, VertexId};
use ligra_parallel::hash::mix64;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The oracle: a symmetric graph as one sorted neighbor set per vertex.
struct Model {
    adj: Vec<BTreeSet<VertexId>>,
}

impl Model {
    fn of(g: &Graph) -> Self {
        let mut adj = vec![BTreeSet::new(); g.num_vertices()];
        for (v, set) in adj.iter_mut().enumerate() {
            set.extend(g.out_neighbors(v as VertexId).iter().copied());
        }
        Model { adj }
    }

    fn apply(&mut self, batch: &DeltaBatch) {
        for _ in 0..batch.add_vertices {
            self.adj.push(BTreeSet::new());
        }
        // Same order the real apply uses: deletions before insertions.
        for &v in &batch.del_vertices {
            let gone: Vec<VertexId> = self.adj[v as usize].iter().copied().collect();
            for u in gone {
                self.adj[u as usize].remove(&v);
            }
            self.adj[v as usize].clear();
        }
        for &(u, v) in &batch.del_edges {
            self.adj[u as usize].remove(&v);
            self.adj[v as usize].remove(&u);
        }
        for &(u, v) in &batch.add_edges {
            if u != v {
                self.adj[u as usize].insert(v);
                self.adj[v as usize].insert(u);
            }
        }
    }

    fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for (u, set) in self.adj.iter().enumerate() {
            for &v in set {
                if (u as VertexId) <= v {
                    out.push((u as VertexId, v));
                }
            }
        }
        out
    }

    /// The model rebuilt as a clean CSR — the reference graph.
    fn to_graph(&self) -> Graph {
        build_graph(self.adj.len(), &self.edges(), BuildOptions::symmetric())
    }
}

/// Checks every structural accessor of `g` against the model.
fn assert_structure(g: &Graph, model: &Model, ctx: &str) {
    assert_eq!(g.num_vertices(), model.adj.len(), "{ctx}: vertex count");
    let m: usize = model.adj.iter().map(BTreeSet::len).sum();
    assert_eq!(g.num_edges(), m, "{ctx}: arc count");
    for (v, set) in model.adj.iter().enumerate() {
        let v = v as VertexId;
        assert_eq!(g.out_degree(v), set.len(), "{ctx}: degree of {v}");
        let mut got: Vec<VertexId> = g.out_neighbors(v).to_vec();
        got.sort_unstable();
        let want: Vec<VertexId> = set.iter().copied().collect();
        assert_eq!(got, want, "{ctx}: neighbors of {v}");
    }
}

/// Checks BFS and CC on `g` against the model's reference CSR.
fn assert_queries(g: &Graph, model: &Model, ctx: &str) {
    let reference = model.to_graph();
    assert_eq!(apps::bfs(g, 0).dist, apps::bfs(&reference, 0).dist, "{ctx}: BFS");
    assert_eq!(apps::cc(g).label, apps::cc(&reference).label, "{ctx}: CC");
}

/// One seeded pseudo-random batch; op mix weighted toward edge churn.
fn random_batch(rng: &mut impl FnMut() -> u64, n: usize) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    let pick = |rng: &mut dyn FnMut() -> u64| (rng() % n as u64) as VertexId;
    for _ in 0..(1 + rng() % 6) {
        match rng() % 8 {
            0..=3 => {
                let (u, v) = (pick(rng), pick(rng));
                if u != v {
                    batch.add_edges.push((u, v));
                }
            }
            4..=5 => batch.del_edges.push((pick(rng), pick(rng))),
            6 => batch.del_vertices.push(pick(rng)),
            _ => batch.add_vertices += 1,
        }
    }
    batch
}

#[test]
fn random_interleavings_match_the_set_model() {
    for seed in [3u64, 17, 141] {
        let mut state = seed;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        };
        let mut g = random_local(120, 4, seed);
        let mut model = Model::of(&g);
        for step in 0..40 {
            // `n` before the batch so added vertices stay addressable.
            let n = g.num_vertices();
            let batch = random_batch(&mut rng, n);
            let (next, _nb, _stats) =
                apply_batch(&g, &batch).expect("generated batches are in range");
            model.apply(&batch);
            g = next;
            let ctx = format!("seed {seed} step {step}");
            assert_structure(&g, &model, &ctx);
            if step % 10 == 9 {
                assert_queries(&g, &model, &ctx);
            }
            // Interleave compactions: the flattened CSR must be the same
            // graph, and mutation must keep working on top of it.
            if step % 13 == 12 {
                g = g.compacted();
                assert!(!g.has_overlay(), "{ctx}: compacted");
                assert_structure(&g, &model, &format!("{ctx} (compacted)"));
            }
        }
        assert!(g.has_overlay() || g.num_edges() == 0, "the sweep must end mid-overlay");
        assert_queries(&g, &model, &format!("seed {seed} final"));
    }
}

#[test]
fn every_traversal_policy_agrees_on_an_overlay_snapshot() {
    // The satellite contract: all five policies run unmodified on a
    // delta-overlaid graph and agree with each other and with the
    // compacted CSR (extends the determinism_and_traversals sweep).
    let base = random_local(3000, 6, 29);
    let n = base.num_vertices() as VertexId;
    let mut batch = DeltaBatch::new().grow(2);
    for i in 0..200u32 {
        let (u, v) = (mix64(900 + i as u64) % n as u64, mix64(7000 + i as u64) % n as u64);
        if u != v {
            batch.add_edges.push((u as VertexId, v as VertexId));
        }
        batch.del_edges.push((i % n, (i * 7 + 1) % n));
    }
    batch.add_edges.push((n, n + 1)); // the grown vertices are reachable
    batch.add_edges.push((0, n));
    let (g, _, _) = apply_batch(&base, &batch).expect("batch in range");
    assert!(g.has_overlay());

    let clean = g.compacted();
    let want_bfs = apps::bfs(&clean, 1).dist;
    let want_cc = apps::cc(&clean).label;
    let want_radii = apps::radii(&clean, 3).radii;
    for t in Traversal::ALL {
        let opts = EdgeMapOptions::new().traversal(t);
        assert_eq!(apps::bfs_with(&g, 1, opts).dist, want_bfs, "{t:?}");
        let mut s = ligra::TraversalStats::new();
        assert_eq!(apps::cc_traced(&g, opts, &mut s).label, want_cc, "{t:?}");
        assert_eq!(apps::radii_traced(&g, 3, opts, &mut s).radii, want_radii, "{t:?}");
    }
}

#[test]
fn inflight_queries_stay_pinned_while_mutations_publish_new_epochs() {
    // The engine-level acceptance test: a query submitted before a
    // mutation completes on its original snapshot (its span carries the
    // old epoch and its result describes the old graph) even though the
    // store has moved on, and a query submitted after sees the new graph.
    let engine = Arc::new(Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() }));
    let g = random_local(2000, 5, 7);
    let reached_before = apps::bfs(&g, 0).reached;
    engine.install_graph(Arc::new(g));
    let e0 = engine.current_epoch().expect("installed");

    // Occupy the single worker so the pinned query is still in flight
    // when the mutation lands.
    let slow = engine.submit(Query::PageRank { iters: 60 }, None).expect("submit slow");
    let pinned = engine.submit(Query::Bfs { source: 0 }, None).expect("submit pinned");

    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    let report = log
        .apply(
            &DeltaBatch::new().grow(3).add_edge(0, 2000).add_edge(2000, 2001).add_edge(2001, 2002),
        )
        .expect("mutate");
    assert!(report.epoch > e0);

    assert_eq!(pinned.wait(), QueryStatus::Done);
    assert_eq!(slow.wait(), QueryStatus::Done);
    let span = engine.span(pinned.id()).expect("span");
    assert_eq!(span.epoch, e0, "in-flight query pinned to its submit-time epoch");
    assert_eq!(
        summary_count(&pinned, "reached"),
        reached_before,
        "pinned result describes the old graph"
    );

    let fresh = engine.submit(Query::Bfs { source: 0 }, None).expect("submit fresh");
    assert_eq!(fresh.wait(), QueryStatus::Done);
    assert_eq!(engine.span(fresh.id()).expect("span").epoch, report.epoch);
    assert_eq!(
        summary_count(&fresh, "reached"),
        reached_before + 3,
        "post-mutation query sees the grown graph"
    );
}

#[test]
fn an_add_vertices_past_the_id_space_is_refused_and_the_snapshot_survives() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    let replica = Replica::new(engine, log);
    let reply = |line: &str| replica.handle_line(line).0;

    let gen = reply(r#"{"op":"gen","family":"grid3d","side":4}"#);
    assert_eq!(field_bool(&gen, "ok"), Some(true), "{gen}");
    let epoch = field_u64(&reply(r#"{"op":"graph-stats"}"#), "epoch");

    let refused = reply(r#"{"op":"mutate","add_vertices":18446744073709551615}"#);
    assert_eq!(field_bool(&refused, "ok"), Some(false), "{refused}");
    let error = field(&refused, "error").expect("an error message");
    assert!(error.contains("add_vertices"), "{refused}");
    assert!(!error.contains("panicked"), "a validation error, not a contained panic: {refused}");

    let stats = reply(r#"{"op":"graph-stats"}"#);
    assert_eq!(field_u64(&stats, "epoch"), epoch, "nothing was installed: {stats}");
    assert_eq!(field_u64(&stats, "vertices"), Some(64), "{stats}");
    assert_eq!(field_u64(&stats, "edges"), Some(384), "{stats}");
}

/// Pulls one numeric field out of a finished query's result summary.
fn summary_count(h: &QueryHandle, key: &str) -> usize {
    let summary = h.result().expect("finished query has a result").summary();
    let (_, v) = summary.iter().find(|(k, _)| *k == key).expect("summary has the key");
    v.parse().expect("summary field is a count")
}

#[test]
fn mutation_invalidates_the_result_cache_by_epoch() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.install_graph(Arc::new(random_local(500, 4, 11)));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));

    let first = engine.submit(Query::Cc, None).expect("submit");
    assert_eq!(first.wait(), QueryStatus::Done);
    let repeat = engine.submit(Query::Cc, None).expect("submit");
    assert_eq!(repeat.wait(), QueryStatus::Done);
    let hits_before = engine.stats().cache_hits;
    assert!(hits_before >= 1, "same (epoch, query) must hit the cache");

    log.apply(&DeltaBatch::new().del_vertex(0)).expect("mutate");
    let after = engine.submit(Query::Cc, None).expect("submit");
    assert_eq!(after.wait(), QueryStatus::Done);
    let span = engine.span(after.id()).expect("span");
    assert!(!span.cache_hit, "a new epoch is a new cache key");
}

#[test]
fn compaction_under_load_preserves_results() {
    // Apply → query → compact → query: answers agree before and after,
    // and the compacted epoch serves from a clean CSR.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.install_graph(Arc::new(random_local(1500, 5, 23)));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    for i in 0..10u32 {
        log.apply(&DeltaBatch::new().add_edge(i, 1499 - i).del_edge(i, i + 1)).expect("mutate");
    }
    let overlay_graph = Arc::clone(engine.current_snapshot().expect("snap").graph());
    assert!(overlay_graph.has_overlay());
    let before = apps::cc(overlay_graph.as_ref()).label;

    let report = log.compact().expect("compact");
    let clean = Arc::clone(engine.current_snapshot().expect("snap").graph());
    assert!(!clean.has_overlay());
    assert_eq!(engine.current_epoch(), Some(report.epoch));
    assert_eq!(apps::cc(clean.as_ref()).label, before, "compaction is result-identical");
}

#[test]
fn writes_to_a_weighted_install_are_refused_and_the_weights_survive() {
    // A `DeltaBatch` carries no weights, so a write could only publish
    // the stripped view — and every later Bellman-Ford would answer in
    // unit weights without an error. The log refuses instead.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let wg = random_weights(&random_local(400, 5, 11), 50, 4);
    engine.install_weighted(Arc::new(wg.clone()));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    let epoch = engine.current_epoch();
    let distances = || {
        let snap = engine.current_snapshot().expect("snap");
        let q = Query::BellmanFord { source: 0 };
        match q.run(&snap, EdgeMapOptions::new(), &mut NoopRecorder).expect("in range") {
            QueryOutput::BellmanFord(r) => r.dist,
            other => panic!("Bellman-Ford answered {other:?}"),
        }
    };
    let before = distances();

    let refusals = [
        log.apply(&DeltaBatch::new().add_edge(0, 399)).expect_err("mutate must be refused"),
        log.compact().expect_err("compact must be refused"),
    ];
    for err in refusals {
        assert_eq!(err, MutateError::Invalid("weighted graphs are read-only".to_string()));
        assert!(!err.is_transient(), "a retry cannot succeed");
    }
    assert_eq!(engine.current_epoch(), epoch, "a refused write publishes nothing");
    let status = log.status();
    assert_eq!((status.pending_batches, status.compacting), (0, false));

    assert_eq!(distances(), before);
    assert_eq!(Some(&before), apps::seq::seq_bellman_ford(&wg, 0).as_ref());
    let snap = engine.current_snapshot().expect("snap");
    let unit = apps::bellman_ford(&UnitWeighted(snap.graph().as_ref()), 0).dist;
    assert_ne!(before, unit, "the install's weights are not all 1");
}

/// With the tracked guards armed, the mutation suite's own workload
/// doubles as lock-order evidence: apply and compact hold
/// `mutation.state` across the store install, and that must be the only
/// direction the pair is ever taken in.
#[cfg(feature = "lock-check")]
#[test]
fn mutation_workload_certifies_lock_order() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.install_graph(Arc::new(random_local(600, 4, 41)));
    let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
    for i in 0..12u32 {
        log.apply(&DeltaBatch::new().add_edge(i, 599 - i)).expect("apply");
    }
    log.compact().expect("compact");
    let h = engine.submit(Query::Cc, None).expect("submit");
    assert_eq!(h.wait(), QueryStatus::Done);

    let report = ligra_engine::LockOracle::global()
        .certify()
        .expect("mutation workload certifies lock order");
    assert!(report.edges.contains(&("mutation.state", "store.current")), "{:?}", report.edges);
}
