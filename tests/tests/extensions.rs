//! Cross-crate integration tests for the extension reproductions: the
//! extra Ligra-release applications (k-core, MIS, triangles) and the
//! Ligra+ compressed representation.

use ligra::{edge_fn, EdgeMapOptions, Mode, NoopRecorder, Traversal, TraversalStats, VertexSubset};
use ligra_apps as apps;
use ligra_apps::seq;
use ligra_compress::{ByteCode, ByteRleCode, CompressedGraph, NibbleCode};
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{erdos_renyi, grid3d, random_local, rmat};
use ligra_graph::{apply_batch, build_graph, BuildOptions, DeltaBatch, Graph, Neighbors};
use ligra_parallel::{checked_u32, hash32};

#[test]
fn kcore_mis_triangle_consistency() {
    // Structural relationships between the three on the same graph.
    let g = rmat(&RmatOptions::paper(10));

    let cores = apps::kcore(&g);
    let tri = apps::triangle_count(&g);
    let set = apps::mis(&g, 7);
    set.validate(&g);

    // A vertex in a triangle has coreness >= 2.
    for v in 0..g.num_vertices() {
        if tri.local[v] > 0 {
            assert!(cores.coreness[v] >= 2, "vertex {v} in a triangle but coreness < 2");
        }
    }
    // Degeneracy bounds the clique number - 1; any triangle implies
    // max_core >= 2.
    if tri.triangles > 0 {
        assert!(cores.max_core >= 2);
    }
    // MIS size is at least n / (max_degree + 1).
    let (_, dmax) = g.max_out_degree();
    assert!(set.size() >= g.num_vertices() / (dmax + 1));
}

/// The representations a logical graph can be traversed through: clean
/// CSR, CSR under a live delta overlay, and each compressed codec.
struct Reps {
    csr: Graph,
    overlay: Graph,
    byte: CompressedGraph<ByteCode>,
    nibble: CompressedGraph<NibbleCode>,
    rle: CompressedGraph<ByteRleCode>,
}

impl Reps {
    /// `base` plus a batch of chords applied as an overlay; the other
    /// representations hold the same logical graph, compacted.
    fn of(base: &Graph) -> Reps {
        let n = checked_u32(base.num_vertices());
        let batch = (0..40u32)
            .fold(DeltaBatch::new(), |b, i| b.add_edge(hash32(i) % n, hash32(i ^ 0x5eed) % n));
        let (overlay, _, _) = apply_batch(base, &batch).expect("in-range batch");
        assert!(overlay.has_overlay());
        let csr = overlay.compacted();
        Reps {
            byte: CompressedGraph::from_graph(&csr),
            nibble: CompressedGraph::from_graph(&csr),
            rle: CompressedGraph::from_graph(&csr),
            csr,
            overlay,
        }
    }

    /// The applications' answers under `opts`, per representation.
    fn answers(&self, opts: EdgeMapOptions) -> [(&'static str, Answers); 5] {
        [
            ("csr", Answers::of(&self.csr, opts)),
            ("overlay", Answers::of(&self.overlay, opts)),
            ("byte", Answers::of(&self.byte, opts)),
            ("nibble", Answers::of(&self.nibble, opts)),
            ("byte-rle", Answers::of(&self.rle, opts)),
        ]
    }
}

/// What the three generic applications compute on one representation
/// under one traversal policy.
struct Answers {
    bfs_dist: Vec<u32>,
    bfs_rounds: usize,
    cc_label: Option<Vec<u32>>,
    cc_components: Option<usize>,
    rank: Vec<f64>,
}

impl Answers {
    fn of<G: Neighbors<Weight = ()>>(g: &G, opts: EdgeMapOptions) -> Answers {
        let bfs = apps::bfs_with(g, 0, opts);
        let cc = g.is_symmetric().then(|| apps::cc_traced(g, opts, &mut NoopRecorder));
        Answers {
            bfs_dist: bfs.dist,
            bfs_rounds: bfs.rounds,
            cc_components: cc.as_ref().map(apps::CcResult::num_components),
            cc_label: cc.map(|r| r.label),
            rank: apps::pagerank_traced(g, 0.85, 0.0, 12, opts, &mut NoopRecorder).rank,
        }
    }
}

/// One differential sweep: input family × representation × traversal
/// policy, every answer checked against the sequential references, and
/// BFS round counts checked across representations.
#[test]
fn every_representation_and_policy_agrees_with_the_sequential_references() {
    let inputs = [
        ("grid3d", grid3d(5)),
        ("rmat", rmat(&RmatOptions::paper(9))),
        ("directed-er", erdos_renyi(400, 3000, 7, false)),
    ];
    for (family, base) in &inputs {
        let reps = Reps::of(base);
        let (dist, _) = seq::seq_bfs(&reps.csr, 0);
        let label = reps.csr.is_symmetric().then(|| seq::seq_cc(&reps.csr));
        // `num_components` counts self-labelled vertices; the reference
        // count is the number of distinct labels.
        let components = label.as_ref().map(|l| {
            let mut distinct = l.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        });
        let (rank, _) = seq::seq_pagerank(&reps.csr, 0.85, 0.0, 12);
        for t in Traversal::ALL {
            let mut rounds = None;
            for (rep, got) in reps.answers(EdgeMapOptions::new().traversal(t)) {
                let at = format!("{family}/{rep}/{t}");
                assert_eq!(got.bfs_dist, dist, "{at}: BFS distances");
                assert_eq!(got.cc_label, label, "{at}: CC labels");
                assert_eq!(got.cc_components, components, "{at}: CC component count");
                let l1: f64 = got.rank.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
                assert!(l1 < 1e-9, "{at}: PageRank L1 divergence {l1}");
                assert_eq!(*rounds.get_or_insert(got.bfs_rounds), got.bfs_rounds, "{at}: rounds");
            }
        }
    }
}

/// A frontier's out-neighborhood through `edgeMap` under one policy.
fn neighborhood<G: Neighbors<Weight = ()>>(g: &G, frontier: &[u32], t: Traversal) -> Vec<u32> {
    let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
    let mut fr = VertexSubset::from_sparse(g.num_vertices(), frontier.to_vec());
    let opts = EdgeMapOptions::new().traversal(t).deduplicate(true);
    ligra::edge_map_with(g, &mut fr, &f, opts).to_vec_sorted()
}

#[test]
fn compressed_edge_map_agrees_with_csr_on_every_traversal() {
    let g = erdos_renyi(400, 3000, 1, true);
    let cg: CompressedGraph = CompressedGraph::from_graph(&g);
    let frontier: Vec<u32> = (0..400u32).filter(|v| v.is_multiple_of(9)).collect();
    let reference = neighborhood(&g, &frontier, Traversal::Auto);
    for t in Traversal::ALL {
        assert_eq!(neighborhood(&cg, &frontier, t), reference, "traversal {t:?}");
    }
}

#[test]
fn directed_compressed_dense_uses_the_transpose() {
    let g = erdos_renyi(200, 1500, 4, false);
    let cg: CompressedGraph = CompressedGraph::from_graph(&g);
    let frontier: Vec<u32> = (0..200u32).filter(|v| v.is_multiple_of(5)).collect();
    let mut expect: Vec<u32> =
        frontier.iter().flat_map(|&u| g.out_neighbors(u).iter().copied()).collect();
    expect.sort_unstable();
    expect.dedup();
    assert_eq!(neighborhood(&cg, &frontier, Traversal::Dense), expect);
}

#[test]
fn compressed_sparse_blocks_own_whole_hub_lists() {
    // A hub spanning several EDGE_BLOCKs plus a tail: a streamed list is
    // never split, so the block its run starts in must walk all of it.
    let hub_deg = 3 * ligra::edge_map::EDGE_BLOCK + 17;
    let n = hub_deg + 10;
    let mut edges: Vec<(u32, u32)> = (0..hub_deg as u32).map(|j| (0, j + 1)).collect();
    edges.extend((0..9u32).map(|k| (1 + k, n as u32 - 1)));
    let g = build_graph(n, &edges, BuildOptions::directed());
    let cg: CompressedGraph = CompressedGraph::from_graph(&g);
    let frontier: Vec<u32> = (0..10u32).collect();
    let expect = neighborhood(&g, &frontier, Traversal::Sparse);
    assert_eq!(expect.len(), hub_deg + 1, "the hub's targets plus the tail's shared one");
    for t in [Traversal::Sparse, Traversal::DenseForward] {
        assert_eq!(neighborhood(&cg, &frontier, t), expect, "traversal {t:?}");
    }
}

#[test]
fn compressed_partitioned_traversal_records_bin_telemetry() {
    let g = erdos_renyi(400, 3000, 2, true);
    let cg: CompressedGraph = CompressedGraph::from_graph(&g);
    let frontier: Vec<u32> = (0..400u32).collect();
    let expect = neighborhood(&cg, &frontier, Traversal::Auto);

    let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
    let mut stats = TraversalStats::new();
    let mut fr = VertexSubset::from_sparse(400, frontier);
    let opts = EdgeMapOptions::new().traversal(Traversal::Partitioned).partition_bits(6);
    let out = ligra::edge_map_recorded(&cg, &mut fr, &f, opts, &mut stats);
    assert_eq!(out.to_vec_sorted(), expect);

    let r = stats.rounds[0];
    assert_eq!(r.mode, Mode::Partitioned);
    assert_eq!(r.partitions, 400u64.div_ceil(64));
    assert!(r.bins_flushed > 0);
    // 8 bytes per binned (src, dst) entry, one entry per frontier
    // out-edge.
    assert_eq!(r.scatter_bytes, 8 * r.frontier_out_edges);
    assert_eq!(r.edges_scanned, r.frontier_out_edges);
}

#[test]
fn compressed_trace_matches_uncompressed_schema() {
    let g = erdos_renyi(300, 2400, 6, true);
    let cg: CompressedGraph = CompressedGraph::from_graph(&g);
    let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
    let mut stats = TraversalStats::new();
    let mut fr = VertexSubset::from_sparse(300, vec![0, 5, 9]);
    let _ = ligra::edge_map_recorded(&cg, &mut fr, &f, EdgeMapOptions::new(), &mut stats);
    let r = stats.rounds[0];
    assert_eq!(r.frontier_vertices, 3);
    assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges);
    assert_eq!(r.threshold, cg.num_edges() as u64 / 20);
    assert_eq!(r.mode, Mode::Sparse, "three sources are far below m/20");
    assert!(r.time_ns > 0);
    // Sparse mode walks every decoded out-edge.
    assert_eq!(r.edges_scanned, r.frontier_out_edges);
    // Exported trace from a compressed run round-trips like any other.
    let back = ligra::trace::from_json_lines(&ligra::trace::to_json_lines(&stats)).unwrap();
    assert_eq!(back, stats);
}

#[test]
fn compression_saves_space_on_every_input_family() {
    for (name, g) in [
        ("grid", grid3d(10)),
        ("local", random_local(20_000, 8, 1)),
        ("rmat", rmat(&RmatOptions::paper(13))),
    ] {
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        let (compressed, csr, ratio) = cg.space_vs_csr();
        assert!(ratio < 1.0, "{name}: compressed {compressed} not smaller than CSR {csr}");
    }
}

#[test]
fn kcore_of_compressed_families_matches_reference() {
    // k-core only exists uncompressed; sanity-check it against the bucket
    // reference on the benchmark families.
    for g in [grid3d(5), random_local(1500, 5, 2), rmat(&RmatOptions::paper(9))] {
        let par = apps::kcore(&g);
        assert_eq!(par.coreness, apps::kcore::seq_kcore(&g));
    }
}
