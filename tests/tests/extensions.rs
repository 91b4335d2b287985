//! Cross-crate integration tests for the extension reproductions: the
//! extra Ligra-release applications (k-core, MIS) and the
//! Ligra+ compressed representation.

use ligra::{
    edge_fn, EdgeMapFn, EdgeMapOptions, Mode, NoopRecorder, RaceOracle, Traversal, TraversalStats,
    VertexSubset, WinContract,
};
use ligra_apps as apps;
use ligra_apps::seq;
use ligra_compress::{ByteCode, ByteRleCode, CompressedGraph, NibbleCode};
use ligra_engine::{Query, QueryOutput, Snapshot, PAGERANK_ALPHA};
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{erdos_renyi, grid3d, random_local, random_weights, rmat};
use ligra_graph::{
    apply_batch, build_graph, BuildOptions, DeltaBatch, Graph, Neighbors, Transpose, UnitWeighted,
};
use ligra_parallel::atomics::{as_atomic_f64, as_atomic_u32, as_atomic_u64, AtomicF64};
use ligra_parallel::bitvec::AtomicBitVec;
use ligra_parallel::utils::with_threads;
use ligra_parallel::{checked_u32, hash32};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Runs one query through the engine's dispatch and unwraps its variant.
macro_rules! served {
    ($snap:expr, $opts:expr, $query:expr, $variant:ident) => {
        match $query.run($snap, $opts, &mut NoopRecorder).expect("valid query") {
            QueryOutput::$variant(result) => result,
            other => panic!("{:?} answered {other:?}", $query),
        }
    };
}

#[test]
fn kcore_mis_consistency() {
    // Structural properties of both on the same graph.
    let g = rmat(&RmatOptions::paper(10));

    let cores = apps::kcore(&g);
    let set = apps::mis(&g, 7);
    set.validate(&g);

    // A vertex of coreness k keeps at least k neighbors of coreness >= k
    // (they form the k-core together), so k never exceeds its degree.
    for v in 0..checked_u32(g.num_vertices()) {
        let k = cores.coreness[v as usize];
        let peers = g.out_neighbors(v).iter().filter(|&&u| cores.coreness[u as usize] >= k);
        assert!(peers.count() >= k as usize, "vertex {v}: coreness {k} without a {k}-core");
    }
    assert_eq!(cores.max_core, cores.coreness.iter().copied().max().unwrap_or(0));
    // rMat at this size has cycles, so its degeneracy is at least 2.
    assert!(cores.max_core >= 2);
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

    /// The applications' answers under `opts`, per representation through
    /// the library and per servable representation through the engine.
    fn answers(&self, opts: EdgeMapOptions) -> [(&'static str, Answers); 7] {
        [
            ("csr", Answers::of(&self.csr, opts)),
            ("overlay", Answers::of(&self.overlay, opts)),
            ("byte", Answers::of(&self.byte, opts)),
            ("nibble", Answers::of(&self.nibble, opts)),
            ("byte-rle", Answers::of(&self.rle, opts)),
            ("engine/csr", Answers::served(&self.csr, opts)),
            ("engine/overlay", Answers::served(&self.overlay, opts)),
        ]
    }
}

const RADII_SEED: u64 = 3;
const MIS_SEED: u64 = 7;
const PAGERANK_ITERS: u32 = 12;

/// What the generic applications compute on one representation under one
/// traversal policy (the symmetric-only ones are `None` on a directed
/// input).
struct Answers {
    bfs_dist: Vec<u32>,
    bfs_rounds: usize,
    cc_label: Option<Vec<u32>>,
    cc_components: Option<usize>,
    rank: Vec<f64>,
    bc: apps::BcResult,
    radii: apps::RadiiResult,
    coreness: Option<Vec<u32>>,
    mis: Option<apps::MisResult>,
    unit_bf_dist: Vec<i64>,
}

impl Answers {
    /// Through the library, on any representation.
    fn of<G: Neighbors<Weight = ()>>(g: &G, opts: EdgeMapOptions) -> Answers {
        let rec = &mut NoopRecorder;
        let symmetric = g.is_symmetric();
        let bfs = apps::bfs_with(g, 0, opts);
        let cc = symmetric.then(|| apps::cc_traced(g, opts, rec));
        let iters = PAGERANK_ITERS as usize;
        Answers {
            bfs_dist: bfs.dist,
            bfs_rounds: bfs.rounds,
            cc_components: cc.as_ref().map(apps::CcResult::num_components),
            cc_label: cc.map(|r| r.label),
            rank: apps::pagerank_traced(g, PAGERANK_ALPHA, 0.0, iters, opts, rec).rank,
            bc: apps::bc_traced(g, 0, opts, rec),
            radii: apps::radii_traced(g, RADII_SEED, opts, rec),
            coreness: symmetric.then(|| apps::kcore_traced(g, opts, rec).coreness),
            mis: symmetric.then(|| apps::mis_traced(g, MIS_SEED, opts, rec)),
            unit_bf_dist: apps::bellman_ford_traced(&UnitWeighted(g), 0, opts, rec).dist,
        }
    }

    /// The same queries through the engine's dispatch, on a snapshot
    /// installed unweighted (so Bellman-Ford runs in unit weights).
    fn served(g: &Graph, opts: EdgeMapOptions) -> Answers {
        let snap = Snapshot::from_graph(1, Arc::new(g.clone()));
        let symmetric = g.is_symmetric();
        let bfs = served!(&snap, opts, Query::Bfs { source: 0 }, Bfs);
        let cc = symmetric.then(|| served!(&snap, opts, Query::Cc, Cc));
        Answers {
            bfs_dist: bfs.dist,
            bfs_rounds: bfs.rounds,
            cc_components: cc.as_ref().map(apps::CcResult::num_components),
            cc_label: cc.map(|r| r.label),
            rank: served!(&snap, opts, Query::PageRank { iters: PAGERANK_ITERS }, PageRank).rank,
            bc: served!(&snap, opts, Query::Bc { source: 0 }, Bc),
            radii: served!(&snap, opts, Query::Radii { seed: RADII_SEED }, Radii),
            coreness: symmetric.then(|| served!(&snap, opts, Query::KCore, KCore).coreness),
            mis: symmetric.then(|| served!(&snap, opts, Query::Mis { seed: MIS_SEED }, Mis)),
            unit_bf_dist: served!(&snap, opts, Query::BellmanFord { source: 0 }, BellmanFord).dist,
        }
    }
}

/// `radii[v]` = the largest finite `dist(s, v)` over the sample.
fn seq_radii(g: &Graph, sample: &[u32]) -> Vec<u32> {
    let mut radii = vec![apps::radii::UNKNOWN_RADIUS; g.num_vertices()];
    for &s in sample {
        for (r, d) in radii.iter_mut().zip(seq::seq_bfs(g, s).0) {
            if d != seq::UNREACHED && (*r == apps::radii::UNKNOWN_RADIUS || d > *r) {
                *r = d;
            }
        }
    }
    radii
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// One differential sweep: input family × representation × traversal
/// policy × {library, engine}, every answer checked against the
/// sequential references on the decoded CSR. The directed input runs
/// BC's backward sweep over `Transpose` of every representation, the
/// compressed ones included.
#[test]
fn every_representation_and_policy_agrees_with_the_sequential_references() {
    let inputs = [
        ("grid3d", grid3d(5)),
        ("rmat", rmat(&RmatOptions::paper(9))),
        ("directed-er", erdos_renyi(400, 3000, 7, false)),
    ];
    for (family, base) in &inputs {
        let reps = Reps::of(base);
        let csr = &reps.csr;
        let symmetric = csr.is_symmetric();
        let (dist, _) = seq::seq_bfs(csr, 0);
        let depth = dist.iter().filter(|&&d| d != seq::UNREACHED).max().expect("source");
        let label = symmetric.then(|| seq::seq_cc(csr));
        // `num_components` counts self-labelled vertices; the reference
        // count is the number of distinct labels.
        let components = label.as_ref().map(|l| {
            let mut distinct = l.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        });
        let (rank, _) = seq::seq_pagerank(csr, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS as usize);
        let dependencies = seq::seq_brandes(csr, 0);
        assert!(dependencies.iter().any(|&d| d > 0.0), "{family}: BC must have a backward sweep");
        let sample = apps::radii::pick_sample(csr, RADII_SEED);
        let radii = seq_radii(csr, &sample);
        let coreness = symmetric.then(|| apps::kcore::seq_kcore(csr));
        let hops: Vec<i64> = dist
            .iter()
            .map(|&d| if d == seq::UNREACHED { apps::INFINITE_DISTANCE } else { d as i64 })
            .collect();
        // One weighted install: the engine must read the installed
        // weights, not the unit view.
        let wg = random_weights(csr, 20, 5);
        let weighted = Snapshot::from_weighted(2, Arc::new(wg.clone()));
        let weighted_dist = seq::seq_bellman_ford(&wg, 0).expect("positive weights");
        assert_ne!(weighted_dist, hops, "{family}: weights must matter");

        for t in Traversal::ALL {
            let opts = EdgeMapOptions::new().traversal(t);
            for (rep, got) in reps.answers(opts) {
                let at = format!("{family}/{rep}/{t}");
                assert_eq!(got.bfs_dist, dist, "{at}: BFS distances");
                assert_eq!(got.bfs_rounds, *depth as usize + 1, "{at}: BFS rounds");
                assert_eq!(got.cc_label, label, "{at}: CC labels");
                assert_eq!(got.cc_components, components, "{at}: CC component count");
                let l1: f64 = got.rank.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
                assert!(l1 < 1e-9, "{at}: PageRank L1 divergence {l1}");
                let d = max_abs_diff(&got.bc.dependencies, &dependencies);
                assert!(d < 1e-9, "{at}: BC dependencies differ by {d}");
                assert_eq!(got.bc.rounds, *depth as usize + 1, "{at}: BC rounds");
                assert_eq!(got.radii.sample, sample, "{at}: radii sample");
                assert_eq!(got.radii.radii, radii, "{at}: radii");
                assert_eq!(got.coreness, coreness, "{at}: coreness");
                if let Some(set) = &got.mis {
                    set.validate(csr);
                }
                assert_eq!(got.mis.is_some(), symmetric, "{at}: MIS ran");
                assert_eq!(got.unit_bf_dist, hops, "{at}: unit-weight Bellman-Ford vs BFS");
            }
            let served = served!(&weighted, opts, Query::BellmanFord { source: 0 }, BellmanFord);
            assert_eq!(served.dist, weighted_dist, "{family}/engine/weighted/{t}");
        }
    }
}

/// `F` with its [`EdgeMapFn::gather`] hidden: a dense round scans it per
/// edge through `update`/`cond`, the only form there was before the
/// reduce existed and so the reference for it.
struct PerEdge<F>(F);

impl<F: EdgeMapFn> EdgeMapFn for PerEdge<F> {
    fn update(&self, src: u32, dst: u32, w: ()) -> bool {
        self.0.update(src, dst, w)
    }
    fn update_atomic(&self, src: u32, dst: u32, w: ()) -> bool {
        self.0.update_atomic(src, dst, w)
    }
    fn cond(&self, dst: u32) -> bool {
        self.0.cond(dst)
    }
}

/// One `edgeMap` round of `f`, as written or per edge; the output, sorted.
fn round<G: Neighbors<Weight = ()>, F: EdgeMapFn>(
    g: &G,
    frontier: &VertexSubset,
    f: F,
    opts: EdgeMapOptions,
    per_edge: bool,
) -> Vec<u32> {
    let mut frontier = frontier.clone();
    if per_edge {
        ligra::edge_map_with(g, &mut frontier, &PerEdge(f), opts).to_vec_sorted()
    } else {
        ligra::edge_map_with(g, &mut frontier, &f, opts).to_vec_sorted()
    }
}

/// What one round of each reducing application function leaves behind,
/// from the same seeded mid-run state every call: its state arrays as bit
/// patterns, then its output subset.
fn reducing_rounds<G: Neighbors<Weight = ()>>(
    g: &G,
    frontier: &VertexSubset,
    opts: EdgeMapOptions,
    per_edge: bool,
) -> Vec<(&'static str, Vec<u64>, Vec<u32>)> {
    let n = g.num_vertices();
    let noise = |v: usize, salt: u32| hash32(checked_u32(v) ^ (salt << 24));
    let floats =
        |salt: u32| (0..n).map(|v| 1.0 / f64::from(1 + noise(v, salt) % 97)).collect::<Vec<f64>>();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut left = Vec::new();

    // PageRank and PageRank-Delta: accumulators that are not zero.
    let (shares, mut next) = (floats(1), floats(2));
    let f = apps::pagerank::PrF { shares: &shares, next: as_atomic_f64(&mut next) };
    let won = round(g, frontier, f, opts, per_edge);
    left.push(("pagerank", bits(&next), won));

    // Components: scrambled labels, snapshotted as at the top of a round.
    let mut ids: Vec<u32> = (0..n).map(|v| noise(v, 3) % checked_u32(n)).collect();
    let mut prev = ids.clone();
    let f = apps::cc::CcF { ids: as_atomic_u32(&mut ids), prev_ids: as_atomic_u32(&mut prev) };
    let won = round(g, frontier, f, opts, per_edge);
    left.push(("cc", ids.iter().map(|&l| u64::from(l)).collect(), won));

    // BC: the frontier and a third of V besides visited with known path
    // counts, the rest at zero.
    let visited = AtomicBitVec::new(n);
    let member = frontier.to_bools();
    (0..n).filter(|&v| member[v] || noise(v, 4).is_multiple_of(3)).for_each(|v| {
        visited.set(v);
    });
    let sigma = |v: usize| if visited.get(v) { f64::from(1 + noise(v, 5) % 5) } else { 0.0 };
    let num_paths: Vec<AtomicF64> = (0..n).map(|v| AtomicF64::new(sigma(v))).collect();
    let f = apps::bc::BcForwardF { num_paths: &num_paths, visited: &visited };
    let won = round(g, frontier, f, opts, per_edge);
    let sigmas = num_paths.iter().map(|c| c.load(Ordering::Relaxed).to_bits()).collect();
    left.push(("bc-forward", sigmas, won));
    let mut x = floats(6);
    let f = apps::bc::BcBackwardF { x: as_atomic_f64(&mut x), visited: &visited };
    let won = round(&Transpose(g), frontier, f, opts, per_edge);
    left.push(("bc-backward", bits(&x), won));

    // Radii, entering round 2: four wave bits in play so some masks do
    // not grow, and some targets already stamped with this round.
    let mut masks: Vec<u64> =
        (0..n).map(|v| 1 << (noise(v, 7) % 4) | 1 << (noise(v, 8) % 4)).collect();
    let mut next_masks = masks.clone();
    let mut stamps: Vec<u32> = (0..n).map(|v| noise(v, 9) % 3).collect();
    let f = apps::radii::RadiiF {
        visited: as_atomic_u64(&mut masks),
        next_visited: as_atomic_u64(&mut next_masks),
        radii: as_atomic_u32(&mut stamps),
        round: 2,
    };
    let won = round(g, frontier, f, opts, per_edge);
    next_masks.extend(stamps.iter().map(|&r| u64::from(r)));
    left.push(("radii", next_masks, won));
    left
}

/// The gather differential on one representation: every reducing `F`,
/// from a whole-`V` frontier, a partial one forced dense and a small one
/// under `Auto`, leaves bit-identical state and the same output whether
/// the dense kernel reduces or scans per edge. Order of evaluation is
/// part of the claim, so that comparison runs on one thread; the reduce
/// then runs once more on the ambient pool under the race oracle, which
/// (in a `race-check` build) certifies one owner per gathered target.
fn gather_matches_per_edge<G: Neighbors<Weight = ()>>(at: &str, g: &G) {
    let n = g.num_vertices();
    let dense = EdgeMapOptions::new().traversal(Traversal::Dense);
    for (case, frontier, opts) in [
        ("whole V", VertexSubset::all(n), EdgeMapOptions::new()),
        ("partial, forced dense", VertexSubset::from_fn(n, |v| v.is_multiple_of(3)), dense),
        ("small, auto", VertexSubset::from_sparse(n, vec![0, 5, 9]), EdgeMapOptions::new()),
    ] {
        let (reduced, scanned) = with_threads(1, || {
            (reducing_rounds(g, &frontier, opts, false), reducing_rounds(g, &frontier, opts, true))
        });
        for (r, s) in reduced.iter().zip(&scanned) {
            assert_eq!(r.1, s.1, "{at}/{case}/{}: state bits", r.0);
            assert_eq!(r.2, s.2, "{at}/{case}/{}: output subset", r.0);
        }
        let oracle = RaceOracle::new(n, WinContract::MultiWin);
        let raced = reducing_rounds(g, &frontier, opts.race_oracle(&oracle), false);
        oracle.certify().unwrap_or_else(|e| panic!("{at}/{case}: {e}"));
        // Components reads labels other owners are lowering, so only its
        // fixed point is schedule-independent; everything else is.
        for (r, p) in reduced.iter().zip(&raced).filter(|(r, _)| r.0 != "cc") {
            assert_eq!((&r.1, &r.2), (&p.1, &p.2), "{at}/{case}/{}: ambient pool", r.0);
        }
    }
}

#[test]
fn dense_rounds_reduce_to_exactly_what_the_per_edge_scan_computes() {
    for (family, base) in [
        ("grid3d", grid3d(5)),
        ("rmat", rmat(&RmatOptions::paper(9))),
        ("directed-er", erdos_renyi(400, 3000, 7, false)),
    ] {
        let reps = Reps::of(&base);
        gather_matches_per_edge(&format!("{family}/csr"), &reps.csr);
        gather_matches_per_edge(&format!("{family}/overlay"), &reps.overlay);
        gather_matches_per_edge(&format!("{family}/byte"), &reps.byte);
        gather_matches_per_edge(&format!("{family}/nibble"), &reps.nibble);
        gather_matches_per_edge(&format!("{family}/byte-rle"), &reps.rle);
    }
}

/// A frontier's out-neighborhood through `edgeMap` under one policy.
fn neighborhood<G: Neighbors<Weight = ()>>(g: &G, frontier: &[u32], t: Traversal) -> Vec<u32> {
    let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
    let mut fr = VertexSubset::from_sparse(g.num_vertices(), frontier.to_vec());
    let opts = EdgeMapOptions::new().traversal(t);
    let mut out = ligra::edge_map_with(g, &mut fr, &f, opts).to_vec_sorted();
    out.dedup();
    out
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
    // Peeling straight off the compressed lists, against the bucket
    // reference on the decoded benchmark families.
    for g in [grid3d(5), random_local(1500, 5, 2), rmat(&RmatOptions::paper(9))] {
        let cg: CompressedGraph = CompressedGraph::from_graph(&g);
        assert_eq!(apps::kcore(&cg).coreness, apps::kcore::seq_kcore(&g));
    }
}
