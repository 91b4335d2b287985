//! Everything the harness does with the library crates in-process: the
//! seeded inputs, the sequential references every output is checked
//! against, and the parallel/graph/core/apps layer probes.

use crate::rng::Rng;
use crate::spec::{Scale, Workload, BATCH_ADDS, BATCH_DELS, PAGERANK_ITERS};
use crate::stats::median;
use crate::Metrics;
use ligra::{EdgeMapOptions, Mode, Op, Recorder, Traversal, TraversalStats};
use ligra_apps::seq;
use ligra_engine::PAGERANK_ALPHA;
use ligra_graph::generators::{grid3d, rmat, RmatOptions};
use ligra_graph::{DeltaBatch, Graph};
use std::hint::black_box;
use std::time::Instant;

/// Relative L1 tolerance for PageRank and BC against the references.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Builds the workload's graph. The seed picks the rMat instance; the
/// grid has no randomness of its own (the seed picks its sources).
pub fn build_graph(w: Workload, scale: Scale, seed: u64) -> Graph {
    match w {
        Workload::AnalyticsGrid => grid3d(scale.grid_side()),
        Workload::AnalyticsRmat => seeded_rmat(scale.analytics_log_n(), seed),
        _ => seeded_rmat(scale.serving_log_n(w), seed),
    }
}

fn seeded_rmat(log_n: u32, seed: u64) -> Graph {
    rmat(&RmatOptions { seed: ligra_parallel::mix64(seed), ..RmatOptions::paper(log_n) })
}

/// Bytes of the CSR arrays the kernels stream (8-byte offsets, 4-byte
/// targets; a symmetric graph stores one direction).
pub fn csr_bytes(g: &Graph) -> u64 {
    let one = 8 * (g.num_vertices() as u64 + 1) + 4 * g.num_edges() as u64;
    if g.is_symmetric() {
        one
    } else {
        2 * one
    }
}

/// The vertices of the largest component under `labels`, ascending.
/// Every source is drawn from it, so every sourced query traverses the
/// same giant component instead of splitting the timings between it and
/// the isolated vertices an rMat graph is full of.
pub fn giant_component(labels: &[u32]) -> Vec<u32> {
    let mut counts = vec![0u32; labels.len()];
    labels.iter().for_each(|&l| counts[l as usize] += 1);
    let giant = counts.iter().enumerate().max_by_key(|&(_, &c)| c).map_or(0, |(l, _)| l as u32);
    (0..labels.len() as u32).filter(|&v| labels[v as usize] == giant).collect()
}

/// `k` distinct members of `pool`, drawn from `rng`.
pub fn draw_distinct(pool: &[u32], rng: &mut Rng, k: usize) -> Vec<u32> {
    assert!(pool.len() >= k, "largest component has fewer than {k} vertices");
    let mut out: Vec<u32> = Vec::with_capacity(k);
    while out.len() < k {
        let v = pool[rng.below(pool.len() as u64) as usize];
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// One seeded `mutate` batch: [`BATCH_ADDS`] fresh arcs between random
/// distinct vertices and [`BATCH_DELS`] arcs of the *base* graph (a
/// repeat deletion is a no-op, never an error).
pub fn random_batch(base: &Graph, rng: &mut Rng) -> DeltaBatch {
    let n = base.num_vertices() as u64;
    let mut batch = DeltaBatch::new();
    while batch.add_edges.len() < BATCH_ADDS {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            batch.add_edges.push((u, v));
        }
    }
    while batch.del_edges.len() < BATCH_DELS {
        let u = rng.below(n) as u32;
        let nbrs = base.out_neighbors(u);
        if !nbrs.is_empty() {
            batch.del_edges.push((u, nbrs[rng.below(nbrs.len() as u64) as usize]));
        }
    }
    batch
}

/// Whether two labelings induce the same partition of the vertices.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    const UNSET: u32 = u32::MAX;
    if a.len() != b.len() {
        return false;
    }
    let mut a_to_b = vec![UNSET; a.len()];
    let mut b_to_a = vec![UNSET; a.len()];
    for (&la, &lb) in a.iter().zip(b) {
        let (Some(fwd), Some(back)) = (a_to_b.get_mut(la as usize), b_to_a.get_mut(lb as usize))
        else {
            return false;
        };
        if (*fwd != UNSET && *fwd != lb) || (*back != UNSET && *back != la) {
            return false;
        }
        *fwd = lb;
        *back = la;
    }
    true
}

/// `Σ|a−b| ÷ Σ|b|` within [`FLOAT_TOLERANCE`].
pub fn close_l1(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    let norm: f64 = b.iter().map(|y| y.abs()).sum();
    diff <= FLOAT_TOLERANCE * norm.max(f64::MIN_POSITIVE)
}

/// Largest finite BFS distance.
pub fn max_dist(dist: &[u32]) -> u32 {
    dist.iter().copied().filter(|&d| d != seq::UNREACHED).max().unwrap_or(0)
}

/// What the wire protocol's summaries say about a graph, computed with
/// the sequential references; the oracle for every serving reply.
pub struct WireOracle<'a> {
    g: &'a Graph,
    bfs: std::collections::HashMap<u32, (u64, u32)>,
    bc: std::collections::HashMap<u32, f64>,
    components: Option<u64>,
    rank_sum: Option<f64>,
}

impl<'a> WireOracle<'a> {
    /// An oracle over `g`; answers are computed on first use and kept.
    pub fn new(g: &'a Graph) -> Self {
        WireOracle {
            g,
            bfs: Default::default(),
            bc: Default::default(),
            components: None,
            rank_sum: None,
        }
    }

    /// `(reached, max_dist)` of a BFS from `source`.
    pub fn bfs(&mut self, source: u32) -> (u64, u32) {
        let g = self.g;
        *self.bfs.entry(source).or_insert_with(|| {
            let (dist, _) = seq::seq_bfs(g, source);
            (dist.iter().filter(|&&d| d != seq::UNREACHED).count() as u64, max_dist(&dist))
        })
    }

    /// `dependency_sum` of BC from `source`.
    pub fn bc(&mut self, source: u32) -> f64 {
        let g = self.g;
        *self.bc.entry(source).or_insert_with(|| seq::seq_brandes(g, source).iter().sum())
    }

    /// Number of connected components.
    pub fn components(&mut self) -> u64 {
        let g = self.g;
        *self.components.get_or_insert_with(|| {
            let mut labels = seq::seq_cc(g);
            labels.sort_unstable();
            labels.dedup();
            labels.len() as u64
        })
    }

    /// `rank_sum` after [`PAGERANK_ITERS`] iterations.
    pub fn rank_sum(&mut self) -> f64 {
        let g = self.g;
        *self.rank_sum.get_or_insert_with(|| {
            seq::seq_pagerank(g, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS).0.iter().sum()
        })
    }
}

/// A wire float (printed with six decimals) against its reference.
pub fn wire_float_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= FLOAT_TOLERANCE * want.abs() + 1e-6
}

/// One traced BFS: seconds and the per-round events.
fn traced_bfs(g: &Graph, source: u32, policy: Traversal) -> (f64, TraversalStats) {
    let mut stats = TraversalStats::new();
    let (s, _) = timed(|| {
        black_box(ligra_apps::bfs_traced(
            g,
            source,
            EdgeMapOptions::new().traversal(policy),
            &mut stats,
        ))
    });
    (s, stats)
}

fn edge_rounds(stats: &TraversalStats) -> Vec<&ligra::RoundStat> {
    stats.rounds.iter().filter(|r| r.op == Op::EdgeMap).collect()
}

/// The `parallel`, `graph` (in-memory part), `core` and `apps` probes on
/// graph `g`, each a timed call into the crate's public functions.
pub fn layer_probes(g: &Graph, source: u32, seed: u64, m: &mut Metrics) {
    let n = g.num_vertices();

    // parallel: the pool as users get it — no thread count is set here.
    let threads = ligra_parallel::num_threads();
    m.insert("parallel.pool_threads", threads as f64);
    m.insert(
        "parallel.pool_is_parallel",
        f64::from(u8::from(ligra_parallel::utils::pool_is_parallel(threads))),
    );
    let mut rng = Rng::new(seed, 0x5ca9);
    let xs: Vec<u64> = (0..n).map(|_| rng.below(8)).collect();
    let flags: Vec<bool> = xs.iter().map(|&x| x < 4).collect();
    let rate = |secs: Vec<f64>| n as f64 / median(&secs) / 1e6;
    m.insert(
        "parallel.scan_melem_per_s",
        rate((0..5).map(|_| timed(|| black_box(ligra_parallel::prefix_sums(&xs))).0).collect()),
    );
    m.insert(
        "parallel.pack_melem_per_s",
        rate((0..5).map(|_| timed(|| black_box(ligra_parallel::pack_index(&flags))).0).collect()),
    );

    // graph: size against the cache, and the mutation primitives.
    m.insert("graph.csr_bytes", csr_bytes(g) as f64);
    m.insert("graph.llc_bytes", crate::sysinfo::llc_bytes() as f64);
    let mut rng = Rng::new(seed, 0xba7c);
    let mut overlaid = g.clone();
    let mut apply_us = Vec::new();
    for _ in 0..20 {
        let batch = random_batch(g, &mut rng);
        let (s, applied) = timed(|| ligra_graph::apply_batch(&overlaid, &batch));
        overlaid = applied.expect("seeded batches stay inside the id space").0;
        apply_us.push(s * 1e6);
    }
    m.insert("graph.apply_batch_us", median(&apply_us));
    let (compact_s, compacted) = timed(|| overlaid.compacted());
    m.insert("graph.compact_s", compact_s);
    // The same traversal over the 20-batch overlay and over its flat twin.
    let on_overlay = median(
        &(0..3).map(|_| traced_bfs(&overlaid, source, Traversal::Auto).0).collect::<Vec<_>>(),
    );
    let on_flat = median(
        &(0..3).map(|_| traced_bfs(&compacted, source, Traversal::Auto).0).collect::<Vec<_>>(),
    );
    m.insert("mutate.overlay_read_slowdown", on_overlay / on_flat);
    drop((overlaid, compacted));

    // core: Auto against every forced policy, on one source.
    let (auto_s, auto) = traced_bfs(g, source, Traversal::Auto);
    let rounds = edge_rounds(&auto);
    let sum = |f: fn(&ligra::RoundStat) -> u64| rounds.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.insert("core.rounds.bfs", rounds.len() as f64);
    m.insert("core.edges_scanned.bfs", sum(|r| r.edges_scanned));
    m.insert(
        "core.dense_round_share",
        rounds.iter().filter(|r| r.mode != Mode::Sparse).count() as f64
            / rounds.len().max(1) as f64,
    );
    m.insert(
        "core.round_p50_us",
        median(&rounds.iter().map(|r| r.time_ns as f64 / 1e3).collect::<Vec<_>>()),
    );
    let attempts = sum(|r| r.cas_attempts);
    m.insert(
        "core.cas_win_ratio",
        if attempts > 0.0 { sum(|r| r.cas_wins) / attempts } else { 0.0 },
    );
    m.insert("core.frontier_bytes", sum(|r| r.frontier_bytes));
    let mut best = f64::INFINITY;
    for (policy, time_key, edge_key) in [
        (Traversal::Sparse, "core.bfs_forced_s.sparse", "core.ns_per_edge.sparse"),
        (Traversal::Dense, "core.bfs_forced_s.dense", "core.ns_per_edge.dense"),
        (
            Traversal::DenseForward,
            "core.bfs_forced_s.dense_forward",
            "core.ns_per_edge.dense_forward",
        ),
        (Traversal::Partitioned, "core.bfs_forced_s.partitioned", "core.ns_per_edge.partitioned"),
    ] {
        let (s, stats) = traced_bfs(g, source, policy);
        best = best.min(s);
        let rs = edge_rounds(&stats);
        let ns: u64 = rs.iter().map(|r| r.time_ns).sum();
        let edges: u64 = rs.iter().map(|r| r.edges_scanned).sum();
        m.insert(time_key, s);
        m.insert(edge_key, ns as f64 / edges.max(1) as f64);
        if policy == Traversal::Partitioned {
            m.insert("core.scatter_bytes", rs.iter().map(|r| r.scatter_bytes).sum::<u64>() as f64);
        }
    }
    m.insert("core.auto_regret", auto_s / best);

    // apps: iteration and round counts, and vertexMap's unit cost.
    let mut pr_stats = TraversalStats::new();
    let (pr_s, pr) = timed(|| {
        ligra_apps::pagerank_traced(
            g,
            PAGERANK_ALPHA,
            0.0,
            PAGERANK_ITERS,
            EdgeMapOptions::new(),
            &mut pr_stats,
        )
    });
    m.insert("apps.pagerank_iter_ms", pr_s * 1e3 / pr.iterations.max(1) as f64);
    let vmaps: Vec<_> = pr_stats.rounds.iter().filter(|r| r.op == Op::VertexMap).collect();
    let vm_ns: u64 = vmaps.iter().map(|r| r.time_ns).sum();
    let vm_vertices: u64 = vmaps.iter().map(|r| r.frontier_vertices).sum();
    m.insert("core.vertex_map_ns_per_vertex", vm_ns as f64 / vm_vertices.max(1) as f64);
    m.insert("apps.cc_rounds", ligra_apps::cc(g).rounds as f64);
    m.insert("apps.bc_rounds", ligra_apps::bc(g, source).rounds as f64);
    // The plain single-thread references: baseline and oracle.
    m.insert("apps.seq_bfs_s", timed(|| black_box(seq::seq_bfs(g, source))).0);
    m.insert("apps.seq_cc_s", timed(|| black_box(seq::seq_cc(g))).0);
    m.insert(
        "apps.seq_pagerank_s",
        timed(|| black_box(seq::seq_pagerank(g, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS))).0,
    );
}

/// The sequential references of one analytics run.
pub struct References {
    /// BFS distances per source.
    pub bfs: Vec<Vec<u32>>,
    /// Component labels.
    pub cc: Vec<u32>,
    /// Ranks after [`PAGERANK_ITERS`] iterations.
    pub pagerank: Vec<f64>,
    /// Brandes dependencies from the first source.
    pub bc: Vec<f64>,
}

impl References {
    /// Computes every reference for `sources` (BC uses `sources[0]`).
    /// `cc` is passed in: set-up already needed it to find the giant
    /// component.
    pub fn compute(g: &Graph, sources: &[u32], cc: Vec<u32>) -> References {
        References {
            bfs: sources.iter().map(|&s| seq::seq_bfs(g, s).0).collect(),
            cc,
            pagerank: seq::seq_pagerank(g, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS).0,
            bc: seq::seq_brandes(g, sources[0]),
        }
    }
}

/// One library call of the analytics cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// BFS from the i-th source.
    Bfs(usize),
    /// Connected components.
    Cc,
    /// PageRank, [`PAGERANK_ITERS`] iterations.
    PageRank,
    /// BC from the first source.
    Bc,
}

impl Call {
    /// Index into per-kind arrays: bfs, cc, pagerank, bc.
    pub fn kind(self) -> usize {
        match self {
            Call::Bfs(_) => 0,
            Call::Cc => 1,
            Call::PageRank => 2,
            Call::Bc => 3,
        }
    }
}

/// Kind names, indexed by [`Call::kind`] and by the serving reads.
pub const KINDS: [&str; 4] = ["bfs", "cc", "pagerank", "bc"];

/// Runs one call with `Traversal::Auto` and returns (seconds to the
/// solution, whether the solution equals the reference).
pub fn run_call<R: Recorder>(
    g: &Graph,
    call: Call,
    sources: &[u32],
    refs: &References,
    rec: &mut R,
) -> (f64, bool) {
    let opts = EdgeMapOptions::new();
    match call {
        Call::Bfs(i) => {
            let (s, r) = timed(|| ligra_apps::bfs_traced(g, sources[i], opts, rec));
            (s, r.dist == refs.bfs[i])
        }
        Call::Cc => {
            let (s, r) = timed(|| ligra_apps::cc_traced(g, opts, rec));
            (s, same_partition(&r.label, &refs.cc))
        }
        Call::PageRank => {
            let (s, r) = timed(|| {
                ligra_apps::pagerank_traced(g, PAGERANK_ALPHA, 0.0, PAGERANK_ITERS, opts, rec)
            });
            (s, close_l1(&r.rank, &refs.pagerank))
        }
        Call::Bc => {
            let (s, r) = timed(|| ligra_apps::bc_traced(g, sources[0], opts, rec));
            (s, close_l1(&r.dependencies, &refs.bc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_relabeling() {
        assert!(same_partition(&[0, 0, 2, 2], &[1, 1, 3, 3]));
        assert!(!same_partition(&[0, 0, 2, 2], &[1, 1, 1, 3]));
        assert!(!same_partition(&[0, 1, 2, 2], &[1, 1, 3, 3]));
        assert!(!same_partition(&[0, 0], &[0, 0, 0]));
    }

    #[test]
    fn l1_closeness_is_relative() {
        assert!(close_l1(&[1e9, 2e9], &[1e9 + 0.5, 2e9]));
        assert!(!close_l1(&[1.0, 2.0], &[1.0, 2.1]));
    }

    #[test]
    fn batches_are_seeded_and_loop_free() {
        let g = build_graph(Workload::ServePoint, Scale { smoke: true }, 3);
        let a = random_batch(&g, &mut Rng::new(9, 1));
        let b = random_batch(&g, &mut Rng::new(9, 1));
        assert_eq!(a, b);
        assert_eq!((a.add_edges.len(), a.del_edges.len()), (BATCH_ADDS, BATCH_DELS));
        assert!(a.add_edges.iter().all(|&(u, v)| u != v));
        assert_ne!(a, random_batch(&g, &mut Rng::new(10, 1)));
    }
}
