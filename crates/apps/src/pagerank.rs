//! PageRank and PageRank-Delta (the paper's two rank applications).
//!
//! **PageRank** runs the classic damped iteration with the whole vertex
//! set as the frontier each round (`edgeMap` with output disabled — the
//! paper's demonstration that Ligra is not *only* for shrinking
//! frontiers). The update rule matches the original `PageRank.C`:
//! uniform start, damping `alpha`, no dangling-mass redistribution,
//! convergence on the L1 change.
//!
//! **PageRank-Delta** propagates only rank *changes* (`delta`) and keeps a
//! vertex in the frontier only while its change is a noticeable fraction
//! of its rank — the paper's showcase of frontier adaptivity: most
//! vertices converge early and drop out, so later iterations touch a
//! shrinking subset of the graph.

use ligra::{
    edge_map_recorded, vertex_filter_recorded, vertex_map_recorded, vertex_map_reduce_f64_recorded,
    EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder, VertexSubset,
};
use ligra_graph::{Neighbors, VertexId};
use ligra_parallel::atomics::{as_atomic_f64, AtomicF64};
use ligra_parallel::checked_u32;
use rayon::prelude::*;
use std::sync::atomic::Ordering;

/// The paper's `PR_F`: pull/push `share[s] = p[s]/deg⁺(s)` into each
/// target. Shares are precomputed once per iteration, so the per-edge work
/// is one load and one add — a register add in the dense traversal's
/// [`gather`](EdgeMapFn::gather), with one store per target; a CAS-loop add
/// when pushes race.
pub struct PrF<'a> {
    /// `share[s]`, read per edge.
    pub shares: &'a [f64],
    /// The accumulators, one per target.
    pub next: &'a [AtomicF64],
}

impl EdgeMapFn for PrF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        // Dense traversal: one thread owns dst.
        let slot = &self.next[dst as usize];
        let cur = slot.load(Ordering::Relaxed);
        slot.store(cur + self.shares[src as usize], Ordering::Relaxed);
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        self.next[dst as usize].fetch_add(self.shares[src as usize]);
        true
    }

    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, ())>,
    {
        let slot = &self.next[dst as usize];
        let mut sum = slot.load(Ordering::Relaxed);
        for (src, ()) in in_edges {
            sum += self.shares[src as usize];
        }
        slot.store(sum, Ordering::Relaxed);
        Some(true)
    }
}

/// Output of [`pagerank`] / [`pagerank_delta`].
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Rank of each vertex.
    pub rank: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final L1 change (PageRank) or final active-vertex count
    /// (PageRank-Delta, as a float).
    pub final_error: f64,
}

/// Parallel PageRank. `alpha` is the damping factor (paper: 0.85), `eps`
/// the L1 convergence threshold, `max_iters` a hard cap.
pub fn pagerank<G: Neighbors<Weight = ()>>(
    g: &G,
    alpha: f64,
    eps: f64,
    max_iters: usize,
) -> PageRankResult {
    pagerank_traced(g, alpha, eps, max_iters, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel PageRank recording per-round statistics.
pub fn pagerank_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    alpha: f64,
    eps: f64,
    max_iters: usize,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> PageRankResult {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph");
    let base = (1.0 - alpha) / n as f64;
    let mut p = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let opts = opts.no_output();

    let mut iterations = 0usize;
    let mut err = f64::INFINITY;
    let mut frontier = VertexSubset::all(n);
    // shares[s] = p[s] / deg⁺(s): this once up front, thereafter by the
    // vertex pass that produces the next p.
    let share = |rank: f64, s: VertexId| rank / (g.out_degree(s).max(1)) as f64;
    let mut shares: Vec<f64> =
        (0..checked_u32(n)).into_par_iter().map(|s| share(p[s as usize], s)).collect();
    // The iteration count, not the frontier, drives this loop, so the
    // cancellation token must be consulted here — the round boundary.
    while iterations < max_iters && err >= eps && !opts.is_cancelled() {
        iterations += 1;
        let next_cells = as_atomic_f64(&mut next);
        let f = PrF { shares: &shares, next: next_cells };
        let _ = edge_map_recorded(g, &mut frontier, &f, opts, stats);
        // PR_Vertex_F and everything else that walks `V` between two
        // edgeMaps, in one pass: damping + teleport, this vertex's L1
        // term, roll p <- next, re-zero next, the next iteration's share.
        let p_cells = as_atomic_f64(&mut p);
        let share_cells = as_atomic_f64(&mut shares);
        err = vertex_map_reduce_f64_recorded(
            &frontier,
            |v| {
                let i = v as usize;
                let rank = base + alpha * next_cells[i].load(Ordering::Relaxed);
                let change = (rank - p_cells[i].load(Ordering::Relaxed)).abs();
                p_cells[i].store(rank, Ordering::Relaxed);
                next_cells[i].store(0.0, Ordering::Relaxed);
                share_cells[i].store(share(rank, v), Ordering::Relaxed);
                change
            },
            stats,
        );
    }
    PageRankResult { rank: p, iterations, final_error: err }
}

/// Parallel PageRank-Delta.
///
/// `eps2` is the frontier-retention threshold: a vertex stays active while
/// `|delta| > eps2 * rank`. The paper uses a small constant (~1e-2);
/// smaller values trade running time for accuracy. Terminates when the
/// active set empties or after `max_iters`.
pub fn pagerank_delta<G: Neighbors<Weight = ()>>(
    g: &G,
    alpha: f64,
    eps2: f64,
    max_iters: usize,
) -> PageRankResult {
    pagerank_delta_traced(g, alpha, eps2, max_iters, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// [`pagerank_delta`] recording per-round statistics.
pub fn pagerank_delta_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    alpha: f64,
    eps2: f64,
    max_iters: usize,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> PageRankResult {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph");
    let base = (1.0 - alpha) / n as f64;

    // p accumulates the Neumann series Σ_t (αM)^t · base·1; delta is the
    // current term. Dropping small deltas makes the result approximate —
    // that is the algorithm's point.
    let mut p = vec![base; n];
    let mut delta = vec![base; n];
    let mut ngh_sum = vec![0.0f64; n];

    let all = VertexSubset::all(n);
    let mut frontier = all.clone();
    let mut iterations = 0usize;
    let opts = opts.no_output();
    let mut shares = vec![0.0f64; n];
    while iterations < max_iters && !frontier.is_empty() && !opts.is_cancelled() {
        iterations += 1;
        {
            // Only frontier members push, so only their shares are needed.
            let share_cells = as_atomic_f64(&mut shares);
            let delta_read: &[f64] = &delta;
            vertex_map_recorded(
                &frontier,
                |v| {
                    let s = delta_read[v as usize] / (g.out_degree(v).max(1)) as f64;
                    share_cells[v as usize].store(s, Ordering::Relaxed);
                },
                stats,
            );
        }
        {
            let sums = as_atomic_f64(&mut ngh_sum);
            let f = PrF { shares: &shares, next: sums };
            let _ = edge_map_recorded(g, &mut frontier, &f, opts, stats);
        }
        // delta' = α · nghSum; p += delta'; keep vertices with a
        // non-negligible relative change.
        {
            let p_cells = as_atomic_f64(&mut p);
            let d_cells = as_atomic_f64(&mut delta);
            let s_cells = as_atomic_f64(&mut ngh_sum);
            frontier = vertex_filter_recorded(
                &all,
                |v| {
                    let nd = alpha * s_cells[v as usize].load(Ordering::Relaxed);
                    s_cells[v as usize].store(0.0, Ordering::Relaxed);
                    d_cells[v as usize].store(nd, Ordering::Relaxed);
                    let rank = p_cells[v as usize].load(Ordering::Relaxed) + nd;
                    p_cells[v as usize].store(rank, Ordering::Relaxed);
                    nd.abs() > eps2 * rank
                },
                stats,
            );
        }
    }
    let active = frontier.len() as f64;
    PageRankResult { rank: p, iterations, final_error: active }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_pagerank;
    use ligra::Traversal;
    use ligra::TraversalStats;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, erdos_renyi, rmat, star};
    use ligra_graph::{build_graph, BuildOptions};

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn uniform_on_cycle() {
        let g = cycle(16);
        let r = pagerank(&g, 0.85, 1e-12, 200);
        for &x in &r.rank {
            assert!((x - 1.0 / 16.0).abs() < 1e-10);
        }
        assert!(r.iterations < 200);
    }

    #[test]
    fn matches_sequential_reference() {
        for g in [erdos_renyi(500, 4000, 1, true), rmat(&RmatOptions::paper(9)), star(64)] {
            let par = pagerank(&g, 0.85, 1e-10, 300);
            let (seq, _) = seq_pagerank(&g, 0.85, 1e-10, 300);
            assert!(
                l1(&par.rank, &seq) < 1e-7,
                "parallel vs sequential L1 = {}",
                l1(&par.rank, &seq)
            );
        }
    }

    #[test]
    fn directed_hub_gives_rank_to_leaves() {
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (0, i)).collect();
        let g = build_graph(10, &edges, BuildOptions::directed());
        let r = pagerank(&g, 0.85, 1e-12, 100);
        assert!(r.rank[1] > r.rank[0]);
        let (seq, _) = seq_pagerank(&g, 0.85, 1e-12, 100);
        assert!(l1(&r.rank, &seq) < 1e-9);
    }

    #[test]
    fn forced_traversals_agree_within_fp_noise() {
        let g = erdos_renyi(400, 3000, 5, true);
        let auto = pagerank(&g, 0.85, 1e-10, 100);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let mut stats = TraversalStats::new();
            let forced = pagerank_traced(
                &g,
                0.85,
                1e-10,
                100,
                EdgeMapOptions::new().traversal(t),
                &mut stats,
            );
            assert!(l1(&auto.rank, &forced.rank) < 1e-9, "traversal {t:?}");
        }
    }

    #[test]
    fn delta_approximates_full_pagerank() {
        let g = rmat(&RmatOptions::paper(10));
        let full = pagerank(&g, 0.85, 1e-12, 500);
        let approx = pagerank_delta(&g, 0.85, 1e-4, 500);
        let rel_err = l1(&full.rank, &approx.rank) / full.rank.iter().sum::<f64>();
        assert!(rel_err < 1e-2, "relative L1 error {rel_err}");
    }

    #[test]
    fn delta_frontier_shrinks() {
        let g = rmat(&RmatOptions::paper(10));
        let mut stats = TraversalStats::new();
        let _ = pagerank_delta_traced(&g, 0.85, 1e-2, 100, EdgeMapOptions::default(), &mut stats);
        let sizes: Vec<u64> = stats.edge_map_rounds().map(|r| r.frontier_vertices).collect();
        assert!(sizes.len() >= 3, "expected several delta rounds, got {sizes:?}");
        assert_eq!(sizes[0], g.num_vertices() as u64);
        assert!(*sizes.last().unwrap() < sizes[0] / 2, "frontier should shrink: {sizes:?}");
    }

    #[test]
    fn single_iteration_cap_respected() {
        let g = cycle(8);
        let r = pagerank(&g, 0.85, 0.0, 1);
        assert_eq!(r.iterations, 1);
    }
}
