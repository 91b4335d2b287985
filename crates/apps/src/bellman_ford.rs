//! Bellman–Ford single-source shortest paths (the paper's weighted
//! application).
//!
//! Each round relaxes every edge out of the frontier with `writeMin` (a
//! priority update on the distance array); a vertex enters the next
//! frontier the first time its distance improves in a round, tracked by a
//! per-round visited bit exactly as the original `BellmanFord.C` does.
//! If relaxation is still producing changes after `n` rounds, a negative
//! cycle is reachable.

use ligra::{
    edge_map_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder,
    VertexSubset,
};
use ligra_graph::{Neighbors, VertexId};
use ligra_parallel::atomics::write_min_i64;
use ligra_parallel::bitvec::AtomicBitVec;
use std::sync::atomic::{AtomicI64, Ordering};

/// Distance of unreachable vertices.
pub const INFINITE_DISTANCE: i64 = i64::MAX;

/// Output of [`bellman_ford`].
#[derive(Debug, Clone)]
pub struct BellmanFordResult {
    /// Shortest-path distance from the source ([`INFINITE_DISTANCE`] when
    /// unreachable). Meaningless if `negative_cycle` is set.
    pub dist: Vec<i64>,
    /// Relaxation rounds executed.
    pub rounds: usize,
    /// True iff a negative cycle is reachable from the source.
    pub negative_cycle: bool,
}

struct BfF<'a> {
    dist: &'a [AtomicI64],
    visited: &'a AtomicBitVec,
}

impl BfF<'_> {
    /// `dist[src] + w`. Every `src` handed to an update is a frontier
    /// member, and frontier members always have finite distance.
    #[inline]
    fn relax(&self, src: VertexId, w: i32) -> i64 {
        let du = self.dist[src as usize].load(Ordering::Relaxed);
        debug_assert_ne!(du, INFINITE_DISTANCE, "frontier vertex with infinite distance");
        du + w as i64
    }
}

impl EdgeMapFn<i32> for BfF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: i32) -> bool {
        // Dense traversal: single owner of `dst`.
        let nd = self.relax(src, w);
        let slot = &self.dist[dst as usize];
        if nd < slot.load(Ordering::Relaxed) {
            slot.store(nd, Ordering::Relaxed);
            self.visited.set(dst as usize)
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: i32) -> bool {
        let nd = self.relax(src, w);
        write_min_i64(&self.dist[dst as usize], nd) && self.visited.set(dst as usize)
    }
}

/// Parallel Bellman–Ford from `source` with default options, over any
/// `i32`-weighted [`Neighbors`] representation (a `WeightedGraph`, or
/// `UnitWeighted` over an unweighted one).
pub fn bellman_ford<G: Neighbors<Weight = i32>>(g: &G, source: VertexId) -> BellmanFordResult {
    bellman_ford_traced(g, source, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel Bellman–Ford recording per-round statistics.
pub fn bellman_ford_traced<G: Neighbors<Weight = i32>, R: Recorder>(
    g: &G,
    source: VertexId,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> BellmanFordResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");

    let mut dist = vec![INFINITE_DISTANCE; n];
    dist[source as usize] = 0;
    let visited = AtomicBitVec::new(n);
    let mut rounds = 0usize;
    let mut negative_cycle = false;
    {
        let dist_cells = ligra_parallel::atomics::as_atomic_i64(&mut dist);
        let f = BfF { dist: dist_cells, visited: &visited };
        let mut frontier = VertexSubset::single(n, source);
        while !frontier.is_empty() {
            if rounds >= n {
                negative_cycle = true;
                break;
            }
            rounds += 1;
            frontier = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            // Reset the per-round visited bits of the new frontier (the
            // paper's BF_Vertex_F): cheaper than clearing the whole array.
            vertex_map_recorded(
                &frontier,
                |v| {
                    visited.clear(v as usize);
                },
                stats,
            );
        }
    }
    BellmanFordResult { dist, rounds, negative_cycle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_bellman_ford;
    use ligra::Traversal;
    use ligra::TraversalStats;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{grid3d, random_local, random_weights, rmat};
    use ligra_graph::{build_weighted_graph, BuildOptions, WeightedGraph};

    fn check_against_seq(g: &WeightedGraph, source: u32) {
        let par = bellman_ford(g, source);
        match seq_bellman_ford(g, source) {
            Some(dist) => {
                assert!(!par.negative_cycle);
                assert_eq!(par.dist, dist);
            }
            None => assert!(par.negative_cycle),
        }
    }

    #[test]
    fn simple_dag() {
        let g = build_weighted_graph(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3)],
            &[1, 1, 5, 2],
            BuildOptions::directed(),
        );
        let r = bellman_ford(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 4]);
        assert!(!r.negative_cycle);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = build_weighted_graph(3, &[(0, 1)], &[7], BuildOptions::directed());
        let r = bellman_ford(&g, 0);
        assert_eq!(r.dist, vec![0, 7, INFINITE_DISTANCE]);
    }

    #[test]
    fn negative_edges_without_cycle() {
        let g = build_weighted_graph(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3)],
            &[5, -4, 3, 1],
            BuildOptions::directed(),
        );
        check_against_seq(&g, 0);
        let r = bellman_ford(&g, 0);
        assert_eq!(r.dist, vec![0, 5, 1, 2]);
    }

    #[test]
    fn negative_cycle_detected() {
        let g = build_weighted_graph(
            3,
            &[(0, 1), (1, 2), (2, 1)],
            &[1, -2, 1],
            BuildOptions::directed(),
        );
        let r = bellman_ford(&g, 0);
        assert!(r.negative_cycle);
        check_against_seq(&g, 0);
    }

    #[test]
    fn negative_cycle_unreachable_from_source_is_ignored() {
        // Cycle 2 <-> 3 negative, but source component is {0, 1}.
        let g = build_weighted_graph(
            4,
            &[(0, 1), (2, 3), (3, 2)],
            &[4, -1, -1],
            BuildOptions::directed(),
        );
        let r = bellman_ford(&g, 0);
        assert!(!r.negative_cycle);
        assert_eq!(r.dist[..2], [0, 4]);
    }

    #[test]
    fn matches_sequential_on_generators() {
        let g = random_weights(&grid3d(5), 20, 1);
        check_against_seq(&g, 0);
        let g = random_weights(&random_local(1500, 5, 2), 50, 3);
        check_against_seq(&g, 17);
        let g = random_weights(&rmat(&RmatOptions::paper(9)), 100, 4);
        check_against_seq(&g, 0);
    }

    #[test]
    fn forced_traversals_agree() {
        let g = random_weights(&rmat(&RmatOptions::paper(9)), 30, 9);
        let auto = bellman_ford(&g, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let mut stats = TraversalStats::new();
            let forced = bellman_ford_traced(&g, 0, EdgeMapOptions::new().traversal(t), &mut stats);
            assert_eq!(forced.dist, auto.dist, "traversal {t:?}");
        }
    }

    #[test]
    fn zero_weight_graph_reduces_to_reachability() {
        let g = random_weights(&grid3d(4), 1, 7);
        // All weights are exactly 1 (max_w = 1), so dist == hop count.
        let r = bellman_ford(&g, 0);
        let bfs = crate::bfs::bfs(&ligra_graph::generators::grid3d(4), 0);
        for v in 0..g.num_vertices() {
            assert_eq!(r.dist[v] as u32, bfs.dist[v]);
        }
    }
}
