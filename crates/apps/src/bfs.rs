//! Breadth-first search (the paper's Figure 1/2 application).
//!
//! Maintains a `parent` array; the edge function claims unvisited targets
//! with a CAS, and `cond` prunes already-claimed targets — which is also
//! what lets the dense (pull) traversal abandon a target's in-edge scan
//! the moment a parent is found. This is exactly the paper's BFS:
//!
//! ```text
//! UPDATE(s, d) = CAS(&parent[d], ⊥, s)
//! COND(d)      = (parent[d] == ⊥)
//! frontier     = {r};  while |frontier| > 0: frontier = EDGEMAP(G, frontier, UPDATE, COND)
//! ```

use ligra::{edge_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder, VertexSubset};
use ligra_graph::{Graph, Neighbors, VertexId};
use ligra_parallel::atomics::cas_u32;
use ligra_parallel::checked_u32;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parent value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Output of [`bfs`].
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS-tree parent of each vertex; `parent[source] == source`;
    /// [`UNREACHED`] for vertices not reachable from the source.
    pub parent: Vec<u32>,
    /// Hop distance from the source; [`UNREACHED`] when unreachable.
    pub dist: Vec<u32>,
    /// Number of `edgeMap` rounds (the BFS depth).
    pub rounds: usize,
    /// Number of vertices reached (including the source).
    pub reached: usize,
}

/// The paper's BFS edge function: `update` is the single-owner (dense)
/// variant with a plain check-then-write, `update_atomic` the CAS variant.
struct BfsF<'a> {
    parent: &'a [AtomicU32],
}

impl EdgeMapFn for BfsF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        // Dense traversal: one thread owns `dst`, so no CAS is needed.
        let slot = &self.parent[dst as usize];
        if slot.load(Ordering::Relaxed) == UNREACHED {
            slot.store(src, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        cas_u32(&self.parent[dst as usize], UNREACHED, src)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.parent[dst as usize].load(Ordering::Relaxed) == UNREACHED
    }
}

/// Parallel BFS from `source` with default `edgeMap` options, over any
/// unweighted [`Neighbors`] representation (CSR, overlay, compressed).
pub fn bfs<G: Neighbors<Weight = ()>>(g: &G, source: VertexId) -> BfsResult {
    bfs_traced(g, source, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel BFS with explicit `edgeMap` options (used by the ablation
/// benches to force sparse-only / dense-only traversal).
pub fn bfs_with<G: Neighbors<Weight = ()>>(
    g: &G,
    source: VertexId,
    opts: EdgeMapOptions,
) -> BfsResult {
    bfs_traced(g, source, opts, &mut NoopRecorder)
}

/// Parallel BFS delivering per-round telemetry to any [`Recorder`]
/// (pass a `&mut TraversalStats` to collect a trace).
pub fn bfs_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    source: VertexId,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");

    let mut parent = vec![UNREACHED; n];
    let mut dist = vec![UNREACHED; n];
    parent[source as usize] = source;
    dist[source as usize] = 0;

    let mut rounds = 0usize;
    {
        let parent_atomic = ligra_parallel::atomics::as_atomic_u32(&mut parent);
        let f = BfsF { parent: parent_atomic };
        let mut frontier = VertexSubset::single(n, source);
        let mut level_sets: Vec<VertexSubset> = Vec::new();
        while !frontier.is_empty() {
            let next = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            rounds += 1;
            // Keep the level just expanded by moving it: `level_sets[d]`
            // is the set at distance `d`, the source's level included.
            level_sets.push(std::mem::replace(&mut frontier, next));
        }
        // Fill distances level by level (one parallel pass per level; the
        // paper's BFS returns only parents — distances are bookkeeping for
        // the tests and Table 2's reachability checks). The source's
        // distance is already stamped.
        for (level, fr) in level_sets.iter().enumerate().skip(1) {
            let d = checked_u32(level);
            let dist_cell = ligra_parallel::atomics::as_atomic_u32(&mut dist);
            ligra::vertex_map_recorded(
                fr,
                |v| dist_cell[v as usize].store(d, Ordering::Relaxed),
                stats,
            );
        }
    }

    let reached = parent.par_iter().filter(|&&p| p != UNREACHED).count();
    BfsResult { parent, dist, rounds, reached }
}

impl BfsResult {
    /// Checks the parent array is a valid BFS tree for `g` from `source`:
    /// every reached non-source vertex's parent is reached, is one of its
    /// in-neighbors, and distances satisfy `dist[v] == dist[parent[v]] + 1`
    /// with the triangle property over all edges. Panics on violation.
    pub fn validate(&self, g: &Graph, source: VertexId) {
        let n = g.num_vertices();
        assert_eq!(self.parent[source as usize], source);
        assert_eq!(self.dist[source as usize], 0);
        (0..checked_u32(n)).into_par_iter().for_each(|v| {
            let p = self.parent[v as usize];
            if v == source {
                return;
            }
            if p == UNREACHED {
                assert_eq!(self.dist[v as usize], UNREACHED, "dist set for unreached {v}");
                return;
            }
            assert!(
                g.out_neighbors(p).binary_search(&v).is_ok(),
                "parent edge {p}->{v} does not exist"
            );
            assert_eq!(
                self.dist[v as usize],
                self.dist[p as usize] + 1,
                "distance not parent+1 at {v}"
            );
        });
        // Triangle inequality over every edge: dist[v] <= dist[u] + 1.
        (0..checked_u32(n)).into_par_iter().for_each(|u| {
            let du = self.dist[u as usize];
            if du == UNREACHED {
                return;
            }
            for &v in g.out_neighbors(u) {
                let dv = self.dist[v as usize];
                assert!(
                    dv != UNREACHED && dv <= du + 1,
                    "edge {u}->{v} violates BFS optimality ({du} -> {dv})"
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_bfs;
    use ligra::{Traversal, TraversalStats};
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{balanced_tree, grid3d, path, random_local, rmat, star};

    fn check_against_seq(g: &Graph, source: u32) {
        let par = bfs(g, source);
        let (dist, _) = seq_bfs(g, source);
        assert_eq!(par.dist, dist, "distances differ from sequential BFS");
        par.validate(g, source);
    }

    #[test]
    fn path_graph_distances() {
        let g = path(10);
        let r = bfs(&g, 0);
        assert_eq!(r.rounds, 10); // 9 levels + final empty round
        assert_eq!(r.dist, (0..10).map(|i| i as u32).collect::<Vec<_>>());
        assert_eq!(r.reached, 10);
        r.validate(&g, 0);
    }

    #[test]
    fn star_is_one_round_deep() {
        let g = star(100);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[0], 0);
        assert!((1..100).all(|v| r.dist[v] == 1));
        assert_eq!(r.reached, 100);
    }

    #[test]
    fn matches_sequential_on_generators() {
        check_against_seq(&grid3d(6), 0);
        check_against_seq(&random_local(3000, 5, 11), 42);
        check_against_seq(&rmat(&RmatOptions::paper(10)), 0);
        check_against_seq(&balanced_tree(127), 0);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // Two components: a path 0-1-2 and isolated 3, 4.
        let g = ligra_graph::build_graph(
            5,
            &[(0, 1), (1, 2), (3, 4)],
            ligra_graph::BuildOptions::symmetric(),
        );
        let r = bfs(&g, 0);
        assert_eq!(r.reached, 3);
        assert_eq!(r.dist[3], UNREACHED);
        assert_eq!(r.parent[4], UNREACHED);
        r.validate(&g, 0);
    }

    #[test]
    fn directed_bfs_follows_edge_direction() {
        let g = ligra_graph::build_graph(
            4,
            &[(0, 1), (1, 2), (3, 0)],
            ligra_graph::BuildOptions::directed(),
        );
        let r = bfs(&g, 0);
        assert_eq!(r.dist[..3], [0, 1, 2]);
        assert_eq!(r.dist[3], UNREACHED, "3 -> 0 must not be walked backwards");
    }

    #[test]
    fn all_forced_traversals_agree_with_auto() {
        let g = rmat(&RmatOptions::paper(11));
        let auto = bfs(&g, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let forced = bfs_with(&g, 0, EdgeMapOptions::new().traversal(t));
            assert_eq!(forced.dist, auto.dist, "traversal {t:?} differs");
            forced.validate(&g, 0);
        }
    }

    #[test]
    fn hybrid_uses_dense_in_middle_rounds_on_rmat() {
        let g = rmat(&RmatOptions::paper(12));
        let mut stats = TraversalStats::new();
        let _ = bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
        let dense = ligra::summary(&stats).dense_rounds;
        assert!(dense > 0, "expected at least one dense round on rMat");
        // High-diameter graphs never densify: a path's frontier is one
        // vertex, always below m/20. (A 3d-grid shows the same behaviour
        // only at the paper's 10^7-vertex scale — at laptop scale its
        // O(side^2) frontiers exceed m/20 = 0.3·side^3; see EXPERIMENTS.md.)
        let g = path(5000);
        let mut stats = TraversalStats::new();
        let _ = bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
        let dense = ligra::summary(&stats).dense_rounds;
        assert_eq!(dense, 0, "path frontiers must stay sparse");
    }

    #[test]
    fn source_equals_reached_on_singleton() {
        let g = path(1);
        let r = bfs(&g, 0);
        assert_eq!(r.reached, 1);
        assert_eq!(r.rounds, 1);
    }
}
