//! Betweenness centrality (Brandes' algorithm, unweighted) — the paper's
//! BC application.
//!
//! Two phases from a single source `r`:
//!
//! 1. **Forward**: a BFS that counts shortest paths. `num_paths[v]` (σ)
//!    accumulates, over the frontier's edges, the path counts of
//!    predecessors; a vertex joins the next frontier on its *first*
//!    contribution of the round. Each round's frontier is retained as a
//!    level set.
//! 2. **Backward**: dependencies accumulate over the level sets in reverse
//!    order along *reversed* edges, using the inverse-path-count trick of
//!    the original `BC.C`: with `X[v] = σ(v)⁻¹·(1 + δ(v))`, the recurrence
//!    becomes the simple sum `X[v] = σ(v)⁻¹ + Σ_{succ w} X[w]`, so the
//!    same `edgeMap` machinery applies. Finally
//!    `δ(v) = (X[v] − σ(v)⁻¹) · σ(v)`.
//!
//! The returned `dependencies` are the single-source Brandes dependency
//! scores; summing them over all sources yields exact betweenness, and the
//! paper (like most BC benchmarks) reports the time for one source.

use ligra::{
    edge_map_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder,
    VertexSubset,
};
use ligra_graph::{Neighbors, Transpose, VertexId};
use ligra_parallel::atomics::AtomicF64;
use ligra_parallel::bitvec::AtomicBitVec;
use std::sync::atomic::Ordering;

/// Output of [`bc`].
#[derive(Debug, Clone)]
pub struct BcResult {
    /// Brandes dependency score δ(v) of each vertex w.r.t. the source.
    pub dependencies: Vec<f64>,
    /// Number of shortest paths σ(v) from the source (0 when unreachable).
    pub num_paths: Vec<f64>,
    /// Forward-phase rounds (the BFS depth from the source).
    pub rounds: usize,
}

/// Forward phase: accumulate path counts; first contribution claims the
/// vertex for the next frontier.
pub struct BcForwardF<'a> {
    /// σ per vertex.
    pub num_paths: &'a [AtomicF64],
    /// Vertices of this and every earlier level.
    pub visited: &'a AtomicBitVec,
}

impl EdgeMapFn for BcForwardF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        // Dense traversal: single owner of dst.
        let add = self.num_paths[src as usize].load(Ordering::Relaxed);
        let slot = &self.num_paths[dst as usize];
        let old = slot.load(Ordering::Relaxed);
        slot.store(old + add, Ordering::Relaxed);
        old == 0.0
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let add = self.num_paths[src as usize].load(Ordering::Relaxed);
        let old = self.num_paths[dst as usize].fetch_add(add);
        old == 0.0
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        !self.visited.get(dst as usize)
    }

    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, ())>,
    {
        let old = sum_into(&self.num_paths[dst as usize], self.num_paths, in_edges);
        Some(old == 0.0)
    }
}

/// `slot += Σ values[src]` over `in_edges`, accumulated in a register from
/// the slot's current value in list order and stored once; returns the
/// value the slot had.
#[inline]
fn sum_into(
    slot: &AtomicF64,
    values: &[AtomicF64],
    in_edges: impl Iterator<Item = (VertexId, ())>,
) -> f64 {
    let old = slot.load(Ordering::Relaxed);
    let mut sum = old;
    for (src, ()) in in_edges {
        sum += values[src as usize].load(Ordering::Relaxed);
    }
    slot.store(sum, Ordering::Relaxed);
    old
}

/// Backward phase: accumulate `X[d] += X[s]` along reversed edges from the
/// deeper level; targets are the not-yet-processed shallower vertices.
pub struct BcBackwardF<'a> {
    /// `X[v] = σ(v)⁻¹·(1 + δ(v))` per vertex.
    pub x: &'a [AtomicF64],
    /// Vertices of this and every deeper level.
    pub visited: &'a AtomicBitVec,
}

impl EdgeMapFn for BcBackwardF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let add = self.x[src as usize].load(Ordering::Relaxed);
        let slot = &self.x[dst as usize];
        let old = slot.load(Ordering::Relaxed);
        slot.store(old + add, Ordering::Relaxed);
        true
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let add = self.x[src as usize].load(Ordering::Relaxed);
        self.x[dst as usize].fetch_add(add);
        true
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        !self.visited.get(dst as usize)
    }

    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, ())>,
    {
        sum_into(&self.x[dst as usize], self.x, in_edges);
        Some(true)
    }
}

/// Parallel single-source betweenness centrality with default options,
/// over any unweighted [`Neighbors`] representation.
pub fn bc<G: Neighbors<Weight = ()>>(g: &G, source: VertexId) -> BcResult {
    bc_traced(g, source, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel single-source betweenness centrality recording per-round
/// statistics (forward and backward rounds both append).
pub fn bc_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    source: VertexId,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> BcResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");

    let num_paths: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    num_paths[source as usize].store(1.0, Ordering::Relaxed);
    let visited = AtomicBitVec::new(n);
    visited.set(source as usize);

    // Forward: BFS with path counting; keep every level's frontier.
    let mut levels: Vec<VertexSubset> = Vec::new();
    {
        let f = BcForwardF { num_paths: &num_paths, visited: &visited };
        let mut frontier = VertexSubset::single(n, source);
        while !frontier.is_empty() {
            let next = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            vertex_map_recorded(
                &next,
                |v| {
                    visited.set(v as usize);
                },
                stats,
            );
            // Keep the level just expanded by moving it, as BFS does.
            levels.push(std::mem::replace(&mut frontier, next));
        }
    }
    let rounds = levels.len();

    // X[v] = σ(v)⁻¹ during the backward sweep (σ⁻¹ added when v's level is
    // processed); unreachable vertices keep X = 0 and are zeroed at the end.
    let x: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    visited.clear_all();

    {
        let back = BcBackwardF { x: &x, visited: &visited };
        let rev = Transpose(g);
        let back_opts = opts.no_output();
        for level in levels.iter_mut().rev() {
            // The backward sweep iterates stored levels, not the edgeMap
            // output, so it yields to cancellation explicitly per level.
            if opts.is_cancelled() {
                break;
            }
            // BC_Back_Vertex_F: mark processed and add the σ⁻¹ term.
            vertex_map_recorded(
                level,
                |v| {
                    visited.set(v as usize);
                    let sigma = num_paths[v as usize].load(Ordering::Relaxed);
                    debug_assert!(sigma > 0.0);
                    x[v as usize].fetch_add(1.0 / sigma);
                },
                stats,
            );
            let _ = edge_map_recorded(&rev, level, &back, back_opts, stats);
        }
    }

    // δ(v) = (X[v] − σ⁻¹) · σ; unreachable vertices get 0.
    let num_paths_plain: Vec<f64> = num_paths.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let dependencies: Vec<f64> = (0..n)
        .map(|v| {
            let sigma = num_paths_plain[v];
            if sigma == 0.0 {
                0.0
            } else {
                (x[v].load(Ordering::Relaxed) - 1.0 / sigma) * sigma
            }
        })
        .collect();

    BcResult { dependencies, num_paths: num_paths_plain, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_brandes;
    use ligra::Traversal;
    use ligra::TraversalStats;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, grid3d, path, random_local, rmat, star};
    use ligra_graph::{build_graph, BuildOptions, Graph};

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    fn check(g: &Graph, source: u32) {
        let par = bc(g, source);
        let seq = seq_brandes(g, source);
        let d = max_abs_diff(&par.dependencies, &seq);
        assert!(d < 1e-9, "dependency mismatch {d} from source {source}");
    }

    #[test]
    fn path_dependencies() {
        let g = path(4);
        let r = bc(&g, 0);
        assert_eq!(r.dependencies, vec![3.0, 2.0, 1.0, 0.0]);
        assert_eq!(r.num_paths, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn star_center_carries_all_paths() {
        let g = star(6);
        let r = bc(&g, 1); // a leaf
                           // From leaf 1: paths go through center 0 to the other 4 leaves.
        assert_eq!(r.dependencies[0], 4.0);
        assert_eq!(r.dependencies[2], 0.0);
        check(&g, 1);
    }

    #[test]
    fn diamond_splits_paths() {
        //   0 -> 1 -> 3, 0 -> 2 -> 3 (two shortest paths to 3)
        let g = build_graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], BuildOptions::directed());
        let r = bc(&g, 0);
        assert_eq!(r.num_paths, vec![1.0, 1.0, 1.0, 2.0]);
        // Each middle vertex carries half the single path to 3.
        assert!((r.dependencies[1] - 0.5).abs() < 1e-12);
        assert!((r.dependencies[2] - 0.5).abs() < 1e-12);
        check(&g, 0);
    }

    #[test]
    fn matches_brandes_on_generators() {
        check(&grid3d(4), 0);
        check(&cycle(21), 3);
        check(&random_local(800, 5, 1), 11);
        check(&rmat(&RmatOptions::paper(9)), 0);
    }

    #[test]
    fn unreached_vertices_have_zero_everything() {
        let g = build_graph(5, &[(0, 1), (1, 2)], BuildOptions::directed());
        let r = bc(&g, 0);
        assert_eq!(r.num_paths[3], 0.0);
        assert_eq!(r.num_paths[4], 0.0);
        assert_eq!(r.dependencies[3], 0.0);
        assert_eq!(r.dependencies[4], 0.0);
        check(&g, 0);
    }

    #[test]
    fn forced_traversals_agree() {
        let g = random_local(600, 6, 8);
        let auto = bc(&g, 0);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let mut stats = TraversalStats::new();
            let forced = bc_traced(&g, 0, EdgeMapOptions::new().traversal(t), &mut stats);
            let d = max_abs_diff(&auto.dependencies, &forced.dependencies);
            assert!(d < 1e-9, "traversal {t:?} differs by {d}");
        }
    }

    #[test]
    fn directed_bc_respects_direction() {
        // 0 -> 1 -> 2; from 0, vertex 1 lies on the single path to 2.
        let g = build_graph(3, &[(0, 1), (1, 2)], BuildOptions::directed());
        let r = bc(&g, 0);
        assert_eq!(r.dependencies, vec![2.0, 1.0, 0.0]);
        check(&g, 0);
    }
}
