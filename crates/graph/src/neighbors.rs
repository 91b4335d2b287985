//! [`Neighbors`] — the one interface `edgeMap` and the applications are
//! written against, so a graph representation is a trait impl, not a
//! second kernel set.
//!
//! A representation supplies counts, degrees, a streaming edge list per
//! vertex and direction, and a cached [`Partitioning`]; everything else
//! (the direction heuristic, the four traversal kernels, telemetry, race
//! and fault hooks) lives once in `ligra::edge_map`. The only structural
//! difference a kernel may act on is [`Neighbors::SEEKABLE`]: a CSR can
//! enter a hub's list at any edge offset, so edge-balanced blocks may
//! split it; a difference-encoded list can only be decoded from its head,
//! so blocks own whole vertices and each list is decoded once per round.

use crate::csr::{Graph, VertexId};
use crate::partition::{Partitioning, MAX_BITS, MIN_BITS};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// A graph representation `edgeMap` can traverse.
pub trait Neighbors: Sync {
    /// Per-edge payload (`()` for unweighted graphs).
    type Weight: Copy + Send + Sync + Default;

    /// Streaming `(neighbor, weight)` list of one vertex in one direction,
    /// in ascending neighbor order; `len()` is the degree, so a kernel that
    /// walks a list needs no second degree lookup.
    type Edges<'a>: ExactSizeIterator<Item = (VertexId, Self::Weight)>
    where
        Self: 'a;

    /// Whether [`Self::out_edges_range`] can enter a list at any position
    /// in O(1). Kernels split a hub's out-list across tasks only when this
    /// holds; otherwise they hand whole vertices to tasks and never ask
    /// for a proper sub-range.
    const SEEKABLE: bool = false;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges `m`.
    fn num_edges(&self) -> usize;

    /// True when one adjacency serves both directions.
    fn is_symmetric(&self) -> bool;

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> usize;

    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize;

    /// Out-edges of `v`.
    fn out_edges(&self, v: VertexId) -> Self::Edges<'_>;

    /// In-edges of `v` (the out-edges for symmetric graphs).
    fn in_edges(&self, v: VertexId) -> Self::Edges<'_>;

    /// Positions `range` of `v`'s out-list. [`Self::SEEKABLE`]
    /// representations override this with an O(1) seek; the rest are only
    /// ever asked for the whole list.
    #[inline]
    fn out_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        assert!(!Self::SEEKABLE, "a seekable representation must override out_edges_range");
        debug_assert_eq!(range, 0..self.out_degree(v), "cannot seek into a streamed list");
        self.out_edges(v)
    }

    /// The default-width partitioning over the in-direction, built on
    /// first use and cached with the graph.
    fn partitioning(&self) -> Arc<Partitioning>;

    /// A partitioning at an explicit width: the cached one when the
    /// widths agree (or `bits` is `None`), otherwise a throwaway one.
    fn partitioning_with(&self, bits: Option<u32>) -> Arc<Partitioning> {
        let cached = self.partitioning();
        match bits {
            Some(b) if cached.bits() != b.clamp(MIN_BITS, MAX_BITS) => {
                Arc::new(Partitioning::from_degrees(self.num_vertices(), b, |v| {
                    self.in_degree(v) as u64
                }))
            }
            _ => cached,
        }
    }

    /// Sum of out-degrees over `vs` — the `Σ deg⁺(u)` term of the paper's
    /// direction heuristic.
    fn out_degree_sum(&self, vs: &[VertexId]) -> u64 {
        if vs.len() < 2048 {
            vs.iter().map(|&v| self.out_degree(v) as u64).sum()
        } else {
            vs.par_iter().map(|&v| self.out_degree(v) as u64).sum()
        }
    }
}

/// One CSR neighbor slice zipped with its weights. For `W = ()` there is
/// no weight memory: the zero-sized payload is produced without a load,
/// so the loop is the bare walk over the neighbor slice.
#[derive(Debug, Clone)]
pub struct CsrEdges<'a, W> {
    ns: std::slice::Iter<'a, VertexId>,
    ws: &'a [W],
    j: usize,
}

impl<'a, W> CsrEdges<'a, W> {
    #[inline]
    fn new(ns: &'a [VertexId], ws: &'a [W]) -> Self {
        CsrEdges { ns: ns.iter(), ws, j: 0 }
    }
}

impl<W: Copy + Default> Iterator for CsrEdges<'_, W> {
    type Item = (VertexId, W);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, W)> {
        let &v = self.ns.next()?;
        if std::mem::size_of::<W>() == 0 {
            return Some((v, W::default()));
        }
        let w = self.ws[self.j];
        self.j += 1;
        Some((v, w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ns.size_hint()
    }
}

impl<W: Copy + Default> ExactSizeIterator for CsrEdges<'_, W> {}

impl<W: Copy + Send + Sync + Default> Neighbors for Graph<W> {
    type Weight = W;
    type Edges<'a>
        = CsrEdges<'a, W>
    where
        W: 'a;

    const SEEKABLE: bool = true;

    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        Graph::is_symmetric(self)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        Graph::out_degree(self, v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        Graph::in_degree(self, v)
    }

    #[inline]
    fn out_edges(&self, v: VertexId) -> CsrEdges<'_, W> {
        CsrEdges::new(self.out_neighbors(v), self.out_weights(v))
    }

    #[inline]
    fn in_edges(&self, v: VertexId) -> CsrEdges<'_, W> {
        CsrEdges::new(self.in_neighbors(v), self.in_weights(v))
    }

    #[inline]
    fn out_edges_range(&self, v: VertexId, range: Range<usize>) -> CsrEdges<'_, W> {
        let ws = self.out_weights(v);
        let ws = if std::mem::size_of::<W>() == 0 { ws } else { &ws[range.clone()] };
        CsrEdges::new(&self.out_neighbors(v)[range], ws)
    }

    fn partitioning(&self) -> Arc<Partitioning> {
        Graph::partitioning(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, build_weighted_graph, BuildOptions};
    use crate::delta::{apply_batch, DeltaBatch};

    fn edges_of<G: Neighbors>(g: &G, v: VertexId) -> (Vec<VertexId>, Vec<VertexId>) {
        (g.out_edges(v).map(|e| e.0).collect(), g.in_edges(v).map(|e| e.0).collect())
    }

    #[test]
    fn csr_edges_mirror_the_slices_including_overlay_fragments() {
        let g = build_graph(5, &[(0, 1), (0, 2), (1, 2), (3, 0)], BuildOptions::directed());
        let batch = DeltaBatch::new().add_edge(0, 4).del_edge(1, 2);
        let (live, _, _) = apply_batch(&g, &batch).expect("valid batch");
        for g in [&g, &live] {
            for v in 0..5u32 {
                let (out, inc) = edges_of(g, v);
                assert_eq!(out, g.out_neighbors(v));
                assert_eq!(inc, g.in_neighbors(v));
                assert_eq!(Neighbors::out_degree(g, v), out.len());
                assert_eq!(Neighbors::in_degree(g, v), inc.len());
            }
        }
        assert_eq!(live.out_edges(0).map(|e| e.0).collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn weighted_ranges_carry_their_weights() {
        let g = build_weighted_graph(
            4,
            &[(0, 1), (0, 2), (0, 3)],
            &[10, 20, 30],
            BuildOptions::directed(),
        );
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(g.out_edges_range(0, 1..3).collect::<Vec<_>>(), vec![(2, 20), (3, 30)]);
        assert_eq!(g.in_edges(2).collect::<Vec<_>>(), vec![(0, 20)]);
        assert_eq!(g.out_edges_range(0, 2..2).count(), 0);
    }

    #[test]
    fn degree_sum_and_explicit_width_partitioning() {
        let g = build_graph(3, &[(0, 1), (0, 2), (1, 2)], BuildOptions::directed());
        assert_eq!(g.out_degree_sum(&[0, 1, 2]), 3);
        assert_eq!(g.out_degree_sum(&[2]), 0);
        let p1 = g.partitioning();
        assert!(Arc::ptr_eq(&p1, &g.partitioning_with(None)));
        assert!(Arc::ptr_eq(&p1, &g.partitioning_with(Some(p1.bits()))));
        let wide = g.partitioning_with(Some(7));
        assert_eq!(wide.bits(), 7);
        assert_eq!(wide.total_in_edges(), 3, "counts come from the in-direction");
        assert!(!Arc::ptr_eq(&p1, &wide));
    }
}
