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
use crate::partition::{default_bits, Partitioning, MAX_BITS, MIN_BITS};
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

    /// Whether [`Self::out_edges_range`] (and [`Self::in_edges_range`])
    /// can enter a list at any position in O(1). Kernels split a hub's
    /// out-list across tasks only when this holds; otherwise they hand
    /// whole vertices to tasks and never ask for a proper sub-range.
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

    /// Positions `range` of `v`'s in-list, under the same rule as
    /// [`Self::out_edges_range`] — what a [`Transpose`] view seeks with.
    #[inline]
    fn in_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        assert!(!Self::SEEKABLE, "a seekable representation must override in_edges_range");
        debug_assert_eq!(range, 0..self.in_degree(v), "cannot seek into a streamed list");
        self.in_edges(v)
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

    /// Positions `range` of one list (`ws` is empty for `W = ()`).
    #[inline]
    fn slice(ns: &'a [VertexId], ws: &'a [W], range: Range<usize>) -> Self {
        let ws = if std::mem::size_of::<W>() == 0 { ws } else { &ws[range.clone()] };
        CsrEdges::new(&ns[range], ws)
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
        CsrEdges::slice(self.out_neighbors(v), self.out_weights(v), range)
    }

    #[inline]
    fn in_edges_range(&self, v: VertexId, range: Range<usize>) -> CsrEdges<'_, W> {
        CsrEdges::slice(self.in_neighbors(v), self.in_weights(v), range)
    }

    fn partitioning(&self) -> Arc<Partitioning> {
        Graph::partitioning(self)
    }
}

/// Any unweighted representation read as a weighted one whose every edge
/// weighs 1: the weight is produced per edge, so the view costs no
/// per-arc memory and the lists, degrees and seekability are the inner
/// graph's own.
#[derive(Debug, Clone, Copy)]
pub struct UnitWeighted<'g, G>(pub &'g G);

/// `(neighbor, ())` read as `(neighbor, 1)` — a `fn` pointer, so that
/// the mapped iterator type can be named.
type Unit = fn((VertexId, ())) -> (VertexId, i32);
const UNIT: Unit = |(v, ())| (v, 1);

impl<G: Neighbors<Weight = ()>> Neighbors for UnitWeighted<'_, G> {
    type Weight = i32;
    type Edges<'a>
        = std::iter::Map<G::Edges<'a>, Unit>
    where
        Self: 'a;

    const SEEKABLE: bool = G::SEEKABLE;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.0.out_degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        self.0.in_degree(v)
    }

    #[inline]
    fn out_edges(&self, v: VertexId) -> Self::Edges<'_> {
        self.0.out_edges(v).map(UNIT)
    }

    #[inline]
    fn in_edges(&self, v: VertexId) -> Self::Edges<'_> {
        self.0.in_edges(v).map(UNIT)
    }

    #[inline]
    fn out_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        self.0.out_edges_range(v, range).map(UNIT)
    }

    #[inline]
    fn in_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        self.0.in_edges_range(v, range).map(UNIT)
    }

    fn partitioning(&self) -> Arc<Partitioning> {
        self.0.partitioning()
    }
}

/// Any representation read with every edge reversed: out-lists are the
/// inner graph's in-lists and vice versa, nothing is copied, and a
/// seekable inner graph stays seekable (the view seeks into the in-list).
#[derive(Debug, Clone, Copy)]
pub struct Transpose<'g, G>(pub &'g G);

impl<G: Neighbors> Neighbors for Transpose<'_, G> {
    type Weight = G::Weight;
    type Edges<'a>
        = G::Edges<'a>
    where
        Self: 'a;

    const SEEKABLE: bool = G::SEEKABLE;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.0.in_degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        self.0.out_degree(v)
    }

    #[inline]
    fn out_edges(&self, v: VertexId) -> Self::Edges<'_> {
        self.0.in_edges(v)
    }

    #[inline]
    fn in_edges(&self, v: VertexId) -> Self::Edges<'_> {
        self.0.out_edges(v)
    }

    #[inline]
    fn out_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        self.0.in_edges_range(v, range)
    }

    #[inline]
    fn in_edges_range(&self, v: VertexId, range: Range<usize>) -> Self::Edges<'_> {
        self.0.out_edges_range(v, range)
    }

    /// A symmetric inner graph's own cached partitioning. A directed view
    /// pulls along the inner *out*-direction, which the inner cache does
    /// not cover, and a borrowed view has nowhere to keep one: it is
    /// rebuilt per call, O(n), which only a forced partitioned round on a
    /// directed graph's transpose pays.
    fn partitioning(&self) -> Arc<Partitioning> {
        if self.0.is_symmetric() {
            return self.0.partitioning();
        }
        let n = self.num_vertices();
        Arc::new(Partitioning::from_degrees(n, default_bits(n), |v| self.in_degree(v) as u64))
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
        assert_eq!((0..3).map(|v| Neighbors::out_degree(&g, v)).sum::<usize>(), 3);
        assert_eq!(Neighbors::out_degree(&g, 2), 0);
        let p1 = g.partitioning();
        assert!(Arc::ptr_eq(&p1, &g.partitioning_with(None)));
        assert!(Arc::ptr_eq(&p1, &g.partitioning_with(Some(p1.bits()))));
        let wide = g.partitioning_with(Some(7));
        assert_eq!(wide.bits(), 7);
        assert_eq!(wide.total_in_edges(), 3, "counts come from the in-direction");
        assert!(!Arc::ptr_eq(&p1, &wide));
    }

    #[test]
    fn transpose_swaps_directions_seeks_the_in_list_and_twice_is_identity() {
        let g = build_graph(5, &[(0, 1), (0, 2), (1, 2), (3, 2), (4, 2)], BuildOptions::directed());
        let t = Transpose(&g);
        let tt = Transpose(&t);
        const { assert!(<Transpose<'_, Graph> as Neighbors>::SEEKABLE) };
        assert_eq!((t.num_vertices(), t.num_edges(), t.is_symmetric()), (5, 5, false));
        for v in 0..5u32 {
            let (out, inc) = edges_of(&g, v);
            assert_eq!(edges_of(&t, v), (inc, out.clone()));
            assert_eq!((t.out_degree(v), t.in_degree(v)), (g.in_degree(v), out.len()));
            assert_eq!(edges_of(&tt, v), edges_of(&g, v));
        }
        // A proper sub-range of the view's out-list is a slice of the
        // inner *in*-list (2's in-list is [0, 1, 3, 4]).
        assert_eq!(t.out_edges_range(2, 1..3).map(|e| e.0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(t.in_edges_range(0, 1..2).map(|e| e.0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.out_degree(2) + t.out_degree(0), 4);
    }

    #[test]
    fn transpose_of_a_symmetric_graph_shares_its_partitioning() {
        let g = build_graph(3, &[(0, 1), (1, 2)], BuildOptions::symmetric());
        let t = Transpose(&g);
        assert!(t.is_symmetric());
        assert!(Arc::ptr_eq(&t.partitioning(), &g.partitioning()));
        assert_eq!(edges_of(&t, 1), edges_of(&g, 1));
    }

    #[test]
    fn unit_view_preserves_degrees_order_and_seekability() {
        let g = build_graph(5, &[(0, 3), (0, 1), (0, 2), (3, 0)], BuildOptions::directed());
        let batch = DeltaBatch::new().add_edge(0, 4);
        let (live, _, _) = apply_batch(&g, &batch).expect("valid batch");
        const { assert!(<UnitWeighted<'_, Graph> as Neighbors>::SEEKABLE) };
        for g in [&g, &live] {
            let w = UnitWeighted(g);
            assert_eq!((w.num_vertices(), w.num_edges()), (g.num_vertices(), g.num_edges()));
            for v in 0..5u32 {
                assert_eq!((w.out_degree(v), w.in_degree(v)), (g.out_degree(v), g.in_degree(v)));
                let ones = |ns: &[VertexId]| ns.iter().map(|&u| (u, 1)).collect::<Vec<_>>();
                assert_eq!(w.out_edges(v).collect::<Vec<_>>(), ones(g.out_neighbors(v)));
                assert_eq!(w.in_edges(v).collect::<Vec<_>>(), ones(g.in_neighbors(v)));
            }
            assert_eq!(w.out_edges(0).len(), g.out_degree(0));
            assert_eq!(w.out_edges_range(0, 1..3).collect::<Vec<_>>(), vec![(2, 1), (3, 1)]);
            assert_eq!(w.in_edges_range(0, 0..1).collect::<Vec<_>>(), vec![(3, 1)]);
        }
    }
}
