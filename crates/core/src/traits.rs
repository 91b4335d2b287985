//! The user-function interface of `edgeMap`.
//!
//! Ligra's `EDGEMAP(G, U, F, C)` takes two user callbacks:
//!
//! * `F(u, v) -> bool` — process edge `(u, v)`; return `true` to put `v`
//!   in the output subset. The framework calls one of two variants:
//!   [`EdgeMapFn::update`] when it can guarantee `v` is touched by a
//!   single thread (the dense/pull traversal, where one thread owns each
//!   target), and [`EdgeMapFn::update_atomic`] when multiple sources may
//!   race on `v` (the sparse/push and dense-forward traversals).
//! * `C(v) -> bool` — "is `v` still worth updating?" The dense traversal
//!   breaks out of a target's in-edge scan as soon as `C(v)` turns false
//!   (e.g. BFS stops reading in-edges once a parent is found), which is
//!   where the pull direction's big constant-factor win comes from.
//!
//! A third, optional callback states the pull direction as what it is for
//! an accumulating `F` — a row reduce, ⊕ over a target's frontier in-edges
//! of ⊗(state[src], w), one write per target:
//!
//! * [`EdgeMapFn::gather`]`(v, in-edges of v from U) -> Option<bool>` —
//!   fold the whole list into a local, write `v`'s state **once**, return
//!   membership. An `F` that has no early exit to lose (PageRank's `+`,
//!   CC's `min`, BC's path and dependency sums, radii's `|`) defines it
//!   and the dense traversal calls it once per target instead of `update`
//!   once per edge; an `F` whose whole win *is* the early exit (BFS,
//!   Bellman-Ford, k-core, MIS) leaves the default, which returns `None`
//!   and keeps the per-edge `update`/`cond` loop. The push traversals
//!   never call it.

use ligra_graph::VertexId;

/// User function for [`crate::edge_map`] over graphs with edge data `W`
/// (`()` for unweighted graphs).
pub trait EdgeMapFn<W = ()>: Sync {
    /// Processes edge `(src, dst)`; single-threaded access to `dst`.
    ///
    /// Returns `true` to add `dst` to the output subset.
    fn update(&self, src: VertexId, dst: VertexId, w: W) -> bool;

    /// Processes edge `(src, dst)` when `dst` may be updated concurrently;
    /// must synchronize through atomics.
    ///
    /// Returns `true` to add `dst` to the output subset; for correctness
    /// under races it must return `true` for **at most one** concurrent
    /// update of the same `dst` per "win" (the CAS/priority-update idiom).
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: W) -> bool;

    /// Whether `dst` should still be updated. Targets failing `cond` are
    /// skipped entirely, and the dense traversal stops scanning a target's
    /// in-edges once this turns false.
    fn cond(&self, dst: VertexId) -> bool {
        let _ = dst;
        true
    }

    /// The dense traversal's whole-target form of [`Self::update`]: reduce
    /// `dst`'s in-edges from the frontier into `dst`'s state.
    ///
    /// `in_edges` yields, in in-list order, exactly the `(src, w)` with
    /// `src` in the frontier; `cond(dst)` held when it was built and one
    /// thread owns `dst`, so plain loads and one plain store suffice. An
    /// implementation folds the list into a local **starting from `dst`'s
    /// current state** (so the result equals applying `update` per edge in
    /// the same order), writes the state once, and returns
    /// `Some(membership)` — what the OR of those `update` calls would have
    /// been. The kernel never outputs a target whose list turned out
    /// empty, whatever is returned.
    ///
    /// The default returns `None` without touching `in_edges`: this
    /// function does not reduce, and the traversal scans `dst` with
    /// `update`/`cond` per edge, early exit included. That scan walks the
    /// same list, so an implementation that consumed an edge and then
    /// returned `None` has hidden it from `update`: a contract violation.
    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, W)>,
    {
        let _ = (dst, in_edges);
        None
    }
}

/// Adapter: a single atomic-safe closure used for both `update` variants,
/// plus an optional `cond`.
///
/// Most applications write their update once with atomics (it is then
/// trivially safe in the single-writer dense case too); this mirrors how
/// the Ligra paper presents BFS before introducing the optimized
/// non-atomic dense variants.
pub struct ClosureEdgeMap<FU, FC> {
    update: FU,
    cond: FC,
}

impl<FU, FC> ClosureEdgeMap<FU, FC> {
    /// Creates the adapter from an atomic-safe update and a cond.
    pub fn new(update: FU, cond: FC) -> Self {
        ClosureEdgeMap { update, cond }
    }
}

impl<W, FU, FC> EdgeMapFn<W> for ClosureEdgeMap<FU, FC>
where
    W: Copy,
    FU: Fn(VertexId, VertexId, W) -> bool + Sync,
    FC: Fn(VertexId) -> bool + Sync,
{
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: W) -> bool {
        (self.update)(src, dst, w)
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: W) -> bool {
        (self.update)(src, dst, w)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        (self.cond)(dst)
    }
}

/// Builds an [`EdgeMapFn`] from one atomic-safe closure and a cond closure.
pub fn edge_fn<W, FU, FC>(update: FU, cond: FC) -> ClosureEdgeMap<FU, FC>
where
    W: Copy,
    FU: Fn(VertexId, VertexId, W) -> bool + Sync,
    FC: Fn(VertexId) -> bool + Sync,
{
    ClosureEdgeMap::new(update, cond)
}

/// The always-true cond (`C_true` in the paper).
#[inline]
pub fn cond_true(_: VertexId) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_adapter_dispatches_both_variants() {
        let f = ClosureEdgeMap::new(|s: u32, d: u32, _w: ()| s < d, |d: u32| d != 3);
        assert!(EdgeMapFn::update(&f, 1, 2, ()));
        assert!(!EdgeMapFn::update_atomic(&f, 2, 1, ()));
        assert!(f.cond(2));
        assert!(!f.cond(3));
    }

    #[test]
    fn default_cond_is_true() {
        struct Always;
        impl EdgeMapFn for Always {
            fn update(&self, _: u32, _: u32, _: ()) -> bool {
                true
            }
            fn update_atomic(&self, _: u32, _: u32, _: ()) -> bool {
                true
            }
        }
        assert!(Always.cond(123));
    }

    #[test]
    fn default_gather_declines_without_reading_the_list() {
        let f = edge_fn(|_, _, _: ()| true, cond_true);
        let mut list = [(0u32, ()), (2, ())].into_iter();
        assert_eq!(f.gather(1, &mut list), None, "closures keep the per-edge loop");
        assert_eq!(list.len(), 2);
    }
}
