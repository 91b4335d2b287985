//! Compressed sparse row graph representations.

use ligra_parallel::checked_u32;
use ligra_parallel::utils::SendPtr;
use rayon::prelude::*;
use std::sync::Arc;

/// Dense vertex identifier. The paper's `intT`; `u32` supports graphs with
/// up to ~4.2 billion vertices, matching Ligra's default build.
pub type VertexId = u32;

/// A live-mutation delta overlay over one direction of a base CSR (built
/// by [`crate::delta`]). Touched vertices store their *fully merged*
/// neighbor list in a compact side CSR, so [`Adjacency::neighbors`] still
/// hands traversal kernels a contiguous slice; untouched vertices read
/// the base arrays unchanged. Vertices `>= base n` (added after the base
/// was built) are always touched, which keeps base-offset indexing in
/// bounds.
#[derive(Debug)]
pub(crate) struct Overlay<W> {
    /// Vertex count of the overlaid view (>= the base CSR's).
    pub(crate) n: usize,
    /// Arc count of the overlaid view.
    pub(crate) m: u64,
    /// Word-packed touched-vertex bitset over `0..n`.
    pub(crate) touched: Box<[u64]>,
    /// Sorted touched vertex ids — the side CSR's row keys.
    pub(crate) ids: Box<[VertexId]>,
    /// Side-CSR offsets, length `ids.len() + 1`.
    pub(crate) offs: Box<[u64]>,
    /// Concatenated merged neighbor lists of the touched vertices.
    pub(crate) targets: Box<[VertexId]>,
    /// Weights parallel to `targets` (empty when `W = ()`).
    pub(crate) weights: Box<[W]>,
}

impl<W> Overlay<W> {
    /// Whether `v` has a side-CSR row (one bitset probe).
    #[inline]
    pub(crate) fn is_touched(&self, v: usize) -> bool {
        (self.touched[v >> 6] >> (v & 63)) & 1 == 1
    }

    /// The side-CSR range of a touched vertex's merged list.
    #[inline]
    fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        let s = self.ids.binary_search(&v).expect("touched vertex has a side-CSR row");
        self.offs[s] as usize..self.offs[s + 1] as usize
    }
}

/// One direction of adjacency in CSR form, optionally weighted.
///
/// `offsets` has length `n + 1`; the neighbors of `v` are
/// `targets[offsets[v] .. offsets[v+1]]` and (for weighted graphs) the
/// corresponding weights occupy the same range of `weights`. For unweighted
/// graphs `W = ()` and the weight array is a zero-sized placeholder.
///
/// The arrays are reference-counted so clones are O(1) — a delta overlay
/// (see [`crate::delta`]) layers per-vertex edits over the *same* base
/// arrays without copying them. Per-vertex accessors (`degree`,
/// `neighbors`, `weights`) and the counts (`num_vertices`, `num_edges`)
/// see the overlaid view; the whole-array accessors (`offsets`,
/// `targets`, `weight_slice`, `offset`) expose the base CSR only and must
/// be guarded by [`Adjacency::has_overlay`] / [`Adjacency::materialized`].
#[derive(Debug, Clone)]
pub struct Adjacency<W = ()> {
    offsets: Arc<[u64]>,
    targets: Arc<[VertexId]>,
    weights: Arc<[W]>,
    overlay: Option<Arc<Overlay<W>>>,
}

impl<W: Copy + Send + Sync> Adjacency<W> {
    /// Builds from raw parts.
    ///
    /// # Panics
    /// Panics if the offsets are not monotone, don't start at 0, don't end
    /// at `targets.len()`, or (for non-`()` weights) if
    /// `weights.len() != targets.len()`.
    pub fn new(offsets: Vec<u64>, targets: Vec<VertexId>, weights: Vec<W>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("offsets nonempty: asserted above"),
            targets.len() as u64,
            "offsets must end at the edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone non-decreasing"
        );
        if std::mem::size_of::<W>() != 0 {
            assert_eq!(weights.len(), targets.len(), "one weight per edge");
        }
        Adjacency {
            offsets: offsets.into(),
            targets: targets.into(),
            weights: weights.into(),
            overlay: None,
        }
    }

    /// Number of vertices in this direction's view.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        match &self.overlay {
            Some(o) => o.n,
            None => self.offsets.len() - 1,
        }
    }

    /// Number of edges (arcs) stored in this direction's view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        match &self.overlay {
            Some(o) => o.m as usize,
            None => self.targets.len(),
        }
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        if let Some(o) = &self.overlay {
            if o.is_touched(v as usize) {
                let r = o.range(v);
                return r.end - r.start;
            }
        }
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Start of `v`'s adjacency range in the **base** arrays. Base-only:
    /// meaningless for overlaid vertices — callers walking raw arrays must
    /// check [`Self::has_overlay`] (or take a [`Self::materialized`] copy).
    #[inline]
    pub fn offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        if let Some(o) = &self.overlay {
            if o.is_touched(v as usize) {
                return &o.targets[o.range(v)];
            }
        }
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Edge weights of `v` (parallel to [`Self::neighbors`]).
    ///
    /// For unweighted graphs (`W = ()`) this is an empty slice.
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[W] {
        if std::mem::size_of::<W>() == 0 {
            return &[];
        }
        if let Some(o) = &self.overlay {
            if o.is_touched(v as usize) {
                return &o.weights[o.range(v)];
            }
        }
        let v = v as usize;
        &self.weights[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The whole **base** offset array (length `base n + 1`; ignores any
    /// overlay — guard with [`Self::has_overlay`]).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The whole **base** target array (length `base m`; ignores any
    /// overlay — guard with [`Self::has_overlay`]).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The whole **base** weight array (length `base m`, or 0 for
    /// unweighted; ignores any overlay — guard with [`Self::has_overlay`]).
    #[inline]
    pub fn weight_slice(&self) -> &[W] {
        &self.weights
    }

    /// Whether this direction carries a delta overlay.
    #[inline]
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Arcs stored in the overlay side CSR (0 without an overlay). This is
    /// the *merged-list* footprint — the memory the overlay costs on top
    /// of the shared base arrays.
    #[inline]
    pub fn overlay_arcs(&self) -> u64 {
        self.overlay.as_ref().map_or(0, |o| o.targets.len() as u64)
    }

    /// Touched vertices in the overlay (0 without an overlay).
    #[inline]
    pub fn overlay_vertices(&self) -> u64 {
        self.overlay.as_ref().map_or(0, |o| o.ids.len() as u64)
    }

    /// The overlay, if any (for [`crate::delta`]'s stacking merge).
    #[inline]
    pub(crate) fn overlay(&self) -> Option<&Overlay<W>> {
        self.overlay.as_deref()
    }

    /// The same base arrays (shared, O(1)) under a new overlay.
    pub(crate) fn overlaid(&self, overlay: Overlay<W>) -> Self {
        debug_assert!(overlay.n.div_ceil(64) <= overlay.touched.len());
        debug_assert_eq!(overlay.offs.len(), overlay.ids.len() + 1);
        Adjacency {
            offsets: Arc::clone(&self.offsets),
            targets: Arc::clone(&self.targets),
            weights: Arc::clone(&self.weights),
            overlay: Some(Arc::new(overlay)),
        }
    }

    /// Flattens the overlaid view into a clean CSR with fresh contiguous
    /// arrays (the compactor's kernel). Without an overlay this is a cheap
    /// clone of the shared base arrays.
    pub fn materialized(&self) -> Self {
        use ligra_parallel::scan::prefix_sums;

        if self.overlay.is_none() {
            return self.clone();
        }
        let n = self.num_vertices();
        let m = self.num_edges();
        let weighted = std::mem::size_of::<W>() != 0;

        let degrees: Vec<u64> =
            (0..n).into_par_iter().map(|v| self.degree(checked_u32(v)) as u64).collect();
        let (mut offsets, total) = prefix_sums(&degrees);
        offsets.push(total);
        debug_assert_eq!(total as usize, m, "overlay arc count must match summed degrees");

        // Copy each merged list into its disjoint output range.
        let mut targets: Vec<VertexId> = vec![0; m];
        {
            let mut pieces: Vec<(VertexId, &mut [VertexId])> = Vec::with_capacity(n);
            let mut rest: &mut [VertexId] = &mut targets;
            for v in 0..n {
                let len = (offsets[v + 1] - offsets[v]) as usize;
                let (head, tail) = rest.split_at_mut(len);
                pieces.push((checked_u32(v), head));
                rest = tail;
            }
            pieces.into_par_iter().for_each(|(v, out)| out.copy_from_slice(self.neighbors(v)));
        }

        let mut weights: Vec<W> = Vec::new();
        if weighted {
            weights.reserve_exact(m);
            let spare = weights.spare_capacity_mut();
            let ptr = SendPtr(spare.as_mut_ptr());
            (0..n).into_par_iter().for_each(|v| {
                let p = ptr;
                let base = offsets[v] as usize;
                // SAFETY: per-vertex output ranges come from an exclusive
                // scan of the degrees, so writes are disjoint and within
                // the reserved capacity; each slot is written exactly once.
                for (i, &w) in self.weights(checked_u32(v)).iter().enumerate() {
                    unsafe { (*p.0.add(base + i)).write(w) };
                }
            });
            // SAFETY: the scan covers all m slots, so every one is
            // initialized by the loop above.
            unsafe { weights.set_len(m) };
        }

        Adjacency::new(offsets, targets, weights)
    }

    /// The same view with weights dropped (`W = ()`), preserving any
    /// overlay structure so the stripped twin stays O(overlay)-cheap.
    pub fn stripped(&self) -> Adjacency<()> {
        Adjacency {
            offsets: Arc::clone(&self.offsets),
            targets: Arc::clone(&self.targets),
            weights: Arc::from(Vec::new()),
            overlay: self.overlay.as_ref().map(|o| {
                Arc::new(Overlay {
                    n: o.n,
                    m: o.m,
                    touched: o.touched.clone(),
                    ids: o.ids.clone(),
                    offs: o.offs.clone(),
                    targets: o.targets.clone(),
                    weights: Box::new([]),
                })
            }),
        }
    }
}

/// A graph in CSR form: out-edges plus, for directed graphs, the transpose.
///
/// * **Symmetric** graphs store a single CSR used for both directions
///   (every edge appears in both endpoints' lists).
/// * **Directed** graphs store the out-CSR and the in-CSR; the latter is
///   required by the dense (pull) traversal of `edgeMap` and by algorithms
///   that walk edges backwards (betweenness centrality).
///
/// The CSRs are reference-counted, so [`Graph::clone`] is O(1); the
/// reversed graph is the [`crate::neighbors::Transpose`] view, which
/// copies nothing either.
#[derive(Debug, Clone)]
pub struct Graph<W = ()> {
    out: std::sync::Arc<Adjacency<W>>,
    incoming: Option<std::sync::Arc<Adjacency<W>>>,
    /// Lazily built default-width vertex partitioning for the partitioned
    /// traversal, shared by all clones made after it materializes.
    partitions: std::sync::OnceLock<std::sync::Arc<crate::partition::Partitioning>>,
}

/// A graph whose edges carry `i32` weights (the paper's `intE`).
pub type WeightedGraph = Graph<i32>;

impl<W: Copy + Send + Sync> Graph<W> {
    /// Creates a symmetric graph from one CSR (used for both directions).
    pub fn symmetric(adj: Adjacency<W>) -> Self {
        Graph {
            out: std::sync::Arc::new(adj),
            incoming: None,
            partitions: std::sync::OnceLock::new(),
        }
    }

    /// Creates a directed graph from its out-CSR and in-CSR.
    ///
    /// # Panics
    /// Panics if the two directions disagree on vertex or edge counts.
    pub fn directed(out: Adjacency<W>, incoming: Adjacency<W>) -> Self {
        assert_eq!(out.num_vertices(), incoming.num_vertices());
        assert_eq!(out.num_edges(), incoming.num_edges());
        Graph {
            out: std::sync::Arc::new(out),
            incoming: Some(std::sync::Arc::new(incoming)),
            partitions: std::sync::OnceLock::new(),
        }
    }

    /// Creates a directed graph from its out-CSR alone, computing the
    /// in-CSR (transpose) in parallel.
    pub fn directed_from_out(out: Adjacency<W>) -> Self
    where
        W: Ord,
    {
        let incoming = transpose(&out);
        Graph::directed(out, incoming)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges `m` (for symmetric graphs, each undirected
    /// edge counts twice, as in the paper's tables).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// True if this graph stores a single CSR for both directions.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.incoming.is_none()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v` (equals out-degree for symmetric graphs).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_adj().degree(v)
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v` (equals out-neighbors for symmetric graphs).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_adj().neighbors(v)
    }

    /// Weights parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[W] {
        self.out.weights(v)
    }

    /// Weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[W] {
        self.in_adj().weights(v)
    }

    /// The out-direction CSR.
    #[inline]
    pub fn out_adj(&self) -> &Adjacency<W> {
        self.out.as_ref()
    }

    /// The in-direction CSR (the out CSR for symmetric graphs).
    #[inline]
    pub fn in_adj(&self) -> &Adjacency<W> {
        self.incoming.as_deref().unwrap_or_else(|| self.out.as_ref())
    }

    /// The default-width vertex partitioning over this graph's
    /// in-direction, built on first use and cached (clones made after
    /// that share it). The width is [`crate::partition::default_bits`].
    pub fn partitioning(&self) -> std::sync::Arc<crate::partition::Partitioning> {
        self.partitions
            .get_or_init(|| {
                let bits = crate::partition::default_bits(self.num_vertices());
                std::sync::Arc::new(crate::partition::Partitioning::of(self.in_adj(), bits))
            })
            .clone()
    }

    /// Maximum out-degree and one vertex attaining it; `(0, 0)` on an
    /// edgeless graph.
    pub fn max_out_degree(&self) -> (VertexId, usize) {
        let n = self.num_vertices();
        if n == 0 {
            return (0, 0);
        }
        (0..n)
            .into_par_iter()
            .map(|v| {
                let v = checked_u32(v);
                (v, self.out_degree(v))
            })
            .reduce(|| (0, 0), |a, b| if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) { b } else { a })
    }

    /// Whether either direction carries a delta overlay (a live-mutation
    /// view that has not been compacted yet).
    #[inline]
    pub fn has_overlay(&self) -> bool {
        self.out.has_overlay() || self.incoming.as_ref().is_some_and(|i| i.has_overlay())
    }

    /// Arcs held in overlay side CSRs across both directions — the memory
    /// the live view costs on top of the shared base arrays.
    #[inline]
    pub fn overlay_arcs(&self) -> u64 {
        self.out.overlay_arcs() + self.incoming.as_ref().map_or(0, |i| i.overlay_arcs())
    }

    /// Touched vertices in the out-direction overlay.
    #[inline]
    pub fn overlay_vertices(&self) -> u64 {
        self.out.overlay_vertices()
    }

    /// Flattens any overlay into clean CSRs (fresh contiguous arrays, no
    /// overlay, empty partition cache). Results are identical vertex by
    /// vertex; only the layout changes. Without an overlay this is an
    /// O(1) clone.
    pub fn compacted(&self) -> Self {
        if !self.has_overlay() {
            return self.clone();
        }
        let out = self.out.materialized();
        match &self.incoming {
            None => Graph::symmetric(out),
            Some(inc) => Graph::directed(out, inc.materialized()),
        }
    }
}

/// Computes the transpose of a CSR direction: the in-CSR whose list for
/// `v` holds every `u` with an arc `u -> v`, sorted by `(u, weight)`.
///
/// An overlaid direction is materialized first — the count/scatter below
/// walks the raw base arrays.
pub fn transpose<W: Copy + Send + Sync + Ord>(adj: &Adjacency<W>) -> Adjacency<W> {
    if adj.has_overlay() {
        return transpose(&adj.materialized());
    }
    let n = adj.num_vertices();
    crate::builder::counting_csr(n, n, adj.weight_slice(), |u| {
        let base = adj.offsets[u] as usize;
        let u = checked_u32(u);
        adj.neighbors(u).iter().enumerate().map(move |(i, &v)| (v, u, base + i))
    })
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1, 0 -> 2, 1 -> 2 (directed triangle minus one edge).
    fn small_directed() -> Graph {
        let out = Adjacency::new(vec![0, 2, 3, 3], vec![1, 2, 2], vec![(); 3]);
        let inc = Adjacency::new(vec![0, 0, 1, 3], vec![0, 0, 1], vec![(); 3]);
        Graph::directed(out, inc)
    }

    #[test]
    fn adjacency_accessors() {
        let g = small_directed();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_symmetric());
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(2), &[] as &[u32]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(2), 2);
    }

    #[test]
    fn symmetric_graph_shares_directions() {
        // Path 0 - 1 - 2, symmetric.
        let adj = Adjacency::new(vec![0, 1, 3, 4], vec![1, 0, 2, 1], vec![(); 4]);
        let g = Graph::symmetric(adj);
        assert!(g.is_symmetric());
        assert_eq!(g.out_neighbors(1), g.in_neighbors(1));
        assert_eq!(g.in_degree(0), g.out_degree(0));
    }

    #[test]
    fn weighted_adjacency() {
        let adj = Adjacency::new(vec![0, 2, 2], vec![0, 1], vec![5i32, -3]);
        assert_eq!(adj.weights(0), &[5, -3]);
        assert_eq!(adj.weights(1), &[] as &[i32]);
    }

    #[test]
    fn unweighted_weights_are_empty() {
        let g = small_directed();
        assert!(g.out_weights(0).is_empty());
    }

    #[test]
    fn max_degree() {
        let g = small_directed();
        let (v, d) = g.max_out_degree();
        assert_eq!((v, d), (0, 2));
    }

    #[test]
    #[should_panic(expected = "offsets must end at the edge count")]
    fn bad_offsets_panic() {
        let _ = Adjacency::new(vec![0, 5], vec![1, 2], vec![(); 2]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_offsets_panic() {
        let _ = Adjacency::new(vec![0, 2, 1, 2], vec![1, 0], vec![(); 2]);
    }

    #[test]
    fn transpose_of_small_graph() {
        let out = Adjacency::new(vec![0, 2, 3, 3], vec![1, 2, 2], vec![(); 3]);
        let t = transpose(&out);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        // Pseudo-random directed CSR via the builder-free path.
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (0..2000u32)
            .map(|i| (ligra_parallel::hash32(i) % n, ligra_parallel::hash32(i ^ 0xdead_beef) % n))
            .collect();
        let g = crate::builder::build_graph(
            n as usize,
            &edges,
            crate::builder::BuildOptions::directed(),
        );
        let t = transpose(g.out_adj());
        let tt = transpose(&t);
        assert_eq!(tt.offsets(), g.out_adj().offsets());
        assert_eq!(tt.targets(), g.out_adj().targets());
    }

    #[test]
    fn transpose_carries_weights() {
        // 0 -(5)-> 1, 2 -(9)-> 1
        let out = Adjacency::new(vec![0, 1, 1, 2], vec![1, 1], vec![5i32, 9]);
        let t = transpose(&out);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.weights(1), &[5, 9]);
    }

    #[test]
    fn directed_from_out_matches_manual_transpose() {
        let out = Adjacency::new(vec![0, 2, 3, 3], vec![1, 2, 2], vec![(); 3]);
        let g = Graph::directed_from_out(out);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn partitioning_is_cached_per_direction() {
        use crate::neighbors::{Neighbors, Transpose};
        let g = small_directed();
        let p1 = g.partitioning();
        assert!(std::sync::Arc::ptr_eq(&p1, &g.partitioning()));
        assert_eq!(p1.num_vertices(), 3);
        assert_eq!(p1.total_in_edges(), 3, "counts come from the in-CSR");
        // The reversed view partitions over the opposite direction.
        assert_eq!(Transpose(&g).partitioning().total_in_edges(), 3);
    }
}
