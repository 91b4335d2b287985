//! Batched live-graph deltas: edge/vertex inserts and deletes applied to an
//! immutable [`Graph`] snapshot, producing a new snapshot that layers a
//! delta overlay over the *same* base CSR arrays (see
//! [`crate::csr::Adjacency`]).
//!
//! Semantics are **set semantics with tombstones**:
//! * adding an edge that already exists is a no-op;
//! * deleting an edge removes *all* parallel copies (a tombstone for the
//!   endpoint pair), and deleting a missing edge is a no-op;
//! * deleting a vertex tombstones every edge incident to it *at apply
//!   time* (the vertex id itself stays in the id space with degree 0, so
//!   ids remain dense and stable across epochs);
//! * within one batch, deletions apply before insertions — a pair in both
//!   lists ends up present.
//!
//! On symmetric graphs an edge `{u, v}` is one undirected edge: both arcs
//! are inserted/removed together. On directed graphs a pair `(u, v)` is
//! the single arc `u -> v`.
//!
//! [`apply_batch`] also returns the batch reduced to a [`NormalizedBatch`]
//! of pure arc-level set operations. Re-applying the normalized form to
//! the same starting snapshot reproduces the same view — that determinism
//! is what lets a background compactor rebuild a clean CSR from the base
//! and then roll forward the batches that landed while it ran.

use crate::csr::{Adjacency, Graph, Overlay, VertexId};
use ligra_parallel::checked_u32;

/// A batch of graph mutations, applied atomically as one epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Number of fresh (edgeless) vertex ids to append to the id space.
    pub add_vertices: usize,
    /// Vertices whose incident edges are all tombstoned.
    pub del_vertices: Vec<VertexId>,
    /// Edges to insert (set semantics).
    pub add_edges: Vec<(VertexId, VertexId)>,
    /// Edge tombstones (remove all parallel copies; missing is a no-op).
    pub del_edges: Vec<(VertexId, VertexId)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// True when the batch performs no mutation at all.
    pub fn is_empty(&self) -> bool {
        self.add_vertices == 0
            && self.del_vertices.is_empty()
            && self.add_edges.is_empty()
            && self.del_edges.is_empty()
    }

    /// Appends `count` fresh vertices.
    pub fn grow(mut self, count: usize) -> Self {
        self.add_vertices += count;
        self
    }

    /// Inserts edge `(u, v)`.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.add_edges.push((u, v));
        self
    }

    /// Tombstones edge `(u, v)`.
    pub fn del_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.del_edges.push((u, v));
        self
    }

    /// Tombstones every edge incident to `v`.
    pub fn del_vertex(mut self, v: VertexId) -> Self {
        self.del_vertices.push(v);
        self
    }
}

/// Why a batch was rejected (the snapshot is untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint or deleted vertex lies outside the post-growth id
    /// space `0..n_after`.
    VertexOutOfRange {
        /// The offending id.
        v: VertexId,
        /// The id space size the batch would produce.
        n: usize,
    },
    /// `add_vertices` would grow the id space past the 2^32 ids a `u32`
    /// vertex id can name.
    IdSpaceOverflow {
        /// The id space size before the batch.
        n: usize,
        /// The requested growth.
        add_vertices: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::VertexOutOfRange { v, n } => {
                write!(f, "vertex {v} out of range for id space of size {n}")
            }
            DeltaError::IdSpaceOverflow { n, add_vertices } => {
                write!(
                    f,
                    "add_vertices {add_vertices} would grow the id space of size {n} past 2^32"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch reduced to pure arc-level set operations against a known vertex
/// universe. Vertex deletions are expanded to their incident edges at the
/// original apply time, so re-applying a normalized batch is deterministic
/// regardless of what the graph looks like when the compactor replays it.
#[derive(Debug, Clone)]
pub struct NormalizedBatch {
    /// Id-space size after this batch.
    pub n_after: usize,
    /// Logical edge pairs to insert, sorted + deduplicated. On symmetric
    /// graphs each pair stands for both arcs.
    adds: Vec<(VertexId, VertexId)>,
    /// Logical edge pairs to tombstone first, sorted + deduplicated.
    dels: Vec<(VertexId, VertexId)>,
}

/// What a batch actually changed, in arcs (symmetric mirrors count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Arcs inserted (requested inserts already present don't count).
    pub arcs_added: u64,
    /// Arc copies removed by tombstones.
    pub arcs_deleted: u64,
    /// Fresh vertex ids appended.
    pub vertices_added: u64,
    /// Vertices whose incident edges were tombstoned.
    pub vertices_deleted: u64,
}

/// Applies `batch` to `g`, returning the new overlaid snapshot, the
/// batch's normalized (replayable) form, and what actually changed.
/// `g` itself is untouched — callers publish the returned graph as the
/// next epoch.
pub fn apply_batch(
    g: &Graph,
    batch: &DeltaBatch,
) -> Result<(Graph, NormalizedBatch, ApplyStats), DeltaError> {
    let n0 = g.num_vertices();
    let n_after = n0
        .checked_add(batch.add_vertices)
        .filter(|&n| n as u64 <= 1 << 32)
        .ok_or(DeltaError::IdSpaceOverflow { n: n0, add_vertices: batch.add_vertices })?;
    let check = |v: VertexId| -> Result<(), DeltaError> {
        if (v as usize) < n_after {
            Ok(())
        } else {
            Err(DeltaError::VertexOutOfRange { v, n: n_after })
        }
    };
    for &v in &batch.del_vertices {
        check(v)?;
    }
    for &(u, v) in batch.add_edges.iter().chain(&batch.del_edges) {
        check(u)?;
        check(v)?;
    }

    // Expand vertex deletions into edge tombstones against the current
    // view. Out-neighbors cover everything on symmetric graphs; directed
    // graphs also tombstone the in-arcs.
    let mut dels = batch.del_edges.clone();
    let mut deleted_vertices: Vec<VertexId> = batch.del_vertices.clone();
    deleted_vertices.sort_unstable();
    deleted_vertices.dedup();
    for &v in &deleted_vertices {
        if (v as usize) >= n0 {
            continue; // brand-new id: nothing incident yet
        }
        for &w in g.out_neighbors(v) {
            dels.push((v, w));
        }
        if !g.is_symmetric() {
            for &u in g.in_neighbors(v) {
                dels.push((u, v));
            }
        }
    }
    dels.sort_unstable();
    dels.dedup();

    let mut adds = batch.add_edges.clone();
    if g.is_symmetric() {
        // Canonicalize undirected pairs so {u,v} and {v,u} dedup together.
        for e in adds.iter_mut().chain(dels.iter_mut()) {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        dels.sort_unstable();
        dels.dedup();
    }
    adds.sort_unstable();
    adds.dedup();

    let nb = NormalizedBatch { n_after, adds, dels };
    let (graph, mut stats) = apply_normalized(g, &nb);
    stats.vertices_deleted = deleted_vertices.iter().filter(|&&v| (v as usize) < n0).count() as u64;
    Ok((graph, nb, stats))
}

/// Replays a normalized batch against `g` (the compactor's roll-forward
/// path). `nb.n_after` must be `>= g.num_vertices()`.
pub fn apply_normalized(g: &Graph, nb: &NormalizedBatch) -> (Graph, ApplyStats) {
    let n0 = g.num_vertices();
    debug_assert!(nb.n_after >= n0, "normalized batches never shrink the id space");
    let sym = g.is_symmetric();

    // Expand logical pairs into per-direction arc lists.
    let expand_out = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
        let mut arcs = Vec::with_capacity(pairs.len() * if sym { 2 } else { 1 });
        for &(u, v) in pairs {
            arcs.push((u, v));
            if sym && u != v {
                arcs.push((v, u));
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        arcs
    };
    let out_adds = expand_out(&nb.adds);
    let out_dels = expand_out(&nb.dels);

    let (out_adj, added, deleted) =
        overlay_direction(g.out_adj(), nb.n_after, &out_adds, &out_dels);
    let stats = ApplyStats {
        arcs_added: added,
        arcs_deleted: deleted,
        vertices_added: (nb.n_after - n0) as u64,
        vertices_deleted: 0,
    };
    if sym {
        return (Graph::symmetric(out_adj), stats);
    }

    // In-direction: the same arcs keyed by destination.
    let flip = |arcs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
        let mut f: Vec<(VertexId, VertexId)> = arcs.iter().map(|&(u, v)| (v, u)).collect();
        f.sort_unstable();
        f
    };
    let in_adds = flip(&out_adds);
    let in_dels = flip(&out_dels);
    let (in_adj, in_added, in_deleted) =
        overlay_direction(g.in_adj(), nb.n_after, &in_adds, &in_dels);
    debug_assert_eq!(added, in_added, "out/in directions must agree on inserted arcs");
    debug_assert_eq!(deleted, in_deleted, "out/in directions must agree on removed arcs");
    (Graph::directed(out_adj, in_adj), stats)
}

/// Builds the overlaid view of one direction. `add_arcs` / `del_arcs` are
/// sorted, deduplicated `(key, neighbor)` pairs keyed by this direction's
/// row vertex. Returns the new adjacency plus the arcs actually inserted
/// and removed.
fn overlay_direction(
    adj: &Adjacency,
    n_after: usize,
    add_arcs: &[(VertexId, VertexId)],
    del_arcs: &[(VertexId, VertexId)],
) -> (Adjacency, u64, u64) {
    let old_n = adj.num_vertices();

    // Touched = previously-touched ∪ batch-touched ∪ freshly-added ids.
    // Previously-touched rows must stay in the side CSR (their base rows
    // are stale), so their merged lists are carried over verbatim.
    let mut touched: Vec<VertexId> = Vec::new();
    if let Some(o) = adj.overlay() {
        touched.extend_from_slice(&o.ids);
    }
    touched.extend(add_arcs.iter().map(|a| a.0));
    touched.extend(del_arcs.iter().map(|a| a.0));
    touched.extend((old_n..n_after).map(checked_u32));
    touched.sort_unstable();
    touched.dedup();

    let mut offs: Vec<u64> = Vec::with_capacity(touched.len() + 1);
    offs.push(0);
    let mut targets: Vec<VertexId> = Vec::new();
    let mut added = 0u64;
    let mut deleted = 0u64;

    // Per-key range over a sorted arc list.
    let range_of = |arcs: &[(VertexId, VertexId)], v: VertexId| -> std::ops::Range<usize> {
        let lo = arcs.partition_point(|&(k, _)| k < v);
        let hi = arcs.partition_point(|&(k, _)| k <= v);
        lo..hi
    };

    for &v in &touched {
        let cur: &[VertexId] = if (v as usize) < old_n { adj.neighbors(v) } else { &[] };
        let a = range_of(add_arcs, v);
        let d = range_of(del_arcs, v);
        if a.is_empty() && d.is_empty() {
            // Carried-over row: keep the old merged list as-is.
            targets.extend_from_slice(cur);
        } else {
            let mut list: Vec<VertexId> = cur.to_vec();
            // Loaded base lists aren't guaranteed sorted; merged lists are.
            list.sort_unstable();
            let dvals: Vec<VertexId> = del_arcs[d].iter().map(|&(_, x)| x).collect();
            if !dvals.is_empty() {
                list.retain(|x| {
                    if dvals.binary_search(x).is_ok() {
                        deleted += 1;
                        false
                    } else {
                        true
                    }
                });
            }
            let avals = &add_arcs[a];
            if avals.is_empty() {
                targets.extend_from_slice(&list);
            } else {
                // Merge the sorted insert set into the sorted list,
                // skipping values already present (set semantics).
                let mut i = 0;
                for &(_, x) in avals {
                    while i < list.len() && list[i] < x {
                        targets.push(list[i]);
                        i += 1;
                    }
                    if i < list.len() && list[i] == x {
                        continue; // already present: no-op
                    }
                    targets.push(x);
                    added += 1;
                }
                targets.extend_from_slice(&list[i..]);
            }
        }
        offs.push(targets.len() as u64);
    }

    let m = adj.num_edges() as u64 + added - deleted;
    let words = n_after.div_ceil(64).max(1);
    let mut bits = vec![0u64; words];
    for &v in &touched {
        bits[(v as usize) >> 6] |= 1u64 << (v & 63);
    }
    let overlay = Overlay {
        n: n_after,
        m,
        touched: bits.into_boxed_slice(),
        ids: touched.into_boxed_slice(),
        offs: offs.into_boxed_slice(),
        targets: targets.into_boxed_slice(),
        weights: Box::new([]),
    };
    (adj.overlaid(overlay), added, deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, BuildOptions};

    fn path3() -> Graph {
        // 0 - 1 - 2, symmetric.
        build_graph(3, &[(0, 1), (1, 2)], BuildOptions::symmetric())
    }

    #[test]
    fn add_edge_appears_in_both_endpoint_lists() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().add_edge(0, 2)).expect("valid batch");
        assert_eq!(stats.arcs_added, 2);
        assert_eq!(g2.out_neighbors(0), &[1, 2]);
        assert_eq!(g2.out_neighbors(2), &[0, 1]);
        assert_eq!(g2.num_edges(), g.num_edges() + 2);
        // The original snapshot is untouched.
        assert_eq!(g.out_neighbors(0), &[1]);
        assert!(g2.has_overlay() && !g.has_overlay());
    }

    #[test]
    fn growth_past_u32_ids_is_rejected_before_allocating() {
        let g = build_graph(1, &[], BuildOptions::symmetric());
        for add_vertices in [1 << 32, usize::MAX] {
            let err = apply_batch(&g, &DeltaBatch::new().grow(add_vertices)).expect_err("too big");
            assert_eq!(err, DeltaError::IdSpaceOverflow { n: 1, add_vertices });
            assert!(err.to_string().contains("add_vertices"), "{err}");
        }
    }

    #[test]
    fn add_existing_edge_is_a_noop() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().add_edge(1, 0)).expect("valid batch");
        assert_eq!(stats.arcs_added, 0);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.out_neighbors(0), &[1]);
    }

    #[test]
    fn delete_removes_all_parallel_copies() {
        // Hand-built CSR with the 0-1 edge duplicated in both lists (the
        // builder dedups, so parallel copies only arrive via raw input).
        let adj = crate::csr::Adjacency::new(vec![0, 2, 4], vec![1, 1, 0, 0], vec![(); 4]);
        let g = Graph::symmetric(adj);
        assert_eq!(g.out_degree(0), 2);
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().del_edge(1, 0)).expect("valid batch");
        assert_eq!(stats.arcs_deleted, 4);
        assert_eq!(g2.out_degree(0), 0);
        assert_eq!(g2.out_degree(1), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn delete_missing_edge_is_a_noop() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().del_edge(0, 2)).expect("valid batch");
        assert_eq!(stats.arcs_deleted, 0);
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn delete_then_add_same_pair_ends_present() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().del_edge(0, 1).add_edge(0, 1)).expect("valid batch");
        assert_eq!(stats.arcs_deleted, 2);
        assert_eq!(stats.arcs_added, 2);
        assert_eq!(g2.out_neighbors(0), &[1]);
    }

    #[test]
    fn vertex_growth_and_edge_to_new_vertex() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().grow(2).add_edge(4, 0)).expect("valid batch");
        assert_eq!(stats.vertices_added, 2);
        assert_eq!(g2.num_vertices(), 5);
        assert_eq!(g2.out_neighbors(4), &[0]);
        assert_eq!(g2.out_neighbors(3), &[] as &[u32]);
        assert_eq!(g2.out_neighbors(0), &[1, 4]);
        assert_eq!(g2.out_degree(3), 0);
    }

    #[test]
    fn vertex_delete_tombstones_incident_edges() {
        let g = path3();
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().del_vertex(1)).expect("valid batch");
        assert_eq!(stats.vertices_deleted, 1);
        assert_eq!(g2.num_vertices(), 3, "ids stay dense");
        assert_eq!(g2.out_degree(1), 0);
        assert_eq!(g2.out_neighbors(0), &[] as &[u32]);
        assert_eq!(g2.out_neighbors(2), &[] as &[u32]);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn directed_batch_updates_both_csrs() {
        let g = build_graph(4, &[(0, 1), (1, 2)], BuildOptions::directed());
        let (g2, _, stats) =
            apply_batch(&g, &DeltaBatch::new().add_edge(2, 0).del_edge(0, 1)).expect("valid batch");
        assert_eq!(stats.arcs_added, 1);
        assert_eq!(stats.arcs_deleted, 1);
        assert_eq!(g2.out_neighbors(2), &[0]);
        assert_eq!(g2.in_neighbors(0), &[2]);
        assert_eq!(g2.out_neighbors(0), &[] as &[u32]);
        assert_eq!(g2.in_neighbors(1), &[] as &[u32]);
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn out_of_range_endpoint_is_rejected() {
        let g = path3();
        let err = apply_batch(&g, &DeltaBatch::new().add_edge(0, 7)).expect_err("out of range");
        assert_eq!(err, DeltaError::VertexOutOfRange { v: 7, n: 3 });
        // Growth extends the admissible range.
        assert!(apply_batch(&g, &DeltaBatch::new().grow(5).add_edge(0, 7)).is_ok());
    }

    #[test]
    fn stacked_batches_carry_earlier_edits() {
        let g = path3();
        let (g1, _, _) = apply_batch(&g, &DeltaBatch::new().add_edge(0, 2)).expect("batch 1");
        let (g2, _, _) = apply_batch(&g1, &DeltaBatch::new().del_edge(0, 1)).expect("batch 2");
        assert_eq!(g2.out_neighbors(0), &[2], "first batch's edge survives the second");
        assert_eq!(g2.out_neighbors(1), &[2]);
        assert_eq!(g2.num_edges(), 4);
    }

    #[test]
    fn compaction_matches_overlay_view() {
        let g = build_graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4)], BuildOptions::symmetric());
        let (g1, _, _) = apply_batch(
            &g,
            &DeltaBatch::new().grow(1).add_edge(6, 0).add_edge(4, 5).del_edge(1, 2),
        )
        .expect("batch");
        let clean = g1.compacted();
        assert!(!clean.has_overlay());
        assert_eq!(clean.num_vertices(), g1.num_vertices());
        assert_eq!(clean.num_edges(), g1.num_edges());
        for v in 0..g1.num_vertices() as u32 {
            assert_eq!(clean.out_neighbors(v), g1.out_neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn normalized_replay_reproduces_the_view() {
        let g = path3();
        let batch = DeltaBatch::new().grow(1).add_edge(3, 1).del_vertex(0);
        let (g1, nb, _) = apply_batch(&g, &batch).expect("batch");
        let (replayed, _) = apply_normalized(&g, &nb);
        assert_eq!(replayed.num_vertices(), g1.num_vertices());
        assert_eq!(replayed.num_edges(), g1.num_edges());
        for v in 0..g1.num_vertices() as u32 {
            assert_eq!(replayed.out_neighbors(v), g1.out_neighbors(v), "vertex {v}");
        }
    }
}
