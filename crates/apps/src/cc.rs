//! Connected components by label propagation (the paper's `Components`).
//!
//! Every vertex starts with its own ID as label; each round, every edge
//! out of the frontier pushes the smaller label to the larger side with
//! `writeMin` (a priority update), and a vertex enters the next frontier
//! the first time its label shrinks in a round. Converges when no label
//! changes. On a symmetric graph the fixed point is: every vertex labeled
//! with the minimum vertex ID of its component.

use ligra::{
    edge_map_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder,
    VertexSubset,
};
use ligra_graph::{Neighbors, VertexId};
use ligra_parallel::atomics::write_min_u32;
use ligra_parallel::checked_u32;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Output of [`cc`].
#[derive(Debug, Clone)]
pub struct CcResult {
    /// Component label of each vertex — the minimum vertex ID in its
    /// component.
    pub label: Vec<u32>,
    /// Number of label-propagation rounds until convergence.
    pub rounds: usize,
}

impl CcResult {
    /// Number of distinct components: every label is the minimum vertex
    /// ID of its component, so exactly one vertex per component carries
    /// its own ID.
    pub fn num_components(&self) -> usize {
        self.label.iter().enumerate().filter(|&(v, &l)| l as usize == v).count()
    }

    /// Sizes of components keyed by label.
    pub fn component_sizes(&self) -> HashMap<u32, usize> {
        let mut sizes = HashMap::new();
        for &l in &self.label {
            *sizes.entry(l).or_insert(0) += 1;
        }
        sizes
    }

    /// Size of the largest component.
    pub fn largest_component(&self) -> usize {
        self.component_sizes().values().copied().max().unwrap_or(0)
    }
}

/// The paper's `CC_F`: push the smaller ID across each edge; a vertex
/// joins the output the first time its ID changes within the round
/// (detected by comparing against `prev_ids`, the snapshot taken at the
/// start of the round).
pub struct CcF<'a> {
    /// Current labels.
    pub ids: &'a [AtomicU32],
    /// Labels as of the start of the round.
    pub prev_ids: &'a [AtomicU32],
}

impl EdgeMapFn for CcF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let src_id = self.ids[src as usize].load(Ordering::Relaxed);
        let slot = &self.ids[dst as usize];
        let orig = slot.load(Ordering::Relaxed);
        if src_id < orig {
            slot.store(src_id, Ordering::Relaxed);
            orig == self.prev_ids[dst as usize].load(Ordering::Relaxed)
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let src_id = self.ids[src as usize].load(Ordering::Relaxed);
        let slot = &self.ids[dst as usize];
        let orig = slot.load(Ordering::Relaxed);
        write_min_u32(slot, src_id) && orig == self.prev_ids[dst as usize].load(Ordering::Relaxed)
    }

    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, ())>,
    {
        let slot = &self.ids[dst as usize];
        let orig = slot.load(Ordering::Relaxed);
        let mut min = orig;
        for (src, ()) in in_edges {
            min = min.min(self.ids[src as usize].load(Ordering::Relaxed));
        }
        if min == orig {
            return Some(false);
        }
        slot.store(min, Ordering::Relaxed);
        Some(orig == self.prev_ids[dst as usize].load(Ordering::Relaxed))
    }
}

/// Parallel connected components with default options.
///
/// # Panics
/// Panics if `g` is not symmetric — label propagation computes *undirected*
/// connectivity; symmetrize directed graphs first (as the paper does).
pub fn cc<G: Neighbors<Weight = ()>>(g: &G) -> CcResult {
    cc_traced(g, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel connected components recording per-round statistics.
pub fn cc_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> CcResult {
    assert!(g.is_symmetric(), "connected components requires a symmetric graph; symmetrize first");
    let n = g.num_vertices();
    let mut ids: Vec<u32> = (0..checked_u32(n)).collect();
    let mut prev_ids: Vec<u32> = (0..checked_u32(n)).collect();
    let mut rounds = 0usize;
    {
        let ids = ligra_parallel::atomics::as_atomic_u32(&mut ids);
        let prev = ligra_parallel::atomics::as_atomic_u32(&mut prev_ids);
        let f = CcF { ids, prev_ids: prev };
        let mut frontier = VertexSubset::all(n);
        while !frontier.is_empty() {
            // Snapshot labels of the active vertices (paper's CC_Vertex_F).
            vertex_map_recorded(
                &frontier,
                |v| {
                    prev[v as usize]
                        .store(ids[v as usize].load(Ordering::Relaxed), Ordering::Relaxed);
                },
                stats,
            );
            frontier = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            rounds += 1;
        }
    }
    CcResult { label: ids, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_cc;
    use ligra::Traversal;
    use ligra::TraversalStats;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, erdos_renyi, grid3d, path, random_local, rmat, star};
    use ligra_graph::{build_graph, BuildOptions, Graph};

    fn check_against_seq(g: &Graph) {
        let par = cc(g);
        let seq = seq_cc(g);
        assert_eq!(par.label, seq, "labels differ from union-find reference");
    }

    #[test]
    fn single_component_families() {
        for g in [path(50), cycle(64), star(33), grid3d(4)] {
            let r = cc(&g);
            assert_eq!(r.num_components(), 1);
            assert!(r.label.iter().all(|&l| l == 0));
        }
    }

    #[test]
    fn two_components() {
        let g = build_graph(6, &[(0, 1), (1, 2), (3, 4), (4, 5)], BuildOptions::symmetric());
        let r = cc(&g);
        assert_eq!(r.label, vec![0, 0, 0, 3, 3, 3]);
        assert_eq!(r.num_components(), 2);
        assert_eq!(r.largest_component(), 3);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = build_graph(4, &[(1, 2)], BuildOptions::symmetric());
        let r = cc(&g);
        assert_eq!(r.label, vec![0, 1, 1, 3]);
        assert_eq!(r.num_components(), 3);
    }

    #[test]
    fn matches_union_find_on_generators() {
        check_against_seq(&grid3d(5));
        check_against_seq(&random_local(2000, 4, 3));
        check_against_seq(&rmat(&RmatOptions::paper(10)));
        check_against_seq(&erdos_renyi(1500, 2500, 8, true));
        // Sparse ER below the connectivity threshold: many components.
        let g = erdos_renyi(2000, 900, 5, true);
        let r = cc(&g);
        assert!(r.num_components() > 100);
        check_against_seq(&g);
    }

    #[test]
    fn forced_traversals_agree() {
        let g = erdos_renyi(800, 6000, 2, true);
        let auto = cc(&g);
        for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
            let mut stats = TraversalStats::new();
            let forced = cc_traced(&g, EdgeMapOptions::new().traversal(t), &mut stats);
            assert_eq!(forced.label, auto.label, "traversal {t:?}");
        }
    }

    #[test]
    fn rounds_bounded_by_diameter_plus_one() {
        // Label propagation converges in at most (min-ID eccentricity)
        // rounds per component + 1 empty round; on a path labels crawl.
        let g = path(20);
        let r = cc(&g);
        assert!(r.rounds <= 21, "rounds {}", r.rounds);
        assert_eq!(r.label, vec![0; 20]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn directed_graph_is_rejected() {
        let g = build_graph(3, &[(0, 1)], BuildOptions::directed());
        let _ = cc(&g);
    }
}
