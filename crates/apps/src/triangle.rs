//! Triangle counting (the `Triangle` application of the original Ligra
//! release; the algorithmic treatment is Shun & Tangwongsan, ICDE 2015).
//!
//! Degree-ordered intersection counting: orient every undirected edge from
//! the lower-rank to the higher-rank endpoint (rank = (degree, id)), then
//! count, for every oriented edge `(u, v)`, the size of the intersection
//! of the oriented adjacency lists of `u` and `v`. Each triangle is
//! counted exactly once. The orientation bounds the oriented out-degree by
//! O(√m), which is what makes the merge-based intersections fast on
//! power-law graphs.
//! Stays on `&Graph`: the merge intersection walks two sorted neighbor
//! *slices* side by side, which a streamed `Neighbors::Edges` is not.

use ligra_graph::{Graph, VertexId};
use ligra_parallel::checked_u32;
use rayon::prelude::*;

/// Output of [`triangle_count`].
#[derive(Debug, Clone)]
pub struct TriangleResult {
    /// Total number of triangles in the graph.
    pub triangles: u64,
    /// Per-vertex triangle counts (each triangle contributes to all three
    /// corners), so `sum(local) == 3 * triangles`.
    pub local: Vec<u64>,
}

/// Rank for the degree orientation: by degree, ties by vertex ID.
#[inline]
fn rank(g: &Graph, v: VertexId) -> (usize, VertexId) {
    (g.out_degree(v), v)
}

/// Oriented adjacency: neighbors of `v` with higher rank, sorted by ID
/// (the underlying CSR lists are ID-sorted, so filtering preserves order).
fn oriented(g: &Graph, v: VertexId) -> Vec<VertexId> {
    g.out_neighbors(v).iter().copied().filter(|&u| rank(g, u) > rank(g, v)).collect()
}

/// Size of the intersection of two ID-sorted lists (merge scan).
fn intersect_count(a: &[VertexId], b: &[VertexId], mut hit: impl FnMut(VertexId)) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit(a[i]);
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Parallel exact triangle count.
///
/// # Panics
/// Panics if `g` is not symmetric (triangles are defined on undirected
/// graphs; symmetrize first).
pub fn triangle_count(g: &Graph) -> TriangleResult {
    assert!(g.is_symmetric(), "triangle counting requires a symmetric graph");
    let n = g.num_vertices();

    // Materialize the oriented lists once: O(m) space, reused by every
    // intersection.
    let oriented_lists: Vec<Vec<VertexId>> =
        (0..checked_u32(n)).into_par_iter().map(|v| oriented(g, v)).collect();

    let local: Vec<std::sync::atomic::AtomicU64> =
        (0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();

    let triangles: u64 = (0..checked_u32(n))
        .into_par_iter()
        .map(|u| {
            let lu = &oriented_lists[u as usize];
            let mut found = 0u64;
            for &v in lu {
                let c = intersect_count(lu, &oriented_lists[v as usize], |w| {
                    // Triangle (u, v, w): credit each corner.
                    local[w as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
                if c > 0 {
                    local[u as usize].fetch_add(c, std::sync::atomic::Ordering::Relaxed);
                    local[v as usize].fetch_add(c, std::sync::atomic::Ordering::Relaxed);
                    found += c;
                }
            }
            found
        })
        .sum();

    let local: Vec<u64> = local.into_iter().map(std::sync::atomic::AtomicU64::into_inner).collect();
    TriangleResult { triangles, local }
}

/// Sequential reference: brute force over vertex triples' adjacency
/// (O(n·d²) via neighbor pairs) — small graphs only.
pub fn seq_triangle_count(g: &Graph) -> u64 {
    assert!(g.is_symmetric());
    let mut count = 0u64;
    for u in 0..checked_u32(g.num_vertices()) {
        let ns = g.out_neighbors(u);
        for (i, &v) in ns.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &ns[i + 1..] {
                if w <= u || w == v {
                    continue;
                }
                if g.out_neighbors(v).binary_search(&w).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{complete, cycle, erdos_renyi, grid3d, path, rmat, star};
    use ligra_graph::{build_graph, BuildOptions};

    fn check(g: &Graph) {
        let par = triangle_count(g);
        let seq = seq_triangle_count(g);
        assert_eq!(par.triangles, seq);
        assert_eq!(par.local.iter().sum::<u64>(), 3 * par.triangles);
    }

    #[test]
    fn triangle_free_families() {
        for g in [path(20), star(20), cycle(10), grid3d(4)] {
            let r = triangle_count(&g);
            assert_eq!(r.triangles, 0, "expected triangle-free");
        }
    }

    #[test]
    fn complete_graph_has_n_choose_3() {
        let r = triangle_count(&complete(8));
        assert_eq!(r.triangles, 56); // C(8,3)
                                     // Every vertex participates in C(7,2) = 21 triangles.
        assert!(r.local.iter().all(|&c| c == 21));
    }

    #[test]
    fn single_triangle_with_tail() {
        let g =
            build_graph(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], BuildOptions::symmetric());
        let r = triangle_count(&g);
        assert_eq!(r.triangles, 1);
        assert_eq!(r.local, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn odd_cycle_has_no_triangles_but_chords_make_them() {
        let g =
            build_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], BuildOptions::symmetric());
        assert_eq!(triangle_count(&g).triangles, 2);
        check(&g);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        check(&erdos_renyi(200, 2000, 1, true));
        check(&erdos_renyi(100, 1500, 2, true)); // dense: many triangles
        check(&rmat(&RmatOptions::paper(8)));
    }

    #[test]
    fn rmat_has_many_triangles() {
        // Power-law graphs exhibit strong clustering around hubs.
        let r = triangle_count(&rmat(&RmatOptions::paper(11)));
        assert!(r.triangles > 5_000, "got {}", r.triangles);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn directed_graph_rejected() {
        let g = build_graph(3, &[(0, 1)], BuildOptions::directed());
        let _ = triangle_count(&g);
    }
}
