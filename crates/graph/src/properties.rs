//! Structural checks and summary statistics.

use crate::csr::{Graph, VertexId};
use ligra_parallel::checked_u32;
use rayon::prelude::*;

/// Summary statistics for a graph — the columns of the paper's Table 1
/// plus degree information used to pick traversal sources.
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Vertex count `n`.
    pub num_vertices: usize,
    /// Directed edge (arc) count `m`.
    pub num_edges: usize,
    /// Whether a single CSR serves both directions.
    pub symmetric: bool,
    /// Maximum out-degree and a vertex attaining it.
    pub max_degree: (VertexId, usize),
    /// Average out-degree `m / n`.
    pub avg_degree: f64,
    /// Number of isolated (degree-0 in both directions) vertices.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of<W: Copy + Send + Sync>(g: &Graph<W>) -> Self {
        let n = g.num_vertices();
        let isolated = (0..n)
            .into_par_iter()
            .filter(|&v| {
                let v = checked_u32(v);
                g.out_degree(v) == 0 && g.in_degree(v) == 0
            })
            .count();
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            symmetric: g.is_symmetric(),
            max_degree: g.max_out_degree(),
            avg_degree: if n == 0 { 0.0 } else { g.num_edges() as f64 / n as f64 },
            isolated,
        }
    }
}

/// Checks CSR invariants, panicking with a description on violation:
/// targets in range, adjacency lists sorted, and (directed graphs) the
/// in-CSR being the exact transpose of the out-CSR.
pub fn assert_valid<W: Copy + Send + Sync>(g: &Graph<W>) {
    let n = g.num_vertices();
    (0..n).into_par_iter().for_each(|v| {
        let v = checked_u32(v);
        let ns = g.out_neighbors(v);
        assert!(ns.iter().all(|&t| (t as usize) < n), "out-neighbor of {v} out of range");
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "out-neighbors of {v} not sorted");
        let ins = g.in_neighbors(v);
        assert!(ins.iter().all(|&t| (t as usize) < n), "in-neighbor of {v} out of range");
    });
    if !g.is_symmetric() {
        // Arc counts per direction must agree.
        let out_m: usize = (0..n).into_par_iter().map(|v| g.out_degree(checked_u32(v))).sum();
        let in_m: usize = (0..n).into_par_iter().map(|v| g.in_degree(checked_u32(v))).sum();
        assert_eq!(out_m, in_m, "transpose arc count mismatch");
        // Every out-arc appears in the target's in-list.
        (0..n).into_par_iter().for_each(|u| {
            let u = checked_u32(u);
            for &v in g.out_neighbors(u) {
                assert!(
                    g.in_neighbors(v).binary_search(&u).is_ok(),
                    "arc {u}->{v} missing from transpose"
                );
            }
        });
    }
}

/// True iff for every arc `u -> v` the reverse arc `v -> u` exists in the
/// out-CSR. (Structurally-directed graphs can still be symmetric.)
pub fn is_symmetric<W: Copy + Send + Sync>(g: &Graph<W>) -> bool {
    let n = g.num_vertices();
    (0..n).into_par_iter().all(|u| {
        let u = checked_u32(u);
        g.out_neighbors(u).iter().all(|&v| g.out_neighbors(v).binary_search(&u).is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, BuildOptions};
    use crate::generators::{erdos_renyi, star};

    #[test]
    fn stats_of_star() {
        let g = star(10);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.num_edges, 18);
        assert_eq!(s.max_degree, (0, 9));
        assert!(s.symmetric);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = build_graph(5, &[(0, 1)], BuildOptions::directed());
        let s = GraphStats::of(&g);
        assert_eq!(s.isolated, 3);
    }

    #[test]
    fn symmetry_detection() {
        let sym = erdos_renyi(100, 500, 1, true);
        assert!(is_symmetric(&sym));
        let dir = build_graph(3, &[(0, 1), (1, 2)], BuildOptions::directed());
        assert!(!is_symmetric(&dir));
    }

    #[test]
    #[should_panic(expected = "missing from transpose")]
    fn invalid_transpose_is_caught() {
        use crate::csr::{Adjacency, Graph};
        // in-CSR deliberately wrong: claims 1 -> 0 instead of 0 -> 1's
        // transpose arc living at vertex 1.
        let out = Adjacency::new(vec![0, 1, 1], vec![1], vec![()]);
        let bad_in = Adjacency::new(vec![0, 1, 1], vec![1], vec![()]);
        let g = Graph::directed(out, bad_in);
        assert_valid(&g);
    }
}
