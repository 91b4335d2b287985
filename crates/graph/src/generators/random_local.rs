//! Random graph with local edges (`randLocal` in PBBS / the paper).
//!
//! Every vertex gets `degree` out-edge samples whose targets are biased to
//! nearby vertex IDs: the distance is drawn from a truncated power-law
//! (choose a scale `2^k` with geometrically decreasing probability, then a
//! uniform offset below that scale). This mimics meshes and road-like
//! networks where most edges are short, giving a moderate diameter —
//! between the 3d-grid and rMat extremes the paper's table spans.

use crate::builder::{build_graph, BuildOptions};
use crate::csr::{Graph, VertexId};
use ligra_parallel::checked_u32;
use ligra_parallel::hash::{hash_to_range, mix64};
use rayon::prelude::*;

/// Generates the `randLocal` edge list: `n * degree` samples.
pub fn random_local_edges(n: usize, degree: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(n >= 2, "need at least two vertices");
    assert!(n <= u32::MAX as usize);
    let samples = n.checked_mul(degree).expect("n * degree overflows usize");
    let log_n = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
    (0..samples as u64)
        .into_par_iter()
        .map(|i| {
            let u = (i / degree as u64) as usize;
            let h = mix64(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
            // Geometric scale: k uniform in [1, log_n], distance < 2^k.
            let k = 1 + checked_u32(hash_to_range(h, log_n as u64));
            let dist = 1 + hash_to_range(h ^ 0xabcd_ef01, (1u64 << k).min(n as u64 - 1));
            let v = (u as u64 + dist) % n as u64;
            (checked_u32(u), checked_u32(v))
        })
        .collect()
}

/// Generates a symmetric random-local graph with ~`2 * n * degree` arcs
/// (before dedup).
pub fn random_local(n: usize, degree: usize, seed: u64) -> Graph {
    let edges = random_local_edges(n, degree, seed);
    build_graph(n, &edges, BuildOptions::symmetric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_and_range() {
        let edges = random_local_edges(1000, 5, 1);
        assert_eq!(edges.len(), 5000);
        assert!(edges.iter().all(|&(u, v)| u < 1000 && v < 1000 && u != v));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(random_local_edges(500, 4, 9), random_local_edges(500, 4, 9));
        assert_ne!(random_local_edges(500, 4, 9), random_local_edges(500, 4, 10));
    }

    #[test]
    fn edges_are_mostly_local() {
        let n = 1 << 14;
        let edges = random_local_edges(n, 8, 3);
        let ring_dist = |u: u32, v: u32| {
            let d = (u as i64 - v as i64).unsigned_abs() as usize;
            d.min(n - d)
        };
        let near = edges.iter().filter(|&&(u, v)| ring_dist(u, v) <= n / 64).count();
        // With geometric scales, well over half the edges are within n/64.
        assert!(near * 2 > edges.len(), "only {near}/{} edges are local", edges.len());
    }

    #[test]
    fn graph_is_symmetric_and_valid() {
        let g = random_local(2000, 6, 7);
        assert!(g.is_symmetric());
        crate::properties::assert_valid(&g);
        assert!(crate::properties::is_symmetric(&g));
        // Average degree close to 2 * requested (symmetrized), minus dedup.
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 6.0 && avg < 12.5, "avg degree {avg}");
    }
}
