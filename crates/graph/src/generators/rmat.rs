//! Recursive-matrix (rMAT) graph generator.
//!
//! Chakrabarti, Zhan & Faloutsos's R-MAT model: each edge picks its endpoint
//! pair by recursively descending into one of the four quadrants of the
//! adjacency matrix with probabilities `(a, b, c, d)`. With `a > d` the
//! resulting degree distribution is a power law — the paper uses rMat as its
//! social-network-like input, and we additionally use the Graph500
//! parameters as the stand-in for the Twitter/Yahoo graphs.
//!
//! Like the PBBS generator, edge `i` derives all of its random choices from
//! hashes of `(seed, i, level)`, so the edge list is a pure function of the
//! options and can be generated in parallel.

use crate::builder::{build_graph, BuildOptions};
use crate::csr::{Graph, VertexId};
use ligra_parallel::checked_u32;
use ligra_parallel::hash::mix64;
use rayon::prelude::*;

/// Parameters for [`rmat`].
#[derive(Debug, Clone, Copy)]
pub struct RmatOptions {
    /// log2 of the vertex count.
    pub log_n: u32,
    /// Edges per vertex (the paper's rMat graphs average ~6-10).
    pub edge_factor: usize,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left); `d = 1 - a - b - c`.
    pub c: f64,
    /// Hash seed.
    pub seed: u64,
    /// Build a symmetric graph (the paper symmetrizes its rMat inputs).
    pub symmetric: bool,
}

impl RmatOptions {
    /// The paper's rMat parameters (PBBS defaults): a=0.5, b=c=0.1.
    pub fn paper(log_n: u32) -> Self {
        RmatOptions { log_n, edge_factor: 10, a: 0.5, b: 0.1, c: 0.1, seed: 42, symmetric: true }
    }

    /// Graph500 skew (a=0.57, b=c=0.19): our stand-in for the Twitter graph
    /// (heavier power-law tail, lower effective diameter).
    pub fn twitter_like(log_n: u32) -> Self {
        RmatOptions {
            log_n,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 271828,
            symmetric: false,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        1usize << self.log_n
    }

    /// Number of generated edge samples (before dedup/symmetrization).
    pub fn num_edge_samples(&self) -> usize {
        self.num_vertices() * self.edge_factor
    }
}

/// Generates the rMAT edge list (may contain duplicates and self loops).
///
/// # Panics
/// Panics unless `1 <= log_n <= 31` and `a`, `b`, `c` are finite,
/// non-negative and sum to at most 1.
pub fn rmat_edges(opts: &RmatOptions) -> Vec<(VertexId, VertexId)> {
    assert!(opts.log_n >= 1 && opts.log_n <= 31, "log_n out of range");
    assert!(
        [opts.a, opts.b, opts.c].iter().all(|p| p.is_finite() && *p >= 0.0),
        "quadrant probabilities must be finite and non-negative"
    );
    let ab = opts.a + opts.b;
    let abc = ab + opts.c;
    assert!(abc < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    // Each level draws `r`, the top 53 bits of a hash, uniform below 2^53.
    // `r / 2^53 < p` holds exactly when `r < ⌈p · 2^53⌉`, since scaling by a
    // power of two is exact, so the quadrant is picked by comparing
    // integers: top-left below `a`, top-right below `a + b`, bottom-left
    // below `a + b + c`, bottom-right above.
    let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
    let (t_a, t_ab, t_abc) = (threshold(opts.a), threshold(ab), threshold(abc));
    let nedges = opts.num_edge_samples();
    (0..nedges as u64)
        .into_par_iter()
        .map(|i| {
            let mut u: u64 = 0;
            let mut v: u64 = 0;
            // One hash stream per (edge, level); mix the seed in once.
            let base = mix64(opts.seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            for level in 0..opts.log_n {
                let r = mix64(base ^ ((level as u64 + 1) << 32)) >> 11;
                u = (u << 1) | u64::from(r >= t_ab);
                v = (v << 1) | u64::from((t_a <= r) & (r < t_ab) | (r >= t_abc));
            }
            (checked_u32(u), checked_u32(v))
        })
        .collect()
}

/// Generates an rMAT graph (deduplicated, loops removed, optionally
/// symmetrized per `opts.symmetric`).
pub fn rmat(opts: &RmatOptions) -> Graph {
    let edges = rmat_edges(opts);
    let build = if opts.symmetric { BuildOptions::symmetric() } else { BuildOptions::directed() };
    build_graph(opts.num_vertices(), &edges, build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_endpoints_in_range() {
        let opts = RmatOptions::paper(10);
        let edges = rmat_edges(&opts);
        assert_eq!(edges.len(), opts.num_edge_samples());
        let n = opts.num_vertices() as u32;
        assert!(edges.iter().all(|&(u, v)| u < n && v < n));
    }

    #[test]
    fn deterministic_in_seed() {
        let opts = RmatOptions::paper(8);
        assert_eq!(rmat_edges(&opts), rmat_edges(&opts));
        let other = RmatOptions { seed: 7, ..opts };
        assert_ne!(rmat_edges(&opts), rmat_edges(&other));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // With a=0.5 > d=0.3 low-ID vertices must be much heavier.
        let opts = RmatOptions::paper(12);
        let g = rmat(&opts);
        let n = g.num_vertices();
        let low: usize = (0..(n / 16) as u32).map(|v| g.out_degree(v)).sum();
        let high: usize = ((n - n / 16) as u32..n as u32).map(|v| g.out_degree(v)).sum();
        assert!(low > 3 * high, "expected skew toward low IDs: low-16th {low} vs high-16th {high}");
        // And the max degree should far exceed the average.
        let avg = g.num_edges() / n;
        let (_, dmax) = g.max_out_degree();
        assert!(dmax > 5 * avg, "max degree {dmax} vs avg {avg}");
    }

    #[test]
    fn symmetric_output_is_symmetric() {
        let g = rmat(&RmatOptions::paper(8));
        assert!(g.is_symmetric());
        crate::properties::assert_valid(&g);
        assert!(crate::properties::is_symmetric(&g));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_quadrant_probability_panics() {
        // a + b + c = 0.5, but a negative `b` breaks the threshold order.
        let _ = rmat_edges(&RmatOptions { a: 0.6, b: -0.2, c: 0.1, ..RmatOptions::paper(4) });
    }

    #[test]
    fn twitter_like_is_directed_and_skewed() {
        let g = rmat(&RmatOptions::twitter_like(10));
        assert!(!g.is_symmetric());
        let (_, dmax) = g.max_out_degree();
        let avg = (g.num_edges() / g.num_vertices()).max(1);
        assert!(dmax > 10 * avg, "twitter-like max degree {dmax} vs avg {avg}");
    }
}
