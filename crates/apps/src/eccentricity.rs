//! Eccentricity estimation beyond the paper's Radii application —
//! the algorithms compared in Shun's KDD 2015 study ("An Evaluation of
//! Parallel Eccentricity Estimation Algorithms on Undirected Real-World
//! Graphs"), reproduced as extension experiments:
//!
//! * [`two_approx`] — the classic 2-approximation: one BFS per connected
//!   component from an arbitrary root `w`; every vertex `v` gets
//!   `max(d(w,v), ecc(w) − d(w,v))`, which is ≥ ecc(v)/2 and ≤ ecc(v).
//! * [`k_bfs_two_pass`] — the study's overall winner: one 64-way
//!   multi-BFS from a random sample (the paper's Radii), then a second
//!   64-way pass seeded from the vertices the first pass found to be
//!   most eccentric. Estimates only improve (they are maxima over real
//!   distances), and on small-diameter graphs the second pass usually
//!   closes most of the remaining gap to the true eccentricities.
//!
//! All estimates are *lower bounds* on the true eccentricity (they are
//! maxima of genuine shortest-path distances).

use crate::radii::{radii_from_sample, RadiiResult, SAMPLES, UNKNOWN_RADIUS};
use ligra::EdgeMapOptions;
use ligra::TraversalStats;
use ligra_graph::Neighbors;
use ligra_parallel::checked_u32;

/// 2-approximation of all eccentricities: one BFS per component.
///
/// Returns per-vertex estimates `e` with `ecc(v)/2 ≤ e[v] ≤ ecc(v)`.
/// Isolated vertices get 0.
///
/// # Panics
/// Panics if `g` is not symmetric (eccentricity is an undirected notion
/// here, as in the study).
pub fn two_approx<G: Neighbors<Weight = ()>>(g: &G) -> Vec<u32> {
    assert!(g.is_symmetric(), "eccentricity requires a symmetric graph");
    let n = g.num_vertices();
    let labels = crate::cc(g).label;
    let mut est = vec![0u32; n];

    // One BFS per component, rooted at the component's canonical (min-ID)
    // vertex. Components are processed one after another; each BFS is the
    // parallel frontier BFS.
    let mut seen = std::collections::HashSet::new();
    for v in 0..checked_u32(n) {
        let root = labels[v as usize];
        if !seen.insert(root) {
            continue;
        }
        let bfs = crate::bfs(g, root);
        let ecc_w = bfs.dist.iter().filter(|&&d| d != crate::UNREACHED).max().copied().unwrap_or(0);
        for (u, slot) in est.iter_mut().enumerate() {
            let d = bfs.dist[u];
            if d != crate::UNREACHED {
                *slot = d.max(ecc_w.saturating_sub(d));
            }
        }
    }
    est
}

/// Two-pass 64-way multi-BFS estimation (kBFS-2phase in the study).
///
/// Pass 1 runs the paper's Radii from a hash-random sample; pass 2 reruns
/// it from the `SAMPLES` vertices with the highest pass-1 estimates
/// (distinct, ties broken by ID). The result is the pointwise maximum.
pub fn k_bfs_two_pass<G: Neighbors<Weight = ()>>(g: &G, seed: u64) -> RadiiResult {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph");
    let first = crate::radii(g, seed);

    // Pick the most eccentric vertices found by pass 1 as pass-2 sources.
    let mut by_est: Vec<u32> =
        (0..checked_u32(n)).filter(|&v| first.radii[v as usize] != UNKNOWN_RADIUS).collect();
    by_est.sort_unstable_by_key(|&v| (std::cmp::Reverse(first.radii[v as usize]), v));
    by_est.truncate(SAMPLES.min(n));
    if by_est.is_empty() {
        return first;
    }

    let mut stats = TraversalStats::new();
    let second = radii_from_sample(g, by_est, EdgeMapOptions::default(), &mut stats);

    // Pointwise maximum of the two lower bounds.
    let radii: Vec<u32> = (0..n)
        .map(|v| {
            let a = first.radii[v];
            let b = second.radii[v];
            match (a == UNKNOWN_RADIUS, b == UNKNOWN_RADIUS) {
                (true, true) => UNKNOWN_RADIUS,
                (true, false) => b,
                (false, true) => a,
                (false, false) => a.max(b),
            }
        })
        .collect();
    RadiiResult { radii, sample: second.sample, rounds: first.rounds + second.rounds }
}

/// Mean relative error of `estimate` against `truth`, ignoring isolated
/// vertices (truth 0). Estimates are lower bounds, so this is in [0, 1].
pub fn mean_relative_error(estimate: &[u32], truth: &[u32]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (e, t) in estimate.iter().zip(truth) {
        if *t > 0 {
            let e = if *e == UNKNOWN_RADIUS { 0 } else { *e };
            total += (*t as f64 - e as f64) / *t as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_eccentricities;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, grid3d, path, random_local, rmat, star};
    use ligra_graph::{build_graph, BuildOptions, Graph};

    fn assert_lower_bound_and_half(g: &Graph) {
        let truth = seq_eccentricities(g);
        let est = two_approx(g);
        for v in 0..g.num_vertices() {
            assert!(est[v] <= truth[v], "estimate above truth at {v}");
            assert!(2 * est[v] >= truth[v], "worse than 2-approx at {v}");
        }
    }

    #[test]
    fn two_approx_bounds_hold() {
        assert_lower_bound_and_half(&path(30));
        assert_lower_bound_and_half(&cycle(24));
        assert_lower_bound_and_half(&star(20));
        assert_lower_bound_and_half(&grid3d(4));
        assert_lower_bound_and_half(&random_local(500, 4, 1));
    }

    #[test]
    fn two_approx_handles_multiple_components() {
        let g =
            build_graph(7, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)], BuildOptions::symmetric());
        let est = two_approx(&g);
        let truth = seq_eccentricities(&g);
        for v in 0..7 {
            assert!(est[v] <= truth[v] && 2 * est[v] >= truth[v], "vertex {v}");
        }
    }

    #[test]
    fn two_pass_is_a_lower_bound_and_improves_on_one_pass() {
        for g in [random_local(1500, 5, 3), rmat(&RmatOptions::paper(9)), grid3d(5)] {
            let truth = seq_eccentricities(&g);
            let one = crate::radii(&g, 11);
            let two = k_bfs_two_pass(&g, 11);
            for (v, &tv) in truth.iter().enumerate() {
                let t = two.radii[v];
                let o = one.radii[v];
                if t != UNKNOWN_RADIUS {
                    assert!(t <= tv, "vertex {v}: {t} > true ecc {tv}");
                }
                if o != UNKNOWN_RADIUS {
                    assert!(t != UNKNOWN_RADIUS && t >= o, "pass 2 regressed at {v}");
                }
            }
            let e1 = mean_relative_error(&one.radii, &truth);
            let e2 = mean_relative_error(&two.radii, &truth);
            assert!(e2 <= e1 + 1e-12, "two-pass error {e2} worse than one-pass {e1}");
        }
    }

    #[test]
    fn two_pass_is_exact_when_n_below_sample_size() {
        // With n <= 64 every vertex is a source: estimates are exact.
        let g = path(40);
        let truth = seq_eccentricities(&g);
        let two = k_bfs_two_pass(&g, 5);
        assert_eq!(two.radii, truth);
    }

    #[test]
    fn mean_relative_error_basics() {
        assert_eq!(mean_relative_error(&[5, 5], &[10, 5]), 0.25);
        assert_eq!(mean_relative_error(&[], &[]), 0.0);
        assert_eq!(mean_relative_error(&[0], &[0]), 0.0); // isolated ignored
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn directed_graph_rejected() {
        let g = build_graph(3, &[(0, 1)], BuildOptions::directed());
        let _ = two_approx(&g);
    }
}
