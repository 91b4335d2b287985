//! Property-based tests for the duplicate semantics of sparse push
//! output, which `edgeMap` never deduplicates.
//!
//! A **CAS-claiming** (BFS-style) update wins at most once per target, so
//! the raw push output is duplicate-free: the one-winner guarantee lives
//! in the user function, not in a pass over the output. (A multi-winner
//! update such as Bellman–Ford's relaxation gets the same guarantee from
//! its per-round visited bit.)
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

use ligra::{edge_fn, edge_map_with, EdgeMapOptions, Traversal, VertexSubset};
use ligra_graph::{build_graph, BuildOptions, VertexId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

fn graph_and_frontier() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<u32>)> {
    (2u32..50).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..300);
        let frontier = proptest::collection::btree_set(0..n, 0..n as usize)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
        (Just(n as usize), edges, frontier)
    })
}

/// Distinct out-neighbors of the frontier — the output set every run
/// must produce.
fn expected_neighborhood(g: &ligra_graph::Graph, frontier: &[u32]) -> Vec<u32> {
    let mut expect: Vec<u32> =
        frontier.iter().flat_map(|&u| g.out_neighbors(u).iter().copied()).collect();
    expect.sort_unstable();
    expect.dedup();
    expect
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cas_claiming_output_ignores_dedup_setting(
        (n, edges, frontier) in graph_and_frontier(),
    ) {
        let g = build_graph(n, &edges, BuildOptions::directed());
        let expect = expected_neighborhood(&g, &frontier);

        // A target is won by exactly one in-edge (BFS parent CAS), so
        // even the raw sparse output is duplicate-free.
        let claims: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        let f = edge_fn(
            |s: VertexId, d: VertexId, _w: ()| {
                claims[d as usize]
                    .compare_exchange(u32::MAX, s, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            },
            |d: VertexId| claims[d as usize].load(Ordering::SeqCst) == u32::MAX,
        );
        let mut fr = VertexSubset::from_sparse(n, frontier.clone());
        let mut out =
            edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(Traversal::Sparse));
        let raw: Vec<VertexId> = out.as_slice().to_vec();
        let mut uniq = raw.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(raw.len(), uniq.len(), "CAS output has duplicates");
        prop_assert_eq!(uniq, expect);
        // Every claimed parent really is a frontier in-neighbor.
        for &d in &raw {
            let p = claims[d as usize].load(Ordering::SeqCst);
            prop_assert!(frontier.contains(&p));
            prop_assert!(g.out_neighbors(p).contains(&d));
        }
    }
}
