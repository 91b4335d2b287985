//! Property-based tests for the framework core: on arbitrary graphs and
//! frontiers, every traversal policy of `edgeMap` (including the
//! partitioned scatter/gather mode) must compute the same relation, and
//! `vertexSubset` conversions must be lossless.
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

use ligra::{
    edge_fn, edge_map_with, vertex_filter, vertex_map, EdgeMapOptions, Traversal, VertexSubset,
};
use ligra_graph::{build_graph, BuildOptions};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traversals_compute_identical_neighborhoods(
        (n, edges, frontier) in graph_and_frontier(),
        symmetric in any::<bool>(),
    ) {
        let opts = if symmetric { BuildOptions::symmetric() } else { BuildOptions::directed() };
        let g = build_graph(n, &edges, opts);
        let mut expect: Vec<u32> = frontier
            .iter()
            .flat_map(|&u| g.out_neighbors(u).iter().copied())
            .collect();
        expect.sort_unstable();
        expect.dedup();

        for t in Traversal::ALL {
            let f = edge_fn(|_s, _d, _w: ()| true, |_| true);
            let mut fr = VertexSubset::from_sparse(n, frontier.clone());
            let mut out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t))
                .to_vec_sorted();
            out.dedup();
            prop_assert_eq!(out, expect.clone(), "traversal {:?}", t);
        }
    }

    #[test]
    fn bitset_dense_frontier_agrees_with_sparse_frontier(
        (n, edges, frontier) in graph_and_frontier(),
        symmetric in any::<bool>(),
        modulus in 1u32..4,
    ) {
        // The packed-bitset input representation must be invisible to the
        // traversal result: feeding the same frontier as a sorted sparse
        // list and as a bitset must yield identical output sets under every
        // mode, including Auto's heuristic pick.
        let opts = if symmetric { BuildOptions::symmetric() } else { BuildOptions::directed() };
        let g = build_graph(n, &edges, opts);
        for t in Traversal::ALL {
            let f = edge_fn(|_s, _d, _w: ()| true, |d: u32| d.is_multiple_of(modulus));
            let mut sparse_fr = VertexSubset::from_sparse(n, frontier.clone());
            let opts = EdgeMapOptions::new().traversal(t);
            let mut from_sparse = edge_map_with(&g, &mut sparse_fr, &f, opts).to_vec_sorted();
            from_sparse.dedup();
            let mut dense_fr = VertexSubset::from_sparse(n, frontier.clone());
            dense_fr.to_dense();
            prop_assert!(!dense_fr.is_sparse());
            let mut from_dense = edge_map_with(&g, &mut dense_fr, &f, opts).to_vec_sorted();
            from_dense.dedup();
            prop_assert_eq!(from_sparse, from_dense, "traversal {:?}", t);
        }
    }

    #[test]
    fn cond_restricts_targets_identically(
        (n, edges, frontier) in graph_and_frontier(),
        modulus in 1u32..5,
    ) {
        let g = build_graph(n, &edges, BuildOptions::directed());
        let mut expect: Vec<u32> = frontier
            .iter()
            .flat_map(|&u| g.out_neighbors(u).iter().copied())
            .filter(|&v| v % modulus == 0)
            .collect();
        expect.sort_unstable();
        expect.dedup();

        for t in Traversal::ALL {
            let f = edge_fn(|_s, _d, _w: ()| true, |d: u32| d.is_multiple_of(modulus));
            let mut fr = VertexSubset::from_sparse(n, frontier.clone());
            let mut out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t))
                .to_vec_sorted();
            out.dedup();
            prop_assert_eq!(out, expect.clone(), "traversal {:?}", t);
        }
    }

    #[test]
    fn subset_conversions_are_lossless(
        n in 1usize..2000,
        seed in any::<u64>(),
    ) {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| ligra_parallel::hash64(seed ^ v as u64).is_multiple_of(3))
            .collect();
        let mut s = VertexSubset::from_sparse(n, members.clone());
        for _ in 0..3 {
            s.to_dense();
            prop_assert_eq!(s.len(), members.len());
            s.to_sparse();
            prop_assert_eq!(s.as_slice().len(), members.len());
        }
        prop_assert_eq!(s.to_vec_sorted(), members);
    }

    #[test]
    fn vertex_map_touches_each_member_exactly_once(
        n in 1usize..500,
        seed in any::<u64>(),
        dense in any::<bool>(),
    ) {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| ligra_parallel::hash64(seed ^ v as u64).is_multiple_of(4))
            .collect();
        let mut s = VertexSubset::from_sparse(n, members.clone());
        if dense {
            s.to_dense();
        }
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        vertex_map(&s, |v| {
            hits[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        for v in 0..n as u32 {
            let expect = u32::from(members.contains(&v));
            prop_assert_eq!(hits[v as usize].load(Ordering::Relaxed), expect, "vertex {}", v);
        }
    }

    #[test]
    fn vertex_filter_equals_retain(
        n in 1usize..500,
        seed in any::<u64>(),
        modulus in 1u32..5,
    ) {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| ligra_parallel::hash64(seed ^ v as u64).is_multiple_of(3))
            .collect();
        let s = VertexSubset::from_sparse(n, members.clone());
        let out = vertex_filter(&s, |v| v % modulus == 0);
        let expect: Vec<u32> = members.into_iter().filter(|&v| v % modulus == 0).collect();
        prop_assert_eq!(out.to_vec_sorted(), expect);
    }

    #[test]
    fn no_output_mode_agrees_with_output_mode_side_effects(
        (n, edges, frontier) in graph_and_frontier(),
    ) {
        // Count edge-function invocations with and without output
        // construction; they must agree (output is bookkeeping only).
        let g = build_graph(n, &edges, BuildOptions::directed());
        let count_with = |opts: EdgeMapOptions| {
            let hits = AtomicU32::new(0);
            let f = edge_fn(
                |_s, _d, _w: ()| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    true
                },
                |_| true,
            );
            let mut fr = VertexSubset::from_sparse(n, frontier.clone());
            let _ = edge_map_with(&g, &mut fr, &f, opts);
            hits.load(Ordering::Relaxed)
        };
        let sparse = EdgeMapOptions::new().traversal(Traversal::Sparse);
        prop_assert_eq!(count_with(sparse), count_with(sparse.no_output()));
    }
}
