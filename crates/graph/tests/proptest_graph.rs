//! Property-based tests for the graph substrate: the builder, transpose,
//! I/O and generators must uphold CSR invariants on arbitrary edge lists.
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

#![allow(clippy::unwrap_used)]

use ligra_graph::csr::transpose;
use ligra_graph::io::{read_adjacency_graph, write_adjacency_graph};
use ligra_graph::{build_graph, build_weighted_graph, properties, BuildOptions, Graph};
use ligra_parallel::mix64;
use proptest::prelude::*;
use std::collections::BTreeMap;

// Arbitrary edge list over `n` vertices.
fn edges_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2u32..max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |es| (n as usize, es))
    })
}

fn reference_neighbors(n: usize, edges: &[(u32, u32)], v: u32, symmetrize: bool) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for &(a, b) in edges {
        if a == b {
            continue; // default options remove self loops
        }
        if a == v {
            out.push(b);
        }
        if symmetrize && b == v {
            out.push(a);
        }
    }
    let _ = n;
    out.sort_unstable();
    out.dedup();
    out
}

/// The weighted build's model: every kept arc's weights, by
/// `(source, target)`, sorted — or just the smallest when deduplicating.
fn reference_arcs(
    edges: &[(u32, u32)],
    weights: &[i32],
    opts: BuildOptions,
) -> BTreeMap<(u32, u32), Vec<i32>> {
    let mut arcs: BTreeMap<(u32, u32), Vec<i32>> = BTreeMap::new();
    for (&(a, b), &w) in edges.iter().zip(weights) {
        if opts.remove_self_loops && a == b {
            continue;
        }
        arcs.entry((a, b)).or_default().push(w);
        if opts.symmetrize && a != b {
            arcs.entry((b, a)).or_default().push(w);
        }
    }
    for ws in arcs.values_mut() {
        ws.sort_unstable();
        if opts.dedup {
            ws.truncate(1);
        }
    }
    arcs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn built_graph_matches_reference_adjacency((n, edges) in edges_strategy(60, 400)) {
        let g = build_graph(n, &edges, BuildOptions::directed());
        for v in 0..n as u32 {
            prop_assert_eq!(
                g.out_neighbors(v),
                &reference_neighbors(n, &edges, v, false)[..],
                "vertex {}", v
            );
        }
        properties::assert_valid(&g);
    }

    #[test]
    fn symmetrized_graph_is_symmetric((n, edges) in edges_strategy(60, 400)) {
        let g = build_graph(n, &edges, BuildOptions::symmetric());
        prop_assert!(properties::is_symmetric(&g));
        for v in 0..n as u32 {
            prop_assert_eq!(
                g.out_neighbors(v),
                &reference_neighbors(n, &edges, v, true)[..],
                "vertex {}", v
            );
        }
    }

    #[test]
    fn transpose_involution((n, edges) in edges_strategy(50, 300)) {
        let g = build_graph(n, &edges, BuildOptions::directed());
        let t = transpose(g.out_adj());
        let tt = transpose(&t);
        prop_assert_eq!(tt.offsets(), g.out_adj().offsets());
        prop_assert_eq!(tt.targets(), g.out_adj().targets());
    }

    #[test]
    fn degree_sums_are_consistent((n, edges) in edges_strategy(50, 300)) {
        let g = build_graph(n, &edges, BuildOptions::directed());
        let out_sum: usize = (0..n as u32).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..n as u32).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
    }

    #[test]
    fn io_roundtrip_preserves_graph((n, edges) in edges_strategy(40, 250)) {
        let g = build_graph(n, &edges, BuildOptions::symmetric());
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let g2 = read_adjacency_graph(&buf[..], true).unwrap();
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..n as u32 {
            prop_assert_eq!(g.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn weighted_build_keeps_weight_edge_alignment((n, edges) in edges_strategy(40, 250)) {
        // Weight each input edge by a function of its endpoints so we can
        // verify alignment after the builder permutes edges.
        let weights: Vec<i32> =
            edges.iter().map(|&(a, b)| (a as i32) * 1000 + b as i32).collect();
        let g = build_weighted_graph(n, &edges, &weights, BuildOptions::directed());
        for u in 0..n as u32 {
            let ns = g.out_neighbors(u);
            let ws = g.out_weights(u);
            for (i, &v) in ns.iter().enumerate() {
                prop_assert_eq!(ws[i], (u as i32) * 1000 + v as i32, "arc {}->{}", u, v);
            }
        }
    }

    #[test]
    fn weighted_build_matches_reference_model_under_every_option(
        (n, edges) in edges_strategy(30, 200),
        seed in any::<u64>(),
    ) {
        // Few distinct weights, so repeated arcs carry both equal and
        // different weights.
        let weights: Vec<i32> =
            (0..edges.len() as u64).map(|i| (mix64(seed ^ i) % 7) as i32 - 3).collect();
        for bits in 0..8 {
            let opts = BuildOptions {
                symmetrize: bits & 1 != 0,
                remove_self_loops: bits & 2 != 0,
                dedup: bits & 4 != 0,
            };
            let g = build_weighted_graph(n, &edges, &weights, opts);
            let arcs = reference_arcs(&edges, &weights, opts);
            prop_assert_eq!(g.is_symmetric(), opts.symmetrize);
            prop_assert_eq!(g.num_edges(), arcs.values().map(Vec::len).sum::<usize>());
            for v in 0..n as u32 {
                let list = |dir: &dyn Fn(&(u32, u32)) -> Option<u32>| -> (Vec<u32>, Vec<i32>) {
                    arcs.iter()
                        .filter_map(|(arc, ws)| dir(arc).map(|u| (u, ws)))
                        .flat_map(|(u, ws)| ws.iter().map(move |&w| (u, w)))
                        .unzip()
                };
                let (out, out_w) = list(&|&(a, b)| (a == v).then_some(b));
                let (inc, inc_w) = list(&|&(a, b)| (b == v).then_some(a));
                prop_assert_eq!(g.out_neighbors(v), &out[..], "{:?} out of {}", opts, v);
                prop_assert_eq!(g.out_weights(v), &out_w[..], "{:?} out of {}", opts, v);
                prop_assert_eq!(g.in_neighbors(v), &inc[..], "{:?} in of {}", opts, v);
                prop_assert_eq!(g.in_weights(v), &inc_w[..], "{:?} in of {}", opts, v);
            }
        }
    }

    #[test]
    fn raw_build_preserves_multiplicity((n, edges) in edges_strategy(30, 200)) {
        let g = build_graph(n, &edges, BuildOptions::raw_directed());
        prop_assert_eq!(g.num_edges(), edges.len());
        // Multiset of arcs is preserved.
        let mut input: Vec<(u32, u32)> = edges.clone();
        input.sort_unstable();
        let mut stored: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        stored.sort_unstable();
        prop_assert_eq!(input, stored);
    }
}

// The generators must produce structurally valid graphs for any seed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generators_always_valid(seed in any::<u64>()) {
        use ligra_graph::generators::*;
        let graphs: Vec<Graph> = vec![
            erdos_renyi(100, 500, seed, true),
            erdos_renyi(100, 500, seed, false),
            random_local(200, 4, seed),
            rmat(&rmat::RmatOptions { seed, ..rmat::RmatOptions::paper(7) }),
        ];
        for g in &graphs {
            properties::assert_valid(g);
        }
    }
}
