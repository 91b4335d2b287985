//! Robustness of the AdjacencyGraph parser: arbitrary and corrupted
//! inputs must produce `Err`, never a panic or an invalid graph.
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

#![allow(clippy::unwrap_used)]

use ligra_graph::io::{
    read_adjacency_graph, read_weighted_adjacency_graph, write_adjacency_graph,
    write_weighted_adjacency_graph,
};
use ligra_graph::{build_graph, build_weighted_graph, BuildOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Either parses (astronomically unlikely) or errors; must not panic.
        let _ = read_adjacency_graph(&data[..], true);
        let _ = read_adjacency_graph(&data[..], false);
    }

    #[test]
    fn arbitrary_token_streams_never_panic(
        tokens in proptest::collection::vec("[0-9]{1,6}", 0..64),
        header in prop_oneof![Just("AdjacencyGraph"), Just("WeightedAdjacencyGraph"), Just("junk")],
    ) {
        let text = format!("{header}\n{}", tokens.join("\n"));
        let _ = read_adjacency_graph(text.as_bytes(), true);
    }

    #[test]
    fn truncations_of_a_valid_file_error_or_roundtrip(
        nedges in 0usize..40,
        cut in 0usize..200,
    ) {
        let edges: Vec<(u32, u32)> = (0..nedges as u32)
            .map(|i| (ligra_parallel::hash32(i) % 10, ligra_parallel::hash32(i + 99) % 10))
            .collect();
        let g = build_graph(10, &edges, BuildOptions::symmetric());
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        let truncated = &buf[..cut];
        match read_adjacency_graph(truncated, true) {
            Ok(g2) => {
                // Acceptable only when every token survived (e.g. only
                // trailing whitespace was cut): the graph must be intact.
                prop_assert_eq!(g2.num_vertices(), g.num_vertices());
                prop_assert_eq!(g2.num_edges(), g.num_edges());
                for v in 0..g.num_vertices() as u32 {
                    prop_assert_eq!(g2.out_neighbors(v), g.out_neighbors(v));
                }
            }
            Err(_) => prop_assert!(cut < buf.len(), "full file failed to parse"),
        }
    }

    #[test]
    fn corrupting_one_digit_never_yields_invalid_graph(
        nedges in 1usize..30,
        pos in 0usize..400,
        digit in 0u8..10,
    ) {
        let edges: Vec<(u32, u32)> = (0..nedges as u32)
            .map(|i| (ligra_parallel::hash32(i) % 8, ligra_parallel::hash32(i + 7) % 8))
            .collect();
        let g = build_graph(8, &edges, BuildOptions::symmetric());
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let pos = pos % buf.len();
        if buf[pos].is_ascii_digit() {
            buf[pos] = b'0' + digit;
        }
        // Whatever happens, a successfully parsed graph must satisfy the
        // invariants the parser promises: monotone offsets and in-range
        // targets with consistent counts. (Sortedness is a property of
        // *builder*-produced graphs, not of arbitrary parseable files, so
        // `assert_valid` does not apply here.)
        if let Ok(g2) = read_adjacency_graph(&buf[..], true) {
            let n = g2.num_vertices();
            let mut arcs = 0usize;
            for v in 0..n as u32 {
                for &t in g2.out_neighbors(v) {
                    prop_assert!((t as usize) < n, "target out of range after corruption");
                }
                arcs += g2.out_degree(v);
            }
            prop_assert_eq!(arcs, g2.num_edges());
        }
    }

    #[test]
    fn bit_flipped_files_error_or_stay_valid_never_panic(
        nedges in 1usize..30,
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..6),
    ) {
        // Arbitrary single-bit corruption anywhere in the file: the
        // loader must return `Ok` of a structurally valid graph or an
        // `IoError` — never unwind, and never abort on a ballooned
        // header count.
        let edges: Vec<(u32, u32)> = (0..nedges as u32)
            .map(|i| (ligra_parallel::hash32(i) % 9, ligra_parallel::hash32(i + 13) % 9))
            .collect();
        let g = build_graph(9, &edges, BuildOptions::symmetric());
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        for &(pos, bit) in &flips {
            let pos = pos % buf.len();
            buf[pos] ^= 1 << bit;
        }
        if let Ok(g2) = read_adjacency_graph(&buf[..], true) {
            let n = g2.num_vertices();
            let mut arcs = 0usize;
            for v in 0..n as u32 {
                for &t in g2.out_neighbors(v) {
                    prop_assert!((t as usize) < n, "target out of range after bit flips");
                }
                arcs += g2.out_degree(v);
            }
            prop_assert_eq!(arcs, g2.num_edges());
        }
    }

    #[test]
    fn bit_flipped_weighted_files_error_or_stay_valid_never_panic(
        nedges in 1usize..20,
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..6),
    ) {
        let edges: Vec<(u32, u32)> = (0..nedges as u32)
            .map(|i| (ligra_parallel::hash32(i) % 7, ligra_parallel::hash32(i + 31) % 7))
            .collect();
        let weights: Vec<i32> = (0..edges.len() as i32).map(|i| i % 11 - 5).collect();
        let g = build_weighted_graph(7, &edges, &weights, BuildOptions::directed());
        let mut buf = Vec::new();
        write_weighted_adjacency_graph(&g, &mut buf).unwrap();
        for &(pos, bit) in &flips {
            let pos = pos % buf.len();
            buf[pos] ^= 1 << bit;
        }
        if let Ok(g2) = read_weighted_adjacency_graph(&buf[..], false) {
            let n = g2.num_vertices();
            let mut arcs = 0usize;
            for v in 0..n as u32 {
                prop_assert_eq!(g2.out_neighbors(v).len(), g2.out_weights(v).len());
                for &t in g2.out_neighbors(v) {
                    prop_assert!((t as usize) < n, "target out of range after bit flips");
                }
                arcs += g2.out_degree(v);
            }
            prop_assert_eq!(arcs, g2.num_edges());
        }
    }
}

#[test]
fn absurd_header_counts_error_without_an_allocation_abort() {
    // A bit-flipped vertex count past the u32 id space is a parse error,
    // not a panic inside `checked_u32`.
    let e =
        read_adjacency_graph("AdjacencyGraph\n5000000000\n0\n0\n".as_bytes(), true).unwrap_err();
    assert!(e.to_string().contains("u32 id space"), "{e}");
    // A corrupted edge count in the exabyte range must fail on missing
    // tokens, not abort reserving `m` slots up front.
    let r = read_adjacency_graph("AdjacencyGraph\n1\n9999999999999999\n0\n".as_bytes(), true);
    assert!(r.is_err());
    let r = read_weighted_adjacency_graph(
        "WeightedAdjacencyGraph\n1\n9999999999999999\n0\n".as_bytes(),
        true,
    );
    assert!(r.is_err());
}
