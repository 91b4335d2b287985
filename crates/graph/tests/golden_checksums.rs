//! Golden checksums of the generated edge lists and built CSRs.
//!
//! The benchmark's graphs are defined by the generators and the builder,
//! so neither may change its output: every adjacency list is sorted and
//! deduplicated (or sorted with multiplicity kept), which makes the CSR
//! canonical whatever order a parallel scatter wrote it in. Each constant
//! folds `mix64` over the arrays in order; a change to any edge, offset,
//! target or weight changes it.

#![allow(clippy::unwrap_used)]

use ligra_graph::generators::random_local::random_local_edges;
use ligra_graph::generators::rmat::rmat_edges;
use ligra_graph::generators::{grid3d, rmat, RmatOptions};
use ligra_graph::{build_weighted_graph, Adjacency, BuildOptions, Graph, VertexId};
use ligra_parallel::mix64;

fn fold(h: u64, x: u64) -> u64 {
    mix64(h.rotate_left(17) ^ x)
}

fn edges_sum(edges: &[(VertexId, VertexId)]) -> u64 {
    edges.iter().fold(edges.len() as u64, |h, &(u, v)| fold(h, (u64::from(u) << 32) | u64::from(v)))
}

fn adj_sum<W: Copy + Send + Sync>(h: u64, adj: &Adjacency<W>, weight: impl Fn(W) -> u64) -> u64 {
    let h = adj.offsets().iter().fold(fold(h, adj.num_vertices() as u64), |h, &o| fold(h, o));
    let h = adj.targets().iter().fold(fold(h, adj.num_edges() as u64), |h, &t| fold(h, t.into()));
    adj.weight_slice().iter().fold(h, |h, &w| fold(h, weight(w)))
}

fn graph_sum<W: Copy + Send + Sync>(g: &Graph<W>, weight: impl Fn(W) -> u64 + Copy) -> u64 {
    let h = adj_sum(u64::from(g.is_symmetric()), g.out_adj(), weight);
    if g.is_symmetric() {
        h
    } else {
        adj_sum(h, g.in_adj(), weight)
    }
}

fn unweighted_sum(g: &Graph) -> u64 {
    graph_sum(g, |()| 0)
}

#[test]
fn rmat_paper_16_is_unchanged() {
    let opts = RmatOptions::paper(16);
    assert_eq!(edges_sum(&rmat_edges(&opts)), 2883691354773682209);
    assert_eq!(unweighted_sum(&rmat(&opts)), 16666402351365015457);
}

#[test]
fn rmat_twitter_like_12_is_unchanged() {
    let opts = RmatOptions::twitter_like(12);
    assert_eq!(edges_sum(&rmat_edges(&opts)), 2046546585182245551);
    let g = rmat(&opts);
    assert!(!g.is_symmetric(), "the in-CSR must be covered too");
    assert_eq!(unweighted_sum(&g), 1483224369512935418);
}

#[test]
fn grid3d_32_is_unchanged() {
    assert_eq!(unweighted_sum(&grid3d(32)), 15148595702790671431);
}

#[test]
fn weighted_random_local_is_unchanged_under_every_option() {
    let edges = random_local_edges(2000, 6, 7);
    assert_eq!(edges_sum(&edges), 2012497786635302669);
    // Per-index weights: a repeated pair carries a different weight each
    // time, so dedup's choice of the smallest one is pinned too.
    let weights: Vec<i32> =
        (0..edges.len()).map(|i| (mix64(i as u64) % 1000) as i32 - 500).collect();
    let options = [
        BuildOptions::symmetric(),
        BuildOptions::directed(),
        BuildOptions::raw_directed(),
        BuildOptions { symmetrize: true, remove_self_loops: false, dedup: false },
    ];
    let got: Vec<u64> = options
        .iter()
        .map(|&opts| {
            let g = build_weighted_graph(2000, &edges, &weights, opts);
            graph_sum(&g, |w| u64::from(w as u32))
        })
        .collect();
    assert_eq!(
        got,
        [15126291935229055625, 4621119579547580685, 17051068375022763731, 9279073515063438532]
    );
}
