//! Degenerate inputs through every public entry point: singleton and
//! edgeless graphs, self-loops, multi-edges, and hub-dominated stars.
//! The framework must handle all of them without panicking and with
//! sensible answers.

use ligra::{edge_fn, edge_map_with, EdgeMapOptions, Traversal, VertexSubset};
use ligra_apps as apps;
use ligra_graph::generators::{random_weights, star};
use ligra_graph::{build_graph, build_weighted_graph, BuildOptions};

#[test]
fn singleton_graph_through_every_app() {
    let g = build_graph(1, &[], BuildOptions::symmetric());
    let bfs = apps::bfs(&g, 0);
    assert_eq!(bfs.reached, 1);
    assert_eq!(apps::cc(&g).label, vec![0]);
    let bc = apps::bc(&g, 0);
    assert_eq!(bc.dependencies, vec![0.0]);
    // No dangling redistribution (Ligra semantics): an isolated vertex
    // keeps only the teleport mass (1 - alpha) / n = 0.15.
    let pr = apps::pagerank(&g, 0.85, 1e-9, 50);
    assert!((pr.rank[0] - 0.15).abs() < 1e-9, "rank {}", pr.rank[0]);
    let r = apps::radii(&g, 1);
    assert_eq!(r.radii, vec![0]);
    assert_eq!(apps::kcore(&g).coreness, vec![0]);
    let m = apps::mis(&g, 1);
    assert!(m.in_set[0]);
}

#[test]
fn edgeless_graph_through_every_app() {
    let n = 50;
    let g = build_graph(n, &[], BuildOptions::symmetric());
    assert_eq!(apps::bfs(&g, 7).reached, 1);
    assert_eq!(apps::cc(&g).num_components(), n);
    assert!(apps::mis(&g, 3).in_set.iter().all(|&b| b));
    assert_eq!(apps::kcore(&g).max_core, 0);
}

#[test]
fn self_loops_survive_raw_build_and_bfs() {
    // Raw build keeps loops; BFS must not spin on them.
    let g = build_graph(
        3,
        &[(0, 0), (0, 1), (1, 1), (1, 2)],
        BuildOptions { symmetrize: false, remove_self_loops: false, dedup: false },
    );
    let r = apps::bfs(&g, 0);
    assert_eq!(r.dist[..3], [0, 1, 2]);
    assert_eq!(r.rounds, 3);
}

#[test]
fn multi_edges_do_not_double_count_in_bellman_ford() {
    // Two parallel edges with different weights: min must win even
    // without dedup.
    let g = build_weighted_graph(
        2,
        &[(0, 1), (0, 1)],
        &[10, 3],
        BuildOptions { symmetrize: false, remove_self_loops: true, dedup: false },
    );
    let r = apps::bellman_ford(&g, 0);
    assert_eq!(r.dist[1], 3);
}

#[test]
fn hub_star_exercises_nested_parallelism() {
    // A 100k-degree hub goes through the sparse path's hub-splitting code.
    let n = 100_001;
    let g = star(n);
    let r = apps::bfs(&g, 0);
    assert_eq!(r.reached, n);
    assert_eq!(r.rounds, 2);
    let pr = apps::pagerank(&g, 0.85, 1e-10, 100);
    assert!(pr.rank[0] > pr.rank[1]);
    let w = random_weights(&g, 5, 1);
    let sp = apps::bellman_ford(&w, 1);
    assert!(sp.dist.iter().all(|&d| d != apps::INFINITE_DISTANCE));
}

#[test]
fn frontier_of_every_vertex_with_rejecting_cond() {
    // cond == false everywhere: no updates, empty output, in all modes.
    let g = star(100);
    for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward] {
        let f = edge_fn(|_, _, _: ()| true, |_| false);
        let mut fr = VertexSubset::all(100);
        let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::new().traversal(t));
        assert!(out.is_empty(), "traversal {t:?}");
    }
}

#[test]
fn update_always_false_yields_empty_frontier() {
    let g = star(100);
    let f = edge_fn(|_, _, _: ()| false, |_| true);
    let mut fr = VertexSubset::all(100);
    let out = edge_map_with(&g, &mut fr, &f, EdgeMapOptions::default());
    assert!(out.is_empty());
}

#[test]
fn bellman_ford_source_in_tiny_negative_graph() {
    // Smallest possible negative cycle through the source.
    let g = build_weighted_graph(2, &[(0, 1), (1, 0)], &[-1, -1], BuildOptions::raw_directed());
    let r = apps::bellman_ford(&g, 0);
    assert!(r.negative_cycle);
}

#[test]
fn radii_on_two_vertex_components() {
    // Many 2-vertex components: every wave dies after one hop.
    let edges: Vec<(u32, u32)> = (0..50).map(|i| (2 * i, 2 * i + 1)).collect();
    let g = build_graph(100, &edges, BuildOptions::symmetric());
    let r = apps::radii(&g, 3);
    for &s in &r.sample {
        // Each sampled vertex's partner is at distance 1.
        let partner = s ^ 1;
        assert!(r.radii[partner as usize] >= 1);
    }
}
