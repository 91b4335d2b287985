//! Route planning on a road-mesh-like graph — the high-diameter end of
//! the paper's input spectrum (unstructured meshes, road networks).
//!
//! Builds a 3-D grid (think: a city with stacked road levels), weights
//! the road segments, and runs Bellman–Ford for travel times, BFS for
//! hop counts, and connected components as a sanity check. Shows why
//! direction optimization is irrelevant here: frontiers never densify.
//!
//! ```text
//! cargo run -p ligra-examples --release --bin road_network
//! ```

use ligra::{summary, EdgeMapOptions, TraversalStats};
use ligra_apps as apps;
use ligra_graph::generators::{grid3d, random_weights};

fn main() {
    let side = 24;
    let g = grid3d(side);
    let n = g.num_vertices();
    println!("road mesh: {side}x{side}x{side} torus, {n} junctions, {} segments", g.num_edges());

    // Travel times: random weights 1..=9 per segment.
    let weighted = random_weights(&g, 9, 7);
    let depot = 0u32;
    let sp = apps::bellman_ford(&weighted, depot);
    assert!(!sp.negative_cycle);
    let max_time = sp.dist.iter().max().unwrap();
    let avg_time: f64 = sp.dist.iter().map(|&d| d as f64).sum::<f64>() / n as f64;
    println!(
        "travel times from depot {depot}: max {max_time}, mean {avg_time:.1} ({} relaxation rounds)",
        sp.rounds
    );

    // Hop distances with traversal tracing: every round stays sparse at
    // paper scale; at this laptop scale a few middle rounds may densify,
    // but the round count equals the mesh's hop diameter either way.
    let mut stats = TraversalStats::new();
    let bfs = apps::bfs_traced(&g, depot, EdgeMapOptions::default(), &mut stats);
    let modes = summary(&stats);
    println!(
        "hop diameter from depot: {} rounds ({} sparse / {} dense), reached {}/{}",
        bfs.rounds, modes.sparse_rounds, modes.dense_rounds, bfs.reached, n
    );

    // Sanity: a torus is one connected component.
    let comps = apps::cc(&g);
    assert_eq!(comps.num_components(), 1);
    println!("connectivity check: 1 component ✓");

    // Every hop distance lower-bounds its travel time (weights >= 1).
    for v in 0..n {
        assert!(sp.dist[v] >= bfs.dist[v] as i64);
    }
    println!("consistency check: travel time >= hop count everywhere ✓");
}
