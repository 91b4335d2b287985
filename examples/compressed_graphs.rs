//! Working with compressed graphs (Ligra+) — fit a bigger graph in the
//! same memory and keep running the same algorithms.
//!
//! ```text
//! cargo run -p ligra-examples --release --bin compressed_graphs
//! ```

use ligra_apps as apps;
use ligra_compress::CompressedGraph;
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, random_local, rmat};

fn main() {
    println!("Ligra+ compressed graphs: space and algorithm parity\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>7}",
        "graph", "edges", "CSR bytes", "compressed", "ratio"
    );

    let inputs = [
        ("3d-grid(24)", grid3d(24)),
        ("random-local", random_local(50_000, 10, 1)),
        ("rMat(2^16)", rmat(&RmatOptions::paper(16))),
    ];

    for (name, g) in &inputs {
        let cg: CompressedGraph = CompressedGraph::from_graph(g);
        let (compressed, csr, ratio) = cg.space_vs_csr();
        println!(
            "{:<16} {:>10} {:>12} {:>12} {:>7.3}",
            name,
            g.num_edges(),
            csr,
            compressed,
            ratio
        );
    }

    // Algorithm parity: identical answers from both representations.
    let g = &inputs[2].1;
    let cg: CompressedGraph = CompressedGraph::from_graph(g);

    let unc = apps::bfs(g, 0);
    let com = apps::bfs(&cg, 0);
    assert_eq!(com.dist, unc.dist);
    assert_eq!(com.rounds, unc.rounds);
    println!(
        "\nBFS parity on rMat(2^16): {} rounds, {} reached — identical ✓",
        com.rounds, com.reached
    );

    let labels = apps::cc(&cg);
    assert_eq!(labels.label, apps::cc(g).label);
    println!("Components parity: {} components — identical ✓", labels.num_components());

    let pr_u = apps::pagerank(g, 0.85, 1e-9, 100);
    let pr_c = apps::pagerank(&cg, 0.85, 1e-9, 100);
    let l1: f64 = pr_u.rank.iter().zip(&pr_c.rank).map(|(a, b)| (a - b).abs()).sum();
    println!("PageRank parity: {} iterations, L1 divergence {l1:.2e} ✓", pr_c.iterations);
    assert!(l1 < 1e-8);
}
