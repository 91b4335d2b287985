//! **Ligra+ table** (extension reproduction, DCC 2015) — space and time
//! of the compressed representation vs the uncompressed CSR.
//!
//! Ligra+'s headline result: difference-encoded graphs use about half the
//! space of the plain CSR and run the same applications at comparable
//! speed (slightly faster on big machines thanks to reduced memory
//! traffic; expect a modest decode overhead on a laptop). Both columns run
//! the *same* `ligra_apps` code — only the `Neighbors` representation
//! handed to it differs. Shape to check:
//! ratio well below 1 everywhere, smallest on high-locality inputs
//! (3d-grid), and BFS/PageRank times within a small factor of
//! uncompressed.

use ligra_apps as apps;
use ligra_bench::{fmt_secs, inputs, time_best, Scale};
use ligra_compress::{ByteCode, ByteRleCode, Codec, CompressedGraph, NibbleCode};

/// One codec's space ratio and BFS time on a graph.
fn codec_row<C: Codec>(g: &ligra_graph::Graph, source: u32) -> (f64, f64) {
    let cg: CompressedGraph<C> = CompressedGraph::from_graph(g);
    let (_, _, ratio) = cg.space_vs_csr();
    let bfs = time_best(3, || apps::bfs(&cg, source));
    (ratio, bfs)
}

fn main() {
    let scale = Scale::from_env();
    println!("Ligra+ reproduction: compressed vs uncompressed (scale = {scale:?})");
    println!(
        "{:<14} {:>12} {:>12} {:>7} | {:>10} {:>10} | {:>10} {:>10}",
        "input", "CSR bytes", "compressed", "ratio", "BFS", "BFS(C)", "PR(1)", "PR(1,C)"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        let cg: CompressedGraph = CompressedGraph::from_graph(g);
        let (compressed, csr, ratio) = cg.space_vs_csr();

        let bfs_u = time_best(3, || apps::bfs(g, input.source));
        let bfs_c = time_best(3, || apps::bfs(&cg, input.source));
        let pr_u = time_best(3, || apps::pagerank(g, 0.85, 0.0, 1));
        let pr_c = time_best(3, || apps::pagerank(&cg, 0.85, 0.0, 1));

        println!(
            "{:<14} {:>12} {:>12} {:>7.3} | {:>10} {:>10} | {:>10} {:>10}",
            input.name,
            csr,
            compressed,
            ratio,
            fmt_secs(bfs_u),
            fmt_secs(bfs_c),
            fmt_secs(pr_u),
            fmt_secs(pr_c),
        );
    }
    println!("\nexpected shape: ratio < 1 everywhere (paper: ~0.5 on average);");
    println!("compressed traversal within a small factor of uncompressed.");

    // Codec comparison (the DCC'15 paper's byte vs nibble vs byte-RLE
    // table): nibble smallest / slowest, byte the sweet spot, RLE fastest
    // decode at slightly more space than nibble.
    println!("\nCodec comparison (space ratio vs CSR | BFS time):");
    println!(
        "{:<14} {:>8} {:>10} | {:>8} {:>10} | {:>8} {:>10}",
        "input", "byte", "BFS", "nibble", "BFS", "byte-rle", "BFS"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        let (rb, tb) = codec_row::<ByteCode>(g, input.source);
        let (rn, tn) = codec_row::<NibbleCode>(g, input.source);
        let (rr, tr) = codec_row::<ByteRleCode>(g, input.source);
        println!(
            "{:<14} {:>8.3} {:>10} | {:>8.3} {:>10} | {:>8.3} {:>10}",
            input.name,
            rb,
            fmt_secs(tb),
            rn,
            fmt_secs(tn),
            rr,
            fmt_secs(tr),
        );
    }
}
