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
use ligra_graph::{Graph, UnitWeighted};

/// One codec's space ratio and its BFS, BC and unit-weight Bellman-Ford
/// times on a graph: BC walks the compressed in-lists through `Transpose`
/// and Bellman-Ford the out-lists through `UnitWeighted`, so both views
/// run over streamed lists here.
fn codec_row<C: Codec>(g: &Graph, source: u32) -> (f64, [f64; 3]) {
    let cg: CompressedGraph<C> = CompressedGraph::from_graph(g);
    let (_, _, ratio) = cg.space_vs_csr();
    let bfs = time_best(3, || apps::bfs(&cg, source));
    let bc = time_best(3, || apps::bc(&cg, source));
    let bf = time_best(3, || apps::bellman_ford(&UnitWeighted(&cg), source));
    (ratio, [bfs, bc, bf])
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
    println!("\nCodec comparison (space ratio vs CSR | BFS, BC, unit-weight Bellman-Ford time):");
    println!(
        "{:<14} {:<9} {:>8} {:>10} {:>10} {:>10}",
        "input", "codec", "ratio", "BFS", "BC", "BF(unit)"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        let rows = [
            (ByteCode::NAME, codec_row::<ByteCode>(g, input.source)),
            (NibbleCode::NAME, codec_row::<NibbleCode>(g, input.source)),
            (ByteRleCode::NAME, codec_row::<ByteRleCode>(g, input.source)),
        ];
        for (codec, (ratio, [bfs, bc, bf])) in rows {
            println!(
                "{:<14} {:<9} {:>8.3} {:>10} {:>10} {:>10}",
                input.name,
                codec,
                ratio,
                fmt_secs(bfs),
                fmt_secs(bc),
                fmt_secs(bf),
            );
        }
    }
}
