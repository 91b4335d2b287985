//! **Figure F1** — frontier dynamics.
//!
//! Per `edgeMap` round: frontier size in vertices, frontier size in
//! out-edges, the heuristic's `work` input against its threshold, the
//! traversal direction chosen, representation conversions, wall-clock, and
//! the contention counters. The paper's figure shows rMat frontiers
//! exploding within a few rounds (where the framework flips to the
//! dense/pull direction) and collapsing at the end; the 3d-grid stays
//! small and sparse throughout.
//!
//! Set `LIGRA_TRACE_DIR` to also write each trace as a `.jsonl` file in
//! that directory — the same rows, in the format `ligra::trace` documents.

use ligra::stats::Op;
use ligra::{save_jsonl, summary, EdgeMapOptions, TraversalStats};
use ligra_apps as apps;
use ligra_bench::{inputs, Scale};

/// Renders the per-round table of `stats` (optionally saving its export
/// under `trace_dir`).
fn print_trace(label: &str, slug: &str, stats: &TraversalStats, trace_dir: Option<&str>) {
    if let Some(dir) = trace_dir {
        match save_jsonl(std::path::Path::new(dir), slug, stats) {
            Ok(path) => println!("[trace written to {}]", path.display()),
            Err(e) => eprintln!("[trace {e}]"),
        }
    }

    println!("\n{label}");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>10} {:>5} {:>10} {:>11} {:>11} {:>11}",
        "round",
        "vertices",
        "out-edges",
        "work",
        "threshold",
        "mode",
        "conv",
        "time_us",
        "cas_win",
        "scanned",
        "skipped"
    );
    for (i, r) in stats.rounds.iter().enumerate() {
        if r.op != Op::EdgeMap {
            continue;
        }
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>12} {:>10} {:>5} {:>10} {:>11} {:>11} {:>11}",
            i + 1,
            r.frontier_vertices,
            r.frontier_out_edges,
            r.work,
            r.threshold,
            r.mode.to_string(),
            if r.converted { "*" } else { "" },
            r.time_ns / 1_000,
            format!("{}/{}", r.cas_wins, r.cas_attempts),
            r.edges_scanned,
            r.edges_skipped,
        );
    }
    println!("{}", summary(stats));
}

fn main() {
    let scale = Scale::from_env();
    let trace_dir = std::env::var("LIGRA_TRACE_DIR").ok();
    let trace_dir = trace_dir.as_deref();
    println!("Figure F1: per-round frontier sizes and traversal modes (scale = {scale:?})");
    for input in inputs(scale) {
        let g = &input.graph;
        let m = g.num_edges();
        let mut stats = TraversalStats::new();
        let _ = apps::bfs_traced(g, input.source, EdgeMapOptions::default(), &mut stats);
        print_trace(
            &format!("BFS on {} (m = {m}, dense threshold = m/20 = {})", input.name, m / 20),
            &format!("bfs-{}", input.name),
            &stats,
            trace_dir,
        );

        if g.is_symmetric() {
            let mut stats = TraversalStats::new();
            let _ = apps::cc_traced(g, EdgeMapOptions::default(), &mut stats);
            print_trace(
                &format!("Components on {}", input.name),
                &format!("cc-{}", input.name),
                &stats,
                trace_dir,
            );
        }

        let mut stats = TraversalStats::new();
        let _ = apps::bc_traced(g, input.source, EdgeMapOptions::default(), &mut stats);
        print_trace(
            &format!("BC (fwd+back) on {}", input.name),
            &format!("bc-{}", input.name),
            &stats,
            trace_dir,
        );
    }
}
