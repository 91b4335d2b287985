//! **Figure F2 / ablation A1** — direction optimization.
//!
//! Total running time of BFS and Components under the five traversal
//! policies: the paper's hybrid (auto) heuristic, sparse-only (what
//! push-based frameworks like Pregel/GraphLab do), dense-only,
//! dense-forward-only, and the cache-aware partitioned scatter/gather
//! (forced-only, like dense-forward: auto picks sparse or dense). The
//! paper's shape: hybrid ≈ best-of-both; on low-diameter inputs (rMat)
//! hybrid beats sparse-only by a large factor, on high-diameter inputs
//! dense-only loses badly because every one of the many rounds pays
//! O(n + m).
//!
//! The timed runs are untraced (tracing off is the zero-overhead path the
//! numbers must reflect). A separate traced BFS run per policy is then
//! used to attribute wall-clock to each traversal mode — the per-mode
//! breakdown that explains *why* hybrid wins — and to price auto against
//! a per-round oracle: BFS levels are the same sets under every policy,
//! so the oracle's total is, level by level, the fastest forced policy's
//! round.

use ligra::stats::{Mode, Op, RoundStat};
use ligra::{EdgeMapOptions, Traversal, TraversalStats};
use ligra_apps as apps;
use ligra_bench::{fmt_secs, inputs, time_best, Scale};

/// All five policies, canonical order and names (`Traversal::ALL`; the
/// paper's hybrid heuristic is `auto`).
const POLICIES: [Traversal; 5] = Traversal::ALL;

/// The `edgeMap` rounds of one traced BFS run.
fn traced_rounds(g: &ligra_graph::Graph, source: u32, t: Traversal) -> Vec<RoundStat> {
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(g, source, EdgeMapOptions::new().traversal(t), &mut stats);
    stats.rounds.into_iter().filter(|r| r.op == Op::EdgeMap).collect()
}

/// Per-mode round counts and telemetry-timed totals, then the edges the
/// run scanned and the bytes it binned.
fn mode_breakdown(rounds: &[RoundStat]) -> String {
    let mut cells = Vec::new();
    let kinds = [
        ("s", Mode::Sparse),
        ("d", Mode::Dense),
        ("f", Mode::DenseForward),
        ("p", Mode::Partitioned),
    ];
    for (name, mode) in kinds {
        let in_mode: Vec<_> = rounds.iter().filter(|r| r.mode == mode).collect();
        if !in_mode.is_empty() {
            let ns: u64 = in_mode.iter().map(|r| r.time_ns).sum();
            cells.push(format!("{}:{}r/{:.1}ms", name, in_mode.len(), ns as f64 / 1e6));
        }
    }
    cells.push(format!("scanned:{}", rounds.iter().map(|r| r.edges_scanned).sum::<u64>()));
    cells.push(format!("scatter:{}B", rounds.iter().map(|r| r.scatter_bytes).sum::<u64>()));
    cells.join(" ")
}

fn main() {
    let scale = Scale::from_env();
    println!("Figure F2: traversal-policy ablation (scale = {scale:?})");
    println!(
        "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>13} {:>22}",
        "input",
        "app",
        POLICIES[0].name(),
        POLICIES[1].name(),
        POLICIES[2].name(),
        POLICIES[3].name(),
        POLICIES[4].name(),
        "auto vs sparse"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        let mut row = Vec::new();
        for t in POLICIES {
            let opts = EdgeMapOptions::new().traversal(t);
            let secs = time_best(3, || apps::bfs_with(g, input.source, opts));
            row.push(secs);
        }
        println!(
            "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>13} {:>21.2}x",
            input.name,
            "BFS",
            fmt_secs(row[0]),
            fmt_secs(row[1]),
            fmt_secs(row[2]),
            fmt_secs(row[3]),
            fmt_secs(row[4]),
            row[1] / row[0]
        );

        if g.is_symmetric() {
            let mut row = Vec::new();
            for t in POLICIES {
                let opts = EdgeMapOptions::new().traversal(t);
                let secs = time_best(2, || apps::cc_traced(g, opts, &mut ligra::NoopRecorder));
                row.push(secs);
            }
            println!(
                "{:<14} {:<12} {:>12} {:>13} {:>12} {:>13} {:>13} {:>21.2}x",
                input.name,
                "Components",
                fmt_secs(row[0]),
                fmt_secs(row[1]),
                fmt_secs(row[2]),
                fmt_secs(row[3]),
                fmt_secs(row[4]),
                row[1] / row[0]
            );
        }
    }

    println!("\nPer-mode time attribution for BFS (from exported traces; r=rounds):");
    for input in inputs(scale) {
        // Auto is traced first: bring the graph back into cache so it is
        // not charged the misses the previous input's runs left behind.
        let _ = apps::bfs(&input.graph, input.source);
        let traces = POLICIES.map(|t| traced_rounds(&input.graph, input.source, t));
        for (t, rounds) in POLICIES.iter().zip(&traces) {
            println!("{:<14} {:<12} {}", input.name, t.name(), mode_breakdown(rounds));
        }
        let (auto, forced) = traces.split_first().expect("auto is POLICIES[0]");
        let auto_ns: u64 = auto.iter().map(|r| r.time_ns).sum();
        let oracle_ns: u64 = (0..auto.len())
            .map(|level| forced.iter().map(|rounds| rounds[level].time_ns).min().unwrap_or(0))
            .sum();
        println!(
            "{:<14} {:<12} auto {:.1}ms / best forced round per level {:.1}ms = {:.2}x",
            input.name,
            "oracle",
            auto_ns as f64 / 1e6,
            oracle_ns as f64 / 1e6,
            auto_ns as f64 / oracle_ns.max(1) as f64
        );
    }

    println!("\nexpected shape: auto (hybrid) <= min(sparse, dense) within noise;");
    println!("auto wins big over sparse on rMat, ties it on high-diameter inputs.");
}
