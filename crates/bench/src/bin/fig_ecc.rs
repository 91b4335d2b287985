//! **Eccentricity-estimator comparison** (extension reproduction of
//! Shun, KDD 2015) — accuracy and time of the three estimators against
//! exact eccentricities.
//!
//! Shape to check (the study's conclusion): the two-pass 64-way multi-BFS
//! dominates — near-zero mean relative error at a fraction of the exact
//! computation's cost — while the 2-approximation is cheapest and
//! coarsest; one-pass kBFS sits in between.

use ligra_apps::eccentricity::{k_bfs_two_pass, mean_relative_error, two_approx};
use ligra_apps::radii;
use ligra_apps::seq::seq_eccentricities;
use ligra_bench::{fmt_secs, inputs, time_best, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("Eccentricity estimators vs exact (scale = {scale:?})");
    println!(
        "{:<14} {:>12} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "input", "exact time", "2approx", "err", "kBFS", "err", "kBFS-2p", "err"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        if !g.is_symmetric() {
            continue;
        }
        // Exact ground truth is O(n·m): restrict to inputs where that is
        // a few seconds (e.g. the full suite at LIGRA_SCALE=tiny).
        if g.num_vertices() as u64 * g.num_edges() as u64 > 2_000_000_000 {
            println!(
                "{:<14} {:>12}   (skipped: exact ground truth is O(n*m); use LIGRA_SCALE=tiny)",
                input.name, "-"
            );
            continue;
        }
        let (truth, t_exact) = ligra_bench::time(|| seq_eccentricities(g));

        let t_2a = time_best(1, || two_approx(g));
        let e_2a = mean_relative_error(&two_approx(g), &truth);

        let t_k1 = time_best(1, || radii(g, 7));
        let e_k1 = mean_relative_error(&radii(g, 7).radii, &truth);

        let t_k2 = time_best(1, || k_bfs_two_pass(g, 7));
        let e_k2 = mean_relative_error(&k_bfs_two_pass(g, 7).radii, &truth);

        println!(
            "{:<14} {:>12} | {:>9} {:>8.1}% | {:>9} {:>8.1}% | {:>9} {:>8.1}%",
            input.name,
            fmt_secs(t_exact),
            fmt_secs(t_2a),
            e_2a * 100.0,
            fmt_secs(t_k1),
            e_k1 * 100.0,
            fmt_secs(t_k2),
            e_k2 * 100.0,
        );
    }
    println!("\nexpected shape: err(kBFS-2pass) <= err(kBFS) << err(2approx),");
    println!("all at a small fraction of the exact computation's time.");
}
