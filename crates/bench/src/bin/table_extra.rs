//! **Extension table** — the two applications of the official Ligra
//! release beyond the paper's six that the engine also serves (k-core,
//! MIS), with sequential baselines.

use ligra_apps as apps;
use ligra_bench::{fmt_secs, inputs, time_best, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("Extension applications (scale = {scale:?})");
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9}  result",
        "input", "application", "sequential", "parallel", "speedup"
    );
    for input in inputs(scale) {
        let g = &input.graph;
        if !g.is_symmetric() {
            continue; // both extensions are undirected-graph algorithms
        }

        let seq = time_best(2, || apps::kcore::seq_kcore(g));
        let par = time_best(2, || apps::kcore(g));
        let r = apps::kcore(g);
        println!(
            "{:<14} {:<16} {:>12} {:>12} {:>8.2}x  degeneracy = {}",
            input.name,
            "k-core",
            fmt_secs(seq),
            fmt_secs(par),
            seq / par,
            r.max_core
        );

        let seq = time_best(2, || apps::mis::seq_mis(g));
        let par = time_best(2, || apps::mis(g, 7));
        let r = apps::mis(g, 7);
        println!(
            "{:<14} {:<16} {:>12} {:>12} {:>8.2}x  |MIS| = {} in {} rounds",
            input.name,
            "MIS",
            fmt_secs(seq),
            fmt_secs(par),
            seq / par,
            r.size(),
            r.rounds
        );
    }
}
