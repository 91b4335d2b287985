//! Cross-crate integration: traversal policies are interchangeable
//! (same results, different schedules) and deterministic algorithms give
//! bit-identical answers across repeated runs.

use ligra::{EdgeMapOptions, Traversal, TraversalStats};
use ligra_apps as apps;
use ligra_graph::generators::rmat::RmatOptions;
use ligra_graph::generators::{grid3d, random_local, random_weights, rmat};

#[test]
fn repeated_runs_are_identical() {
    let g = rmat(&RmatOptions::paper(11));
    let wg = random_weights(&g, 20, 1);

    let b1 = apps::bfs(&g, 0);
    let b2 = apps::bfs(&g, 0);
    // Distances are deterministic (parents may differ between runs —
    // whichever CAS wins — which is the paper's behaviour as well).
    assert_eq!(b1.dist, b2.dist);

    assert_eq!(apps::cc(&g).label, apps::cc(&g).label);
    assert_eq!(apps::bellman_ford(&wg, 0).dist, apps::bellman_ford(&wg, 0).dist);
    assert_eq!(apps::radii(&g, 5).radii, apps::radii(&g, 5).radii);
}

#[test]
fn every_app_is_traversal_invariant() {
    let g = random_local(3000, 6, 13);
    let wg = random_weights(&g, 30, 2);
    let auto_bfs = apps::bfs(&g, 1);
    let auto_cc = apps::cc(&g);
    let auto_bf = apps::bellman_ford(&wg, 1);
    let auto_radii = apps::radii(&g, 3);
    let auto_bc = apps::bc(&g, 1);

    for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
    {
        let opts = EdgeMapOptions::new().traversal(t);
        let mut s = TraversalStats::new();
        assert_eq!(apps::bfs_with(&g, 1, opts).dist, auto_bfs.dist, "{t:?}");
        assert_eq!(apps::cc_traced(&g, opts, &mut s).label, auto_cc.label, "{t:?}");
        assert_eq!(apps::bellman_ford_traced(&wg, 1, opts, &mut s).dist, auto_bf.dist, "{t:?}");
        assert_eq!(apps::radii_traced(&g, 3, opts, &mut s).radii, auto_radii.radii, "{t:?}");
        let bc = apps::bc_traced(&g, 1, opts, &mut s);
        for v in 0..g.num_vertices() {
            assert!(
                (bc.dependencies[v] - auto_bc.dependencies[v]).abs() < 1e-8,
                "{t:?} vertex {v}"
            );
        }
    }
}

#[test]
fn traced_rounds_account_for_all_frontier_work() {
    let g = rmat(&RmatOptions::paper(11));
    let mut stats = TraversalStats::new();
    let result = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    let rounds: Vec<_> = stats.edge_map_rounds().copied().collect();
    assert_eq!(rounds.len(), result.rounds);
    // Output of round k is the frontier of round k+1.
    for w in rounds.windows(2) {
        assert_eq!(w[0].output_vertices, w[1].frontier_vertices);
    }
    // Total vertices entering frontiers equals reached count (source
    // enters externally, each other reached vertex exactly once).
    let total: u64 = rounds.iter().map(|r| r.output_vertices).sum();
    assert_eq!(total as usize, result.reached - 1);
}

#[test]
fn direction_heuristic_picks_dense_only_above_threshold() {
    let g = rmat(&RmatOptions::paper(12));
    let m = g.num_edges() as u64;
    let mut stats = TraversalStats::new();
    let _ = apps::bfs_traced(&g, 0, EdgeMapOptions::default(), &mut stats);
    for (i, r) in stats.edge_map_rounds().enumerate() {
        // The recorded heuristic inputs must be internally consistent...
        assert_eq!(r.work, r.frontier_vertices + r.frontier_out_edges, "round {i}");
        assert_eq!(r.threshold, m / 20, "round {i}");
        assert!(!r.forced, "Auto rounds must not be marked forced");
        // ...and must explain the decision: dense ⇔ work > threshold.
        let got_dense = r.mode == ligra::Mode::Dense;
        assert_eq!(
            r.work > r.threshold,
            got_dense,
            "round {i}: work {} vs {}",
            r.work,
            r.threshold
        );
    }
}

#[test]
fn grid_has_many_more_rounds_than_rmat() {
    // The structural fact behind the paper's per-graph results: diameter.
    let grid = grid3d(16);
    let rm = rmat(&RmatOptions::paper(12));
    let grid_rounds = apps::bfs(&grid, 0).rounds;
    let rmat_rounds = apps::bfs(&rm, 0).rounds;
    assert!(grid_rounds >= 3 * rmat_rounds, "grid {grid_rounds} rounds vs rMat {rmat_rounds}");
}
