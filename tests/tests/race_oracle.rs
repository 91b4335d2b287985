//! Certification of the eight application update functions under the
//! `edgeMap` race oracle, plus negative tests proving the oracle detects
//! contract-violating functions. Built only with `--features race-check`
//! (which forwards `ligra/race-check` and arms the traversal hooks).
//!
//! Win contracts (DESIGN.md §10):
//!
//! | app          | contract  | why                                          |
//! |--------------|-----------|----------------------------------------------|
//! | BFS          | Claim     | CAS-claims the parent slot                   |
//! | BC           | MultiWin  | backward sweep returns `true` per edge       |
//! | CC           | MultiWin  | `writeMin` can lower an ID repeatedly        |
//! | PageRank     | MultiWin  | `fetch_add` contribution per edge            |
//! | Radii        | Claim     | CAS installs the round number once per round |
//! | k-core       | MultiWin  | every degree decrement "wins"                |
//! | MIS          | Claim     | block/knockout Fs never return `true`        |
//! | Bellman–Ford | Claim     | `writeMin` gated by the per-round visited bit|
#![cfg(feature = "race-check")]

use ligra::stats::NoopRecorder;
use ligra::{
    edge_fn, EdgeMapOptions, RaceOracle, Traversal, VertexSubset, ViolationKind, WinContract,
};
use ligra_apps as apps;
use ligra_apps::seq;
use ligra_graph::generators::{erdos_renyi, random_weights, star};

/// Runs `work` with a panicking oracle attached to its options, then
/// asserts a clean certificate backed by real evidence (attempts and
/// rounds actually recorded).
fn certify(name: &str, n: usize, contract: WinContract, work: impl FnOnce(EdgeMapOptions)) {
    let oracle = RaceOracle::new(n, contract);
    work(EdgeMapOptions::default().race_oracle(&oracle));
    let report = oracle.certify().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.attempts > 0, "{name}: the oracle observed no update attempts");
    assert!(report.rounds > 0, "{name}: the oracle observed no rounds");
}

fn test_graph(seed: u64) -> ligra_graph::Graph {
    // Dense enough that Auto exercises both push and pull rounds.
    erdos_renyi(1500, 9000, seed, true)
}

#[test]
fn bfs_certifies_under_claim() {
    let g = test_graph(1);
    certify("bfs", g.num_vertices(), WinContract::Claim, |opts| {
        apps::bfs_with(&g, 0, opts).validate(&g, 0);
    });
}

#[test]
fn bc_certifies_under_multiwin() {
    let g = test_graph(2);
    certify("bc", g.num_vertices(), WinContract::MultiWin, |opts| {
        let _ = apps::bc_traced(&g, 0, opts, &mut NoopRecorder);
    });
}

#[test]
fn cc_certifies_under_multiwin() {
    let g = test_graph(3);
    certify("cc", g.num_vertices(), WinContract::MultiWin, |opts| {
        let r = apps::cc_traced(&g, opts, &mut NoopRecorder);
        assert_eq!(r.label, seq::seq_cc(&g));
    });
}

#[test]
fn pagerank_certifies_under_multiwin() {
    let g = test_graph(4);
    certify("pagerank", g.num_vertices(), WinContract::MultiWin, |opts| {
        let _ = apps::pagerank_traced(&g, 0.85, 1e-7, 30, opts, &mut NoopRecorder);
    });
}

#[test]
fn radii_certifies_under_claim() {
    let g = test_graph(5);
    certify("radii", g.num_vertices(), WinContract::Claim, |opts| {
        let _ = apps::radii_traced(&g, 5, opts, &mut NoopRecorder);
    });
}

#[test]
fn kcore_certifies_under_multiwin() {
    let g = test_graph(6);
    certify("kcore", g.num_vertices(), WinContract::MultiWin, |opts| {
        let _ = apps::kcore_traced(&g, opts, &mut NoopRecorder);
    });
}

#[test]
fn mis_certifies_under_claim() {
    let g = test_graph(7);
    certify("mis", g.num_vertices(), WinContract::Claim, |opts| {
        apps::mis_traced(&g, 7, opts, &mut NoopRecorder).validate(&g);
    });
}

#[test]
fn bellman_ford_certifies_under_claim() {
    let wg = random_weights(&test_graph(8), 100, 8);
    certify("bellman-ford", wg.num_vertices(), WinContract::Claim, |opts| {
        let r = apps::bellman_ford_traced(&wg, 0, opts, &mut NoopRecorder);
        assert_eq!(
            r.dist,
            seq::seq_bellman_ford(&wg, 0).expect("positive weights: no negative cycle")
        );
    });
}

#[test]
fn bfs_certifies_on_every_forced_traversal() {
    let g = erdos_renyi(800, 6000, 9, true);
    for t in Traversal::ALL {
        certify(&format!("bfs/{t}"), g.num_vertices(), WinContract::Claim, |opts| {
            apps::bfs_with(&g, 0, opts.traversal(t)).validate(&g, 0);
        });
    }
}

#[test]
fn reducing_apps_certify_through_the_dense_gather() {
    // Forced dense, every round of the four reducing apps is a gather:
    // one exclusive bracket per target around the whole fold, under the
    // same win contracts as their per-edge forms. PageRank shows which
    // path ran: three whole-`V` rounds are 3n brackets, not 3m.
    let g = test_graph(15);
    let n = g.num_vertices();
    fn dense(opts: EdgeMapOptions<'_>) -> EdgeMapOptions<'_> {
        opts.traversal(Traversal::Dense)
    }
    let oracle = RaceOracle::new(n, WinContract::MultiWin);
    let opts = dense(EdgeMapOptions::default().race_oracle(&oracle));
    let _ = apps::pagerank_traced(&g, 0.85, 0.0, 3, opts, &mut NoopRecorder);
    let report = oracle.certify().unwrap_or_else(|e| panic!("pagerank/dense: {e}"));
    assert_eq!((report.rounds, report.attempts), (3, 3 * n as u64));

    certify("cc/dense", n, WinContract::MultiWin, |opts| {
        assert_eq!(apps::cc_traced(&g, dense(opts), &mut NoopRecorder).label, seq::seq_cc(&g));
    });
    certify("bc/dense", n, WinContract::MultiWin, |opts| {
        let r = apps::bc_traced(&g, 0, dense(opts), &mut NoopRecorder);
        let want = seq::seq_brandes(&g, 0);
        assert!(r.dependencies.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9));
    });
    certify("radii/dense", n, WinContract::Claim, |opts| {
        let _ = apps::radii_traced(&g, 5, dense(opts), &mut NoopRecorder);
    });
}

#[test]
fn compressed_traversals_certify_under_claim() {
    use ligra_parallel::atomics::{as_atomic_u32, cas_u32};
    use std::sync::atomic::Ordering;

    let g = erdos_renyi(600, 4000, 10, true);
    let cg: ligra_compress::CompressedGraph = ligra_compress::CompressedGraph::from_graph(&g);
    let n = g.num_vertices();
    // Every forced policy: sparse and dense-forward go through the
    // atomic-entry hooks, dense and partitioned through the exclusive ones.
    for t in [Traversal::Sparse, Traversal::Dense, Traversal::DenseForward, Traversal::Partitioned]
    {
        let oracle = RaceOracle::new(n, WinContract::Claim);
        let mut parent = vec![u32::MAX; n];
        parent[0] = 0;
        {
            let cells = as_atomic_u32(&mut parent);
            let f = edge_fn(
                |u, v, _: ()| cas_u32(&cells[v as usize], u32::MAX, u),
                |v| cells[v as usize].load(Ordering::Relaxed) == u32::MAX,
            );
            let mut frontier = VertexSubset::single(n, 0);
            while !frontier.is_empty() {
                frontier = ligra::edge_map_with(
                    &cg,
                    &mut frontier,
                    &f,
                    EdgeMapOptions::default().traversal(t).race_oracle(&oracle),
                );
            }
        }
        let report = oracle.certify().unwrap_or_else(|e| panic!("compressed/{t}: {e}"));
        assert!(report.attempts > 0, "compressed/{t}: no attempts recorded");
    }
}

#[test]
fn adaptor_views_certify_on_every_forced_traversal() {
    // The views change which list a kernel reads, not the contract of
    // the function it applies: BC's backward sweep (MultiWin) runs over
    // `Transpose` of a directed compressed graph, Bellman-Ford (Claim)
    // over `UnitWeighted` of a CSR.
    let directed = erdos_renyi(600, 4000, 13, false);
    let cg: ligra_compress::CompressedGraph =
        ligra_compress::CompressedGraph::from_graph(&directed);
    let g = erdos_renyi(600, 4000, 14, true);
    let hops = seq::seq_bfs(&g, 0).0;
    for t in Traversal::ALL {
        certify(&format!("bc/transpose-compressed/{t}"), 600, WinContract::MultiWin, |opts| {
            let r = apps::bc_traced(&cg, 0, opts.traversal(t), &mut NoopRecorder);
            let want = seq::seq_brandes(&directed, 0);
            assert!(r.dependencies.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9));
        });
        certify(&format!("bellman-ford/unit-weighted/{t}"), 600, WinContract::Claim, |opts| {
            let view = ligra_graph::UnitWeighted(&g);
            let r = apps::bellman_ford_traced(&view, 0, opts.traversal(t), &mut NoopRecorder);
            assert!(r.dist.iter().zip(&hops).all(|(&d, &h)| d == h as i64 || h == seq::UNREACHED));
        });
    }
}

/// The deliberately racy update: claims every edge's target
/// unconditionally, the behavior of a plain-write (non-CAS) function
/// that believes it always "won". Two frontier sources sharing a target
/// expose it deterministically, even on a sequential pool.
#[test]
fn blind_true_update_fails_claim_certification() {
    let g = star(8); // hub 0, leaves 1..=7, symmetric
    let oracle = RaceOracle::deferred(8, WinContract::Claim);
    let f = edge_fn(|_, _, _: ()| true, |_| true);
    let mut frontier = VertexSubset::from_sparse(8, vec![1, 2]);
    let _ = ligra::edge_map_with(
        &g,
        &mut frontier,
        &f,
        EdgeMapOptions::default().traversal(Traversal::Sparse).race_oracle(&oracle),
    );
    let report = oracle.report();
    assert!(!report.is_clean(), "the racy update must fail certification");
    let v = report.violations[0];
    assert_eq!(v.kind, ViolationKind::DoubleWin);
    assert_eq!(v.target, 0, "both leaves push into the hub");
    let mut srcs = [v.first_src, v.second_src];
    srcs.sort_unstable();
    assert_eq!(srcs, [1, 2], "the report must name both conflicting sources");
}

#[test]
fn racy_update_is_caught_on_dense_forward_too() {
    let g = star(8);
    let oracle = RaceOracle::deferred(8, WinContract::Claim);
    let f = edge_fn(|_, _, _: ()| true, |_| true);
    let mut frontier = VertexSubset::from_sparse(8, vec![1, 2]);
    let _ = ligra::edge_map_with(
        &g,
        &mut frontier,
        &f,
        EdgeMapOptions::default().traversal(Traversal::DenseForward).race_oracle(&oracle),
    );
    let report = oracle.report();
    assert!(!report.is_clean());
    assert_eq!(report.violations[0].kind, ViolationKind::DoubleWin);
    assert_eq!(report.violations[0].target, 0);
}

#[test]
fn racy_update_is_caught_on_partitioned_gather_too() {
    // The partitioned gather drains each destination partition
    // sequentially, so its non-atomic updates can never overlap — but
    // the per-round win ledger still applies: a Claim function that
    // "wins" one target from two sources is caught, and the absence of
    // ExclusiveOverlap violations is exactly the partition-exclusive
    // write guarantee.
    let g = star(8);
    let oracle = RaceOracle::deferred(8, WinContract::Claim);
    let f = edge_fn(|_, _, _: ()| true, |_| true);
    let mut frontier = VertexSubset::from_sparse(8, vec![1, 2]);
    let _ = ligra::edge_map_with(
        &g,
        &mut frontier,
        &f,
        EdgeMapOptions::default().traversal(Traversal::Partitioned).race_oracle(&oracle),
    );
    let report = oracle.report();
    assert!(!report.is_clean());
    assert_eq!(report.violations[0].kind, ViolationKind::DoubleWin);
    assert_eq!(report.violations[0].target, 0);
    assert_eq!(report.overlaps, 0, "gather must never overlap exclusive entries");
}

#[test]
#[should_panic(expected = "both won target")]
fn panicking_oracle_aborts_inside_edge_map() {
    let g = star(8);
    let oracle = RaceOracle::new(8, WinContract::Claim);
    let f = edge_fn(|_, _, _: ()| true, |_| true);
    let mut frontier = VertexSubset::from_sparse(8, vec![1, 2]);
    let _ = ligra::edge_map_with(
        &g,
        &mut frontier,
        &f,
        EdgeMapOptions::default().traversal(Traversal::Sparse).race_oracle(&oracle),
    );
}

#[test]
fn multiwin_contract_accepts_the_blind_update() {
    // The same function is legal under MultiWin: repeated wins per
    // target per round are its declared behavior.
    let g = star(8);
    let oracle = RaceOracle::new(8, WinContract::MultiWin);
    let f = edge_fn(|_, _, _: ()| true, |_| true);
    let mut frontier = VertexSubset::from_sparse(8, vec![1, 2]);
    let _ = ligra::edge_map_with(
        &g,
        &mut frontier,
        &f,
        EdgeMapOptions::default().traversal(Traversal::Sparse).race_oracle(&oracle),
    );
    let report = oracle.certify().expect("MultiWin allows repeated wins");
    assert_eq!(report.wins, 2);
}

#[test]
fn certification_survives_real_parallel_contention() {
    // On a real rayon pool the push rounds genuinely interleave; on the
    // offline sequential stub this large run adds nothing, so skip it.
    if !ligra_parallel::utils::pool_is_parallel(4) {
        eprintln!("skipping: rayon pool is sequential");
        return;
    }
    let g = erdos_renyi(20_000, 200_000, 11, true);
    certify("bfs-parallel", g.num_vertices(), WinContract::Claim, |opts| {
        apps::bfs_with(&g, 0, opts).validate(&g, 0);
    });
}

#[test]
fn partitioned_certification_survives_real_parallel_contention() {
    // Forces every round through scatter/gather on a graph large enough
    // that the ~79 partitions (2^8 vertices each) are drained by
    // concurrent gather tasks: certifies both the Claim ledger and the
    // exclusive-entry contract under a genuinely parallel pool.
    if !ligra_parallel::utils::pool_is_parallel(4) {
        eprintln!("skipping: rayon pool is sequential");
        return;
    }
    let g = erdos_renyi(20_000, 200_000, 12, true);
    let oracle = RaceOracle::new(g.num_vertices(), WinContract::Claim);
    apps::bfs_with(
        &g,
        0,
        EdgeMapOptions::default()
            .traversal(Traversal::Partitioned)
            .partition_bits(8)
            .race_oracle(&oracle),
    )
    .validate(&g, 0);
    let report = oracle.certify().unwrap_or_else(|e| panic!("bfs-partitioned-parallel: {e}"));
    assert!(report.attempts > 0, "the oracle observed no update attempts");
    assert_eq!(report.overlaps, 0, "partition-exclusive gather writes must never overlap");
}
