//! Sequential reference implementations.
//!
//! Textbook single-threaded algorithms used (a) as ground truth in the
//! test suite and (b) as honest single-thread baselines for the Table 2
//! harness — the paper's "(1)" columns are plain sequential codes, not the
//! parallel codes pinned to one thread.
//! They stay on `&Graph`: a reference shares no code path — not even
//! the `Neighbors` iterators — with what it checks.

use ligra_graph::{Graph, VertexId, WeightedGraph};
use ligra_parallel::checked_u32;
use std::collections::VecDeque;

/// Unreached marker for BFS distances/parents.
pub const UNREACHED: u32 = u32::MAX;

/// Sequential BFS: returns `(dist, parent)` arrays.
pub fn seq_bfs(g: &Graph, source: VertexId) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    parent[source as usize] = source;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Sequential connected components by union-find with path compression
/// and union by smaller root ID, relabeled so each vertex gets the minimum
/// vertex ID of its component (the same canonical labeling the parallel
/// algorithm converges to).
pub fn seq_cc(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut uf: Vec<u32> = (0..checked_u32(n)).collect();

    fn find(uf: &mut [u32], mut x: u32) -> u32 {
        while uf[x as usize] != x {
            let gp = uf[uf[x as usize] as usize];
            uf[x as usize] = gp;
            x = gp;
        }
        x
    }

    for u in 0..checked_u32(n) {
        for &v in g.out_neighbors(u) {
            let ru = find(&mut uf, u);
            let rv = find(&mut uf, v);
            if ru != rv {
                // Union by smaller ID keeps the min-ID root invariant.
                if ru < rv {
                    uf[rv as usize] = ru;
                } else {
                    uf[ru as usize] = rv;
                }
            }
        }
    }
    (0..checked_u32(n)).map(|v| find(&mut uf, v)).collect()
}

/// Sequential PageRank with the paper's update rule (uniform start,
/// damping `alpha`, **no** dangling-mass redistribution, matching the
/// original Ligra's `PageRank.C`). Stops when the L1 change drops below
/// `eps` or after `max_iters` iterations. Returns `(ranks, iterations)`.
pub fn seq_pagerank(g: &Graph, alpha: f64, eps: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    let mut p = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - alpha) / n as f64;
    for iter in 1..=max_iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..checked_u32(n) {
            let deg = g.out_degree(u);
            if deg > 0 {
                let share = p[u as usize] / deg as f64;
                for &v in g.out_neighbors(u) {
                    next[v as usize] += share;
                }
            }
        }
        let mut err = 0.0;
        for v in 0..n {
            next[v] = base + alpha * next[v];
            err += (next[v] - p[v]).abs();
        }
        std::mem::swap(&mut p, &mut next);
        if err < eps {
            return (p, iter);
        }
    }
    (p, max_iters)
}

/// Sequential Bellman–Ford. Returns `None` when a negative cycle is
/// reachable from the source, otherwise the distance array
/// (`i64::MAX` = unreachable).
pub fn seq_bellman_ford(g: &WeightedGraph, source: VertexId) -> Option<Vec<i64>> {
    let n = g.num_vertices();
    let mut dist = vec![i64::MAX; n];
    dist[source as usize] = 0;
    for round in 0..n {
        let mut changed = false;
        for u in 0..checked_u32(n) {
            let du = dist[u as usize];
            if du == i64::MAX {
                continue;
            }
            let ns = g.out_neighbors(u);
            let ws = g.out_weights(u);
            for (i, &v) in ns.iter().enumerate() {
                let nd = du + ws[i] as i64;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == n - 1 {
            return None; // still relaxing after n rounds: negative cycle
        }
    }
    Some(dist)
}

/// Sequential Brandes betweenness from one source (unweighted): returns
/// the dependency scores `delta[v]` for all `v` (the contribution of
/// shortest paths from `source` to each vertex's betweenness).
pub fn seq_brandes(g: &Graph, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![UNREACHED; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    sigma[source as usize] = 1.0;
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let du = dist[u as usize];
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == du + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }

    let mut delta = vec![0.0f64; n];
    for &u in order.iter().rev() {
        let du = dist[u as usize];
        for &v in g.out_neighbors(u) {
            if dist[v as usize] == du + 1 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::random_weights;
    use ligra_graph::generators::{cycle, path};
    use ligra_graph::{build_graph, build_weighted_graph, BuildOptions};

    #[test]
    fn seq_bfs_on_path() {
        let g = path(5);
        let (dist, parent) = seq_bfs(&g, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(parent, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn seq_cc_labels_are_component_minima() {
        let g = build_graph(6, &[(5, 4), (4, 3), (0, 1)], BuildOptions::symmetric());
        assert_eq!(seq_cc(&g), vec![0, 0, 2, 3, 3, 3]);
    }

    #[test]
    fn seq_pagerank_sums_below_one_without_dangling_fix() {
        // Star with directed edges 0 -> i: leaves are dangling, so total
        // mass leaks (Ligra semantics).
        let edges: Vec<(u32, u32)> = (1..5).map(|i| (0, i)).collect();
        let g = build_graph(5, &edges, BuildOptions::directed());
        let (p, _) = seq_pagerank(&g, 0.85, 1e-12, 100);
        let total: f64 = p.iter().sum();
        assert!(total < 1.0);
        assert!(p[1] > p[0], "leaves receive rank from the hub");
    }

    #[test]
    fn seq_pagerank_uniform_on_cycle() {
        let g = cycle(10);
        let (p, iters) = seq_pagerank(&g, 0.85, 1e-12, 200);
        assert!(iters < 200);
        for &x in &p {
            assert!((x - 0.1).abs() < 1e-9, "cycle PageRank must be uniform, got {x}");
        }
    }

    #[test]
    fn seq_bellman_ford_simple() {
        let g = build_weighted_graph(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3)],
            &[1, 1, 5, 2],
            BuildOptions::directed(),
        );
        let d = seq_bellman_ford(&g, 0).unwrap();
        assert_eq!(d, vec![0, 1, 2, 4]);
    }

    #[test]
    fn seq_bellman_ford_negative_edge_ok_cycle_detected() {
        let ok = build_weighted_graph(3, &[(0, 1), (1, 2)], &[-5, 2], BuildOptions::directed());
        assert_eq!(seq_bellman_ford(&ok, 0).unwrap(), vec![0, -5, -3]);

        let neg = build_weighted_graph(
            3,
            &[(0, 1), (1, 2), (2, 0)],
            &[1, -3, 1],
            BuildOptions::directed(),
        );
        assert!(seq_bellman_ford(&neg, 0).is_none());
    }

    #[test]
    fn seq_brandes_on_path() {
        // Path 0-1-2-3: from source 0, delta[1] counts paths through it
        // to 2 and 3 => 2; delta[2] => 1; delta[3] => 0.
        let g = path(4);
        let d = seq_brandes(&g, 0);
        assert_eq!(d, vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn random_weights_dont_break_reference_sssp() {
        let g = random_weights(&cycle(12), 9, 3);
        let d = seq_bellman_ford(&g, 0).unwrap();
        assert_eq!(d[0], 0);
        assert!(d.iter().all(|&x| x != i64::MAX));
    }
}
