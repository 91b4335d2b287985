//! Parallel graph construction from edge lists.
//!
//! Every CSR — a built graph's lists and a
//! [`transpose`](crate::csr::transpose)'s — comes out of one counting-sort
//! routine, the PBBS `graphIO` pipeline Ligra's inputs go through, with no
//! intermediate arc list:
//!
//! 1. count each vertex's arcs straight off the input (both directions of
//!    an edge when symmetrizing), one count array per block of the input;
//! 2. prefix-sum the counts into offsets, and each block's counts into its
//!    own cursors;
//! 3. scatter each arc into the final `targets` at its block's cursor, and
//!    its weight into `weights` only when `W` is not zero-sized;
//! 4. sort each list by `(target, weight)`, so the result does not depend
//!    on the scatter order.
//!
//! The builder then optionally deduplicates each list in place (keeping
//! the first — smallest — weight of a run) and compacts the lists toward
//! lower offsets in one move. A directed graph's in-CSR is the transpose
//! of its finished out-CSR ([`Graph::directed_from_out`]).

use crate::csr::{Adjacency, Graph, VertexId};
use ligra_parallel::atomics::as_atomic_u32;
use ligra_parallel::scan::prefix_sums;
use ligra_parallel::utils::{block_range, num_threads, SendPtr};
use rayon::prelude::*;
use std::sync::atomic::Ordering;

/// Options controlling [`build_graph`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Add the reverse of every edge and mark the graph symmetric.
    pub symmetrize: bool,
    /// Drop `(u, u)` edges.
    pub remove_self_loops: bool,
    /// Drop repeated `(u, v)` pairs (keeps the first weight for weighted
    /// graphs — after sorting, the smallest weight).
    pub dedup: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: true, dedup: true }
    }
}

impl BuildOptions {
    /// Options producing a symmetric (undirected) graph.
    pub fn symmetric() -> Self {
        BuildOptions { symmetrize: true, ..Default::default() }
    }

    /// Options producing a directed graph (with transpose).
    pub fn directed() -> Self {
        BuildOptions::default()
    }

    /// Keep the edge list exactly as given (multi-edges and loops survive).
    pub fn raw_directed() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: false, dedup: false }
    }
}

/// Builds an unweighted graph from `(source, target)` pairs.
///
/// Directed inputs get their transpose built automatically so the dense
/// (pull) traversal has in-edges to walk.
///
/// # Panics
/// Panics if any endpoint is `>= n`.
pub fn build_graph(n: usize, edges: &[(VertexId, VertexId)], opts: BuildOptions) -> Graph {
    let unit = vec![(); edges.len()];
    build_generic(n, edges, &unit, opts)
}

/// Builds a weighted graph from `(source, target)` pairs plus one weight
/// per edge.
///
/// # Panics
/// Panics if `weights.len() != edges.len()` or any endpoint is `>= n`.
pub fn build_weighted_graph(
    n: usize,
    edges: &[(VertexId, VertexId)],
    weights: &[i32],
    opts: BuildOptions,
) -> Graph<i32> {
    assert_eq!(edges.len(), weights.len(), "one weight per edge");
    build_generic(n, edges, weights, opts)
}

fn build_generic<W: Copy + Send + Sync + Ord>(
    n: usize,
    edges: &[(VertexId, VertexId)],
    weights: &[W],
    opts: BuildOptions,
) -> Graph<W> {
    validate_endpoints(n, edges);
    let BuildOptions { symmetrize, remove_self_loops, dedup } = opts;
    let mut out = counting_csr(n, edges.len(), weights, |i| {
        let (u, v) = edges[i];
        let keep = !(remove_self_loops && u == v);
        let reverse = keep && symmetrize && u != v;
        keep.then_some((u, v, i)).into_iter().chain(reverse.then_some((v, u, i)))
    });
    if dedup {
        out.dedup();
    }
    let out = out.finish();
    if symmetrize {
        Graph::symmetric(out)
    } else {
        Graph::directed_from_out(out)
    }
}

fn validate_endpoints(n: usize, edges: &[(VertexId, VertexId)]) {
    let bad = edges.par_iter().find_any(|&&(u, v)| u as usize >= n || v as usize >= n);
    assert!(bad.is_none(), "edge endpoint out of range (n = {n}): {:?}", bad);
}

/// The raw arrays of one CSR direction before they are frozen into an
/// [`Adjacency`]. `weights` is empty when `W` is zero-sized.
pub(crate) struct CsrParts<W> {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<W>,
}

/// Builds one CSR direction over `n` vertices by counting sort (steps 1–4
/// of the module doc). `arcs(i)` lists item `i`'s arcs as
/// `(source, target, k)`, where `weights[k]` is the arc's weight (read
/// only when `W` is not zero-sized). Both passes over `0..items` split
/// across the pool.
pub(crate) fn counting_csr<W, I>(
    n: usize,
    items: usize,
    weights: &[W],
    arcs: impl Fn(usize) -> I + Sync,
) -> CsrParts<W>
where
    W: Copy + Send + Sync + Ord,
    I: Iterator<Item = (VertexId, VertexId, usize)>,
{
    let weighted = std::mem::size_of::<W>() != 0;
    // Each block of items counts into its own array, so neither pass needs
    // an atomic read-modify-write. The block count is capped so that the
    // arrays never outweigh the input.
    let blocks = num_threads().min(items / n.max(1)).max(1);
    let mut cursors: Vec<Vec<u64>> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let mut count = vec![0u64; n];
            for i in block_range(items, blocks, b) {
                arcs(i).for_each(|(s, _, _)| count[s as usize] += 1);
            }
            count
        })
        .collect();
    let mut next: Vec<u64> =
        (0..n).into_par_iter().map(|v| cursors.iter().map(|count| count[v]).sum()).collect();
    let (mut offsets, m) = prefix_sums(&next);
    offsets.push(m);
    let m = m as usize;

    // A block's counts become its cursors: the vertex's offset plus the
    // arcs that earlier blocks place in the same list.
    next.copy_from_slice(&offsets[..n]);
    for count in &mut cursors {
        count.par_iter_mut().zip(&mut next).for_each(|(c, next)| {
            let k = *c;
            *c = *next;
            *next += k;
        });
    }
    let mut targets: Vec<VertexId> = vec![0; m];
    let mut out_weights: Vec<W> = Vec::with_capacity(if weighted { m } else { 0 });
    {
        let target = as_atomic_u32(&mut targets);
        let ptr = SendPtr(out_weights.spare_capacity_mut().as_mut_ptr());
        cursors.into_par_iter().enumerate().for_each(|(b, mut cursor)| {
            let p = ptr;
            for i in block_range(items, blocks, b) {
                arcs(i).for_each(|(s, t, k)| {
                    let slot = cursor[s as usize] as usize;
                    cursor[s as usize] += 1;
                    target[slot].store(t, Ordering::Relaxed);
                    if weighted {
                        // `arcs` only reads its inputs, so this pass sees
                        // the arcs the count saw, and `target[slot]` above
                        // has bounds-checked `slot < m`.
                        // SAFETY: the blocks' cursor ranges partition `0..m`
                        // and each cursor moves up within its own range, so
                        // every slot is written once, in reserved capacity.
                        unsafe { (*p.0.add(slot)).write(weights[k]) };
                    }
                });
            }
        });
    }
    if weighted {
        // SAFETY: the counts sum to `m`, so the scatter wrote all `m` slots.
        unsafe { out_weights.set_len(m) };
    }

    let mut csr = CsrParts { offsets, targets, weights: out_weights };
    csr.map_lists(|ts, ws| {
        if ws.is_empty() {
            ts.sort_unstable();
        } else {
            let mut pairs: Vec<(VertexId, W)> =
                ts.iter().copied().zip(ws.iter().copied()).collect();
            pairs.sort_unstable();
            for (i, (t, w)) in pairs.into_iter().enumerate() {
                ts[i] = t;
                ws[i] = w;
            }
        }
    });
    csr
}

impl<W: Copy + Send + Sync> CsrParts<W> {
    /// Freezes the arrays into an [`Adjacency`].
    pub(crate) fn finish(self) -> Adjacency<W> {
        Adjacency::new(self.offsets, self.targets, self.weights)
    }

    /// Applies `f` to every vertex's list — its targets and its weights
    /// (empty when unweighted) — in parallel, collecting the results.
    fn map_lists<R: Send>(&mut self, f: impl Fn(&mut [VertexId], &mut [W]) -> R + Sync) -> Vec<R> {
        let weighted = !self.weights.is_empty();
        let mut lists = Vec::with_capacity(self.offsets.len() - 1);
        let (mut targets, mut weights) = (&mut self.targets[..], &mut self.weights[..]);
        for w in self.offsets.windows(2) {
            let len = (w[1] - w[0]) as usize;
            let (ts, rest) = std::mem::take(&mut targets).split_at_mut(len);
            targets = rest;
            let (ws, rest) =
                std::mem::take(&mut weights).split_at_mut(if weighted { len } else { 0 });
            weights = rest;
            lists.push((ts, ws));
        }
        lists.into_par_iter().map(|(ts, ws)| f(ts, ws)).collect()
    }

    /// Drops repeated targets from the sorted lists, keeping the first
    /// (smallest) weight of each run: every list is deduplicated in place,
    /// then the lists move down to their new offsets.
    fn dedup(&mut self) {
        let kept = self.map_lists(|ts, ws| {
            let mut k = 0;
            for i in 0..ts.len() {
                if k == 0 || ts[i] != ts[k - 1] {
                    ts[k] = ts[i];
                    if !ws.is_empty() {
                        ws[k] = ws[i];
                    }
                    k += 1;
                }
            }
            k as u64
        });
        let (mut offsets, m) = prefix_sums(&kept);
        offsets.push(m);
        let weighted = !self.weights.is_empty();
        for (v, &len) in kept.iter().enumerate() {
            let (from, to) = (self.offsets[v] as usize, offsets[v] as usize);
            self.targets.copy_within(from..from + len as usize, to);
            if weighted {
                self.weights.copy_within(from..from + len as usize, to);
            }
        }
        self.targets.truncate(m as usize);
        self.weights.truncate(m as usize);
        self.offsets = offsets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_triangle() {
        let g = build_graph(3, &[(0, 1), (1, 2), (2, 0)], BuildOptions::directed());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_symmetric());
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(0), &[2]);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let g = build_graph(3, &[(0, 1), (1, 2)], BuildOptions::symmetric());
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_removed_by_default() {
        let g = build_graph(2, &[(0, 0), (0, 1)], BuildOptions::directed());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn self_loops_kept_when_raw() {
        let g = build_graph(2, &[(0, 0), (0, 1)], BuildOptions::raw_directed());
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    fn duplicates_removed() {
        let g = build_graph(3, &[(0, 1), (0, 1), (0, 2)], BuildOptions::directed());
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn duplicates_kept_when_raw() {
        let g = build_graph(3, &[(0, 1), (0, 1)], BuildOptions::raw_directed());
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.in_neighbors(1), &[0, 0]);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let edges = vec![(0u32, 3u32), (0, 1), (0, 2), (1, 0)];
        let g = build_graph(4, &edges, BuildOptions::directed());
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn transpose_is_consistent() {
        // Every out-arc must appear as an in-arc.
        let edges: Vec<(u32, u32)> = (0..100u32)
            .flat_map(|i| {
                let u = ligra_parallel::hash32(i) % 50;
                let v = ligra_parallel::hash32(i + 1000) % 50;
                (u != v).then_some((u, v))
            })
            .collect();
        let g = build_graph(50, &edges, BuildOptions::directed());
        for u in 0..50u32 {
            for &v in g.out_neighbors(u) {
                assert!(g.in_neighbors(v).contains(&u), "missing transpose arc {u}->{v}");
            }
        }
        let out_m: usize = (0..50u32).map(|v| g.out_degree(v)).sum();
        let in_m: usize = (0..50u32).map(|v| g.in_degree(v)).sum();
        assert_eq!(out_m, in_m);
        assert_eq!(out_m, g.num_edges());
    }

    #[test]
    fn blocked_count_and_scatter_match_one_block() {
        // A pool of four splits the count and the scatter into four blocks
        // of per-block cursors; the lists must come out the same.
        let edges: Vec<(u32, u32)> = (0..2000u32)
            .map(|i| (ligra_parallel::hash32(i) % 50, ligra_parallel::hash32(i ^ 0x5bd1) % 50))
            .collect();
        let weights: Vec<i32> =
            (0..2000u32).map(|i| (ligra_parallel::hash32(i) % 9) as i32).collect();
        for opts in [BuildOptions::raw_directed(), BuildOptions::symmetric()] {
            let one = build_weighted_graph(50, &edges, &weights, opts);
            let four = ligra_parallel::with_threads(4, || {
                assert_eq!(ligra_parallel::num_threads(), 4);
                build_weighted_graph(50, &edges, &weights, opts)
            });
            for (a, b) in [(one.out_adj(), four.out_adj()), (one.in_adj(), four.in_adj())] {
                assert_eq!(a.offsets(), b.offsets());
                assert_eq!(a.targets(), b.targets());
                assert_eq!(a.weight_slice(), b.weight_slice());
            }
        }
    }

    #[test]
    fn weighted_build_keeps_weights_aligned() {
        let edges = vec![(0u32, 2u32), (0, 1), (1, 2)];
        let weights = vec![30, 10, 20];
        let g = build_weighted_graph(3, &edges, &weights, BuildOptions::directed());
        // Sorted by target: 0 -> [1 (w=10), 2 (w=30)]
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_weights(0), &[10, 30]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_weights(2), &[30, 20]);
    }

    #[test]
    fn weighted_dedup_keeps_smallest_weight() {
        let edges = vec![(0u32, 1u32), (0, 1)];
        let weights = vec![7, 3];
        let g = build_weighted_graph(2, &edges, &weights, BuildOptions::directed());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_weights(0), &[3]);
    }

    #[test]
    fn empty_graph() {
        let g = build_graph(5, &[], BuildOptions::symmetric());
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert!(g.out_neighbors(v).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = build_graph(2, &[(0, 5)], BuildOptions::directed());
    }

    #[test]
    fn empty_weighted_graph_builds() {
        // Regression: dedup used to index weights[0] on zero-edge inputs.
        let g = build_weighted_graph(21, &[], &[], BuildOptions::directed());
        assert_eq!(g.num_edges(), 0);
        let g = build_weighted_graph(3, &[(0, 0)], &[5], BuildOptions::directed());
        assert_eq!(g.num_edges(), 0, "only edge was a removed self-loop");
    }

    #[test]
    fn symmetric_self_loop_not_doubled_when_kept() {
        let g = build_graph(
            2,
            &[(0, 0), (0, 1)],
            BuildOptions { symmetrize: true, remove_self_loops: false, dedup: false },
        );
        // (0,0) once, (0,1) and (1,0): 3 arcs.
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    fn larger_random_build_roundtrip() {
        // Build from a pseudo-random edge list; verify degrees sum to m and
        // each adjacency is sorted and in range.
        let n = 1000usize;
        let edges: Vec<(u32, u32)> = (0..20_000u32)
            .map(|i| {
                (
                    ligra_parallel::hash32(i) % n as u32,
                    ligra_parallel::hash32(i.wrapping_mul(2654435761)) % n as u32,
                )
            })
            .collect();
        let g = build_graph(n, &edges, BuildOptions::symmetric());
        let deg_sum: usize = (0..n as u32).map(|v| g.out_degree(v)).sum();
        assert_eq!(deg_sum, g.num_edges());
        for v in 0..n as u32 {
            let ns = g.out_neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted or dup at {v}");
            assert!(ns.iter().all(|&t| (t as usize) < n));
            assert!(!ns.contains(&v), "self loop survived at {v}");
        }
    }
}
