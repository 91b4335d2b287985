//! Linear-work parallel connectivity via low-diameter decomposition —
//! the authors' follow-up algorithm (Shun, Dhulipala, Blelloch; SPAA
//! 2014), included as the extension baseline to label propagation.
//!
//! The [`ldd`] routine computes a Miller–Peng–Xu style `(β, O(log n / β))`
//! decomposition with simultaneous BFS balls: each vertex draws an
//! exponential shift `δ_v ~ Exp(β)`; a vertex starts its own ball at round
//! `⌊δ_max − δ_v⌋` (implemented equivalently as "unvisited vertices with
//! `⌊δ_v⌋ ≤ round` become centers") and balls grow one hop per round,
//! claiming vertices with CAS. In expectation only a `β` fraction of
//! edges cross clusters.
//!
//! [`cc_ldd`] then contracts clusters and recurses: expected linear work
//! and polylogarithmic depth overall, against label propagation's
//! `O(m · d)` worst case.
//! Stays on `&Graph`: each level recurses on the CSR `build_graph`
//! contracts the clusters into.

use ligra::{edge_map_with, EdgeMapFn, EdgeMapOptions, VertexSubset};
use ligra_graph::{build_graph, BuildOptions, Graph, VertexId};
use ligra_parallel::atomics::cas_u32;
use ligra_parallel::checked_u32;
use ligra_parallel::hash::{hash_to_unit, mix64};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const UNSET: u32 = u32::MAX;

struct ClaimF<'a> {
    cluster: &'a [AtomicU32],
}

impl EdgeMapFn for ClaimF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let slot = &self.cluster[dst as usize];
        if slot.load(Ordering::Relaxed) == UNSET {
            slot.store(self.cluster[src as usize].load(Ordering::Relaxed), Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let label = self.cluster[src as usize].load(Ordering::Relaxed);
        cas_u32(&self.cluster[dst as usize], UNSET, label)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.cluster[dst as usize].load(Ordering::Relaxed) == UNSET
    }
}

/// Low-diameter decomposition: assigns every vertex a cluster label (the
/// ID of its cluster's center). Higher `beta` gives smaller clusters and
/// more inter-cluster edges. Deterministic in `seed`.
pub fn ldd(g: &Graph, beta: f64, seed: u64) -> Vec<u32> {
    assert!(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
    let n = g.num_vertices();

    // Exponential shifts, bucketed by start round ⌊δ_v⌋.
    let shifts: Vec<u32> = (0..n as u64)
        .into_par_iter()
        .map(|v| {
            let u = hash_to_unit(mix64(seed) ^ v).max(1e-12);
            // The saturating f64->u32 cast is the intended clamp of the
            // exponential sample, not an ID truncation.
            // lint: allow(L4): float sample clamp, not an ID cast
            (-u.ln() / beta) as u32
        })
        .collect();

    let mut cluster: Vec<u32> = vec![UNSET; n];
    {
        let cells = ligra_parallel::atomics::as_atomic_u32(&mut cluster);
        let f = ClaimF { cluster: cells };

        let mut frontier = VertexSubset::empty(n);
        let mut round = 0u32;
        let mut num_clustered = 0usize;
        while num_clustered < n {
            // Unvisited vertices whose shift has expired become centers.
            let centers: Vec<u32> = (0..checked_u32(n))
                .into_par_iter()
                .filter(|&v| {
                    shifts[v as usize] <= round
                        && cells[v as usize].load(Ordering::Relaxed) == UNSET
                })
                .collect();
            centers.par_iter().for_each(|&v| {
                cells[v as usize].store(v, Ordering::Relaxed);
            });
            num_clustered += centers.len();

            // Frontier = last round's ball growth plus the new centers.
            let mut members = frontier.as_slice().to_vec();
            members.extend_from_slice(&centers);
            frontier = VertexSubset::from_sparse(n, members);

            let next = edge_map_with(g, &mut frontier, &f, EdgeMapOptions::default());
            num_clustered += next.len();
            frontier = next;
            round += 1;
        }
    }
    cluster
}

/// Connected components by recursive cluster contraction. Returns the
/// same canonical labeling as [`crate::cc`] (minimum original vertex ID
/// per component).
///
/// # Panics
/// Panics if `g` is not symmetric.
pub fn cc_ldd(g: &Graph, seed: u64) -> Vec<u32> {
    assert!(g.is_symmetric(), "connectivity requires a symmetric graph");
    let labels = cc_ldd_rec(g, seed, 0);
    canonicalize_min(g.num_vertices(), &labels)
}

fn cc_ldd_rec(g: &Graph, seed: u64, depth: usize) -> Vec<u32> {
    let n = g.num_vertices();
    assert!(depth < 64, "contraction failed to make progress");
    if g.num_edges() == 0 {
        return (0..checked_u32(n)).collect();
    }

    let cluster = ldd(g, 0.2, mix64(seed ^ depth as u64));

    // Relabel cluster centers to a dense range [0, k).
    let is_center: Vec<bool> =
        (0..checked_u32(n)).into_par_iter().map(|v| cluster[v as usize] == v).collect();
    let centers = ligra_parallel::pack::pack_index(&is_center);
    let k = centers.len();
    if k == n {
        // Every vertex became its own center before being claimed, so
        // contraction made no progress (possible only under adversarial
        // shift draws). Fall back to label propagation for termination.
        return crate::cc(g).label;
    }
    let mut dense_id = vec![0u32; n];
    for (i, &c) in centers.iter().enumerate() {
        dense_id[c as usize] = checked_u32(i);
    }

    // Inter-cluster edges, relabeled.
    let cluster_ref: &[u32] = &cluster;
    let cross: Vec<(u32, u32)> = (0..checked_u32(n))
        .into_par_iter()
        .flat_map_iter(|u| {
            let cu = cluster_ref[u as usize];
            g.out_neighbors(u).iter().filter_map(move |&v| {
                let cv = cluster_ref[v as usize];
                (cu != cv).then_some((cu, cv))
            })
        })
        .map(|(cu, cv)| (dense_id[cu as usize], dense_id[cv as usize]))
        .collect();

    // `cross` already holds both directions (g is symmetric at every
    // level); symmetrize + dedup normalizes it back to a symmetric graph.
    let contracted = build_graph(k, &cross, BuildOptions::symmetric());
    let sub = cc_ldd_rec(&contracted, seed, depth + 1);

    // Map back: component of v = component of its cluster center.
    (0..checked_u32(n))
        .into_par_iter()
        .map(|v| {
            let c = cluster[v as usize];
            centers[sub[dense_id[c as usize] as usize] as usize]
        })
        .collect()
}

/// Rewrites arbitrary component representatives as the minimum vertex ID
/// of each component (matching [`crate::seq::seq_cc`]).
fn canonicalize_min(n: usize, labels: &[u32]) -> Vec<u32> {
    let mut min_of = vec![u32::MAX; n];
    for v in 0..checked_u32(n) {
        let l = labels[v as usize] as usize;
        if v < min_of[l] {
            min_of[l] = v;
        }
    }
    (0..n).map(|v| min_of[labels[v] as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_cc;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, erdos_renyi, grid3d, path, random_local, rmat};

    fn check(g: &Graph, seed: u64) {
        assert_eq!(cc_ldd(g, seed), seq_cc(g), "seed {seed}");
    }

    #[test]
    fn simple_families() {
        check(&path(100), 1);
        check(&cycle(64), 2);
        check(&grid3d(5), 3);
    }

    #[test]
    fn random_graphs_all_regimes() {
        check(&erdos_renyi(2000, 800, 4, true), 9); // many components
        check(&erdos_renyi(2000, 6000, 5, true), 10); // giant component
        check(&random_local(3000, 5, 6), 7);
        check(&rmat(&RmatOptions::paper(10)), 8);
    }

    #[test]
    fn agrees_with_label_propagation() {
        let g = rmat(&RmatOptions::paper(10));
        assert_eq!(cc_ldd(&g, 42), crate::cc(&g).label);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = random_local(1000, 4, 3);
        assert_eq!(cc_ldd(&g, 5), cc_ldd(&g, 5));
        // Different seeds still give the same (canonical) answer.
        assert_eq!(cc_ldd(&g, 5), cc_ldd(&g, 6));
    }

    #[test]
    fn edgeless_graph() {
        let g = ligra_graph::build_graph(10, &[], BuildOptions::symmetric());
        assert_eq!(cc_ldd(&g, 1), (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn ldd_clusters_are_connected_and_cover() {
        let g = random_local(2000, 6, 11);
        let cluster = ldd(&g, 0.2, 7);
        let n = g.num_vertices();
        // Cover: every vertex labeled; centers label themselves.
        for v in 0..checked_u32(n) {
            let c = cluster[v as usize];
            assert_ne!(c, u32::MAX);
            assert_eq!(cluster[c as usize], c, "center of {v} is not its own center");
        }
        // Connectivity: a vertex's cluster is reachable within the cluster
        // (walk: every non-center has a neighbor in the same cluster that
        // is one BFS hop closer to the center; verify weak version — some
        // neighbor shares the cluster).
        for v in 0..checked_u32(n) {
            let c = cluster[v as usize];
            if c != v {
                assert!(
                    g.out_neighbors(v).iter().any(|&u| cluster[u as usize] == c),
                    "vertex {v} isolated inside its cluster"
                );
            }
        }
    }

    #[test]
    fn higher_beta_makes_more_clusters() {
        let g = grid3d(8);
        let count = |beta: f64| {
            let c = ldd(&g, beta, 3);
            let mut u: Vec<u32> = c.clone();
            u.sort_unstable();
            u.dedup();
            u.len()
        };
        let coarse = count(0.05);
        let fine = count(0.8);
        assert!(fine > coarse, "beta 0.8 -> {fine} clusters vs beta 0.05 -> {coarse}");
    }
}
