//! k-core decomposition (the `KCore` application shipped with the
//! original Ligra release; later made work-efficient in Julienne).
//!
//! Peeling: for `k = 1, 2, …`, repeatedly remove vertices whose remaining
//! degree is below `k`, decrementing their neighbors' degrees through
//! `edgeMap`, until no vertex qualifies; vertices removed while peeling
//! toward `k` have coreness `k − 1`. A vertex's *coreness* is the largest
//! `k` such that it survives in the `k`-core (the maximal subgraph with
//! all degrees ≥ `k`).

use ligra::{
    edge_map_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder,
    VertexSubset,
};
use ligra_graph::{Graph, Neighbors, VertexId};
use ligra_parallel::checked_u32;
use std::sync::atomic::{AtomicU32, Ordering};

/// Output of [`kcore`].
#[derive(Debug, Clone)]
pub struct KCoreResult {
    /// Coreness of each vertex.
    pub coreness: Vec<u32>,
    /// The degeneracy of the graph (maximum coreness).
    pub max_core: u32,
    /// Total peeling rounds across all `k`.
    pub rounds: usize,
}

/// Decrement the remaining degree of every surviving neighbor of a peeled
/// vertex. Saturating at 0: a vertex can lose more incident edges in one
/// round than its remaining degree only via edges to other peeled
/// vertices, which no longer matter.
struct PeelF<'a> {
    degrees: &'a [AtomicU32],
    alive: &'a [AtomicU32],
}

impl EdgeMapFn for PeelF<'_> {
    #[inline]
    fn update(&self, _src: VertexId, dst: VertexId, _w: ()) -> bool {
        // Dense traversal: single owner of dst.
        let d = self.degrees[dst as usize].load(Ordering::Relaxed);
        if d > 0 {
            self.degrees[dst as usize].store(d - 1, Ordering::Relaxed);
        }
        false
    }

    #[inline]
    fn update_atomic(&self, _src: VertexId, dst: VertexId, _w: ()) -> bool {
        // fetch_update with saturation; contention is per-target bounded
        // by its degree.
        let _ = self.degrees[dst as usize]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| d.checked_sub(1));
        false
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.alive[dst as usize].load(Ordering::Relaxed) == 1
    }
}

/// Parallel k-core decomposition with default options.
///
/// # Panics
/// Panics if `g` is not symmetric (coreness is defined on undirected
/// graphs; symmetrize first).
pub fn kcore<G: Neighbors<Weight = ()>>(g: &G) -> KCoreResult {
    kcore_traced(g, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel k-core decomposition recording per-round statistics.
pub fn kcore_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> KCoreResult {
    assert!(g.is_symmetric(), "k-core requires a symmetric graph");
    let n = g.num_vertices();
    let mut degrees: Vec<u32> = (0..checked_u32(n)).map(|v| checked_u32(g.out_degree(v))).collect();
    let mut alive: Vec<u32> = vec![1; n];
    let mut coreness: Vec<u32> = vec![0; n];
    let mut num_alive = n;
    let mut rounds = 0usize;
    let opts = opts.no_output();

    {
        let degrees = ligra_parallel::atomics::as_atomic_u32(&mut degrees);
        let alive_cells = ligra_parallel::atomics::as_atomic_u32(&mut alive);
        let core_cells = ligra_parallel::atomics::as_atomic_u32(&mut coreness);
        let f = PeelF { degrees, alive: alive_cells };

        let mut k = 1u32;
        // Peeling is driven by the alive count, not the edgeMap output
        // (no_output is set), so both loops yield to cancellation here.
        while num_alive > 0 && !opts.is_cancelled() {
            // Peel every vertex below k, repeatedly: removals can drag
            // further vertices below k within the same k-phase.
            while !opts.is_cancelled() {
                let peel = VertexSubset::from_fn(n, |v| {
                    alive_cells[v as usize].load(Ordering::Relaxed) == 1
                        && degrees[v as usize].load(Ordering::Relaxed) < k
                });
                if peel.is_empty() {
                    break;
                }
                rounds += 1;
                vertex_map_recorded(
                    &peel,
                    |v| {
                        alive_cells[v as usize].store(0, Ordering::Relaxed);
                        core_cells[v as usize].store(k - 1, Ordering::Relaxed);
                    },
                    stats,
                );
                num_alive -= peel.len();
                let mut frontier = peel;
                let _ = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            }
            k += 1;
        }
    }

    let max_core = coreness.iter().copied().max().unwrap_or(0);
    KCoreResult { coreness, max_core, rounds }
}

/// Sequential reference: textbook bucket-queue peeling (Batagelj–Zaveršnik),
/// O(n + m).
pub fn seq_kcore(g: &Graph) -> Vec<u32> {
    assert!(g.is_symmetric());
    let n = g.num_vertices();
    let mut degree: Vec<u32> = (0..checked_u32(n)).map(|v| checked_u32(g.out_degree(v))).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;

    // Bucket sort vertices by degree.
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 1..bucket_start.len() {
        bucket_start[i] += bucket_start[i - 1];
    }
    let mut pos = vec![0usize; n]; // vertex -> index in `order`
    let mut order = vec![0u32; n]; // sorted by current degree
    {
        let mut cursor = bucket_start.clone();
        for v in 0..checked_u32(n) {
            let d = degree[v as usize] as usize;
            order[cursor[d]] = v;
            pos[v as usize] = cursor[d];
            cursor[d] += 1;
        }
    }

    let mut coreness = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        coreness[v as usize] = degree[v as usize];
        for &u in g.out_neighbors(v) {
            if degree[u as usize] > degree[v as usize] {
                // Move u one bucket down: swap it with the first entry of
                // its bucket, then shrink the bucket.
                let du = degree[u as usize] as usize;
                let first = bucket_start[du];
                let first_v = order[first];
                let pu = pos[u as usize];
                order.swap(first, pu);
                pos[u as usize] = first;
                pos[first_v as usize] = pu;
                bucket_start[du] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    coreness
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{complete, cycle, erdos_renyi, grid3d, path, rmat, star};
    use ligra_graph::{build_graph, BuildOptions};

    fn check(g: &Graph) {
        let par = kcore(g);
        let seq = seq_kcore(g);
        assert_eq!(par.coreness, seq);
    }

    #[test]
    fn path_is_1_core() {
        let r = kcore(&path(10));
        assert!(r.coreness.iter().all(|&c| c == 1));
        assert_eq!(r.max_core, 1);
    }

    #[test]
    fn cycle_is_2_core() {
        let r = kcore(&cycle(10));
        assert!(r.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn complete_graph_core_is_n_minus_1() {
        let r = kcore(&complete(7));
        assert!(r.coreness.iter().all(|&c| c == 6));
        assert_eq!(r.max_core, 6);
    }

    #[test]
    fn star_leaves_are_1_core() {
        let r = kcore(&star(20));
        assert_eq!(r.coreness[0], 1); // hub falls when all leaves are gone
        assert!((1..20).all(|v| r.coreness[v] == 1));
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle {0,1,2} plus tail 2-3-4: triangle is 2-core, tail 1-core.
        let g =
            build_graph(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], BuildOptions::symmetric());
        let r = kcore(&g);
        assert_eq!(r.coreness, vec![2, 2, 2, 1, 1]);
        check(&g);
    }

    #[test]
    fn matches_bucket_peeling_on_generators() {
        check(&grid3d(5));
        check(&erdos_renyi(800, 4000, 3, true));
        check(&rmat(&RmatOptions::paper(10)));
        check(&erdos_renyi(500, 300, 9, true)); // sparse: isolated vertices
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = build_graph(4, &[(0, 1)], BuildOptions::symmetric());
        let r = kcore(&g);
        assert_eq!(r.coreness, vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn directed_graph_rejected() {
        let g = build_graph(3, &[(0, 1)], BuildOptions::directed());
        let _ = kcore(&g);
    }
}
