//! Maximal independent set (the `MIS` application of the original Ligra
//! release; the analysis is Blelloch–Fineman–Shun, SPAA 2012).
//!
//! Luby-flavored rounds over random priorities: an undecided vertex joins
//! the MIS when every undecided neighbor has a lower priority; its
//! neighbors become excluded. With hash-derived priorities re-drawn each
//! round the expected round count is O(log n). Per round, both the
//! "blocked by a higher-priority neighbor" marking and the "knock out the
//! neighbors of new MIS members" step are `edgeMap` calls over the
//! undecided subset.

use ligra::{
    edge_map_recorded, vertex_filter_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions,
    NoopRecorder, Recorder, VertexSubset,
};
use ligra_graph::{Graph, Neighbors, VertexId};
use ligra_parallel::checked_u32;
use ligra_parallel::hash::mix64;
use std::sync::atomic::{AtomicU32, Ordering};

/// Per-vertex state in the MIS computation.
const UNDECIDED: u32 = 0;
const IN_SET: u32 = 1;
const OUT: u32 = 2;

/// Output of [`mis`].
#[derive(Debug, Clone)]
pub struct MisResult {
    /// `true` for vertices in the maximal independent set.
    pub in_set: Vec<bool>,
    /// Rounds until every vertex was decided.
    pub rounds: usize,
}

impl MisResult {
    /// Number of MIS members.
    pub fn size(&self) -> usize {
        self.in_set.iter().filter(|&&b| b).count()
    }

    /// Panics unless the set is independent (no edge inside the set) and
    /// maximal (every non-member has a member neighbor). Requires the same
    /// graph the result was computed on.
    pub fn validate(&self, g: &Graph) {
        for v in 0..checked_u32(g.num_vertices()) {
            let ns = g.out_neighbors(v);
            if self.in_set[v as usize] {
                for &u in ns {
                    assert!(!self.in_set[u as usize], "edge {v}-{u} inside the independent set");
                }
            } else {
                assert!(
                    ns.iter().any(|&u| self.in_set[u as usize]),
                    "non-member {v} has no member neighbor (not maximal)"
                );
            }
        }
    }
}

/// Round priority: re-drawn every round from the seed; ties broken by ID
/// (priorities are distinct because the vertex ID is mixed in last).
#[inline]
fn priority(seed: u64, round: u64, v: VertexId) -> u64 {
    mix64(seed ^ (round << 32) ^ v as u64) << 32 | v as u64
}

/// Marks targets that have a higher-priority undecided neighbor as
/// "blocked this round".
struct BlockF<'a> {
    state: &'a [AtomicU32],
    blocked: &'a [AtomicU32],
    seed: u64,
    round: u64,
}

impl EdgeMapFn for BlockF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        if self.state[src as usize].load(Ordering::Relaxed) == UNDECIDED
            && priority(self.seed, self.round, src) > priority(self.seed, self.round, dst)
        {
            self.blocked[dst as usize].store(1, Ordering::Relaxed);
        }
        false
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: ()) -> bool {
        self.update(src, dst, w)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.state[dst as usize].load(Ordering::Relaxed) == UNDECIDED
    }
}

/// Knocks out the undecided neighbors of freshly admitted MIS members.
struct KnockoutF<'a> {
    state: &'a [AtomicU32],
}

impl EdgeMapFn for KnockoutF<'_> {
    #[inline]
    fn update(&self, _src: VertexId, dst: VertexId, _w: ()) -> bool {
        self.state[dst as usize].store(OUT, Ordering::Relaxed);
        false
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: ()) -> bool {
        self.update(src, dst, w)
    }

    #[inline]
    fn cond(&self, dst: VertexId) -> bool {
        self.state[dst as usize].load(Ordering::Relaxed) == UNDECIDED
    }
}

/// Parallel maximal independent set with default options.
///
/// Deterministic in `seed`.
///
/// # Panics
/// Panics if `g` is not symmetric.
pub fn mis<G: Neighbors<Weight = ()>>(g: &G, seed: u64) -> MisResult {
    mis_traced(g, seed, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel MIS recording per-round statistics.
pub fn mis_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    seed: u64,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> MisResult {
    assert!(g.is_symmetric(), "MIS requires a symmetric graph");
    let n = g.num_vertices();
    let mut state: Vec<u32> = vec![UNDECIDED; n];
    let mut blocked: Vec<u32> = vec![0; n];
    let mut rounds = 0usize;
    let opts = opts.no_output();

    {
        let state_cells = ligra_parallel::atomics::as_atomic_u32(&mut state);
        let blocked_cells = ligra_parallel::atomics::as_atomic_u32(&mut blocked);
        let mut undecided = VertexSubset::all(n);

        // Both edgeMap passes run with no_output, so the undecided set —
        // not the edgeMap result — drives the loop; yield explicitly.
        while !undecided.is_empty() && !opts.is_cancelled() {
            rounds += 1;
            // Clear round-local blocked flags of the undecided set.
            vertex_map_recorded(
                &undecided,
                |v| blocked_cells[v as usize].store(0, Ordering::Relaxed),
                stats,
            );
            // Pass 1: every undecided vertex with a higher-priority
            // undecided neighbor is blocked.
            let f =
                BlockF { state: state_cells, blocked: blocked_cells, seed, round: rounds as u64 };
            let mut frontier = undecided.clone();
            let _ = edge_map_recorded(g, &mut frontier, &f, opts, stats);

            // Unblocked undecided vertices join the MIS.
            let winners = vertex_filter_recorded(
                &undecided,
                |v| blocked_cells[v as usize].load(Ordering::Relaxed) == 0,
                stats,
            );
            debug_assert!(!winners.is_empty(), "some local maximum always exists");
            vertex_map_recorded(
                &winners,
                |v| state_cells[v as usize].store(IN_SET, Ordering::Relaxed),
                stats,
            );

            // Pass 2: knock out their undecided neighbors.
            let ko = KnockoutF { state: state_cells };
            let mut winners = winners;
            let _ = edge_map_recorded(g, &mut winners, &ko, opts, stats);

            // Shrink the undecided set.
            undecided = vertex_filter_recorded(
                &undecided,
                |v| state_cells[v as usize].load(Ordering::Relaxed) == UNDECIDED,
                stats,
            );
        }
    }

    let in_set: Vec<bool> = state.iter().map(|&s| s == IN_SET).collect();
    MisResult { in_set, rounds }
}

/// Sequential reference: the greedy MIS over ascending vertex IDs.
pub fn seq_mis(g: &Graph) -> Vec<bool> {
    assert!(g.is_symmetric());
    let n = g.num_vertices();
    let mut in_set = vec![false; n];
    let mut excluded = vec![false; n];
    for v in 0..checked_u32(n) {
        if !excluded[v as usize] {
            in_set[v as usize] = true;
            for &u in g.out_neighbors(v) {
                excluded[u as usize] = true;
            }
        }
    }
    in_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{complete, cycle, erdos_renyi, grid3d, path, rmat, star};
    use ligra_graph::{build_graph, BuildOptions};

    #[test]
    fn star_mis_is_leaves_or_center() {
        let g = star(10);
        let r = mis(&g, 1);
        r.validate(&g);
        // Either {center} or all 9 leaves.
        assert!(r.size() == 1 || r.size() == 9);
    }

    #[test]
    fn complete_graph_mis_is_single_vertex() {
        let g = complete(8);
        let r = mis(&g, 2);
        r.validate(&g);
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn path_and_cycle_mis_sizes() {
        let g = path(10);
        let r = mis(&g, 3);
        r.validate(&g);
        assert!(r.size() >= 4 && r.size() <= 5); // MIS of P10 is between ceil(10/3) and 5

        let g = cycle(9);
        let r = mis(&g, 4);
        r.validate(&g);
        assert!(r.size() >= 3 && r.size() <= 4);
    }

    #[test]
    fn valid_on_generators_and_seeds() {
        for seed in [1u64, 7, 42] {
            for g in [grid3d(4), erdos_renyi(500, 2500, seed, true), rmat(&RmatOptions::paper(9))] {
                let r = mis(&g, seed);
                r.validate(&g);
                assert!(r.size() > 0);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = erdos_renyi(400, 2000, 5, true);
        assert_eq!(mis(&g, 9).in_set, mis(&g, 9).in_set);
    }

    #[test]
    fn isolated_vertices_always_join() {
        let g = build_graph(5, &[(0, 1)], BuildOptions::symmetric());
        let r = mis(&g, 6);
        r.validate(&g);
        assert!(r.in_set[2] && r.in_set[3] && r.in_set[4]);
    }

    #[test]
    fn round_count_is_logarithmic_in_practice() {
        let g = rmat(&RmatOptions::paper(11));
        let r = mis(&g, 11);
        r.validate(&g);
        assert!(r.rounds <= 40, "expected O(log n) rounds, got {}", r.rounds);
    }

    #[test]
    fn seq_mis_is_valid_too() {
        let g = erdos_renyi(300, 1500, 8, true);
        let in_set = seq_mis(&g);
        let r = MisResult { in_set, rounds: 0 };
        r.validate(&g);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn directed_graph_rejected() {
        let g = build_graph(3, &[(0, 1)], BuildOptions::directed());
        let _ = mis(&g, 1);
    }
}
