//! Graph radii (eccentricity) estimation — the paper's multi-BFS
//! application.
//!
//! Runs `K = 64` breadth-first searches simultaneously, one per bit of a
//! 64-bit word: `visited[v]` holds the set of sample vertices whose BFS
//! wave has reached `v`. A round ORs each frontier vertex's mask into its
//! neighbors (`fetch_or`); a vertex whose mask grew joins the next
//! frontier, and `radii[v]` records the last round in which `v`'s mask
//! changed. Since the bit of sample `s` arrives at `v` exactly at round
//! `dist(s, v)`, the estimate converges to
//! `radii[v] = max_{s ∈ sample reachable from v} dist(s, v)` — a lower
//! bound on `v`'s true eccentricity that sharpens with more samples.

use ligra::{
    edge_map_recorded, vertex_map_recorded, EdgeMapFn, EdgeMapOptions, NoopRecorder, Recorder,
    VertexSubset,
};
use ligra_graph::{Neighbors, VertexId};
use ligra_parallel::checked_u32;
use ligra_parallel::hash::hash_to_range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of simultaneous BFS waves (bits per mask word).
pub const SAMPLES: usize = 64;

/// Radii value for vertices never reached by any sampled wave.
pub const UNKNOWN_RADIUS: u32 = u32::MAX;

/// Output of [`radii`].
#[derive(Debug, Clone)]
pub struct RadiiResult {
    /// Estimated eccentricity of each vertex ([`UNKNOWN_RADIUS`] when no
    /// sampled wave reached it; `0` for the samples themselves unless a
    /// wave reaches them later).
    pub radii: Vec<u32>,
    /// The sampled source vertices.
    pub sample: Vec<VertexId>,
    /// Rounds until no mask changed.
    pub rounds: usize,
}

impl RadiiResult {
    /// Estimated graph diameter: the maximum known radius.
    pub fn estimated_diameter(&self) -> u32 {
        self.radii.iter().copied().filter(|&r| r != UNKNOWN_RADIUS).max().unwrap_or(0)
    }
}

/// The paper's `Radii_F`: OR the source's wave mask into the target's
/// next mask; the first growth of a round stamps the round into `radii`
/// and claims the target for the next frontier.
pub struct RadiiF<'a> {
    /// Wave masks as of the start of the round.
    pub visited: &'a [AtomicU64],
    /// Wave masks being built this round.
    pub next_visited: &'a [AtomicU64],
    /// Last round each vertex's mask grew.
    pub radii: &'a [AtomicU32],
    /// This round's number.
    pub round: u32,
}

impl RadiiF<'_> {
    /// Claims "first mask change of `dst` this round" by installing the
    /// round number into `radii[dst]`; exactly one claimant wins.
    #[inline]
    fn claim(&self, dst: VertexId) -> bool {
        let slot = &self.radii[dst as usize];
        loop {
            let r = slot.load(Ordering::Relaxed);
            if r == self.round {
                return false;
            }
            if slot
                .compare_exchange_weak(r, self.round, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }
}

impl EdgeMapFn for RadiiF<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, _w: ()) -> bool {
        let vd = self.visited[dst as usize].load(Ordering::Relaxed);
        let vs = self.visited[src as usize].load(Ordering::Relaxed);
        let to_write = vd | vs;
        if to_write != vd {
            // Single-owner dst in the dense traversal, but other waves may
            // also be ORing into next_visited[dst] through *this* owner
            // only — a plain fetch_or keeps the code shared with the
            // atomic variant at no extra cost.
            self.next_visited[dst as usize].fetch_or(to_write, Ordering::AcqRel);
            self.claim(dst)
        } else {
            false
        }
    }

    #[inline]
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: ()) -> bool {
        self.update(src, dst, w)
    }

    #[inline]
    fn gather<I>(&self, dst: VertexId, in_edges: I) -> Option<bool>
    where
        I: Iterator<Item = (VertexId, ())>,
    {
        let vd = self.visited[dst as usize].load(Ordering::Relaxed);
        let mut to_write = vd;
        for (src, ()) in in_edges {
            to_write |= self.visited[src as usize].load(Ordering::Relaxed);
        }
        if to_write == vd {
            return Some(false);
        }
        self.next_visited[dst as usize].fetch_or(to_write, Ordering::AcqRel);
        Some(self.claim(dst))
    }
}

/// Picks up to [`SAMPLES`] distinct sample vertices, preferring vertices
/// with at least one edge (waves from isolated vertices go nowhere).
pub fn pick_sample<G: Neighbors>(g: &G, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    let want = SAMPLES.min(n);
    let mut sample = Vec::with_capacity(want);
    let mut picked = std::collections::HashSet::new();
    // Prefer non-isolated vertices (waves from isolated vertices go
    // nowhere); hash-probe with a bounded attempt budget.
    let mut attempt = 0u64;
    while sample.len() < want && attempt < 64 * SAMPLES as u64 {
        let v = checked_u32(hash_to_range(seed ^ attempt, n as u64));
        attempt += 1;
        if g.out_degree(v) > 0 && picked.insert(v) {
            sample.push(v);
        }
    }
    // Deterministic fallback: scan for any remaining distinct vertices
    // (covers graphs that are mostly or entirely isolated vertices).
    let mut v = 0u32;
    while sample.len() < want && (v as usize) < n {
        if picked.insert(v) {
            sample.push(v);
        }
        v += 1;
    }
    sample
}

/// Parallel radii estimation with default options and sampling seed.
pub fn radii<G: Neighbors<Weight = ()>>(g: &G, seed: u64) -> RadiiResult {
    radii_traced(g, seed, EdgeMapOptions::default(), &mut NoopRecorder)
}

/// Parallel radii estimation recording per-round statistics.
pub fn radii_traced<G: Neighbors<Weight = ()>, R: Recorder>(
    g: &G,
    seed: u64,
    opts: EdgeMapOptions,
    stats: &mut R,
) -> RadiiResult {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph");
    // At most SAMPLES distinct vertices: each source owns one mask bit.
    let sample = pick_sample(g, seed);

    let mut visited = vec![0u64; n];
    let mut next_visited = vec![0u64; n];
    let mut radii_arr = vec![UNKNOWN_RADIUS; n];
    for (bit, &s) in sample.iter().enumerate() {
        visited[s as usize] |= 1u64 << bit;
        next_visited[s as usize] |= 1u64 << bit;
        radii_arr[s as usize] = 0;
    }

    let mut rounds = 0usize;
    {
        let visited_cells = ligra_parallel::atomics::as_atomic_u64(&mut visited);
        let next_cells = ligra_parallel::atomics::as_atomic_u64(&mut next_visited);
        let radii_cells = ligra_parallel::atomics::as_atomic_u32(&mut radii_arr);
        let mut frontier = VertexSubset::from_sparse(n, sample.clone());
        while !frontier.is_empty() {
            rounds += 1;
            let f = RadiiF {
                visited: visited_cells,
                next_visited: next_cells,
                radii: radii_cells,
                round: checked_u32(rounds),
            };
            frontier = edge_map_recorded(g, &mut frontier, &f, opts, stats);
            // Commit the masks of the changed vertices (paper's
            // Radii_Vertex_F): visited = nextVisited.
            vertex_map_recorded(
                &frontier,
                |v| {
                    let m = next_cells[v as usize].load(Ordering::Relaxed);
                    visited_cells[v as usize].store(m, Ordering::Relaxed);
                },
                stats,
            );
        }
    }
    RadiiResult { radii: radii_arr, sample, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_bfs;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{cycle, grid3d, path, random_local, rmat, star};
    use ligra_graph::Graph;

    /// Reference: radii[v] = max over samples s of dist(s, v) (finite only).
    fn reference_radii(g: &Graph, sample: &[u32]) -> Vec<u32> {
        let n = g.num_vertices();
        let mut out = vec![UNKNOWN_RADIUS; n];
        for &s in sample {
            let (dist, _) = seq_bfs(g, s);
            for v in 0..n {
                if dist[v] != crate::seq::UNREACHED
                    && (out[v] == UNKNOWN_RADIUS || dist[v] > out[v])
                {
                    out[v] = dist[v];
                }
            }
        }
        out
    }

    fn check(g: &Graph, seed: u64) {
        let r = radii(g, seed);
        let expect = reference_radii(g, &r.sample);
        assert_eq!(r.radii, expect, "radii mismatch (sample = {:?})", r.sample);
    }

    #[test]
    fn small_families_match_reference() {
        check(&path(40), 1);
        check(&cycle(33), 2);
        check(&star(100), 3);
        check(&grid3d(5), 4);
    }

    #[test]
    fn random_graphs_match_reference() {
        check(&random_local(1200, 5, 9), 5);
        check(&rmat(&RmatOptions::paper(9)), 6);
    }

    #[test]
    fn sample_covers_min_of_64_and_n() {
        let g = grid3d(3); // 27 vertices
        let r = radii(&g, 7);
        assert_eq!(r.sample.len(), 27);
        let g = grid3d(6); // 216 vertices
        let r = radii(&g, 7);
        assert_eq!(r.sample.len(), SAMPLES);
        // Distinct samples.
        let mut s = r.sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), SAMPLES);
    }

    #[test]
    fn diameter_estimate_on_path_with_full_sample() {
        // n <= 64: every vertex is a sample, so the estimate is the exact
        // diameter.
        let g = path(50);
        let r = radii(&g, 11);
        assert_eq!(r.estimated_diameter(), 49);
    }

    #[test]
    fn estimate_lower_bounds_true_diameter() {
        let g = grid3d(7);
        let r = radii(&g, 13);
        let true_diameter = 3 * (7 / 2); // torus: 3 axes, each ≤ side/2
        assert!(r.estimated_diameter() <= true_diameter as u32);
        assert!(r.estimated_diameter() >= true_diameter as u32 / 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = random_local(500, 4, 3);
        let a = radii(&g, 42);
        let b = radii(&g, 42);
        assert_eq!(a.radii, b.radii);
        assert_eq!(a.sample, b.sample);
    }
}
