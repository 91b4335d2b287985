//! `vertexMap` and `vertexFilter`.

use crate::stats::{Op, Recorder, ReprKind, RoundStat};
use crate::vertex_subset::VertexSubset;
use ligra_graph::VertexId;
use ligra_parallel::checked_u32;
use rayon::prelude::*;
use std::time::Instant;

/// Applies `f` to every member of `subset` in parallel.
///
/// Works on whichever representation the subset currently has (no
/// conversion): sparse iterates the member list, dense decodes the packed
/// bitset word-at-a-time, skipping 64 non-members per zero word.
pub fn vertex_map(subset: &VertexSubset, f: impl Fn(VertexId) + Sync) {
    if let Some(vs) = subset.sparse() {
        vs.par_iter().for_each(|&v| f(v));
    } else if let Some(bits) = subset.dense() {
        bits.words().par_iter().enumerate().for_each(|(wi, &w0)| {
            let mut w = w0;
            while w != 0 {
                f(checked_u32(wi * 64) + w.trailing_zeros());
                w &= w - 1;
            }
        });
    }
}

/// Returns the members of `subset` for which `f` returns `true`, applying
/// `f` exactly once per member. Preserves the input's representation; the
/// dense path maps each input word to one output word, so no atomics and
/// no per-vertex writes.
pub fn vertex_filter(subset: &VertexSubset, f: impl Fn(VertexId) -> bool + Sync) -> VertexSubset {
    let n = subset.num_vertices();
    if let Some(vs) = subset.sparse() {
        let kept = ligra_parallel::pack::filter(vs, |&v| f(v));
        VertexSubset::from_sparse(n, kept)
    } else if let Some(bits) = subset.dense() {
        let words: Vec<u64> = bits
            .words()
            .par_iter()
            .enumerate()
            .map(|(wi, &w0)| {
                let mut out = 0u64;
                let mut w = w0;
                while w != 0 {
                    let b = w.trailing_zeros();
                    if f(checked_u32(wi * 64) + b) {
                        out |= 1u64 << b;
                    }
                    w &= w - 1;
                }
                out
            })
            .collect();
        VertexSubset::from_bitset(n, ligra_parallel::bitvec::BitSet::from_words(words, n))
    } else {
        unreachable!()
    }
}

/// Current representation of `subset` as a telemetry tag.
fn repr_of(subset: &VertexSubset) -> ReprKind {
    if subset.is_sparse() {
        ReprKind::Sparse
    } else {
        ReprKind::Dense
    }
}

/// Runs one pass over `subset`'s members and, when `rec` is listening,
/// delivers it as one timed [`Op::VertexMap`] [`RoundStat`].
fn vertex_pass_recorded<T, R: Recorder>(
    subset: &VertexSubset,
    rec: &mut R,
    pass: impl FnOnce() -> T,
) -> T {
    if !rec.enabled() {
        return pass();
    }
    let start = Instant::now();
    let out = pass();
    let mut r = RoundStat::vertex_op(
        Op::VertexMap,
        subset.len() as u64,
        repr_of(subset),
        subset.len() as u64,
    );
    r.frontier_bytes = subset.repr_bytes();
    r.time_ns = start.elapsed().as_nanos() as u64;
    rec.record(r);
    out
}

/// [`vertex_map`] delivering one timed [`RoundStat`] to `rec`.
pub fn vertex_map_recorded<R: Recorder>(
    subset: &VertexSubset,
    f: impl Fn(VertexId) + Sync,
    rec: &mut R,
) {
    vertex_pass_recorded(subset, rec, || vertex_map(subset, f));
}

/// [`vertex_map_reduce_f64`] delivering the same one [`Op::VertexMap`]
/// [`RoundStat`] as [`vertex_map_recorded`]: a vertex pass that also
/// returns a sum is still one pass.
pub fn vertex_map_reduce_f64_recorded<R: Recorder>(
    subset: &VertexSubset,
    f: impl Fn(VertexId) -> f64 + Sync,
    rec: &mut R,
) -> f64 {
    vertex_pass_recorded(subset, rec, || vertex_map_reduce_f64(subset, f))
}

/// [`vertex_filter`] delivering one timed [`RoundStat`] to `rec`.
pub fn vertex_filter_recorded<R: Recorder>(
    subset: &VertexSubset,
    f: impl Fn(VertexId) -> bool + Sync,
    rec: &mut R,
) -> VertexSubset {
    if !rec.enabled() {
        return vertex_filter(subset, f);
    }
    let start = Instant::now();
    let out = vertex_filter(subset, f);
    let mut r = RoundStat::vertex_op(
        Op::VertexFilter,
        subset.len() as u64,
        repr_of(subset),
        out.len() as u64,
    );
    r.frontier_bytes = subset.repr_bytes() + out.repr_bytes();
    r.time_ns = start.elapsed().as_nanos() as u64;
    rec.record(r);
    out
}

/// Sums `f(v)` over the members of `subset`, applying `f` exactly once per
/// member — so `f` may also update per-vertex state, which is how
/// PageRank's damping pass returns its L1 error term. The terms are added
/// in a fixed order (per 64-vertex word, then word by word), so the sum
/// does not depend on the schedule and a convergence test that reads it
/// repeats exactly.
pub fn vertex_map_reduce_f64(subset: &VertexSubset, f: impl Fn(VertexId) -> f64 + Sync) -> f64 {
    let partials: Vec<f64> = if let Some(vs) = subset.sparse() {
        vs.par_iter().map(|&v| f(v)).collect()
    } else if let Some(bits) = subset.dense() {
        bits.words()
            .par_iter()
            .enumerate()
            .map(|(wi, &w0)| {
                let mut sum = 0.0;
                let mut w = w0;
                while w != 0 {
                    sum += f(checked_u32(wi * 64) + w.trailing_zeros());
                    w &= w - 1;
                }
                sum
            })
            .collect()
    } else {
        unreachable!()
    };
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn map_visits_each_member_once_sparse() {
        let hits: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        let s = VertexSubset::from_sparse(10, vec![1, 3, 5]);
        vertex_map(&s, |v| {
            hits[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        let counts: Vec<u32> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![0, 1, 0, 1, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn map_visits_each_member_once_dense() {
        let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let mut s = VertexSubset::from_sparse(8, vec![0, 7]);
        s.to_dense();
        vertex_map(&s, |v| {
            hits[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[7].load(Ordering::Relaxed), 1);
        assert_eq!(hits[3].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn filter_preserves_representation() {
        let sparse = VertexSubset::from_sparse(10, vec![1, 2, 3, 4]);
        let out = vertex_filter(&sparse, |v| v.is_multiple_of(2));
        assert!(out.is_sparse());
        assert_eq!(out.to_vec_sorted(), vec![2, 4]);

        let mut dense = VertexSubset::from_sparse(10, vec![1, 2, 3, 4]);
        dense.to_dense();
        let out = vertex_filter(&dense, |v| v % 2 == 1);
        assert!(!out.is_sparse());
        assert_eq!(out.to_vec_sorted(), vec![1, 3]);
    }

    #[test]
    fn filter_empty() {
        let s = VertexSubset::empty(5);
        let out = vertex_filter(&s, |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn recorded_vertex_ops_emit_events() {
        use crate::stats::{NoopRecorder, Op, TraversalStats};
        let s = VertexSubset::from_sparse(10, vec![1, 3, 5, 7]);
        let mut stats = TraversalStats::new();
        vertex_map_recorded(&s, |_| {}, &mut stats);
        let out = vertex_filter_recorded(&s, |v| v > 3, &mut stats);
        assert_eq!(out.to_vec_sorted(), vec![5, 7]);
        assert_eq!(stats.num_rounds(), 2);
        assert_eq!(stats.rounds[0].op, Op::VertexMap);
        assert_eq!(stats.rounds[0].frontier_vertices, 4);
        assert_eq!(stats.rounds[1].op, Op::VertexFilter);
        assert_eq!(stats.rounds[1].output_vertices, 2);
        assert!(stats.rounds[0].time_ns > 0 && stats.rounds[1].time_ns > 0);
        // Noop path: same results, no events anywhere.
        let out = vertex_filter_recorded(&s, |v| v > 3, &mut NoopRecorder);
        assert_eq!(out.to_vec_sorted(), vec![5, 7]);
    }

    #[test]
    fn reduce_sums_members_only() {
        let s = VertexSubset::from_sparse(10, vec![2, 4]);
        let sum = vertex_map_reduce_f64(&s, |v| v as f64);
        assert_eq!(sum, 6.0);
        let mut d = s.clone();
        d.to_dense();
        assert_eq!(vertex_map_reduce_f64(&d, |v| v as f64), 6.0);
    }

    #[test]
    fn recorded_reduce_is_one_vertex_map_event() {
        use crate::stats::{NoopRecorder, TraversalStats};
        let s = VertexSubset::all(100);
        let mut stats = TraversalStats::new();
        let sum = vertex_map_reduce_f64_recorded(&s, |v| v as f64, &mut stats);
        assert_eq!(sum, 4950.0);
        assert_eq!(stats.num_rounds(), 1);
        let r = stats.rounds[0];
        assert_eq!((r.op, r.frontier_vertices, r.output_vertices), (Op::VertexMap, 100, 100));
        assert_eq!(r.frontier_bytes, s.repr_bytes());
        assert!(r.time_ns > 0);
        assert_eq!(vertex_map_reduce_f64_recorded(&s, |v| v as f64, &mut NoopRecorder), sum);
    }
}
