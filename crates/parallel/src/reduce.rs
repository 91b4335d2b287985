//! Parallel reductions.
//!
//! Ligra needs only a few reduction shapes: summing degrees to decide the
//! sparse/dense direction, summing floating-point error terms for PageRank
//! convergence, and arg-max for picking high-degree source vertices. All
//! are deterministic: the blocked tree shape is fixed by the input length,
//! not by scheduling (rayon's `reduce` on an indexed iterator already
//! guarantees this for associative operators; for floats we force the exact
//! blocked shape so repeated runs agree bit-for-bit).

use crate::utils::{block_range, num_blocks, GRANULARITY};
use rayon::prelude::*;

/// Generic blocked reduction with identity `id` and associative `op`.
pub fn reduce<T, F>(xs: &[T], id: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = xs.len();
    let nblocks = num_blocks(n, GRANULARITY);
    if nblocks == 1 {
        return xs.iter().fold(id, |acc, &x| op(acc, x));
    }
    let partials: Vec<T> = (0..nblocks)
        .into_par_iter()
        .map(|b| xs[block_range(n, nblocks, b)].iter().fold(id, |acc, &x| op(acc, x)))
        .collect();
    partials.into_iter().fold(id, op)
}

/// Blocked reduction over `f(i)` for `i in 0..n` (no materialized input).
pub fn reduce_with<T, G, F>(n: usize, id: T, f: G, op: F) -> T
where
    T: Copy + Send + Sync,
    G: Fn(usize) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let nblocks = num_blocks(n, GRANULARITY);
    if nblocks == 1 {
        return (0..n).fold(id, |acc, i| op(acc, f(i)));
    }
    let partials: Vec<T> = (0..nblocks)
        .into_par_iter()
        .map(|b| block_range(n, nblocks, b).fold(id, |acc, i| op(acc, f(i))))
        .collect();
    partials.into_iter().fold(id, op)
}

/// Parallel sum of `u64` values.
#[inline]
pub fn sum_u64(xs: &[u64]) -> u64 {
    reduce(xs, 0u64, |a, b| a + b)
}

/// Parallel sum of `usize` values computed by `f(i)` over `0..n`.
#[inline]
pub fn sum_usize(n: usize, f: impl Fn(usize) -> usize + Sync) -> usize {
    reduce_with(n, 0usize, f, |a, b| a + b)
}

/// Index of a maximal element by `key` (ties: lowest index wins).
///
/// Returns `None` on an empty slice. Used by the harness to pick the
/// highest-degree vertex as the traversal source, as the paper does for
/// the Twitter graph.
pub fn max_index<T, K, R>(xs: &[T], key: K) -> Option<usize>
where
    T: Sync,
    K: Fn(&T) -> R + Sync,
    R: PartialOrd + Copy + Send + Sync,
{
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let best = reduce_with(
        n,
        (0usize, key(&xs[0])),
        |i| (i, key(&xs[i])),
        |a, b| {
            // Strictly-greater keeps the earliest index on ties.
            if b.1 > a.1 {
                b
            } else {
                a
            }
        },
    );
    Some(best.0)
}

/// Counts `i in 0..n` with `pred(i)`.
#[inline]
pub fn count(n: usize, pred: impl Fn(usize) -> bool + Sync) -> usize {
    sum_usize(n, |i| usize::from(pred(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash32;

    #[test]
    fn sum_matches_sequential() {
        let xs: Vec<u64> = (0..250_000u32).map(|i| (hash32(i) % 1000) as u64).collect();
        assert_eq!(sum_u64(&xs), xs.iter().sum::<u64>());
    }

    #[test]
    fn sum_empty_is_identity() {
        assert_eq!(sum_u64(&[]), 0);
        assert_eq!(reduce(&[], 0.0f64, |a, b| a + b), 0.0);
    }

    #[test]
    fn reduce_with_max_monoid() {
        let xs: Vec<u32> = (0..100_000u32).map(hash32).collect();
        let m = reduce(&xs, 0u32, |a, b| a.max(b));
        assert_eq!(m, *xs.iter().max().unwrap());
    }

    #[test]
    fn max_index_finds_argmax_and_breaks_ties_low() {
        let xs = vec![3u32, 9, 1, 9, 2];
        assert_eq!(max_index(&xs, |&x| x), Some(1));
        let large: Vec<u32> = (0..100_000u32).map(|i| hash32(i) % 1000).collect();
        let i = max_index(&large, |&x| x).unwrap();
        let m = *large.iter().max().unwrap();
        assert_eq!(large[i], m);
        assert_eq!(i, large.iter().position(|&x| x == m).unwrap());
        assert_eq!(max_index::<u32, _, u32>(&[], |&x| x), None);
    }

    #[test]
    fn count_matches_filter_len() {
        let n = 123_456;
        let c = count(n, |i| hash32(i as u32).is_multiple_of(3));
        let expect = (0..n).filter(|&i| hash32(i as u32).is_multiple_of(3)).count();
        assert_eq!(c, expect);
    }

    #[test]
    fn f64_sum_is_reproducible() {
        let xs: Vec<f64> = (0..100_000u32).map(|i| (hash32(i) % 97) as f64 / 97.0).collect();
        // The blocked tree's shape depends only on the length and the
        // pool size, so a float reduction repeats bit for bit.
        let a = reduce(&xs, 0.0f64, |a, b| a + b);
        let b = reduce(&xs, 0.0f64, |a, b| a + b);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
