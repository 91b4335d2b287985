//! Blocked two-pass parallel prefix sums.
//!
//! The scan is the workhorse of Ligra's sparse `edgeMap`: the output
//! frontier is built by prefix-summing the out-degrees of the input
//! frontier to obtain per-source write offsets. We use the classic blocked
//! scheme (PBBS `sequence::scan`): (1) reduce each block sequentially,
//! (2) scan the per-block sums, (3) re-walk each block writing results.
//! This does ~2n work, has O(blocks) sequential depth between passes, and
//! returns bit-identical results to the sequential scan for any associative
//! operation.

use crate::utils::{block_range, num_blocks, SendPtr, GRANULARITY};
use rayon::prelude::*;

/// Generic exclusive scan into a fresh vector.
///
/// `out[i] = id ⊕ x[0] ⊕ … ⊕ x[i-1]`; returns `(out, total)` where `total`
/// is the reduction of the whole input. `op` must be associative.
pub fn scan_exclusive<T, F>(xs: &[T], id: T, op: F) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = xs.len();
    if n == 0 {
        return (Vec::new(), id);
    }
    let nblocks = num_blocks(n, GRANULARITY);
    if nblocks == 1 {
        let mut out = Vec::with_capacity(n);
        let mut acc = id;
        for &x in xs {
            out.push(acc);
            acc = op(acc, x);
        }
        return (out, acc);
    }

    // Pass 1: per-block reductions.
    let mut sums: Vec<T> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let r = block_range(n, nblocks, b);
            xs[r].iter().fold(id, |acc, &x| op(acc, x))
        })
        .collect();

    // Sequential scan of the (small) block-sum array.
    let mut acc = id;
    for s in sums.iter_mut() {
        let next = op(acc, *s);
        *s = acc;
        acc = next;
    }
    let total = acc;

    // Pass 2: re-scan each block seeded with its prefix.
    let mut out: Vec<T> = Vec::with_capacity(n);
    {
        let out_uninit = out.spare_capacity_mut();
        // SAFETY-free approach: write via per-block disjoint chunks of the
        // spare capacity, then set the length. MaybeUninit writes are plain
        // stores; blocks are disjoint so the parallel writes don't alias.
        let out_ptr = SendPtr(out_uninit.as_mut_ptr());
        (0..nblocks).into_par_iter().for_each(|b| {
            let r = block_range(n, nblocks, b);
            let mut acc = sums[b];
            let p = out_ptr;
            for i in r {
                // SAFETY: each index i is written by exactly one block, and
                // the allocation has capacity n.
                unsafe { (*p.0.add(i)).write(acc) };
                acc = op(acc, xs[i]);
            }
        });
    }
    // SAFETY: all n slots were initialized above.
    unsafe { out.set_len(n) };
    (out, total)
}

/// Exclusive `+`-scan of `u64` degrees — the common case in the framework.
///
/// Returns `(offsets, total)` with `offsets.len() == xs.len()`.
#[inline]
pub fn prefix_sums(xs: &[u64]) -> (Vec<u64>, u64) {
    scan_exclusive(xs, 0u64, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash32;

    fn seq_exclusive(xs: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0u64;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_scan() {
        let (out, total) = prefix_sums(&[]);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_element_scan() {
        let (out, total) = prefix_sums(&[7]);
        assert_eq!(out, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn matches_sequential_small() {
        let xs: Vec<u64> = (0..100).map(|i| (hash32(i) % 10) as u64).collect();
        let (par, total) = prefix_sums(&xs);
        let (seq, seq_total) = seq_exclusive(&xs);
        assert_eq!(par, seq);
        assert_eq!(total, seq_total);
    }

    #[test]
    fn matches_sequential_large() {
        let xs: Vec<u64> = (0..300_000u32).map(|i| (hash32(i) % 100) as u64).collect();
        let (par, total) = prefix_sums(&xs);
        let (seq, seq_total) = seq_exclusive(&xs);
        assert_eq!(par, seq);
        assert_eq!(total, seq_total);
    }

    #[test]
    fn scan_with_max_monoid() {
        let xs: Vec<u32> = (0..50_000u32).map(hash32).collect();
        let (out, total) = scan_exclusive(&xs, 0u32, |a, b| a.max(b));
        assert_eq!(total, *xs.iter().max().unwrap());
        let mut running = 0u32;
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(out[i], running);
            running = running.max(x);
        }
    }
}
