//! Parallel filter / pack.
//!
//! `pack` keeps the elements whose flag is set, preserving order — exactly
//! PBBS `sequence::pack`. Ligra uses it to (a) convert dense vertex subsets
//! to sparse ones and (b) compact the over-allocated output of sparse
//! `edgeMap` (slots that produced no target hold a sentinel). The scheme is
//! the standard one: per-block counts, exclusive scan of counts, then a
//! second pass copying survivors to their final offsets.

use crate::scan::scan_exclusive;
use crate::utils::{block_range, num_blocks, SendPtr, GRANULARITY};
use rayon::prelude::*;

/// Keeps `xs[i]` iff `flags[i]`, preserving order.
///
/// # Panics
/// Panics if `xs.len() != flags.len()`.
pub fn pack<T: Copy + Send + Sync>(xs: &[T], flags: &[bool]) -> Vec<T> {
    assert_eq!(xs.len(), flags.len(), "pack: mismatched lengths");
    pack_with(xs.len(), |i| flags[i], |i| xs[i])
}

/// Keeps `xs[i]` iff `pred(&xs[i])`, preserving order.
pub fn filter<T: Copy + Send + Sync>(xs: &[T], pred: impl Fn(&T) -> bool + Sync) -> Vec<T> {
    pack_with(xs.len(), |i| pred(&xs[i]), |i| xs[i])
}

/// Returns the indices `i` (as `u32`) with `flags[i]` set, in order.
///
/// This is the dense→sparse `vertexSubset` conversion: the flags array is
/// the dense representation, the output is the sparse one.
pub fn pack_index(flags: &[bool]) -> Vec<u32> {
    debug_assert!(flags.len() <= u32::MAX as usize);
    pack_with(flags.len(), |i| flags[i], crate::utils::checked_u32)
}

/// Returns the indices of the set bits of a packed bit set, in order.
///
/// The dense→sparse `vertexSubset` conversion for the bitset representation:
/// per-block popcounts replace the per-element flag test of [`pack_index`],
/// and the write pass decodes set bits with `trailing_zeros`, skipping
/// 64 positions per zero word.
pub fn pack_index_bits(bits: &crate::bitvec::BitSet) -> Vec<u32> {
    debug_assert!(bits.len() <= u32::MAX as usize);
    let words = bits.words();
    let nw = words.len();
    if nw == 0 {
        return Vec::new();
    }
    // Block over words; GRANULARITY bits of work per sequential grain.
    let nblocks = num_blocks(nw, GRANULARITY / 64);
    let counts: Vec<usize> = (0..nblocks)
        .into_par_iter()
        .map(|b| block_range(nw, nblocks, b).map(|wi| words[wi].count_ones() as usize).sum())
        .collect();
    let (counts, total) = scan_exclusive(&counts, 0, |a, b| a + b);

    let mut out: Vec<u32> = Vec::with_capacity(total);
    {
        let spare = out.spare_capacity_mut();
        let ptr = SendPtr(spare.as_mut_ptr());
        (0..nblocks).into_par_iter().for_each(|b| {
            let mut o = counts[b];
            let p = ptr;
            for wi in block_range(nw, nblocks, b) {
                let mut w = words[wi];
                while w != 0 {
                    let i = crate::utils::checked_u32(wi * 64) + w.trailing_zeros();
                    // SAFETY: offsets from the scan are disjoint across
                    // blocks and total <= capacity.
                    unsafe { (*p.0.add(o)).write(i) };
                    o += 1;
                    w &= w - 1;
                }
            }
        });
    }
    // SAFETY: exactly `total` slots were initialized.
    unsafe { out.set_len(total) };
    out
}

/// Shared engine: keeps `produce(i)` for every `i in 0..n` with `keep(i)`.
pub fn pack_with<T, K, P>(n: usize, keep: K, produce: P) -> Vec<T>
where
    T: Copy + Send + Sync,
    K: Fn(usize) -> bool + Sync,
    P: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let nblocks = num_blocks(n, GRANULARITY);
    if nblocks == 1 {
        let mut out = Vec::new();
        for i in 0..n {
            if keep(i) {
                out.push(produce(i));
            }
        }
        return out;
    }

    // Pass 1: count survivors per block.
    let counts: Vec<usize> = (0..nblocks)
        .into_par_iter()
        .map(|b| block_range(n, nblocks, b).filter(|&i| keep(i)).count())
        .collect();
    let (counts, total) = scan_exclusive(&counts, 0, |a, b| a + b);

    // Pass 2: copy survivors to their offsets.
    let mut out: Vec<T> = Vec::with_capacity(total);
    {
        let spare = out.spare_capacity_mut();
        let ptr = SendPtr(spare.as_mut_ptr());
        (0..nblocks).into_par_iter().for_each(|b| {
            let mut o = counts[b];
            let p = ptr;
            for i in block_range(n, nblocks, b) {
                if keep(i) {
                    // SAFETY: offsets from the scan are disjoint across
                    // blocks and total <= capacity.
                    unsafe { (*p.0.add(o)).write(produce(i)) };
                    o += 1;
                }
            }
        });
    }
    // SAFETY: exactly `total` slots were initialized.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash32;

    #[test]
    fn pack_empty() {
        let out: Vec<u32> = pack(&[], &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn pack_all_and_none() {
        let xs: Vec<u32> = (0..10_000).collect();
        let all = vec![true; xs.len()];
        let none = vec![false; xs.len()];
        assert_eq!(pack(&xs, &all), xs);
        assert!(pack(&xs, &none).is_empty());
    }

    #[test]
    fn pack_matches_sequential() {
        let xs: Vec<u32> = (0..200_000u32).map(hash32).collect();
        let flags: Vec<bool> = xs.iter().map(|&x| x.is_multiple_of(3)).collect();
        let expect: Vec<u32> =
            xs.iter().zip(&flags).filter_map(|(&x, &f)| f.then_some(x)).collect();
        assert_eq!(pack(&xs, &flags), expect);
    }

    #[test]
    fn filter_preserves_order() {
        let xs: Vec<u32> = (0..100_000).collect();
        let out = filter(&xs, |&x| x.is_multiple_of(7));
        let expect: Vec<u32> = (0..100_000u32).filter(|&x| x.is_multiple_of(7)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pack_index_is_sorted_positions() {
        let flags: Vec<bool> = (0..50_000).map(|i| hash32(i).is_multiple_of(5)).collect();
        let idx = pack_index(&flags);
        let expect: Vec<u32> = (0..50_000u32).filter(|&i| flags[i as usize]).collect();
        assert_eq!(idx, expect);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pack_index_bits_matches_pack_index() {
        use crate::bitvec::BitSet;
        for n in [0usize, 1, 63, 64, 65, 2048, 50_000] {
            let flags: Vec<bool> = (0..n).map(|i| hash32(i as u32).is_multiple_of(5)).collect();
            let bits = BitSet::from_bools(&flags);
            assert_eq!(pack_index_bits(&bits), pack_index(&flags), "n={n}");
        }
    }

    #[test]
    fn pack_mismatched_lengths_panics() {
        let r = std::panic::catch_unwind(|| pack(&[1u32, 2], &[true]));
        assert!(r.is_err());
    }
}
