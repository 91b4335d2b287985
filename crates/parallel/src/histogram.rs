//! Parallel bounded-key counting.
//!
//! The graph builder needs degree histograms: given `m` edge sources in
//! `[0, n)`, count occurrences of each key. For the sizes we care about
//! (keys ≲ 2²⁴) the cache-friendly scheme is per-block local count arrays
//! merged by a parallel loop over keys; for very large key spaces relative
//! to the input we fall back to atomic increments, which contend rarely
//! because collisions are rare by assumption.

use crate::utils::{block_range, num_blocks, GRANULARITY};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Counts occurrences of each key: `out[k] = |{ i : keys[i] == k }|`.
///
/// # Panics
/// Panics (in debug) if any key is `>= nkeys`.
pub fn histogram_u32(keys: &[u32], nkeys: usize) -> Vec<u32> {
    let n = keys.len();
    let nblocks = num_blocks(n, GRANULARITY);
    if nblocks == 1 {
        let mut out = vec![0u32; nkeys];
        for &k in keys {
            debug_assert!((k as usize) < nkeys, "key {k} out of range {nkeys}");
            out[k as usize] += 1;
        }
        return out;
    }

    // Heuristic: local arrays cost nblocks * nkeys space; switch to the
    // atomic scheme when that exceeds ~4x the input size.
    if nblocks.saturating_mul(nkeys) <= 4 * n.max(1) {
        let locals: Vec<Vec<u32>> = (0..nblocks)
            .into_par_iter()
            .map(|b| {
                let mut local = vec![0u32; nkeys];
                for &k in &keys[block_range(n, nblocks, b)] {
                    debug_assert!((k as usize) < nkeys);
                    local[k as usize] += 1;
                }
                local
            })
            .collect();
        let mut out = vec![0u32; nkeys];
        out.par_iter_mut().enumerate().for_each(|(k, slot)| {
            *slot = locals.iter().map(|l| l[k]).sum();
        });
        out
    } else {
        let out: Vec<AtomicU32> = (0..nkeys).map(|_| AtomicU32::new(0)).collect();
        keys.par_iter().for_each(|&k| {
            debug_assert!((k as usize) < nkeys);
            out[k as usize].fetch_add(1, Ordering::Relaxed);
        });
        out.into_iter().map(AtomicU32::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash32;

    fn seq_histogram(keys: &[u32], nkeys: usize) -> Vec<u32> {
        let mut out = vec![0u32; nkeys];
        for &k in keys {
            out[k as usize] += 1;
        }
        out
    }

    #[test]
    fn empty_histogram() {
        assert_eq!(histogram_u32(&[], 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn small_histogram_matches_sequential() {
        let keys = vec![0u32, 1, 1, 3, 3, 3];
        assert_eq!(histogram_u32(&keys, 4), vec![1, 2, 0, 3]);
    }

    #[test]
    fn large_histogram_small_keyspace() {
        let keys: Vec<u32> = (0..500_000u32).map(|i| hash32(i) % 64).collect();
        assert_eq!(histogram_u32(&keys, 64), seq_histogram(&keys, 64));
    }

    #[test]
    fn large_histogram_large_keyspace_uses_atomics() {
        // nkeys >> input forces the atomic path.
        let nkeys = 1 << 20;
        let keys: Vec<u32> = (0..10_000u32).map(|i| hash32(i) % nkeys as u32).collect();
        assert_eq!(histogram_u32(&keys, nkeys), seq_histogram(&keys, nkeys));
    }

    #[test]
    fn total_mass_is_preserved() {
        let keys: Vec<u32> = (0..100_000u32).map(|i| hash32(i) % 1000).collect();
        let h = histogram_u32(&keys, 1000);
        assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), keys.len());
    }
}
