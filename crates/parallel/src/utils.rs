//! Granularity control and thread-pool helpers.
//!
//! The paper's Cilk code relies on the scheduler to amortize spawn overhead;
//! in rayon the analogous discipline is to stop subdividing work below a
//! sequential grain size. Every parallel primitive in this crate falls back
//! to its sequential implementation below [`GRANULARITY`] elements, which
//! keeps the primitives fast on the small frontiers that dominate
//! high-diameter graph traversals.

use rayon::prelude::*;

/// Sequential fall-back threshold for the parallel primitives.
///
/// Work on fewer than this many elements is done sequentially: at ~2k
/// elements the cost of a fork/join round trip outweighs the work itself for
/// the cheap per-element operations (copies, adds, compares) these
/// primitives perform.
pub const GRANULARITY: usize = 2048;

/// A raw pointer that parallel blocks may share.
///
/// The standard PBBS compaction shape — per-block counts, exclusive scan,
/// then parallel writes to disjoint offset ranges — needs a mutable pointer
/// captured by many tasks at once. Safety rests entirely on the caller
/// guaranteeing the blocks write disjoint slots.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);
// SAFETY: SendPtr is a plain address with no aliasing claims of its own;
// every use site confines concurrent writes through it to disjoint index
// ranges (counts + exclusive scan ⇒ non-overlapping destinations), which is
// the invariant that makes cross-thread sharing of the address sound.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: see the Send impl above — disjoint-range writes are the only
// shared-reference use.
unsafe impl<T> Sync for SendPtr<T> {}

// The checked ID-cast helpers below are the one sanctioned home for
// narrowing conversions on vertex/edge IDs (lint rule L4 exempts this
// file). Widening `as usize` stays unchecked everywhere because the
// workspace only targets 64-bit platforms:
const _: () = assert!(
    std::mem::size_of::<usize>() >= 8,
    "ligra assumes 64-bit usize: `id as usize` must be lossless"
);

/// Narrows an index to `u32`, panicking with the violated invariant if it
/// exceeds vertex-ID range. Use this (not `as u32`) whenever a `usize` or
/// `u64` becomes a vertex/edge ID; the branch predicts perfectly and keeps
/// truncation bugs loud instead of graph-dependent.
#[inline]
pub fn checked_u32<T: TryInto<u32>>(x: T) -> u32 {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => panic!("id exceeds u32 vertex-ID range"),
    }
}

/// Number of worker threads in the current rayon pool.
#[inline]
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Picks a block count for a blocked parallel pass over `len` elements.
///
/// Aims for ~8 blocks per thread (for load balance under work stealing)
/// while never making blocks smaller than the sequential grain.
#[inline]
pub fn num_blocks(len: usize, grain: usize) -> usize {
    if len <= grain.max(1) {
        1
    } else {
        let by_grain = len.div_ceil(grain.max(1));
        let by_threads = 8 * num_threads();
        by_grain.min(by_threads).max(1)
    }
}

/// Splits `0..len` into `nblocks` contiguous ranges of near-equal size.
///
/// Block `i` is `block_range(len, nblocks, i)`. The first `len % nblocks`
/// blocks get one extra element, so sizes differ by at most one.
#[inline]
pub fn block_range(len: usize, nblocks: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i < nblocks);
    let base = len / nblocks;
    let extra = len % nblocks;
    let start = i * base + i.min(extra);
    let end = start + base + usize::from(i < extra);
    start..end
}

/// Runs `f` inside a dedicated rayon pool with exactly `n` threads.
///
/// Used by the scalability benchmarks (Figure F4) to sweep thread counts;
/// the paper's equivalent is setting `CILK_NWORKERS`.
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// Reports whether [`with_threads`]`(n, ...)` actually runs work on more
/// than one OS thread.
///
/// A sequential stand-in for rayon (such as the vendored offline stub this
/// workspace patches in when no crates registry is reachable) reports the
/// configured pool size through `current_num_threads` but executes every
/// closure on the calling thread. Pool-size introspection therefore cannot
/// distinguish the two; this probe can: it runs a small parallel workload
/// and counts the distinct OS threads that touched it. Thread-sweep
/// harnesses use it to avoid presenting identical sequential runs as
/// scaling data.
pub fn pool_is_parallel(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    with_threads(n, || {
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        // Enough tasks per worker, each slow enough, that an idle real
        // worker steals at least one; a sequential runtime keeps all of
        // them on the calling thread.
        (0..n * 8).into_par_iter().with_max_len(1).for_each(|_| {
            ids.lock().expect("probe mutex poisoned").insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        ids.into_inner().expect("probe mutex poisoned").len() > 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 100, 1000, 2049] {
            for nblocks in [1usize, 2, 3, 7, 16] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..nblocks {
                    let r = block_range(len, nblocks, i);
                    assert_eq!(r.start, prev_end, "len={len} nblocks={nblocks} i={i}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let len = 1003;
        let nblocks = 16;
        let sizes: Vec<usize> = (0..nblocks).map(|i| block_range(len, nblocks, i).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn num_blocks_is_one_for_small_inputs() {
        assert_eq!(num_blocks(0, GRANULARITY), 1);
        assert_eq!(num_blocks(GRANULARITY, GRANULARITY), 1);
        assert!(num_blocks(GRANULARITY * 64, GRANULARITY) > 1);
    }

    #[test]
    fn with_threads_runs_in_sized_pool() {
        let n = with_threads(2, num_threads);
        assert_eq!(n, 2);
    }

    #[test]
    fn checked_u32_roundtrips_and_panics() {
        assert_eq!(checked_u32(0usize), 0);
        assert_eq!(checked_u32(u32::MAX as usize), u32::MAX);
        assert_eq!(checked_u32(41u64), 41);
        assert!(std::panic::catch_unwind(|| checked_u32(u32::MAX as u64 + 1)).is_err());
    }

    #[test]
    fn single_thread_pool_is_not_parallel() {
        // Holds under both real rayon and the sequential offline stub; the
        // n >= 2 answer is runtime-dependent and probed, not asserted.
        assert!(!pool_is_parallel(1));
    }
}
