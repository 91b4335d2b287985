//! Contention-aware atomic utilities.
//!
//! Ligra's user-supplied edge functions synchronize through a tiny
//! vocabulary of atomic operations: `CAS`, `writeMin`, `writeAdd`, and
//! `fetchOr`. `writeMin` is the *priority update* of Shun, Blelloch,
//! Fineman and Gibbons (SPAA 2013): it atomically installs a new value only
//! if it improves on the current one and, crucially, returns whether the
//! caller won, which the applications use to build the output frontier.
//! Because a priority update writes only while the value improves, the
//! number of actual writes to a hot location is logarithmic in the number of
//! contending updates in expectation — this is what keeps label-propagation
//! connectivity and Bellman–Ford scalable.
//!
//! This module also provides *atomic views* over plain slices. The
//! applications allocate ordinary `Vec<u32>` state and reborrow it as
//! `&[AtomicU32]` for the parallel phases; the exclusive `&mut` borrow
//! guarantees no non-atomic access can overlap the atomic one, and the
//! std atomic types are documented to have the same size and bit validity
//! as their underlying integer type.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

/// Reborrows a mutable `u32` slice as a slice of atomics.
///
/// Sound because (a) `AtomicU32` has the same size, alignment and bit
/// validity as `u32`, and (b) the exclusive borrow of `s` is held for the
/// lifetime of the returned shared borrow, so all access goes through the
/// atomics.
#[inline]
pub fn as_atomic_u32(s: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: AtomicU32 has u32's size/alignment/bit-validity, and the
    // exclusive borrow of `s` outlives the returned shared borrow, so no
    // non-atomic access can overlap the atomic view.
    unsafe { &*(s as *mut [u32] as *const [AtomicU32]) }
}

/// Reborrows a mutable `u64` slice as a slice of atomics. See [`as_atomic_u32`].
#[inline]
pub fn as_atomic_u64(s: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: same layout/borrow argument as `as_atomic_u32`.
    unsafe { &*(s as *mut [u64] as *const [AtomicU64]) }
}

/// Reborrows a mutable `f64` slice as a slice of [`AtomicF64`].
///
/// `AtomicF64` is `#[repr(transparent)]` over `AtomicU64`, which has the
/// same layout as `u64`/`f64` (all 8 bytes, no padding, no invalid bit
/// patterns for the integer view).
#[inline]
pub fn as_atomic_f64(s: &mut [f64]) -> &[AtomicF64] {
    // SAFETY: AtomicF64 is repr(transparent) over AtomicU64, which shares
    // u64/f64's 8-byte layout with no invalid patterns for the integer
    // view; the exclusive borrow of `s` outlives the atomic view.
    unsafe { &*(s as *mut [f64] as *const [AtomicF64]) }
}

/// Compare-and-swap on a `u32`, Ligra's `CAS(loc, old, new)`.
///
/// Returns `true` iff the value was `old` and has been replaced by `new`.
#[inline]
pub fn cas_u32(a: &AtomicU32, old: u32, new: u32) -> bool {
    a.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
}

/// Ligra's `writeMin`: atomically `*a = min(*a, v)`.
///
/// Returns `true` iff `v` strictly improved the stored value (i.e. the
/// caller's write "won"), which edge functions use to decide frontier
/// membership.
///
/// Reads before writing (the SPAA'13 priority-update discipline): losers
/// take a read-only fast path instead of a contended RMW. The early
/// return is sound because the stored value only ever decreases — once
/// `*a <= v` holds it holds forever. EXPERIMENTS A2/A3 records the one-off
/// measurement: >10× under contention vs a blind `fetch_min`.
#[inline]
pub fn write_min_u32(a: &AtomicU32, v: u32) -> bool {
    if a.load(Ordering::Relaxed) <= v {
        return false;
    }
    // fetch_min returns the previous value; we won iff it was larger.
    a.fetch_min(v, Ordering::AcqRel) > v
}

/// Reborrows a mutable `i64` slice as a slice of atomics. See [`as_atomic_u32`].
#[inline]
pub fn as_atomic_i64(s: &mut [i64]) -> &[AtomicI64] {
    // SAFETY: same layout/borrow argument as `as_atomic_u32`.
    unsafe { &*(s as *mut [i64] as *const [AtomicI64]) }
}

/// Ligra's `writeMin` on signed 64-bit distances (Bellman–Ford).
/// Returns `true` iff `v` strictly improved the stored value.
/// Read-first like [`write_min_u32`] (distances only shrink).
#[inline]
pub fn write_min_i64(a: &AtomicI64, v: i64) -> bool {
    if a.load(Ordering::Relaxed) <= v {
        return false;
    }
    a.fetch_min(v, Ordering::AcqRel) > v
}

/// A `f64` with atomic load/store/add, built over `AtomicU64` bit patterns.
///
/// The paper's PageRank and betweenness-centrality kernels use an atomic
/// floating-point `writeAdd` implemented exactly like this (a CAS loop over
/// the 64-bit image of the double).
#[repr(transparent)]
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic double.
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.0.load(order))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.0.store(v.to_bits(), order);
    }

    /// Atomic `*self += v` via a CAS loop; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Default for AtomicF64 {
    fn default() -> Self {
        AtomicF64::new(0.0)
    }
}

impl Clone for AtomicF64 {
    fn clone(&self) -> Self {
        AtomicF64::new(self.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn cas_succeeds_only_on_expected() {
        let a = AtomicU32::new(5);
        assert!(cas_u32(&a, 5, 7));
        assert!(!cas_u32(&a, 5, 9));
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn write_min_reports_strict_improvement() {
        let a = AtomicU32::new(10);
        assert!(write_min_u32(&a, 3));
        assert!(!write_min_u32(&a, 3), "equal value must not win");
        assert!(!write_min_u32(&a, 5));
        assert_eq!(a.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn exactly_one_winner_per_value_level() {
        // All threads write the same value: exactly one must win.
        let a = AtomicU32::new(u32::MAX);
        let wins: u32 = (0..1000u32).into_par_iter().map(|_| u32::from(write_min_u32(&a, 7))).sum();
        assert_eq!(wins, 1);
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn atomic_f64_add_accumulates_exactly_with_equal_addends() {
        let a = AtomicF64::new(0.0);
        (0..4096).into_par_iter().for_each(|_| {
            a.fetch_add(0.5);
        });
        assert_eq!(a.load(Ordering::Relaxed), 2048.0);
    }

    #[test]
    fn atomic_view_roundtrips() {
        let mut v = vec![1u32, 2, 3];
        {
            let a = as_atomic_u32(&mut v);
            a[0].store(10, Ordering::Relaxed);
            a[2].fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(v, vec![10, 2, 4]);
    }

    #[test]
    fn atomic_f64_view_roundtrips() {
        let mut v = vec![1.0f64, 2.0];
        {
            let a = as_atomic_f64(&mut v);
            a[0].fetch_add(0.5);
            a[1].store(-3.0, Ordering::Relaxed);
        }
        assert_eq!(v, vec![1.5, -3.0]);
    }

    #[test]
    fn parallel_min_over_atomic_view_equals_sequential_min() {
        let data: Vec<u32> = (0..50_000u32).map(crate::hash::hash32).collect();
        let mut result = vec![u32::MAX];
        {
            let cell = &as_atomic_u32(&mut result)[0];
            data.par_iter().for_each(|&x| {
                write_min_u32(cell, x);
            });
        }
        assert_eq!(result[0], *data.iter().min().unwrap());
    }
}
