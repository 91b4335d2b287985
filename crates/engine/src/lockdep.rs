//! Named-site lock guards: the engine half of the runtime lock-order
//! oracle (DESIGN.md §15).
//!
//! Every engine-tier lock acquisition goes through [`tracked_lock`] /
//! [`tracked_read`] / [`tracked_write`] with a stable site name
//! (`"scheduler.queue"`, `"job.state"`, `"mutation.state"`,
//! `"store.current"`, …). In normal builds the wrappers are
//! zero-bookkeeping poison-recovering guards; with the `lock-check`
//! feature they report every acquisition and release to
//! [`LockOracle::global`], which maintains the per-thread hold stacks
//! and the cross-thread acquisition-order DAG and aborts on the first
//! cycle-closing edge with both threads' witness chains.
//!
//! Condvar waits release and re-acquire: [`TrackedGuard::wait`] and
//! [`TrackedGuard::wait_timeout`] consume the guard, tell the oracle
//! the site was released for the duration of the wait, and re-register
//! it on wakeup — so parking on `queue_cv` with the queue lock is not
//! mistaken for holding the queue across the park.
//!
//! Poison recovery is policy here, as in the scheduler it serves: a
//! worker panic is contained per-query and every guarded structure is
//! consistent between operations, so the poison flag carries no
//! information (this deliberately extends to the snapshot store, which
//! previously treated poisoning as fatal).

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

pub use ligra::lockdep::{EdgeWitness, LockOracle, LockReport, LockViolation};

#[cfg(feature = "lock-check")]
#[inline]
fn oracle_acquire(site: &'static str) {
    LockOracle::global().acquire(site);
}

#[cfg(not(feature = "lock-check"))]
#[inline]
fn oracle_acquire(_site: &'static str) {}

#[cfg(feature = "lock-check")]
#[inline]
fn oracle_release(site: &'static str) {
    LockOracle::global().release(site);
}

#[cfg(not(feature = "lock-check"))]
#[inline]
fn oracle_release(_site: &'static str) {}

/// A mutex guard bound to a named lock site. Dereferences like the
/// underlying `MutexGuard`; releasing (by drop or condvar wait) pops
/// the site from the oracle's hold stack under `lock-check`.
pub struct TrackedGuard<'a, T> {
    /// `None` only transiently, while a consuming wait owns the inner
    /// guard (or after drop).
    inner: Option<MutexGuard<'a, T>>,
    site: &'static str,
}

/// Acquires `m` under `site`, recovering from poisoning: a worker panic
/// is contained per query and every structure the engine's mutexes guard
/// is consistent between operations, so the poison flag carries no
/// information. Under `lock-check` the acquisition is registered *before*
/// blocking on the real mutex — a deadlock-closing edge must be reported
/// by the thread that would complete the cycle, not discovered after it
/// is stuck.
pub fn tracked_lock<'a, T>(m: &'a Mutex<T>, site: &'static str) -> TrackedGuard<'a, T> {
    oracle_acquire(site);
    TrackedGuard { inner: Some(m.lock().unwrap_or_else(PoisonError::into_inner)), site }
}

impl<'a, T> TrackedGuard<'a, T> {
    /// Atomically releases the lock and parks on `cv`, re-acquiring on
    /// wakeup — `std::sync::Condvar::wait` in tracked form. The oracle
    /// sees the site released for the duration of the park.
    pub fn wait(mut self, cv: &Condvar) -> TrackedGuard<'a, T> {
        let site = self.site;
        let g = self.inner.take().expect("tracked guard already consumed");
        oracle_release(site);
        drop(self);
        let g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        oracle_acquire(site);
        TrackedGuard { inner: Some(g), site }
    }

    /// [`TrackedGuard::wait`] with a timeout; returns the re-acquired
    /// guard and whether the wait timed out.
    pub fn wait_timeout(
        mut self,
        cv: &Condvar,
        timeout: Duration,
    ) -> (TrackedGuard<'a, T>, WaitTimeoutResult) {
        let site = self.site;
        let g = self.inner.take().expect("tracked guard already consumed");
        oracle_release(site);
        drop(self);
        let (g, res) = cv.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        oracle_acquire(site);
        (TrackedGuard { inner: Some(g), site }, res)
    }
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("tracked guard used after a consuming wait")
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("tracked guard used after a consuming wait")
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real mutex before telling the oracle: a thread
        // must never appear to hold a site it has already given up.
        if self.inner.take().is_some() {
            oracle_release(self.site);
        }
    }
}

/// A shared (read) `RwLock` guard bound to a named site. Reader-reader
/// coexistence doesn't exempt it from ordering: a writer queued between
/// two readers turns any read-side cycle into a real deadlock, so reads
/// register like every other acquisition.
pub struct TrackedReadGuard<'a, T> {
    inner: Option<RwLockReadGuard<'a, T>>,
    site: &'static str,
}

/// Acquires `l` for shared reading under `site`, recovering from
/// poisoning.
pub fn tracked_read<'a, T>(l: &'a RwLock<T>, site: &'static str) -> TrackedReadGuard<'a, T> {
    oracle_acquire(site);
    TrackedReadGuard { inner: Some(l.read().unwrap_or_else(PoisonError::into_inner)), site }
}

impl<T> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("tracked read guard already released")
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            oracle_release(self.site);
        }
    }
}

/// An exclusive (write) `RwLock` guard bound to a named site.
pub struct TrackedWriteGuard<'a, T> {
    inner: Option<RwLockWriteGuard<'a, T>>,
    site: &'static str,
}

/// Acquires `l` for exclusive writing under `site`, recovering from
/// poisoning.
pub fn tracked_write<'a, T>(l: &'a RwLock<T>, site: &'static str) -> TrackedWriteGuard<'a, T> {
    oracle_acquire(site);
    TrackedWriteGuard { inner: Some(l.write().unwrap_or_else(PoisonError::into_inner)), site }
}

impl<T> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("tracked write guard already released")
    }
}

impl<T> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("tracked write guard already released")
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            oracle_release(self.site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tracked_guard_round_trip() {
        let m = Mutex::new(5u32);
        {
            let mut g = tracked_lock(&m, "test.m");
            *g += 1;
        }
        assert_eq!(*tracked_lock(&m, "test.m"), 6);
    }

    #[test]
    fn tracked_rwlock_round_trip() {
        let l = RwLock::new(1u32);
        {
            let mut w = tracked_write(&l, "test.l");
            *w = 7;
        }
        let r1 = tracked_read(&l, "test.l");
        let r2 = tracked_read(&l, "test.l");
        assert_eq!((*r1, *r2), (7, 7));
    }

    #[test]
    fn wait_hands_the_guard_across_the_park() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*waker;
            let mut g = tracked_lock(m, "test.pair");
            *g = true;
            drop(g);
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = tracked_lock(m, "test.pair");
        while !*g {
            g = g.wait(cv);
        }
        assert!(*g);
        drop(g);
        t.join().expect("waker thread");
    }

    #[test]
    fn wait_timeout_reports_expiry() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let g = tracked_lock(&m, "test.m");
        let (g, res) = g.wait_timeout(&cv, Duration::from_millis(5));
        assert!(res.timed_out());
        assert_eq!(*g, 0);
    }
}
