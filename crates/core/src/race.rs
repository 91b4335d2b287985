//! Shadow-state race oracle for `edgeMap` update functions.
//!
//! The paper's correctness contract (§3 of the Ligra paper) is implicit:
//! on the push traversals (sparse and dense-forward) many sources may
//! drive one target concurrently, so `update_atomic` must synchronize —
//! typically a CAS that lets at most one source "win" a target per
//! round. The pull traversal scans each target from exactly one task, so
//! plain `update` may use unsynchronized writes. Nothing in the type
//! system enforces either half of that contract; a plain-write `F`
//! driven through the push path is a silent data race.
//!
//! [`RaceOracle`] makes the contract checkable. With the `race-check`
//! cargo feature enabled, the traversal kernels record every update
//! attempt against per-target shadow cells:
//!
//! * **overlap evidence** — two in-flight attempts on one target prove
//!   the push path really did drive the target concurrently, i.e. the
//!   certification run actually exercised the contract;
//! * **win accounting** — under [`WinContract::Claim`] a second `true`
//!   return for one target in one round is a violation reported with
//!   *both* conflicting source vertices;
//! * **pull exclusivity** — on the dense(pull) path any concurrent pair
//!   of attempts on one target is a framework bug, independent of `F`.
//!   An attempt there is one `update` call or, for an `F` that reduces,
//!   one whole-target `gather` (bracketed once, the target as its own
//!   source).
//!
//! Without the feature the hooks compile away and `edgeMap` is
//! unchanged; the oracle type itself always exists so harnesses can be
//! written without `cfg` noise.

use crate::graph::VertexId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// How many times an update function may legitimately return `true`
/// ("win") for one target vertex within one `edgeMap` round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinContract {
    /// At most one win per target per round — the CAS-claim discipline
    /// of BFS-style functions. A second win is reported as a race.
    Claim,
    /// Any number of wins per target per round — accumulate-style
    /// functions (PageRank's `fetch_add`, Bellman–Ford's repeated
    /// relaxations). Win counting is still recorded as evidence but
    /// never flagged.
    MultiWin,
}

/// What kind of contract breach a [`Violation`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two sources both won one target in one round under
    /// [`WinContract::Claim`].
    DoubleWin,
    /// Two attempts were in flight on one target on the dense(pull)
    /// path, which promises single-owner targets regardless of `F`.
    ExclusiveOverlap,
}

/// One recorded contract breach, naming both conflicting sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which contract was breached.
    pub kind: ViolationKind,
    /// The contended target vertex.
    pub target: VertexId,
    /// The source that reached the target first (best-effort under
    /// contention; exact for [`ViolationKind::DoubleWin`]).
    pub first_src: VertexId,
    /// The source whose attempt exposed the breach.
    pub second_src: VertexId,
    /// 0-based `edgeMap` round (i.e. `begin_round` call count - 1).
    pub round: u32,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ViolationKind::DoubleWin => write!(
                f,
                "race-check: sources {} and {} both won target {} in round {} \
                 (WinContract::Claim allows one winner per target per round)",
                self.first_src, self.second_src, self.target, self.round
            ),
            ViolationKind::ExclusiveOverlap => write!(
                f,
                "race-check: sources {} and {} drove target {} concurrently in round {} \
                 on the dense(pull) path, which guarantees single-owner targets",
                self.first_src, self.second_src, self.target, self.round
            ),
        }
    }
}

/// Aggregate evidence from one certified run. Produced by
/// [`RaceOracle::report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Rounds observed (`begin_round` calls).
    pub rounds: u32,
    /// Total update attempts that passed through the shadow protocol.
    pub attempts: u64,
    /// Attempts that returned `true`.
    pub wins: u64,
    /// Attempts that observed another attempt in flight on the same
    /// target — proof the run exercised real contention.
    pub overlaps: u64,
    /// Contract breaches, in detection order.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// `true` when the run recorded no contract breach.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-target shadow recorder certifying `edgeMap` update functions.
/// See the [module docs](self) for the protocol.
pub struct RaceOracle {
    contract: WinContract,
    panic_on_violation: bool,
    /// Attempts currently in flight per target.
    inflight: Vec<AtomicU32>,
    /// Last source to enter each target (best-effort identification of
    /// the "other side" of an overlap).
    entrant: Vec<AtomicU32>,
    /// Wins per target in the current round.
    round_wins: Vec<AtomicU32>,
    /// First winning source per target in the current round.
    win_src: Vec<AtomicU32>,
    round: AtomicU32,
    attempts: AtomicU64,
    wins: AtomicU64,
    overlaps: AtomicU64,
    violations: Mutex<Vec<Violation>>,
}

impl std::fmt::Debug for RaceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceOracle")
            .field("contract", &self.contract)
            .field("n", &self.inflight.len())
            .field("rounds", &self.round.load(Ordering::Relaxed))
            .field("attempts", &self.attempts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RaceOracle {
    /// An oracle over `n` vertices that panics at the first violation,
    /// naming both conflicting sources. This is the certification mode:
    /// a racy `F` fails the run immediately and loudly.
    pub fn new(n: usize, contract: WinContract) -> Self {
        Self::build(n, contract, true)
    }

    /// An oracle that records violations in [`RaceOracle::report`]
    /// instead of panicking — for negative tests that want to inspect
    /// the evidence.
    pub fn deferred(n: usize, contract: WinContract) -> Self {
        Self::build(n, contract, false)
    }

    fn build(n: usize, contract: WinContract, panic_on_violation: bool) -> Self {
        let zeroed = |v: u32| (0..n).map(|_| AtomicU32::new(v)).collect::<Vec<_>>();
        RaceOracle {
            contract,
            panic_on_violation,
            inflight: zeroed(0),
            entrant: zeroed(u32::MAX),
            round_wins: zeroed(0),
            win_src: zeroed(u32::MAX),
            round: AtomicU32::new(0),
            attempts: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            overlaps: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// The win discipline this oracle enforces.
    pub fn contract(&self) -> WinContract {
        self.contract
    }

    /// Resets the per-round win ledger. `edge_map_with` calls this once
    /// per round before dispatching a traversal; harnesses driving the
    /// kernels directly must do the same.
    pub fn begin_round(&self) {
        for (w, s) in self.round_wins.iter().zip(&self.win_src) {
            w.store(0, Ordering::Relaxed);
            s.store(u32::MAX, Ordering::Relaxed);
        }
        self.round.fetch_add(1, Ordering::AcqRel);
    }

    /// Marks an `update_atomic(src, target, ..)` attempt as in flight on
    /// a push path. Must be paired with [`RaceOracle::exit_atomic`].
    #[inline]
    pub fn enter_atomic(&self, src: VertexId, target: VertexId) {
        let t = target as usize;
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let prev = self.inflight[t].fetch_add(1, Ordering::AcqRel);
        if prev > 0 {
            self.overlaps.fetch_add(1, Ordering::Relaxed);
        }
        self.entrant[t].store(src, Ordering::Relaxed);
    }

    /// Completes a push-path attempt, recording whether `F` claimed the
    /// target. Under [`WinContract::Claim`], the second win for one
    /// target in one round is a violation carrying both sources.
    #[inline]
    pub fn exit_atomic(&self, src: VertexId, target: VertexId, won: bool) {
        let t = target as usize;
        if won {
            self.wins.fetch_add(1, Ordering::Relaxed);
            let prior = self.round_wins[t].fetch_add(1, Ordering::AcqRel);
            if prior == 0 {
                self.win_src[t].store(src, Ordering::Relaxed);
            } else if self.contract == WinContract::Claim {
                let first = self.win_src[t].load(Ordering::Relaxed);
                self.record(Violation {
                    kind: ViolationKind::DoubleWin,
                    target,
                    first_src: first,
                    second_src: src,
                    round: self.round.load(Ordering::Relaxed).saturating_sub(1),
                });
            }
        }
        self.inflight[t].fetch_sub(1, Ordering::AcqRel);
    }

    /// Marks a plain `update(src, target, ..)` as in flight on the
    /// dense(pull) path, where the framework promises each target is
    /// scanned by exactly one task. Any overlap here is a framework
    /// bug, reported regardless of the win contract. Pair with
    /// [`RaceOracle::exit_exclusive`].
    #[inline]
    pub fn enter_exclusive(&self, src: VertexId, target: VertexId) {
        let t = target as usize;
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let prev = self.inflight[t].fetch_add(1, Ordering::AcqRel);
        if prev > 0 {
            self.overlaps.fetch_add(1, Ordering::Relaxed);
            let other = self.entrant[t].load(Ordering::Relaxed);
            self.record(Violation {
                kind: ViolationKind::ExclusiveOverlap,
                target,
                first_src: other,
                second_src: src,
                round: self.round.load(Ordering::Relaxed).saturating_sub(1),
            });
        }
        self.entrant[t].store(src, Ordering::Relaxed);
    }

    /// Completes a pull-path attempt. Wins are tallied under the same
    /// per-round ledger as the push paths.
    #[inline]
    pub fn exit_exclusive(&self, src: VertexId, target: VertexId, won: bool) {
        // Same ledger as the push path: a Claim function must not win a
        // target twice per round on any path.
        self.exit_atomic(src, target, won);
    }

    fn record(&self, v: Violation) {
        self.violations.lock().expect("race-oracle violation log poisoned").push(v);
        if self.panic_on_violation {
            panic!("{v}");
        }
    }

    /// Snapshot of the evidence gathered so far.
    pub fn report(&self) -> OracleReport {
        OracleReport {
            rounds: self.round.load(Ordering::Acquire),
            attempts: self.attempts.load(Ordering::Relaxed),
            wins: self.wins.load(Ordering::Relaxed),
            overlaps: self.overlaps.load(Ordering::Relaxed),
            violations: self.violations.lock().expect("race-oracle violation log poisoned").clone(),
        }
    }

    /// Certification check: `Ok(report)` when no violation was
    /// recorded, `Err` describing the first breach otherwise.
    pub fn certify(&self) -> Result<OracleReport, String> {
        let report = self.report();
        match report.violations.first() {
            None => Ok(report),
            Some(v) => Err(format!("{v} ({} violation(s) total)", report.violations.len())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_single_winner_is_clean() {
        let o = RaceOracle::new(8, WinContract::Claim);
        o.begin_round();
        // Three sources contend for target 3; exactly one wins.
        for (src, won) in [(0u32, false), (1, true), (2, false)] {
            o.enter_atomic(src, 3);
            o.exit_atomic(src, 3, won);
        }
        let r = o.certify().expect("single winner must certify");
        assert_eq!(r.attempts, 3);
        assert_eq!(r.wins, 1);
        assert!(r.is_clean());
    }

    #[test]
    fn claim_double_win_names_both_sources() {
        let o = RaceOracle::deferred(8, WinContract::Claim);
        o.begin_round();
        o.enter_atomic(4, 7);
        o.exit_atomic(4, 7, true);
        o.enter_atomic(5, 7);
        o.exit_atomic(5, 7, true);
        let r = o.report();
        assert_eq!(r.violations.len(), 1);
        let v = r.violations[0];
        assert_eq!(v.kind, ViolationKind::DoubleWin);
        assert_eq!(v.target, 7);
        assert_eq!((v.first_src, v.second_src), (4, 5));
        let msg = v.to_string();
        assert!(msg.contains("sources 4 and 5"), "message was {msg:?}");
    }

    #[test]
    fn round_boundary_resets_the_claim_ledger() {
        let o = RaceOracle::new(4, WinContract::Claim);
        o.begin_round();
        o.enter_atomic(0, 2);
        o.exit_atomic(0, 2, true);
        o.begin_round();
        // Winning the same target in the next round is legitimate
        // (e.g. Bellman–Ford improving a distance round after round).
        o.enter_atomic(1, 2);
        o.exit_atomic(1, 2, true);
        assert!(o.certify().is_ok());
        assert_eq!(o.report().rounds, 2);
    }

    #[test]
    fn multiwin_never_flags_double_wins() {
        let o = RaceOracle::new(4, WinContract::MultiWin);
        o.begin_round();
        for src in 0u32..4 {
            o.enter_atomic(src, 1);
            o.exit_atomic(src, 1, true);
        }
        let r = o.certify().expect("MultiWin allows repeated wins");
        assert_eq!(r.wins, 4);
    }

    #[test]
    fn overlap_is_counted_as_evidence() {
        let o = RaceOracle::new(4, WinContract::Claim);
        o.begin_round();
        // Interleave two attempts on target 0 (as a parallel run would).
        o.enter_atomic(1, 0);
        o.enter_atomic(2, 0);
        o.exit_atomic(1, 0, true);
        o.exit_atomic(2, 0, false);
        let r = o.report();
        assert_eq!(r.overlaps, 1);
        assert!(r.is_clean());
    }

    #[test]
    fn exclusive_overlap_is_a_framework_violation() {
        let o = RaceOracle::deferred(4, WinContract::MultiWin);
        o.begin_round();
        o.enter_exclusive(1, 3);
        o.enter_exclusive(2, 3);
        let r = o.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::ExclusiveOverlap);
        assert_eq!((r.violations[0].first_src, r.violations[0].second_src), (1, 2));
    }

    #[test]
    #[should_panic(expected = "both won target")]
    fn panicking_mode_aborts_on_double_win() {
        let o = RaceOracle::new(4, WinContract::Claim);
        o.begin_round();
        o.enter_atomic(0, 1);
        o.exit_atomic(0, 1, true);
        o.enter_atomic(2, 1);
        o.exit_atomic(2, 1, true);
    }
}
