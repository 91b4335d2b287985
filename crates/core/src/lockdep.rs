//! Runtime lock-order oracle ("lockdep") for the serving tier.
//!
//! The static lock pass (`ligra-lint` rules L7/L8, DESIGN.md §15) proves
//! ordering properties about the call graph it can see; this module is
//! its runtime twin, in the mold of [`crate::race::RaceOracle`]: evidence
//! from executions instead of names. Every engine-tier lock acquisition
//! is wrapped in a *named site* (`"scheduler.queue"`,
//! `"mutation.state"`, …); the oracle maintains
//!
//! * a per-thread **hold stack** — the sites this thread currently
//!   holds, in acquisition order, and
//! * a global **acquisition-order graph** — an edge `a → b` for every
//!   observed "acquired `b` while holding `a`", each edge carrying the
//!   thread and hold stack that first witnessed it.
//!
//! Acquiring a site that can already *reach* one of the held sites
//! through recorded edges closes a cycle: some interleaving of the
//! witnessed paths deadlocks. In certification mode ([`LockOracle::new`],
//! used by the [`LockOracle::global`] instance behind the engine's
//! `lock-check` feature) that aborts immediately with both chains — the
//! acquiring thread's stack and the recorded witness of every edge on
//! the closing path. [`LockOracle::deferred`] records instead, for
//! negative tests.
//!
//! The oracle tracks lock *classes* (site names), not lock instances, so
//! one observed `a → b` plus one observed `b → a` is a violation even if
//! the two runs touched different objects — exactly the discipline the
//! kernel lockdep enforces, and the reason a clean chaos run certifies
//! the ordering for every future instance pairing.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, ThreadId};

/// One observed "acquired `to` while holding `from`" edge, with the
/// context that first witnessed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeWitness {
    /// Name (or debug id) of the witnessing thread.
    pub thread: String,
    /// That thread's full hold stack at the moment of acquisition.
    pub hold_stack: Vec<&'static str>,
}

/// A cycle in the acquisition-order graph: the deadlock witness.
#[derive(Debug, Clone)]
pub struct LockViolation {
    /// The site whose acquisition closed the cycle.
    pub site: &'static str,
    /// The cycle as a site sequence `site → … → held → site`.
    pub cycle: Vec<&'static str>,
    /// Thread that closed the cycle.
    pub thread: String,
    /// Its hold stack at that moment.
    pub hold_stack: Vec<&'static str>,
    /// Rendered witness (thread + hold stack) for each recorded edge on
    /// the closing path.
    pub witnesses: Vec<String>,
}

impl std::fmt::Display for LockViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lock-check: acquiring `{}` on thread `{}` (holding [{}]) closes the cycle {}; \
             recorded witnesses: {}",
            self.site,
            self.thread,
            self.hold_stack.join(", "),
            self.cycle.join(" → "),
            self.witnesses.join("; ")
        )
    }
}

/// Aggregate evidence from one run. Produced by [`LockOracle::report`].
#[derive(Debug, Clone)]
pub struct LockReport {
    /// Every site that participated in an acquisition.
    pub sites: Vec<&'static str>,
    /// The acquisition-order edges observed, sorted.
    pub edges: Vec<(&'static str, &'static str)>,
    /// Cycles detected, in detection order.
    pub violations: Vec<LockViolation>,
}

impl LockReport {
    /// `true` when the run closed no cycle.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Default)]
struct OracleState {
    seen: BTreeSet<&'static str>,
    edges: BTreeMap<(&'static str, &'static str), EdgeWitness>,
    held: HashMap<ThreadId, Vec<&'static str>>,
    violations: Vec<LockViolation>,
}

/// The acquisition-order oracle. See the [module docs](self) for the
/// protocol; engine code talks to it through the tracked guards in
/// `ligra_engine::lockdep`, tests may drive [`LockOracle::acquire`] /
/// [`LockOracle::release`] directly.
pub struct LockOracle {
    panic_on_violation: bool,
    state: Mutex<OracleState>,
}

impl std::fmt::Debug for LockOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("LockOracle")
            .field("edges", &st.edges.len())
            .field("violations", &st.violations.len())
            .finish_non_exhaustive()
    }
}

impl Default for LockOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl LockOracle {
    /// An oracle that panics the moment an acquisition closes a cycle,
    /// printing both threads' evidence. This is certification mode: the
    /// potential deadlock fails the run immediately and loudly (inside
    /// an engine worker the panic surfaces as `QueryStatus::Panicked`,
    /// which every clean-run test asserts against).
    pub fn new() -> Self {
        LockOracle { panic_on_violation: true, state: Mutex::new(OracleState::default()) }
    }

    /// An oracle that records violations in [`LockOracle::report`]
    /// instead of panicking — for tests that construct a cycle on
    /// purpose and inspect the witness.
    pub fn deferred() -> Self {
        LockOracle { panic_on_violation: false, state: Mutex::new(OracleState::default()) }
    }

    /// The process-wide oracle the engine's `lock-check` feature routes
    /// every engine-tier acquisition through. Certification mode.
    pub fn global() -> &'static LockOracle {
        static GLOBAL: OnceLock<LockOracle> = OnceLock::new();
        GLOBAL.get_or_init(LockOracle::new)
    }

    /// Records that the current thread is about to acquire `site`:
    /// inserts an order edge from every currently-held site, then pushes
    /// `site` on this thread's hold stack. Called *before* blocking on
    /// the real lock — a cycle must be reported by the thread that would
    /// complete the deadlock, not after it is already stuck. In
    /// certification mode a cycle panics before the push: the real lock
    /// is never taken, so no guard would ever release the site.
    pub fn acquire(&self, site: &'static str) {
        let tid = thread::current().id();
        let violation = {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.seen.insert(site);
            let stack = st.held.get(&tid).cloned().unwrap_or_default();
            let mut found: Option<LockViolation> = None;
            for &h in &stack {
                if h == site || st.edges.contains_key(&(h, site)) {
                    continue;
                }
                if let Some(path) = find_path(&st.edges, site, h) {
                    // Adding h → site closes site → … → h → site.
                    let mut cycle = path.clone();
                    cycle.push(site);
                    let witnesses = path
                        .windows(2)
                        .map(|w| {
                            let wit = &st.edges[&(w[0], w[1])];
                            format!(
                                "`{}` → `{}` first seen on thread `{}` holding [{}]",
                                w[0],
                                w[1],
                                wit.thread,
                                wit.hold_stack.join(", ")
                            )
                        })
                        .collect();
                    found = Some(LockViolation {
                        site,
                        cycle,
                        thread: thread_label(),
                        hold_stack: stack.clone(),
                        witnesses,
                    });
                    break;
                }
                st.edges.insert(
                    (h, site),
                    EdgeWitness { thread: thread_label(), hold_stack: stack.clone() },
                );
            }
            if let Some(v) = found.clone() {
                st.violations.push(v);
            }
            if found.is_none() || !self.panic_on_violation {
                st.held.entry(tid).or_default().push(site);
            }
            found
        };
        if let Some(v) = violation {
            if self.panic_on_violation {
                panic!("{v}");
            }
        }
    }

    /// Pops `site` from the current thread's hold stack (topmost
    /// occurrence first, matching guard-drop order).
    pub fn release(&self, site: &'static str) {
        let tid = thread::current().id();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stack) = st.held.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&s| s == site) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                st.held.remove(&tid);
            }
        }
    }

    /// Snapshot of the acquisition DAG and any detected cycles.
    pub fn report(&self) -> LockReport {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        LockReport {
            sites: st.seen.iter().copied().collect(),
            edges: st.edges.keys().copied().collect(),
            violations: st.violations.clone(),
        }
    }

    /// Certification check: `Ok(report)` when no cycle was closed,
    /// `Err` describing the first otherwise.
    pub fn certify(&self) -> Result<LockReport, String> {
        let report = self.report();
        match report.violations.first() {
            None => Ok(report),
            Some(v) => Err(format!("{v} ({} violation(s) total)", report.violations.len())),
        }
    }
}

/// DFS path `from → … → to` through the recorded edges, if one exists.
fn find_path(
    edges: &BTreeMap<(&'static str, &'static str), EdgeWitness>,
    from: &'static str,
    to: &'static str,
) -> Option<Vec<&'static str>> {
    let mut stack = vec![vec![from]];
    let mut visited = vec![from];
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("paths start non-empty");
        if last == to {
            return Some(path);
        }
        for &(a, b) in edges.keys() {
            if a == last && !visited.contains(&b) {
                visited.push(b);
                let mut next = path.clone();
                next.push(b);
                stack.push(next);
            }
        }
    }
    None
}

fn thread_label() -> String {
    let cur = thread::current();
    match cur.name() {
        Some(n) => n.to_string(),
        None => format!("{:?}", cur.id()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_order_is_clean() {
        let o = LockOracle::deferred();
        for _ in 0..2 {
            o.acquire("a");
            o.acquire("b");
            o.release("b");
            o.release("a");
        }
        let r = o.certify().expect("consistent order must certify");
        assert_eq!(r.edges, vec![("a", "b")]);
    }

    #[test]
    fn inversion_closes_a_cycle() {
        let o = LockOracle::deferred();
        o.acquire("a");
        o.acquire("b");
        o.release("b");
        o.release("a");
        o.acquire("b");
        o.acquire("a");
        let r = o.report();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.site, "a");
        assert_eq!(v.cycle, vec!["a", "b", "a"]);
        assert_eq!(v.hold_stack, vec!["b"]);
        assert!(v.to_string().contains("closes the cycle"), "message: {v}");
    }

    #[test]
    fn reentrant_same_class_is_not_an_ordering() {
        let o = LockOracle::deferred();
        o.acquire("a");
        o.acquire("a");
        o.release("a");
        o.release("a");
        assert!(o.report().edges.is_empty());
    }

    #[test]
    fn transitive_cycle_through_three_sites() {
        let o = LockOracle::deferred();
        o.acquire("a");
        o.acquire("b");
        o.release("b");
        o.release("a");
        o.acquire("b");
        o.acquire("c");
        o.release("c");
        o.release("b");
        o.acquire("c");
        o.acquire("a");
        let r = o.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].cycle, vec!["a", "b", "c", "a"]);
    }

    #[test]
    #[should_panic(expected = "closes the cycle")]
    fn certification_mode_panics() {
        let o = LockOracle::new();
        o.acquire("a");
        o.acquire("b");
        o.release("b");
        o.release("a");
        o.acquire("b");
        o.acquire("a");
    }

    #[test]
    fn a_refused_acquisition_leaves_no_held_site() {
        let o = LockOracle::new();
        o.acquire("a");
        o.acquire("b");
        o.release("b");
        o.release("a");
        o.acquire("b");
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.acquire("a")));
        assert!(refused.is_err(), "closing the cycle must panic");
        o.release("b");
        // Nothing is held now: acquiring `c` orders it after no site,
        // least of all the refused `a`.
        o.acquire("c");
        let edges = o.report().edges;
        assert!(!edges.contains(&("a", "c")), "{edges:?}");
        assert!(!edges.iter().any(|&(_, to)| to == "c"), "{edges:?}");
    }

    #[test]
    fn release_pops_topmost_occurrence() {
        let o = LockOracle::deferred();
        o.acquire("a");
        o.acquire("b");
        o.release("a");
        // `b` is still held: acquiring `c` records b → c but not a → c.
        o.acquire("c");
        let r = o.report();
        assert!(r.edges.contains(&("b", "c")));
        assert!(!r.edges.contains(&("a", "c")));
    }
}
