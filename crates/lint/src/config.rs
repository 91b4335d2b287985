//! The project policy the lints enforce.
//!
//! These tables — not the rule engine — are the contract reviewers sign
//! off on. DESIGN.md §10 documents the rationale per crate; a new crate or
//! a new ordering in an existing crate must be added here deliberately,
//! which is the point: the diff that relaxes the policy is visible. The
//! policy a standard lint can check (`SAFETY:` comments, no bare
//! `.unwrap()`, documented `pub fn`s, no panicking macros in the engine)
//! lives in each package's `[lints]` table instead.

/// Atomic orderings each crate may use in non-test code (rule L2).
///
/// `SeqCst` is never listed: Ligra's synchronization is all point-to-point
/// (CAS claims, priority updates, published flags) and never relies on a
/// single total order over unrelated atomics, so a `SeqCst` is either a
/// misunderstanding or an unannotated algorithm change. Per-crate policy:
///
/// * `parallel` — defines the atomic vocabulary (CAS, writeMin, bitsets,
///   `AtomicF64`): needs the full acquire/release set.
/// * `core` — relaxed telemetry and bitset output stores, plus the
///   acquire/release pair on the cancellation flag; the race oracle's
///   shadow cells use acquire/release RMWs.
/// * `graph`/`compress` — only relaxed degree/telemetry counters; all
///   cross-thread hand-off happens through `parallel` primitives or
///   fork/join boundaries.
/// * `apps` — relaxed single-owner dense writes (documented in each app)
///   plus acquire/release RMWs (`fetch_or`, `fetch_update`) where an edge
///   function claims through its own atomic rather than `parallel`'s.
/// * `engine` — relaxed stat counters, the release-store/acquire-load
///   pair on the scheduler shutdown flag, and the metrics module's
///   counters/histograms: per-event increments are relaxed by
///   design (each snapshot read tolerates mid-flight adds; nothing is
///   published through them), with the gauge clamp CAS covered by
///   [`CAS_RELAXED_SUCCESS_FILES`].
/// * `bench`, `examples`, `tests` — relaxed instrumentation counters only.
/// * `lint` — no atomics at all.
pub const ORDERING_WHITELIST: &[(&str, &[&str])] = &[
    ("parallel", &["Relaxed", "Acquire", "Release", "AcqRel"]),
    ("core", &["Relaxed", "Acquire", "Release", "AcqRel"]),
    ("graph", &["Relaxed"]),
    ("compress", &["Relaxed"]),
    ("apps", &["Relaxed", "Acquire", "AcqRel"]),
    ("engine", &["Relaxed", "Acquire", "Release"]),
    ("bench", &["Relaxed"]),
    ("examples", &["Relaxed"]),
    ("tests", &["Relaxed"]),
    ("lint", &[]),
];

/// Crates whose non-test code may not use truncating `as u32` /
/// `as VertexId` casts (rule L4); vertex and edge IDs must go through the
/// asserting helpers in `parallel::utils` (`checked_u32`, `word_base`).
pub const NO_TRUNCATING_CAST_CRATES: &[&str] =
    &["core", "parallel", "graph", "compress", "engine", "apps"];

/// Files exempt from L4 because they *are* the checked helpers.
pub const CAST_HELPER_FILES: &[&str] = &["crates/parallel/src/utils.rs"];

/// Orderings a `compare_exchange`/`compare_exchange_weak`/`fetch_update`
/// success slot may use (rule L2's CAS-loop check): the winner of a claim
/// publishes data, so it must be at least `Acquire`, and `AcqRel` is the
/// documented default for RMW claims.
pub const CAS_SUCCESS_ALLOWED: &[&str] = &["AcqRel", "Acquire"];

/// Orderings a CAS failure slot may use: a failed claim only observes,
/// never publishes.
pub const CAS_FAILURE_ALLOWED: &[&str] = &["Acquire", "Relaxed"];

/// Files where a CAS success slot may additionally be `Relaxed`. The
/// claim discipline above assumes the CAS winner publishes data the
/// loser will read through the claimed cell; the serving-tier metrics
/// module is the one place that is not true — its gauge `sub` CASes
/// purely to clamp a standalone counter at zero, every reader tolerates
/// arbitrary interleaving by design, and no payload hangs off the cell.
/// Extending this list to a file that hands data through its CAS would
/// reintroduce the races L2 exists to catch, so it stays per-file, not
/// per-crate.
pub const CAS_RELAXED_SUCCESS_FILES: &[&str] = &["crates/engine/src/metrics/mod.rs"];

/// Free functions the lock pass (rules L7/L8) treats as lock
/// acquisitions: the poison-recovering `lockdep` tracked wrappers. The
/// acquired lock's name is the last field identifier of the first
/// argument (`tracked_lock(&self.state, …)` → `state`), which keeps the
/// static lock names aligned with the runtime `LockOracle` site suffixes.
/// Method-style `.lock()` / `.read()` / `.write()` with empty argument
/// lists are recognized independently.
pub const LOCK_ACQUIRE_FNS: &[&str] = &["tracked_lock", "tracked_read", "tracked_write"];

/// Calls the lock pass treats as blocking (rule L8): parking, channel
/// receives, thread joins, panic-dispatch via `catch_unwind`, and
/// file/socket I/O. Condvar `wait`/`wait_timeout` are handled separately
/// (the guard they atomically release is exempt); `join` only counts in
/// the empty-argument `JoinHandle::join` shape, not `slice.join(", ")`.
pub const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
    "catch_unwind",
    "read_line",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "write_all",
    "flush",
    "accept",
    "connect",
];

/// Method receivers whose `.lock()` is not a contended mutex: the std
/// stream handles, where `lock()` takes a per-process reader/writer
/// handle that nothing in this workspace holds across other locks.
pub const LOCK_EXEMPT_RECEIVERS: &[&str] = &["stdin", "stdout", "stderr"];

/// Files the lock pass skips entirely because they *implement* the lock
/// primitives: their internal `m.lock()` shapes would register generic
/// lock names (`m`, `inner`) that alias every call site. Call sites of
/// their wrappers are still analyzed everywhere else.
pub const LOCK_WRAPPER_FILES: &[&str] =
    &["crates/core/src/lockdep.rs", "crates/engine/src/lockdep.rs"];

/// Call names the lock pass does not resolve through the crate call
/// graph. These are trait-impl and constructor names so overloaded that
/// name-based resolution unions every type in the crate (`Engine::new`,
/// `Histogram::new`, and `VecDeque::new` become one node), fabricating
/// lock chains no execution takes. The cost is real: a lock acquired
/// inside a constructor called under another lock goes unseen — which is
/// why DESIGN.md §15 pairs this pass with the runtime `LockOracle`, whose
/// edges come from executions, not names.
pub const CALL_RESOLUTION_EXEMPT: &[&str] =
    &["new", "default", "clone", "from", "fmt", "to_string", "eq", "hash", "next", "drop"];

/// Functions whose closure argument runs on *another* thread and must
/// not be scanned as the caller's inline code (a spawned worker inherits
/// none of the spawner's held locks).
pub const THREAD_SPAWN_FNS: &[&str] = &["spawn"];

/// Returns the orderings `crate_name` may use, or `None` for an unknown
/// crate (which L2 reports as its own violation so the table stays in
/// sync with the workspace).
pub fn allowed_orderings(crate_name: &str) -> Option<&'static [&'static str]> {
    ORDERING_WHITELIST.iter().find(|(c, _)| *c == crate_name).map(|(_, list)| *list)
}
