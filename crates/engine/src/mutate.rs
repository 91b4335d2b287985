//! The write side of the serving engine: batched live-graph mutation.
//!
//! A [`MutationLog`] accepts [`DeltaBatch`]es off the query path. Each
//! applied batch layers a delta overlay over the *current* snapshot's CSR
//! (shared base arrays, per-vertex merged lists — see
//! `ligra_graph::delta`) and publishes the result as the next epoch
//! through the engine's `GraphStore`. In-flight queries keep the snapshot
//! they were submitted against; the `(epoch, query)` result cache
//! invalidates naturally because a new epoch is a new key.
//!
//! Overlays stack: every batch re-merges the touched vertices' lists, so
//! reads stay contiguous-slice fast, but the side CSR grows with write
//! volume. Once it crosses [`MutationConfig::compact_threshold`] arcs, a
//! background **compactor** flattens the current view into a clean CSR
//! *off the write lock*, then re-applies whatever batches landed while it
//! ran and installs the result as the next epoch. A compaction that fails
//! or panics never touches the store: the overlaid view keeps serving and
//! the failure is counted.
//!
//! Epoch lineage: the log tracks the epoch it last installed. If the
//! store moves under it (an operator `load`/`gen` replacing the graph),
//! the next apply re-bases onto the new snapshot and drops its pending
//! batches — and an in-flight compaction of the dead lineage abandons its
//! result instead of installing it.

use crate::error::{classify_panic, QueryError};
use crate::lockdep::tracked_lock;
use crate::scheduler::Engine;
use crate::snapshot::Snapshot;
#[cfg(feature = "fault-inject")]
use ligra::FaultPoint;
use ligra_graph::delta::{self, DeltaBatch, NormalizedBatch};
use ligra_graph::Graph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mutation-log tunables.
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Overlay side-CSR size (arcs, both directions) above which an apply
    /// triggers a background compaction. `None` disables auto-compaction
    /// (explicit [`MutationLog::compact`] still works).
    pub compact_threshold: Option<u64>,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig { compact_threshold: Some(1 << 16) }
    }
}

/// Why a mutation or compaction did not go through. The store is left
/// exactly as it was in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// No graph is installed to mutate.
    NoGraph,
    /// The batch was invalid (out-of-range vertex), or the graph was
    /// installed weighted and takes no writes. Fix the request.
    Invalid(String),
    /// A fault-injection schedule fired a transient error. Retryable.
    Injected {
        /// Fault-point name (`mutate.apply` / `mutate.compact`).
        point: &'static str,
        /// 1-based hit count at which the schedule fired.
        hit: u64,
    },
    /// The apply or compaction panicked; the unwind was contained and
    /// the store is unpoisoned.
    Panicked {
        /// Where the panic originated.
        point: &'static str,
        /// Best-effort panic message.
        msg: String,
    },
    /// A compaction is already running.
    Busy,
    /// The graph was replaced (operator `load`/`gen`) while compacting;
    /// the compaction result belonged to a dead lineage and was dropped.
    Superseded,
}

impl MutateError {
    /// Whether a client retry is a reasonable response.
    pub fn is_transient(&self) -> bool {
        matches!(self, MutateError::Injected { .. } | MutateError::Busy | MutateError::Superseded)
    }
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::NoGraph => f.write_str("no graph installed"),
            MutateError::Invalid(msg) => write!(f, "invalid mutation: {msg}"),
            MutateError::Injected { point, hit } => {
                write!(f, "fault-inject: injected fault at {point} (hit {hit})")
            }
            MutateError::Panicked { point, msg } => {
                write!(f, "mutation panicked at {point}: {msg}")
            }
            MutateError::Busy => f.write_str("a compaction is already running"),
            MutateError::Superseded => {
                f.write_str("graph replaced during compaction; result dropped")
            }
        }
    }
}

impl std::error::Error for MutateError {}

/// What one applied batch did.
#[derive(Debug, Clone, Copy)]
pub struct MutationReport {
    /// The epoch the new snapshot was published at.
    pub epoch: u64,
    /// Arcs actually inserted (set-semantics no-ops excluded).
    pub arcs_added: u64,
    /// Arc copies removed by tombstones.
    pub arcs_deleted: u64,
    /// Fresh vertex ids appended.
    pub vertices_added: u64,
    /// Vertices whose incident edges were tombstoned.
    pub vertices_deleted: u64,
    /// Arcs in the new snapshot's overlay (both directions).
    pub overlay_arcs: u64,
    /// Vertices touched by the new snapshot's out-overlay.
    pub overlay_vertices: u64,
    /// Whether this apply kicked off a background compaction.
    pub compaction_started: bool,
}

/// What one successful compaction did.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// The epoch the clean snapshot was published at.
    pub epoch: u64,
    /// Wall-clock time materializing (and re-applying) took.
    pub duration: Duration,
    /// Arcs in the compacted snapshot.
    pub edges: u64,
    /// Batches that landed mid-compaction and were rolled forward.
    pub reapplied_batches: usize,
}

/// A point-in-time view of the log, for the `graph-stats` wire op.
#[derive(Debug, Clone, Copy)]
pub struct MutationStatus {
    /// Epoch of the last snapshot this log installed (or re-based onto).
    pub derived_epoch: u64,
    /// Applied batches not yet baked into a clean CSR.
    pub pending_batches: usize,
    /// Whether a background compaction is running right now.
    pub compacting: bool,
}

struct MutState {
    /// Batches applied since the last clean CSR, oldest first. The
    /// current view equals that CSR with these replayed in order.
    pending: Vec<NormalizedBatch>,
    /// Whether a compaction holds the (single) compactor slot.
    compacting: bool,
    /// Epoch of the last snapshot this log installed.
    derived_epoch: u64,
    /// Bumped whenever the log re-bases onto an externally installed
    /// graph; an in-flight compaction from an older generation abandons
    /// its result.
    generation: u64,
}

/// The engine's write path: applies delta batches, publishes epochs, and
/// runs background compaction. One per engine; shared by `Arc` between
/// the wire front-end and the compactor thread.
pub struct MutationLog {
    engine: Arc<Engine>,
    state: Mutex<MutState>,
    compact_threshold: Option<u64>,
}

impl MutationLog {
    /// A log writing through `engine`'s graph store.
    pub fn new(engine: Arc<Engine>, config: MutationConfig) -> Self {
        MutationLog {
            engine,
            state: Mutex::new(MutState {
                pending: Vec::new(),
                compacting: false,
                derived_epoch: 0,
                generation: 0,
            }),
            compact_threshold: config.compact_threshold,
        }
    }

    /// The configured auto-compaction threshold, if any.
    pub fn compact_threshold(&self) -> Option<u64> {
        self.compact_threshold
    }

    /// Current log status.
    pub fn status(&self) -> MutationStatus {
        let st = tracked_lock(&self.state, "mutation.state");
        MutationStatus {
            derived_epoch: st.derived_epoch,
            pending_batches: st.pending.len(),
            compacting: st.compacting,
        }
    }

    /// The current snapshot, unless it was installed weighted: a
    /// [`DeltaBatch`] carries no weights, so a write could only publish
    /// the stripped view and turn later Bellman-Fords into unit-weight runs.
    fn writable_snapshot(&self) -> Result<Arc<Snapshot>, MutateError> {
        let snap = self.engine.current_snapshot().ok_or(MutateError::NoGraph)?;
        if snap.weighted_graph().is_some() {
            return Err(MutateError::Invalid("weighted graphs are read-only".to_string()));
        }
        Ok(snap)
    }

    /// Applies one batch: layers it over the current snapshot and
    /// publishes the result as the next epoch. Serialized with other
    /// applies and with compaction installs; queries are never blocked
    /// (they read the store's `RwLock` only for an `Arc` clone).
    pub fn apply(self: &Arc<Self>, batch: &DeltaBatch) -> Result<MutationReport, MutateError> {
        let mut st = tracked_lock(&self.state, "mutation.state");
        let snap = self.writable_snapshot()?;
        if snap.epoch() != st.derived_epoch {
            // The store moved under us (operator load/gen): re-base.
            st.pending.clear();
            st.derived_epoch = snap.epoch();
            st.generation += 1;
        }
        let graph = Arc::clone(snap.graph());

        // The dispatch under `state` is the write-serialization contract
        // itself — applies must be ordered, queries never take this lock
        // (snapshot reads only clone an Arc under `store.current`), and the
        // unwind boundary exists so a panicking batch leaves the guard
        // unpoisoned rather than wedging the log. Off-lock apply is what
        // `compact()` does for the rebuild; the delta overlay here is O(batch).
        // lint: allow(L8): unwind isolation for the serialized apply, see above
        let applied = catch_unwind(AssertUnwindSafe(|| -> Result<_, MutateError> {
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = self.engine.fault_plan() {
                plan.check(FaultPoint::MutateApply)
                    .map_err(|e| MutateError::Injected { point: e.point.name(), hit: e.hit })?;
            }
            delta::apply_batch(&graph, batch).map_err(|e| MutateError::Invalid(e.to_string()))
        }));
        let (g2, nb, stats) = match applied {
            Err(payload) => return Err(from_panic(payload.as_ref())),
            Ok(Err(e)) => return Err(e),
            Ok(Ok(v)) => v,
        };

        let g2 = Arc::new(g2);
        let overlay_arcs = g2.overlay_arcs();
        let overlay_vertices = g2.overlay_vertices();
        let epoch = self.engine.install_graph(Arc::clone(&g2));
        st.derived_epoch = epoch;
        st.pending.push(nb);

        let m = self.engine.metrics();
        m.mutation_batches.incr();
        m.mutation_edges_added.add(stats.arcs_added);
        m.mutation_edges_deleted.add(stats.arcs_deleted);
        m.mutation_overlay_edges.set(overlay_arcs);
        m.mutation_overlay_vertices.set(overlay_vertices);

        let mut compaction_started = false;
        if let Some(threshold) = self.compact_threshold {
            if overlay_arcs > threshold && !st.compacting {
                drop(st);
                compaction_started = self.compact_async();
            }
        }
        Ok(MutationReport {
            epoch,
            arcs_added: stats.arcs_added,
            arcs_deleted: stats.arcs_deleted,
            vertices_added: stats.vertices_added,
            vertices_deleted: stats.vertices_deleted,
            overlay_arcs,
            overlay_vertices,
            compaction_started,
        })
    }

    /// Runs one compaction synchronously: flattens the current view into
    /// a clean CSR off the write lock, rolls forward batches that landed
    /// meanwhile, and publishes the result as the next epoch. Fails
    /// without touching the store ([`MutateError::Busy`] if one is
    /// already running).
    pub fn compact(&self) -> Result<CompactionReport, MutateError> {
        // Claim the compactor slot and capture the lineage.
        let (graph, baked, generation) = {
            let mut st = tracked_lock(&self.state, "mutation.state");
            if st.compacting {
                return Err(MutateError::Busy);
            }
            let snap = self.writable_snapshot()?;
            if snap.epoch() != st.derived_epoch {
                st.pending.clear();
                st.derived_epoch = snap.epoch();
                st.generation += 1;
            }
            st.compacting = true;
            (Arc::clone(snap.graph()), st.pending.len(), st.generation)
        };

        let started = Instant::now();
        // Materialize off-lock: applies keep landing while this runs.
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<Arc<Graph>, MutateError> {
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = self.engine.fault_plan() {
                plan.check(FaultPoint::MutateCompact)
                    .map_err(|e| MutateError::Injected { point: e.point.name(), hit: e.hit })?;
            }
            Ok(Arc::new(graph.compacted()))
        }));

        let m = self.engine.metrics();
        let mut st = tracked_lock(&self.state, "mutation.state");
        st.compacting = false;
        let clean = match result {
            Err(payload) => {
                m.mutation_compaction_failures.incr();
                return Err(from_panic(payload.as_ref()));
            }
            Ok(Err(e)) => {
                m.mutation_compaction_failures.incr();
                return Err(e);
            }
            Ok(Ok(clean)) => clean,
        };
        if st.generation != generation || self.engine.current_epoch() != Some(st.derived_epoch) {
            // The lineage we compacted is dead (operator install while we
            // ran). Drop the result; not a failure of the store.
            return Err(MutateError::Superseded);
        }

        // The first `baked` pending batches are inside `clean`; replay
        // the ones that landed mid-compaction.
        let baked = baked.min(st.pending.len());
        st.pending.drain(..baked);
        let mut final_graph = (*clean).clone();
        let mut reapplied = 0usize;
        for nb in &st.pending {
            final_graph = delta::apply_normalized(&final_graph, nb).0;
            reapplied += 1;
        }
        let final_arc = if reapplied == 0 { clean } else { Arc::new(final_graph) };
        let overlay_arcs = final_arc.overlay_arcs();
        let overlay_vertices = final_arc.overlay_vertices();
        let edges = final_arc.num_edges() as u64;
        let epoch = self.engine.install_graph(final_arc);
        st.derived_epoch = epoch;
        drop(st);

        let duration = started.elapsed();
        m.mutation_compactions.incr();
        m.observe_compaction(duration.as_nanos().min(u64::MAX as u128) as u64);
        m.mutation_overlay_edges.set(overlay_arcs);
        m.mutation_overlay_vertices.set(overlay_vertices);
        Ok(CompactionReport { epoch, duration, edges, reapplied_batches: reapplied })
    }

    /// Kicks off [`MutationLog::compact`] on a background thread.
    /// Returns whether a compactor thread was actually spawned (false
    /// when one already appears to be running). The thread's outcome is
    /// visible through the mutation metrics.
    pub fn compact_async(self: &Arc<Self>) -> bool {
        if tracked_lock(&self.state, "mutation.state").compacting {
            return false;
        }
        let log = Arc::clone(self);
        std::thread::Builder::new()
            .name("ligra-compactor".into())
            .spawn(move || {
                // Busy/Superseded are benign races; real failures are
                // already counted in mutation_compaction_failures.
                let _ = log.compact();
            })
            .is_ok()
    }
}

/// Maps a contained unwind payload onto the mutation error vocabulary.
fn from_panic(payload: &(dyn std::any::Any + Send)) -> MutateError {
    match classify_panic(payload) {
        QueryError::Injected { point, hit } => MutateError::Injected { point, hit },
        QueryError::Panicked { point, msg } => MutateError::Panicked { point, msg },
        QueryError::App(msg) => MutateError::Invalid(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EngineConfig;
    use ligra_graph::generators::grid3d;

    fn engine() -> Arc<Engine> {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }));
        engine.install_graph(Arc::new(grid3d(4))); // 64 vertices
        engine
    }

    #[test]
    fn apply_publishes_a_new_epoch_and_stacks_pending() {
        let engine = engine();
        let e0 = engine.current_epoch().expect("installed");
        let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
        let r = log.apply(&DeltaBatch::new().grow(1).add_edge(64, 0)).expect("apply");
        assert!(r.epoch > e0);
        assert_eq!(engine.current_epoch(), Some(r.epoch));
        assert_eq!(r.vertices_added, 1);
        assert_eq!(r.arcs_added, 2);
        assert_eq!(log.status().pending_batches, 1);
        assert_eq!(log.status().derived_epoch, r.epoch);
        let g = engine.current_snapshot().expect("snapshot");
        assert_eq!(g.num_vertices(), 65);
        assert!(g.graph().has_overlay());
        assert_eq!(engine.metrics().mutation_batches.get(), 1);
        assert_eq!(engine.metrics().mutation_overlay_edges.get(), r.overlay_arcs);
    }

    #[test]
    fn invalid_batch_leaves_the_store_untouched() {
        let engine = engine();
        let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
        let e0 = engine.current_epoch();
        let err = log.apply(&DeltaBatch::new().add_edge(0, 999)).expect_err("out of range");
        assert!(matches!(err, MutateError::Invalid(_)));
        assert_eq!(engine.current_epoch(), e0);
        assert_eq!(log.status().pending_batches, 0);
        assert_eq!(engine.metrics().mutation_batches.get(), 0);
    }

    #[test]
    fn compaction_installs_a_clean_equivalent_epoch() {
        let engine = engine();
        let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
        log.apply(&DeltaBatch::new().add_edge(0, 63)).expect("apply 1");
        let r2 = log.apply(&DeltaBatch::new().del_edge(0, 1)).expect("apply 2");
        let before = Arc::clone(engine.current_snapshot().expect("snap").graph());
        let rep = log.compact().expect("compact");
        assert!(rep.epoch > r2.epoch);
        assert_eq!(rep.reapplied_batches, 0);
        let after = Arc::clone(engine.current_snapshot().expect("snap").graph());
        assert!(!after.has_overlay());
        assert_eq!(after.num_edges(), before.num_edges());
        for v in 0..after.num_vertices() as u32 {
            assert_eq!(after.out_neighbors(v), before.out_neighbors(v), "vertex {v}");
        }
        assert_eq!(log.status().pending_batches, 0);
        assert_eq!(engine.metrics().mutation_compactions.get(), 1);
        assert_eq!(engine.metrics().mutation_overlay_edges.get(), 0);
        // A second compaction of a clean graph is a cheap no-op install.
        assert!(log.compact().is_ok());
    }

    #[test]
    fn auto_compaction_triggers_over_threshold() {
        let engine = engine();
        let log = Arc::new(MutationLog::new(
            Arc::clone(&engine),
            MutationConfig { compact_threshold: Some(8) },
        ));
        // One batch touching a few vertices overshoots 8 overlay arcs.
        let r = log
            .apply(&DeltaBatch::new().add_edge(0, 63).add_edge(5, 40).add_edge(7, 21))
            .expect("apply");
        assert!(r.overlay_arcs > 8);
        assert!(r.compaction_started);
        // Wait (bounded) for the background compactor to install.
        for _ in 0..500 {
            if engine.metrics().mutation_compactions.get() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(engine.metrics().mutation_compactions.get(), 1);
        assert!(!engine.current_snapshot().expect("snap").graph().has_overlay());
    }

    #[test]
    fn rebase_after_external_install_drops_pending() {
        let engine = engine();
        let log = Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig::default()));
        log.apply(&DeltaBatch::new().add_edge(0, 63)).expect("apply");
        assert_eq!(log.status().pending_batches, 1);
        // Operator replaces the graph out from under the log.
        engine.install_graph(Arc::new(grid3d(3)));
        let r = log.apply(&DeltaBatch::new().add_edge(0, 26)).expect("apply after install");
        assert_eq!(log.status().pending_batches, 1, "old lineage's batch dropped");
        let g = engine.current_snapshot().expect("snap");
        assert_eq!(g.num_vertices(), 27, "delta applied to the new graph");
        assert_eq!(engine.current_epoch(), Some(r.epoch));
    }
}
