//! Immutable graph snapshots and the epoch-stamped store that serves them.
//!
//! Queries never observe a half-installed graph: the engine hands each
//! query an `Arc<Snapshot>` captured at submit time, and installing a new
//! graph bumps the epoch and swaps the store's current pointer. In-flight
//! queries keep their old snapshot alive through the `Arc`; the result
//! cache keys on `(epoch, query)` so stale results can never be served
//! for a newer graph.

use crate::lockdep::{tracked_read, tracked_write};
use ligra_graph::{Graph, WeightedGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable graph version, stamped with the epoch at which it was
/// installed.
///
/// The unweighted view is the canonical one (every query except
/// Bellman-Ford runs on it). A snapshot installed weighted also keeps
/// that graph, whose arrays the unweighted view shares; on any other
/// snapshot Bellman-Ford reads the unweighted view through
/// `ligra_graph::UnitWeighted`, so no snapshot ever holds a second copy
/// of its edges.
pub struct Snapshot {
    epoch: u64,
    graph: Arc<Graph>,
    weighted: Option<Arc<WeightedGraph>>,
}

impl Snapshot {
    /// Wraps an unweighted graph.
    pub fn from_graph(epoch: u64, graph: Arc<Graph>) -> Self {
        Snapshot { epoch, graph, weighted: None }
    }

    /// Wraps a weighted graph; the unweighted view shares its offset and
    /// target arrays and drops the weights.
    pub fn from_weighted(epoch: u64, wg: Arc<WeightedGraph>) -> Self {
        Snapshot { epoch, graph: Arc::new(strip_weights(&wg)), weighted: Some(wg) }
    }

    /// Epoch at which this snapshot was installed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The unweighted view.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The installed weighted graph, when this snapshot was installed
    /// weighted.
    pub fn weighted_graph(&self) -> Option<&Arc<WeightedGraph>> {
        self.weighted.as_ref()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
}

fn strip_weights(wg: &WeightedGraph) -> Graph {
    // `stripped` shares the base arrays and preserves any delta overlay,
    // so the unweighted view of a mutated snapshot costs O(overlay).
    if wg.is_symmetric() {
        Graph::symmetric(wg.out_adj().stripped())
    } else {
        Graph::directed(wg.out_adj().stripped(), wg.in_adj().stripped())
    }
}

/// The engine's mutable cell: the current snapshot plus a monotone epoch
/// counter. Readers (`current`) take a shared lock for the duration of an
/// `Arc` clone only.
pub struct GraphStore {
    current: RwLock<Option<Arc<Snapshot>>>,
    next_epoch: AtomicU64,
}

impl GraphStore {
    /// An empty store; queries are rejected until a graph is installed.
    pub fn new() -> Self {
        GraphStore { current: RwLock::new(None), next_epoch: AtomicU64::new(1) }
    }

    fn install(&self, make: impl FnOnce(u64) -> Snapshot) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(make(epoch));
        // Tracked site (poison-recovering): the store swap is a single
        // pointer assignment, never left half-done by an unwind.
        *tracked_write(&self.current, "store.current") = Some(snap);
        epoch
    }

    /// Installs an unweighted graph as the new current snapshot and
    /// returns its epoch.
    pub fn install_graph(&self, g: Arc<Graph>) -> u64 {
        self.install(|e| Snapshot::from_graph(e, g))
    }

    /// Installs a weighted graph as the new current snapshot and returns
    /// its epoch.
    pub fn install_weighted(&self, g: Arc<WeightedGraph>) -> u64 {
        self.install(|e| Snapshot::from_weighted(e, g))
    }

    /// The current snapshot, if any graph has been installed.
    pub fn current(&self) -> Option<Arc<Snapshot>> {
        tracked_read(&self.current, "store.current").clone()
    }
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::{cycle, random_local, random_weights};

    #[test]
    fn epochs_are_monotone_and_snapshots_survive_reinstall() {
        let store = GraphStore::new();
        assert!(store.current().is_none());
        let e1 = store.install_graph(Arc::new(cycle(8)));
        let old = store.current().unwrap();
        let e2 = store.install_graph(Arc::new(cycle(16)));
        assert!(e2 > e1);
        // The old snapshot is still usable by an in-flight query.
        assert_eq!(old.num_vertices(), 8);
        assert_eq!(store.current().unwrap().num_vertices(), 16);
    }

    #[test]
    fn weighted_install_strips_to_same_structure() {
        let g = random_local(100, 3, 9);
        let wg = random_weights(&g, 20, 3);
        let snap = Snapshot::from_weighted(4, Arc::new(wg));
        let installed = snap.weighted_graph().expect("installed weighted");
        assert_eq!(snap.graph().num_edges(), installed.num_edges());
        assert_eq!(snap.epoch(), 4);
        assert!(snap.graph().is_symmetric());
    }
}
