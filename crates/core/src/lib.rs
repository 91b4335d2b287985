//! # ligra
//!
//! A Rust reproduction of **Ligra: A Lightweight Graph Processing Framework
//! for Shared Memory** (Julian Shun and Guy E. Blelloch, PPoPP 2013).
//!
//! The entire programming model is three operations over a frontier
//! abstraction:
//!
//! * [`VertexSubset`] — a set of vertices with interchangeable sparse
//!   (ID list) and dense (flag array) representations.
//! * [`edge_map`] — apply a user function to every edge out of the
//!   frontier, returning the subset of targets the function claimed. The
//!   framework automatically switches between a push traversal (sparse
//!   frontier, scan-allocated output) and a pull traversal (dense frontier,
//!   early-exit in-edge scans) using the paper's `|U| + Σdeg⁺(U) > m/20`
//!   heuristic.
//! * [`vertex_map`] / [`vertex_filter`] — parallel per-vertex operations.
//!
//! ## Example: breadth-first search in ~20 lines
//!
//! ```
//! use ligra::{edge_map, VertexSubset, edge_fn};
//! use ligra_graph::generators::grid3d;
//! use ligra_parallel::atomics::{as_atomic_u32, cas_u32};
//! use std::sync::atomic::Ordering;
//!
//! let g = grid3d(8);                       // 512-vertex torus
//! let n = g.num_vertices();
//! let mut parent = vec![u32::MAX; n];
//! let source = 0u32;
//! parent[source as usize] = source;
//!
//! {
//!     let parent = as_atomic_u32(&mut parent);
//!     let bfs = edge_fn(
//!         // claim unvisited targets with CAS; winner adds them to the frontier
//!         |u, v, _| cas_u32(&parent[v as usize], u32::MAX, u),
//!         // only unvisited targets are worth updating
//!         |v| parent[v as usize].load(Ordering::Relaxed) == u32::MAX,
//!     );
//!     let mut frontier = VertexSubset::single(n, source);
//!     while !frontier.is_empty() {
//!         frontier = edge_map(&g, &mut frontier, &bfs);
//!     }
//! }
//! assert!(parent.iter().all(|&p| p != u32::MAX)); // torus is connected
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cancel;
pub mod edge_map;
pub mod fault;
pub mod jsonl;
pub mod lockdep;
pub mod options;
pub mod race;
pub mod stats;
pub mod trace;
pub mod traits;
pub mod vertex_map;
pub mod vertex_subset;

pub use crate::cancel::CancelToken;
pub use crate::edge_map::{edge_map, edge_map_recorded, edge_map_with};
pub use crate::fault::{FaultAction, FaultError, FaultPlan, FaultPoint};
pub use crate::lockdep::{EdgeWitness, LockOracle, LockReport, LockViolation};
pub use crate::options::{EdgeMapOptions, Traversal};
pub use crate::race::{OracleReport, RaceOracle, Violation, ViolationKind, WinContract};
pub use crate::stats::{Mode, NoopRecorder, Op, Recorder, ReprKind, RoundStat, TraversalStats};
pub use crate::trace::{from_json_lines, save_jsonl, summary, to_json_lines, TraceSummary};
pub use crate::traits::{cond_true, edge_fn, ClosureEdgeMap, EdgeMapFn};
pub use crate::vertex_map::{
    vertex_filter, vertex_filter_recorded, vertex_map, vertex_map_recorded, vertex_map_reduce_f64,
    vertex_map_reduce_f64_recorded,
};
pub use crate::vertex_subset::VertexSubset;

// Re-export the substrate crates so applications can depend on `ligra`
// alone, as downstream users of the original system include one header.
pub use ligra_graph as graph;
pub use ligra_parallel as parallel;
