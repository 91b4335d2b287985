//! # ligra-graph
//!
//! Graph substrate for the Ligra reproduction: compressed sparse row (CSR)
//! representations for unweighted and weighted, directed and symmetric
//! graphs; a parallel builder from edge lists; the graph generators used in
//! the paper's evaluation (rMAT, random-local, 3d-grid); and the PBBS
//! `AdjacencyGraph` text format Ligra reads.
//!
//! Vertices are dense `u32` identifiers `0..n`. Directed graphs carry both
//! the out-CSR and the in-CSR (transpose) because Ligra's dense (pull)
//! traversal iterates in-edges; symmetric graphs share one CSR for both
//! directions, exactly as the original system does.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod neighbors;
pub mod partition;
pub mod properties;

pub use builder::{build_graph, build_weighted_graph, BuildOptions};
pub use csr::{Adjacency, Graph, VertexId, WeightedGraph};
pub use delta::{apply_batch, apply_normalized, ApplyStats, DeltaBatch, DeltaError};
pub use neighbors::{CsrEdges, Neighbors, Transpose, UnitWeighted};
pub use partition::Partitioning;
pub use properties::GraphStats;
