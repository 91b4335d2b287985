//! # ligra-apps
//!
//! The applications evaluated in the Ligra paper (PPoPP 2013), implemented
//! on the `ligra` framework exactly as the paper's pseudocode describes,
//! plus sequential reference implementations used for validation and for
//! the single-thread baselines of Table 2.
//!
//! | Paper application | Module |
//! |---|---|
//! | Breadth-first search | [`bfs`] |
//! | Betweenness centrality (Brandes, unweighted) | [`bc`] |
//! | Graph radii estimation (64-way multi-BFS) | [`radii`] |
//! | Connected components (label propagation) | [`cc`] |
//! | PageRank and PageRank-Delta | [`pagerank`] |
//! | Bellman–Ford shortest paths | [`bellman_ford`] |
//!
//! Every module exposes a `*_traced` variant that records per-round
//! [`ligra::TraversalStats`], which the benchmark harness uses to
//! regenerate the paper's frontier-dynamics figure. Every frontier
//! application is generic over [`ligra_graph::Neighbors`]; the [`seq`]
//! references take `&Graph` and say why.
//!
//! Beyond the paper's six applications, the modules [`kcore`] and [`mis`]
//! reproduce two extra applications shipped with the original Ligra
//! source release (KCore.C, MIS.C); with the six they make the eight
//! query kinds the engine serves.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bc;
pub mod bellman_ford;
pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod mis;
pub mod pagerank;
pub mod radii;
pub mod seq;

pub use bc::{bc, bc_traced, BcResult};
pub use bellman_ford::{bellman_ford, bellman_ford_traced, BellmanFordResult, INFINITE_DISTANCE};
pub use bfs::{bfs, bfs_traced, bfs_with, BfsResult, UNREACHED};
pub use cc::{cc, cc_traced, CcResult};
pub use kcore::{kcore, kcore_traced, KCoreResult};
pub use mis::{mis, mis_traced, MisResult};
pub use pagerank::{
    pagerank, pagerank_delta, pagerank_delta_traced, pagerank_traced, PageRankResult,
};
pub use radii::{radii, radii_traced, RadiiResult};
