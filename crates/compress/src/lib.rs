//! # ligra-compress
//!
//! Reproduction of **Ligra+: Smaller and Faster: Parallel Processing of
//! Compressed Graphs** (Shun, Dhulipala, Blelloch; DCC 2015) — the
//! follow-up system by the paper's authors, reproduced here as the
//! extension work of the main Ligra build.
//!
//! Adjacency lists are stored as difference-encoded byte codes
//! ([`varint`]): the first neighbor relative to the source vertex, the
//! rest as gaps. [`CompressedGraph`] implements `ligra_graph::Neighbors`,
//! so `ligra::edge_map` and the `ligra-apps` applications run directly
//! over the compressed representation, decoding on the fly — this crate is
//! the codecs, the container and that one trait impl. The claim to verify
//! is ~2× space reduction at roughly equal traversal time (see the
//! `ligraplus` bench binary).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cgraph;
pub mod codec;
pub mod varint;

pub use cgraph::{CompressedAdjacency, CompressedGraph};
pub use codec::{ByteCode, ByteRleCode, Codec, NibbleCode};
