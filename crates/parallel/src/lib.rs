//! # ligra-parallel
//!
//! Parallel-primitives substrate for the Ligra reproduction.
//!
//! The original Ligra system (Shun & Blelloch, PPoPP 2013) is built on the
//! primitives of the Problem Based Benchmark Suite (PBBS): parallel prefix
//! sums, filter/pack, and a small family of contention-aware atomic
//! operations (`CAS`, `writeMin` — the *priority update* of Shun et al.,
//! SPAA 2013 — `writeAdd`, `fetchOr`). This crate implements those
//! primitives from scratch on top of [`rayon`]'s work-stealing fork-join
//! scheduler, which plays the role Cilk Plus plays in the paper.
//!
//! Everything here is deterministic-by-construction where the paper requires
//! it (scans and packs return the same result as their sequential
//! counterparts) and uses explicit memory orderings on the contended paths.
//!
//! ## Module map
//!
//! * [`utils`] — granularity control and thread-pool helpers.
//! * [`scan`] — blocked two-pass parallel exclusive prefix sums.
//! * [`pack`] — parallel filter/pack and `pack_index`.
//! * [`atomics`] — `cas`, `write_min` (the priority update), `AtomicF64`,
//!   and slice-as-atomic views.
//! * [`bins`] — per-partition propagation bins (scatter-fragment stitch).
//! * [`bitvec`] — bit vectors: a concurrently writable one
//!   (`fetch_or`-based) and a packed single-owner [`BitSet`].
//! * [`hash`] — deterministic avalanche hashes used by the graph generators.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod atomics;
pub mod bins;
pub mod bitvec;
pub mod hash;
pub mod pack;
pub mod scan;
pub mod utils;

pub use atomics::{write_min_u32, AtomicF64};
pub use bitvec::{AtomicBitVec, BitSet};
pub use hash::{hash32, hash64, mix64};
pub use pack::{filter, pack, pack_index, pack_index_bits};
pub use scan::{prefix_sums, scan_exclusive};
pub use utils::{checked_u32, num_threads, with_threads, GRANULARITY};
