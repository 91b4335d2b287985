//! `vertexSubset` — Ligra's frontier abstraction.
//!
//! A subset `U ⊆ V` with two interchangeable representations:
//!
//! * **Sparse** — an array of the member vertex IDs. Cheap to iterate when
//!   `|U| ≪ n`; the representation sparse `edgeMap` consumes and produces.
//! * **Dense** — a packed [`BitSet`] of `n` bits. O(1) membership tests;
//!   the representation the dense (pull) traversal consumes and produces.
//!   One bit per vertex means a full-frontier stream touches `n/8` bytes
//!   instead of the `n` a `Vec<bool>` would, and empty regions are skipped
//!   64 vertices per zero word.
//!
//! Conversions run in parallel (`pack_index_bits` one way, a blocked scatter
//! the other) and are performed lazily by `edgeMap` when the direction
//! heuristic picks the representation it doesn't have — precisely the
//! behaviour of the original system's `vertexSubset::toSparse`/`toDense`.
//! A sparse list that is known to be in ascending order (the common case:
//! every dense→sparse conversion produces one) is flagged, which makes
//! [`VertexSubset::contains`] a binary search instead of a linear scan and
//! lets `to_dense` scatter with plain (non-atomic) word writes.

use ligra_graph::VertexId;
use ligra_parallel::bitvec::BitSet;
use ligra_parallel::checked_u32;
use ligra_parallel::pack::pack_index_bits;

/// The two frontier representations.
#[derive(Debug, Clone)]
enum Repr {
    Sparse(Vec<VertexId>),
    Dense(BitSet),
}

/// A subset of the vertices `0..n`.
#[derive(Debug, Clone)]
pub struct VertexSubset {
    n: usize,
    len: usize,
    /// True iff a sparse representation is known to be in ascending order.
    /// (Meaningless while dense — the bitset is inherently ordered.)
    sorted: bool,
    repr: Repr,
}

impl VertexSubset {
    /// The empty subset of a graph with `n` vertices.
    pub fn empty(n: usize) -> Self {
        VertexSubset { n, len: 0, sorted: true, repr: Repr::Sparse(Vec::new()) }
    }

    /// The singleton `{v}`.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    pub fn single(n: usize, v: VertexId) -> Self {
        assert!((v as usize) < n, "vertex {v} out of range (n = {n})");
        VertexSubset { n, len: 1, sorted: true, repr: Repr::Sparse(vec![v]) }
    }

    /// The full vertex set `0..n` (dense).
    pub fn all(n: usize) -> Self {
        VertexSubset { n, len: n, sorted: true, repr: Repr::Dense(BitSet::full(n)) }
    }

    /// Builds a sparse subset from a list of member IDs.
    ///
    /// Callers must not pass duplicates — `len()` counts entries. (Debug
    /// builds verify membership range; duplicates are the caller's
    /// contract, as in the original system.) An ascending list is detected
    /// here once, unlocking binary-search `contains` and the non-atomic
    /// dense conversion.
    pub fn from_sparse(n: usize, mut vs: Vec<VertexId>) -> Self {
        debug_assert!(vs.iter().all(|&v| (v as usize) < n));
        vs.shrink_to_fit();
        let len = vs.len();
        let sorted = vs.is_sorted();
        VertexSubset { n, len, sorted, repr: Repr::Sparse(vs) }
    }

    /// Builds a dense subset directly from a packed bit set.
    ///
    /// # Panics
    /// Panics if `bits.len() != n`.
    pub fn from_bitset(n: usize, bits: BitSet) -> Self {
        assert_eq!(bits.len(), n, "dense representation must have length n");
        let len = bits.count_ones();
        VertexSubset { n, len, sorted: true, repr: Repr::Dense(bits) }
    }

    /// Builds the subset `{ v : pred(v) }` in parallel.
    pub fn from_fn(n: usize, pred: impl Fn(VertexId) -> bool + Sync) -> Self {
        VertexSubset::from_bitset(n, BitSet::from_fn(n, |v| pred(checked_u32(v))))
    }

    /// Size of the universe `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of member vertices `|U|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the subset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff the current representation is sparse.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Membership test. O(1) dense, O(log |U|) sorted sparse, O(|U|) only
    /// for an unsorted sparse list.
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.repr {
            Repr::Sparse(vs) if self.sorted => vs.binary_search(&v).is_ok(),
            Repr::Sparse(vs) => vs.contains(&v),
            Repr::Dense(bits) => bits.get(v as usize),
        }
    }

    /// Converts to the sparse representation (no-op if already sparse).
    pub fn to_sparse(&mut self) {
        if let Repr::Dense(bits) = &self.repr {
            let vs = pack_index_bits(bits);
            debug_assert_eq!(vs.len(), self.len);
            self.sorted = true;
            self.repr = Repr::Sparse(vs);
        }
    }

    /// Converts to the dense representation (no-op if already dense).
    ///
    /// A sorted sparse list scatters with plain word writes over disjoint
    /// blocks; only an unsorted list needs the atomic (`fetch_or`) path.
    pub fn to_dense(&mut self) {
        if let Repr::Sparse(vs) = &self.repr {
            self.repr = Repr::Dense(BitSet::from_ids(self.n, vs, self.sorted));
        }
    }

    /// The member IDs; converts to sparse first.
    pub fn as_slice(&mut self) -> &[VertexId] {
        self.to_sparse();
        match &self.repr {
            Repr::Sparse(vs) => vs,
            Repr::Dense(_) => unreachable!(),
        }
    }

    /// The packed membership bits; converts to dense first.
    pub fn as_bits(&mut self) -> &BitSet {
        self.to_dense();
        match &self.repr {
            Repr::Dense(bits) => bits,
            Repr::Sparse(_) => unreachable!(),
        }
    }

    /// The membership flags as one byte per vertex (test/debug adapter;
    /// the traversals consume [`VertexSubset::as_bits`]).
    pub fn to_bools(&self) -> Vec<bool> {
        match &self.repr {
            Repr::Dense(bits) => bits.to_bools(),
            Repr::Sparse(vs) => {
                let mut flags = vec![false; self.n];
                for &v in vs {
                    flags[v as usize] = true;
                }
                flags
            }
        }
    }

    /// The member IDs if currently sparse.
    pub fn sparse(&self) -> Option<&[VertexId]> {
        match &self.repr {
            Repr::Sparse(vs) => Some(vs),
            Repr::Dense(_) => None,
        }
    }

    /// The packed membership bits if currently dense.
    pub fn dense(&self) -> Option<&BitSet> {
        match &self.repr {
            Repr::Dense(bits) => Some(bits),
            Repr::Sparse(_) => None,
        }
    }

    /// Bytes the current representation occupies (sparse: 4 per entry;
    /// dense: the packed `n/8`). This is what a traversal streaming the
    /// frontier reads — the telemetry `frontier_bytes` field is built on it.
    pub fn repr_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Sparse(vs) => 4 * vs.len() as u64,
            Repr::Dense(bits) => bits.bytes() as u64,
        }
    }

    /// Member IDs in ascending order (for tests/reporting; converts a copy).
    pub fn to_vec_sorted(&self) -> Vec<VertexId> {
        match &self.repr {
            Repr::Sparse(vs) if self.sorted => vs.clone(),
            Repr::Sparse(vs) => {
                let mut vs = vs.clone();
                vs.sort_unstable();
                vs
            }
            Repr::Dense(bits) => pack_index_bits(bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        let e = VertexSubset::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let s = VertexSubset::single(10, 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_out_of_range_panics() {
        let _ = VertexSubset::single(3, 3);
    }

    #[test]
    fn all_contains_everything() {
        let a = VertexSubset::all(5);
        assert_eq!(a.len(), 5);
        assert!((0..5u32).all(|v| a.contains(v)));
    }

    #[test]
    fn dense_sparse_roundtrip() {
        let n = 1000;
        let mut s = VertexSubset::from_fn(n, |v| v.is_multiple_of(7));
        let expect: Vec<u32> = (0..n as u32).filter(|v| v.is_multiple_of(7)).collect();
        assert_eq!(s.len(), expect.len());
        assert_eq!(s.as_slice(), &expect[..]);
        s.to_dense();
        assert!(!s.is_sparse());
        assert_eq!(s.len(), expect.len());
        assert_eq!(s.to_vec_sorted(), expect);
        s.to_sparse();
        assert!(s.is_sparse());
        assert_eq!(s.to_vec_sorted(), expect);
    }

    #[test]
    fn conversions_preserve_len_on_large_random_sets() {
        let n = 100_000;
        let mut s = VertexSubset::from_fn(n, |v| ligra_parallel::hash32(v).is_multiple_of(3));
        let len = s.len();
        s.to_sparse();
        assert_eq!(s.len(), len);
        assert_eq!(s.as_slice().len(), len);
        s.to_dense();
        assert_eq!(s.len(), len);
        assert_eq!(s.as_bits().count_ones(), len);
    }

    #[test]
    fn to_bools_of_sparse() {
        let s = VertexSubset::from_sparse(6, vec![1, 4]);
        assert_eq!(s.to_bools(), &[false, true, false, false, true, false]);
    }

    #[test]
    fn contains_on_sorted_and_unsorted_sparse() {
        // Sorted list: binary-search path.
        let s = VertexSubset::from_sparse(100, vec![3, 17, 41, 99]);
        assert!(s.sorted && s.is_sparse());
        for v in 0..100u32 {
            assert_eq!(s.contains(v), [3, 17, 41, 99].contains(&v), "v={v}");
        }
        // Unsorted list: linear-scan fallback, same answers.
        let u = VertexSubset::from_sparse(100, vec![99, 3, 41, 17]);
        assert!(!u.sorted);
        for v in 0..100u32 {
            assert_eq!(u.contains(v), s.contains(v), "v={v}");
        }
    }

    #[test]
    fn to_dense_of_unsorted_sparse() {
        let mut u = VertexSubset::from_sparse(200, vec![150, 3, 64, 63]);
        u.to_dense();
        assert_eq!(u.to_vec_sorted(), vec![3, 63, 64, 150]);
    }

    #[test]
    fn repr_bytes_tracks_representation() {
        let mut s = VertexSubset::from_sparse(640, vec![1, 2, 3]);
        assert_eq!(s.repr_bytes(), 12, "sparse: 4 bytes per entry");
        s.to_dense();
        assert_eq!(s.repr_bytes(), 80, "dense: n/8 bytes packed");
    }

    #[test]
    fn from_bitset_counts_members() {
        let mut bits = BitSet::new(70);
        bits.set(0);
        bits.set(69);
        let s = VertexSubset::from_bitset(70, bits);
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_vec_sorted(), vec![0, 69]);
    }
}
