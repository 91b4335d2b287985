//! Cache-fitting vertex partitions for the partitioned (scatter/gather)
//! traversal.
//!
//! Vertex IDs are split into contiguous segments of `1 << bits` vertices.
//! A segment is sized so its hot per-vertex state (the destination-indexed
//! algorithm array plus the output frontier bits, ~[`STATE_BYTES_PER_VERTEX`]
//! bytes each) fits in about half the last-level cache a core can count on
//! ([`SEGMENT_TARGET_BYTES`]): the gather phase then touches one segment's
//! state at a time and every access after the first is a cache hit. Because
//! partitions are contiguous ID ranges, the per-partition CSC slice is just
//! a sub-range of the in-CSR — rows `range(p)` of the transpose — so the
//! partitioning stores only per-partition aggregate counts, not copies.
//!
//! `bits` is clamped to at least [`MIN_BITS`] so every partition boundary is
//! a multiple of 64: a partition then owns whole words of the packed dense
//! frontier, which is what lets the gather phase write its output bitset
//! with plain (non-atomic) stores.

use crate::csr::{Adjacency, VertexId};

/// Smallest permitted partition width (log2). 64-vertex alignment keeps
/// every partition boundary on a packed-bitset word boundary, so the
/// gather phase's plain-write output stays exclusive per partition.
pub const MIN_BITS: u32 = 6;

/// Largest permitted partition width (log2); beyond the u32 ID space
/// nothing is gained.
pub const MAX_BITS: u32 = 31;

/// Per-segment budget for hot gather-phase state: ~half of a
/// conservative per-core last-level cache share.
pub const SEGMENT_TARGET_BYTES: usize = 1 << 19;

/// Bytes of destination-indexed state the gather phase touches per
/// vertex (a 4-byte algorithm value plus frontier/visited bits, rounded
/// up): sizing denominator for the default partition width.
pub const STATE_BYTES_PER_VERTEX: usize = 8;

/// The default partition width (log2 vertices) for a graph of `n`
/// vertices: sized so a segment's state fits [`SEGMENT_TARGET_BYTES`],
/// clamped to `[MIN_BITS, MAX_BITS]`.
pub fn default_bits(n: usize) -> u32 {
    let _ = n; // the width is cache-sized, not n-sized; n only matters downstream
    (SEGMENT_TARGET_BYTES / STATE_BYTES_PER_VERTEX).max(64).ilog2().clamp(MIN_BITS, MAX_BITS)
}

/// Contiguous cache-fitting vertex segments plus per-segment in-edge
/// counts (the CSC slice sizes the gather phase will stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    bits: u32,
    n: usize,
    in_edges: Box<[u64]>,
}

impl Partitioning {
    /// Partitions the `n` vertices of `adj` (read as the in-direction
    /// CSR) into segments of `1 << bits` vertices, counting each
    /// segment's in-edges from the offset array. `bits` is clamped to
    /// `[MIN_BITS, MAX_BITS]`.
    pub fn of<W: Copy + Send + Sync>(adj: &Adjacency<W>, bits: u32) -> Self {
        let bits = bits.clamp(MIN_BITS, MAX_BITS);
        let n = adj.num_vertices();
        // An overlaid direction has no contiguous offset array for its
        // view; fall back to the per-vertex degree path.
        if adj.has_overlay() {
            return Self::from_degrees(n, bits, |v| adj.degree(v) as u64);
        }
        let num = n.div_ceil(1usize << bits).max(1);
        let offsets = adj.offsets();
        let in_edges: Box<[u64]> = (0..num)
            .map(|p| {
                let lo = p << bits;
                let hi = ((p + 1) << bits).min(n);
                offsets[hi] - offsets[lo]
            })
            .collect();
        Partitioning { bits, n, in_edges }
    }

    /// Partitions `n` vertices with per-vertex in-degrees supplied by a
    /// callback — for representations without a materialized offset array
    /// (the compressed graph only exposes decoded degrees). `bits` is
    /// clamped to `[MIN_BITS, MAX_BITS]`.
    pub fn from_degrees(n: usize, bits: u32, in_degree: impl Fn(VertexId) -> u64) -> Self {
        let bits = bits.clamp(MIN_BITS, MAX_BITS);
        let num = n.div_ceil(1usize << bits).max(1);
        let in_edges: Box<[u64]> = (0..num)
            .map(|p| {
                let lo = p << bits;
                let hi = ((p + 1) << bits).min(n);
                (lo..hi).map(|v| in_degree(ligra_parallel::checked_u32(v))).sum()
            })
            .collect();
        Partitioning { bits, n, in_edges }
    }

    /// log2 of the partition width in vertices.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of partitions (≥ 1).
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.in_edges.len()
    }

    /// Number of vertices partitioned.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The partition vertex `v` belongs to.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        (v >> self.bits) as usize
    }

    /// The contiguous vertex-ID range partition `p` owns (the last
    /// partition's range is clamped to `n`).
    #[inline]
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        let lo = p << self.bits;
        let hi = ((p + 1) << self.bits).min(self.n);
        lo..hi
    }

    /// In-edges whose target lies in partition `p` — the size of the
    /// partition's CSC slice.
    #[inline]
    pub fn in_edges(&self, p: usize) -> u64 {
        self.in_edges[p]
    }

    /// Σ over partitions of [`Self::in_edges`].
    pub fn total_in_edges(&self) -> u64 {
        self.in_edges.iter().sum()
    }

    /// Packed-bitset words per full partition. Guaranteed whole because
    /// `bits >= MIN_BITS`.
    #[inline]
    pub fn words_per_partition(&self) -> usize {
        (1usize << self.bits) / 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Adjacency {
        // v -> v+1 for all v < n-1; in-degree 1 everywhere except vertex 0.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for v in 0..n {
            if v + 1 < n {
                targets.push((v + 1) as VertexId);
            }
            offsets.push(targets.len() as u64);
        }
        Adjacency::new(offsets, targets.clone(), vec![(); targets.len()])
    }

    #[test]
    fn ranges_tile_the_id_space() {
        let adj = chain(300);
        let p = Partitioning::of(&adj, 6);
        assert_eq!(p.bits(), 6);
        assert_eq!(p.num_partitions(), 300usize.div_ceil(64));
        let mut covered = 0;
        for i in 0..p.num_partitions() {
            let r = p.range(i);
            assert_eq!(r.start, covered);
            covered = r.end;
            for v in r.clone() {
                assert_eq!(p.partition_of(v as VertexId), i);
            }
        }
        assert_eq!(covered, 300);
    }

    #[test]
    fn in_edge_counts_come_from_offsets() {
        // transpose of the chain: in-edges of partition 0 (vertices 0..64)
        // are the 63 arcs into 1..=63 when read as an in-CSR.
        let adj = chain(130);
        let p = Partitioning::of(&adj, 6);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.total_in_edges(), adj.num_edges() as u64);
        let by_hand: u64 = (0..3)
            .map(|i| {
                let r = p.range(i);
                r.map(|v| adj.degree(v as VertexId) as u64).sum::<u64>()
            })
            .sum();
        assert_eq!(by_hand, p.total_in_edges());
    }

    #[test]
    fn bits_are_clamped_to_word_alignment() {
        let adj = chain(64);
        let p = Partitioning::of(&adj, 0);
        assert_eq!(p.bits(), MIN_BITS);
        assert_eq!(p.words_per_partition(), 1);
        assert_eq!(p.num_partitions(), 1);
    }

    #[test]
    fn empty_graph_gets_one_partition() {
        let adj: Adjacency = Adjacency::new(vec![0], vec![], vec![]);
        let p = Partitioning::of(&adj, 10);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.range(0), 0..0);
        assert_eq!(p.total_in_edges(), 0);
    }

    #[test]
    fn from_degrees_matches_offset_construction() {
        let adj = chain(130);
        let a = Partitioning::of(&adj, 6);
        let b = Partitioning::from_degrees(130, 6, |v| adj.degree(v) as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn default_bits_is_cache_sized_and_clamped() {
        let b = default_bits(1 << 22);
        assert!((MIN_BITS..=MAX_BITS).contains(&b));
        // 2^bits vertices x STATE_BYTES_PER_VERTEX must not blow the target.
        assert!((1usize << b) * STATE_BYTES_PER_VERTEX <= SEGMENT_TARGET_BYTES);
    }
}
