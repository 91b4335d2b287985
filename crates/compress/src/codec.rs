//! The encoding schemes Ligra+ evaluates: byte codes, nibble codes, and
//! run-length-encoded byte codes.
//!
//! A [`Codec`] turns one vertex's sorted neighbor list into bytes and
//! back: the first neighbor as a signed offset from the source vertex,
//! the rest as positive gaps. The DCC'15 paper's finding, which the
//! `ligraplus` bench reproduces in miniature: nibble codes are smallest
//! but slowest to decode; byte codes are the sweet spot; byte-RLE trades
//! a little space for the fastest decoding (runs decode without
//! per-value branches).

use crate::varint;
use ligra_graph::VertexId;
use ligra_parallel::checked_u32;

/// An adjacency-list encoding scheme.
pub trait Codec: Default + Clone + Send + Sync + 'static {
    /// Streaming decoder for one encoded list.
    type Iter<'a>: ExactSizeIterator<Item = VertexId> + 'a;

    /// Human-readable codec name (for benchmark output).
    const NAME: &'static str;

    /// Appends the encoding of `v`'s sorted, strictly increasing neighbor
    /// list to `out`.
    fn encode_list(v: VertexId, ns: &[VertexId], out: &mut Vec<u8>);

    /// Decodes the list of `v` with `degree` entries starting at
    /// `data[start]`.
    fn decode_list(v: VertexId, degree: u32, data: &[u8], start: usize) -> Self::Iter<'_>;
}

// ---------------------------------------------------------------------
// Byte codes (LEB128-style; Ligra+'s default).
// ---------------------------------------------------------------------

/// 7-bits-per-byte variable-length codes — Ligra+'s default.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteCode;

/// Decoder for [`ByteCode`].
pub struct ByteIter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u32,
    prev: VertexId,
    v: VertexId,
    first: bool,
}

impl Iterator for ByteIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let ngh = if self.first {
            self.first = false;
            let (diff, pos) = varint::decode_i64(self.data, self.pos);
            self.pos = pos;
            checked_u32(self.v as i64 + diff)
        } else {
            let (gap, pos) = varint::decode_u64(self.data, self.pos);
            self.pos = pos;
            self.prev + checked_u32(gap)
        };
        self.prev = ngh;
        Some(ngh)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ByteIter<'_> {}

impl Codec for ByteCode {
    type Iter<'a> = ByteIter<'a>;
    const NAME: &'static str = "byte";

    fn encode_list(v: VertexId, ns: &[VertexId], out: &mut Vec<u8>) {
        if let Some((&first, rest)) = ns.split_first() {
            varint::encode_i64(first as i64 - v as i64, out);
            let mut prev = first;
            for &u in rest {
                debug_assert!(u > prev, "lists must be strictly increasing");
                varint::encode_u64((u - prev) as u64, out);
                prev = u;
            }
        }
    }

    #[inline]
    fn decode_list(v: VertexId, degree: u32, data: &[u8], start: usize) -> ByteIter<'_> {
        ByteIter { data, pos: start, remaining: degree, prev: 0, v, first: true }
    }
}

// ---------------------------------------------------------------------
// Nibble codes (3 bits + continue bit per nibble).
// ---------------------------------------------------------------------

/// 3-bits-per-nibble codes: smallest encodings, slowest decode.
#[derive(Debug, Default, Clone, Copy)]
pub struct NibbleCode;

fn encode_nibbles(mut v: u64, nibbles: &mut Vec<u8>) {
    loop {
        let nib = (v & 0x7) as u8;
        v >>= 3;
        if v == 0 {
            nibbles.push(nib);
            return;
        }
        nibbles.push(nib | 0x8);
    }
}

#[inline]
fn read_nibble(data: &[u8], idx: usize) -> u8 {
    let byte = data[idx / 2];
    if idx.is_multiple_of(2) {
        byte & 0x0f
    } else {
        byte >> 4
    }
}

#[inline]
fn decode_nibbles(data: &[u8], mut idx: usize) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let nib = read_nibble(data, idx);
        idx += 1;
        v |= ((nib & 0x7) as u64) << shift;
        if nib & 0x8 == 0 {
            return (v, idx);
        }
        shift += 3;
    }
}

/// Decoder for [`NibbleCode`].
pub struct NibbleIter<'a> {
    data: &'a [u8],
    /// Position in nibbles, relative to the start of the whole data array
    /// (lists are byte-aligned, so `start_byte * 2`).
    nib: usize,
    remaining: u32,
    prev: VertexId,
    v: VertexId,
    first: bool,
}

impl Iterator for NibbleIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (raw, nib) = decode_nibbles(self.data, self.nib);
        self.nib = nib;
        let ngh = if self.first {
            self.first = false;
            checked_u32(self.v as i64 + varint::unzigzag(raw))
        } else {
            self.prev + checked_u32(raw)
        };
        self.prev = ngh;
        Some(ngh)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for NibbleIter<'_> {}

impl Codec for NibbleCode {
    type Iter<'a> = NibbleIter<'a>;
    const NAME: &'static str = "nibble";

    fn encode_list(v: VertexId, ns: &[VertexId], out: &mut Vec<u8>) {
        let mut nibbles: Vec<u8> = Vec::with_capacity(ns.len() * 2);
        if let Some((&first, rest)) = ns.split_first() {
            encode_nibbles(varint::zigzag(first as i64 - v as i64), &mut nibbles);
            let mut prev = first;
            for &u in rest {
                debug_assert!(u > prev);
                encode_nibbles((u - prev) as u64, &mut nibbles);
                prev = u;
            }
        }
        // Pack two nibbles per byte; lists stay byte-aligned.
        for pair in nibbles.chunks(2) {
            let lo = pair[0];
            let hi = pair.get(1).copied().unwrap_or(0);
            out.push(lo | (hi << 4));
        }
    }

    #[inline]
    fn decode_list(v: VertexId, degree: u32, data: &[u8], start: usize) -> NibbleIter<'_> {
        NibbleIter { data, nib: start * 2, remaining: degree, prev: 0, v, first: true }
    }
}

// ---------------------------------------------------------------------
// Run-length-encoded byte codes.
// ---------------------------------------------------------------------

/// Byte-RLE: the first neighbor as a plain signed varint (its zigzagged
/// offset can need 5 bytes, which the run header cannot express), then
/// the gaps as runs of fixed-width values behind a header byte (2 bits
/// byte-width − 1, 6 bits run length). Decodes with one branch per *run*
/// instead of one per value.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteRleCode;

const MAX_RUN: usize = 64;

fn bytes_needed(v: u64) -> usize {
    match v {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xff_ffff => 3,
        _ => 4,
    }
}

fn encode_rle_values(values: &[u64], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < values.len() {
        let width = bytes_needed(values[i]);
        // Extend the run while the width stays the same.
        let mut end = i + 1;
        while end < values.len() && end - i < MAX_RUN && bytes_needed(values[end]) == width {
            end += 1;
        }
        let run = end - i;
        debug_assert!((1..=MAX_RUN).contains(&run));
        out.push(((width as u8 - 1) << 6) | (run as u8 - 1));
        for &v in &values[i..end] {
            debug_assert!(v < 1u64 << (8 * width));
            out.extend_from_slice(&v.to_le_bytes()[..width]);
        }
        i = end;
    }
}

/// Decoder for [`ByteRleCode`].
pub struct ByteRleIter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u32,
    run_left: u8,
    width: usize,
    prev: VertexId,
    v: VertexId,
    first: bool,
}

impl Iterator for ByteRleIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.first {
            self.first = false;
            let (diff, pos) = varint::decode_i64(self.data, self.pos);
            self.pos = pos;
            let ngh = checked_u32(self.v as i64 + diff);
            self.prev = ngh;
            return Some(ngh);
        }
        if self.run_left == 0 {
            let header = self.data[self.pos];
            self.pos += 1;
            self.width = ((header >> 6) + 1) as usize;
            self.run_left = (header & 0x3f) + 1;
        }
        let mut raw = 0u64;
        for k in 0..self.width {
            raw |= (self.data[self.pos + k] as u64) << (8 * k);
        }
        self.pos += self.width;
        self.run_left -= 1;

        let ngh = self.prev + checked_u32(raw);
        self.prev = ngh;
        Some(ngh)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ByteRleIter<'_> {}

impl Codec for ByteRleCode {
    type Iter<'a> = ByteRleIter<'a>;
    const NAME: &'static str = "byte-rle";

    fn encode_list(v: VertexId, ns: &[VertexId], out: &mut Vec<u8>) {
        if ns.is_empty() {
            return;
        }
        varint::encode_i64(ns[0] as i64 - v as i64, out);
        let mut gaps: Vec<u64> = Vec::with_capacity(ns.len() - 1);
        for w in ns.windows(2) {
            debug_assert!(w[1] > w[0]);
            gaps.push((w[1] - w[0]) as u64);
        }
        encode_rle_values(&gaps, out);
    }

    #[inline]
    fn decode_list(v: VertexId, degree: u32, data: &[u8], start: usize) -> ByteRleIter<'_> {
        ByteRleIter {
            data,
            pos: start,
            remaining: degree,
            run_left: 0,
            width: 0,
            prev: 0,
            v,
            first: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<C: Codec>(v: VertexId, ns: &[VertexId]) {
        let mut buf = Vec::new();
        C::encode_list(v, ns, &mut buf);
        let got: Vec<VertexId> = C::decode_list(v, ns.len() as u32, &buf, 0).collect();
        assert_eq!(got, ns, "{} codec, source {v}", C::NAME);
    }

    fn roundtrip_all(v: VertexId, ns: &[VertexId]) {
        roundtrip::<ByteCode>(v, ns);
        roundtrip::<NibbleCode>(v, ns);
        roundtrip::<ByteRleCode>(v, ns);
    }

    #[test]
    fn empty_list() {
        roundtrip_all(5, &[]);
    }

    #[test]
    fn single_neighbor_before_and_after_source() {
        roundtrip_all(100, &[3]);
        roundtrip_all(100, &[100_000]);
        roundtrip_all(0, &[0]);
    }

    #[test]
    fn dense_local_list() {
        roundtrip_all(50, &[45, 46, 47, 48, 49, 51, 52, 53]);
    }

    #[test]
    fn huge_gaps() {
        roundtrip_all(0, &[1, 1 << 10, 1 << 20, 1 << 25, (1 << 31) + 5]);
        roundtrip_all(u32::MAX - 10, &[0, u32::MAX - 11, u32::MAX - 1]);
    }

    #[test]
    fn long_run_crosses_rle_run_limit() {
        // 200 consecutive gaps of 1: several 64-value runs.
        let ns: Vec<u32> = (1000..1200).collect();
        roundtrip_all(999, &ns);
    }

    #[test]
    fn mixed_width_runs() {
        // Alternate small and large gaps to force run breaks.
        let mut ns = Vec::new();
        let mut cur = 10u32;
        for i in 0..50u32 {
            cur += if i.is_multiple_of(2) { 1 } else { 70_000 };
            ns.push(cur);
        }
        roundtrip_all(10, &ns);
    }

    #[test]
    fn nibble_is_never_larger_than_twice_optimal_and_packs() {
        let ns: Vec<u32> = (0..100).map(|i| 5 + i * 2).collect();
        let mut byte = Vec::new();
        let mut nibble = Vec::new();
        ByteCode::encode_list(4, &ns, &mut byte);
        NibbleCode::encode_list(4, &ns, &mut nibble);
        // Gaps of 2 fit in one nibble vs one byte.
        assert!(nibble.len() < byte.len(), "nibble {} vs byte {}", nibble.len(), byte.len());
    }

    #[test]
    fn rle_beats_byte_on_uniform_runs() {
        // Wide gaps (3-byte) in runs: byte code spends 4 bytes each,
        // RLE spends 3 plus one header per 64.
        let ns: Vec<u32> = (1..100).map(|i| i * 3_000_000).collect();
        let mut byte = Vec::new();
        let mut rle = Vec::new();
        ByteCode::encode_list(0, &ns, &mut byte);
        ByteRleCode::encode_list(0, &ns, &mut rle);
        assert!(rle.len() < byte.len(), "rle {} vs byte {}", rle.len(), byte.len());
    }

    #[test]
    fn exhaustive_small_lists() {
        // All strictly-increasing lists over a small universe.
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    for v in 0..6u32 {
                        roundtrip_all(v, &[a]);
                        roundtrip_all(v, &[a, b]);
                        roundtrip_all(v, &[a, b, c]);
                    }
                }
            }
        }
    }
}
