//! Deterministic avalanche hash functions.
//!
//! The PBBS utilities underlying Ligra use an integer hash both as a cheap
//! deterministic pseudo-random source (graph generators, vertex sampling)
//! and for duplicate removal. These are the classic finalizers with full
//! avalanche: every input bit flips every output bit with probability ~1/2.

/// 32-bit avalanche hash (Wang's integer hash, as used in PBBS `utils::hash`).
#[inline]
pub fn hash32(mut a: u32) -> u32 {
    a = (a ^ 61) ^ (a >> 16);
    a = a.wrapping_add(a << 3);
    a ^= a >> 4;
    a = a.wrapping_mul(0x27d4_eb2d);
    a ^= a >> 15;
    a
}

/// 64-bit avalanche hash (variant of Wang's 64-bit hash).
#[inline]
pub fn hash64(mut a: u64) -> u64 {
    a = (!a).wrapping_add(a << 21);
    a ^= a >> 24;
    a = a.wrapping_add(a << 3).wrapping_add(a << 8);
    a ^= a >> 14;
    a = a.wrapping_add(a << 2).wrapping_add(a << 4);
    a ^= a >> 28;
    a = a.wrapping_add(a << 31);
    a
}

/// SplitMix64 finalizer: the mixing function of Steele et al.'s SplitMix
/// generator. Slightly stronger avalanche than [`hash64`]; used where the
/// generators need independent streams (`mix64(seed ^ index)`).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash `v` into the half-open range `[0, bound)`.
///
/// Uses the widening-multiply trick (Lemire) instead of `%` so the mapping
/// is branch-free and nearly unbiased for `bound << 2^64`.
#[inline]
pub fn hash_to_range(v: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((mix64(v) as u128 * bound as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(hash32(42), hash32(42));
        assert_eq!(hash64(42), hash64(42));
        assert_eq!(mix64(42), mix64(42));
    }

    #[test]
    fn hashes_separate_nearby_inputs() {
        // Consecutive inputs should land far apart (avalanche).
        let a = hash32(1000);
        let b = hash32(1001);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 4, "poor avalanche: {a:x} vs {b:x}");

        let c = hash64(1000);
        let d = hash64(1001);
        assert!((c ^ d).count_ones() > 8);
    }

    #[test]
    fn mix64_spreads_nearby_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a >> 32, b >> 32, "high bits differ for adjacent inputs");
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn hash32_is_roughly_uniform_in_buckets() {
        let buckets = 16usize;
        let mut counts = vec![0usize; buckets];
        let n = 1 << 16;
        for i in 0..n {
            counts[(hash32(i) as usize) % buckets] += 1;
        }
        let expected = n as usize / buckets;
        for &c in &counts {
            assert!(
                c > expected / 2 && c < expected * 2,
                "bucket count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn hash_to_range_respects_bound() {
        for bound in [1u64, 2, 3, 10, 1 << 20] {
            for v in 0..1000u64 {
                assert!(hash_to_range(v, bound) < bound);
            }
        }
    }

    #[test]
    fn mix64_has_no_small_cycles_at_origin() {
        // Iterating the mixer from 0 should not return to 0 quickly.
        let mut z = 0u64;
        for _ in 0..1000 {
            z = mix64(z);
            assert_ne!(z, 0);
        }
    }
}
