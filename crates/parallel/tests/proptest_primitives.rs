//! Property-based tests for the parallel-primitives substrate: every
//! primitive must agree with its obvious sequential specification on
//! arbitrary inputs.
//!
//! Coverage caveat: when the workspace is built with the offline vendored
//! proptest stand-in (`.cargo/config.toml` patch, registry-less sandboxes
//! only), cases come from a fixed name-derived seed, failures are not
//! shrunk, and the explored input space is smaller than real proptest's.
//! CI strips the patch and runs these same tests under real proptest.

#![allow(clippy::unwrap_used)]

use ligra_parallel::atomics::{as_atomic_u32, write_min_u32};
use ligra_parallel::bitvec::AtomicBitVec;
use ligra_parallel::pack::{filter, pack, pack_index};
use ligra_parallel::scan::{prefix_sums, scan_exclusive};
use proptest::prelude::*;
use rayon::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_matches_sequential(xs in proptest::collection::vec(0u64..1000, 0..5000)) {
        let (out, total) = prefix_sums(&xs);
        let mut acc = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn scan_is_generic_over_monoid(xs in proptest::collection::vec(0u32..u32::MAX, 0..3000)) {
        // max-monoid scan: out[i] = max of prefix.
        let (out, total) = scan_exclusive(&xs, 0u32, |a, b| a.max(b));
        let mut run = 0u32;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i], run);
            run = run.max(x);
        }
        prop_assert_eq!(total, run);
    }

    #[test]
    fn pack_matches_filter_spec(
        xs in proptest::collection::vec(any::<u32>(), 0..4000),
        modulus in 1u32..7,
    ) {
        let flags: Vec<bool> = xs.iter().map(|&x| x % modulus == 0).collect();
        let got = pack(&xs, &flags);
        let expect: Vec<u32> = xs.iter().copied().filter(|&x| x % modulus == 0).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn filter_and_pack_index_agree(flags in proptest::collection::vec(any::<bool>(), 0..4000)) {
        let idx = pack_index(&flags);
        let expect: Vec<u32> = flags
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        prop_assert_eq!(&idx, &expect);
        // pack_index is filter over the identity sequence.
        let ids: Vec<u32> = (0..flags.len() as u32).collect();
        prop_assert_eq!(idx, filter(&ids, |&i| flags[i as usize]));
    }

    #[test]
    fn parallel_write_min_finds_global_min(xs in proptest::collection::vec(any::<u32>(), 1..4000)) {
        let mut cell = vec![u32::MAX];
        {
            let a = &as_atomic_u32(&mut cell)[0];
            xs.par_iter().for_each(|&x| {
                write_min_u32(a, x);
            });
        }
        prop_assert_eq!(cell[0], *xs.iter().min().unwrap());
    }

    #[test]
    fn bitvec_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let bv = AtomicBitVec::from_bools(&bits);
        prop_assert_eq!(bv.count_ones(), bits.iter().filter(|&&b| b).count());
        prop_assert_eq!(bv.to_bools(), bits);
    }
}
