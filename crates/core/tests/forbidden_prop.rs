//! Property test: [`bgpc::StampSet`] and [`bgpc::BitStampSet`] are
//! observationally equivalent under every operation sequence.
//!
//! The word-packed bitset is the production representation; the per-color
//! stamp array is the executable specification. A random interleaving of
//! `advance` / `insert` / `contains` / `first_fit_from` /
//! `reverse_first_fit_from` must produce identical answers from both,
//! including across epoch boundaries (stale-word reuse) and 64-bit word
//! boundaries.

use bgpc::{BitStampSet, StampSet};
use minicheck::{check, prop_assert};

/// Colors reach past several 64-bit words and past the initial capacity so
/// word-boundary and growth paths are exercised.
const MAX_COLOR: u32 = 300;

#[test]
fn stamp_and_bitstamp_sets_agree_on_random_op_sequences() {
    check("forbidden_set_equivalence", 256, |g| {
        let cap = g.usize_in(1..80);
        let mut spec = StampSet::with_capacity(cap);
        let mut bits = BitStampSet::with_capacity(cap);
        let ops = g.usize_in(1..120);
        for step in 0..ops {
            match g.usize_in(0..5) {
                0 => {
                    spec.advance();
                    bits.advance();
                }
                1 => {
                    let c = g.u32_in(0..MAX_COLOR) as i32;
                    spec.insert(c);
                    bits.insert(c);
                }
                2 => {
                    let c = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        spec.contains(c) == bits.contains(c),
                        "contains({c}) diverged at step {step}"
                    );
                }
                3 => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        spec.first_fit_from(from) == bits.first_fit_from(from),
                        "first_fit_from({from}) diverged at step {step}: spec {}, bits {}",
                        spec.first_fit_from(from),
                        bits.first_fit_from(from)
                    );
                }
                _ => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32 - 1;
                    prop_assert!(
                        spec.reverse_first_fit_from(from) == bits.reverse_first_fit_from(from),
                        "reverse_first_fit_from({from}) diverged at step {step}: spec {}, bits {}",
                        spec.reverse_first_fit_from(from),
                        bits.reverse_first_fit_from(from)
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn stamp_and_bitstamp_sets_agree_on_exact_word_boundaries() {
    // Deterministic boundary battery: prefixes 0..n fully forbidden for n
    // around every 64-color word edge. The random-op test above rarely
    // saturates whole words, so the multi-word scans are pinned here.
    for n in [63usize, 64, 65, 127, 128, 129, 255, 256, 257, 320] {
        let mut spec = StampSet::with_capacity(n + 64);
        let mut bits = BitStampSet::with_capacity(n + 64);
        spec.advance();
        bits.advance();
        for c in 0..n as i32 {
            spec.insert(c);
            bits.insert(c);
        }
        assert_eq!(bits.first_fit_from(0), n as i32, "dense prefix {n}");
        for from in 0..=(n as i32 + 1) {
            assert_eq!(
                spec.first_fit_from(from),
                bits.first_fit_from(from),
                "first_fit_from: dense prefix {n}, from {from}"
            );
            assert_eq!(
                spec.reverse_first_fit_from(from),
                bits.reverse_first_fit_from(from),
                "reverse_first_fit_from: dense prefix {n}, from {from}"
            );
        }
    }
}

#[test]
fn first_fit_results_are_never_forbidden() {
    check("first_fit_soundness", 256, |g| {
        let mut bits = BitStampSet::with_capacity(g.usize_in(1..64));
        bits.advance();
        let inserts = g.usize_in(0..90);
        for _ in 0..inserts {
            bits.insert(g.u32_in(0..MAX_COLOR) as i32);
        }
        let from = g.u32_in(0..MAX_COLOR) as i32;
        let ff = bits.first_fit_from(from);
        minicheck::prop_assert!(ff >= from, "first fit went backwards");
        minicheck::prop_assert!(!bits.contains(ff), "first fit picked a forbidden color");
        let rev = bits.reverse_first_fit_from(from);
        if rev >= 0 {
            minicheck::prop_assert!(rev <= from, "reverse fit went forwards");
            minicheck::prop_assert!(!bits.contains(rev), "reverse fit picked forbidden");
        } else {
            // UNCOLORED means every color in [0, from] is forbidden.
            for c in 0..=from {
                minicheck::prop_assert!(bits.contains(c), "reverse fit missed free {c}");
            }
        }
        Ok(())
    });
}
