//! Property test: [`bgpc::StampSet`] agrees with a naive reference set
//! under every operation sequence.
//!
//! The reference is a `Vec<bool>` membership array that is rebuilt from
//! scratch on every `advance` — the obvious O(capacity) reset the stamp
//! protocol exists to avoid. A random interleaving of `advance` /
//! `insert` / `contains` / `first_fit_from` / `reverse_first_fit_from`
//! must produce identical answers from both, including across marker
//! generations (stale stamps) and on-demand growth.

use bgpc::{Color, StampSet, UNCOLORED};
use minicheck::{check, prop_assert};

/// Colors reach past the initial capacity so growth paths are exercised.
const MAX_COLOR: u32 = 300;

/// The executable specification: one flag per color, cleared eagerly.
#[derive(Default)]
struct Model {
    member: Vec<bool>,
}

impl Model {
    fn advance(&mut self) {
        self.member = Vec::new();
    }

    fn insert(&mut self, c: Color) {
        let idx = c as usize;
        if idx >= self.member.len() {
            self.member.resize(idx + 1, false);
        }
        self.member[idx] = true;
    }

    fn contains(&self, c: Color) -> bool {
        self.member.get(c as usize).copied().unwrap_or(false)
    }

    fn first_fit_from(&self, from: Color) -> Color {
        (from..).find(|&c| !self.contains(c)).unwrap()
    }

    fn reverse_first_fit_from(&self, from: Color) -> Color {
        (0..=from)
            .rev()
            .find(|&c| !self.contains(c))
            .unwrap_or(UNCOLORED)
    }
}

#[test]
fn stamp_set_matches_naive_model_on_random_op_sequences() {
    check("forbidden_set_model", 256, |g| {
        let mut set = StampSet::with_capacity(g.usize_in(1..80));
        let mut model = Model::default();
        let ops = g.usize_in(1..120);
        for step in 0..ops {
            match g.usize_in(0..5) {
                0 => {
                    set.advance();
                    model.advance();
                }
                1 => {
                    let c = g.u32_in(0..MAX_COLOR) as i32;
                    set.insert(c);
                    model.insert(c);
                }
                2 => {
                    let c = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        set.contains(c) == model.contains(c),
                        "contains({c}) diverged at step {step}"
                    );
                }
                3 => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32;
                    prop_assert!(
                        set.first_fit_from(from) == model.first_fit_from(from),
                        "first_fit_from({from}) diverged at step {step}: set {}, model {}",
                        set.first_fit_from(from),
                        model.first_fit_from(from)
                    );
                }
                _ => {
                    let from = g.u32_in(0..MAX_COLOR + 64) as i32 - 1;
                    prop_assert!(
                        set.reverse_first_fit_from(from) == model.reverse_first_fit_from(from),
                        "reverse_first_fit_from({from}) diverged at step {step}: set {}, model {}",
                        set.reverse_first_fit_from(from),
                        model.reverse_first_fit_from(from)
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn stamp_set_matches_naive_model_on_dense_prefixes() {
    // Deterministic battery: prefixes 0..n fully forbidden for n around
    // every power-of-two capacity the set grows through from a one-color
    // start. The random-op test above rarely saturates long prefixes, so
    // the long scans are pinned here.
    for n in [63usize, 64, 65, 127, 128, 129, 255, 256, 257, 320] {
        let mut set = StampSet::with_capacity(1);
        let mut model = Model::default();
        set.advance();
        for c in 0..n as i32 {
            set.insert(c);
            model.insert(c);
        }
        assert_eq!(set.first_fit_from(0), n as i32, "dense prefix {n}");
        for from in 0..=(n as i32 + 1) {
            assert_eq!(
                set.first_fit_from(from),
                model.first_fit_from(from),
                "first_fit_from: dense prefix {n}, from {from}"
            );
            assert_eq!(
                set.reverse_first_fit_from(from),
                model.reverse_first_fit_from(from),
                "reverse_first_fit_from: dense prefix {n}, from {from}"
            );
        }
    }
}

#[test]
fn first_fit_results_are_never_forbidden() {
    check("first_fit_soundness", 256, |g| {
        let mut set = StampSet::with_capacity(g.usize_in(1..64));
        set.advance();
        let inserts = g.usize_in(0..90);
        for _ in 0..inserts {
            set.insert(g.u32_in(0..MAX_COLOR) as i32);
        }
        let from = g.u32_in(0..MAX_COLOR) as i32;
        let ff = set.first_fit_from(from);
        prop_assert!(ff >= from, "first fit went backwards");
        prop_assert!(!set.contains(ff), "first fit picked a forbidden color");
        let rev = set.reverse_first_fit_from(from);
        if rev >= 0 {
            prop_assert!(rev <= from, "reverse fit went forwards");
            prop_assert!(!set.contains(rev), "reverse fit picked forbidden");
        } else {
            // UNCOLORED means every color in [0, from] is forbidden.
            for c in 0..=from {
                prop_assert!(set.contains(c), "reverse fit missed free {c}");
            }
        }
        Ok(())
    });
}
