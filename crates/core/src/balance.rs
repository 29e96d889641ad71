//! Costless color-balancing heuristics B1 and B2 (paper §V).
//!
//! First-fit concentrates vertices in the small color ids, leaving
//! thousands of near-empty color sets. The paper's two online heuristics
//! spread colors across `[0, colmax]` using only thread-private state — no
//! shared cardinality counters, hence "costless":
//!
//! * **B1** (Algorithm 11): alternate per vertex parity between a reverse
//!   first-fit from the thread's `colmax` and a plain first-fit from 0,
//!   extending the interval only when forced. Aims to keep the color count
//!   unchanged.
//! * **B2** (Algorithm 12): a rotating `colnext` cursor advances one color
//!   per vertex, with a floor of `colmax/3 + 1` to aggressively favor the
//!   upper part of the interval — better balance, ~10% more colors.

use crate::{Color, StampSet};

/// Which balancing heuristic (if any) the coloring phase applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balance {
    /// Plain first-fit (the paper's `-U` rows).
    Unbalanced,
    /// Algorithm 11 — parity-alternating, color-count-preserving.
    B1,
    /// Algorithm 12 — rotating cursor, aggressive balancing.
    B2,
}

impl Balance {
    /// Paper-style suffix for result labels.
    pub fn label(&self) -> &'static str {
        match self {
            Balance::Unbalanced => "U",
            Balance::B1 => "B1",
            Balance::B2 => "B2",
        }
    }
}

/// Thread-private balancer cursors. One per team thread, persisted across
/// the whole coloring run (the heuristics are *online*: their state spans
/// iterations).
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancerState {
    /// Largest color this thread has used (`colmax`).
    pub colmax: Color,
    /// B2's rotating start cursor (`colnext`).
    pub colnext: Color,
}

impl BalancerState {
    /// Resets both cursors to the fresh-run state.
    ///
    /// The cursors are *per run*, not per thread lifetime: a `colmax`
    /// carried over from a previous coloring of a different graph skews
    /// B1's reverse-fit interval and B2's rotation floor, making
    /// back-to-back `color()` calls on a reused
    /// [`crate::ctx::ThreadCtx`] non-reproducible. Call this (or
    /// [`crate::ctx::ThreadCtx::reset_for_run`]) before every run that
    /// reuses a workspace.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl Balance {
    /// Chooses a color for entity `id` (vertex or net — B1 alternates on
    /// its parity) given the forbidden set `F`, updating the thread state.
    ///
    /// The returned color is never in `F` and never negative.
    #[inline]
    pub fn pick(&self, id: u32, fb: &StampSet, st: &mut BalancerState) -> Color {
        let col = match self {
            Balance::Unbalanced => fb.first_fit_from(0),
            Balance::B1 => {
                // Alg. 11: even ids search downward from colmax; if the
                // whole interval is forbidden, extend it past colmax.
                if id.is_multiple_of(2) {
                    let down = fb.reverse_first_fit_from(st.colmax);
                    if down >= 0 {
                        down
                    } else {
                        fb.first_fit_from(st.colmax + 1)
                    }
                } else {
                    fb.first_fit_from(0)
                }
            }
            Balance::B2 => {
                // Alg. 12: rotate the start cursor; restart from 0 when the
                // pick would grow the interval.
                let up = fb.first_fit_from(st.colnext);
                if up > st.colmax {
                    fb.first_fit_from(0)
                } else {
                    up
                }
            }
        };
        st.colmax = st.colmax.max(col);
        if matches!(self, Balance::B2) {
            st.colnext = (col + 1).min(st.colmax / 3 + 1);
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb_with(colors: &[Color]) -> StampSet {
        let mut fb = StampSet::with_capacity(16);
        fb.advance();
        for &c in colors {
            fb.insert(c);
        }
        fb
    }

    #[test]
    fn unbalanced_is_first_fit() {
        let fb = fb_with(&[0, 1, 3]);
        let mut st = BalancerState::default();
        assert_eq!(Balance::Unbalanced.pick(0, &fb, &mut st), 2);
        assert_eq!(st.colmax, 2);
    }

    #[test]
    fn b1_even_ids_search_downward() {
        let fb = fb_with(&[4]);
        let mut st = BalancerState { colmax: 4, colnext: 0 };
        // even id: reverse from colmax=4, 4 forbidden -> 3
        assert_eq!(Balance::B1.pick(2, &fb, &mut st), 3);
        // odd id: plain first-fit -> 0
        assert_eq!(Balance::B1.pick(3, &fb, &mut st), 0);
    }

    #[test]
    fn b1_extends_interval_when_exhausted() {
        // Everything in [0, colmax] forbidden.
        let fb = fb_with(&[0, 1, 2]);
        let mut st = BalancerState { colmax: 2, colnext: 0 };
        let col = Balance::B1.pick(0, &fb, &mut st);
        assert_eq!(col, 3, "must extend past colmax");
        assert_eq!(st.colmax, 3);
    }

    #[test]
    fn b1_never_negative() {
        let fb = fb_with(&[]);
        let mut st = BalancerState::default();
        let col = Balance::B1.pick(0, &fb, &mut st);
        assert_eq!(col, 0);
    }

    #[test]
    fn b2_rotates_cursor() {
        let fb = fb_with(&[]);
        let mut st = BalancerState { colmax: 9, colnext: 5 };
        let col = Balance::B2.pick(0, &fb, &mut st);
        assert_eq!(col, 5);
        // colnext = min(6, 9/3 + 1 = 4) = 4
        assert_eq!(st.colnext, 4);
        let col = Balance::B2.pick(1, &fb, &mut st);
        assert_eq!(col, 4);
    }

    #[test]
    fn b2_restarts_from_zero_rather_than_growing() {
        let fb = fb_with(&[3]);
        let mut st = BalancerState { colmax: 3, colnext: 3 };
        // first-fit from 3 gives 4 > colmax, so restart at 0.
        let col = Balance::B2.pick(0, &fb, &mut st);
        assert_eq!(col, 0);
        assert_eq!(st.colmax, 3);
    }

    #[test]
    fn b2_grows_interval_when_everything_forbidden() {
        let fb = fb_with(&[0, 1, 2, 3]);
        let mut st = BalancerState { colmax: 3, colnext: 1 };
        let col = Balance::B2.pick(0, &fb, &mut st);
        // restart from 0 still lands past colmax; Alg. 12 accepts it.
        assert_eq!(col, 4);
        assert_eq!(st.colmax, 4);
    }

    #[test]
    fn labels() {
        assert_eq!(Balance::Unbalanced.label(), "U");
        assert_eq!(Balance::B1.label(), "B1");
        assert_eq!(Balance::B2.label(), "B2");
    }
}
