//! The stamp-marked forbidden-color set.

use crate::Color;

/// A forbidden-color set that is "emptied" in O(1).
///
/// The paper's implementation detail (§III): each thread allocates one
/// array for its forbidden set `F` and never resets it — a monotonically
/// increasing *marker* distinguishes the current net/vertex's entries from
/// stale ones. [`StampSet::advance`] starts a fresh logical set; a color is
/// a member iff its stamp equals the current marker.
///
/// ```
/// use bgpc::StampSet;
/// let mut f = StampSet::with_capacity(8);
/// f.advance();
/// f.insert(0);
/// f.insert(1);
/// assert_eq!(f.first_fit_from(0), 2);
/// f.advance(); // O(1) "reset"
/// assert_eq!(f.first_fit_from(0), 0);
/// ```
pub struct StampSet {
    stamp: Vec<u64>,
    mark: u64,
}

impl StampSet {
    /// Creates a set able to hold colors `0..capacity` without growth.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            stamp: vec![0; capacity],
            // The marker starts at 1 so the zeroed stamps (including
            // resize padding) are always stale: a fresh set is empty.
            mark: 1,
        }
    }

    /// Starts a fresh logical set (O(1); no memory is touched).
    #[inline]
    pub fn advance(&mut self) {
        // u64 markers cannot realistically wrap (2⁶⁴ advances).
        self.mark += 1;
    }

    /// Inserts a color, growing the backing array if needed.
    #[inline]
    pub fn insert(&mut self, color: Color) {
        debug_assert!(color >= 0, "cannot forbid the UNCOLORED sentinel");
        let idx = color as usize;
        if idx >= self.stamp.len() {
            // Doubling keeps growth amortized O(1); colors are bounded by
            // the graph's degree structure so this settles quickly.
            self.stamp.resize((idx + 1).next_power_of_two(), 0);
        }
        self.stamp[idx] = self.mark;
    }

    /// Membership test for the current logical set.
    #[inline]
    pub fn contains(&self, color: Color) -> bool {
        debug_assert!(color >= 0);
        let idx = color as usize;
        idx < self.stamp.len() && self.stamp[idx] == self.mark
    }

    /// Smallest color `≥ from` not in the set (first-fit scan).
    #[inline]
    pub fn first_fit_from(&self, from: Color) -> Color {
        let mut col = from;
        while self.contains(col) {
            col += 1;
        }
        col
    }

    /// Largest color `≤ from` not in the set, or [`crate::UNCOLORED`] if
    /// every color in `0..=from` is forbidden (reverse first-fit scan).
    #[inline]
    pub fn reverse_first_fit_from(&self, from: Color) -> Color {
        let mut col = from;
        while col >= 0 && self.contains(col) {
            col -= 1;
        }
        col
    }

    /// Current capacity (colors storable without growth).
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(3);
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn advance_empties_in_o1() {
        let mut s = StampSet::with_capacity(4);
        s.advance();
        s.insert(0);
        s.insert(1);
        s.advance();
        assert!(!s.contains(0));
        assert!(!s.contains(1));
    }

    #[test]
    fn grows_on_demand() {
        let mut s = StampSet::with_capacity(2);
        s.advance();
        s.insert(100);
        assert!(s.contains(100));
        assert!(s.capacity() >= 101);
        assert!(!s.contains(50));
    }

    #[test]
    fn contains_beyond_capacity_is_false() {
        let s = StampSet::with_capacity(4);
        assert!(!s.contains(1000));
    }

    #[test]
    fn fresh_set_is_empty_before_first_advance() {
        let s = StampSet::with_capacity(4);
        assert!(!s.contains(0));
    }

    #[test]
    fn first_fit_skips_forbidden_prefix() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(0);
        s.insert(1);
        s.insert(3);
        assert_eq!(s.first_fit_from(0), 2);
        assert_eq!(s.first_fit_from(3), 4);
    }

    #[test]
    fn reverse_first_fit_descends() {
        let mut s = StampSet::with_capacity(8);
        s.advance();
        s.insert(4);
        s.insert(3);
        assert_eq!(s.reverse_first_fit_from(4), 2);
        // Everything taken: returns -1.
        s.insert(0);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.reverse_first_fit_from(4), -1);
    }

    #[test]
    fn stale_marks_do_not_leak_across_generations() {
        let mut s = StampSet::with_capacity(4);
        for round in 0..100 {
            s.advance();
            s.insert(round % 4);
            for c in 0..4 {
                assert_eq!(s.contains(c), c == round % 4, "round {round}");
            }
        }
    }
}
