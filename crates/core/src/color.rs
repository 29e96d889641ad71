//! The shared color array.

use std::sync::atomic::{AtomicI32, Ordering};

/// A color id. Non-negative values are colors; [`UNCOLORED`] (−1) marks an
/// uncolored vertex, exactly as in the paper's pseudocode.
pub type Color = i32;

/// The sentinel for "not yet colored".
pub const UNCOLORED: Color = -1;

/// The concurrently-written color array `c[.]`.
///
/// The optimistic algorithms read and write colors from many threads with
/// no synchronization — by design: stale reads only cause extra conflicts,
/// which the conflict-removal phase repairs. In Rust those racing accesses
/// must still be atomic; `Relaxed` is sufficient because no thread ever
/// derives cross-thread ordering from a color value within a phase, and the
/// pool's fork/join barriers order the phases themselves. On x86-64 a
/// relaxed `AtomicI32` load/store compiles to a plain `mov`, so this costs
/// nothing over the C/OpenMP original.
pub struct Colors {
    slots: Box<[AtomicI32]>,
}

impl Colors {
    /// Creates an array of `n` uncolored slots.
    pub fn new(n: usize) -> Self {
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicI32::new(UNCOLORED));
        Self {
            slots: v.into_boxed_slice(),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reads the color of vertex `u`.
    #[inline]
    pub fn get(&self, u: usize) -> Color {
        self.slots[u].load(Ordering::Relaxed)
    }

    /// Writes the color of vertex `u`.
    #[inline]
    pub fn set(&self, u: usize, c: Color) {
        self.slots[u].store(c, Ordering::Relaxed);
    }

    /// Marks vertex `u` uncolored.
    #[inline]
    pub fn clear(&self, u: usize) {
        self.set(u, UNCOLORED);
    }

    /// Resets every slot to uncolored.
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.store(UNCOLORED, Ordering::Relaxed);
        }
    }

    /// Copies the current colors into a plain vector (call outside parallel
    /// regions).
    pub fn snapshot(&self) -> Vec<Color> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of vertices currently uncolored.
    pub fn count_uncolored(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == UNCOLORED)
            .count()
    }
}

impl std::fmt::Debug for Colors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Colors(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uncolored() {
        let c = Colors::new(5);
        assert_eq!(c.len(), 5);
        assert!((0..5).all(|u| c.get(u) == UNCOLORED));
        assert_eq!(c.count_uncolored(), 5);
    }

    #[test]
    fn set_get_clear() {
        let c = Colors::new(3);
        c.set(1, 7);
        assert_eq!(c.get(1), 7);
        assert_eq!(c.count_uncolored(), 2);
        c.clear(1);
        assert_eq!(c.get(1), UNCOLORED);
    }

    #[test]
    fn snapshot_and_reset() {
        let c = Colors::new(3);
        c.set(0, 1);
        c.set(2, 9);
        assert_eq!(c.snapshot(), vec![1, UNCOLORED, 9]);
        c.reset();
        assert_eq!(c.snapshot(), vec![UNCOLORED; 3]);
    }

    #[test]
    fn concurrent_writes_are_safe() {
        let c = Colors::new(1000);
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for u in 0..1000 {
                        c.set(u, t);
                    }
                });
            }
        });
        // Every slot holds one of the written values.
        for u in 0..1000 {
            assert!((0..4).contains(&c.get(u)));
        }
    }
}
