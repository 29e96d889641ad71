//! Tunable kernel constants, collected so the autotuning engine
//! ([`crate::engine`]) has one place to sweep.
//!
//! Everything here is a *hint* knob: changing a value may shift
//! performance but never changes any coloring result — the property that
//! lets an autotuner explore them freely.

/// How many queue positions ahead the gather loops hint the cache about
/// the next vertex's adjacency row. The queue entries are random vertex
/// ids, so without the hint every `nets(w)` access is a cold indirect
/// load; four items covers the gather latency without thrashing L1.
pub const PREFETCH_AHEAD: usize = 4;

/// Largest nonzero count a `u32` row pointer can address — re-exported
/// from [`sparse::csr`] (the definition must live downstream of `sparse`
/// since `IndexWidth::auto_for` uses it) so the engine's width guard and
/// the legacy heuristic provably share one cutoff.
pub use sparse::csr::U32_MAX_NNZ;

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::IndexWidth;

    #[test]
    fn width_cutoff_boundary_u32_max() {
        assert_eq!(U32_MAX_NNZ, u32::MAX as usize);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ - 1), IndexWidth::U32);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ), IndexWidth::U32);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ + 1), IndexWidth::U64);
    }
}
