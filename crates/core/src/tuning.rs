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

/// Neighborhood size (max net size for BGPC, max degree for D2GC) above
/// which the runners prefer the per-color [`crate::StampSet`] over the
/// word-packed [`crate::BitStampSet`]. The greedy bound caps every chosen
/// color by the distance-2 degree, so a vertex's first-fit scan can never
/// probe more colors than its kernels inserted — on giant-net instances
/// the per-edge insert traffic dwarfs any scan savings, and the stamp
/// array's single-store insert wins end to end (see `BENCH_coloring.json`,
/// which records both representations per schedule).
///
/// One definition, three consumers: the BGPC runner dispatch, the D2GC
/// runner dispatch, and [`crate::engine::ForbiddenKind::auto_for`].
pub const DENSE_FORBIDDEN_CUTOFF: usize = 128;

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
    fn forbidden_cutoff_matches_runner_dispatch_boundary() {
        // The degenerate-instance suite exercises real colorings at
        // 128/129; here we pin the constant itself so a drive-by edit
        // cannot silently move the dispatch boundary.
        assert_eq!(DENSE_FORBIDDEN_CUTOFF, 128);
        assert!(crate::engine::ForbiddenKind::auto_for(DENSE_FORBIDDEN_CUTOFF)
            == crate::engine::ForbiddenKind::BitStamp);
        assert!(crate::engine::ForbiddenKind::auto_for(DENSE_FORBIDDEN_CUTOFF + 1)
            == crate::engine::ForbiddenKind::Stamp);
    }

    #[test]
    fn width_cutoff_boundary_u32_max() {
        assert_eq!(U32_MAX_NNZ, u32::MAX as usize);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ - 1), IndexWidth::U32);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ), IndexWidth::U32);
        assert_eq!(IndexWidth::auto_for(U32_MAX_NNZ + 1), IndexWidth::U64);
    }
}
