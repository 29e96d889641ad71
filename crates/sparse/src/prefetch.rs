//! Software prefetch hints for the irregular CSR gathers.
//!
//! The coloring kernels walk adjacency rows whose addresses are
//! data-dependent (the next work item's row is unknown to the hardware
//! prefetcher), so the kernels issue explicit hints a few items ahead.
//! On x86-64 this lowers to `prefetcht0`; on other targets it compiles
//! to nothing — the hint is purely advisory and never changes semantics.

/// Hints that `slice[idx]` will be read soon. Out-of-range indices are
/// ignored (a hint for a live allocation's one-past-end would be harmless,
/// but bounding keeps the call trivially safe).
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if idx < slice.len() {
            // SAFETY: idx is in bounds, so the pointer is within the
            // allocation; prefetch has no observable effect besides cache
            // state regardless.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    slice.as_ptr().add(idx) as *const i8,
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_never_faults() {
        let data = vec![1u32, 2, 3];
        for i in 0..8 {
            prefetch_read(&data, i);
        }
        prefetch_read::<u64>(&[], 0);
    }
}
