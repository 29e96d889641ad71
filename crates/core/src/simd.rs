//! Host ISA stamp for benchmark records.
//!
//! The coloring kernels are the scalar first-fit loops of
//! [`crate::forbidden`], [`crate::vertex`], [`crate::net`] and
//! [`crate::d2gc`]; there is no vector tier. This module only reports
//! which vector extensions the host has, so `BENCH_*.json` runs stay
//! comparable across machines.

/// Comma-separated ISA feature string stamped into `BENCH_*.json`:
/// `"sse2,avx2"`, `"sse2"`, or `"scalar"` off x86-64.
pub fn isa_features() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is architecturally guaranteed on x86-64.
        if std::arch::is_x86_feature_detected!("avx2") {
            "sse2,avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_string_is_a_known_stamp() {
        assert!(["sse2,avx2", "sse2", "scalar"].contains(&isa_features()));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(isa_features(), "scalar");
    }
}
