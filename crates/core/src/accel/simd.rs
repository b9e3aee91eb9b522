//! AVX2 equality-count kernels (x86-64 only).
//!
//! Each kernel compares a full vector of codes per iteration, extracts the
//! lane-equality mask with `movemask` and `popcnt`s it. Remainder rows fall
//! through to the scalar tail.
//!
//! Safety: every function here is `#[target_feature(enable = "avx2")]` and
//! must only be called after runtime detection (`super::cpu::avx2()`).
//! Loads are unaligned (`loadu`), so no alignment obligations exist; all
//! indexing stays within the slice bounds by construction of the chunked
//! loops.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

/// AVX2 body of [`super::count_eq_u8`].
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn count_eq_u8_avx2(codes: &[u8], want: u8) -> usize {
    const LANES: usize = 32;
    let needle = _mm256_set1_epi8(want as i8);
    let chunks = codes.len() / LANES;
    let mut n = 0usize;
    for ci in 0..chunks {
        // SAFETY: `ci * LANES + LANES <= codes.len()`.
        let v = _mm256_loadu_si256(codes.as_ptr().add(ci * LANES) as *const __m256i);
        let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)) as u32;
        n += m.count_ones() as usize;
    }
    n + codes[chunks * LANES..]
        .iter()
        .filter(|&&c| c == want)
        .count()
}

/// AVX2 body of [`super::count_eq_u16`].
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn count_eq_u16_avx2(codes: &[u16], want: u16) -> usize {
    const LANES: usize = 16;
    let needle = _mm256_set1_epi16(want as i16);
    let chunks = codes.len() / LANES;
    let mut n = 0usize;
    for ci in 0..chunks {
        // SAFETY: `ci * LANES + LANES <= codes.len()`.
        let v = _mm256_loadu_si256(codes.as_ptr().add(ci * LANES) as *const __m256i);
        // Two mask bits per matching 16-bit lane.
        let m = _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, needle)) as u32;
        n += (m.count_ones() / 2) as usize;
    }
    n + codes[chunks * LANES..]
        .iter()
        .filter(|&&c| c == want)
        .count()
}

/// AVX2 body of [`super::count_eq_u32`].
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn count_eq_u32_avx2(codes: &[u32], want: u32) -> usize {
    const LANES: usize = 8;
    let needle = _mm256_set1_epi32(want as i32);
    let chunks = codes.len() / LANES;
    let mut n = 0usize;
    for ci in 0..chunks {
        // SAFETY: `ci * LANES + LANES <= codes.len()`.
        let v = _mm256_loadu_si256(codes.as_ptr().add(ci * LANES) as *const __m256i);
        let eq = _mm256_cmpeq_epi32(v, needle);
        let m = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
        n += m.count_ones() as usize;
    }
    n + codes[chunks * LANES..]
        .iter()
        .filter(|&&c| c == want)
        .count()
}
