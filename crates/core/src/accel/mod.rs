//! Runtime-dispatched SIMD kernels for the hot equality-scan inner loops.
//!
//! Every scan shape the drill-down kernels run — "which rows have code `w`
//! in this column" ([`positions_eq_u8`] / [`positions_eq_u16`] /
//! [`positions_eq_u32`]) and "how many rows have code `w`" ([`count_eq_u8`]
//! / [`count_eq_u16`] / [`count_eq_u32`]) — is a branch-predictable
//! equality compare over a packed code slice. The three widths match the
//! spill tier's packed local codes (1/2/4 bytes per row,
//! `sdd_table::LocalCodes`); the `u32` form also serves the resident
//! global-code columns.
//!
//! ## Dispatch
//!
//! [`cpu`] probes the host once (`is_x86_feature_detected!("avx2")`) and
//! caches the answer; every public function here branches on that cached
//! level and calls either the `#[target_feature(enable = "avx2")]` kernel
//! in `simd` or the scalar fallback. The scalar path is always compiled
//! (and is the only path off x86-64), so results never depend on the host:
//! the SIMD kernels produce **identical output** to the scalar loops — the
//! same positions in the same order, the same counts — which the parity
//! suite asserts for adversarial tail lengths.
//!
//! ## Kill switch
//!
//! Set the `SDD_NO_SIMD` environment variable (to anything but `0`) or call
//! [`set_simd_enabled`]`(false)` to force the scalar path — the CI matrix
//! runs the full parity suites both ways, and benchmarks report
//! [`feature_level`] so speedup claims are tied to the hardware that
//! produced them.

pub mod cpu;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

pub use cpu::{feature_level, set_simd_enabled, simd_enabled};

/// Appends `base + i` to `out` for every `i` with `codes[i] == want`.
///
/// Positions are appended in strictly increasing order — exactly the order
/// the scalar loop produces.
#[inline]
pub fn positions_eq_u8(codes: &[u8], want: u8, base: u32, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        unsafe { simd::positions_eq_u8_avx2(codes, want, base, out) };
        return;
    }
    positions_eq_u8_scalar(codes, want, base, out);
}

/// Scalar reference for [`positions_eq_u8`]; always available.
pub fn positions_eq_u8_scalar(codes: &[u8], want: u8, base: u32, out: &mut Vec<u32>) {
    for (i, &c) in codes.iter().enumerate() {
        if c == want {
            out.push(base + i as u32);
        }
    }
}

/// Appends `base + i` to `out` for every `i` with `codes[i] == want`.
#[inline]
pub fn positions_eq_u16(codes: &[u16], want: u16, base: u32, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        unsafe { simd::positions_eq_u16_avx2(codes, want, base, out) };
        return;
    }
    positions_eq_u16_scalar(codes, want, base, out);
}

/// Scalar reference for [`positions_eq_u16`]; always available.
pub fn positions_eq_u16_scalar(codes: &[u16], want: u16, base: u32, out: &mut Vec<u32>) {
    for (i, &c) in codes.iter().enumerate() {
        if c == want {
            out.push(base + i as u32);
        }
    }
}

/// Appends `base + i` to `out` for every `i` with `codes[i] == want`.
#[inline]
pub fn positions_eq_u32(codes: &[u32], want: u32, base: u32, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        unsafe { simd::positions_eq_u32_avx2(codes, want, base, out) };
        return;
    }
    positions_eq_u32_scalar(codes, want, base, out);
}

/// Scalar reference for [`positions_eq_u32`]; always available.
pub fn positions_eq_u32_scalar(codes: &[u32], want: u32, base: u32, out: &mut Vec<u32>) {
    for (i, &c) in codes.iter().enumerate() {
        if c == want {
            out.push(base + i as u32);
        }
    }
}

/// Counts entries equal to `want`.
#[inline]
pub fn count_eq_u8(codes: &[u8], want: u8) -> usize {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        return unsafe { simd::count_eq_u8_avx2(codes, want) };
    }
    codes.iter().filter(|&&c| c == want).count()
}

/// Counts entries equal to `want`.
#[inline]
pub fn count_eq_u16(codes: &[u16], want: u16) -> usize {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        return unsafe { simd::count_eq_u16_avx2(codes, want) };
    }
    codes.iter().filter(|&&c| c == want).count()
}

/// Counts entries equal to `want`.
#[inline]
pub fn count_eq_u32(codes: &[u32], want: u32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if cpu::avx2() {
        // SAFETY: `cpu::avx2()` verified AVX2 support on this host.
        return unsafe { simd::count_eq_u32_avx2(codes, want) };
    }
    codes.iter().filter(|&&c| c == want).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random byte stream (no external RNG dep).
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn dispatch_matches_scalar_on_all_tail_lengths() {
        // 0..64 remainder rows exercises every partial-vector tail for all
        // three widths (32/16/8 lanes).
        let mut rng = lcg(42);
        for n in (0..64).chain([128, 255, 1000]) {
            let b8: Vec<u8> = (0..n).map(|_| (rng() % 5) as u8).collect();
            let b16: Vec<u16> = (0..n).map(|_| (rng() % 5) as u16).collect();
            let b32: Vec<u32> = (0..n).map(|_| (rng() % 5) as u32).collect();
            for want in 0..5u32 {
                let (mut got, mut exp) = (Vec::new(), Vec::new());
                positions_eq_u8(&b8, want as u8, 7, &mut got);
                positions_eq_u8_scalar(&b8, want as u8, 7, &mut exp);
                assert_eq!(got, exp, "u8 n={n} want={want}");
                assert_eq!(count_eq_u8(&b8, want as u8), exp.len());

                let (mut got, mut exp) = (Vec::new(), Vec::new());
                positions_eq_u16(&b16, want as u16, 7, &mut got);
                positions_eq_u16_scalar(&b16, want as u16, 7, &mut exp);
                assert_eq!(got, exp, "u16 n={n} want={want}");
                assert_eq!(count_eq_u16(&b16, want as u16), exp.len());

                let (mut got, mut exp) = (Vec::new(), Vec::new());
                positions_eq_u32(&b32, want, 7, &mut got);
                positions_eq_u32_scalar(&b32, want, 7, &mut exp);
                assert_eq!(got, exp, "u32 n={n} want={want}");
                assert_eq!(count_eq_u32(&b32, want), exp.len());
            }
        }
    }

    #[test]
    fn feature_level_is_reported() {
        let level = feature_level();
        assert!(level == "avx2" || level == "scalar", "level {level:?}");
    }
}
