//! Scan kernels for a rule's equality predicates over packed code columns.
//!
//! A rule is a conjunction of `column == code` predicates. The three code
//! widths match the spill tier's packed local codes (1/2/4 bytes per row,
//! `sdd_table::LocalCodes`); the `u32` form also serves the resident
//! global-code columns. Two kernels answer "which rows satisfy every
//! predicate" and "how many":
//!
//! ## Block masks
//!
//! `hits` and `count` walk the rows in blocks of 2 048 (32 words). For
//! each predicate they build the block's equality bitmask — bit `j` of word
//! `w` is row `64w + j`'s boolean — and AND it into an accumulator, stopping
//! early once the accumulator is all zero. Hits are the set bits read from
//! the lowest up, word after word, block after block, so they come out
//! ascending — the same list a row-at-a-time filter produces, whatever the
//! predicate order (AND is order-free). A count is the popcount of the same
//! words. The mask kernel is portable safe Rust that LLVM vectorises, and
//! it has no dispatch: on a 10⁶-row census table (2-vCPU x86-64 host, one
//! thread) it builds a one-predicate rule's covered rows in 0.64 ms against
//! 2.13 ms for the AVX2 positions kernel it replaced, and those of two to
//! four predicates in 0.64–1.01 ms against 3.5–4.4 ms for
//! positions-then-retain.
//!
//! ## Single-predicate counts
//!
//! [`count_eq_u8`] / [`count_eq_u16`] / [`count_eq_u32`] keep a
//! runtime-dispatched AVX2 body, because for one predicate the AVX2 popcount
//! still measured faster than the mask's (0.19 vs 0.27 ms per 10⁶ `u32`
//! codes on the same host). [`cpu`] probes the host once and caches the
//! answer; the scalar path is always compiled (and is the only path off
//! x86-64), and both return the same count.
//!
//! ## Kill switch
//!
//! Set the `SDD_NO_SIMD` environment variable (to anything but `0`) or call
//! [`set_simd_enabled`]`(false)` to force the scalar single-predicate
//! counts — the CI matrix runs the full parity suites both ways, and
//! benchmarks report [`feature_level`] so speedup claims are tied to the
//! hardware that produced them.

pub mod cpu;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;

pub use cpu::{feature_level, set_simd_enabled, simd_enabled};

/// Rows per block of the mask scan: 32 words of 64 rows.
const BLOCK_ROWS: usize = 2048;

/// One equality predicate over the rows of a scan: a column's codes for
/// exactly those rows, in one of the three code widths, and the wanted code.
#[derive(Clone, Copy)]
pub(crate) enum EqPred<'a> {
    U8(&'a [u8], u8),
    U16(&'a [u16], u16),
    U32(&'a [u32], u32),
}

impl EqPred<'_> {
    /// ANDs the predicate's equality mask over `rows` into `acc`, one word
    /// per 64 rows.
    fn and_into(self, rows: std::ops::Range<usize>, acc: &mut [u64]) {
        match self {
            EqPred::U8(codes, want) => and_eq_mask(&codes[rows], want, acc),
            EqPred::U16(codes, want) => and_eq_mask(&codes[rows], want, acc),
            EqPred::U32(codes, want) => and_eq_mask(&codes[rows], want, acc),
        }
    }

    /// How many rows hold the wanted code.
    fn count(self) -> usize {
        match self {
            EqPred::U8(codes, want) => count_eq_u8(codes, want),
            EqPred::U16(codes, want) => count_eq_u16(codes, want),
            EqPred::U32(codes, want) => count_eq_u32(codes, want),
        }
    }
}

/// `acc[w] &= ` the equality mask of `codes[64w..64w + 64]`; a short last
/// chunk leaves the bits of its missing rows clear.
fn and_eq_mask<T: Copy + PartialEq>(codes: &[T], want: T, acc: &mut [u64]) {
    for (word, chunk) in acc.iter_mut().zip(codes.chunks(64)) {
        let mut bytes = [0u8; 64];
        for (b, &c) in bytes.iter_mut().zip(chunk) {
            *b = u8::from(c == want);
        }
        // Eight 0/1 bytes times this constant land byte `i` on bit `56 + i`
        // with no carry into the top byte.
        let mut mask = 0u64;
        for (k, b) in bytes.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
            mask |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        *word &= mask;
    }
}

/// Hands `visit(first row, words)` every block of rows `0..n` with the AND
/// of all predicates' masks (`preds` non-empty): bit `j` of `words[w]` is
/// set iff row `first + 64w + j` satisfies every predicate. Bits past `n`
/// are clear, since the first mask leaves them so.
fn for_each_block(preds: &[EqPred<'_>], n: usize, mut visit: impl FnMut(usize, &[u64])) {
    let mut acc = [0u64; BLOCK_ROWS / 64];
    for lo in (0..n).step_by(BLOCK_ROWS) {
        let rows = lo..(lo + BLOCK_ROWS).min(n);
        let acc = &mut acc[..rows.len().div_ceil(64)];
        acc.fill(u64::MAX);
        for p in preds {
            p.and_into(rows.clone(), acc);
            if acc.iter().all(|&w| w == 0) {
                break;
            }
        }
        visit(lo, acc);
    }
}

/// `base + i` for every row `i` of `0..n` that satisfies every predicate,
/// ascending (every row when there is no predicate).
pub(crate) fn hits(preds: &[EqPred<'_>], n: usize, base: u32) -> Vec<u32> {
    if preds.is_empty() {
        return (base..base + n as u32).collect();
    }
    let mut out = Vec::new();
    for_each_block(preds, n, |lo, words| {
        for (w, &word) in words.iter().enumerate() {
            let (first, mut m) = (base + (lo + 64 * w) as u32, word);
            while m != 0 {
                out.push(first + m.trailing_zeros());
                m &= m - 1;
            }
        }
    });
    out
}

/// How many rows of `0..n` satisfy every predicate: a single predicate
/// through its count kernel, more through the block masks' popcounts.
pub(crate) fn count(preds: &[EqPred<'_>], n: usize) -> u64 {
    match preds {
        [] => n as u64,
        [p] => p.count() as u64,
        _ => {
            let mut total = 0u64;
            for_each_block(preds, n, |_, words| {
                total += words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
            });
            total
        }
    }
}

/// Counts entries equal to `want`: the single-predicate count, where the
/// AVX2 popcount beats the block mask's (see the module docs).
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
        // 0..64 remainder rows exercise every partial word and every
        // partial-vector tail of the count kernels (32/16/8 lanes); the
        // longer lengths straddle the block seam.
        let mut rng = lcg(42);
        for n in (0..64).chain([128, 255, 1000, BLOCK_ROWS - 1, BLOCK_ROWS + 65]) {
            let b8: Vec<u8> = (0..n).map(|_| (rng() % 3) as u8).collect();
            let b16: Vec<u16> = (0..n).map(|_| (rng() % 3) as u16).collect();
            let b32: Vec<u32> = (0..n).map(|_| (rng() % 3) as u32).collect();
            for want in 0..3u32 {
                let preds = [
                    EqPred::U8(&b8, want as u8),
                    EqPred::U16(&b16, want as u16),
                    EqPred::U32(&b32, want),
                ];
                // Each width's single-predicate count kernel on its own.
                let scalar = [
                    b8.iter().filter(|&&c| u32::from(c) == want).count(),
                    b16.iter().filter(|&&c| u32::from(c) == want).count(),
                    b32.iter().filter(|&&c| c == want).count(),
                ];
                assert_eq!(
                    [
                        count_eq_u8(&b8, want as u8),
                        count_eq_u16(&b16, want as u16),
                        count_eq_u32(&b32, want),
                    ],
                    scalar,
                    "n={n} want={want}"
                );
                for (p, &exp) in preds.iter().zip(&scalar) {
                    assert_eq!(count(&[*p], n), exp as u64, "n={n} want={want}");
                    assert_eq!(hits(&[*p], n, 0).len(), exp, "n={n} want={want}");
                }
                for k in 0..=preds.len() {
                    let exp: Vec<u32> = (0..n)
                        .filter(|&i| {
                            [b8[i] as u32, b16[i] as u32, b32[i]][..k]
                                .iter()
                                .all(|&c| c == want)
                        })
                        .map(|i| 7 + i as u32)
                        .collect();
                    assert_eq!(hits(&preds[..k], n, 7), exp, "n={n} want={want} k={k}");
                    assert_eq!(count(&preds[..k], n), exp.len() as u64);
                }
            }
        }
    }

    #[test]
    fn feature_level_is_reported() {
        let level = feature_level();
        assert!(level == "avx2" || level == "scalar", "level {level:?}");
    }
}
