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
//! A one-predicate count skips the masks: `count_eq_u8` / `count_eq_u16` /
//! `count_eq_u32` add `x == want` into an accumulator as wide as the
//! code, over chunks short enough that it cannot overflow, which LLVM
//! vectorises at the baseline target with no dispatch. Per 10⁶ codes on
//! the same host that is 0.035 / 0.055 / 0.16 ms for `u8` / `u16` / `u32`
//! — faster than both the one-predicate mask popcount (0.11–0.19 /
//! 0.13–0.24 / 0.25–0.36 ms) and the AVX2 kernel it replaced.

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

/// Counts entries equal to `want`, summing a `T` accumulator per chunk of
/// at most `chunk` entries (so `chunk` must fit in `T`): a lane as wide as
/// the code, which LLVM vectorises as compare-and-add.
fn count_eq<T>(codes: &[T], want: T, chunk: usize) -> usize
where
    T: Copy + PartialEq + From<bool> + std::ops::Add<Output = T> + Into<u64>,
{
    let in_chunk = |c: &[T]| {
        c.iter()
            .fold(T::from(false), |n, &x| n + T::from(x == want))
    };
    codes
        .chunks(chunk)
        .map(|c| in_chunk(c).into() as usize)
        .sum()
}

/// Counts entries equal to `want`, 255 per `u8` accumulator.
pub(crate) fn count_eq_u8(codes: &[u8], want: u8) -> usize {
    count_eq(codes, want, u8::MAX.into())
}

/// Counts entries equal to `want`, 65 535 per `u16` accumulator.
pub(crate) fn count_eq_u16(codes: &[u16], want: u16) -> usize {
    count_eq(codes, want, u16::MAX.into())
}

/// Counts entries equal to `want`, 2²⁰ per `u32` accumulator.
pub(crate) fn count_eq_u32(codes: &[u32], want: u32) -> usize {
    count_eq(codes, want, 1 << 20)
}

/// Does nothing: every host runs the same count code. Kept only because
/// the repository benchmark still calls it; delete it with ROADMAP item
/// 1(d), once the benchmark stops.
pub fn set_simd_enabled(_enabled: bool) {}

/// Always `"portable"`: there is one count code and no dispatch. Kept only
/// because the repository benchmark still records it; delete it with
/// ROADMAP item 1(d), once the benchmark stops.
pub fn feature_level() -> &'static str {
    "portable"
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
        // An all-equal slice fills a chunk's narrow accumulator to the brim;
        // one past a seam wraps it (or, with debug assertions, panics) if
        // the chunk is a row too long.
        for n in [254, 255, 256, 511] {
            let all = vec![5u8; n];
            let alt: Vec<u8> = (0..n).map(|i| 5 * (i % 2) as u8).collect();
            for codes in [all, alt] {
                let exp = codes.iter().filter(|&&c| c == 5).count();
                assert_eq!(count_eq_u8(&codes, 5), exp, "u8 n={n}");
            }
        }
        for n in [65_535, 65_536, 65_537] {
            let all = vec![5u16; n];
            let alt: Vec<u16> = (0..n).map(|i| 5 * (i % 2) as u16).collect();
            for codes in [all, alt] {
                let exp = codes.iter().filter(|&&c| c == 5).count();
                assert_eq!(count_eq_u16(&codes, 5), exp, "u16 n={n}");
            }
        }
        assert_eq!(count_eq_u32(&vec![5; (1 << 20) + 1], 5), (1 << 20) + 1);

        // 0..64 remainder rows exercise every partial word and every
        // vector tail of the count kernels; the longer lengths straddle
        // the block seam.
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
}
