//! Scan kernels for a rule's equality predicates over packed code columns.
//!
//! A rule is a conjunction of `column == code` predicates. The three code
//! widths are those of `sdd_table::Codes` (1/2/4 bytes per row): a resident
//! column's global codes and a spilled column's packed local codes alike
//! are stored at the narrowest width their dictionary fits. One block loop
//! answers both "which rows satisfy every predicate" and "how many". It walks
//! the rows in blocks of 2 048 (32 words). For a batch of rules it first
//! ANDs, once per block, the equality bitmasks of the predicates every rule
//! shares — bit `j` of word `w` is row `64w + j`'s boolean — and skips the
//! block for every rule when they leave no bit set; each rule then ANDs its
//! own predicates into a copy, stopping early once the copy is all zero.
//! Hits are the set bits read from the lowest up, word after word, block
//! after block, so they come out ascending — the same list a row-at-a-time
//! filter produces, whatever the predicate order and whichever predicates
//! were shared (AND is order-free). They reach the caller a block at a time
//! from one reused buffer. A count is the popcount of the same words, and
//! one rule alone is the batch of one. The loop is portable safe Rust
//! that LLVM vectorises, with no dispatch. On a 10⁶-row, 7-column census
//! table (2-vCPU x86-64 host, one thread), a prefetch-shaped batch of seven
//! rules — a one-predicate parent and six children — finds every rule's
//! covered rows in 2.8–3.2 ms against 4.2–5.8 ms for one mask scan per rule
//! into a fresh list per segment, and a root batch — the trivial rule and
//! six one-predicate rules — in 3.7–4.9 ms against 4.9–5.6 ms. A
//! one-predicate count costs 0.11–0.19 / 0.13–0.24 / 0.25–0.36 ms per 10⁶
//! `u8` / `u16` / `u32` codes there.

use sdd_table::Codes;

/// Rows per block of the mask scan: 32 words of 64 rows.
const BLOCK_ROWS: usize = 2048;
const BLOCK_WORDS: usize = BLOCK_ROWS / 64;

/// One equality predicate over the rows of a scan: a column's codes for
/// exactly those rows, in one of the three code widths, and the wanted code.
#[derive(Clone, Copy)]
pub(crate) enum EqPred<'a> {
    U8(&'a [u8], u8),
    U16(&'a [u16], u16),
    U32(&'a [u32], u32),
}

impl<'a> EqPred<'a> {
    /// `codes[rows] == want` at the column's width. `None` when `want` does
    /// not fit that width: every code of the column is below its
    /// dictionary's length, which the width fits, so no row can hold it.
    pub(crate) fn of(codes: &'a Codes, rows: std::ops::Range<usize>, want: u32) -> Option<Self> {
        Some(match codes {
            Codes::W1(v) => EqPred::U8(&v[rows], u8::try_from(want).ok()?),
            Codes::W2(v) => EqPred::U16(&v[rows], u16::try_from(want).ok()?),
            Codes::W4(v) => EqPred::U32(&v[rows], want),
        })
    }

    /// ANDs the predicate's equality mask over `rows` into `acc`, one word
    /// per 64 rows.
    pub(crate) fn and_into(self, rows: std::ops::Range<usize>, acc: &mut [u64]) {
        match self {
            EqPred::U8(codes, want) => and_eq_mask(&codes[rows], want, acc),
            EqPred::U16(codes, want) => and_eq_mask(&codes[rows], want, acc),
            EqPred::U32(codes, want) => and_eq_mask(&codes[rows], want, acc),
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

/// ANDs every predicate's mask over `rows` into `acc`, which enters with a
/// bit set, stopping once it is all zero; returns whether any bit is left.
fn and_all(preds: &[EqPred<'_>], rows: std::ops::Range<usize>, acc: &mut [u64]) -> bool {
    for p in preds {
        p.and_into(rows.clone(), acc);
        if acc.iter().all(|&w| w == 0) {
            return false;
        }
    }
    true
}

/// The one block loop. For every block of rows `0..n` it ANDs the
/// `shared` predicates' masks once; a block they empty is skipped for every
/// rule. Otherwise each rule `r` whose `own[r]` is `Some` gets a copy of
/// that mask with its own predicates ANDed in, and `visit(r, first row,
/// words)` sees it if any bit is left: bit `j` of `words[w]` is set iff row
/// `first + 64w + j` satisfies every shared and every own predicate. Bits
/// past `n` are clear. Blocks come in row order; within a block, rules in
/// index order.
fn for_each_block(
    shared: &[EqPred<'_>],
    own: &[Option<Vec<EqPred<'_>>>],
    n: usize,
    mut visit: impl FnMut(usize, usize, &[u64]),
) {
    let (mut shared_acc, mut acc) = ([0u64; BLOCK_WORDS], [0u64; BLOCK_WORDS]);
    for lo in (0..n).step_by(BLOCK_ROWS) {
        let rows = lo..(lo + BLOCK_ROWS).min(n);
        let words = rows.len().div_ceil(64);
        let shared_acc = &mut shared_acc[..words];
        shared_acc.fill(u64::MAX);
        if rows.len() % 64 != 0 {
            shared_acc[words - 1] = (1 << (rows.len() % 64)) - 1;
        }
        if !and_all(shared, rows.clone(), shared_acc) {
            continue;
        }
        for (r, preds) in own.iter().enumerate() {
            let Some(preds) = preds else { continue };
            let acc = &mut acc[..words];
            acc.copy_from_slice(shared_acc);
            if and_all(preds, rows.clone(), acc) {
                visit(r, lo, acc);
            }
        }
    }
}

/// A batch of rules' hits among rows `0..n`, ids offset by `base`: rule `r`
/// covers the rows that satisfy every `shared` predicate and every one of
/// `own[r]` (none when `own[r]` is `None`). `sink(r, ids)` gets them a
/// block at a time, ascending, from one reused buffer; per rule the blocks
/// arrive in row order and never empty.
pub(crate) fn hits_batch(
    shared: &[EqPred<'_>],
    own: &[Option<Vec<EqPred<'_>>>],
    n: usize,
    base: u32,
    mut sink: impl FnMut(usize, &[u32]),
) {
    let mut buf = [0u32; BLOCK_ROWS];
    for_each_block(shared, own, n, |r, lo, words| {
        let mut len = 0;
        for (w, &word) in words.iter().enumerate() {
            let (first, mut m) = (base + (lo + 64 * w) as u32, word);
            // A full word — the trivial rule, a dense value — is 64 rows in a row.
            if m == u64::MAX {
                for (j, slot) in buf[len..len + 64].iter_mut().enumerate() {
                    *slot = first + j as u32;
                }
                len += 64;
                continue;
            }
            while m != 0 {
                buf[len] = first + m.trailing_zeros();
                len += 1;
                m &= m - 1;
            }
        }
        sink(r, &buf[..len]);
    });
}

/// `base + i` for every row `i` of `0..n` that satisfies every predicate,
/// ascending (every row when there is no predicate): the one-rule batch.
pub(crate) fn hits(preds: &[EqPred<'_>], n: usize, base: u32) -> Vec<u32> {
    let mut out = Vec::new();
    hits_batch(preds, &[Some(Vec::new())], n, base, |_, ids| {
        out.extend_from_slice(ids)
    });
    out
}

/// How many rows of `0..n` satisfy every predicate (all `n` when there is
/// none): the popcount of the block masks.
pub(crate) fn count(preds: &[EqPred<'_>], n: usize) -> u64 {
    let mut total = 0u64;
    for_each_block(preds, &[Some(Vec::new())], n, |_, _, words| {
        total += words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
    });
    total
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
        // 0..64 remainder rows exercise every partial word and every
        // vector tail of the block loop; the longer lengths straddle the
        // block seam.
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
                // Each width's single-predicate count on its own.
                let scalar = [
                    b8.iter().filter(|&&c| u32::from(c) == want).count(),
                    b16.iter().filter(|&&c| u32::from(c) == want).count(),
                    b32.iter().filter(|&&c| c == want).count(),
                ];
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
                    // The same conjunction split between the shared and a
                    // rule's own predicates, beside a rule that covers
                    // nothing and one with no predicate of its own.
                    for split in 0..=k {
                        let own = [None, Some(preds[split..k].to_vec()), Some(Vec::new())];
                        let mut got = vec![Vec::new(); 3];
                        hits_batch(&preds[..split], &own, n, 7, |r, ids| {
                            assert!(!ids.is_empty());
                            got[r].extend_from_slice(ids)
                        });
                        assert!(got[0].is_empty());
                        assert_eq!(got[1], exp, "n={n} want={want} k={k} split={split}");
                        assert_eq!(got[2], hits(&preds[..split], n, 7));
                    }
                }
            }
        }
    }
}
