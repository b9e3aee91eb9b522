//! Canonical, NaN-safe cache keys for drill-down/BRS results.
//!
//! A shared result cache is only sound if two searches that must produce
//! bit-identical results derive the *same* key, and two searches that may
//! differ derive *different* keys. This module centralizes the key
//! derivation so every hazard is handled in exactly one place:
//!
//! * **Floats key by bits, never by `==`.** `f64` equality collapses
//!   `-0.0 == 0.0` (two inputs the search treats identically today but a
//!   weight function may not) and rejects `NaN == NaN` (one logical value
//!   with 2^52 payloads). [`canonical_f64_bits`] maps every NaN to one
//!   canonical payload and everything else — including `-0.0` vs `0.0`,
//!   which stay **distinct** — to its IEEE-754 bit pattern.
//! * **`base: Option<Rule>` normalizes.** A search with no base and a
//!   search based on the trivial (all-`?`) rule filter the same tuples and
//!   return the same rules; [`KeyHasher::write_base`] folds both spellings
//!   to the trivial rule.
//! * **The view is keyed by content, not identity.** Sample views are pure
//!   functions of `(store, seed, rule, history)`, so sessions replaying the
//!   same drill path produce byte-identical views; digesting row codes and
//!   weight bits makes those collide exactly and makes any divergence a
//!   safe miss.
//!
//! Keys are 128-bit digests ([`DrillKey`]); equality of digests is treated
//! as equality of inputs. Keys are two-lane SplitMix64 folds ([`view_digest`]
//! folds four) — deterministic across platforms and processes, with no
//! unspecified iteration order anywhere (lint rule D001 applies here).

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::Rule;
use sdd_table::{with_codes, Code, TableView};

/// The canonical quiet-NaN bit pattern every NaN payload collapses to.
pub const CANONICAL_NAN_BITS: u64 = 0x7FF8_0000_0000_0000;

/// The IEEE-754 bits of `x` with every NaN payload collapsed to
/// [`CANONICAL_NAN_BITS`]. `-0.0` and `0.0` keep their distinct patterns:
/// distinct keys are always safe (worst case a duplicate cache entry),
/// while collapsing them would be wrong for any weight function that
/// distinguishes signed zero.
#[inline]
pub fn canonical_f64_bits(x: f64) -> u64 {
    if x.is_nan() {
        CANONICAL_NAN_BITS
    } else {
        x.to_bits()
    }
}

/// A 128-bit cache key. Digest equality is treated as input equality
/// (collisions are vanishingly unlikely at 2^-64 per pair; the cache-parity
/// suites additionally verify hits bit-for-bit against recomputation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DrillKey(pub [u64; 2]);

/// A deterministic two-lane 128-bit folding hasher.
///
/// Each written word is absorbed into two independently-seeded SplitMix64
/// lanes; the lanes never interact, so the construction is a fixed function
/// of the written word sequence — stable across platforms, processes, and
/// compiler versions (no pointer, time, or layout inputs).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    lo: u64,
    hi: u64,
}

/// One round of the SplitMix64 mixing function: the workspace's stateless
/// deterministic mixer (cache keys here; reservoir draws and per-rule seeds
/// in `sdd-sampling`).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl KeyHasher {
    /// A hasher seeded with `domain`, a tag separating unrelated key
    /// spaces (e.g. rule drill-down vs star drill-down).
    pub fn new(domain: u64) -> Self {
        Self {
            lo: splitmix64(domain ^ 0x5DD_CAC8E),
            hi: splitmix64(domain ^ 0xD16E_57D1_11D0),
        }
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.lo = splitmix64(self.lo ^ v);
        self.hi = splitmix64(self.hi ^ v.rotate_left(17));
    }

    /// Absorbs an `f64` by its canonical bits (see [`canonical_f64_bits`]).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(canonical_f64_bits(v));
    }

    /// Absorbs a byte string, length-prefixed so concatenations cannot
    /// collide (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Absorbs a rule: column count then per-column codes (the `?` sentinel
    /// is a code like any other, so star patterns key canonically).
    pub fn write_rule(&mut self, rule: &Rule) {
        self.write_u64(rule.codes().len() as u64);
        for &code in rule.codes() {
            self.write_u64(u64::from(code));
        }
    }

    /// Absorbs an optional base rule, normalized: `None` and
    /// `Some(trivial)` key identically (both mean "no filter").
    pub fn write_base(&mut self, base: Option<&Rule>, n_columns: usize) {
        match base {
            Some(rule) => self.write_rule(rule),
            None => self.write_rule(&Rule::trivial(n_columns)),
        }
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> [u64; 2] {
        // One finalization round per lane so short inputs still diffuse.
        [splitmix64(self.lo), splitmix64(self.hi)]
    }
}

/// Content digest of a view: codes column by column (widened to `u32`, two
/// per word), weight bits (canonical), length and column count. Word `i` of
/// a column or of the weights goes to SplitMix64 lane `i % 4`, and
/// [`KeyHasher`] folds the four independent lanes. Two views digesting
/// equal are bit-identical BRS inputs; comparing by content (not identity)
/// is what lets replica sessions share results.
pub fn view_digest(view: &TableView<'_>) -> [u64; 2] {
    /// Absorbs `words` round-robin into the lanes, from lane 0.
    fn absorb(lanes: &mut [u64; 4], words: impl Iterator<Item = u64>) {
        for (i, word) in words.enumerate() {
            lanes[i % 4] = splitmix64(lanes[i % 4] ^ word);
        }
    }
    /// One or two codes, widened, as one word.
    fn pack<T: Code>(pair: &[T]) -> u64 {
        let hi = pair.get(1).map_or(0, |c| u64::from(c.wide()) << 32);
        hi | u64::from(pair[0].wide())
    }
    let table = view.table();
    let mut lanes = [0u64, 1, 2, 3].map(|i| splitmix64(0x51DD_71E3 ^ i));
    for c in 0..table.n_columns() {
        with_codes!(table.column(c), v => absorb(&mut lanes, v.chunks(2).map(pack)));
    }
    let weights = (0..view.len()).map(|i| canonical_f64_bits(view.weight_at(i)));
    absorb(&mut lanes, weights);
    let mut h = KeyHasher::new(0x51DD_71E3);
    h.write_u64(view.len() as u64);
    h.write_u64(table.n_columns() as u64);
    for lane in lanes {
        h.write_u64(lane);
    }
    h.finish()
}

/// The full key of one drill-down computation: which table
/// (`(table_id, epoch)` — a process-unique id the engine assigns at load
/// plus the table's data epoch), which exact tuples and weights (content
/// digest), which search configuration, and which operation (rule vs star
/// drill-down).
///
/// The identity pair replaces an earlier raw-`Arc`-pointer tag, which was
/// ABA-prone (a dropped table's allocation can be reused by the next load)
/// and silently wrong for live tables, where content changes under a
/// stable handle. Keying the epoch means an append — which bumps the
/// epoch — can never be served a stale pre-append result: **no cache hit
/// crosses an epoch** (the invariant DETERMINISM.md pins).
///
/// `weight_tag` is the weight function's stable identity
/// ([`crate::WeightFn::cache_tag`]); callers must not derive keys for
/// weights without one.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per key component; a struct would only rename them"
)]
pub fn drill_key(
    table_id: u64,
    epoch: u64,
    view: [u64; 2],
    base: &Rule,
    star_column: Option<usize>,
    k: usize,
    weight_tag: &str,
    max_weight: Option<f64>,
    n_columns: usize,
) -> DrillKey {
    let mut h = KeyHasher::new(match star_column {
        None => 0xD21_1D01,
        Some(_) => 0xD21_157A2,
    });
    h.write_u64(table_id);
    h.write_u64(epoch);
    h.write_u64(view[0]);
    h.write_u64(view[1]);
    h.write_base(Some(base), n_columns);
    if let Some(col) = star_column {
        h.write_u64(col as u64);
    }
    h.write_u64(k as u64);
    h.write_bytes(weight_tag.as_bytes());
    match max_weight {
        // Discriminant-prefixed: `None` never keys like any `Some`.
        None => h.write_u64(0),
        Some(mw) => {
            h.write_u64(1);
            h.write_f64(mw);
        }
    }
    DrillKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::{Schema, Table};

    fn float_key(v: f64) -> [u64; 2] {
        let mut h = KeyHasher::new(7);
        h.write_f64(v);
        h.finish()
    }

    fn base_key(base: Option<&Rule>) -> [u64; 2] {
        let mut h = KeyHasher::new(7);
        h.write_base(base, 3);
        h.finish()
    }

    #[test]
    fn negative_zero_and_zero_key_differently() {
        // Distinct keys are documented behavior: -0.0 and 0.0 are distinct
        // bit patterns, and distinct keys are always safe.
        assert_ne!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_ne!(float_key(-0.0), float_key(0.0));
    }

    #[test]
    fn all_nan_payloads_key_identically() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let negative = f64::from_bits(0xFFF8_0000_0000_0002);
        assert!(quiet.is_nan() && payload.is_nan() && negative.is_nan());
        assert_eq!(canonical_f64_bits(quiet), CANONICAL_NAN_BITS);
        assert_eq!(canonical_f64_bits(payload), CANONICAL_NAN_BITS);
        assert_eq!(canonical_f64_bits(negative), CANONICAL_NAN_BITS);
        assert_eq!(float_key(quiet), float_key(payload));
        assert_eq!(float_key(quiet), float_key(negative));
    }

    #[test]
    fn ordinary_floats_key_by_exact_bits() {
        assert_ne!(float_key(3.0), float_key(3.5));
        let tiny = f64::from_bits(3.0f64.to_bits() + 1); // next representable
        assert_ne!(float_key(3.0), float_key(tiny));
        assert_eq!(float_key(3.0), float_key(3.0));
    }

    #[test]
    fn none_base_normalizes_to_trivial() {
        assert_eq!(base_key(None), base_key(Some(&Rule::trivial(3))));
        // …but a real base keys differently.
        let real = Rule::from_codes(vec![1, crate::STAR, crate::STAR]);
        assert_ne!(base_key(None), base_key(Some(&real)));
    }

    #[test]
    fn view_digest_tracks_content_not_identity() {
        let table = Table::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[&["a", "x"], &["b", "y"], &["a", "y"]],
        )
        .unwrap();
        let all = view_digest(&table.view());
        let again = view_digest(&table.view());
        assert_eq!(all, again, "same content must digest identically");
        let regathered = table.gather_rows(&[0, 1, 2]);
        assert_eq!(
            all,
            view_digest(&regathered.view()),
            "content, not identity"
        );
        let subset = table.gather_rows(&[0, 1]);
        assert_ne!(all, view_digest(&subset.view()));
        let reordered = table.gather_rows(&[1, 0, 2]);
        assert_ne!(all, view_digest(&reordered.view()), "row order is content");
        let weighted = TableView::all_with_weights(&table, &[2.0; 3]);
        assert_ne!(all, view_digest(&weighted), "weights are content");
    }

    /// 700 rows (a multiple of neither the pair packing nor the lanes):
    /// `A` holds 5 values, `B` one per row.
    fn seven_hundred(n_b: usize) -> Table {
        let rows: Vec<[String; 2]> = (0..700)
            .map(|i| [format!("a{}", i % 5), format!("b{}", i % n_b)])
            .collect();
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    #[test]
    fn view_digest_ignores_code_width() {
        // The same codes held one byte wide and, gathered from a table
        // whose `B` has 700 values, two bytes wide.
        let narrow = seven_hundred(200);
        let wide = seven_hundred(700).gather_rows(&(0..700).map(|i| i % 200).collect::<Vec<_>>());
        assert_eq!(narrow.column(1).width(), 1);
        assert_eq!(wide.column(1).width(), 2);
        let codes = |t: &Table| (0..2).map(|c| t.column(c).to_u32_vec()).collect::<Vec<_>>();
        assert_eq!(codes(&narrow), codes(&wide));
        let weights: Vec<f64> = (0..700).map(|i| 0.5 + i as f64).collect();
        let (narrow, wide) = (
            TableView::all_with_weights(&narrow, &weights),
            TableView::all_with_weights(&wide, &weights),
        );
        assert_eq!(view_digest(&narrow), view_digest(&wide));
    }

    #[test]
    fn view_digest_changes_with_order_columns_weights_and_length() {
        let table = seven_hundred(700);
        let weights: Vec<f64> = (0..700).map(|i| 0.5 + i as f64).collect();
        let view = TableView::all_with_weights(&table, &weights);
        let digest = view_digest(&view);
        let mut order: Vec<u32> = (0..700).collect();
        order.swap(3, 698);
        let reordered = table.gather_rows(&order);
        let mut reweighted = weights.clone();
        reweighted.swap(3, 698);
        assert_ne!(
            digest,
            view_digest(&TableView::all_with_weights(&reordered, &reweighted)),
            "row order"
        );
        let rows: Vec<[String; 2]> = (0..700)
            .map(|i| [format!("b{i}"), format!("a{}", i % 5)])
            .collect();
        let swapped = Table::from_rows(Schema::new(["B", "A"]).unwrap(), &rows).unwrap();
        assert_ne!(
            digest,
            view_digest(&TableView::all_with_weights(&swapped, &weights)),
            "column order"
        );
        reweighted = weights.clone();
        reweighted[699] = 0.25;
        assert_ne!(
            digest,
            view_digest(&TableView::all_with_weights(&table, &reweighted)),
            "weights"
        );
        let shorter: Vec<u32> = (0..699).collect();
        assert_ne!(
            digest,
            view_digest(&TableView::all_with_weights(
                &table.gather_rows(&shorter),
                &weights[..699]
            )),
            "length"
        );
    }

    #[test]
    fn drill_key_separates_rule_and_star_domains() {
        let base = Rule::trivial(3);
        let v = [1u64, 2u64];
        let rule = drill_key(9, 0, v, &base, None, 4, "size", Some(3.0), 3);
        let star = drill_key(9, 0, v, &base, Some(0), 4, "size", Some(3.0), 3);
        assert_ne!(rule, star);
        let star1 = drill_key(9, 0, v, &base, Some(1), 4, "size", Some(3.0), 3);
        assert_ne!(star, star1);
        let other_weight = drill_key(9, 0, v, &base, None, 4, "bits", Some(3.0), 3);
        assert_ne!(rule, other_weight);
        let other_k = drill_key(9, 0, v, &base, None, 5, "size", Some(3.0), 3);
        assert_ne!(rule, other_k);
        let default_mw = drill_key(9, 0, v, &base, None, 4, "size", None, 3);
        assert_ne!(rule, default_mw);
    }

    #[test]
    fn drill_key_separates_tables_and_epochs() {
        let base = Rule::trivial(3);
        let v = [1u64, 2u64];
        let a = drill_key(1, 0, v, &base, None, 4, "size", Some(3.0), 3);
        let other_table = drill_key(2, 0, v, &base, None, 4, "size", Some(3.0), 3);
        assert_ne!(a, other_table, "distinct table ids must never collide");
        let next_epoch = drill_key(1, 1, v, &base, None, 4, "size", Some(3.0), 3);
        assert_ne!(a, next_epoch, "an append (epoch bump) must miss the cache");
        // (id=1, epoch=2) vs (id=2, epoch=1): the pair is keyed as two
        // words, not a sum — no cross-field aliasing.
        let swapped = drill_key(2, 1, v, &base, None, 4, "size", Some(3.0), 3);
        assert_ne!(
            drill_key(1, 2, v, &base, None, 4, "size", Some(3.0), 3),
            swapped
        );
    }

    #[test]
    fn write_bytes_is_prefix_free() {
        let mut a = KeyHasher::new(0);
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = KeyHasher::new(0);
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
