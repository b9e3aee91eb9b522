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
//! as equality of inputs. The digest is a two-lane SplitMix64 fold —
//! deterministic across platforms and processes, with no unspecified
//! iteration order anywhere (lint rule D001 applies to this crate).

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::marginal::SearchOptions;
use crate::Rule;
use sdd_table::TableView;

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

#[inline]
fn splitmix(mut z: u64) -> u64 {
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
            lo: splitmix(domain ^ 0x5DD_CAC8E),
            hi: splitmix(domain ^ 0xD16E_57D1_11D0),
        }
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.lo = splitmix(self.lo ^ v);
        self.hi = splitmix(self.hi ^ v.rotate_left(17));
    }

    /// Absorbs one 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
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
            self.write_u32(code);
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

    /// Absorbs every result-determining field of [`SearchOptions`]:
    /// `max_weight` by canonical bits, `pruning`, `max_rule_size`, and the
    /// normalized `base`.
    pub fn write_search_options(&mut self, opts: &SearchOptions, n_columns: usize) {
        self.write_f64(opts.max_weight);
        self.write_u64(opts.pruning as u64);
        match opts.max_rule_size {
            // Disambiguated from Some(n): a discriminant word precedes.
            None => self.write_u64(0),
            Some(n) => {
                self.write_u64(1);
                self.write_u64(n as u64);
            }
        }
        self.write_base(opts.base.as_ref(), n_columns);
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> [u64; 2] {
        // One finalization round per lane so short inputs still diffuse.
        [splitmix(self.lo), splitmix(self.hi)]
    }
}

/// Content digest of a view: length, per-row dictionary codes, and per-row
/// weight bits (canonical). Two views digesting equal are bit-identical
/// BRS inputs; comparing by content (not identity) is what lets replica
/// sessions share results.
pub fn view_digest(view: &TableView<'_>) -> [u64; 2] {
    let table = view.table();
    let mut h = KeyHasher::new(0x51DD_71E3);
    h.write_u64(view.len() as u64);
    let mut codes: Vec<u32> = Vec::with_capacity(table.n_columns());
    for wr in view.iter() {
        table.row_codes(wr.row, &mut codes);
        for &c in &codes {
            h.write_u32(c);
        }
        h.write_f64(wr.weight);
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
        // Discriminant-prefixed like max_rule_size above.
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

    fn opts(mw: f64) -> SearchOptions {
        SearchOptions::new(mw)
    }

    fn options_key(o: &SearchOptions, n_columns: usize) -> [u64; 2] {
        let mut h = KeyHasher::new(7);
        h.write_search_options(o, n_columns);
        h.finish()
    }

    #[test]
    fn negative_zero_and_zero_key_differently() {
        // Distinct keys are documented behavior: -0.0 and 0.0 are distinct
        // bit patterns, and distinct keys are always safe.
        assert_ne!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_ne!(options_key(&opts(-0.0), 3), options_key(&opts(0.0), 3));
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
        assert_eq!(options_key(&opts(quiet), 3), options_key(&opts(payload), 3));
        assert_eq!(
            options_key(&opts(quiet), 3),
            options_key(&opts(negative), 3)
        );
    }

    #[test]
    fn ordinary_floats_key_by_exact_bits() {
        assert_ne!(options_key(&opts(3.0), 3), options_key(&opts(3.5), 3));
        let tiny = f64::from_bits(3.0f64.to_bits() + 1); // next representable
        assert_ne!(options_key(&opts(3.0), 3), options_key(&opts(tiny), 3));
        assert_eq!(options_key(&opts(3.0), 3), options_key(&opts(3.0), 3));
    }

    #[test]
    fn none_base_normalizes_to_trivial() {
        let mut with_none = opts(2.0);
        with_none.base = None;
        let mut with_trivial = opts(2.0);
        with_trivial.base = Some(Rule::trivial(3));
        assert_eq!(options_key(&with_none, 3), options_key(&with_trivial, 3));
        // …but a real base keys differently.
        let mut with_base = opts(2.0);
        with_base.base = Some(Rule::from_codes(vec![1, crate::STAR, crate::STAR]));
        assert_ne!(options_key(&with_none, 3), options_key(&with_base, 3));
    }

    #[test]
    fn result_determining_options_are_all_keyed() {
        let base = opts(2.0);
        let mut no_pruning = opts(2.0);
        no_pruning.pruning = false;
        assert_ne!(options_key(&base, 3), options_key(&no_pruning, 3));
        let mut capped = opts(2.0);
        capped.max_rule_size = Some(2);
        assert_ne!(options_key(&base, 3), options_key(&capped, 3));
        // Some(0) must not collide with None (discriminant-prefixed).
        let mut zero_cap = opts(2.0);
        zero_cap.max_rule_size = Some(0);
        assert_ne!(options_key(&base, 3), options_key(&zero_cap, 3));
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
