//! The segment tier: the scans that run over [`ShardedTable`] storage
//! (see `sdd_table::shard` for the substrate).
//!
//! The paper's architecture (§3–§4) runs BRS and Algorithm 2 over an
//! **in-memory sample**; the big table is only ever scanned for covered
//! rows (Create, prefetch, live maintenance), counted exactly (refresh) and
//! gathered from. That is all the product asks of segmented storage, so
//! that is all this module serves:
//!
//! * [`try_covered_rows_sharded`] / [`try_covered_rows_sharded_range`] —
//!   the row ids a rule covers, over the whole table or one appended range;
//! * [`try_count_rules_sharded`] — exact counts of a rule list;
//! * [`try_covered_rows_in_store`] / [`try_count_rules_in_store`] — the same
//!   two scans over any [`TableStore`]: the **one place** that dispatches on
//!   the store kind (monolithic → [`crate::kernel`], segmented → here), so
//!   the sampling layer and the explorer never match on it;
//! * [`try_find_best_marginal_rule_sharded`] — *not* a second Algorithm 2:
//!   it gathers a [`ShardedView`]'s rows and runs the one search
//!   ([`crate::find_best_marginal_rule_with_scratch`]) on the gathered
//!   table, the two calls the sampling layer and BRS make for every real
//!   request. Kept because the repository benchmark's
//!   `core.search_sharded_ratio` probe compiles against it.
//!
//! Everything is **fallible-only**: a damaged spill file surfaces as
//! [`TableError::Corrupt`]/[`TableError::Io`], so a session gets an error
//! response instead of a crash.
//!
//! ## Bit-parity with the monolithic scans
//!
//! 1. the shard layout partitions the row range in order, so iterating
//!    shards in index order visits rows in exactly the monolithic order;
//! 2. coverage and count scans produce integers — hit lists concatenate in
//!    shard order, counts add exactly;
//! 3. a gather copies global codes in the order asked for, so the gathered
//!    table equals the same rows gathered from a monolithic table, and the
//!    search over it performs the same float operations in the same order.
//!
//! So results are identical for any shard count, resident budget and
//! construction path: eviction and spill reload only change when bytes are
//! in memory, never which bytes. `tests/shard_parity.rs` asserts all of
//! this.
//!
//! ## Spill-tier predicate pushdown
//!
//! A scan sees each shard in one of two forms and never forces a
//! local→global decode:
//!
//! * a **cached** segment ([`ShardedTable::cached_data`]) is a small table
//!   of global codes, scanned by the same span routines the monolithic
//!   scans use (`covered_rows_span`, `count_rule_span` in
//!   [`crate::kernel`]) — there is no second implementation;
//! * a **miss** range-reads only the rule's columns
//!   ([`ShardedTable::read_columns`]) as packed 1/2/4-byte local codes
//!   straight out of the spill coding, transiently — residency is left
//!   undisturbed — and scans them after translating each rule predicate
//!   into the shard's local code space through its `remap`. A predicate
//!   value absent from `remap` covers zero rows, so the whole shard is
//!   skipped without touching a row. This arm hides the spill format and
//!   stays separate.
//!
//! Parity of the second form holds by construction: a local-code equality
//! scan hits exactly the rows the global-code scan hits. The
//! equality-compare inner loops dispatch through [`crate::accel`] (AVX2
//! with scalar fallback); SIMD changes neither positions nor order.

use crate::accel;
use crate::kernel::{count_rule_span, covered_rows_span, covered_rows_with_threads, SearchScratch};
use crate::marginal::{find_best_marginal_rule_with_scratch, BestMarginal, SearchOptions};
use crate::{Rule, WeightFn};
use sdd_table::{
    LocalCodes, OwnedTableView, RawColumn, RowId, ShardSegment, ShardedTable, ShardedView,
    TableError, TableStore,
};
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Pushdown plumbing: fetching shard columns in their cheapest form and
// translating rule predicates into local code space.
// ---------------------------------------------------------------------------

/// The column data one scan obtained for one shard, in whichever form was
/// cheapest to get.
enum ShardCols {
    /// The cached decoded segment (global codes).
    Decoded(Arc<ShardSegment>),
    /// A transient range read of just the requested columns, each paired
    /// with its column index — never enters the residency cache.
    Transient(Vec<(usize, RawColumn)>),
}

/// Fetches `cols` of one shard: the cached segment, else a transient range
/// read of only those columns (residency undisturbed).
fn fetch_cols(st: &ShardedTable, shard: usize, cols: &[usize]) -> Result<ShardCols, TableError> {
    Ok(match st.cached_data(shard) {
        Some(seg) => ShardCols::Decoded(seg),
        None if st.spill_path(shard).is_some() => {
            let raw = st.read_columns(shard, cols)?;
            ShardCols::Transient(cols.iter().copied().zip(raw).collect())
        }
        // Fully-resident tables always hit the cache; kept total anyway.
        None => ShardCols::Decoded(st.try_segment(shard)?),
    })
}

/// Translates `rule`'s predicates on the fetched columns (which include
/// every column the rule instantiates) into the shard's local code space,
/// in column order. `None` ⇒ some predicate value never occurs in this
/// shard (absent from the column's `remap`): the rule covers zero rows here
/// and the caller skips the shard without touching its rows.
fn local_predicates<'a>(
    raw: &'a [(usize, RawColumn)],
    rule: &Rule,
) -> Option<Vec<(&'a LocalCodes, u32)>> {
    raw.iter()
        .filter(|(c, _)| !rule.is_star(*c))
        .map(|(c, rc)| rc.local_of_global(rule.code(*c)).map(|l| (rc.codes(), l)))
        .collect()
}

/// Width-dispatched equality position scan over packed local codes.
fn positions_eq_local(codes: &LocalCodes, want: u32, base: u32, out: &mut Vec<u32>) {
    match codes {
        // Local codes were validated against `remap`, so a 1-byte column's
        // codes — and any `want` produced by `local_of_global` — fit u8/u16.
        LocalCodes::W1(v) => accel::positions_eq_u8(v, want as u8, base, out),
        LocalCodes::W2(v) => accel::positions_eq_u16(v, want as u16, base, out),
        LocalCodes::W4(v) => accel::positions_eq_u32(v, want, base, out),
    }
}

/// Width-dispatched equality count over packed local codes.
fn count_eq_local(codes: &LocalCodes, want: u32) -> usize {
    match codes {
        LocalCodes::W1(v) => accel::count_eq_u8(v, want as u8),
        LocalCodes::W2(v) => accel::count_eq_u16(v, want as u16),
        LocalCodes::W4(v) => accel::count_eq_u32(v, want),
    }
}

/// The rows of one `n_rows`-row shard that satisfy every local-code
/// predicate, ascending, numbered from `base`: first column via the SIMD
/// equality scan, remaining columns by survivor filtering. No predicate at
/// all covers every row.
fn covered_by_local(preds: &[(&LocalCodes, u32)], base: RowId, n_rows: usize) -> Vec<RowId> {
    let Some((&(first_codes, first_want), rest)) = preds.split_first() else {
        return (base..base + n_rows as RowId).collect();
    };
    let mut hits: Vec<RowId> = Vec::new();
    positions_eq_local(first_codes, first_want, base, &mut hits);
    for &(codes, want) in rest {
        hits.retain(|&r| codes.at((r - base) as usize) == want);
    }
    hits
}

/// The ids (`span.start + local`) of `rule`'s covered rows in one full
/// shard, ascending; `cols` are the rule's instantiated columns
/// (non-empty). The decoded form runs the shared span filter over the
/// segment's own table; the transient form scans packed local codes after
/// predicate translation.
fn covered_in_shard(f: &ShardCols, rule: &Rule, cols: &[usize], span: &Range<usize>) -> Vec<RowId> {
    let base = span.start as RowId;
    match f {
        ShardCols::Decoded(seg) => covered_rows_span(seg.table(), rule, cols, 0..span.len(), base),
        // `None`: a predicate value is absent from remap — a zero-count shard.
        ShardCols::Transient(raw) => local_predicates(raw, rule)
            .map_or_else(Vec::new, |preds| covered_by_local(&preds, base, span.len())),
    }
}

// ---------------------------------------------------------------------------
// Coverage scans
// ---------------------------------------------------------------------------

/// All row ids of `table` covered by `rule` (ascending) — the segment-tier
/// form of [`crate::covered_rows`]: shards are filtered in index order and
/// the per-shard hit lists concatenate, so the output is byte-identical to
/// the monolithic scan on any shard count. Cached shards are scanned in
/// place; misses range-read only the rule's columns.
pub fn try_covered_rows_sharded(
    table: &ShardedTable,
    rule: &Rule,
) -> Result<Vec<RowId>, TableError> {
    try_covered_rows_sharded_range(table, rule, 0..table.n_rows())
}

/// All row ids in `range` covered by `rule` (ascending), scanning only the
/// shards that overlap the range (out-of-bounds ranges clamp). This is what
/// incremental sample maintenance uses to offer exactly one epoch's
/// appended rows (`epoch_rows[e-1]..epoch_rows[e]`) without rescanning the
/// table; [`try_covered_rows_sharded`] is the full-range call.
pub fn try_covered_rows_sharded_range(
    table: &ShardedTable,
    rule: &Rule,
    range: Range<usize>,
) -> Result<Vec<RowId>, TableError> {
    let lo = range.start.min(table.n_rows());
    let hi = range.end.min(table.n_rows());
    if lo >= hi {
        return Ok(Vec::new());
    }
    let cols: Vec<usize> = rule.instantiated_columns().collect();
    if cols.is_empty() {
        return Ok((lo as RowId..hi as RowId).collect());
    }
    let mut out: Vec<RowId> = Vec::new();
    for i in 0..table.n_shards() {
        let span = table.spans()[i].clone();
        if span.is_empty() || span.end <= lo || span.start >= hi {
            continue;
        }
        let mut hits = covered_in_shard(&fetch_cols(table, i, &cols)?, rule, &cols, &span);
        if span.start < lo || span.end > hi {
            // Boundary shard: keep only the in-range hits.
            hits.retain(|&r| (lo..hi).contains(&(r as usize)));
        }
        out.extend(hits);
    }
    Ok(out)
}

/// Exact counts of every rule in one pass over the sharded table — the
/// segment-tier form of [`crate::count_rules`], the scan behind the
/// explorer's exact-count refresh.
///
/// Counts are exact integers, so per-shard `u64` subtotals add up to the
/// monolithic count bitwise — which frees each shard to use the SIMD count
/// kernels over whichever form it holds.
pub fn try_count_rules_sharded(
    table: &ShardedTable,
    rules: &[Rule],
) -> Result<Vec<f64>, TableError> {
    let mut counts = vec![0u64; rules.len()];
    let mut needed: Vec<usize> = rules
        .iter()
        .flat_map(|r| r.instantiated_columns())
        .collect();
    needed.sort_unstable();
    needed.dedup();
    for i in 0..table.n_shards() {
        let span = table.spans()[i].clone();
        if span.is_empty() {
            continue;
        }
        if needed.is_empty() {
            // Only trivial rules: every rule covers the whole shard.
            for c in counts.iter_mut() {
                *c += span.len() as u64;
            }
            continue;
        }
        let f = fetch_cols(table, i, &needed)?;
        for (ri, rule) in rules.iter().enumerate() {
            counts[ri] += count_rule_in_shard(&f, rule, span.len());
        }
    }
    Ok(counts.into_iter().map(|c| c as f64).collect())
}

/// One rule's covered-row count in one shard: the shared span count over a
/// decoded segment's table; over the transient form, the vectorized
/// local-code count for single-column rules and the survivor count of
/// [`covered_by_local`] for wider ones.
fn count_rule_in_shard(f: &ShardCols, rule: &Rule, n_rows: usize) -> u64 {
    let raw = match f {
        ShardCols::Decoded(seg) => return count_rule_span(seg.table(), rule, 0..n_rows),
        ShardCols::Transient(raw) => raw,
    };
    match local_predicates(raw, rule).as_deref() {
        // A value absent from remap covers zero rows in this shard.
        None => 0,
        Some(&[]) => n_rows as u64,
        Some(&[(codes, want)]) => count_eq_local(codes, want) as u64,
        Some(preds) => covered_by_local(preds, 0, n_rows).len() as u64,
    }
}

// ---------------------------------------------------------------------------
// Store-kind dispatch
// ---------------------------------------------------------------------------

/// All row ids of `store` covered by `rule` (ascending), at the pinned
/// epoch for live storage: [`crate::covered_rows_with_threads`] over a
/// monolithic table (`threads` is its worker budget), else
/// [`try_covered_rows_sharded`]. Both emit the identical row stream for
/// identical rows, so whatever consumes it (a reservoir) is
/// storage-agnostic.
pub fn try_covered_rows_in_store(
    store: &TableStore,
    rule: &Rule,
    threads: usize,
) -> Result<Vec<RowId>, TableError> {
    match store.as_sharded() {
        None => Ok(covered_rows_with_threads(store.header(), rule, threads)),
        Some(st) => try_covered_rows_sharded(st, rule),
    }
}

/// Exact counts of `rules` over `store` (at the pinned epoch for live
/// storage): [`crate::count_rules`] over a monolithic table, else
/// [`try_count_rules_sharded`].
pub fn try_count_rules_in_store(
    store: &TableStore,
    rules: &[Rule],
) -> Result<Vec<f64>, TableError> {
    match store.as_sharded() {
        None => Ok(crate::count_rules(store.header(), rules)),
        Some(st) => try_count_rules_sharded(st, rules),
    }
}

// ---------------------------------------------------------------------------
// Searching rows of a segmented store
// ---------------------------------------------------------------------------

/// Algorithm 2 over the rows a [`ShardedView`] names: gathers them into an
/// in-memory table ([`ShardedTable::try_gather_rows`] — one pinned segment
/// at a time, resident segments first) and runs the one search kernel on
/// it, which is what the sampling layer and BRS do for every request over
/// segmented storage. Position `i` of the gathered table is position `i`
/// of the view, so `covered_weight` and the view's weights carry over
/// unchanged and the result is bit-identical to
/// [`crate::find_best_marginal_rule`] on the same rows gathered from the
/// equivalent monolithic table, for any shard count and resident budget.
///
/// Panics if `covered_weight` does not align with the view.
pub fn try_find_best_marginal_rule_sharded(
    view: &ShardedView,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> Result<Option<BestMarginal>, TableError> {
    let st = view.table();
    let gathered = Arc::new(match view.row_ids() {
        Some(rows) => st.try_gather_rows(rows)?,
        None => st.try_gather_rows(&(0..st.n_rows() as RowId).collect::<Vec<_>>())?,
    });
    let rows = match view.weights() {
        Some(w) => OwnedTableView::all_with_weights(gathered, w.to_vec()),
        None => OwnedTableView::all(gathered),
    };
    Ok(find_best_marginal_rule_with_scratch(
        &rows.as_view(),
        weight,
        covered_weight,
        opts,
        scratch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{covered_rows, find_best_marginal_rule, SizeWeight};
    use sdd_table::{Schema, ShardConfig, Table, TableView};

    fn t() -> Table {
        let mut rows: Vec<[&str; 3]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a", "x", "0"], 4));
        rows.extend(std::iter::repeat_n(["a", "y", "1"], 3));
        rows.extend(std::iter::repeat_n(["b", "x", "0"], 2));
        rows.push(["c", "z", "1"]);
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap()
    }

    fn sharded(table: &Table, shards: usize) -> Arc<ShardedTable> {
        Arc::new(ShardedTable::from_table(table, &ShardConfig::in_memory(shards)).unwrap())
    }

    /// A spilling layout with a budget of 1: every scan runs against the
    /// raw (pushdown) path except the single resident shard.
    fn spilled(table: &Table, shards: usize) -> Arc<ShardedTable> {
        Arc::new(
            ShardedTable::from_table(
                table,
                &ShardConfig::spilling(shards, 1, std::env::temp_dir()),
            )
            .unwrap(),
        )
    }

    #[test]
    fn covered_rows_matches_monolithic_on_resident_and_spilled_storage() {
        let table = t();
        for rule in [
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
            // "c"/"z" occur only in the last row: every earlier raw shard
            // takes the remap-absence skip.
            Rule::from_pairs(&table, &[("A", "c")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
        ] {
            let expect = covered_rows(&table, &rule);
            for shards in 1..=6 {
                for st in [sharded(&table, shards), spilled(&table, shards)] {
                    assert_eq!(
                        try_covered_rows_sharded(&st, &rule).unwrap(),
                        expect,
                        "{shards} shards"
                    );
                    let spills = st.spill_path(0).is_some();
                    if spills && shards > 1 && rule.instantiated_columns().next().is_some() {
                        assert!(st.loads() > 0, "spilled scan must read spill files");
                    }
                }
            }
        }
    }

    #[test]
    fn covered_rows_range_matches_filtered_full_scan() {
        let table = t();
        let n = table.n_rows();
        for rule in [
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
        ] {
            let full = covered_rows(&table, &rule);
            for shards in [1, 3, 5] {
                for st in [sharded(&table, shards), spilled(&table, shards)] {
                    // Every (lo, hi) window — boundary and interior alike.
                    for lo in 0..=n {
                        for hi in lo..=n {
                            let want: Vec<RowId> = full
                                .iter()
                                .copied()
                                .filter(|&r| (lo as RowId..hi as RowId).contains(&r))
                                .collect();
                            let got = try_covered_rows_sharded_range(&st, &rule, lo..hi).unwrap();
                            assert_eq!(got, want, "rule {rule:?} range {lo}..{hi}");
                        }
                    }
                    // Out-of-bounds ranges clamp instead of panicking.
                    assert_eq!(
                        try_covered_rows_sharded_range(&st, &rule, 0..n + 7).unwrap(),
                        full
                    );
                    assert!(try_covered_rows_sharded_range(&st, &rule, n + 1..n + 5)
                        .unwrap()
                        .is_empty());
                }
            }
        }
    }

    #[test]
    fn search_matches_monolithic_bitwise_on_resident_and_spilled_storage() {
        let table = t();
        let view = table.view();
        let cov: Vec<f64> = (0..view.len()).map(|i| (i % 3) as f64 * 0.7).collect();
        let opts = SearchOptions::new(2.0);
        let mono = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts).unwrap();
        for shards in 1..=6 {
            for st in [sharded(&table, shards), spilled(&table, shards)] {
                let sv = ShardedView::all(st);
                let mut scratch = SearchScratch::new();
                let got = try_find_best_marginal_rule_sharded(
                    &sv,
                    &SizeWeight,
                    &cov,
                    &opts,
                    &mut scratch,
                )
                .unwrap()
                .unwrap();
                assert_eq!(got.rule, mono.rule, "{shards} shards");
                assert_eq!(
                    got.marginal_value.to_bits(),
                    mono.marginal_value.to_bits(),
                    "{shards} shards"
                );
                assert_eq!(got.count.to_bits(), mono.count.to_bits());
                assert_eq!(got.stats, mono.stats, "work counters must match too");
            }
        }
    }

    #[test]
    fn pushdown_weighted_subset_search_matches_monolithic_bitwise() {
        let table = t();
        let rows: Vec<RowId> = vec![0, 2, 3, 5, 6, 7, 9];
        let weights: Vec<f64> = rows.iter().map(|&r| 0.25 + r as f64 * 0.5).collect();
        let cov: Vec<f64> = rows.iter().map(|&r| (r % 4) as f64 * 0.3).collect();
        let gathered = table.gather_rows(&rows);
        let mview = TableView::all_with_weights(&gathered, &weights);
        let opts = SearchOptions::new(4.0);
        let mono = find_best_marginal_rule(&mview, &SizeWeight, &cov, &opts).unwrap();
        for shards in [2, 3, 5] {
            let st = spilled(&table, shards);
            let sv = ShardedView::with_rows_and_weights(st, rows.clone(), weights.clone());
            let mut scratch = SearchScratch::new();
            let got =
                try_find_best_marginal_rule_sharded(&sv, &SizeWeight, &cov, &opts, &mut scratch)
                    .unwrap()
                    .unwrap();
            assert_eq!(got.rule, mono.rule, "{shards} spilled shards");
            assert_eq!(got.marginal_value.to_bits(), mono.marginal_value.to_bits());
            assert_eq!(got.count.to_bits(), mono.count.to_bits());
        }
    }

    #[test]
    fn count_rules_matches_refresh_semantics() {
        let table = t();
        for st in [sharded(&table, 3), spilled(&table, 3)] {
            let rules = vec![
                Rule::trivial(3),
                Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
                Rule::from_pairs(&table, &[("B", "x")]).unwrap(),
                Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
            ];
            let counts = try_count_rules_sharded(&st, &rules).unwrap();
            for (rule, &count) in rules.iter().zip(&counts) {
                assert_eq!(count, crate::rule_count(&table.view(), rule), "{rule:?}");
            }
        }
    }

    #[test]
    fn cold_scans_leave_the_cache_as_found_and_hits_share_one_arc() {
        let table = t();
        let st = spilled(&table, 5);
        let rules = vec![
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
        ];
        // Misses range-read their columns transiently: one load per shard
        // per scan, nothing enters the cache.
        let n = st.n_shards() as u64;
        try_covered_rows_sharded(&st, &rules[1]).unwrap();
        assert_eq!((st.resident_count(), st.loads()), (0, n));
        try_count_rules_sharded(&st, &rules).unwrap();
        assert_eq!((st.resident_count(), st.loads()), (0, 2 * n));
        // A decoded load enters the cache once; hits hand out the same Arc,
        // and scans use it in place instead of reading again.
        let first = st.try_segment(0).unwrap();
        let again = st.try_segment(0).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(st.loads(), 2 * n + 1);
        try_covered_rows_sharded(&st, &rules[0]).unwrap();
        assert_eq!(st.loads(), 3 * n, "the cached shard was not re-read");
    }

    #[test]
    fn store_dispatch_agrees_across_store_kinds() {
        let table = Arc::new(t());
        let rules = vec![
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
        ];
        let whole = TableStore::Whole(table.clone());
        let want_counts = try_count_rules_in_store(&whole, &rules).unwrap();
        assert_eq!(want_counts, vec![10.0, 7.0, 4.0]);
        for st in [sharded(&table, 3), spilled(&table, 4)] {
            let store = TableStore::Sharded(st);
            assert_eq!(
                try_count_rules_in_store(&store, &rules).unwrap(),
                want_counts
            );
            for rule in &rules {
                assert_eq!(
                    try_covered_rows_in_store(&store, rule, 1).unwrap(),
                    try_covered_rows_in_store(&whole, rule, 2).unwrap(),
                );
            }
        }
    }

    #[test]
    fn corrupt_spill_surfaces_through_try_variants() {
        let table = t();
        let st = spilled(&table, 3);
        let rule = Rule::from_pairs(&table, &[("A", "a")]).unwrap();
        let path = st.spill_path(0).unwrap().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            try_covered_rows_sharded(&st, &rule),
            Err(TableError::Corrupt(_))
        ));
        assert!(try_count_rules_sharded(&st, std::slice::from_ref(&rule)).is_err());
        let sv = ShardedView::all(st.clone());
        let mut scratch = SearchScratch::new();
        let opts = SearchOptions::new(2.0);
        let cov = vec![0.0; sv.len()];
        assert!(
            try_find_best_marginal_rule_sharded(&sv, &SizeWeight, &cov, &opts, &mut scratch)
                .is_err()
        );
        // Restore: scans recover (errors are not sticky).
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            try_covered_rows_sharded(&st, &rule).unwrap(),
            covered_rows(&table, &rule)
        );
    }
}
