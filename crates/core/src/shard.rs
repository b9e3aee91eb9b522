//! The segment tier: the one sweep that scans a table a segment at a time,
//! over monolithic and segmented storage alike (see `sdd_table::shard` for
//! the substrate).
//!
//! The paper's architecture (§3–§4) runs BRS and Algorithm 2 over an
//! **in-memory sample**; the big table is only ever scanned for covered
//! rows (Create, prefetch, live maintenance), counted exactly (refresh) and
//! gathered from. Every such scan is the **same loop** (`sweep`): segments
//! are visited in row order (a shard of a [`ShardedTable`] or live
//! snapshot, or a [`chunk_spans`] slice of a monolithic [`Table`]), the
//! union of the batch's rule columns is fetched **once per segment**, and
//! each rule's hits in that segment go to a sink:
//!
//! * *collect ids* — [`try_covered_rows_sharded`] and
//!   [`try_covered_rows_sharded_range`];
//! * *count* — [`try_count_rules_sharded`], [`try_count_rules_in_store`];
//! * *the caller's* — [`try_scan_rules_in_store`], through which the
//!   sampling layer offers a whole batch of rules' covered rows to their
//!   reservoirs in a single pass (§4.3), no covered-row vector in between.
//!
//! The `*_in_store` entries are the **one place** that dispatches on the
//! store kind. [`try_find_best_marginal_rule_sharded`] is *not* a second
//! Algorithm 2: it gathers a [`ShardedView`]'s rows and runs the one search
//! on the gathered table (kept because the repository benchmark's
//! `core.search_sharded_ratio` probe compiles against it). Everything is
//! **fallible-only**: a damaged spill file surfaces as
//! [`TableError::Corrupt`]/[`TableError::Io`], never a crash.
//!
//! ## Bit-parity across layouts and batches
//!
//! 1. segments partition the row range in order, so visiting them in index
//!    order visits rows in exactly the monolithic order;
//! 2. a rule's hits in a segment are a function of that rule and those
//!    rows alone — which other rules share the batch changes what is
//!    *fetched*, never what is *found*;
//! 3. a sweep runs on its calling thread and hands each segment's hits to
//!    the sink as it scans them, so every rule's hit stream is the
//!    ascending monolithic one: hit lists concatenate, integer counts add
//!    exactly, and a reservoir fed by the stream draws what a
//!    rule-at-a-time scan would give it (`docs/DETERMINISM.md` has the
//!    argument in full);
//! 4. a gather copies global codes in the order asked for, so the search
//!    over a gathered table performs the same float operations in the same
//!    order as over the same rows of a monolithic table.
//!
//! So results are identical for any shard count, resident or spilled
//! shards, batch composition and construction path
//! (`tests/shard_parity.rs`).
//!
//! ## Spill-tier predicate pushdown
//!
//! A sweep never forces a local→global decode. A slice of the monolithic
//! table and a **resident** segment ([`ShardedTable::resident_segment`])
//! hold global codes. A **spilled** shard is range-read for only the
//! batch's columns ([`ShardedTable::read_columns`]) as packed 1/2/4-byte
//! local codes, transiently — the read is dropped with the segment's
//! hits — and each rule predicate is translated into the shard's local
//! code space through its `remap`; a value absent from `remap` covers zero
//! rows there. A batch of trivial rules reads nothing. That read is the
//! spill tier's one reader, the same one a gather and a segment decode
//! use: it sizes every buffer from the file's validated offset table and
//! validates codes with one vectorized max-reduction, so a read costs
//! about what it copies.
//! Either way the predicates go to the one block-mask scan
//! of [`crate::accel`], generic over the code width: a local-code equality
//! hits exactly the rows the global-code one hits, and the mask yields them
//! ascending, so the coding changes neither positions nor order.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::accel::{self, EqPred};
use crate::kernel::{span_preds, SearchScratch};
use crate::marginal::{find_best_marginal_rule_with_scratch, BestMarginal, SearchOptions};
use crate::{Rule, WeightFn};
use sdd_table::{
    chunk_spans, LocalCodes, OwnedTableView, RawColumn, RowId, ShardedTable, ShardedView, Table,
    TableError, TableStore,
};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// One segment of a sweep, and the scans over each form it comes in
// ---------------------------------------------------------------------------

/// The batch's columns of one segment, in the form its shard keeps.
enum Codes<'a> {
    /// Global codes in place: the monolithic table, or a resident segment.
    Table(&'a Table),
    /// A transient range read of just the batch's columns of a spilled
    /// shard, each with its column index. Empty when the batch instantiates
    /// no column.
    Packed(Vec<(usize, RawColumn)>),
}

/// One segment as a sweep hands it to a scan.
struct Segment<'a> {
    codes: Codes<'a>,
    /// Global id of the row `codes` calls row 0.
    start: usize,
    /// The global rows to scan: the segment's span clipped to the range.
    rows: Range<usize>,
}

impl Segment<'_> {
    /// `rule`'s predicates over `self.rows`, in whichever coding the
    /// segment came in. `None` ⇒ some predicate value never occurs in this
    /// shard (absent from the column's `remap`): the rule covers no row here.
    fn preds(&self, rule: &Rule) -> Option<Vec<EqPred<'_>>> {
        let rows = self.rows.start - self.start..self.rows.end - self.start;
        match &self.codes {
            Codes::Table(t) => Some(span_preds(t, rule, rows)),
            Codes::Packed(raw) => local_predicates(raw, rule, rows),
        }
    }

    /// The global ids of `rule`'s covered rows among `self.rows`, ascending.
    fn covered(&self, rule: &Rule) -> Vec<RowId> {
        let (n, base) = (self.rows.len(), self.rows.start as RowId);
        self.preds(rule)
            .map_or_else(Vec::new, |preds| accel::hits(&preds, n, base))
    }

    /// How many of `self.rows` `rule` covers.
    fn count(&self, rule: &Rule) -> u64 {
        self.preds(rule)
            .map_or(0, |preds| accel::count(&preds, self.rows.len()))
    }
}

/// Translates `rule`'s predicates on the fetched columns (which include
/// every column the rule instantiates) into the shard's local code space
/// over `rows`, in column order; `None` when a value is absent from a
/// column's `remap`.
fn local_predicates<'a>(
    raw: &'a [(usize, RawColumn)],
    rule: &Rule,
    rows: Range<usize>,
) -> Option<Vec<EqPred<'a>>> {
    raw.iter()
        .filter(|(c, _)| !rule.is_star(*c))
        .map(|(c, rc)| {
            let want = rc.local_of_global(rule.code(*c))?;
            // Local codes were validated against `remap`, so a 1-byte
            // column's codes — and any `want` produced by
            // `local_of_global` — fit u8/u16.
            Some(match rc.codes() {
                LocalCodes::W1(v) => EqPred::U8(&v[rows.clone()], want as u8),
                LocalCodes::W2(v) => EqPred::U16(&v[rows.clone()], want as u16),
                LocalCodes::W4(v) => EqPred::U32(&v[rows.clone()], want),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// Rows per slice targeted by a sweep of a monolithic table.
const ROWS_PER_SLICE: usize = 8 * 1024;
/// Upper bound on the number of slices of one sweep.
const MAX_SLICES: usize = 64;
/// Inputs smaller than this are swept in one piece.
const SLICE_MIN_ROWS: usize = 32 * 1024;

/// Slice count for a sweep of a monolithic table: slicing bounds the hit
/// list one slice holds at a time (a whole 10⁶-row table's trivial-rule
/// hits would be 4 MB). Output is integer hit lists in slice order, so
/// slicing never changes a byte of the result.
fn scan_chunks(len: usize) -> usize {
    if len < SLICE_MIN_ROWS {
        1
    } else {
        (len / ROWS_PER_SLICE).clamp(1, MAX_SLICES)
    }
}

/// Where a sweep reads its rows: a monolithic table, swept in
/// [`chunk_spans`] slices, or segmented storage — a sharded table or a live
/// snapshot — swept shard by shard.
#[derive(Clone, Copy)]
enum Source<'a> {
    Whole(&'a Table),
    Sharded(&'a ShardedTable),
}

impl<'a> Source<'a> {
    /// The rows behind `store` (the pinned snapshot's, for live storage).
    fn of(store: &'a TableStore) -> Self {
        store
            .as_sharded()
            .map_or(Source::Whole(store.header()), |st| Source::Sharded(st))
    }

    /// The segment spans, in row order. A monolithic table under
    /// `SLICE_MIN_ROWS` rows is one segment.
    fn spans(self) -> Cow<'a, [Range<usize>]> {
        match self {
            Source::Whole(t) => Cow::Owned(chunk_spans(t.n_rows(), scan_chunks(t.n_rows()))),
            Source::Sharded(st) => Cow::Borrowed(st.spans()),
        }
    }

    /// The columns `cols` of segment `i`: a resident segment in place, a
    /// spilled one as one transient range read of only those columns.
    fn fetch(self, i: usize, cols: &[usize]) -> Result<Codes<'a>, TableError> {
        Ok(match self {
            Source::Whole(t) => Codes::Table(t),
            Source::Sharded(st) => match st.resident_segment(i) {
                Some(seg) => Codes::Table(seg.table()),
                None if cols.is_empty() => Codes::Packed(Vec::new()),
                None => {
                    let raw = st.read_columns(i, cols)?;
                    Codes::Packed(cols.iter().copied().zip(raw).collect())
                }
            },
        })
    }
}

/// The one loop over segments. Visits every segment of `src` that overlaps
/// `range` (out-of-bounds ranges clamp) in row order, fetches the union of
/// `rules`' columns once per segment, runs `scan` for every rule over the
/// in-range rows, and hands `(rule index, scan result)` to `sink` — per
/// rule strictly in segment order.
fn sweep<'a, P>(
    src: Source<'a>,
    rules: &[Rule],
    range: Range<usize>,
    scan: impl Fn(&Segment<'a>, &Rule) -> P,
    mut sink: impl FnMut(usize, P),
) -> Result<(), TableError> {
    let mut cols: Vec<usize> = rules.iter().flat_map(Rule::instantiated_columns).collect();
    cols.sort_unstable();
    cols.dedup();
    for (i, span) in src.spans().iter().enumerate() {
        let rows = span.start.max(range.start)..span.end.min(range.end);
        if rows.is_empty() {
            continue;
        }
        let codes = src.fetch(i, &cols)?;
        // The monolithic table's row 0 is global row 0, a shard's its span's.
        let start = match src {
            Source::Whole(_) => 0,
            Source::Sharded(_) => span.start,
        };
        let seg = Segment { codes, start, rows };
        for (r, rule) in rules.iter().enumerate() {
            sink(r, scan(&seg, rule));
        }
    }
    Ok(())
}

/// The count sink. Counts are exact integers, so per-segment `u64`
/// subtotals add up to the monolithic count bitwise.
fn count_rules_in(src: Source<'_>, rules: &[Rule]) -> Result<Vec<f64>, TableError> {
    let mut counts = vec![0u64; rules.len()];
    sweep(src, rules, 0..usize::MAX, Segment::count, |rule, c| {
        counts[rule] += c
    })?;
    Ok(counts.into_iter().map(|c| c as f64).collect())
}

// ---------------------------------------------------------------------------
// The scans
// ---------------------------------------------------------------------------

/// All row ids of `table` covered by `rule` (ascending) — the segment-tier
/// form of [`crate::covered_rows`], byte-identical to it on any shard
/// count. Resident shards are scanned in place; spilled ones range-read
/// only the rule's columns.
pub fn try_covered_rows_sharded(
    table: &ShardedTable,
    rule: &Rule,
) -> Result<Vec<RowId>, TableError> {
    try_covered_rows_sharded_range(table, rule, 0..table.n_rows())
}

/// All row ids in `range` covered by `rule` (ascending), reading only the
/// shards that overlap the range and scanning only the in-range rows of
/// those (out-of-bounds ranges clamp) — one epoch's appended rows, say,
/// without rescanning the table.
pub fn try_covered_rows_sharded_range(
    table: &ShardedTable,
    rule: &Rule,
    range: Range<usize>,
) -> Result<Vec<RowId>, TableError> {
    let (src, rule) = (Source::Sharded(table), std::slice::from_ref(rule));
    let mut out: Vec<RowId> = Vec::new();
    sweep(src, rule, range, Segment::covered, |_, hits| {
        out.extend(hits)
    })?;
    Ok(out)
}

/// Exact counts of every rule in one pass over the sharded table — the
/// segment-tier form of [`crate::count_rules`], bit-identical to it.
pub fn try_count_rules_sharded(
    table: &ShardedTable,
    rules: &[Rule],
) -> Result<Vec<f64>, TableError> {
    count_rules_in(Source::Sharded(table), rules)
}

/// Exact counts of `rules` over `store` (at the pinned epoch for live
/// storage), equal to [`crate::count_rules`] over the same rows — the scan
/// behind the explorer's exact-count refresh.
pub fn try_count_rules_in_store(
    store: &TableStore,
    rules: &[Rule],
) -> Result<Vec<f64>, TableError> {
    count_rules_in(Source::of(store), rules)
}

/// Sweeps `range` of `store` **once for a whole batch of rules** (paper
/// §4.3: all of a drill-down's samples "in a single pass through the
/// table"): `sink(i, rows)` receives `rules[i]`'s covered rows in one
/// segment, ascending. Per rule, the slices arrive in segment order and
/// concatenate to exactly [`crate::covered_rows`] of the same rows clipped
/// to `range`, whichever rules share the batch and however the rows are
/// stored — so a consumer that folds the stream in order (a keyed
/// reservoir) ends where a rule-at-a-time scan would leave it.
pub fn try_scan_rules_in_store(
    store: &TableStore,
    rules: &[Rule],
    range: Range<usize>,
    mut sink: impl FnMut(usize, &[RowId]),
) -> Result<(), TableError> {
    let src = Source::of(store);
    sweep(src, rules, range, Segment::covered, |i, rows| {
        sink(i, &rows)
    })
}

// ---------------------------------------------------------------------------
// Searching rows of a segmented store
// ---------------------------------------------------------------------------

/// Algorithm 2 over the rows a [`ShardedView`] names: gathers them into an
/// in-memory table ([`ShardedTable::try_gather_rows`] — one segment at a
/// time, spilled ones read transiently) and runs the one search kernel on
/// it, which is what the sampling layer and BRS do for every request over
/// segmented storage. Position `i` of the gathered table is position `i`
/// of the view, so `covered_weight` and the view's weights carry over
/// unchanged and the result is bit-identical to
/// [`crate::find_best_marginal_rule`] on the same rows gathered from the
/// equivalent monolithic table, for any shard count, resident or spilled.
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

    /// A spilling layout: every scan runs against the raw (pushdown) path.
    fn spilled(table: &Table, shards: usize) -> Arc<ShardedTable> {
        Arc::new(
            ShardedTable::from_table(
                table,
                &ShardConfig::spilling(shards, 0, std::env::temp_dir()),
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
    fn spilled_scans_read_each_shard_once_per_batch_and_resident_ones_never() {
        let table = t();
        let st = spilled(&table, 5);
        let rules = vec![
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
        ];
        // Spilled shards are range-read transiently: one load per shard per
        // scan, and a shard stays spilled however often it is read.
        let n = st.n_shards() as u64;
        try_covered_rows_sharded(&st, &rules[1]).unwrap();
        assert_eq!(st.loads(), n);
        try_count_rules_sharded(&st, &rules).unwrap();
        assert_eq!(st.loads(), 2 * n);
        // A batch shares the fetch — one read per shard, not per rule — and
        // a batch of trivial rules reads nothing.
        let store = TableStore::Sharded(st.clone());
        let mut hits = [0usize; 2];
        try_scan_rules_in_store(&store, &rules, 0..10, |i, rows| hits[i] += rows.len()).unwrap();
        assert_eq!((hits, st.loads()), ([7, 4], 3 * n));
        try_scan_rules_in_store(&store, &[Rule::trivial(3)], 0..10, |_, rows| {
            hits[0] += rows.len()
        })
        .unwrap();
        assert_eq!((hits[0], st.loads()), (17, 3 * n));
        assert!((0..st.n_shards()).all(|i| st.resident_segment(i).is_none()));
        // Resident shards are scanned in place: no load at all.
        let resident = sharded(&table, 5);
        try_count_rules_sharded(&resident, &rules).unwrap();
        assert_eq!(resident.loads(), 0);
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
        assert_eq!(
            try_count_rules_in_store(&whole, &rules).unwrap(),
            vec![10.0, 7.0, 4.0]
        );
        for store in [
            whole,
            TableStore::Sharded(sharded(&table, 3)),
            TableStore::Sharded(spilled(&table, 4)),
        ] {
            assert_eq!(
                try_count_rules_in_store(&store, &rules).unwrap(),
                vec![10.0, 7.0, 4.0]
            );
            // The batched scan, whole and clipped to a range: per rule the
            // slices concatenate to the monolithic scan.
            for range in [0..10, 3..8, 6..99] {
                let mut streams: Vec<Vec<RowId>> = vec![Vec::new(); rules.len()];
                try_scan_rules_in_store(&store, &rules, range.clone(), |i, rows| {
                    streams[i].extend_from_slice(rows)
                })
                .unwrap();
                for (rule, stream) in rules.iter().zip(&streams) {
                    let mut want = covered_rows(&table, rule);
                    want.retain(|&r| range.contains(&(r as usize)));
                    assert_eq!(stream, &want, "{rule:?} over {range:?}");
                }
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
