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
//! * [`try_find_best_marginal_rule_sharded`] — Algorithm 2 run directly
//!   over segments, bit-identical to [`crate::find_best_marginal_rule`] on
//!   the equivalent monolithic view. No product path calls it (searches run
//!   on samples); it is kept as the measured candidate for a single
//!   segment-run kernel (the benchmark's `core.search_sharded_ratio`).
//!
//! Everything is **fallible-only**: a damaged spill file surfaces as
//! [`TableError::Corrupt`]/[`TableError::Io`], so a session gets an error
//! response instead of a crash.
//!
//! ## Bit-parity with the monolithic scans
//!
//! 1. the shard layout partitions the row range in order, so iterating
//!    shards in index order visits rows (or view positions) in exactly the
//!    monolithic order;
//! 2. coverage and count scans produce integers — hit lists concatenate in
//!    shard order, counts add exactly;
//! 3. the search updates every float accumulator **shard-after-shard into
//!    one shared accumulator** — the same operation sequence the monolithic
//!    scan performs — while parallelism comes from *disjoint* accumulators
//!    (one per column or candidate group, threaded through the shard loop
//!    by [`crate::exec::parallel_map`], which returns them in job order).
//!    Unit-weight pass-1 counts additionally fan out per shard run with
//!    private `u64` partials merged by [`crate::exec::reduce_pairwise`] —
//!    integer addition, hence still exact.
//!
//! So results are identical for any shard count, resident budget, eviction
//! policy, construction path and thread count: eviction and spill reload
//! only change when bytes are in memory, never which bytes. Segment `Arc`s
//! a scan holds in flight are **pinned** in the residency cache (they count
//! against the budget rather than escaping it), which throttles memory,
//! never results. `tests/shard_parity.rs` asserts all of this.
//!
//! ## Spill-tier predicate pushdown
//!
//! Scans never force a shard's local→global decode. Each shard is consumed
//! **in whichever form the residency cache holds**
//! ([`sdd_table::SegmentData`]):
//!
//! * a **decoded** segment is a small table of global codes, scanned by the
//!   same span routines the monolithic scans use (`covered_rows_span`,
//!   `count_rule_span` in [`crate::kernel`]) — there is no second
//!   implementation;
//! * a **raw** segment is scanned as packed 1/2/4-byte local codes straight
//!   out of the spill coding, after translating each rule predicate into
//!   the shard's local code space through its `remap` — a predicate value
//!   absent from `remap` covers zero rows, so the whole shard is skipped
//!   without touching a row. This arm hides the spill format and stays
//!   separate.
//!
//! Coverage and count scans that miss the cache range-read only the rule's
//! columns ([`ShardedTable::read_columns`]) and leave residency
//! undisturbed; the search loads the raw form into the cache
//! ([`ShardedTable::segment_data`]) so later passes rescan it for free.
//! Raw-form parity holds by construction: a local-code equality scan hits
//! exactly the rows the global-code scan hits; unit-weight histograms
//! scatter local `u64` counts through `remap`; weighted `f64` histograms
//! use *swap-in/swap-out* (at shard entry each local slot borrows its
//! global slot's running value, rows accumulate in row order, shard exit
//! writes the values back — `remap` is injective, so every global slot's
//! float operation sequence is exactly the monolithic one); pass-j dense
//! cells premultiply `remap` by the group strides so cell indices are
//! identical to the decoded scan's. The equality-compare inner loops
//! dispatch through [`crate::accel`] (AVX2 with scalar fallback); SIMD
//! changes neither positions nor order.

use crate::accel;
use crate::exec;
use crate::kernel::{
    build_groups, count_rule_span, covered_rows_span, covered_rows_with_threads, generate_level,
    level_blocks, pass1_candidates, pick_winner, CandStat, Group, Pass1Cands, SearchScratch,
};
use crate::marginal::{BestMarginal, SearchOptions, SearchStats};
use crate::{Rule, WeightFn};
use rustc_hash::FxHashMap;
use sdd_table::{
    LocalCodes, RawColumn, RawSegment, RowId, SegmentData, ShardRun, ShardSegment, ShardedTable,
    ShardedView, TableError, TableStore,
};
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Pushdown plumbing: fetching shard columns in their cheapest form and
// translating rule predicates into local code space.
// ---------------------------------------------------------------------------

/// The column data one coverage scan obtained for one shard, in whatever
/// form was cheapest to get.
enum FetchedCols {
    /// The cached decoded segment (global codes).
    Decoded(Arc<ShardSegment>),
    /// The cached raw segment (every column, packed local codes).
    Raw(Arc<RawSegment>),
    /// A transient range read of just the requested columns, in request
    /// order — never enters the residency cache.
    Transient(Vec<RawColumn>),
}

/// One shard's fetched columns plus the request list (which indexes the
/// transient form).
struct ShardCols<'a> {
    cols: &'a [usize],
    data: FetchedCols,
}

impl ShardCols<'_> {
    /// The decoded segment, when that form was cached.
    fn decoded(&self) -> Option<&ShardSegment> {
        match &self.data {
            FetchedCols::Decoded(seg) => Some(seg),
            _ => None,
        }
    }

    /// Column `c` in spill coding (`None` when the decoded form is held).
    /// `c` must be one of the requested columns.
    fn raw_col(&self, c: usize) -> Option<&RawColumn> {
        match &self.data {
            FetchedCols::Decoded(_) => None,
            FetchedCols::Raw(r) => Some(r.col(c)),
            FetchedCols::Transient(v) => {
                let k = self
                    .cols
                    .iter()
                    .position(|&x| x == c)
                    .expect("column was fetched");
                Some(&v[k])
            }
        }
    }
}

/// Fetches `cols` of one shard for a coverage scan: whatever form is
/// cached, else a transient range read of only those columns (residency
/// undisturbed).
fn fetch_cols<'a>(
    st: &ShardedTable,
    shard: usize,
    cols: &'a [usize],
) -> Result<ShardCols<'a>, TableError> {
    let data = match st.cached_data(shard) {
        Some(SegmentData::Decoded(seg)) => FetchedCols::Decoded(seg),
        Some(SegmentData::Raw(raw)) => FetchedCols::Raw(raw),
        None if st.spill_path(shard).is_some() => {
            FetchedCols::Transient(st.read_columns(shard, cols)?)
        }
        // Fully-resident tables always hit the cache; kept total anyway.
        None => FetchedCols::Decoded(st.try_segment(shard)?),
    };
    Ok(ShardCols { cols, data })
}

/// Translates `rule`'s predicates on `cols` into the shard's local code
/// space. `None` ⇒ some predicate value never occurs in this shard
/// (absent from the column's `remap`): the rule covers zero rows here and
/// the caller skips the shard without touching its rows.
fn local_predicates<'a>(
    f: &'a ShardCols<'_>,
    rule: &Rule,
    cols: &[usize],
) -> Option<Vec<(&'a LocalCodes, u32)>> {
    cols.iter()
        .map(|&c| {
            let rc = f.raw_col(c).expect("raw form");
            rc.local_of_global(rule.code(c)).map(|l| (rc.codes(), l))
        })
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

/// The ids (`span.start + local`) of `rule`'s covered rows in one full
/// shard, ascending. The decoded form runs the shared span filter over the
/// segment's own table; the raw form scans packed local codes after
/// predicate translation (first column via the SIMD equality scan,
/// remaining columns by survivor filtering).
fn covered_in_shard(
    f: &ShardCols<'_>,
    rule: &Rule,
    cols: &[usize],
    span: &Range<usize>,
) -> Vec<RowId> {
    let base = span.start as u32;
    if let Some(seg) = f.decoded() {
        return covered_rows_span(seg.table(), rule, cols, 0..span.len(), base);
    }
    let mut hits: Vec<u32> = Vec::new();
    // `None`: a predicate value is absent from remap — a zero-count shard.
    if let Some(preds) = local_predicates(f, rule, cols) {
        let (&(first_codes, first_want), rest) = preds.split_first().expect("non-empty");
        positions_eq_local(first_codes, first_want, base, &mut hits);
        for &(codes, want) in rest {
            hits.retain(|&r| codes.at((r - base) as usize) == want);
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// Coverage scans
// ---------------------------------------------------------------------------

/// All row ids of `table` covered by `rule` (ascending) — the segment-tier
/// form of [`crate::covered_rows`]: shards are filtered in index order and
/// the per-shard hit lists concatenate, so the output is byte-identical to
/// the monolithic scan on any shard count. Cached shards are scanned in
/// place (decoded or raw); misses range-read only the rule's columns.
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
/// det-order: counts are exact integers, so per-shard `u64` subtotals add
/// up to the monolithic count bitwise — which frees each shard to use the
/// SIMD count kernels over whichever form it holds.
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
/// decoded segment's table; over the raw form, the vectorized local-code
/// count for single-column rules and the survivor count of
/// [`covered_in_shard`] for wider ones.
fn count_rule_in_shard(f: &ShardCols<'_>, rule: &Rule, n_rows: usize) -> u64 {
    if let Some(seg) = f.decoded() {
        return count_rule_span(seg.table(), rule, 0..n_rows);
    }
    let cols: Vec<usize> = rule.instantiated_columns().collect();
    match cols[..] {
        [] => n_rows as u64,
        // A value absent from remap covers zero rows in this shard.
        [_] => local_predicates(f, rule, &cols)
            .map_or(0, |preds| count_eq_local(preds[0].0, preds[0].1) as u64),
        _ => covered_in_shard(f, rule, &cols, &(0..n_rows)).len() as u64,
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
// Algorithm 2 over sharded storage
// ---------------------------------------------------------------------------

/// Runs Algorithm 2 over a sharded view — the per-shard counting kernel.
///
/// Candidate generation, pruning, group layout, and winner selection are
/// the exact code the monolithic kernel runs
/// ([`crate::kernel`] shares them); only the row scans differ, and those
/// follow the determinism contract in the module docs — so the result is
/// bit-identical to [`crate::find_best_marginal_rule`] on the equivalent
/// monolithic view, for any shard count, resident budget, and thread count
/// (det-order: float merges delegate to the pass helpers below, which
/// replay the monolithic operation order or reduce pairwise).
/// Shards are consumed in whichever cached form they hold; spilled shards
/// are counted straight off their packed local codes (see the module docs'
/// pushdown section).
pub fn try_find_best_marginal_rule_sharded(
    view: &ShardedView,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> Result<Option<BestMarginal>, TableError> {
    assert_eq!(
        covered_weight.len(),
        view.len(),
        "covered_weight must align with view"
    );
    let st = view.table();
    let header = st.header();
    let n_cols = st.n_columns();
    let base = opts.base.clone().unwrap_or_else(|| Rule::trivial(n_cols));
    let free_cols: Vec<usize> = (0..n_cols).filter(|&c| base.is_star(c)).collect();
    let max_size = opts
        .max_rule_size
        .unwrap_or(free_cols.len())
        .min(free_cols.len());
    if max_size == 0 || view.is_empty() {
        return Ok(None);
    }

    let runs = view.shard_runs();
    let threads = exec::threads_for_rows(view.len());

    let mut stats = SearchStats::default();
    let mut counted: FxHashMap<Rule, CandStat> = FxHashMap::default();
    let mut best_h = 0.0f64;

    // ---- Pass 1: per-shard columnar counting. ----
    stats.passes = 1;
    let col_counts = pass1_counts_sharded(view, &runs, &free_cols, threads)?;
    let cands: Vec<Pass1Cands> = free_cols
        .iter()
        .enumerate()
        .map(|(fi, &c)| pass1_candidates(header, &base, c, &col_counts[fi], weight, opts))
        .collect();
    let col_marginals =
        pass1_marginals_sharded(view, &runs, &free_cols, &cands, covered_weight, threads)?;

    let mut level: Vec<Rule> = Vec::new();
    for (fi, cand) in cands.iter().enumerate() {
        stats.generated += cand.generated;
        stats.pruned += cand.pruned;
        stats.counted += cand.rules.len();
        let c = free_cols[fi];
        for rule in &cand.rules {
            let code = rule.code(c) as usize;
            let stat = CandStat {
                count: col_counts[fi][code],
                marginal: col_marginals[fi][code],
                weight: cand.wtab[code],
            };
            counted.insert(rule.clone(), stat);
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
        }
        level.extend(cand.rules.iter().cloned());
    }

    // ---- Passes 2..: shared a-priori generation, per-shard counting. ----
    let blocks = level_blocks(&level, &base);
    let mut current = level;
    for _pass in 2..=max_size {
        let (next, cand_weights) = generate_level(
            header, &base, &blocks, &current, &counted, weight, opts, best_h, &mut stats,
        );
        if next.is_empty() {
            break;
        }
        stats.passes += 1;
        stats.counted += next.len();

        build_groups(scratch, header, &base, &next, view.len());
        count_level_sharded(view, &runs, scratch, &cand_weights, covered_weight, threads)?;

        for (cand, stat) in next.iter().zip(&scratch.cstats) {
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
            counted.insert(cand.clone(), *stat);
        }
        current = next;
    }

    Ok(pick_winner(&counted, stats))
}

/// One column's pass-1 unit count over one run, as exact `u64` partials.
/// Raw shards histogram in local code space and scatter through `remap`
/// (integer addition — associative, exact).
fn pass1_unit_counts_run(
    view: &ShardedView,
    run: &ShardRun,
    data: &SegmentData,
    col: usize,
    card: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; card];
    match data {
        SegmentData::Decoded(seg) => {
            let codes = seg.col(col);
            for pos in run.positions.clone() {
                counts[codes[seg.local(view.row_at(pos))] as usize] += 1;
            }
        }
        SegmentData::Raw(raw) => {
            let rc = raw.col(col);
            let start = raw.span().start;
            let codes = rc.codes();
            let mut lhist = vec![0u64; rc.cardinality()];
            for pos in run.positions.clone() {
                let local = view.row_at(pos) as usize - start;
                lhist[codes.at(local) as usize] += 1;
            }
            for (l, &g) in rc.remap().iter().enumerate() {
                counts[g as usize] += lhist[l];
            }
        }
    }
    counts
}

/// One column's weighted pass-1 count accumulation over one run, in row
/// order (det-order: runs arrive in position order, so the float operation
/// sequence is the monolithic one). Raw shards use the swap-in/swap-out
/// trick (module docs): local
/// accumulators borrow and return the global slots' running values, so the
/// float operation sequence matches the decoded scan exactly.
fn pass1_count_run(
    view: &ShardedView,
    run: &ShardRun,
    data: &SegmentData,
    col: usize,
    counts: &mut [f64],
) {
    match data {
        SegmentData::Decoded(seg) => {
            let codes = seg.col(col);
            for pos in run.positions.clone() {
                counts[codes[seg.local(view.row_at(pos))] as usize] += view.weight_at(pos);
            }
        }
        SegmentData::Raw(raw) => {
            let rc = raw.col(col);
            let start = raw.span().start;
            let codes = rc.codes();
            let remap = rc.remap();
            let mut lacc: Vec<f64> = remap.iter().map(|&g| counts[g as usize]).collect();
            for pos in run.positions.clone() {
                let local = view.row_at(pos) as usize - start;
                lacc[codes.at(local) as usize] += view.weight_at(pos);
            }
            for (l, &g) in remap.iter().enumerate() {
                counts[g as usize] = lacc[l];
            }
        }
    }
}

/// Pass-1 counts per free column.
///
/// Unit-weight views fan out **one task per shard run** — the task fetches
/// its segment data exactly once and counts every free column over it —
/// with private `u64` partials, merged per column in run order by
/// [`exec::reduce_pairwise`]: integer addition is associative, so this is
/// exact and identical to the serial sweep, and at most `threads` segments
/// are pinned at a time. Weighted views thread one `f64` accumulator per
/// column through the runs in order (columns in parallel, runs
/// sequential), reproducing the monolithic float operation order.
fn pass1_counts_sharded(
    view: &ShardedView,
    runs: &[ShardRun],
    free_cols: &[usize],
    threads: usize,
) -> Result<Vec<Vec<f64>>, TableError> {
    let st = view.table();
    if view.weights().is_none() && threads > 1 {
        let per_run: Vec<Result<Vec<Vec<u64>>, TableError>> =
            exec::parallel_map(threads, runs.to_vec(), |run| {
                let data = st.segment_data(run.shard)?;
                Ok(free_cols
                    .iter()
                    .map(|&c| pass1_unit_counts_run(view, &run, &data, c, st.cardinality(c)))
                    .collect())
            });
        // Transpose to per-column partial lists (run order preserved).
        let mut col_parts: Vec<Vec<Vec<u64>>> = (0..free_cols.len())
            .map(|_| Vec::with_capacity(runs.len()))
            .collect();
        for run_out in per_run {
            for (fi, counts) in run_out?.into_iter().enumerate() {
                col_parts[fi].push(counts);
            }
        }
        return Ok(col_parts
            .into_iter()
            .map(|parts| {
                let merged = exec::reduce_pairwise(parts, |a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                });
                merged.into_iter().map(|c| c as f64).collect()
            })
            .collect());
    }

    let mut accs: Vec<(usize, Vec<f64>)> = free_cols
        .iter()
        .enumerate()
        .map(|(fi, &c)| (fi, vec![0.0f64; st.cardinality(c)]))
        .collect();
    for run in runs {
        let data = st.segment_data(run.shard)?;
        accs = exec::parallel_map(threads, accs, |(fi, mut counts)| {
            pass1_count_run(view, run, &data, free_cols[fi], &mut counts);
            (fi, counts)
        });
    }
    Ok(accs.into_iter().map(|(_, c)| c).collect())
}

/// Pass-1 marginal sweep: one shared `f64` accumulator per column, runs in
/// order (columns in parallel) — det-order: the monolithic operation order
/// exactly, one run at a time.
/// Raw shards swap the accumulator and the weight table into local code
/// space for the run (`lw[l] = wtab[remap[l]]` is a pure relabeling).
fn pass1_marginals_sharded(
    view: &ShardedView,
    runs: &[ShardRun],
    free_cols: &[usize],
    cands: &[Pass1Cands],
    covered_weight: &[f64],
    threads: usize,
) -> Result<Vec<Vec<f64>>, TableError> {
    let st = view.table();
    let mut accs: Vec<(usize, Vec<f64>)> = free_cols
        .iter()
        .enumerate()
        .map(|(fi, &c)| (fi, vec![0.0f64; st.cardinality(c)]))
        .collect();
    for run in runs {
        let data = st.segment_data(run.shard)?;
        accs = exec::parallel_map(threads, accs, |(fi, mut marginals)| {
            let wtab = &cands[fi].wtab;
            match &data {
                SegmentData::Decoded(seg) => {
                    let codes = seg.col(free_cols[fi]);
                    for pos in run.positions.clone() {
                        let code = codes[seg.local(view.row_at(pos))] as usize;
                        let w = wtab[code];
                        marginals[code] += view.weight_at(pos) * (w - w.min(covered_weight[pos]));
                    }
                }
                SegmentData::Raw(raw) => {
                    let rc = raw.col(free_cols[fi]);
                    let start = raw.span().start;
                    let codes = rc.codes();
                    let remap = rc.remap();
                    let mut lacc: Vec<f64> = remap.iter().map(|&g| marginals[g as usize]).collect();
                    let lw: Vec<f64> = remap.iter().map(|&g| wtab[g as usize]).collect();
                    for pos in run.positions.clone() {
                        let local = view.row_at(pos) as usize - start;
                        let code = codes.at(local) as usize;
                        let w = lw[code];
                        lacc[code] += view.weight_at(pos) * (w - w.min(covered_weight[pos]));
                    }
                    for (l, &g) in remap.iter().enumerate() {
                        marginals[g as usize] = lacc[l];
                    }
                }
            }
            (fi, marginals)
        });
    }
    Ok(accs.into_iter().map(|(_, m)| m).collect())
}

/// One pass-j group's accumulator, threaded through the shard runs.
enum GroupAcc {
    Dense {
        counts: Vec<f64>,
        marginals: Vec<f64>,
        wvec: Vec<f64>,
    },
    Sparse {
        acc: Vec<(f64, f64)>,
    },
}

/// Counts one level's candidate groups over the sharded view, writing
/// per-candidate stats into `scratch.cstats`. Groups run in parallel; each
/// group's accumulator sees the runs sequentially in order, so the float
/// operation order matches the monolithic [`crate::kernel`] `count_level`.
/// Raw shards premultiply each group column's `remap` by its stride
/// (`lcell[l] = remap[l] * stride`, integers), so dense cell indices — and
/// hence the accumulation sequence — are identical to the decoded scan's.
fn count_level_sharded(
    view: &ShardedView,
    runs: &[ShardRun],
    scratch: &mut SearchScratch,
    cand_weights: &[f64],
    covered_weight: &[f64],
    threads: usize,
) -> Result<(), TableError> {
    let st = view.table();
    let groups: &Vec<Group> = &scratch.groups;
    let mut accs: Vec<(usize, GroupAcc)> = groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let acc = if g.is_dense() {
                let mut wvec = vec![0.0f64; g.cells];
                for &(cell, ci) in &g.cand_cells {
                    wvec[cell] = cand_weights[ci as usize];
                }
                GroupAcc::Dense {
                    counts: vec![0.0; g.cells],
                    marginals: vec![0.0; g.cells],
                    wvec,
                }
            } else {
                GroupAcc::Sparse {
                    acc: vec![(0.0, 0.0); g.order.len()],
                }
            };
            (gi, acc)
        })
        .collect();

    for run in runs {
        let data = st.segment_data(run.shard)?;
        accs = exec::parallel_map(threads, accs, |(gi, mut acc)| {
            let g = &groups[gi];
            count_group_run(view, run, &data, g, &mut acc, cand_weights, covered_weight);
            (gi, acc)
        });
    }

    let cstats = &mut scratch.cstats;
    cstats.clear();
    cstats.extend(cand_weights.iter().map(|&w| CandStat {
        count: 0.0,
        marginal: 0.0,
        weight: w,
    }));
    for (gi, acc) in accs {
        let g = &groups[gi];
        match acc {
            GroupAcc::Dense {
                counts, marginals, ..
            } => {
                for &(cell, ci) in &g.cand_cells {
                    let s = &mut cstats[ci as usize];
                    s.count = counts[cell];
                    s.marginal = marginals[cell];
                }
            }
            GroupAcc::Sparse { acc } => {
                for (&ci, (c, m)) in g.order.iter().zip(acc) {
                    let s = &mut cstats[ci as usize];
                    s.count = c;
                    s.marginal = m;
                }
            }
        }
    }
    Ok(())
}

/// One group × one run of the pass-j count, over either segment form.
fn count_group_run(
    view: &ShardedView,
    run: &ShardRun,
    data: &SegmentData,
    g: &Group,
    acc: &mut GroupAcc,
    cand_weights: &[f64],
    covered_weight: &[f64],
) {
    match acc {
        GroupAcc::Dense {
            counts,
            marginals,
            wvec,
        } => match data {
            SegmentData::Decoded(seg) => {
                for pos in run.positions.clone() {
                    let local = seg.local(view.row_at(pos));
                    let mut cell = 0usize;
                    for (&c, &stride) in g.cols.iter().zip(&g.strides) {
                        cell += seg.col(c)[local] as usize * stride;
                    }
                    let w_t = view.weight_at(pos);
                    let w = wvec[cell];
                    counts[cell] += w_t;
                    marginals[cell] += w_t * (w - w.min(covered_weight[pos]));
                }
            }
            SegmentData::Raw(raw) => {
                let start = raw.span().start;
                // Premultiplied per-column cell contributions in local code
                // space: cell = Σ remap[l] * stride, computed once per
                // (shard-local code) instead of once per row.
                let lcells: Vec<Vec<usize>> = g
                    .cols
                    .iter()
                    .zip(&g.strides)
                    .map(|(&c, &stride)| {
                        raw.col(c)
                            .remap()
                            .iter()
                            .map(|&gcode| gcode as usize * stride)
                            .collect()
                    })
                    .collect();
                let lcodes: Vec<&LocalCodes> = g.cols.iter().map(|&c| raw.col(c).codes()).collect();
                for pos in run.positions.clone() {
                    let local = view.row_at(pos) as usize - start;
                    let mut cell = 0usize;
                    for (lc, codes) in lcells.iter().zip(&lcodes) {
                        cell += lc[codes.at(local) as usize];
                    }
                    let w_t = view.weight_at(pos);
                    let w = wvec[cell];
                    counts[cell] += w_t;
                    marginals[cell] += w_t * (w - w.min(covered_weight[pos]));
                }
            }
        },
        GroupAcc::Sparse { acc } => {
            let mut wide: Vec<u32> = Vec::new();
            match data {
                SegmentData::Decoded(seg) => {
                    for pos in run.positions.clone() {
                        let local = seg.local(view.row_at(pos));
                        if let Some(p) = g.probe(&mut wide, |gc| seg.col(g.cols[gc])[local]) {
                            let w = cand_weights[g.order[p] as usize];
                            let w_t = view.weight_at(pos);
                            let slot = &mut acc[p];
                            slot.0 += w_t;
                            slot.1 += w_t * (w - w.min(covered_weight[pos]));
                        }
                    }
                }
                SegmentData::Raw(raw) => {
                    let start = raw.span().start;
                    let cols_raw: Vec<&RawColumn> = g.cols.iter().map(|&c| raw.col(c)).collect();
                    for pos in run.positions.clone() {
                        let local = view.row_at(pos) as usize - start;
                        if let Some(p) = g.probe(&mut wide, |gc| cols_raw[gc].global_at(local)) {
                            let w = cand_weights[g.order[p] as usize];
                            let w_t = view.weight_at(pos);
                            let slot = &mut acc[p];
                            slot.0 += w_t;
                            slot.1 += w_t * (w - w.min(covered_weight[pos]));
                        }
                    }
                }
            }
        }
    }
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
        let mview = TableView::with_rows_and_weights(&table, rows.clone(), weights.clone());
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
