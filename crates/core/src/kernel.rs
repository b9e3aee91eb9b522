//! The columnar counting kernel behind Algorithm 2 (paper §3.5), and the
//! columnar rule scans over global codes.
//!
//! ## The search kernel
//!
//! [`crate::marginal::find_best_marginal_rule`] runs here. Per level:
//!
//! * **pass 1** — per-column count/marginal histograms accumulated by
//!   scanning each dictionary-encoded column slice directly (one `f64` slot
//!   per code, no `Rule` construction, no hashing); rules materialize only
//!   at the candidate boundary, one per distinct surviving `(column, code)`;
//! * **pass j ≥ 2** — the level's candidates are grouped by instantiated
//!   column set. A group whose column-cardinality product fits
//!   `DENSE_CELL_CAP` is counted **probe-free** into a dense
//!   count/marginal histogram indexed by the mixed-radix cell of the row's
//!   codes; larger groups pack each candidate's codes into a `u64` (or a
//!   flat `u32` tuple beyond 64 bits) and binary-search a sorted flat
//!   `Vec`. The `Rule`-keyed map survives only at the API boundary.
//!
//! A search runs on its calling thread, one column (pass 1) or one group
//! (pass j) at a time. Every per-candidate sum is formed by one scan of the
//! whole view in row order, so results are **bit-identical** to the
//! row-at-a-time reference
//! [`crate::marginal::find_best_marginal_rule_rowwise`], whose winner
//! selection uses the same strict total order. `tests/kernel_parity.rs`
//! asserts it.
//!
//! A [`TableView`] is every row of its table, so each loop below has one
//! arm: it walks whole column slices, position `i` = row `i`. A search over
//! a subset of rows is a search over the table gathered from them
//! ([`sdd_table::TableView::gather`]); the gather preserves row order, so
//! the float operations and their order are those of the subset.
//!
//! [`SearchScratch`] owns the per-search buffers so the `k` searches of one
//! BRS run reuse allocations; each group's counting pass allocates its own
//! (candidate-bounded, not row-bounded) accumulators.
//!
//! ## Rule scans over global codes
//!
//! "Which rows of a span does a rule cover" and "how many" are the
//! block-mask scans of [`crate::accel`] over the rule's predicates on the
//! span's global codes (`span_preds`), over any [`Table`] — the monolithic
//! table (span = a slice of it) or one decoded shard segment (span = all of
//! it; see [`crate::shard`]). [`covered_rows`] and [`count_rules`] are the
//! whole-table forms; "covered positions of a view" is [`covered_rows`] of
//! the view's table, which is what the BRS covered-weight update and
//! drill-down filtering call.

use crate::accel::{self, EqPred};
use crate::marginal::{BestMarginal, SearchOptions, SearchStats};
use crate::{Rule, WeightFn};
use rustc_hash::FxHashMap;
use sdd_table::{with_codes, Code, RowId, Table, TableView};

/// Count/marginal/weight accumulator for one candidate rule (the paper's
/// per-candidate state in set `C`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandStat {
    pub(crate) count: f64,
    pub(crate) marginal: f64,
    pub(crate) weight: f64,
}

impl CandStat {
    /// Upper bound on the marginal value of any super-rule with weight ≤ mw.
    #[inline]
    pub(crate) fn super_rule_bound(&self, mw: f64) -> f64 {
        self.marginal + self.count * (mw - self.weight)
    }
}

/// Maximum cells (`Π` column cardinalities) for a pass-j group to use the
/// probe-free dense histogram (3 `f64` arrays of this many cells ≈ 3 MB).
const DENSE_CELL_CAP: usize = 1 << 17;

/// Per-free-column pass-1 state: one slot per dictionary code.
#[derive(Debug, Default, Clone)]
struct ColumnHist {
    counts: Vec<f64>,
    marginals: Vec<f64>,
}

/// The pass-1 candidate boundary of one free column: the surviving size-1
/// rules (code-ascending) plus the code → weight table.
struct Pass1Cands {
    rules: Vec<Rule>,
    /// `W(base + (col, code))` for candidate codes, `0.0` for codes that are
    /// unsupported or over the weight cap (their marginal slots are ignored).
    wtab: Vec<f64>,
    generated: usize,
    pruned: usize,
}

/// Materializes rules for the supported codes of column `col`, gates them
/// on `opts.max_weight`, and fills the code → weight table (`0.0` for
/// unsupported or over-cap codes).
///
/// det-order: one sequential code-ascending scan; the `+=` accumulators
/// are integer generation stats, and each weight slot is written once.
fn pass1_candidates(
    table: &Table,
    base: &Rule,
    col: usize,
    counts: &[f64],
    weight: &dyn WeightFn,
    opts: &SearchOptions,
) -> Pass1Cands {
    let mut wtab = vec![0.0f64; counts.len()];
    let mut rules: Vec<Rule> = Vec::new();
    let (mut generated, mut pruned) = (0usize, 0usize);
    for (code, &count) in counts.iter().enumerate() {
        if count <= 0.0 {
            continue;
        }
        generated += 1;
        let rule = base.with_value(col, code as u32);
        let w = weight.weight(&rule, table);
        if w > opts.max_weight + 1e-12 {
            pruned += 1;
            continue;
        }
        wtab[code] = w;
        rules.push(rule);
    }
    Pass1Cands {
        rules,
        wtab,
        generated,
        pruned,
    }
}

/// The frequent size-1 building blocks of a level-1 candidate list: one
/// `(free column, code)` pair per rule, in level order.
fn level_blocks(level: &[Rule], base: &Rule) -> Vec<(usize, u32)> {
    level
        .iter()
        .map(|r| {
            let c = r
                .instantiated_columns()
                .find(|c| base.is_star(*c))
                .expect("level-1 rule instantiates one free column");
            (c, r.code(c))
        })
        .collect()
}

/// One a-priori generation step (Algorithm 2, step 3.3): filters the
/// current level to survivors whose super-rule bound can still beat
/// `best_h`, extends each with later building blocks, and applies the
/// support/bound/weight prunes. Returns the next level's candidates with
/// their weights (empty → the search is done).
///
/// Pure candidate bookkeeping — no row access.
///
/// det-order: single-threaded sweep in level order; the `+=` accumulators
/// are integer search stats, never float partials.
#[allow(
    clippy::too_many_arguments,
    reason = "the level sweep's inputs and outputs, passed once per level"
)]
fn generate_level(
    table: &Table,
    base: &Rule,
    blocks: &[(usize, u32)],
    current: &[Rule],
    counted: &FxHashMap<Rule, CandStat>,
    weight: &dyn WeightFn,
    opts: &SearchOptions,
    best_h: f64,
    stats: &mut SearchStats,
) -> (Vec<Rule>, Vec<f64>) {
    let survivors: Vec<&Rule> = current
        .iter()
        .filter(|r| {
            let stat = counted[*r];
            stat.count > 0.0 && (!opts.pruning || stat.super_rule_bound(opts.max_weight) >= best_h)
        })
        .collect();

    let mut next: Vec<Rule> = Vec::new();
    let mut cand_weights: Vec<f64> = Vec::new();
    for r in survivors {
        let max_free = r
            .instantiated_columns()
            .filter(|c| base.is_star(*c))
            .last()
            .expect("survivor instantiates at least one free column");
        for &(c, v) in blocks {
            if c <= max_free {
                continue;
            }
            let cand = r.with_value(c, v);
            stats.generated += 1;

            let mut bound = f64::INFINITY;
            let mut all_present = true;
            for sc in cand.instantiated_columns().filter(|c| base.is_star(*c)) {
                let sub = cand.with_star(sc);
                match counted.get(&sub) {
                    Some(stat) => bound = bound.min(stat.super_rule_bound(opts.max_weight)),
                    None => {
                        all_present = false;
                        break;
                    }
                }
            }
            if !all_present {
                stats.pruned += 1;
                continue;
            }
            if opts.pruning && (bound < best_h || bound <= 0.0) {
                stats.pruned += 1;
                continue;
            }
            let w = weight.weight(&cand, table);
            if w > opts.max_weight + 1e-12 {
                stats.pruned += 1;
                continue;
            }
            next.push(cand);
            cand_weights.push(w);
        }
    }
    (next, cand_weights)
}

/// One level-j candidate group: all candidates instantiating the same set of
/// free columns.
#[derive(Debug, Default)]
struct Group {
    /// Absolute column indices, ascending.
    cols: Vec<usize>,
    /// Mixed-radix strides per column (dense mode).
    strides: Vec<usize>,
    /// Total dense cells (`Π` cardinalities); `0` when overflowed.
    cells: usize,
    /// Candidate (dense cell, candidate index) pairs (dense mode).
    cand_cells: Vec<(usize, u32)>,
    /// Per-column left-shifts when packing fits in 64 bits (sparse mode).
    shifts: Vec<u32>,
    /// True when sparse keys fit a single `u64`.
    packed: bool,
    /// Sorted packed keys (sparse packed mode).
    keys: Vec<u64>,
    /// Flat candidate code tuples in sorted order, stride `cols.len()`
    /// (sparse wide mode).
    wide_keys: Vec<u32>,
    /// Candidate index per sorted key (sparse modes).
    order: Vec<u32>,
}

impl Group {
    /// True when this group counts via the dense histogram.
    #[inline]
    fn is_dense(&self) -> bool {
        self.cells != 0
    }

    /// The **sorted key position** of the candidate matching each of the
    /// first `n` rows of `table` ([`NO_MATCH`] for a row no candidate
    /// matches; sparse modes only); map through `order` for the candidate
    /// index. Every row's key is built one group column at a time (one loop
    /// per column width), then each row is searched once.
    fn probe_rows(&self, table: &Table, n: usize) -> Vec<u32> {
        /// `keys[row] |= code << sh`.
        fn or_shifted<T: Code>(keys: &mut [u64], codes: &[T], sh: u32) {
            for (key, &code) in keys.iter_mut().zip(codes) {
                *key |= u64::from(code.wide()) << sh;
            }
        }
        /// Writes each row's code into slot `gi` of its `stride`-wide tuple.
        fn scatter<T: Code>(tuples: &mut [u32], codes: &[T], gi: usize, stride: usize) {
            for (slot, &code) in tuples.iter_mut().skip(gi).step_by(stride).zip(codes) {
                *slot = code.wide();
            }
        }
        let found = |pos: Option<usize>| pos.map_or(NO_MATCH, |p| p as u32);
        if self.packed {
            let mut keys = vec![0u64; n];
            for (&c, &sh) in self.cols.iter().zip(&self.shifts) {
                with_codes!(table.column(c), codes => or_shifted(&mut keys, codes, sh));
            }
            keys.iter()
                .map(|key| found(self.keys.binary_search(key).ok()))
                .collect()
        } else {
            let stride = self.cols.len();
            let mut tuples = vec![0u32; n * stride];
            for (gi, &c) in self.cols.iter().enumerate() {
                with_codes!(table.column(c), codes => scatter(&mut tuples, codes, gi, stride));
            }
            tuples
                .chunks_exact(stride)
                .map(|tuple| {
                    // Binary search over the co-sorted flat key tuples.
                    let (mut lo, mut hi) = (0usize, self.order.len());
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let cand = &self.wide_keys[mid * stride..(mid + 1) * stride];
                        match cand.cmp(tuple) {
                            std::cmp::Ordering::Less => lo = mid + 1,
                            std::cmp::Ordering::Greater => hi = mid,
                            std::cmp::Ordering::Equal => return found(Some(mid)),
                        }
                    }
                    NO_MATCH
                })
                .collect()
        }
    }
}

/// [`Group::probe_rows`]' position of a row no candidate matches.
const NO_MATCH: u32 = u32::MAX;

/// Reusable buffers for one sequence of best-marginal searches. Thread one
/// instance through the `k` greedy iterations of a BRS run (see
/// [`crate::Brs`]) so steady-state searches reuse allocations.
#[derive(Debug, Default)]
pub struct SearchScratch {
    hists: Vec<ColumnHist>,
    cstats: Vec<CandStat>,
    groups: Vec<Group>,
    /// Maps a level's column-set signature to its group index.
    group_ix: FxHashMap<Vec<u16>, usize>,
}

impl SearchScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Columnar implementation of Algorithm 2. See the module docs; results are
/// bit-identical to [`crate::marginal::find_best_marginal_rule_rowwise`].
///
/// det-order: this orchestrator's own `+=` are integer stats; every float
/// accumulator is owned by one pass helper that scans in row order.
pub(crate) fn find_best_marginal_rule_columnar(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> Option<BestMarginal> {
    assert_eq!(
        covered_weight.len(),
        view.len(),
        "covered_weight must align with view"
    );
    let table = view.table();
    let n_cols = table.n_columns();
    let base = opts.base.clone().unwrap_or_else(|| Rule::trivial(n_cols));
    let free_cols: Vec<usize> = (0..n_cols).filter(|&c| base.is_star(c)).collect();
    let max_size = opts
        .max_rule_size
        .unwrap_or(free_cols.len())
        .min(free_cols.len());
    if max_size == 0 || view.is_empty() {
        return None;
    }

    let mut stats = SearchStats::default();
    let mut counted: FxHashMap<Rule, CandStat> = FxHashMap::default();
    let mut best_h = 0.0f64;

    // ---- Pass 1: columnar per-code histograms, one free column at a time. ----
    stats.passes = 1;
    scratch.hists.resize_with(free_cols.len(), Default::default);
    let mut level: Vec<Rule> = Vec::new();
    for (&c, hist) in free_cols.iter().zip(&mut scratch.hists) {
        let card = table.cardinality(c);
        hist.counts.clear();
        hist.counts.resize(card, 0.0);
        hist.marginals.clear();
        hist.marginals.resize(card, 0.0);

        count_column(view, c, &mut hist.counts);

        // Candidate boundary: materialize rules for supported codes,
        // gate on weight, fill the code → weight table.
        let cands = pass1_candidates(table, &base, c, &hist.counts, weight, opts);

        // Marginal sweep: m[code] += w_t · (W − min(W, cov_t)). Over-cap
        // and unsupported codes have W = 0 in wtab, contributing 0 to
        // slots that are never read back.
        marginal_column(view, c, covered_weight, &cands.wtab, &mut hist.marginals);

        stats.generated += cands.generated;
        stats.pruned += cands.pruned;
        stats.counted += cands.rules.len();
        for rule in &cands.rules {
            let code = rule.code(c) as usize;
            let stat = CandStat {
                count: hist.counts[code],
                marginal: hist.marginals[code],
                weight: cands.wtab[code],
            };
            counted.insert(rule.clone(), stat);
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
        }
        level.extend(cands.rules);
    }

    // ---- Passes 2..: a-priori extension, grouped columnar counting. ----
    let blocks = level_blocks(&level, &base);

    let mut current = level;
    for _pass in 2..=max_size {
        let (next, cand_weights) = generate_level(
            table, &base, &blocks, &current, &counted, weight, opts, best_h, &mut stats,
        );
        if next.is_empty() {
            break;
        }
        stats.passes += 1;
        stats.counted += next.len();

        build_groups(scratch, table, &base, &next, view.len());
        count_level(view, covered_weight, scratch, &cand_weights);

        for (cand, stat) in next.iter().zip(&scratch.cstats) {
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
            counted.insert(cand.clone(), *stat);
        }
        current = next;
    }

    pick_winner(&counted, stats)
}

/// `counts[code] += w` over one column.
///
/// det-order: sequential scan in row order.
fn count_column(view: &TableView<'_>, col: usize, counts: &mut [f64]) {
    /// One loop per code width.
    fn count<T: Code>(codes: &[T], weights: Option<&[f64]>, counts: &mut [f64]) {
        match weights {
            None => {
                for &code in codes {
                    counts[code.idx()] += 1.0;
                }
            }
            Some(ws) => {
                for (&code, &w) in codes.iter().zip(ws) {
                    counts[code.idx()] += w;
                }
            }
        }
    }
    with_codes!(view.table().column(col), codes => count(codes, view.weights(), counts));
}

/// `marginals[code] += w_t · (wtab[code] − min(wtab[code], cov_t))` over one
/// column.
///
/// det-order: sequential scan in row order.
fn marginal_column(
    view: &TableView<'_>,
    col: usize,
    cov: &[f64],
    wtab: &[f64],
    marginals: &mut [f64],
) {
    /// One loop per code width.
    fn sweep<T: Code>(
        codes: &[T],
        view: &TableView<'_>,
        cov: &[f64],
        wtab: &[f64],
        marginals: &mut [f64],
    ) {
        for (i, &code) in codes.iter().enumerate() {
            let w = wtab[code.idx()];
            marginals[code.idx()] += view.weight_at(i) * (w - w.min(cov[i]));
        }
    }
    with_codes!(view.table().column(col), codes => sweep(codes, view, cov, wtab, marginals));
}

/// Groups a level's candidates by instantiated-column signature and builds
/// each group's dense cell map or sorted probe keys.
fn build_groups(
    scratch: &mut SearchScratch,
    table: &Table,
    base: &Rule,
    next: &[Rule],
    view_rows: usize,
) {
    scratch.groups.clear();
    scratch.group_ix.clear();

    let mut sig: Vec<u16> = Vec::new();
    let mut cand_group: Vec<u32> = Vec::with_capacity(next.len());
    for cand in next {
        sig.clear();
        sig.extend(
            cand.instantiated_columns()
                .filter(|&c| base.is_star(c))
                .map(|c| c as u16),
        );
        let gi = match scratch.group_ix.get(&sig) {
            Some(&gi) => gi,
            None => {
                let gi = scratch.groups.len();
                scratch.group_ix.insert(sig.clone(), gi);
                let cols: Vec<usize> = sig.iter().map(|&c| c as usize).collect();

                // Dense layout: mixed-radix strides over the cardinalities.
                let mut strides = Vec::with_capacity(cols.len());
                let mut cells: usize = 1;
                for &c in &cols {
                    strides.push(cells);
                    cells = cells.saturating_mul(table.cardinality(c).max(1));
                }
                // Dense only when the cell space is bounded both
                // absolutely and relative to the rows actually counted —
                // a small drill-down view over wide columns must not pay
                // O(cells) zeroing for O(rows) work.
                let dense = cells <= DENSE_CELL_CAP && cells <= view_rows.saturating_mul(8).max(64);

                // Sparse layout: packed bit widths.
                let mut shifts = Vec::with_capacity(cols.len());
                let mut total_bits = 0u32;
                for &c in &cols {
                    shifts.push(total_bits.min(63));
                    let card = table.cardinality(c).max(2) as u64;
                    total_bits += 64 - (card - 1).leading_zeros();
                }

                scratch.groups.push(Group {
                    cols,
                    strides,
                    cells: if dense { cells } else { 0 },
                    cand_cells: Vec::new(),
                    shifts,
                    packed: total_bits <= 64,
                    keys: Vec::new(),
                    wide_keys: Vec::new(),
                    order: Vec::new(),
                });
                gi
            }
        };
        cand_group.push(gi as u32);
    }

    for g in &mut scratch.groups {
        g.cand_cells.clear();
        g.keys.clear();
        g.wide_keys.clear();
        g.order.clear();
    }
    for (ci, cand) in next.iter().enumerate() {
        let g = &mut scratch.groups[cand_group[ci] as usize];
        if g.is_dense() {
            let mut cell = 0usize;
            for (&c, &stride) in g.cols.iter().zip(&g.strides) {
                cell += cand.code(c) as usize * stride;
            }
            g.cand_cells.push((cell, ci as u32));
        } else if g.packed {
            let mut key = 0u64;
            for (&c, &sh) in g.cols.iter().zip(&g.shifts) {
                key |= (cand.code(c) as u64) << sh;
            }
            g.keys.push(key);
            g.order.push(ci as u32);
        } else {
            for &c in &g.cols {
                g.wide_keys.push(cand.code(c));
            }
            g.order.push(ci as u32);
        }
    }
    // Sort sparse probe keys.
    for g in &mut scratch.groups {
        if g.is_dense() || g.order.is_empty() {
            continue;
        }
        if g.packed {
            let mut ix: Vec<u32> = (0..g.keys.len() as u32).collect();
            ix.sort_by_key(|&i| g.keys[i as usize]);
            g.keys = ix.iter().map(|&i| g.keys[i as usize]).collect();
            g.order = ix.iter().map(|&i| g.order[i as usize]).collect();
        } else {
            let stride = g.cols.len();
            let mut ix: Vec<u32> = (0..g.order.len() as u32).collect();
            ix.sort_by(|&a, &b| {
                let ka = &g.wide_keys[a as usize * stride..(a as usize + 1) * stride];
                let kb = &g.wide_keys[b as usize * stride..(b as usize + 1) * stride];
                ka.cmp(kb)
            });
            let mut sorted_keys = Vec::with_capacity(g.wide_keys.len());
            for &i in &ix {
                sorted_keys.extend_from_slice(
                    &g.wide_keys[i as usize * stride..(i as usize + 1) * stride],
                );
            }
            g.wide_keys = sorted_keys;
            g.order = ix.iter().map(|&i| g.order[i as usize]).collect();
        }
    }
}

/// Counts one level's candidates over the view, one group at a time,
/// writing per-candidate stats into `scratch.cstats`. Every group owns its
/// accumulators and scans the whole view in row order.
fn count_level(
    view: &TableView<'_>,
    covered_weight: &[f64],
    scratch: &mut SearchScratch,
    cand_weights: &[f64],
) {
    scratch.cstats.clear();
    scratch
        .cstats
        .extend(cand_weights.iter().map(|&w| CandStat {
            count: 0.0,
            marginal: 0.0,
            weight: w,
        }));
    for g in &scratch.groups {
        if g.is_dense() {
            count_group_dense(view, covered_weight, g, &mut scratch.cstats);
        } else {
            count_group_sparse(view, covered_weight, g, &mut scratch.cstats);
        }
    }
}

/// Probe-free dense counting of one group: a mixed-radix cell histogram over
/// the group's columns, then candidate cells read off into `cstats`.
///
/// det-order: sequential scan in row order.
fn count_group_dense(view: &TableView<'_>, cov: &[f64], g: &Group, cstats: &mut [CandStat]) {
    let mut counts = vec![0.0f64; g.cells];
    let mut marginals = vec![0.0f64; g.cells];
    let mut wvec = vec![0.0f64; g.cells];
    for &(cell, ci) in &g.cand_cells {
        wvec[cell] = cstats[ci as usize].weight;
    }
    // Each row's cell, accumulated one column at a time in integer
    // arithmetic (one loop per column width); `cells <= DENSE_CELL_CAP`, so
    // every partial sum fits a `u32`.
    fn add_cells<T: Code>(cells: &mut [u32], codes: &[T], stride: u32) {
        for (cell, &code) in cells.iter_mut().zip(codes) {
            *cell += code.wide() * stride;
        }
    }
    let mut row_cells = vec![0u32; cov.len()];
    for (&c, &stride) in g.cols.iter().zip(&g.strides) {
        let stride = stride as u32;
        with_codes!(view.table().column(c), codes => add_cells(&mut row_cells, codes, stride));
    }

    for (row, (&cov_t, &cell)) in cov.iter().zip(&row_cells).enumerate() {
        let cell = cell as usize;
        let w_t = view.weight_at(row);
        let w = wvec[cell];
        counts[cell] += w_t;
        marginals[cell] += w_t * (w - w.min(cov_t));
    }

    for &(cell, ci) in &g.cand_cells {
        let stat = &mut cstats[ci as usize];
        stat.count = counts[cell];
        stat.marginal = marginals[cell];
    }
}

/// Sparse counting of one group via packed-key binary search (groups whose
/// cell space exceeds [`DENSE_CELL_CAP`]), written into `cstats`.
///
/// det-order: sequential scan in row order.
fn count_group_sparse(view: &TableView<'_>, cov: &[f64], g: &Group, cstats: &mut [CandStat]) {
    // Accumulate per sorted-key position — dense in the group's candidate
    // count, no hashing on the row loop.
    let mut acc: Vec<(f64, f64)> = vec![(0.0, 0.0); g.order.len()];
    let positions = g.probe_rows(view.table(), cov.len());
    for (row, (&cov_t, &pos)) in cov.iter().zip(&positions).enumerate() {
        if pos != NO_MATCH {
            let pos = pos as usize;
            let w = cstats[g.order[pos] as usize].weight;
            let w_t = view.weight_at(row);
            let slot = &mut acc[pos];
            slot.0 += w_t;
            slot.1 += w_t * (w - w.min(cov_t));
        }
    }
    for (&ci, (count, marginal)) in g.order.iter().zip(acc) {
        let stat = &mut cstats[ci as usize];
        stat.count = count;
        stat.marginal = marginal;
    }
}

/// Selects the winner from the counted set: max marginal, ties broken toward
/// higher weight then lexicographically smaller codes (identical to the
/// reference implementation).
fn pick_winner(counted: &FxHashMap<Rule, CandStat>, stats: SearchStats) -> Option<BestMarginal> {
    let mut best: Option<(&Rule, &CandStat)> = None;
    for (rule, stat) in counted {
        if stat.marginal <= 0.0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((brule, bstat)) => {
                (stat.marginal, stat.weight, std::cmp::Reverse(rule.codes()))
                    > (
                        bstat.marginal,
                        bstat.weight,
                        std::cmp::Reverse(brule.codes()),
                    )
            }
        };
        if better {
            best = Some((rule, stat));
        }
    }
    best.map(|(rule, stat)| BestMarginal {
        rule: rule.clone(),
        marginal_value: stat.marginal,
        count: stat.count,
        weight: stat.weight,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Columnar rule scans over global codes (shared by BRS, drill-down filtering,
// the sampling layer's full-table scans, and the decoded arm of the segment
// scans in `crate::shard`).
// ---------------------------------------------------------------------------

/// All row ids of `table` covered by `rule` (ascending), via the block-mask
/// scan — the sampling layer's full-table scan over monolithic storage,
/// and over a sample's own table the scan behind the BRS covered-weight
/// update, drill-down filtering and Combine.
pub fn covered_rows(table: &Table, rule: &Rule) -> Vec<RowId> {
    let n = table.n_rows();
    span_preds(table, rule, 0..n).map_or_else(Vec::new, |preds| accel::hits(&preds, n, 0))
}

/// `rule`'s predicates over rows `span` of `table` (which holds **global**
/// codes), one per instantiated column at that column's width — what
/// [`covered_rows`] and [`count_rules`] hand to the block-mask scan.
/// `None` ⇒ a predicate's code is too wide for its column (a live table's
/// older segment, whose dictionary predates the value): no row matches.
pub(crate) fn span_preds<'a>(
    table: &'a Table,
    rule: &Rule,
    span: std::ops::Range<usize>,
) -> Option<Vec<EqPred<'a>>> {
    rule.instantiated_columns()
        .map(|c| EqPred::of(table.column(c), span.clone(), rule.code(c)))
        .collect()
}

/// Exact `Count` of every rule over the full table — the scan behind the
/// explorer's exact-count refresh over monolithic storage
/// ([`crate::shard::try_count_rules_sharded`] is the segment-tier form).
/// Counts are exact integers, so how the rows are partitioned can never
/// change a bit of the result.
pub fn count_rules(table: &Table, rules: &[Rule]) -> Vec<f64> {
    let n = table.n_rows();
    rules
        .iter()
        .map(|r| span_preds(table, r, 0..n).map_or(0, |preds| accel::count(&preds, n)) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::Schema;

    fn t() -> Table {
        Table::from_rows(
            Schema::new(["A", "B", "C"]).unwrap(),
            &[
                &["a", "x", "0"],
                &["a", "y", "1"],
                &["b", "x", "0"],
                &["a", "x", "1"],
                &["c", "z", "0"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn covered_rows_matches_rowwise_coverage() {
        let table = t();
        let rule = Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap();
        let fast = covered_rows(&table, &rule);
        let slow: Vec<RowId> = (0..table.n_rows() as RowId)
            .filter(|&r| rule.covers_row(&table, r))
            .collect();
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![0, 3]);
    }

    #[test]
    fn covered_rows_trivial_rule_is_everything() {
        let table = t();
        let rule = Rule::trivial(3);
        assert_eq!(covered_rows(&table, &rule).len(), table.n_rows());
    }

    #[test]
    fn count_rules_matches_per_rule_counts() {
        let table = t();
        let a = Rule::from_pairs(&table, &[("A", "a")]).unwrap();
        let ax = Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap();
        let rules = [Rule::trivial(3), a, ax];
        assert_eq!(count_rules(&table, &rules), vec![5.0, 3.0, 2.0]);
        assert_eq!(count_rules(&table, &[]), Vec::<f64>::new());
    }

    #[test]
    fn covered_rows_of_a_gathered_permutation_match_rowwise_coverage() {
        let table = t();
        let a = Rule::from_pairs(&table, &[("A", "a")]).unwrap();
        // Rows 0 and 3 hold "a"; gathered as [4, 0, 3, 2] they sit at 1 and 2.
        assert_eq!(covered_rows(&table.gather_rows(&[4, 0, 3, 2]), &a), [1, 2]);
        let gathered = table.gather_rows(&[4, 0, 3, 2, 1]);
        for rule in [
            Rule::trivial(3),
            a,
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
        ] {
            let slow: Vec<RowId> = (0..gathered.n_rows() as RowId)
                .filter(|&r| rule.covers_row(&gathered, r))
                .collect();
            assert_eq!(covered_rows(&gathered, &rule), slow);
        }
    }

    #[test]
    fn dense_and_sparse_group_counting_agree() {
        let table = t();
        let base = Rule::trivial(3);
        let cands = vec![
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "b"), ("B", "x")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "y")]).unwrap(),
        ];
        let cand_weights = vec![2.0; cands.len()];
        let view = table.view();
        let cov = vec![0.5; view.len()];

        let mut scratch = SearchScratch::new();
        build_groups(&mut scratch, &table, &base, &cands, table.n_rows());
        assert_eq!(scratch.groups.len(), 1);
        let g = &scratch.groups[0];
        assert!(g.is_dense());
        let fresh = || -> Vec<CandStat> {
            cand_weights
                .iter()
                .map(|&weight| CandStat {
                    count: 0.0,
                    marginal: 0.0,
                    weight,
                })
                .collect()
        };
        let mut dense = fresh();
        count_group_dense(&view, &cov, g, &mut dense);

        // Sparse twin of the same group.
        let sparse_group = {
            let mut sg = Group {
                cols: g.cols.clone(),
                strides: g.strides.clone(),
                cells: 0, // force sparse
                cand_cells: Vec::new(),
                shifts: g.shifts.clone(),
                packed: true,
                keys: Vec::new(),
                wide_keys: Vec::new(),
                order: Vec::new(),
            };
            let mut keyed: Vec<(u64, u32)> = cands
                .iter()
                .enumerate()
                .map(|(ci, cand)| {
                    let mut key = 0u64;
                    for (&c, &sh) in sg.cols.iter().zip(&sg.shifts) {
                        key |= (cand.code(c) as u64) << sh;
                    }
                    (key, ci as u32)
                })
                .collect();
            keyed.sort();
            for (k, ci) in keyed {
                sg.keys.push(k);
                sg.order.push(ci);
            }
            sg
        };
        let mut sparse = fresh();
        count_group_sparse(&view, &cov, &sparse_group, &mut sparse);

        let sums = |v: Vec<CandStat>| -> Vec<(f64, f64)> {
            v.iter().map(|s| (s.count, s.marginal)).collect()
        };
        assert_eq!(sums(dense), sums(sparse));
    }

    #[test]
    fn wide_key_probe_agrees_with_packed() {
        let table = t();
        let cands = [
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "b"), ("B", "x")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "y")]).unwrap(),
        ];
        let cols = [0usize, 1];
        let packed = {
            let mut g = Group {
                cols: cols.to_vec(),
                shifts: vec![0, 2],
                packed: true,
                ..Default::default()
            };
            let mut keyed: Vec<(u64, u32)> = cands
                .iter()
                .enumerate()
                .map(|(ci, cand)| {
                    (
                        (cand.code(0) as u64) | ((cand.code(1) as u64) << 2),
                        ci as u32,
                    )
                })
                .collect();
            keyed.sort();
            for (k, ci) in keyed {
                g.keys.push(k);
                g.order.push(ci);
            }
            g
        };
        let wide = {
            let mut g = Group {
                cols: cols.to_vec(),
                shifts: vec![0, 2],
                packed: false,
                ..Default::default()
            };
            let mut keyed: Vec<(Vec<u32>, u32)> = cands
                .iter()
                .enumerate()
                .map(|(ci, cand)| (vec![cand.code(0), cand.code(1)], ci as u32))
                .collect();
            keyed.sort();
            for (codes, ci) in keyed {
                g.wide_keys.extend(codes);
                g.order.push(ci);
            }
            g
        };
        let n = table.n_rows();
        let candidates = |g: &Group| -> Vec<Option<u32>> {
            g.probe_rows(&table, n)
                .iter()
                .map(|&pos| (pos != NO_MATCH).then(|| g.order[pos as usize]))
                .collect()
        };
        let (a, b) = (candidates(&packed), candidates(&wide));
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some) && a.iter().any(Option::is_none));
    }
}
