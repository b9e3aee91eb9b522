//! The columnar counting kernel behind Algorithm 2 (paper §3.5), and the
//! columnar rule scans over global codes.
//!
//! ## The search kernel
//!
//! [`crate::marginal::find_best_marginal_rule`] runs here. What does not
//! depend on the covered weights `cov` a BRS run builds once for its view
//! (`RunIndex`): pass 1's per-column count histograms, scanned off the
//! dictionary-encoded column slices, and the size-1 candidates they admit,
//! each a *building block* `(free column, code)`; at the first level-2 pass,
//! each free column's blocks in whichever layout takes less room: one row
//! bitmask per block (bit `i % 64` of word `i / 64` is row `i`), or the
//! column's rows sorted by block. A column of `b` blocks over `n` rows
//! takes masks when `b·⌈n/64⌉ ≤ n` words (so `b ≤ 64`), which keeps the
//! index within `8·(n + 1)` bytes per column at any cardinality.
//!
//! A search sweeps each free column once for the pass-1 marginals, then
//! counts each later level *vertically* (Zaki's Eclat), one parent survivor
//! at a time: a candidate's cover is its parent's cover — the AND of the
//! parent's block masks, or the rows of its shortest row list that hold its
//! other codes, kept to its non-zero words — restricted to one more block.
//! Its sums take one of two forms:
//!
//! * **row order** — one pass over the parent's rows per column its
//!   candidates extend it by, each row adding `w_t` and `w_t · (W − min(W,
//!   cov_t))` to the candidate it falls in: the operations of
//!   [`crate::marginal::find_best_marginal_rule_rowwise`], in its order.
//!   Views whose rows weigh differently (a SUM measure), a `cov` of more
//!   than `MAX_CLASSES` values, a sparse parent and a parent extended by a
//!   column held as row lists always take it.
//! * **by class** — when every row weighs the same `s` (unit weights, or a
//!   sample's `vec![scale; n]`) and every column extending the parent is
//!   held as masks. The count is `P[popcount]`, `s` added that many times
//!   from `0.0`: the loop's own partial sum. `cov` takes few values (in BRS
//!   `0` and the weights of earlier winners) and a row with `cov ≥ W` adds
//!   exactly `+0.0`, so the marginal is `Σ n_c · s·(W − c)` over the
//!   classes `c < W`, each `n_c` a popcount. That closed form re-associates
//!   the loop's sum: widened by a relative `4·(n + 8)·ε`, which bounds both
//!   roundings, it steers only the prune and a lower best `H`, and after
//!   the last pass every candidate whose upper estimate reaches the final
//!   best is re-summed in row order. No other can win.
//!
//! A parent takes class sums when its candidates cost fewer popcount words
//! (`kids × non-zero words`) than a row-order pass costs lookups (`rows ×
//! extending columns`).
//!
//! So the winner and every bit of its [`BestMarginal`] are the reference's,
//! whose winner selection uses the same strict total order
//! (`tests/kernel_parity.rs` asserts it); a widened bound only keeps more
//! candidates, so the work counters differ from the reference's only when
//! an estimate straddles a prune threshold. A [`TableView`] is every row of
//! its table, and a search over a subset of rows is a search over the table
//! gathered from them ([`sdd_table::TableView::gather`]), which keeps their
//! order. [`SearchScratch`] holds buffers a search fills for its own `cov`;
//! each search builds its own set `C` of counted candidates, per level a
//! sorted array of block-index tuples beside their stats (see `Level`).
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
use crate::{Rule, WeightFn, STAR};
use sdd_table::{with_codes, Code, RowId, Table, TableView};
use std::cell::OnceCell;
use std::cmp::Ordering;

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

/// Most distinct covered weights a search sums by class. BRS passes at most
/// `k + 1`; a `cov` with more is summed in row order.
const MAX_CLASSES: usize = 16;

/// Pass 1 of one free column, fixed for a run: its per-code counts, the
/// code → weight table of its candidates (`0.0` for codes that are
/// unsupported or over the weight cap: their marginal slots go unread),
/// and where its candidates sit in `RunIndex::blocks`.
struct Pass1Column {
    col: usize,
    counts: Vec<f64>,
    wtab: Vec<f64>,
    rules: std::ops::Range<usize>,
}

/// One level of the set `C`, sorted: candidate `i` is the base plus blocks
/// `tuples[i·size..(i + 1)·size]` (ascending), with its stats at `stats[i]`.
/// Only the winner becomes a [`Rule`].
struct Level {
    size: usize,
    tuples: Vec<u32>,
    stats: Vec<CandStat>,
}

impl Level {
    /// A level of `size`-block candidates `tuples`, not yet counted.
    fn new(size: usize, tuples: Vec<u32>) -> Self {
        let stats = Vec::with_capacity(tuples.len() / size);
        Level {
            size,
            tuples,
            stats,
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&[u32], &CandStat)> {
        self.tuples.chunks_exact(self.size).zip(&self.stats)
    }

    /// The stats of candidate `tuple`, if this level counted it: a direct
    /// index at level 1, a binary search above it.
    fn find(&self, tuple: &[u32]) -> Option<&CandStat> {
        if self.size == 1 {
            return self.stats.get(tuple[0] as usize);
        }
        let (mut lo, mut hi) = (0, self.stats.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.tuples[mid * self.size..][..self.size].cmp(tuple) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.stats.get(mid),
            }
        }
        None
    }
}

/// One a-priori generation step (Algorithm 2, step 3.3): filters the
/// current level to survivors whose super-rule bound can still beat
/// `best_h`, extends each with later building blocks, and applies the
/// support/bound/weight prunes (a sub-rule is looked up in `current`:
/// Agrawal & Srikant's apriori-gen prune). Returns the next level, uncounted
/// (empty → the search is done), a survivor's adjacent, each with its
/// origin: the survivor's index in `current`, the block extending it, its
/// weight.
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
    current: &Level,
    weight: &dyn WeightFn,
    opts: &SearchOptions,
    best_h: f64,
    stats: &mut SearchStats,
) -> (Level, Vec<(usize, usize, f64)>) {
    let mw = opts.max_weight;
    let mut next = Level::new(current.size + 1, Vec::new());
    let mut origins: Vec<(usize, usize, f64)> = Vec::new();
    let mut rule = base.clone();
    let mut sub: Vec<u32> = Vec::with_capacity(current.size);
    let survives = |(_, (_, s)): &(usize, (&[u32], &CandStat))| {
        s.count > 0.0 && (!opts.pruning || s.super_rule_bound(mw) >= best_h)
    };
    for (parent, (tuple, stat)) in current.iter().enumerate().filter(survives) {
        let last = *tuple.last().expect("a candidate has a block");
        let later = blocks.partition_point(|&(c, _)| c <= blocks[last as usize].0);
        for &b in tuple {
            rule.set(blocks[b as usize].0, blocks[b as usize].1);
        }
        for (block, &(c, v)) in blocks.iter().enumerate().skip(later) {
            stats.generated += 1;
            // The sub-rules by column; the survivor, the last, is counted.
            let bound = (0..tuple.len()).try_fold(f64::INFINITY, |bound, drop| {
                sub.clear();
                sub.extend(tuple[..drop].iter().chain(&tuple[drop + 1..]));
                sub.push(block as u32);
                current
                    .find(&sub)
                    .map(|s| bound.min(s.super_rule_bound(mw)))
            });
            let Some(bound) = bound.map(|b| b.min(stat.super_rule_bound(mw))) else {
                stats.pruned += 1;
                continue;
            };
            if opts.pruning && (bound < best_h || bound <= 0.0) {
                stats.pruned += 1;
                continue;
            }
            rule.set(c, v);
            let w = weight.weight(&rule, table);
            rule.set(c, STAR);
            if w > mw + 1e-12 {
                stats.pruned += 1;
                continue;
            }
            next.tuples.extend_from_slice(tuple);
            next.tuples.push(block as u32);
            origins.push((parent, block, w));
        }
        for &b in tuple {
            rule.set(blocks[b as usize].0, STAR);
        }
    }
    (next, origins)
}

/// One free column's building blocks, in whichever layout takes less room.
/// Block `j` of the column (its `j`-th supported code) is row bitmask
/// `masks[j·words..(j + 1)·words]`, or rows `rows[start[j]..start[j + 1]]`
/// (ascending) of a row list grouped by block.
enum Layout {
    Masks(Vec<u64>),
    Lists { start: Vec<u32>, rows: Vec<u32> },
}

/// One building block as [`Layout`] holds it.
enum Block<'a> {
    Mask(&'a [u64]),
    Rows(&'a [u32]),
}

/// A run's blocks, one [`Layout`] per free column beside the index of its
/// first block, and, when every row of its view weighs the same positive
/// `scale`, the running sums `running[n]` of `scale` added `n` times from
/// `0.0`.
struct Vertical {
    words: usize,
    columns: Vec<(usize, Layout)>,
    scale: Option<f64>,
    running: Vec<f64>,
}

impl Vertical {
    /// A column of `b` blocks over `n` rows takes masks when their
    /// `b·⌈n/64⌉` words are at most one per row (so `b ≤ 64`), one
    /// equality scan each; otherwise its rows, sorted by block. Either is
    /// at most `8·(n + 1)` bytes per column at any cardinality.
    fn build(view: &TableView<'_>, columns: &[Pass1Column], blocks: &[(usize, u32)]) -> Self {
        /// One loop per code width; `local[code]` is the code's block in
        /// the column, or `u32::MAX`.
        fn group<T: Code>(codes: &[T], local: &[u32], blocks: usize) -> Layout {
            let block_of = |r: u32| local[codes[r as usize].idx()] as usize;
            let mut rows: Vec<u32> = (0..codes.len() as u32)
                .filter(|&r| block_of(r) < blocks)
                .collect();
            // A stable sort keeps each block's rows ascending.
            rows.sort_by_key(|&r| block_of(r));
            let start = (0..=blocks).map(|j| rows.partition_point(|&r| block_of(r) < j) as u32);
            let start = start.collect();
            Layout::Lists { start, rows }
        }
        let (n, table) = (view.len(), view.table());
        let words = n.div_ceil(64);
        let mut local: Vec<u32> = Vec::new();
        let columns = columns.iter().map(|column| {
            let ids = &blocks[column.rules.clone()];
            let codes = table.column(column.col);
            if ids.len() * words <= n {
                let mut masks = vec![u64::MAX; ids.len() * words];
                for (&(_, code), mask) in ids.iter().zip(masks.chunks_exact_mut(words)) {
                    let eq = EqPred::of(codes, 0..n, code);
                    eq.expect("a block's code is one of its column's")
                        .and_into(0..n, mask);
                }
                return (column.rules.start, Layout::Masks(masks));
            }
            local.clear();
            local.resize(table.cardinality(column.col), u32::MAX);
            for (j, &(_, code)) in ids.iter().enumerate() {
                local[code as usize] = j as u32;
            }
            (
                column.rules.start,
                with_codes!(codes, c => group(c, &local, ids.len())),
            )
        });
        let columns = columns.collect();
        let ws = view.weights().unwrap_or(&[1.0]);
        let scale = ws
            .first()
            .copied()
            .filter(|&s| s > 0.0 && s.is_finite() && ws.iter().all(|w| w.to_bits() == s.to_bits()));
        let running = scale.map_or_else(Vec::new, |s| running_sums(s, n));
        Vertical {
            words,
            columns,
            scale,
            running,
        }
    }

    fn block(&self, block: usize) -> Block<'_> {
        let at = self.columns.partition_point(|(first, _)| *first <= block) - 1;
        let (first, layout) = &self.columns[at];
        let j = block - first;
        match layout {
            Layout::Masks(masks) => Block::Mask(&masks[j * self.words..(j + 1) * self.words]),
            Layout::Lists { start, rows } => {
                Block::Rows(&rows[start[j] as usize..start[j + 1] as usize])
            }
        }
    }
}

/// `out[n]` is `x` added `n` times from `0.0`, for `n` in `0..=len`.
///
/// det-order: one sequential running sum, so `out[n]` is exactly the sum a
/// loop adding `x` once per row forms after `n` rows.
fn running_sums(x: f64, len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len + 1);
    let mut sum = 0.0f64;
    out.push(sum);
    for _ in 0..len {
        sum += x;
        out.push(sum);
    }
    out
}

/// A parent's cover compacted to its non-zero words — the only words its
/// candidates' covers can have bits in — with the words of the class masks
/// at the same positions: class `c`'s is `class_words[c · at.len() + i]`.
#[derive(Debug, Default)]
struct Cover {
    at: Vec<u32>,
    words: Vec<u64>,
    class_words: Vec<u64>,
}

/// The distinct covered weights of one search, ascending, and one row mask
/// per class: class `c`'s is `bits[c·words..(c + 1)·words]`.
#[derive(Debug, Default)]
struct Classes {
    values: Vec<f64>,
    bits: Vec<u64>,
}

impl Classes {
    /// The classes of `cov` over `words` mask words; `false` when `cov`
    /// holds a NaN or more than [`MAX_CLASSES`] distinct values.
    fn build(&mut self, cov: &[f64], words: usize) -> bool {
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        self.values.clear();
        for c in cov {
            // Branch-free membership: a miss is the rare case.
            if !self.values.iter().fold(false, |hit, v| hit | same(v, c)) {
                if c.is_nan() || self.values.len() == MAX_CLASSES {
                    return false;
                }
                self.values.push(*c);
            }
        }
        self.values.sort_by(f64::total_cmp);
        self.bits.clear();
        self.bits.reserve(words * self.values.len());
        for v in &self.values {
            self.bits.extend(cov.chunks(64).map(|rows| {
                let bit = |(j, c)| u64::from(same(c, v)) << j;
                rows.iter().enumerate().map(bit).fold(0, |word, b| word | b)
            }));
        }
        true
    }
}

/// Reusable buffers for best-marginal searches. A search fills them for its
/// own view and `cov` and reads nothing an earlier one left, so a scratch
/// serves any sequence of searches over any views; what a BRS run keeps
/// across its `k` searches it builds for its one view.
#[derive(Debug, Default)]
pub struct SearchScratch {
    marginals: Vec<f64>,
    classes: Classes,
    parent: Cover,
    child: Vec<u64>,
    project: Projection,
}

impl SearchScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// What Algorithm 2 does not take from `cov`, for one view, weight function
/// and option set: the size-1 candidates pass 1's counts admit, and (at the
/// first level-2 pass) their blocks' rows. See the module docs.
pub(crate) struct RunIndex<'a> {
    view: TableView<'a>,
    weight: &'a dyn WeightFn,
    opts: &'a SearchOptions,
    base: Rule,
    max_size: usize,
    /// One per free column; none when there is nothing to search.
    columns: Vec<Pass1Column>,
    /// The building blocks `(free column, code)`, sorted: level 1.
    blocks: Vec<(usize, u32)>,
    /// Pass 1's work counters.
    pass1: SearchStats,
    vertical: OnceCell<Vertical>,
}

impl<'a> RunIndex<'a> {
    /// Counts pass 1 over `view`: per free column the code histogram, then
    /// the supported codes as rules, gated on `opts.max_weight`.
    ///
    /// det-order: each histogram is one row-order scan; the `+=` here are
    /// integer generation stats.
    pub(crate) fn new(
        view: TableView<'a>,
        weight: &'a dyn WeightFn,
        opts: &'a SearchOptions,
    ) -> Self {
        let table = view.table();
        let base = opts
            .base
            .clone()
            .unwrap_or_else(|| Rule::trivial(table.n_columns()));
        let free_cols: Vec<usize> = (0..table.n_columns())
            .filter(|&c| base.is_star(c))
            .collect();
        let max_size = opts
            .max_rule_size
            .unwrap_or(free_cols.len())
            .min(free_cols.len());
        let mut index = RunIndex {
            view,
            weight,
            opts,
            base,
            max_size,
            columns: Vec::new(),
            blocks: Vec::new(),
            pass1: SearchStats {
                passes: 1,
                ..SearchStats::default()
            },
            vertical: OnceCell::new(),
        };
        if max_size == 0 || view.is_empty() {
            return index;
        }
        for col in free_cols {
            let mut counts = vec![0.0f64; table.cardinality(col)];
            count_column(&view, col, &mut counts);
            let mut wtab = vec![0.0f64; counts.len()];
            let start = index.blocks.len();
            for (code, &count) in counts.iter().enumerate() {
                if count <= 0.0 {
                    continue;
                }
                index.pass1.generated += 1;
                let rule = index.base.with_value(col, code as u32);
                let w = weight.weight(&rule, table);
                if w > opts.max_weight + 1e-12 {
                    index.pass1.pruned += 1;
                    continue;
                }
                wtab[code] = w;
                index.blocks.push((col, code as u32));
            }
            let rules = start..index.blocks.len();
            index.columns.push(Pass1Column {
                col,
                counts,
                wtab,
                rules,
            });
        }
        index.pass1.counted = index.blocks.len();
        index
    }

    /// The cover of blocks `tuple`, compacted to its non-zero words, into
    /// `out`: the AND of its blocks' masks, or, when it has a block held as
    /// a row list, the rows of its shortest list that every other block holds.
    fn cover(&self, vertical: &Vertical, tuple: &[u32], out: &mut Cover) {
        let (mut masks, mut lists) = (Vec::new(), Vec::new());
        for &b in tuple {
            match vertical.block(b as usize) {
                Block::Mask(mask) => masks.push(mask),
                Block::Rows(rows) => lists.push((rows, self.blocks[b as usize])),
            }
        }
        out.at.clear();
        out.words.clear();
        let Some(&(seed, _)) = lists.iter().min_by_key(|(rows, _)| rows.len()) else {
            for w in 0..vertical.words {
                let bits = masks.iter().fold(u64::MAX, |bits, mask| bits & mask[w]);
                if bits != 0 {
                    out.at.push(w as u32);
                    out.words.push(bits);
                }
            }
            return;
        };
        let table = self.view.table();
        let holds = |&r: &u32| {
            masks
                .iter()
                .all(|mask| mask[r as usize / 64] >> (r % 64) & 1 == 1)
                && lists.iter().all(|&(_, (c, code))| table.code(r, c) == code)
        };
        for r in seed.iter().copied().filter(holds) {
            if out.at.last() != Some(&(r / 64)) {
                out.at.push(r / 64);
                out.words.push(0);
            }
            *out.words.last_mut().expect("a word was pushed") |= 1 << (r % 64);
        }
    }

    /// Algorithm 2 against the covered weights `cov`. See the module docs;
    /// the result is bit-identical to
    /// [`crate::marginal::find_best_marginal_rule_rowwise`].
    ///
    /// det-order: this orchestrator's own `+=` are integer stats; every
    /// float accumulator is owned by one helper that sums in row order or
    /// over classes in ascending order.
    pub(crate) fn search(&self, cov: &[f64], scratch: &mut SearchScratch) -> Option<BestMarginal> {
        assert_eq!(
            cov.len(),
            self.view.len(),
            "covered_weight must align with view"
        );
        if self.blocks.is_empty() {
            return None;
        }
        let view = &self.view;
        let mut stats = self.pass1;
        let mut best_h = 0.0f64;

        // ---- Pass 1: one marginal sweep per free column. ----
        let mut level = Level::new(1, (0..self.blocks.len() as u32).collect());
        for column in &self.columns {
            let marginals = &mut scratch.marginals;
            marginals.clear();
            marginals.resize(column.counts.len(), 0.0);
            marginal_column(view, column.col, cov, &column.wtab, marginals);
            for &(_, code) in &self.blocks[column.rules.clone()] {
                let code = code as usize;
                let stat = CandStat {
                    count: column.counts[code],
                    marginal: marginals[code],
                    weight: column.wtab[code],
                };
                level.stats.push(stat);
                if stat.marginal > best_h {
                    best_h = stat.marginal;
                }
            }
        }

        // ---- Passes 2..: a-priori extension, vertical counting. ----
        let mut by_class: Option<bool> = None;
        let mut levels = vec![level];
        for _pass in 2..=self.max_size {
            let current = levels.last().expect("level 1 is counted");
            let (mut next, origins) = generate_level(
                view.table(),
                &self.base,
                &self.blocks,
                current,
                self.weight,
                self.opts,
                best_h,
                &mut stats,
            );
            if origins.is_empty() {
                break;
            }
            stats.passes += 1;
            stats.counted += origins.len();

            let vertical = self
                .vertical
                .get_or_init(|| Vertical::build(view, &self.columns, &self.blocks));
            for kids in origins.chunk_by(|a, b| a.0 == b.0) {
                let cover = &mut scratch.parent;
                let parent = kids[0].0 * current.size..(kids[0].0 + 1) * current.size;
                self.cover(vertical, &current.tuples[parent], cover);
                // Class sums, which extend by masks only, cost a few popcounts
                // per kid and non-zero word; a pass over the parent's rows costs a
                // lookup per row and column.
                let rows: usize = cover.words.iter().map(|w| w.count_ones() as usize).sum();
                let mut cols = kids.chunk_by(|a, b| self.blocks[a.1].0 == self.blocks[b.1].0);
                let classes = &mut scratch.classes;
                let scale = vertical.scale.filter(|_| {
                    kids.len() * cover.at.len() < rows * cols.clone().count()
                        && cols.all(|col| matches!(vertical.block(col[0].1), Block::Mask(_)))
                        && *by_class.get_or_insert_with(|| classes.build(cov, vertical.words))
                });
                match scale {
                    None => project(view, cov, cover, &self.blocks, kids, &mut scratch.project),
                    Some(_) => {
                        cover.class_words.clear();
                        for class in classes.bits.chunks_exact(vertical.words) {
                            let at = cover.at.iter().map(|&w| class[w as usize]);
                            cover.class_words.extend(at);
                        }
                    }
                }
                for (i, &(_, block, weight)) in kids.iter().enumerate() {
                    let (count, marginal, lower) = match (scale, vertical.block(block)) {
                        (Some(s), Block::Mask(mask)) => {
                            let child = &mut scratch.child;
                            child.clear();
                            let at = cover.at.iter().map(|&w| mask[w as usize]);
                            child.extend(at.zip(&cover.words).map(|(m, bits)| m & bits));
                            class_stat(child, cover, weight, classes, s, &vertical.running)
                        }
                        _ => {
                            let (count, marginal) = scratch.project.sums[i];
                            (count, marginal, marginal)
                        }
                    };
                    if lower > best_h {
                        best_h = lower;
                    }
                    next.stats.push(CandStat {
                        count,
                        marginal,
                        weight,
                    });
                }
            }
            levels.push(next);
        }

        // ---- Re-sum in row order every estimate that can still win. ----
        if let (Some(true), Some(vertical)) = (by_class, self.vertical.get()) {
            for level in &mut levels[1..] {
                let tuples = level.tuples.chunks_exact(level.size);
                for (tuple, stat) in tuples.zip(&mut level.stats) {
                    if stat.marginal > 0.0 && stat.marginal >= best_h {
                        let cover = &mut scratch.parent;
                        self.cover(vertical, tuple, cover);
                        // Every covered row holds the code of the last block.
                        let last = *tuple.last().expect("a candidate has a block");
                        let kid = [(0, last as usize, stat.weight)];
                        project(view, cov, cover, &self.blocks, &kid, &mut scratch.project);
                        stat.marginal = scratch.project.sums[0].1;
                    }
                }
            }
        }

        self.pick_winner(&levels, stats)
    }

    /// Selects the winner from the counted set: max marginal, ties broken
    /// toward higher weight then lexicographically smaller codes (identical
    /// to the reference implementation). Only the winner becomes a rule.
    fn pick_winner(&self, levels: &[Level], stats: SearchStats) -> Option<BestMarginal> {
        let key = |s: &CandStat| (s.marginal, s.weight);
        let mut best: Option<(&[u32], &CandStat)> = None;
        for (tuple, stat) in levels.iter().flat_map(Level::iter) {
            if stat.marginal <= 0.0 {
                continue;
            }
            let better =
                best.is_none_or(|(btuple, bstat)| match key(stat).partial_cmp(&key(bstat)) {
                    Some(Ordering::Equal) => codes_order(tuple, btuple) == Ordering::Less,
                    order => order == Some(Ordering::Greater),
                });
            if better {
                best = Some((tuple, stat));
            }
        }
        let (tuple, stat) = best?;
        let mut rule = self.base.clone();
        for &b in tuple {
            let (c, code) = self.blocks[b as usize];
            rule.set(c, code);
        }
        Some(BestMarginal {
            rule,
            marginal_value: stat.marginal,
            count: stat.count,
            weight: stat.weight,
            stats,
        })
    }
}

/// How the rules of block tuples `a` and `b` order by codes: as the tuples
/// do with a last index past all blocks, as `STAR` is past all codes.
fn codes_order(a: &[u32], b: &[u32]) -> Ordering {
    let end = [u32::MAX];
    a.iter().chain(&end).cmp(b.iter().chain(&end))
}

/// `counts[code] += w` over one column.
///
/// det-order: sequential scan in row order.
fn count_column(view: &TableView<'_>, col: usize, counts: &mut [f64]) {
    /// One loop per code width.
    fn count<T: Code>(codes: &[T], view: &TableView<'_>, counts: &mut [f64]) {
        for (i, &code) in codes.iter().enumerate() {
            counts[code.idx()] += view.weight_at(i);
        }
    }
    with_codes!(view.table().column(col), codes => count(codes, view, counts));
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

/// The buffers of [`project`]: a parent's rows, a code → kid slot table
/// (`u32::MAX` between uses), and the kids' weights and sums.
#[derive(Debug, Default)]
struct Projection {
    rows: Vec<u32>,
    slot: Vec<u32>,
    w: Vec<f64>,
    sums: Vec<(f64, f64)>,
}

/// The row-order sums `(Σ w_t, Σ w_t · (W − min(W, cov_t)))` of the
/// candidates `kids` — `(parent, block, W)` in block order — extending the
/// parent whose cover is `cover`, into `buf.sums`: one pass over the
/// parent's rows per column the kids extend it by.
///
/// det-order: a kid's rows come ascending, so each sum is the reference's
/// row-order loop over the kid's cover.
fn project(
    view: &TableView<'_>,
    cov: &[f64],
    cover: &Cover,
    blocks: &[(usize, u32)],
    kids: &[(usize, usize, f64)],
    buf: &mut Projection,
) {
    /// One loop per code width.
    fn add<T: Code>(codes: &[T], buf: &mut Projection, view: &TableView<'_>, cov: &[f64]) {
        for &r in &buf.rows {
            let (r, s) = (r as usize, buf.slot[codes[r as usize].idx()] as usize);
            if let Some(&w) = buf.w.get(s) {
                let (w_t, sum) = (view.weight_at(r), &mut buf.sums[s]);
                sum.0 += w_t;
                sum.1 += w_t * (w - w.min(cov[r]));
            }
        }
    }
    buf.rows.clear();
    for (&w, mut bits) in cover.at.iter().zip(cover.words.iter().copied()) {
        while bits != 0 {
            buf.rows.push(w * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    buf.sums.clear();
    buf.sums.resize(kids.len(), (0.0, 0.0));
    buf.w.clear();
    buf.w.extend(kids.iter().map(|k| k.2));
    let mut first = 0;
    for col_kids in kids.chunk_by(|a, b| blocks[a.1].0 == blocks[b.1].0) {
        let col = blocks[col_kids[0].1].0;
        let card = view.table().cardinality(col);
        if buf.slot.len() < card {
            buf.slot.resize(card, u32::MAX);
        }
        for (i, kid) in col_kids.iter().enumerate() {
            buf.slot[blocks[kid.1].1 as usize] = (first + i) as u32;
        }
        with_codes!(view.table().column(col), c => add(c, buf, view, cov));
        for kid in col_kids {
            buf.slot[blocks[kid.1].1 as usize] = u32::MAX;
        }
        first += col_kids.len();
    }
}

/// A candidate's count and upper and lower marginal estimates by class:
/// `child` holds its cover's words at `parent`'s non-zero words, and every
/// row weighs `scale`. The count is exact.
///
/// det-order: the popcounts are integers, the count is read off the
/// sequential running sums, and the closed form adds the classes in
/// ascending order; it only bounds the row-order sum (see the module docs).
fn class_stat(
    child: &[u64],
    parent: &Cover,
    w: f64,
    classes: &Classes,
    scale: f64,
    running: &[f64],
) -> (f64, f64, f64) {
    let k = classes.values.len();
    // Rows of a class `c ≥ W` add +0.0; when every class adds, the last
    // class's rows are the cover's less the others'.
    let below = classes.values.iter().take_while(|&&c| c < w).count();
    let ones = |x: u64| x.count_ones() as usize;
    let n: usize = child.iter().map(|&x| ones(x)).sum();
    let popped = if below == k { k - 1 } else { below } * usize::from(n > 0);
    let mut hits = [0usize; MAX_CLASSES];
    let class_words = parent.class_words.chunks_exact(child.len().max(1));
    for (h, class) in hits[..popped].iter_mut().zip(class_words) {
        *h = child.iter().zip(class).map(|(x, m)| ones(x & m)).sum();
    }
    if popped < below {
        hits[popped] = n - hits[..popped].iter().sum::<usize>();
    }
    let mut estimate = 0.0f64;
    for (&h, &c) in hits[..below].iter().zip(&classes.values) {
        estimate += h as f64 * (scale * (w - w.min(c)));
    }
    let slack = 4.0 * (n + 8) as f64 * f64::EPSILON;
    let (upper, lower) = (estimate * (1.0 + slack), estimate * (1.0 - slack));
    (running[n], upper, lower)
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
    use crate::SizeWeight;
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

    /// A table of `n` rows: row `i` holds `i % 3` in `A`, except that the
    /// last row holds a value of its own, and a value of its own in `B`.
    fn striped(n: usize) -> Table {
        let rows: Vec<[String; 2]> = (0..n)
            .map(|i| {
                let a = if i + 1 == n {
                    "last".to_owned()
                } else {
                    format!("v{}", i % 3)
                };
                [a, format!("r{i}")]
            })
            .collect();
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    /// The rows of block `b`, ascending, whichever layout holds it.
    fn rows_of(vertical: &Vertical, b: usize) -> Vec<u32> {
        match vertical.block(b) {
            Block::Rows(rows) => rows.to_vec(),
            Block::Mask(mask) => (0..mask.len() * 64)
                .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
                .map(|i| i as u32)
                .collect(),
        }
    }

    impl Vertical {
        /// The bytes its layouts hold.
        fn bytes(&self) -> usize {
            let layout = |(_, layout): &(usize, Layout)| match layout {
                Layout::Masks(masks) => 8 * masks.len(),
                Layout::Lists { start, rows } => 4 * (start.len() + rows.len()),
            };
            self.columns.iter().map(layout).sum()
        }
    }

    #[test]
    fn each_block_holds_exactly_its_rows_in_either_layout() {
        let opts = SearchOptions::new(f64::INFINITY);
        for n in [63, 64, 65, 2_047, 2_049] {
            let table = striped(n);
            let index = RunIndex::new(table.view(), &SizeWeight, &opts);
            let vertical = Vertical::build(&index.view, &index.columns, &index.blocks);
            assert_eq!(vertical.words, n.div_ceil(64), "{n} rows");
            // `A`'s four blocks fit in masks; `B`'s n blocks fit in one
            // word each only while n ≤ 64.
            assert!(matches!(vertical.block(0), Block::Mask(_)), "{n} rows");
            let listed = matches!(vertical.block(4), Block::Rows(_));
            assert_eq!(listed, n > 64, "{n} rows");
            for (b, &(c, code)) in index.blocks.iter().enumerate() {
                let want: Vec<u32> = (0..n as u32)
                    .filter(|&r| table.code(r, c) == code)
                    .collect();
                assert_eq!(rows_of(&vertical, b), want, "{n} rows, block {b}");
            }
            // No bit past the last row.
            let Block::Mask(last) = vertical.block(table.code(n as RowId - 1, 0) as usize) else {
                panic!("`A` is masked")
            };
            assert_eq!(last[vertical.words - 1], 1 << ((n - 1) % 64), "{n} rows");
        }
    }

    #[test]
    fn a_many_valued_column_costs_a_row_list_not_a_mask_per_value() {
        // One mask per block would be 10⁵ masks of 1 563 words (1.25 GB).
        let n = 100_000;
        let rows: Vec<[String; 3]> = (0..n)
            .map(|i| {
                [
                    format!("a{}", i % 3),
                    format!("id{i}"),
                    format!("h{}", i % 50_000),
                ]
            })
            .collect();
        let table = Table::from_rows(Schema::new(["A", "ID", "H"]).unwrap(), &rows).unwrap();
        let opts = SearchOptions::new(f64::INFINITY);
        let index = RunIndex::new(table.view(), &SizeWeight, &opts);
        let vertical = Vertical::build(&index.view, &index.columns, &index.blocks);
        let bound = 3 * 8 * (n + 1);
        assert!(vertical.bytes() <= bound, "{} > {bound}", vertical.bytes());
        assert!(matches!(vertical.block(0), Block::Mask(_)));
        assert_eq!(rows_of(&vertical, 3 + 7), [7]);
    }

    #[test]
    fn block_tuples_order_as_their_rules_codes() {
        let table = t();
        let opts = SearchOptions::new(f64::INFINITY);
        let index = RunIndex::new(table.view(), &SizeWeight, &opts);
        // Every tuple of blocks on ascending columns, up to all three.
        let mut tuples: Vec<Vec<u32>> = vec![vec![]];
        for (b, &(c, _)) in index.blocks.iter().enumerate() {
            let longer: Vec<Vec<u32>> = tuples
                .iter()
                .filter(|t| t.last().is_none_or(|&l| index.blocks[l as usize].0 < c))
                .map(|t| t.iter().copied().chain([b as u32]).collect())
                .collect();
            tuples.extend(longer);
        }
        tuples.remove(0);
        assert_eq!(tuples.len(), 4 * 4 * 3 - 1);
        let rule = |t: &[u32]| {
            let at = |b: &u32| index.blocks[*b as usize];
            t.iter()
                .fold(Rule::trivial(3), |r, b| r.with_value(at(b).0, at(b).1))
        };
        for a in &tuples {
            for b in &tuples {
                let want = rule(a).codes().cmp(rule(b).codes());
                assert_eq!(codes_order(a, b), want, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn running_sums_are_the_sequential_loop() {
        let x = 1_000_000.0 / 5_003.0;
        let n = 100_000;
        let table = running_sums(x, n);
        assert_eq!(table.len(), n + 1);
        let mut sum = 0.0f64;
        let mut rounded = 0;
        for (i, &p) in table.iter().enumerate() {
            assert_eq!(p.to_bits(), sum.to_bits(), "after {i} additions");
            rounded += usize::from(p != i as f64 * x);
            sum += x;
        }
        // A product is not the loop's sum: the table is needed.
        assert!(rounded > 0);
        assert_eq!(running_sums(1.0, 5), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn a_covered_row_adds_exactly_nothing() {
        // The class sums drop rows whose cov ≥ W: their term is +0.0, which
        // leaves every partial sum a search can form (finite, never -0.0)
        // bit-for-bit unchanged.
        let scales = [1.0, 1_000_000.0 / 5_003.0, 0.3, 7.5e-300];
        let partials = [0.0, 5e-324, 0.1, 1.0 / 3.0, 199.88, 1e300, f64::MAX];
        for &s in &scales {
            for (w, c) in [(1.0, 1.0), (2.0, 3.0), (13.7, 20.0), (0.5, f64::MAX)] {
                let term = s * (w - f64::min(w, c));
                assert_eq!(
                    term.to_bits(),
                    0.0f64.to_bits(),
                    "{s} · ({w} − min({w}, {c}))"
                );
                for &x in &partials {
                    assert_eq!((x + term).to_bits(), x.to_bits(), "{x} + {term}");
                }
            }
        }
    }
}
