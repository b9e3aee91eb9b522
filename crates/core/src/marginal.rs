//! Finding the best marginal rule (paper §3.5, Algorithm 2).
//!
//! Given the current solution set `S` (summarized as the per-tuple weight of
//! the best rule of `S` covering each tuple), find the single rule `r` with
//! weight `≤ mw` maximizing the **marginal value**
//!
//! ```text
//! MarginalValue(r) = Σ_{t ∈ r} w_t · ( W(r) − min(W(r), W(TOP(t, S))) )
//! ```
//!
//! The search is level-wise in rule size, a-priori style: pass `j` counts
//! candidates of size `j`, generated as one-column extensions of the
//! surviving size-`j−1` candidates. A candidate is pruned when the upper
//! bound derived from any counted sub-rule `R'`,
//!
//! ```text
//! MarginalValue(R') + Count(R') · (mw − W(R'))
//! ```
//!
//! falls below the best marginal value `H` found so far (the bound is valid
//! for every super-rule of `R'` with weight ≤ `mw`; see the module tests for
//! a brute-force check). Because only the single best rule is needed, `H`
//! rises quickly and the search typically terminates after 2–4 passes.
//!
//! **Execution.** [`find_best_marginal_rule`] always runs over an in-memory
//! [`TableView`] — in the product, a materialised sample (paper §4) —
//! through the columnar kernel of [`crate::kernel`]. [`SearchOptions`]
//! selects *how hard* to search (`max_weight`, pruning, size cap, base);
//! the search runs on its calling thread.
//! [`find_best_marginal_rule_rowwise`] is the row-at-a-time reference the
//! parity tests compare against.

use crate::kernel::{CandStat, RunIndex, SearchScratch};
use crate::{Rule, WeightFn};
use rustc_hash::FxHashMap;
use sdd_table::TableView;

/// Tuning knobs for the marginal-rule search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// The paper's `mw`: assume no optimal rule has weight above this. The
    /// search is exact iff the assumption holds; smaller is faster.
    pub max_weight: f64,
    /// Enable the `mw`/`H` upper-bound pruning (Algorithm 2 step 3.3.2).
    /// Disabled only by the pruning ablation; plain support-based a-priori
    /// candidate generation (`count > 0`) is always in force.
    pub pruning: bool,
    /// Cap on rule size (number of instantiated free columns). `None` means
    /// up to all free columns.
    pub max_rule_size: Option<usize>,
    /// Drill-down base `r'`: every candidate is a strict super-rule of the
    /// base; the base's instantiated columns are fixed and excluded from the
    /// search space. The view must already be filtered to base-covered
    /// tuples.
    pub base: Option<Rule>,
}

impl SearchOptions {
    /// Defaults: given `mw`, pruning on, no size cap, no base.
    pub fn new(max_weight: f64) -> Self {
        Self {
            max_weight,
            pruning: true,
            max_rule_size: None,
            base: None,
        }
    }
}

/// Counters describing how much work one search did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of passes over the view (= max candidate size reached).
    pub passes: usize,
    /// Candidates generated across all levels.
    pub generated: usize,
    /// Candidates whose marginal value was actually counted.
    pub counted: usize,
    /// Candidates discarded by the upper-bound prune.
    pub pruned: usize,
}

impl SearchStats {
    /// Accumulates another search's counters into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.passes += other.passes;
        self.generated += other.generated;
        self.counted += other.counted;
        self.pruned += other.pruned;
    }
}

/// The winning rule of one search.
#[derive(Debug, Clone)]
pub struct BestMarginal {
    /// The best rule found.
    pub rule: Rule,
    /// Its marginal value against the current solution set.
    pub marginal_value: f64,
    /// Its (weighted) count over the view.
    pub count: f64,
    /// Its weight `W(rule)`.
    pub weight: f64,
    /// Work counters.
    pub stats: SearchStats,
}

/// Runs Algorithm 2: returns the rule with the highest positive marginal
/// value (weight ≤ `opts.max_weight`), or `None` if every rule's marginal
/// value is zero.
///
/// `covered_weight[i]` must hold `W(TOP(t_i, S))` for the tuple at view
/// position `i` (`0.0` when uncovered) — the caller (BRS) maintains it.
///
/// This runs the columnar counting kernel (see [`crate::kernel`]) and
/// counts pass 1 afresh; [`crate::Brs`] counts it once for its `k`
/// searches.
pub fn find_best_marginal_rule(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
) -> Option<BestMarginal> {
    find_best_marginal_rule_with_scratch(
        view,
        weight,
        covered_weight,
        opts,
        &mut SearchScratch::new(),
    )
}

/// [`find_best_marginal_rule`] with caller-owned scratch buffers.
pub fn find_best_marginal_rule_with_scratch(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> Option<BestMarginal> {
    RunIndex::new(*view, weight, opts).search(covered_weight, scratch)
}

/// The original row-at-a-time implementation of Algorithm 2, kept verbatim
/// as the reference for kernel parity tests and the kernel-vs-scalar
/// benchmark. Semantically identical to [`find_best_marginal_rule`]; the
/// columnar kernel is bit-identical to it in scalar mode.
pub fn find_best_marginal_rule_rowwise(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    opts: &SearchOptions,
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
    // All counted rules with their stats — the paper's set `C`.
    let mut counted: FxHashMap<Rule, CandStat> = FxHashMap::default();
    // Best marginal value seen so far — the paper's threshold `H`.
    let mut best_h = 0.0f64;

    // ---- Pass 1: dense per-column counting (every size-1 extension). ----
    stats.passes = 1;
    let mut level: Vec<Rule> = Vec::new();
    {
        // Dense count pass: per free column, one f64 slot per dictionary code.
        let mut counts: Vec<Vec<f64>> = free_cols
            .iter()
            .map(|&c| vec![0.0; table.cardinality(c)])
            .collect();
        for wr in view.iter() {
            for (fi, &c) in free_cols.iter().enumerate() {
                counts[fi][table.code(wr.row, c) as usize] += wr.weight;
            }
        }
        for (fi, &c) in free_cols.iter().enumerate() {
            for (code, &count) in counts[fi].iter().enumerate() {
                if count <= 0.0 {
                    continue;
                }
                stats.generated += 1;
                let rule = base.with_value(c, code as u32);
                let w = weight.weight(&rule, table);
                if w > opts.max_weight + 1e-12 {
                    stats.pruned += 1;
                    continue;
                }
                counted.insert(
                    rule.clone(),
                    CandStat {
                        count,
                        marginal: 0.0,
                        weight: w,
                    },
                );
                level.push(rule);
                stats.counted += 1;
            }
        }
        // Precise marginal pass (cov_t may exceed W(r), so marginals cannot
        // be recovered from the dense counts alone).
        for (i, wr) in view.iter().enumerate() {
            let cov = covered_weight[i];
            for &c in &free_cols {
                let code = table.code(wr.row, c);
                let rule = base.with_value(c, code);
                if let Some(stat) = counted.get_mut(&rule) {
                    stat.marginal += wr.weight * (stat.weight - stat.weight.min(cov));
                }
            }
        }
        for rule in &level {
            let stat = counted[rule];
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
        }
    }

    // ---- Passes 2..: a-priori extension of surviving candidates. ----
    // Frequent size-1 building blocks (free column, code) with their stats.
    let blocks: Vec<(usize, u32)> = level
        .iter()
        .map(|r| {
            let c = r
                .instantiated_columns()
                .find(|c| base.is_star(*c))
                .expect("level-1 rule instantiates one free column");
            (c, r.code(c))
        })
        .collect();

    let mut current = level;
    for _pass in 2..=max_size {
        // Survivor filter: keep rules whose super-rule bound can still beat H.
        let survivors: Vec<&Rule> = current
            .iter()
            .filter(|r| {
                let stat = counted[*r];
                stat.count > 0.0
                    && (!opts.pruning || stat.super_rule_bound(opts.max_weight) >= best_h)
            })
            .collect();
        if survivors.is_empty() {
            break;
        }

        // Generate: extend each survivor with a block on a later free column.
        let mut next: Vec<Rule> = Vec::new();
        let mut cand_weights: Vec<f64> = Vec::new();
        for r in survivors {
            let max_free = r
                .instantiated_columns()
                .filter(|c| base.is_star(*c))
                .last()
                .expect("survivor instantiates at least one free column");
            for &(c, v) in &blocks {
                if c <= max_free {
                    continue;
                }
                let cand = r.with_value(c, v);
                stats.generated += 1;

                // Support-based a-priori: all immediate free sub-rules must
                // have been counted; the bound over them must clear H.
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
        if next.is_empty() {
            break;
        }
        stats.passes += 1;
        stats.counted += next.len();

        // Count pass: index candidates by (first instantiated free column,
        // value) so each row only probes a handful of candidates.
        let mut index: FxHashMap<(u32, u32), Vec<usize>> = FxHashMap::default();
        for (ci, cand) in next.iter().enumerate() {
            let first = cand
                .instantiated_columns()
                .find(|c| base.is_star(*c))
                .expect("candidate instantiates free columns");
            index
                .entry((first as u32, cand.code(first)))
                .or_default()
                .push(ci);
        }
        let mut cstats: Vec<CandStat> = cand_weights
            .iter()
            .map(|&w| CandStat {
                count: 0.0,
                marginal: 0.0,
                weight: w,
            })
            .collect();
        let mut codes: Vec<u32> = Vec::with_capacity(n_cols);
        for (i, wr) in view.iter().enumerate() {
            table.row_codes(wr.row, &mut codes);
            let cov = covered_weight[i];
            for &c in &free_cols {
                if let Some(cands) = index.get(&(c as u32, codes[c])) {
                    for &ci in cands {
                        if next[ci].covers_codes(&codes) {
                            let s = &mut cstats[ci];
                            s.count += wr.weight;
                            s.marginal += wr.weight * (s.weight - s.weight.min(cov));
                        }
                    }
                }
            }
        }

        for (cand, stat) in next.iter().zip(&cstats) {
            if stat.marginal > best_h {
                best_h = stat.marginal;
            }
            counted.insert(cand.clone(), *stat);
        }
        current = next;
    }

    // Pick the winner: max marginal, ties broken toward higher weight then
    // lexicographically smaller codes (deterministic output).
    let mut best: Option<(&Rule, &CandStat)> = None;
    for (rule, stat) in &counted {
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

/// Exhaustive best-marginal search (no pruning, no level cap shortcuts) —
/// enumerates every rule with positive support. Exponential; test oracle.
pub fn brute_force_best_marginal(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    covered_weight: &[f64],
    max_weight: f64,
    base: Option<&Rule>,
) -> Option<(Rule, f64)> {
    let table = view.table();
    let n_cols = table.n_columns();
    let base = base.cloned().unwrap_or_else(|| Rule::trivial(n_cols));
    let free: Vec<usize> = (0..n_cols).filter(|&c| base.is_star(c)).collect();

    // Enumerate all rules as (subset of free columns, values from some row).
    let mut rules: rustc_hash::FxHashSet<Rule> = rustc_hash::FxHashSet::default();
    for wr in view.iter() {
        for mask in 1u32..(1 << free.len()) {
            let mut r = base.clone();
            for (bit, &c) in free.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    r = r.with_value(c, table.code(wr.row, c));
                }
            }
            rules.insert(r);
        }
    }
    let mut best: Option<(Rule, f64)> = None;
    for rule in rules {
        let w = weight.weight(&rule, table);
        if w > max_weight + 1e-12 {
            continue;
        }
        let mut marginal = 0.0;
        for (i, wr) in view.iter().enumerate() {
            if rule.covers_row(table, wr.row) {
                marginal += wr.weight * (w - w.min(covered_weight[i]));
            }
        }
        if marginal > 0.0 && best.as_ref().is_none_or(|(_, m)| marginal > *m + 1e-12) {
            best = Some((rule, marginal));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitsWeight, SizeWeight};
    use sdd_table::{Schema, Table};

    /// 4×(a,x), 3×(a,y), 2×(b,y), 1×(c,z).
    fn t() -> Table {
        let mut rows: Vec<[&str; 2]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a", "x"], 4));
        rows.extend(std::iter::repeat_n(["a", "y"], 3));
        rows.extend(std::iter::repeat_n(["b", "y"], 2));
        rows.push(["c", "z"]);
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    #[test]
    fn first_pick_maximizes_weight_times_count() {
        let table = t();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let best =
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(2.0)).unwrap();
        // Candidates: (a,?) 1×7=7, (a,x) 2×4=8, (a,y) 2×3=6, (?,y) 1×5=5 ...
        assert_eq!(best.rule.display(&table), "(a, x)");
        assert_eq!(best.marginal_value, 8.0);
        assert_eq!(best.count, 4.0);
        assert_eq!(best.weight, 2.0);
    }

    #[test]
    fn marginal_accounts_for_already_covered_tuples() {
        let table = t();
        let view = table.view();
        // Pretend (a,x) [weight 2] was already picked: its 4 tuples are covered.
        let mut cov = vec![0.0; view.len()];
        cov[..4].fill(2.0);
        let best =
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(2.0)).unwrap();
        // (a,y): 2×3=6 fresh. (a,?): covers 7 but 4 are at cov=2 ≥ 1 → 3.
        // (?,y): 5 tuples uncovered → 5. So (a,y) wins.
        assert_eq!(best.rule.display(&table), "(a, y)");
        assert_eq!(best.marginal_value, 6.0);
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n_rows = rng.gen_range(5..40);
            let rows: Vec<[String; 3]> = (0..n_rows)
                .map(|_| {
                    [
                        format!("a{}", rng.gen_range(0..3)),
                        format!("b{}", rng.gen_range(0..4)),
                        format!("c{}", rng.gen_range(0..2)),
                    ]
                })
                .collect();
            let table = Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap();
            let view = table.view();
            let cov: Vec<f64> = (0..view.len()).map(|_| rng.gen_range(0.0..2.5)).collect();
            let mw = 3.0;
            let fast = find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(mw));
            let slow = brute_force_best_marginal(&view, &SizeWeight, &cov, mw, None);
            match (fast, slow) {
                (Some(f), Some(s)) => {
                    assert!(
                        (f.marginal_value - s.1).abs() < 1e-9,
                        "trial {trial}: fast {} ({:?}) vs brute {} ({:?})",
                        f.marginal_value,
                        f.rule,
                        s.1,
                        s.0
                    );
                }
                (None, None) => {}
                (f, s) => panic!("trial {trial}: disagreement: {f:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn pruning_does_not_change_the_answer() {
        let table = t();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let mut with = SearchOptions::new(2.0);
        with.pruning = true;
        let mut without = SearchOptions::new(2.0);
        without.pruning = false;
        let a = find_best_marginal_rule(&view, &SizeWeight, &cov, &with).unwrap();
        let b = find_best_marginal_rule(&view, &SizeWeight, &cov, &without).unwrap();
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.marginal_value, b.marginal_value);
        assert!(a.stats.counted <= b.stats.counted);
    }

    #[test]
    fn small_mw_caps_the_returned_weight() {
        let table = t();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let best =
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(1.0)).unwrap();
        // With mw=1 only size-1 rules qualify: (a,?) has marginal 7.
        assert!(best.weight <= 1.0);
        assert_eq!(best.rule.display(&table), "(a, ?)");
        assert_eq!(best.marginal_value, 7.0);
    }

    #[test]
    fn base_constrains_to_strict_super_rules() {
        let table = t();
        let base = Rule::from_pairs(&table, &[("A", "a")]).unwrap();
        let filtered = crate::filter_to_rule(&table.view(), &base);
        let view = filtered.as_view();
        let cov = vec![0.0; view.len()];
        let mut opts = SearchOptions::new(2.0);
        opts.base = Some(base.clone());
        let best = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts).unwrap();
        assert!(best.rule.is_strict_super_rule_of(&base));
        // Best extension: (a,x) with weight 2, marginal 8.
        assert_eq!(best.rule.display(&table), "(a, x)");
    }

    #[test]
    fn max_rule_size_caps_search_depth() {
        let table = t();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let mut opts = SearchOptions::new(2.0);
        opts.max_rule_size = Some(1);
        let best = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts).unwrap();
        assert_eq!(best.rule.size(), 1);
        assert_eq!(best.stats.passes, 1);
    }

    #[test]
    fn returns_none_when_everything_is_fully_covered() {
        let table = t();
        let view = table.view();
        // Every tuple already covered at the max possible weight.
        let cov = vec![2.0; view.len()];
        assert!(
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(2.0)).is_none()
        );
    }

    #[test]
    fn empty_view_returns_none() {
        let table = t();
        let empty = table.gather_rows(&[]);
        assert!(
            find_best_marginal_rule(&empty.view(), &SizeWeight, &[], &SearchOptions::new(2.0))
                .is_none()
        );
    }

    #[test]
    fn bits_weight_changes_the_winner() {
        // B has 4 distinct values (2 bits), A has 3 (2 bits): with Bits, a
        // (a,x) pair is worth 4, same relative ordering as Size here, but a
        // column with 2 values is worth only 1 bit.
        let table = Table::from_rows(
            Schema::new(["Bin", "Wide"]).unwrap(),
            &[
                &["0", "v1"],
                &["0", "v2"],
                &["0", "v3"],
                &["0", "v4"],
                &["0", "v4"],
                &["1", "v5"],
            ],
        )
        .unwrap();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let best =
            find_best_marginal_rule(&view, &BitsWeight, &cov, &SearchOptions::new(10.0)).unwrap();
        // Size would love (0,?) count 5. Bits: (0,?) = 1×5 = 5;
        // (0,v4) = (1+3)×2 = 8 wins (|Wide| = 5 → 3 bits).
        assert_eq!(best.rule.display(&table), "(0, v4)");
    }

    #[test]
    fn weighted_tuples_scale_marginals() {
        let table = t();
        let weights = vec![10.0; table.n_rows()];
        let view = TableView::all_with_weights(&table, &weights);
        let cov = vec![0.0; view.len()];
        let best =
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(2.0)).unwrap();
        assert_eq!(best.marginal_value, 80.0);
        assert_eq!(best.count, 40.0);
    }

    #[test]
    fn stats_report_pruning_work() {
        let table = t();
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let best =
            find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(2.0)).unwrap();
        assert!(best.stats.generated >= best.stats.counted);
        assert!(best.stats.passes >= 1);
    }
}
