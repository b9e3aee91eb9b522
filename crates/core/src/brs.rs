//! The BRS (Best Rule Set) greedy optimizer (paper §3.4, Algorithm 1).
//!
//! `Score` is a monotone, non-negative, submodular set function (Lemma 3),
//! so greedily adding the best marginal rule `k` times yields a
//! `1 − ((k−1)/k)^k ≥ 1 − 1/e` approximation of the optimal rule set
//! (Problem 3). Each greedy step delegates to
//! [`crate::marginal::find_best_marginal_rule`] (Algorithm 2).

use crate::kernel::{covered_rows, SearchScratch};
use crate::marginal::{find_best_marginal_rule_with_scratch, SearchOptions, SearchStats};
use crate::{score_list, sort_by_weight_desc, Rule, WeightFn};
use sdd_table::TableView;

/// One displayed rule with its aggregates, as in the paper's result tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredRule {
    /// The rule.
    pub rule: Rule,
    /// `W(rule)` — the paper's *Weight* column.
    pub weight: f64,
    /// Weighted `Count` (or `Sum`) of all tuples covered by the rule — what
    /// the paper displays to the analyst.
    pub count: f64,
    /// Marginal count within the displayed list (used for scoring).
    pub mcount: f64,
}

/// The outcome of one smart drill-down optimization.
#[derive(Debug, Clone)]
pub struct BrsResult {
    /// Rules in display order — descending weight, per Lemma 1.
    pub rules: Vec<ScoredRule>,
    /// Rules in the order the greedy algorithm selected them.
    pub selection_order: Vec<Rule>,
    /// `Score` of the displayed list.
    pub total_score: f64,
    /// Accumulated search work counters across all `k` greedy steps.
    pub stats: SearchStats,
}

impl BrsResult {
    /// The rules only, in display order.
    pub fn rules_only(&self) -> Vec<Rule> {
        self.rules.iter().map(|s| s.rule.clone()).collect()
    }
}

/// Builder-style configuration for the BRS optimizer.
///
/// ```
/// # use sdd_table::{Schema, Table};
/// # use sdd_core::{Brs, SizeWeight};
/// let table = Table::from_rows(
///     Schema::new(["A", "B"]).unwrap(),
///     &[&["a", "x"], &["a", "x"], &["a", "y"], &["b", "y"]],
/// ).unwrap();
/// let result = Brs::new(&SizeWeight).with_max_weight(2.0).run(&table.view(), 2);
/// assert!(!result.rules.is_empty());
/// ```
#[derive(Clone)]
pub struct Brs<'w> {
    weight: &'w dyn WeightFn,
    max_weight: Option<f64>,
    pruning: bool,
    max_rule_size: Option<usize>,
}

impl<'w> Brs<'w> {
    /// A BRS optimizer using `weight`. `mw` defaults to the weight
    /// function's maximum possible weight (exact but slowest — see
    /// [`Brs::with_max_weight`] and paper §5.2.1).
    pub fn new(weight: &'w dyn WeightFn) -> Self {
        Self {
            weight,
            max_weight: None,
            pruning: true,
            max_rule_size: None,
        }
    }

    /// Sets the paper's `mw` parameter: assume no optimal rule weighs more
    /// than this. Smaller values prune harder and run faster; if the true
    /// optimum contains a heavier rule the result may be suboptimal (the
    /// paper bounds the loss in §3.5, "Approximation ratio").
    pub fn with_max_weight(mut self, mw: f64) -> Self {
        self.max_weight = Some(mw);
        self
    }

    /// Enables/disables the upper-bound pruning of Algorithm 2 (ablation A1).
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Caps the size (number of instantiated columns beyond the drill-down
    /// base) of candidate rules.
    pub fn with_max_rule_size(mut self, max_size: usize) -> Self {
        self.max_rule_size = Some(max_size);
        self
    }

    /// The configured weight function.
    pub fn weight_fn(&self) -> &'w dyn WeightFn {
        self.weight
    }

    /// Copies `other`'s tuning (mw, pruning, size cap) onto `self`, keeping
    /// `self`'s weight function. Used by star drill-down, which swaps the
    /// weight for the paper's `W'` but keeps the optimizer settings.
    pub(crate) fn inherit_config(mut self, other: &Brs<'_>) -> Self {
        self.max_weight = other.max_weight;
        self.pruning = other.pruning;
        self.max_rule_size = other.max_rule_size;
        self
    }

    /// Expands the trivial rule: finds the best `k`-rule summary of `view`.
    pub fn run(&self, view: &TableView<'_>, k: usize) -> BrsResult {
        self.run_with_base(view, None, k)
    }

    /// Incremental BRS (paper §6.1): "instead of running the algorithm with
    /// a fixed value of k, it can start with an empty rule-list and keep
    /// adding rules to it, displaying new rules as they are found."
    ///
    /// `on_rule` is invoked after every greedy pick with the rule and its
    /// marginal gain; return `false` to stop (e.g. when the analyst issues
    /// a new command). `max_k` bounds the loop.
    ///
    /// The paper's time-limit variant ("alternatively, we can set a time
    /// limit ... and display as many rules as we can find within that time
    /// limit") is a caller-side callback — `|_, _| start.elapsed() < budget`
    /// — see `examples/interactive_explorer.rs`. Core itself never reads
    /// the wall clock: results must be a pure function of the input (lint
    /// rule D002), and at least one rule is always searched because the
    /// callback runs *after* each pick.
    pub fn run_streaming(
        &self,
        view: &TableView<'_>,
        max_k: usize,
        mut on_rule: impl FnMut(&Rule, f64) -> bool,
    ) -> BrsResult {
        self.run_inner(view, None, max_k, &mut on_rule)
    }

    /// Runs the greedy loop with an optional drill-down base rule. The view
    /// must already be filtered to base-covered tuples (the drill-down
    /// helpers in [`crate::drilldown`] do this).
    pub fn run_with_base(&self, view: &TableView<'_>, base: Option<Rule>, k: usize) -> BrsResult {
        self.run_inner(view, base, k, &mut |_, _| true)
    }

    fn run_inner(
        &self,
        view: &TableView<'_>,
        base: Option<Rule>,
        k: usize,
        on_rule: &mut dyn FnMut(&Rule, f64) -> bool,
    ) -> BrsResult {
        let table = view.table();
        let mw = self
            .max_weight
            .unwrap_or_else(|| self.weight.max_weight(table));
        let mut opts = SearchOptions::new(mw);
        opts.pruning = self.pruning;
        opts.max_rule_size = self.max_rule_size;
        opts.base = base;

        let mut covered = vec![0.0f64; view.len()];
        let mut selection: Vec<Rule> = Vec::with_capacity(k);
        let mut stats = SearchStats::default();
        // One scratch for all k searches: steady-state iterations reuse the
        // kernel's histogram/candidate buffers.
        let mut scratch = SearchScratch::new();

        for _ in 0..k {
            let Some(best) = find_best_marginal_rule_with_scratch(
                view,
                &self.weight,
                &covered,
                &opts,
                &mut scratch,
            ) else {
                break;
            };
            stats.absorb(&best.stats);
            // Update per-tuple best covering weight from the columnar
            // scan's row list; the max-update is cheap and order-insensitive.
            for p in covered_rows(table, &best.rule) {
                let slot = &mut covered[p as usize];
                if best.weight > *slot {
                    *slot = best.weight;
                }
            }
            let keep_going = on_rule(&best.rule, best.marginal_value);
            selection.push(best.rule);
            if !keep_going {
                break;
            }
        }

        let display = sort_by_weight_desc(view, &self.weight, &selection);
        let scored = score_list(view, &self.weight, &display);
        BrsResult {
            rules: scored
                .rules
                .into_iter()
                .map(|rs| ScoredRule {
                    rule: rs.rule,
                    weight: rs.weight,
                    count: rs.count,
                    mcount: rs.mcount,
                })
                .collect(),
            selection_order: selection,
            total_score: scored.total,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{score_set, SizeWeight};
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
    fn greedy_picks_follow_marginal_order() {
        let table = t();
        let res = Brs::new(&SizeWeight)
            .with_max_weight(2.0)
            .run(&table.view(), 3);
        let picks: Vec<String> = res
            .selection_order
            .iter()
            .map(|r| r.display(&table))
            .collect();
        // (a,x): 8; then (a,y): 6; then (b,y): 4.
        assert_eq!(picks, vec!["(a, x)", "(a, y)", "(b, y)"]);
    }

    #[test]
    fn display_order_is_descending_weight() {
        let table = t();
        let res = Brs::new(&SizeWeight)
            .with_max_weight(2.0)
            .run(&table.view(), 3);
        for pair in res.rules.windows(2) {
            assert!(pair[0].weight >= pair[1].weight);
        }
    }

    #[test]
    fn total_score_matches_score_set() {
        let table = t();
        let view = table.view();
        let res = Brs::new(&SizeWeight).with_max_weight(2.0).run(&view, 3);
        let expected = score_set(&view, &SizeWeight, &res.rules_only());
        assert!((res.total_score - expected.total).abs() < 1e-9);
    }

    #[test]
    fn stops_early_when_no_marginal_gain_left() {
        let table =
            Table::from_rows(Schema::new(["A"]).unwrap(), &[&["a"], &["a"], &["b"]]).unwrap();
        let res = Brs::new(&SizeWeight).run(&table.view(), 10);
        // Only two distinct rules exist: (a) and (b).
        assert_eq!(res.rules.len(), 2);
    }

    #[test]
    fn k_zero_returns_empty() {
        let table = t();
        let res = Brs::new(&SizeWeight).run(&table.view(), 0);
        assert!(res.rules.is_empty());
        assert_eq!(res.total_score, 0.0);
    }

    #[test]
    fn default_mw_is_exact() {
        let table = t();
        let with_default = Brs::new(&SizeWeight).run(&table.view(), 2);
        let with_max = Brs::new(&SizeWeight)
            .with_max_weight(2.0)
            .run(&table.view(), 2);
        assert_eq!(with_default.total_score, with_max.total_score);
    }

    #[test]
    fn too_small_mw_degrades_gracefully() {
        let table = t();
        let res = Brs::new(&SizeWeight)
            .with_max_weight(1.0)
            .run(&table.view(), 2);
        // All returned rules respect the cap.
        assert!(res.rules.iter().all(|r| r.weight <= 1.0));
        assert!(!res.rules.is_empty());
    }

    #[test]
    fn counts_are_full_counts_not_mcounts() {
        let table = t();
        let res = Brs::new(&SizeWeight)
            .with_max_weight(2.0)
            .run(&table.view(), 3);
        // Displayed Count for (a,x) must be its full coverage (4), and for a
        // later-overlapping rule the count may exceed its mcount.
        let ax = res
            .rules
            .iter()
            .find(|r| r.rule.display(&table) == "(a, x)")
            .unwrap();
        assert_eq!(ax.count, 4.0);
        assert!(res.rules.iter().all(|r| r.count >= r.mcount));
    }

    #[test]
    fn streaming_reports_rules_in_selection_order() {
        let table = t();
        let mut seen: Vec<String> = Vec::new();
        let res = Brs::new(&SizeWeight).with_max_weight(2.0).run_streaming(
            &table.view(),
            3,
            |rule, gain| {
                assert!(gain > 0.0);
                seen.push(rule.display(&table));
                true
            },
        );
        assert_eq!(seen.len(), res.selection_order.len());
        assert_eq!(seen[0], "(a, x)");
    }

    #[test]
    fn streaming_stop_truncates_selection() {
        let table = t();
        let res = Brs::new(&SizeWeight).run_streaming(&table.view(), 10, |_, _| false);
        assert_eq!(res.rules.len(), 1);
    }

    #[test]
    fn deadline_callback_returns_at_least_one_rule() {
        // The wall-clock budget lives with callers now (D002 keeps Instant
        // out of core): a deadline is just a `run_streaming` callback.
        let table = t();
        let res = Brs::new(&SizeWeight).run_streaming(&table.view(), 10, |_, _| false);
        assert_eq!(
            res.rules.len(),
            1,
            "an exhausted budget still yields one rule"
        );
        let start = std::time::Instant::now();
        let generous = Brs::new(&SizeWeight).run_streaming(&table.view(), 3, |_, _| {
            start.elapsed() < std::time::Duration::from_secs(5)
        });
        assert_eq!(generous.rules.len(), 3);
    }

    #[test]
    fn sum_aggregate_via_weighted_view() {
        // §6.3: Sum over a measure column = per-tuple weights.
        let mut b = Table::builder(Schema::new(["Store"]).unwrap());
        for (store, sales) in [("walmart", 100.0), ("walmart", 50.0), ("target", 10.0)] {
            b.push_row(&[store]).unwrap();
            let _ = sales;
        }
        b.add_measure("Sales", vec![100.0, 50.0, 10.0]).unwrap();
        let table = b.build().unwrap();
        let view = table.view_weighted_by("Sales").unwrap();
        let res = Brs::new(&SizeWeight).run(&view, 1);
        assert_eq!(res.rules[0].rule.display(&table), "(walmart)");
        assert_eq!(res.rules[0].count, 150.0);
    }
}
