//! Scoring rule lists and rule sets (paper §2.1, Lemma 1, Definition 2).
//!
//! `Score(R) = Σ_{r ∈ R} W(r) · MCount(r, R)` where `MCount(r, R)` counts
//! the tuples covered by `r` but by no earlier rule of the list. Lemma 1
//! shows sorting a list by descending weight never lowers its score, so a
//! rule *set* is scored by sorting it first (Definition 2).
//!
//! All quantities here are weighted by the view's per-tuple weights, which
//! makes the same functions compute `Count`/`MCount` (unit weights),
//! `Sum`/`MSum` (measure weights, §6.3), and scaled sample estimates (§4).

use crate::{Rule, WeightFn};
use sdd_table::TableView;

/// Per-rule breakdown of a scored rule list.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleScore {
    /// The rule.
    pub rule: Rule,
    /// `W(rule)`.
    pub weight: f64,
    /// Total (weighted) count of tuples covered by the rule alone.
    pub count: f64,
    /// Marginal (weighted) count: tuples covered by this rule and no earlier
    /// rule in the list.
    pub mcount: f64,
}

/// A scored rule list: the per-rule breakdown plus the total.
#[derive(Debug, Clone, PartialEq)]
pub struct ListScore {
    /// Per-rule details, in list order.
    pub rules: Vec<RuleScore>,
    /// `Σ W(r)·MCount(r, R)`.
    pub total: f64,
    /// Weighted count of tuples covered by no rule at all.
    pub uncovered: f64,
}

/// Scores `rules` **in the given order** against `view`.
pub fn score_list(view: &TableView<'_>, weight: &dyn WeightFn, rules: &[Rule]) -> ListScore {
    let table = view.table();
    let weights: Vec<f64> = rules.iter().map(|r| weight.weight(r, table)).collect();
    let mut counts = vec![0.0f64; rules.len()];
    let mut mcounts = vec![0.0f64; rules.len()];
    let mut uncovered = 0.0f64;

    table.for_each_row_codes(|row, codes| {
        let weight = view.weight_at(row);
        let mut assigned = false;
        for (i, rule) in rules.iter().enumerate() {
            if rule.covers_codes(codes) {
                counts[i] += weight;
                if !assigned {
                    mcounts[i] += weight;
                    assigned = true;
                }
            }
        }
        if !assigned {
            uncovered += weight;
        }
    });

    let total = weights.iter().zip(&mcounts).map(|(w, m)| w * m).sum();
    let rules = rules
        .iter()
        .zip(weights)
        .zip(counts.iter().zip(&mcounts))
        .map(|((rule, weight), (&count, &mcount))| RuleScore {
            rule: rule.clone(),
            weight,
            count,
            mcount,
        })
        .collect();
    ListScore {
        rules,
        total,
        uncovered,
    }
}

/// Scores a rule **set** (Definition 2): sorts descending by weight, then
/// scores the resulting list. Ties are broken by rule content for
/// determinism.
pub fn score_set(view: &TableView<'_>, weight: &dyn WeightFn, rules: &[Rule]) -> ListScore {
    let sorted = sort_by_weight_desc(view, weight, rules);
    score_list(view, weight, &sorted)
}

/// Sorts rules in descending weight order (stable, deterministic tie-break
/// on the rule's codes).
pub fn sort_by_weight_desc(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    rules: &[Rule],
) -> Vec<Rule> {
    let table = view.table();
    let mut keyed: Vec<(f64, &Rule)> = rules.iter().map(|r| (weight.weight(r, table), r)).collect();
    keyed.sort_by(|(wa, ra), (wb, rb)| {
        wb.partial_cmp(wa)
            .expect("weights must be finite")
            .then_with(|| ra.codes().cmp(rb.codes()))
    });
    keyed.into_iter().map(|(_, r)| r.clone()).collect()
}

/// `TOP(t, R)` for every view position: the index (into `rules`, which must
/// already be in descending weight order) of the first rule covering each
/// tuple, or `None`.
pub fn top_assignment(view: &TableView<'_>, rules: &[Rule]) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(view.len());
    view.table().for_each_row_codes(|_, codes| {
        out.push(rules.iter().position(|r| r.covers_codes(codes)));
    });
    out
}

/// The (weighted) `Count` of a single rule over the view.
pub fn rule_count(view: &TableView<'_>, rule: &Rule) -> f64 {
    let table = view.table();
    view.iter()
        .filter(|wr| rule.covers_row(table, wr.row))
        .map(|wr| wr.weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeWeight;
    use sdd_table::{Schema, Table};

    /// 10 rows: 4×(a,x), 3×(a,y), 2×(b,y), 1×(c,z).
    fn t() -> Table {
        let mut rows: Vec<[&str; 2]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a", "x"], 4));
        rows.extend(std::iter::repeat_n(["a", "y"], 3));
        rows.extend(std::iter::repeat_n(["b", "y"], 2));
        rows.push(["c", "z"]);
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    fn rule(table: &Table, pairs: &[(&str, &str)]) -> Rule {
        Rule::from_pairs(table, pairs).unwrap()
    }

    #[test]
    fn counts_and_mcounts() {
        let table = t();
        let view = table.view();
        let a = rule(&table, &[("A", "a")]);
        let ax = rule(&table, &[("A", "a"), ("B", "x")]);
        // List order: (a,x) first, then (a,?).
        let s = score_list(&view, &SizeWeight, &[ax.clone(), a.clone()]);
        assert_eq!(s.rules[0].count, 4.0);
        assert_eq!(s.rules[0].mcount, 4.0);
        assert_eq!(s.rules[1].count, 7.0);
        assert_eq!(s.rules[1].mcount, 3.0); // the 4 (a,x) rows already taken
        assert_eq!(s.total, 2.0 * 4.0 + 1.0 * 3.0);
        assert_eq!(s.uncovered, 3.0);
    }

    #[test]
    fn lemma1_sorting_never_lowers_score() {
        let table = t();
        let view = table.view();
        let a = rule(&table, &[("A", "a")]);
        let ax = rule(&table, &[("A", "a"), ("B", "x")]);
        let bad_order = score_list(&view, &SizeWeight, &[a.clone(), ax.clone()]);
        let good_order = score_list(&view, &SizeWeight, &[ax, a]);
        assert!(good_order.total >= bad_order.total);
        // Here strictly better: the x-rows move to the weight-2 rule.
        assert!(good_order.total > bad_order.total);
    }

    #[test]
    fn score_set_equals_score_of_sorted_list() {
        let table = t();
        let view = table.view();
        let a = rule(&table, &[("A", "a")]);
        let ax = rule(&table, &[("A", "a"), ("B", "x")]);
        let set_score = score_set(&view, &SizeWeight, &[a.clone(), ax.clone()]);
        let list_score = score_list(&view, &SizeWeight, &[ax, a]);
        assert_eq!(set_score.total, list_score.total);
    }

    #[test]
    fn top_assignment_matches_first_covering_rule() {
        let table = t();
        let view = table.view();
        let ax = rule(&table, &[("A", "a"), ("B", "x")]);
        let a = rule(&table, &[("A", "a")]);
        let tops = top_assignment(&view, &[ax, a]);
        assert_eq!(tops[0], Some(0)); // (a,x) row
        assert_eq!(tops[4], Some(1)); // (a,y) row
        assert_eq!(tops[9], None); // (c,z) row
    }

    #[test]
    fn weighted_view_scales_counts() {
        let table = t();
        // Weight every row by 2.
        let weights = vec![2.0; table.n_rows()];
        let view = TableView::all_with_weights(&table, &weights);
        let a = rule(&table, &[("A", "a")]);
        assert_eq!(rule_count(&view, &a), 14.0);
        let s = score_list(&view, &SizeWeight, &[a]);
        assert_eq!(s.rules[0].mcount, 14.0);
    }

    #[test]
    fn empty_rule_list_scores_zero() {
        let table = t();
        let view = table.view();
        let s = score_list(&view, &SizeWeight, &[]);
        assert_eq!(s.total, 0.0);
        assert_eq!(s.uncovered, 10.0);
    }

    #[test]
    fn duplicate_rules_add_no_marginal() {
        let table = t();
        let view = table.view();
        let a = rule(&table, &[("A", "a")]);
        let s = score_list(&view, &SizeWeight, &[a.clone(), a]);
        assert_eq!(s.rules[0].mcount, 7.0);
        assert_eq!(s.rules[1].mcount, 0.0);
    }

    #[test]
    fn sort_is_deterministic_under_ties() {
        let table = t();
        let view = table.view();
        let a = rule(&table, &[("A", "a")]);
        let b = rule(&table, &[("A", "b")]);
        let s1 = sort_by_weight_desc(&view, &SizeWeight, &[a.clone(), b.clone()]);
        let s2 = sort_by_weight_desc(&view, &SizeWeight, &[b, a]);
        assert_eq!(s1, s2);
    }
}
