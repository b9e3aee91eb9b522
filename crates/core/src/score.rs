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

use crate::{covered_rows, Rule, WeightFn};
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
///
/// det-order: a rule's rows come ascending from [`covered_rows`] and a
/// bitmask marks the rows earlier rules took, so every sum adds its rows'
/// weights in row order, as a loop over the rows testing each rule would.
pub fn score_list(view: &TableView<'_>, weight: &dyn WeightFn, rules: &[Rule]) -> ListScore {
    let table = view.table();
    let mut assigned = vec![0u64; view.len().div_ceil(64)];
    let rules: Vec<RuleScore> = rules
        .iter()
        .map(|rule| {
            let (mut count, mut mcount) = (0.0f64, 0.0f64);
            for r in covered_rows(table, rule) {
                let (r, w) = (r as usize, view.weight_at(r as usize));
                count += w;
                let word = &mut assigned[r / 64];
                if *word >> (r % 64) & 1 == 0 {
                    *word |= 1 << (r % 64);
                    mcount += w;
                }
            }
            RuleScore {
                rule: rule.clone(),
                weight: weight.weight(rule, table),
                count,
                mcount,
            }
        })
        .collect();
    let mut uncovered = 0.0f64;
    for r in (0..view.len()).filter(|&r| assigned[r / 64] >> (r % 64) & 1 == 0) {
        uncovered += view.weight_at(r);
    }
    ListScore {
        total: rules.iter().map(|s| s.weight * s.mcount).sum(),
        rules,
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

/// The (weighted) `Count` of a single rule over the view.
pub fn rule_count(view: &TableView<'_>, rule: &Rule) -> f64 {
    let covered = covered_rows(view.table(), rule).into_iter();
    covered.map(|r| view.weight_at(r as usize)).sum()
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

    /// The row loop `score_list` once was: every row tests every rule in
    /// list order.
    fn score_list_rowwise(
        view: &TableView<'_>,
        weight: &dyn WeightFn,
        rules: &[Rule],
    ) -> ListScore {
        let table = view.table();
        let weights: Vec<f64> = rules.iter().map(|r| weight.weight(r, table)).collect();
        let mut counts = vec![0.0f64; rules.len()];
        let mut mcounts = vec![0.0f64; rules.len()];
        let mut uncovered = 0.0f64;
        for row in 0..view.len() {
            let weight = view.weight_at(row);
            let mut assigned = false;
            for (i, rule) in rules.iter().enumerate() {
                if rule.covers_row(table, row as u32) {
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
        }
        let total = weights.iter().zip(&mcounts).map(|(w, m)| w * m).sum();
        let rules = rules.iter().zip(weights).zip(counts.iter().zip(&mcounts));
        let rules = rules
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

    /// Every float of a score, by bit pattern.
    fn bits(s: &ListScore) -> Vec<u64> {
        let per_rule = s.rules.iter().flat_map(|r| [r.weight, r.count, r.mcount]);
        per_rule
            .chain([s.total, s.uncovered])
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn score_list_equals_the_row_loop_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C0_4E11);
        for trial in 0..300 {
            // Up to 4 columns of up to 6 values; the last row holds values
            // of its own and is never in the view, so a rule on it covers
            // nothing.
            let (n_cols, n_rows) = (rng.gen_range(1..5), rng.gen_range(0..1_500));
            let mut rows: Vec<Vec<String>> = (0..n_rows)
                .map(|_| {
                    (0..n_cols)
                        .map(|_| format!("v{}", rng.gen_range(0..6)))
                        .collect()
                })
                .collect();
            rows.push((0..n_cols).map(|_| "none".to_owned()).collect());
            let names: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
            let table = Table::from_rows(Schema::new(names).unwrap(), &rows).unwrap();
            let keep: Vec<u32> = (0..n_rows as u32)
                .filter(|_| rng.gen_range(0..4) != 0)
                .collect();
            let view_table = table.gather_rows(&keep);
            // Unit, one non-dyadic scale, or a weight per row.
            let weights: Vec<f64> = match trial % 3 {
                0 => Vec::new(),
                1 => vec![1_000_000.0 / 5_003.0; keep.len()],
                _ => (0..keep.len()).map(|_| rng.gen_range(0.1..3.0)).collect(),
            };
            let view = match trial % 3 {
                0 => view_table.view(),
                _ => TableView::all_with_weights(&view_table, &weights),
            };
            // Overlapping rules from random rows and column subsets, the
            // trivial rule among them; sometimes the rule covering nothing.
            let mut rules: Vec<Rule> = (0..rng.gen_range(0..6))
                .map(|_| {
                    let row = rng.gen_range(0..table.n_rows()) as u32;
                    let cols: Vec<usize> =
                        (0..n_cols).filter(|_| rng.gen_range(0..2) == 0).collect();
                    Rule::from_row_columns(&table, row, &cols)
                })
                .collect();
            if rng.gen_range(0..3) == 0 {
                rules.push(Rule::from_row_columns(&table, n_rows as u32, &[0]));
            }
            let weight: &dyn WeightFn = if trial % 2 == 0 {
                &SizeWeight
            } else {
                &crate::BitsWeight
            };
            let got = score_list(&view, weight, &rules);
            let want = score_list_rowwise(&view, weight, &rules);
            assert_eq!(got, want, "trial {trial}");
            assert_eq!(bits(&got), bits(&want), "trial {trial}");
        }
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
