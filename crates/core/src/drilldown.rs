//! The two smart drill-down operations (paper §2.3 and §3.1).
//!
//! * **Rule drill-down** — the analyst clicks a rule `r'`; expand it into the
//!   best list of `k` strict super-rules of `r'`, scored over the tuples
//!   covered by `r'` (the paper's reduction filters `T` to `T_{r'}`).
//! * **Star drill-down** — the analyst clicks a `?` in column `c` of `r'`;
//!   same, but every displayed rule must instantiate column `c`. The paper
//!   implements this by swapping in `W'(r) = 0` when `r` leaves `c` starred;
//!   we do exactly that via [`crate::weight::RequireColumn`].
//!
//! Both return a [`BrsResult`] whose rules are full rules (base values
//! merged in), ready for display.
//!
//! Both first reduce the view to `T_{r'}` with [`filter_to_rule`]: the view
//! itself when `r'` covers all of it — always, for a sample served for
//! `r'` — and otherwise the covered tuples gathered into a table of their
//! own. Either way the search scans whole column slices.

use crate::kernel::covered_rows;
use crate::{Brs, BrsResult, RequireColumn, Rule, WeightFn};
use sdd_table::{OwnedTableView, TableView};

/// Which drill-down the analyst performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillDownKind {
    /// Click on the rule itself.
    Rule,
    /// Click on the `?` in the given column.
    Star(usize),
}

/// The paper's `T_{r'}` as [`filter_to_rule`] hands it back.
#[derive(Debug, Clone)]
pub enum FilteredView<'a> {
    /// The rule covers every tuple: the input view itself, nothing copied.
    Whole(TableView<'a>),
    /// The covered tuples and their weights, gathered in view order into a
    /// table of their own.
    Gathered(OwnedTableView),
}

impl FilteredView<'_> {
    /// The filtered tuples as a view.
    pub fn as_view(&self) -> TableView<'_> {
        match self {
            FilteredView::Whole(view) => *view,
            FilteredView::Gathered(owned) => owned.as_view(),
        }
    }
}

/// Filters `view` to the tuples covered by `base` (the paper's `T_{r'}`),
/// evaluating the rule column-at-a-time over the dictionary-encoded column
/// slices ([`covered_rows`]).
///
/// A sample served for `base` holds only tuples `base` covers, so in the
/// product this is the identity and the search that follows reads the
/// sample's own columns. Otherwise (a one-shot [`drill_down`] into a full
/// table) the covered tuples are gathered in view order, so the search
/// performs the same float operations in the same order either way.
pub fn filter_to_rule<'a>(view: &TableView<'a>, base: &Rule) -> FilteredView<'a> {
    let covered = covered_rows(view.table(), base);
    if covered.len() == view.len() {
        FilteredView::Whole(*view)
    } else {
        FilteredView::Gathered(view.gather(&covered))
    }
}

/// Rule drill-down with explicit optimizer configuration.
pub fn drill_down_with(brs: &Brs<'_>, view: &TableView<'_>, base: &Rule, k: usize) -> BrsResult {
    let filtered = filter_to_rule(view, base);
    brs.run_with_base(&filtered.as_view(), Some(base.clone()), k)
}

/// Star drill-down with explicit optimizer configuration.
///
/// # Panics
/// If `base` already instantiates `column` (there is no `?` to click).
pub fn star_drill_down_with(
    brs: &Brs<'_>,
    view: &TableView<'_>,
    base: &Rule,
    column: usize,
    k: usize,
) -> BrsResult {
    assert!(
        base.is_star(column),
        "star drill-down requires a ? in the clicked column"
    );
    let filtered = filter_to_rule(view, base);
    // W'(r) = 0 when column is starred (paper §3.1).
    let wrapped = RequireColumn::new(brs.weight_fn(), column);
    let inner = Brs::new(&wrapped).inherit_config(brs);
    inner.run_with_base(&filtered.as_view(), Some(base.clone()), k)
}

/// Rule drill-down with default configuration (`mw` = max possible weight).
pub fn drill_down(view: &TableView<'_>, weight: &dyn WeightFn, base: &Rule, k: usize) -> BrsResult {
    drill_down_with(&Brs::new(weight), view, base, k)
}

/// Star drill-down with default configuration.
pub fn star_drill_down(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    base: &Rule,
    column: usize,
    k: usize,
) -> BrsResult {
    star_drill_down_with(&Brs::new(weight), view, base, column, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeWeight;
    use sdd_table::{Schema, Table};

    /// Miniature of the paper's department-store example.
    fn t() -> Table {
        let mut rows: Vec<[&str; 3]> = Vec::new();
        // Walmart block: cookies dominate, then two regional clusters.
        rows.extend(std::iter::repeat_n(["Walmart", "cookies", "AK-1"], 5));
        rows.extend(std::iter::repeat_n(["Walmart", "towels", "CA-1"], 4));
        rows.extend(std::iter::repeat_n(["Walmart", "soap", "WA-5"], 3));
        rows.push(["Walmart", "soap", "CA-1"]);
        // Non-Walmart noise.
        rows.extend(std::iter::repeat_n(["Target", "bicycles", "MA-3"], 6));
        rows.extend(std::iter::repeat_n(["Costco", "comforters", "MA-3"], 2));
        Table::from_rows(Schema::new(["Store", "Product", "Region"]).unwrap(), &rows).unwrap()
    }

    #[test]
    fn rule_drill_down_returns_strict_super_rules() {
        let table = t();
        let base = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        let res = drill_down(&table.view(), &SizeWeight, &base, 3);
        assert!(!res.rules.is_empty());
        for s in &res.rules {
            assert!(s.rule.is_strict_super_rule_of(&base), "{:?}", s.rule);
        }
    }

    #[test]
    fn rule_drill_down_counts_are_within_base() {
        let table = t();
        let base = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        let res = drill_down(&table.view(), &SizeWeight, &base, 3);
        let base_count = table
            .view()
            .iter()
            .filter(|wr| base.covers_row(&table, wr.row))
            .count() as f64;
        for s in &res.rules {
            assert!(s.count <= base_count);
        }
        // The Walmart×cookies cluster must be found.
        assert!(res
            .rules
            .iter()
            .any(|s| s.rule.display(&table).contains("cookies")));
    }

    #[test]
    fn star_drill_down_instantiates_the_clicked_column() {
        let table = t();
        let base = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        let region = table.schema().index_of("Region").unwrap();
        let res = star_drill_down(&table.view(), &SizeWeight, &base, region, 3);
        assert!(!res.rules.is_empty());
        for s in &res.rules {
            assert!(
                !s.rule.is_star(region),
                "{:?} leaves Region starred",
                s.rule
            );
            assert!(s.rule.is_strict_super_rule_of(&base));
        }
        // CA-1 is Walmart's biggest region (5 rows).
        assert!(res
            .rules
            .iter()
            .any(|s| s.rule.display(&table).contains("CA-1")));
    }

    #[test]
    #[should_panic(expected = "requires a ?")]
    fn star_drill_down_on_instantiated_column_panics() {
        let table = t();
        let base = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        let store = table.schema().index_of("Store").unwrap();
        let _ = star_drill_down(&table.view(), &SizeWeight, &base, store, 3);
    }

    #[test]
    fn drill_down_on_trivial_rule_equals_plain_run() {
        let table = t();
        let trivial = Rule::trivial(3);
        let a = drill_down(&table.view(), &SizeWeight, &trivial, 3);
        let b = Brs::new(&SizeWeight).run(&table.view(), 3);
        assert_eq!(a.rules_only(), b.rules_only());
    }

    #[test]
    fn drill_down_on_rule_covering_nothing_returns_empty() {
        let table = t();
        // Build a rule that covers nothing: Target × cookies never co-occurs.
        let base =
            Rule::from_pairs(&table, &[("Store", "Target"), ("Product", "cookies")]).unwrap();
        let res = drill_down(&table.view(), &SizeWeight, &base, 3);
        assert!(res.rules.is_empty());
    }

    #[test]
    fn filter_to_rule_lends_a_fully_covered_view_and_gathers_a_partial_one() {
        let table = t();
        let weights: Vec<f64> = (0..table.n_rows()).map(|i| 0.5 + i as f64).collect();
        let view = TableView::all_with_weights(&table, &weights);

        // Partially covered: exactly the covered rows and their weights, in
        // view order, in the source's code space.
        let base = Rule::from_pairs(&table, &[("Region", "MA-3")]).unwrap();
        let covered = covered_rows(&table, &base);
        assert_eq!(covered.len(), 8);
        let FilteredView::Gathered(got) = filter_to_rule(&view, &base) else {
            panic!("a partially covered view must be gathered");
        };
        let want = table.gather_rows(&covered);
        for c in 0..table.n_columns() {
            assert_eq!(got.table().column(c), want.column(c));
            assert!(std::sync::Arc::ptr_eq(
                got.table().dictionary_arc(c),
                table.dictionary_arc(c)
            ));
        }
        let want_weights: Vec<f64> = covered.iter().map(|&r| weights[r as usize]).collect();
        assert_eq!(got.weights(), Some(&want_weights[..]));

        // Fully covered (a sample served for `base`): the same table and the
        // same weight slice come back — no row or weight is copied.
        let sample = got.as_view();
        for rule in [&base, &Rule::trivial(3)] {
            let same = filter_to_rule(&sample, rule);
            assert!(matches!(same, FilteredView::Whole(_)));
            assert!(std::ptr::eq(same.as_view().table(), sample.table()));
            assert!(std::ptr::eq(
                same.as_view().weights().unwrap(),
                sample.weights().unwrap()
            ));
        }

        // Nothing covered: an empty table of the same shape.
        let none =
            Rule::from_pairs(&table, &[("Store", "Target"), ("Product", "cookies")]).unwrap();
        assert!(filter_to_rule(&view, &none).as_view().is_empty());
    }
}
