//! Interaction-cost comparison: smart vs traditional drill-down (§5.1).
//!
//! The paper argues smart drill-down surfaces multi-column patterns "with a
//! single click" where the traditional operator needs one click per column
//! and forces the analyst to scan every listed value. These helpers make
//! that claim measurable: how many clicks and displayed rows does each
//! operator cost before a given target pattern is on screen?

use crate::drilldown::drill_down_all_values;
use sdd_core::{Brs, Rule, WeightFn};
use sdd_table::Table;

/// Analyst effort: interface clicks plus rows that had to be displayed
/// (an upper bound on rows the analyst must scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Number of drill-down operations performed.
    pub clicks: usize,
    /// Total result rows displayed across those operations.
    pub rows_displayed: usize,
}

/// Effort for a **traditional** analyst to reach `target`: drill each of the
/// target's instantiated columns in ascending index order, each time
/// scanning the full value list before clicking the right group.
pub fn traditional_effort(table: &Table, target: &Rule) -> Effort {
    let mut clicks = 0usize;
    let mut rows_displayed = 0usize;
    let mut filter = Rule::trivial(table.n_columns());
    for col in target.instantiated_columns() {
        let selection = sdd_core::filter_to_rule(&table.view(), &filter);
        let level = drill_down_all_values(&selection.as_view(), col);
        clicks += 1;
        rows_displayed += level.n_rows();
        filter = filter.with_value(col, target.code(col));
    }
    Effort {
        clicks,
        rows_displayed,
    }
}

/// Effort for a **smart drill-down** analyst to get `target` on screen:
/// repeatedly expand the displayed rule that is the largest sub-rule of the
/// target (starting from the trivial rule), `k` rows shown per expansion.
///
/// Returns `None` if `target` never appears within `max_clicks` expansions
/// (e.g. its count is too small for the optimizer to surface it).
pub fn smart_effort(
    table: &Table,
    weight: &dyn WeightFn,
    k: usize,
    target: &Rule,
    max_clicks: usize,
) -> Option<Effort> {
    let view = table.view();
    let brs = Brs::new(weight);
    let mut base = Rule::trivial(table.n_columns());
    let mut clicks = 0usize;
    let mut rows_displayed = 0usize;

    while clicks < max_clicks {
        let result = sdd_core::drill_down_with(&brs, &view, &base, k);
        clicks += 1;
        rows_displayed += result.rules.len();
        if result.rules.iter().any(|s| s.rule == *target) {
            return Some(Effort {
                clicks,
                rows_displayed,
            });
        }
        // Descend into the largest displayed sub-rule of the target.
        let next = result
            .rules
            .iter()
            .map(|s| &s.rule)
            .filter(|r| r.is_sub_rule_of(target) && r.size() > base.size())
            .max_by_key(|r| r.size())
            .cloned();
        match next {
            Some(n) => base = n,
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::SizeWeight;
    use sdd_datagen::retail;

    #[test]
    fn traditional_cost_scales_with_cardinalities() {
        let t = retail(1);
        let target = Rule::from_pairs(&t, &[("Store", "Target"), ("Product", "bicycles")]).unwrap();
        let e = traditional_effort(&t, &target);
        assert_eq!(e.clicks, 2);
        // First click lists all stores (32), second lists Target's products (1).
        assert!(e.rows_displayed >= t.cardinality(0));
    }

    #[test]
    fn smart_finds_planted_pattern_in_one_click() {
        let t = retail(1);
        let target = Rule::from_pairs(&t, &[("Store", "Target"), ("Product", "bicycles")]).unwrap();
        let e = smart_effort(&t, &SizeWeight, 3, &target, 4).expect("pattern is planted");
        assert_eq!(e.clicks, 1);
        assert_eq!(e.rows_displayed, 3);
    }

    #[test]
    fn smart_beats_traditional_on_the_walkthrough() {
        let t = retail(1);
        let target =
            Rule::from_pairs(&t, &[("Product", "comforters"), ("Region", "MA-3")]).unwrap();
        let smart = smart_effort(&t, &SizeWeight, 3, &target, 4).expect("planted");
        let trad = traditional_effort(&t, &target);
        assert!(smart.rows_displayed < trad.rows_displayed);
        assert!(smart.clicks <= trad.clicks);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let t = retail(1);
        // A background pattern far too small for the optimizer to surface.
        let target = Rule::from_pairs(&t, &[("Store", "Store-29")]).unwrap();
        assert!(smart_effort(&t, &SizeWeight, 3, &target, 2).is_none());
    }

    #[test]
    fn trivial_target_costs_nothing_traditionally() {
        let t = retail(1);
        let e = traditional_effort(&t, &Rule::trivial(3));
        assert_eq!(e.clicks, 0);
        assert_eq!(e.rows_displayed, 0);
    }
}
