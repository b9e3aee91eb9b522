//! Weighting functions `W` (paper §2.2 and §6.1).
//!
//! A weighting function scores how *descriptive* a rule is, independent of
//! how many tuples it covers. The optimizer accepts any implementation of
//! [`WeightFn`] subject to the paper's two conditions:
//!
//! * **non-negativity** — `W(r) ≥ 0` for every rule,
//! * **monotonicity** — if `r1` is a sub-rule of `r2` then `W(r1) ≤ W(r2)`.
//!
//! Shipped implementations: [`SizeWeight`], [`BitsWeight`], [`SizeMinusOne`],
//! the parametric family [`ColumnWeight`] (`W(r) = (Σ_c o_{r,c}·w_c)^k`,
//! §6.1), and [`TraditionalEmulation`] which reduces smart drill-down to a
//! regular drill-down on one column (§5.1.2).

use crate::Rule;
use sdd_table::Table;

/// A monotonic, non-negative rule weighting function.
///
/// The weight may inspect the rule's star pattern, the schema, and per-column
/// cardinalities. It **should not** depend on the specific tuples of the
/// table (the paper's contract); value-dependent weights still work with the
/// optimizer (the NP-hardness reduction uses one) but then
/// [`WeightFn::max_weight`] must be overridden.
///
/// `Send + Sync` are required so the columnar counting kernel
/// ([`crate::kernel`]) can evaluate candidate weights from its worker
/// threads; weight functions are immutable config objects in practice.
pub trait WeightFn: Send + Sync {
    /// The weight `W(rule)`.
    fn weight(&self, rule: &Rule, table: &Table) -> f64;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The maximum weight any rule can attain on `table`.
    ///
    /// Default: the weight of a fully-instantiated pattern (correct for any
    /// monotone, pattern-only weight). Used as a safe default for the `mw`
    /// parameter of the BRS optimizer.
    fn max_weight(&self, table: &Table) -> f64 {
        let full = Rule::from_codes(vec![0u32; table.n_columns()]);
        self.weight(&full, table)
    }

    /// A stable identity tag for shared result caches
    /// ([`crate::cachekey`]), or `None` (the default) to mark the weight
    /// **uncacheable** — results computed with it are never stored or
    /// served from a cache.
    ///
    /// Two weight functions returning the same tag must compute
    /// bit-identical weights for every `(rule, table)`; include every
    /// parameter that influences the weight in the tag.
    fn cache_tag(&self) -> Option<String> {
        None
    }
}

/// `W(r) = Size(r)`: the number of instantiated columns (paper §2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeWeight;

impl WeightFn for SizeWeight {
    fn weight(&self, rule: &Rule, _table: &Table) -> f64 {
        rule.size() as f64
    }

    fn name(&self) -> &str {
        "Size"
    }

    fn cache_tag(&self) -> Option<String> {
        Some("size".to_owned())
    }
}

/// `W(r) = Σ_{c instantiated} ⌈log2 |c|⌉` (paper §2.2).
///
/// Weighs columns by inherent complexity: instantiating a high-cardinality
/// column conveys more bits of information. Binary columns (like Gender)
/// contribute only 1; constant columns contribute 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitsWeight;

impl WeightFn for BitsWeight {
    fn weight(&self, rule: &Rule, table: &Table) -> f64 {
        rule.instantiated_columns()
            .map(|c| {
                let card = table.cardinality(c).max(1) as f64;
                card.log2().ceil()
            })
            .sum()
    }

    fn name(&self) -> &str {
        "Bits"
    }

    fn cache_tag(&self) -> Option<String> {
        Some("bits".to_owned())
    }
}

/// `W(r) = max(0, Size(r) − 1)` (paper §5.1.2, Figure 7).
///
/// Gives zero weight to single-column rules, forcing the optimizer to
/// surface rules with at least two instantiated values. (The paper prints
/// `Min(0, Size(r) − 1)`, an obvious typo for `Max` — a negative weight
/// would violate the paper's own non-negativity condition.)
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeMinusOne;

impl WeightFn for SizeMinusOne {
    fn weight(&self, rule: &Rule, _table: &Table) -> f64 {
        rule.size().saturating_sub(1) as f64
    }

    fn name(&self) -> &str {
        "Size-1"
    }

    fn cache_tag(&self) -> Option<String> {
        Some("size-1".to_owned())
    }
}

/// The parametric family of §6.1: `W(r) = (Σ_c o_{r,c} · w_c)^k` with
/// per-column weights `w_c ≥ 0` and exponent `k ≥ 0`.
///
/// * `w_c = 1, k = 1` reproduces [`SizeWeight`];
/// * `w_c = ⌈log2 |c|⌉, k = 1` reproduces [`BitsWeight`];
/// * raising `k` steers the optimum toward larger rules (§6.1 shows the
///   optimal instantiated fraction grows with `k`);
/// * setting `w_c = 0` expresses indifference to column `c`, large `w_c`
///   expresses preference (§2.2 "a weight function can be used ... to
///   express a higher preference for a column").
#[derive(Debug, Clone)]
pub struct ColumnWeight {
    column_weights: Vec<f64>,
    exponent: f64,
    name: String,
}

impl ColumnWeight {
    /// Creates the family member with the given per-column weights and
    /// exponent. Panics if any `w_c < 0`, `k < 0`, or `w` is empty-length
    /// mismatched at call time (checked against the rule in `weight`).
    pub fn new(column_weights: Vec<f64>, exponent: f64) -> Self {
        assert!(
            column_weights.iter().all(|&w| w >= 0.0),
            "column weights must be non-negative"
        );
        assert!(exponent >= 0.0, "exponent must be non-negative");
        Self {
            name: format!("ColumnWeight(k={exponent})"),
            column_weights,
            exponent,
        }
    }
}

impl WeightFn for ColumnWeight {
    fn weight(&self, rule: &Rule, _table: &Table) -> f64 {
        let sum: f64 = rule
            .instantiated_columns()
            .map(|c| {
                *self
                    .column_weights
                    .get(c)
                    .expect("rule has more columns than ColumnWeight was configured for")
            })
            .sum();
        if self.exponent == 1.0 {
            sum
        } else {
            sum.powf(self.exponent)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Emulates a **regular drill-down** on one column (paper §5.1.2):
/// `W(r) = 1` if `r` instantiates the target column, else `0`.
///
/// Run BRS with `k =` (number of distinct values in the column) and this
/// weight: each distinct value becomes one displayed rule, reproducing the
/// traditional operator inside the smart drill-down framework (Figure 4).
#[derive(Debug, Clone, Copy)]
pub struct TraditionalEmulation {
    column: usize,
}

impl TraditionalEmulation {
    /// Emulate a drill-down on column index `column`.
    pub fn new(column: usize) -> Self {
        Self { column }
    }
}

impl WeightFn for TraditionalEmulation {
    fn weight(&self, rule: &Rule, _table: &Table) -> f64 {
        if rule.is_star(self.column) {
            0.0
        } else {
            1.0
        }
    }

    fn name(&self) -> &str {
        "TraditionalEmulation"
    }
}

/// Wraps a weight to implement **star drill-down**'s `W'` (paper §3.1):
/// `W'(r) = 0` if `r` has a `?` in the clicked column, else `W(r)`.
#[derive(Debug, Clone, Copy)]
pub struct RequireColumn<W> {
    inner: W,
    column: usize,
}

impl<W: WeightFn> RequireColumn<W> {
    /// Zeroes `inner`'s weight for rules that leave `column` starred.
    pub fn new(inner: W, column: usize) -> Self {
        Self { inner, column }
    }
}

impl<W: WeightFn> WeightFn for RequireColumn<W> {
    fn weight(&self, rule: &Rule, table: &Table) -> f64 {
        if rule.is_star(self.column) {
            0.0
        } else {
            self.inner.weight(rule, table)
        }
    }

    fn name(&self) -> &str {
        "RequireColumn"
    }

    fn cache_tag(&self) -> Option<String> {
        self.inner
            .cache_tag()
            .map(|t| format!("require({}):{t}", self.column))
    }
}

impl<T: WeightFn + ?Sized> WeightFn for &T {
    fn weight(&self, rule: &Rule, table: &Table) -> f64 {
        (**self).weight(rule, table)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn max_weight(&self, table: &Table) -> f64 {
        (**self).max_weight(table)
    }

    fn cache_tag(&self) -> Option<String> {
        (**self).cache_tag()
    }
}

/// Checks monotonicity of `w` on every pair `(sub, super)` drawn from the
/// sub-rule lattice of `rule`. Test/diagnostic helper: exponential in
/// `rule.size()`.
pub fn check_monotone_on(w: &dyn WeightFn, rule: &Rule, table: &Table) -> bool {
    let subs = rule.all_sub_rules();
    for a in &subs {
        for b in &subs {
            if a.is_sub_rule_of(b) && w.weight(a, table) > w.weight(b, table) + 1e-12 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::Schema;

    fn t() -> Table {
        // Store: 3 distinct, Product: 4 distinct, Region: 2 distinct.
        Table::from_rows(
            Schema::new(["Store", "Product", "Region"]).unwrap(),
            &[
                &["Walmart", "cookies", "CA-1"],
                &["Target", "bicycles", "MA-3"],
                &["Costco", "comforters", "CA-1"],
                &["Walmart", "towels", "MA-3"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn size_weight_counts_instantiated_columns() {
        let table = t();
        let w = SizeWeight;
        assert_eq!(w.weight(&Rule::trivial(3), &table), 0.0);
        let r = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Region", "CA-1")]).unwrap();
        assert_eq!(w.weight(&r, &table), 2.0);
        assert_eq!(w.max_weight(&table), 3.0);
    }

    #[test]
    fn bits_weight_uses_ceil_log2_cardinality() {
        let table = t();
        let w = BitsWeight;
        // Store: |c|=3 → ceil(log2 3)=2; Product: |c|=4 → 2; Region: |c|=2 → 1.
        let store = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        assert_eq!(w.weight(&store, &table), 2.0);
        let region = Rule::from_pairs(&table, &[("Region", "CA-1")]).unwrap();
        assert_eq!(w.weight(&region, &table), 1.0);
        assert_eq!(w.max_weight(&table), 5.0);
    }

    #[test]
    fn size_minus_one_zeroes_singletons() {
        let table = t();
        let w = SizeMinusOne;
        assert_eq!(w.weight(&Rule::trivial(3), &table), 0.0);
        let one = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        assert_eq!(w.weight(&one, &table), 0.0);
        let two = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Region", "CA-1")]).unwrap();
        assert_eq!(w.weight(&two, &table), 1.0);
    }

    #[test]
    fn column_weight_generalizes_size_and_bits() {
        let table = t();
        let size_like = ColumnWeight::new(vec![1.0; 3], 1.0);
        let bits = BitsWeight;
        let bits_like = ColumnWeight::new(vec![2.0, 2.0, 1.0], 1.0);
        let full = Rule::from_pairs(
            &table,
            &[
                ("Store", "Walmart"),
                ("Product", "cookies"),
                ("Region", "CA-1"),
            ],
        )
        .unwrap();
        assert_eq!(
            size_like.weight(&full, &table),
            SizeWeight.weight(&full, &table)
        );
        assert_eq!(bits_like.weight(&full, &table), bits.weight(&full, &table));
    }

    #[test]
    fn column_weight_exponent_amplifies_size() {
        let table = t();
        let sq = ColumnWeight::new(vec![1.0; 3], 2.0);
        let two = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Region", "CA-1")]).unwrap();
        assert_eq!(sq.weight(&two, &table), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_column_weight_panics() {
        let _ = ColumnWeight::new(vec![-1.0], 1.0);
    }

    #[test]
    fn traditional_emulation_is_indicator() {
        let table = t();
        let w = TraditionalEmulation::new(1);
        let on = Rule::from_pairs(&table, &[("Product", "cookies")]).unwrap();
        let off = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        assert_eq!(w.weight(&on, &table), 1.0);
        assert_eq!(w.weight(&off, &table), 0.0);
        // Extra columns don't change the weight.
        let both =
            Rule::from_pairs(&table, &[("Product", "cookies"), ("Store", "Walmart")]).unwrap();
        assert_eq!(w.weight(&both, &table), 1.0);
    }

    #[test]
    fn require_column_zeroes_starred_target() {
        let table = t();
        let w = RequireColumn::new(SizeWeight, 2);
        let without = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        let with = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Region", "CA-1")]).unwrap();
        assert_eq!(w.weight(&without, &table), 0.0);
        assert_eq!(w.weight(&with, &table), 2.0);
    }

    #[test]
    fn all_shipped_weights_are_monotone() {
        let table = t();
        let full = Rule::from_pairs(
            &table,
            &[
                ("Store", "Walmart"),
                ("Product", "cookies"),
                ("Region", "CA-1"),
            ],
        )
        .unwrap();
        assert!(check_monotone_on(&SizeWeight, &full, &table));
        assert!(check_monotone_on(&BitsWeight, &full, &table));
        assert!(check_monotone_on(&SizeMinusOne, &full, &table));
        assert!(check_monotone_on(
            &ColumnWeight::new(vec![0.5, 2.0, 0.0], 1.5),
            &full,
            &table
        ));
        assert!(check_monotone_on(
            &TraditionalEmulation::new(1),
            &full,
            &table
        ));
        assert!(check_monotone_on(
            &RequireColumn::new(SizeWeight, 0),
            &full,
            &table
        ));
    }
}
