//! Rules: tuple patterns with `?` wildcards (paper §2.1).
//!
//! A rule assigns each column either a concrete dictionary code or the
//! wildcard `?` (stored as the sentinel [`STAR`]). Rules are the unit the
//! optimizer searches over and the unit displayed to the analyst.

use sdd_table::{RowId, Table, TableError};
use std::fmt;

/// Sentinel dictionary code representing the `?` wildcard.
///
/// Real dictionary codes are dense from `0`, so `u32::MAX` can never clash.
pub const STAR: u32 = u32::MAX;

/// A single rule cell: either the wildcard or a dictionary code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleValue {
    /// The `?` wildcard — matches every value in the column.
    Star,
    /// A concrete value, identified by its dictionary code.
    Value(u32),
}

/// A rule: one [`RuleValue`] per table column.
///
/// Stored as a boxed `u32` slice with the [`STAR`] sentinel — compact,
/// hashable, cheap to clone (one allocation), cache-friendly for the
/// candidate hash maps in the a-priori search.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    values: Box<[u32]>,
}

impl Rule {
    /// The trivial rule: `?` in every column. Covers every tuple.
    pub fn trivial(n_columns: usize) -> Self {
        Self {
            values: vec![STAR; n_columns].into_boxed_slice(),
        }
    }

    /// Builds a rule from explicit cells.
    pub fn from_values(values: impl IntoIterator<Item = RuleValue>) -> Self {
        Self {
            values: values
                .into_iter()
                .map(|v| match v {
                    RuleValue::Star => STAR,
                    RuleValue::Value(c) => c,
                })
                .collect(),
        }
    }

    /// Builds a rule from raw codes (with [`STAR`] for wildcards).
    pub fn from_codes(codes: impl Into<Box<[u32]>>) -> Self {
        Self {
            values: codes.into(),
        }
    }

    /// Builds a rule over `table` from `(column_name, value)` pairs, leaving
    /// every other column starred.
    ///
    /// ```
    /// # use sdd_table::{Schema, Table};
    /// # use sdd_core::Rule;
    /// let t = Table::from_rows(Schema::new(["Store", "Product"]).unwrap(),
    ///                          &[&["Walmart", "cookies"]]).unwrap();
    /// let r = Rule::from_pairs(&t, &[("Store", "Walmart")]).unwrap();
    /// assert_eq!(r.display(&t), "(Walmart, ?)");
    /// ```
    pub fn from_pairs(table: &Table, pairs: &[(&str, &str)]) -> Result<Self, TableError> {
        let mut rule = Rule::trivial(table.n_columns());
        for (col_name, value) in pairs {
            let col = table.schema().index_of(col_name)?;
            let code = table.dictionary(col).code_of(value).ok_or_else(|| {
                TableError::UnknownColumn(format!("value {value:?} not in column {col_name:?}"))
            })?;
            rule.values[col] = code;
        }
        Ok(rule)
    }

    /// Number of columns in the rule's schema.
    pub fn n_columns(&self) -> usize {
        self.values.len()
    }

    /// The cell in column `col`.
    #[inline]
    pub fn get(&self, col: usize) -> RuleValue {
        match self.values[col] {
            STAR => RuleValue::Star,
            c => RuleValue::Value(c),
        }
    }

    /// The raw code in column `col` ([`STAR`] for wildcards).
    #[inline]
    pub fn code(&self, col: usize) -> u32 {
        self.values[col]
    }

    /// Raw codes of every column.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.values
    }

    /// True if column `col` is starred.
    #[inline]
    pub fn is_star(&self, col: usize) -> bool {
        self.values[col] == STAR
    }

    /// The paper's *Size*: number of non-starred columns.
    pub fn size(&self) -> usize {
        self.values.iter().filter(|&&v| v != STAR).count()
    }

    /// True if every column is starred.
    pub fn is_trivial(&self) -> bool {
        self.values.iter().all(|&v| v == STAR)
    }

    /// Indices of the instantiated (non-star) columns, ascending.
    pub fn instantiated_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != STAR)
            .map(|(i, _)| i)
    }

    /// A copy of this rule with column `col` set to `code`.
    pub fn with_value(&self, col: usize, code: u32) -> Rule {
        let mut v = self.values.clone();
        v[col] = code;
        Rule { values: v }
    }

    /// A copy of this rule with column `col` starred out.
    pub fn with_star(&self, col: usize) -> Rule {
        let mut v = self.values.clone();
        v[col] = STAR;
        Rule { values: v }
    }

    /// Sets column `col` to `code` in place ([`STAR`] stars it out).
    pub(crate) fn set(&mut self, col: usize, code: u32) {
        self.values[col] = code;
    }

    /// True if this rule covers the codes of one tuple (`t ∈ r`, §2.1).
    #[inline]
    pub fn covers_codes(&self, tuple: &[u32]) -> bool {
        debug_assert_eq!(tuple.len(), self.values.len());
        self.values
            .iter()
            .zip(tuple)
            .all(|(&rv, &tv)| rv == STAR || rv == tv)
    }

    /// True if this rule covers row `row` of `table`.
    #[inline]
    pub fn covers_row(&self, table: &Table, row: RowId) -> bool {
        self.values
            .iter()
            .enumerate()
            .all(|(c, &rv)| rv == STAR || rv == table.code(row, c))
    }

    /// True if `self` is a **sub-rule** of `other` (paper §2.1): `self` is at
    /// least as general — wherever `self` is instantiated, `other` carries the
    /// same value. Every rule is a sub-rule of itself.
    ///
    /// If `self` is a sub-rule of `other` then `t ∈ other ⇒ t ∈ self`.
    pub fn is_sub_rule_of(&self, other: &Rule) -> bool {
        debug_assert_eq!(self.n_columns(), other.n_columns());
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(&a, &b)| a == STAR || a == b)
    }

    /// True if `self` is a **super-rule** of `other` (at least as specific).
    pub fn is_super_rule_of(&self, other: &Rule) -> bool {
        other.is_sub_rule_of(self)
    }

    /// True if `self` is a super-rule of `other` and differs from it.
    pub fn is_strict_super_rule_of(&self, other: &Rule) -> bool {
        self != other && self.is_super_rule_of(other)
    }

    /// All sub-rules, including `self` and the trivial rule (2^size of them).
    /// Intended for tests and the exact optimizer — exponential in size.
    pub fn all_sub_rules(&self) -> Vec<Rule> {
        let cols: Vec<usize> = self.instantiated_columns().collect();
        let mut out = Vec::with_capacity(1 << cols.len());
        for mask in 0u32..(1 << cols.len()) {
            let mut r = Rule::trivial(self.n_columns());
            for (bit, &c) in cols.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    r.values[c] = self.values[c];
                }
            }
            out.push(r);
        }
        out
    }

    /// The rule built from row `row`'s values on the instantiated columns of
    /// a column set — helper for candidate generation.
    pub fn from_row_columns(table: &Table, row: RowId, cols: &[usize]) -> Rule {
        let mut r = Rule::trivial(table.n_columns());
        for &c in cols {
            r.values[c] = table.code(row, c);
        }
        r
    }

    /// Renders the rule in the paper's tuple notation, e.g. `"(Walmart, ?, CA-1)"`.
    pub fn display(&self, table: &Table) -> String {
        let mut out = String::from("(");
        for (c, &v) in self.values.iter().enumerate() {
            if c > 0 {
                out.push_str(", ");
            }
            if v == STAR {
                out.push('?');
            } else {
                out.push_str(table.dictionary(c).value_of(v).unwrap_or("<bad-code>"));
            }
        }
        out.push(')');
        out
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rule(")?;
        for (i, &v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if v == STAR {
                write!(f, "?")?;
            } else {
                write!(f, "{v}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::Schema;

    fn t() -> Table {
        Table::from_rows(
            Schema::new(["Store", "Product", "Region"]).unwrap(),
            &[
                &["Walmart", "cookies", "CA-1"],
                &["Target", "bicycles", "MA-3"],
                &["Walmart", "comforters", "MA-3"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn trivial_rule_covers_everything() {
        let table = t();
        let r = Rule::trivial(3);
        assert!(r.is_trivial());
        assert_eq!(r.size(), 0);
        for row in 0..3 {
            assert!(r.covers_row(&table, row));
        }
    }

    #[test]
    fn from_pairs_and_coverage() {
        let table = t();
        let r = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
        assert!(r.covers_row(&table, 0));
        assert!(!r.covers_row(&table, 1));
        assert!(r.covers_row(&table, 2));
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn from_pairs_unknown_value_is_error() {
        let table = t();
        assert!(Rule::from_pairs(&table, &[("Store", "Costco")]).is_err());
        assert!(Rule::from_pairs(&table, &[("Price", "1")]).is_err());
    }

    #[test]
    fn sub_rule_matches_paper_example() {
        // (a, ?) is a sub-rule of (a, b).
        let a_star = Rule::from_values([RuleValue::Value(0), RuleValue::Star]);
        let a_b = Rule::from_values([RuleValue::Value(0), RuleValue::Value(1)]);
        assert!(a_star.is_sub_rule_of(&a_b));
        assert!(!a_b.is_sub_rule_of(&a_star));
        assert!(a_b.is_super_rule_of(&a_star));
        assert!(a_b.is_strict_super_rule_of(&a_star));
        assert!(a_b.is_super_rule_of(&a_b));
        assert!(!a_b.is_strict_super_rule_of(&a_b));
    }

    #[test]
    fn sub_rule_implies_coverage_superset() {
        let table = t();
        let general = Rule::from_pairs(&table, &[("Region", "MA-3")]).unwrap();
        let specific =
            Rule::from_pairs(&table, &[("Region", "MA-3"), ("Store", "Target")]).unwrap();
        assert!(general.is_sub_rule_of(&specific));
        for row in 0..3 {
            if specific.covers_row(&table, row) {
                assert!(general.covers_row(&table, row));
            }
        }
    }

    #[test]
    fn mismatched_values_are_not_subsumed() {
        let r1 = Rule::from_values([RuleValue::Value(0), RuleValue::Star]);
        let r2 = Rule::from_values([RuleValue::Value(1), RuleValue::Star]);
        assert!(!r1.is_sub_rule_of(&r2));
        assert!(!r2.is_sub_rule_of(&r1));
    }

    #[test]
    fn with_value_and_with_star_roundtrip() {
        let r = Rule::trivial(3).with_value(1, 7);
        assert_eq!(r.get(1), RuleValue::Value(7));
        assert_eq!(r.size(), 1);
        let back = r.with_star(1);
        assert!(back.is_trivial());
    }

    #[test]
    fn all_sub_rules_enumerates_lattice() {
        let r = Rule::trivial(3).with_value(0, 1).with_value(2, 5);
        let subs = r.all_sub_rules();
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().any(|s| s.is_trivial()));
        assert!(subs.contains(&r));
        assert!(subs.iter().all(|s| s.is_sub_rule_of(&r)));
    }

    #[test]
    fn display_uses_paper_notation() {
        let table = t();
        let r = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Region", "CA-1")]).unwrap();
        assert_eq!(r.display(&table), "(Walmart, ?, CA-1)");
        assert_eq!(Rule::trivial(3).display(&table), "(?, ?, ?)");
    }

    #[test]
    fn from_row_columns_picks_row_values() {
        let table = t();
        let r = Rule::from_row_columns(&table, 1, &[0, 1]);
        assert_eq!(r.display(&table), "(Target, bicycles, ?)");
        assert!(r.covers_row(&table, 1));
        assert!(!r.covers_row(&table, 0));
    }

    #[test]
    fn rules_hash_and_compare_by_content() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Rule::trivial(2).with_value(0, 3));
        assert!(set.contains(&Rule::trivial(2).with_value(0, 3)));
        assert!(!set.contains(&Rule::trivial(2).with_value(0, 4)));
    }
}
