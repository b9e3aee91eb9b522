//! The vanilla OLAP drill-down operator (paper §1).
//!
//! Drilling down on column `c` within the current filter produces one row
//! per distinct value of `c`, with its (weighted) count — "all attribute
//! values are displayed", which is precisely the scalability problem smart
//! drill-down addresses.

use sdd_core::{filter_to_rule, FilteredView, Rule};
use sdd_table::{Table, TableView};

/// One group of a traditional drill-down: a value and its count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Dictionary code of the value.
    pub code: u32,
    /// The value's label.
    pub label: String,
    /// (Weighted) number of covered tuples.
    pub count: f64,
}

/// The result of one traditional drill-down step.
#[derive(Debug, Clone)]
pub struct DrillDownLevel {
    /// Which column was drilled on.
    pub column: usize,
    /// One row per distinct value, ordered by descending count.
    pub groups: Vec<GroupRow>,
}

impl DrillDownLevel {
    /// Number of rows the analyst must scan.
    pub fn n_rows(&self) -> usize {
        self.groups.len()
    }
}

/// A stateful traditional drill-down over one table: maintains the current
/// filter (a conjunctive rule) and drills one column at a time. Roll-up
/// removes the most recent column.
#[derive(Debug, Clone)]
pub struct TraditionalDrillDown<'t> {
    table: &'t Table,
    filter: Rule,
    /// Drill order (column indices), most recent last.
    path: Vec<usize>,
}

impl<'t> TraditionalDrillDown<'t> {
    /// Starts with an empty filter (the whole table).
    pub fn new(table: &'t Table) -> Self {
        Self {
            table,
            filter: Rule::trivial(table.n_columns()),
            path: Vec::new(),
        }
    }

    /// The current filter rule.
    pub fn filter(&self) -> &Rule {
        &self.filter
    }

    /// Groups the current selection by `column`, listing **all** values.
    pub fn drill(&self, column: usize) -> DrillDownLevel {
        drill_down_all_values(&self.current_view().as_view(), column)
    }

    /// Drills on `column` and then narrows the filter to `value` (the
    /// analyst clicking one group). Returns the level that was displayed.
    pub fn drill_and_select(
        &mut self,
        column: usize,
        value: &str,
    ) -> Result<DrillDownLevel, String> {
        let level = self.drill(column);
        let code = self
            .table
            .dictionary(column)
            .code_of(value)
            .ok_or_else(|| format!("value {value:?} not present in column {column}"))?;
        self.filter = self.filter.with_value(column, code);
        self.path.push(column);
        Ok(level)
    }

    /// Rolls up the most recent drill (inverse operation). No-op at the top.
    pub fn roll_up(&mut self) {
        if let Some(col) = self.path.pop() {
            self.filter = self.filter.with_star(col);
        }
    }

    /// Tuples matching the current filter: the table itself while nothing
    /// is filtered out, else the matching rows gathered into their own.
    pub fn current_view(&self) -> FilteredView<'t> {
        filter_to_rule(&self.table.view(), &self.filter)
    }
}

/// Stateless single-level drill-down over any view.
pub fn drill_down_all_values(view: &TableView<'_>, column: usize) -> DrillDownLevel {
    let table = view.table();
    let mut counts = vec![0.0f64; table.cardinality(column)];
    for wr in view.iter() {
        counts[table.code(wr.row, column) as usize] += wr.weight;
    }
    let mut groups: Vec<GroupRow> = counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0.0)
        .map(|(code, count)| GroupRow {
            code: code as u32,
            label: table
                .dictionary(column)
                .value_of(code as u32)
                .unwrap_or("<bad-code>")
                .to_owned(),
            count,
        })
        .collect();
    groups.sort_by(|a, b| {
        b.count
            .partial_cmp(&a.count)
            .expect("finite")
            .then(a.code.cmp(&b.code))
    });
    DrillDownLevel { column, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_table::Schema;

    fn t() -> Table {
        Table::from_rows(
            Schema::new(["Store", "Product"]).unwrap(),
            &[
                &["Walmart", "cookies"],
                &["Walmart", "soap"],
                &["Walmart", "cookies"],
                &["Target", "bicycles"],
                &["Costco", "soap"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn drill_lists_every_value_with_counts() {
        let table = t();
        let dd = TraditionalDrillDown::new(&table);
        let level = dd.drill(0);
        assert_eq!(level.n_rows(), 3);
        assert_eq!(level.groups[0].label, "Walmart");
        assert_eq!(level.groups[0].count, 3.0);
        // Ties (Target/Costco at 1) broken by code for determinism.
        assert_eq!(level.groups[1].count, 1.0);
    }

    #[test]
    fn select_narrows_then_rollup_restores() {
        let table = t();
        let mut dd = TraditionalDrillDown::new(&table);
        dd.drill_and_select(0, "Walmart").unwrap();
        assert_eq!(dd.current_view().as_view().len(), 3);
        let level = dd.drill(1);
        assert_eq!(level.n_rows(), 2); // cookies, soap within Walmart
        assert_eq!(level.groups[0].label, "cookies");
        dd.roll_up();
        assert_eq!(dd.current_view().as_view().len(), 5);
        dd.roll_up(); // no-op at the top
        assert_eq!(dd.current_view().as_view().len(), 5);
    }

    #[test]
    fn selecting_missing_value_errors() {
        let table = t();
        let mut dd = TraditionalDrillDown::new(&table);
        assert!(dd.drill_and_select(0, "Amazon").is_err());
    }

    #[test]
    fn weighted_view_weights_the_groups() {
        let table = t();
        let weights = [10.0, 1.0, 10.0, 1.0, 1.0];
        let view = TableView::all_with_weights(&table, &weights);
        let level = drill_down_all_values(&view, 1);
        let cookies = level.groups.iter().find(|g| g.label == "cookies").unwrap();
        assert_eq!(cookies.count, 20.0);
    }

    #[test]
    fn drill_down_on_empty_view() {
        let table = t();
        let empty = table.gather_rows(&[]);
        let level = drill_down_all_values(&empty.view(), 0);
        assert_eq!(level.n_rows(), 0);
    }
}
