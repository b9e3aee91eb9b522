//! Per-column frequency statistics.
//!
//! These back two pieces of the paper:
//!
//! * the Bits weighting function needs `|c|` (distinct values per column),
//! * §4.2's `minSS` guidance and §6.1's weight-family analysis need `f_c`,
//!   the frequency of each column's most common value.

use crate::{with_codes, Code, Table};

/// Frequency statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values observed (`|c|`).
    pub distinct: usize,
    /// Occurrence count per dictionary code (indexed by code).
    pub counts: Vec<u64>,
    /// Fraction of rows carrying the most common value (`f_c`).
    /// `0.0` for an empty column.
    pub top_fraction: f64,
    /// Dictionary code of the most common value (`None` if empty).
    pub top_code: Option<u32>,
}

/// Computes [`ColumnStats`] for column `col` over the whole table.
pub fn column_stats(table: &Table, col: usize) -> ColumnStats {
    /// `counts[code] += 1` per row, one loop per code width.
    fn count<T: Code>(codes: &[T], counts: &mut [u64]) {
        for &code in codes {
            counts[code.idx()] += 1;
        }
    }
    let mut counts = vec![0u64; table.cardinality(col)];
    with_codes!(table.column(col), codes => count(codes, &mut counts));
    finish(counts, table.n_rows() as u64)
}

fn finish(counts: Vec<u64>, total: u64) -> ColumnStats {
    let distinct = counts.iter().filter(|&&c| c > 0).count();
    let (top_code, top_count) = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, &c)| (Some(i as u32), c))
        .unwrap_or((None, 0));
    let top_fraction = if total == 0 {
        0.0
    } else {
        top_count as f64 / total as f64
    };
    ColumnStats {
        distinct,
        counts,
        top_fraction,
        top_code: if top_count == 0 { None } else { top_code },
    }
}

/// The column with the fewest distinct values and its cardinality —
/// the `|c|` used in §4.2's `minSS` lower-bound argument.
/// Returns `None` for a zero-column table.
pub fn min_cardinality_column(table: &Table) -> Option<(usize, usize)> {
    (0..table.n_columns())
        .map(|c| (c, table.cardinality(c)))
        .min_by_key(|&(_, card)| card)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn t() -> Table {
        Table::from_rows(
            Schema::new(["Store", "Product"]).unwrap(),
            &[
                &["Walmart", "cookies"],
                &["Walmart", "bicycles"],
                &["Walmart", "cookies"],
                &["Target", "cookies"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_stats_counts_frequencies() {
        let table = t();
        let s = column_stats(&table, 0);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.counts.iter().sum::<u64>(), 4);
        assert!((s.top_fraction - 0.75).abs() < 1e-12);
        let top = s.top_code.unwrap();
        assert_eq!(table.dictionary(0).value_of(top), Some("Walmart"));
    }

    #[test]
    fn stats_over_gathered_subset_keep_the_code_space() {
        let table = t();
        let s = column_stats(&table.gather_rows(&[3]), 0);
        assert_eq!(s.distinct, 1);
        assert!((s.top_fraction - 1.0).abs() < 1e-12);
        assert_eq!(
            table.dictionary(0).value_of(s.top_code.unwrap()),
            Some("Target")
        );
    }

    #[test]
    fn empty_table_stats() {
        let table = Table::from_rows(Schema::new(["a"]).unwrap(), &[] as &[&[&str]]).unwrap();
        let s = column_stats(&table, 0);
        assert_eq!(s.distinct, 0);
        assert_eq!(s.top_fraction, 0.0);
        assert_eq!(s.top_code, None);
    }

    #[test]
    fn min_cardinality_column_picks_smallest() {
        let table = t();
        // Store has 2 distinct, Product has 2 distinct: tie broken by index.
        assert_eq!(min_cardinality_column(&table), Some((0, 2)));
    }
}
