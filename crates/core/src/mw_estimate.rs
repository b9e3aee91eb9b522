//! Estimating the `mw` parameter by sampling (paper §6.1).
//!
//! "We create a small random sample of tuples from the table, and run the
//! BRS algorithm on it. Then the maximum weight `x` of the output on the
//! sample is likely to equal the maximum weight of the actual output. To
//! account for sampling error, we can set `mw` to `2x`."

use crate::{Brs, WeightFn};
use rand::seq::index::sample as index_sample;
use rand::{rngs::StdRng, SeedableRng};
use sdd_table::{RowId, TableView};

/// Estimates a safe `mw` for expanding `view` with `weight` and `k` rules.
///
/// Runs BRS exactly (with `mw` = maximum possible weight) on a uniform
/// sample of `sample_size` view entries and returns **twice** the maximum
/// output weight. Falls back to the weight function's maximum possible
/// weight when the sample yields no rules.
pub fn estimate_mw(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    k: usize,
    sample_size: usize,
    seed: u64,
) -> f64 {
    let fallback = weight.max_weight(view.table());
    if view.is_empty() || sample_size == 0 {
        return fallback;
    }

    let brs = Brs::new(weight);
    let result = if sample_size >= view.len() {
        brs.run(view, k)
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<RowId> = index_sample(&mut rng, view.len(), sample_size)
            .into_iter()
            .map(|i| i as RowId)
            .collect();
        brs.run(&view.gather(&picks).as_view(), k)
    };
    let max_out = result.rules.iter().map(|s| s.weight).fold(0.0f64, f64::max);
    if max_out <= 0.0 {
        fallback
    } else {
        (2.0 * max_out).min(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Brs, SizeWeight};
    use sdd_table::{Schema, Table};

    fn skewed_table() -> Table {
        // Strong pairs so optimal rules have size 2 (weight 2 under Size).
        let mut rows: Vec<[&str; 3]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a", "x", "p"], 50));
        rows.extend(std::iter::repeat_n(["b", "y", "q"], 30));
        rows.extend(std::iter::repeat_n(["c", "z", "r"], 20));
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap()
    }

    #[test]
    fn estimate_covers_the_true_max_weight() {
        let table = skewed_table();
        let view = table.view();
        let exact = Brs::new(&SizeWeight).run(&view, 3);
        let true_max = exact.rules.iter().map(|s| s.weight).fold(0.0f64, f64::max);
        let est = estimate_mw(&view, &SizeWeight, 3, 40, 42);
        assert!(
            est >= true_max,
            "estimate {est} below true max weight {true_max}"
        );
    }

    #[test]
    fn estimate_is_capped_by_max_possible_weight() {
        let table = skewed_table();
        let est = estimate_mw(&table.view(), &SizeWeight, 3, 40, 42);
        assert!(est <= SizeWeight.max_weight(&table));
    }

    #[test]
    fn empty_view_falls_back() {
        let table = skewed_table();
        let empty = table.gather_rows(&[]);
        let est = estimate_mw(&empty.view(), &SizeWeight, 3, 10, 1);
        assert_eq!(est, 3.0);
    }

    #[test]
    fn oversized_sample_uses_whole_view() {
        let table = skewed_table();
        let est = estimate_mw(&table.view(), &SizeWeight, 3, 10_000, 7);
        assert!(est > 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let table = skewed_table();
        let a = estimate_mw(&table.view(), &SizeWeight, 3, 30, 5);
        let b = estimate_mw(&table.view(), &SizeWeight, 3, 30, 5);
        assert_eq!(a, b);
    }
}
