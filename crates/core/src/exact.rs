//! Exact (exhaustive) optimizer for Problem 3 — the test oracle.
//!
//! Problem 3 is NP-hard (Lemma 2), so this module is exponential by nature
//! and guarded against large inputs. It exists to (a) verify the greedy
//! algorithm's `1 − 1/e` bound empirically, and (b) power the
//! greedy-vs-exact ablation.

use crate::{score_set, Rule, WeightFn};
use rustc_hash::FxHashSet;
use sdd_table::TableView;

/// Hard cap on `C(candidates, k)` before [`exact_best_rule_set`] refuses to
/// run — keeps accidental misuse from hanging a test suite.
pub const MAX_COMBINATIONS: u128 = 5_000_000;

/// Enumerates every rule with positive support on `view`, sizes `1..=max_size`.
pub fn enumerate_support_rules(view: &TableView<'_>, max_size: usize) -> Vec<Rule> {
    let table = view.table();
    let n_cols = table.n_columns();
    let mut out: FxHashSet<Rule> = FxHashSet::default();
    let col_subsets = subsets_up_to(n_cols, max_size.min(n_cols));
    for wr in view.iter() {
        for cols in &col_subsets {
            out.insert(Rule::from_row_columns(table, wr.row, cols));
        }
    }
    out.into_iter().collect()
}

fn subsets_up_to(n: usize, max_size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for mask in 1u32..(1u32 << n) {
        if (mask.count_ones() as usize) <= max_size {
            let cols: Vec<usize> = (0..n).filter(|&c| mask & (1 << c) != 0).collect();
            out.push(cols);
        }
    }
    out
}

/// Exhaustively finds the rule set of size ≤ `k` maximizing `Score`
/// (Definition 2). Returns `(best_set, best_score)`.
///
/// # Panics
/// If the number of candidate combinations exceeds [`MAX_COMBINATIONS`].
pub fn exact_best_rule_set(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    k: usize,
    max_size: usize,
) -> (Vec<Rule>, f64) {
    let candidates = enumerate_support_rules(view, max_size);
    let n = candidates.len();
    let combos = n_choose_k(n as u128, k as u128);
    assert!(
        combos <= MAX_COMBINATIONS,
        "exact search over C({n},{k}) = {combos} combinations exceeds the safety cap"
    );

    let mut best: (Vec<Rule>, f64) = (Vec::new(), 0.0);
    let mut indices: Vec<usize> = (0..k.min(n)).collect();
    if indices.is_empty() {
        return best;
    }
    loop {
        let set: Vec<Rule> = indices.iter().map(|&i| candidates[i].clone()).collect();
        let s = score_set(view, weight, &set);
        if s.total > best.1 {
            best = (set, s.total);
        }
        // Next combination (lexicographic).
        let klen = indices.len();
        let mut i = klen;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if indices[i] != i + n - klen {
                break;
            }
        }
        indices[i] += 1;
        for j in i + 1..klen {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

fn n_choose_k(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
        if result > MAX_COMBINATIONS * 2 {
            return result; // early out; caller only compares against the cap
        }
    }
    result
}

/// The greedy guarantee for `k` picks: `1 − ((k−1)/k)^k` (paper §3.4).
pub fn greedy_guarantee(k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let kf = k as f64;
    1.0 - ((kf - 1.0) / kf).powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Brs, SizeWeight};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sdd_table::{Schema, Table};

    fn random_table(rng: &mut StdRng, n_rows: usize) -> Table {
        let rows: Vec<[String; 3]> = (0..n_rows)
            .map(|_| {
                [
                    format!("a{}", rng.gen_range(0..3)),
                    format!("b{}", rng.gen_range(0..3)),
                    format!("c{}", rng.gen_range(0..2)),
                ]
            })
            .collect();
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap()
    }

    #[test]
    fn enumerate_support_rules_finds_all_patterns() {
        let table = Table::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[&["a", "x"], &["b", "y"]],
        )
        .unwrap();
        let view = table.view();
        let rules = enumerate_support_rules(&view, 2);
        // Per row: (a,?),(?,x),(a,x) → 3 each, distinct across rows → 6.
        assert_eq!(rules.len(), 6);
    }

    #[test]
    fn exact_beats_or_matches_greedy() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let table = random_table(&mut rng, 25);
            let view = table.view();
            let greedy = Brs::new(&SizeWeight).run(&view, 2);
            let (_, exact) = exact_best_rule_set(&view, &SizeWeight, 2, 3);
            assert!(exact + 1e-9 >= greedy.total_score);
        }
    }

    #[test]
    fn greedy_respects_its_approximation_guarantee() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..15 {
            let table = random_table(&mut rng, 30);
            let view = table.view();
            let k = 2 + (trial % 2);
            let greedy = Brs::new(&SizeWeight).run(&view, k);
            let (_, exact) = exact_best_rule_set(&view, &SizeWeight, k, 3);
            let bound = greedy_guarantee(k) * exact;
            assert!(
                greedy.total_score + 1e-9 >= bound,
                "trial {trial}: greedy {} < guarantee {} (exact {})",
                greedy.total_score,
                bound,
                exact
            );
        }
    }

    #[test]
    fn greedy_guarantee_values() {
        assert!((greedy_guarantee(1) - 1.0).abs() < 1e-12);
        assert!((greedy_guarantee(2) - 0.75).abs() < 1e-12);
        // limit is 1 - 1/e ≈ 0.632...
        assert!(greedy_guarantee(50) > 0.632);
    }

    #[test]
    #[should_panic(expected = "safety cap")]
    fn refuses_huge_instances() {
        let mut rng = StdRng::seed_from_u64(17);
        let table = random_table(&mut rng, 500);
        let view = table.view();
        // Plenty of candidates; choose k large enough to blow the cap.
        let _ = exact_best_rule_set(&view, &SizeWeight, 12, 3);
    }

    #[test]
    fn k_zero_scores_zero() {
        let mut rng = StdRng::seed_from_u64(19);
        let table = random_table(&mut rng, 10);
        let (set, score) = exact_best_rule_set(&table.view(), &SizeWeight, 0, 3);
        assert!(set.is_empty());
        assert_eq!(score, 0.0);
    }
}
