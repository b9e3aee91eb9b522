//! The Maximum Coverage → Problem 3 reduction (paper Lemma 2), executable.
//!
//! Lemma 2 proves Problem 3 NP-hard by encoding a Maximum Coverage Problem
//! (MCP) instance as a table + weight function: the table has one row per
//! universe element and one 0/1 column per subset; `W(r) = 1` if `r`
//! instantiates at least one column with value `1`, else `0`. A rule list
//! then scores exactly the size of the union of the chosen subsets.
//!
//! This module materializes the reduction so tests can verify optima map to
//! optima — turning the paper's hardness argument into executable evidence.

use crate::{Rule, WeightFn};
use sdd_table::{Schema, Table};

/// A Maximum Coverage Problem instance: pick `k` of the given subsets of
/// `{0, .., universe-1}` maximizing the size of their union.
#[derive(Debug, Clone)]
pub struct McpInstance {
    /// Universe size `|U|`.
    pub universe: usize,
    /// The subsets `S_1..S_m` (element indices, each `< universe`).
    pub sets: Vec<Vec<usize>>,
    /// How many subsets may be chosen.
    pub k: usize,
}

impl McpInstance {
    /// Builds the Lemma-2 table: `universe` rows × `sets.len()` columns,
    /// cell = `"1"` if the row's element belongs to the column's subset.
    pub fn to_table(&self) -> Table {
        let names: Vec<String> = (0..self.sets.len()).map(|j| format!("S{j}")).collect();
        let schema = Schema::new(names).expect("generated names are unique");
        let mut b = Table::builder(schema);
        for elem in 0..self.universe {
            let row: Vec<&str> = self
                .sets
                .iter()
                .map(|s| if s.contains(&elem) { "1" } else { "0" })
                .collect();
            b.push_row(&row).expect("arity matches");
        }
        b.build()
    }

    /// Exact MCP solver (brute force over all `C(m, k)` choices).
    pub fn exact_coverage(&self) -> usize {
        let m = self.sets.len();
        let mut best = 0usize;
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
        while let Some((start, chosen)) = stack.pop() {
            if chosen.len() == self.k.min(m) {
                best = best.max(self.union_size(&chosen));
                continue;
            }
            for j in start..m {
                let mut next = chosen.clone();
                next.push(j);
                stack.push((j + 1, next));
            }
            // Also allow fewer than k sets when m < k handled by min above.
            if chosen.len() < self.k.min(m) && start == m {
                best = best.max(self.union_size(&chosen));
            }
        }
        best
    }

    /// Greedy MCP: repeatedly add the subset covering the most new elements.
    /// Classic `1 − 1/e` approximation — mirrors what BRS does on the
    /// reduced table.
    pub fn greedy_coverage(&self) -> usize {
        let mut covered = vec![false; self.universe];
        let mut used = vec![false; self.sets.len()];
        for _ in 0..self.k.min(self.sets.len()) {
            let mut best: Option<(usize, usize)> = None; // (gain, index)
            for (j, s) in self.sets.iter().enumerate() {
                if used[j] {
                    continue;
                }
                let gain = s.iter().filter(|&&e| !covered[e]).count();
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, j));
                }
            }
            match best {
                Some((gain, j)) if gain > 0 => {
                    used[j] = true;
                    for &e in &self.sets[j] {
                        covered[e] = true;
                    }
                }
                _ => break,
            }
        }
        covered.iter().filter(|&&c| c).count()
    }

    fn union_size(&self, chosen: &[usize]) -> usize {
        let mut covered = vec![false; self.universe];
        for &j in chosen {
            for &e in &self.sets[j] {
                covered[e] = true;
            }
        }
        covered.iter().filter(|&&c| c).count()
    }
}

/// Lemma 2's weight function: `W(r) = 1` if some instantiated column of `r`
/// carries the value `"1"`, else `0`.
///
/// Value-dependent (unlike the shipped pattern-only weights) but still
/// monotone and non-negative, demonstrating the optimizer handles the full
/// generality the hardness proof requires. `max_weight` is overridden
/// because the default probes a pattern with arbitrary values.
#[derive(Debug, Clone, Copy, Default)]
pub struct McpWeight;

impl WeightFn for McpWeight {
    fn weight(&self, rule: &Rule, table: &Table) -> f64 {
        let any_one = rule
            .instantiated_columns()
            .any(|c| table.dictionary(c).value_of(rule.code(c)) == Some("1"));
        if any_one {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "McpWeight"
    }

    fn max_weight(&self, _table: &Table) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_best_rule_set;
    use crate::{score_set, Brs};

    fn inst() -> McpInstance {
        McpInstance {
            universe: 8,
            sets: vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![5, 6, 7],
                vec![0, 7],
            ],
            k: 2,
        }
    }

    #[test]
    fn table_encodes_membership() {
        let i = inst();
        let t = i.to_table();
        assert_eq!(t.n_rows(), 8);
        assert_eq!(t.n_columns(), 5);
        assert_eq!(t.value(2, 0), "1"); // elem 2 ∈ S0
        assert_eq!(t.value(2, 4), "0"); // elem 2 ∉ S4
    }

    #[test]
    fn exact_mcp_matches_known_answer() {
        let i = inst();
        // Best pair: S0 ∪ S3 = {0,1,2,5,6,7} (6) vs S0 ∪ S2 = 6 too.
        assert_eq!(i.exact_coverage(), 6);
    }

    #[test]
    fn greedy_mcp_is_within_the_guarantee() {
        let i = inst();
        let g = i.greedy_coverage() as f64;
        let e = i.exact_coverage() as f64;
        assert!(g >= (1.0 - 1.0 / std::f64::consts::E) * e);
    }

    #[test]
    fn exact_table_score_equals_exact_mcp_coverage() {
        // The heart of Lemma 2: optimum of the reduced Problem 3 instance ==
        // optimum of the MCP instance.
        let i = inst();
        let t = i.to_table();
        let view = t.view();
        let (_, best_score) = exact_best_rule_set(&view, &McpWeight, i.k, 1);
        assert_eq!(best_score as usize, i.exact_coverage());
    }

    #[test]
    fn brs_on_reduced_table_matches_greedy_mcp() {
        let i = inst();
        let t = i.to_table();
        let view = t.view();
        let res = Brs::new(&McpWeight).with_max_weight(1.0).run(&view, i.k);
        let brs_cov = score_set(&view, &McpWeight, &res.rules_only()).total as usize;
        // Both are greedy maximizers of the same submodular function; exact
        // tie-breaking may differ, so compare achieved coverage.
        assert_eq!(brs_cov, i.greedy_coverage());
    }

    #[test]
    fn mcp_weight_is_monotone() {
        let i = inst();
        let t = i.to_table();
        // Rules with a 1 keep weight 1 when extended; rules of all 0s have 0.
        let r0 = Rule::from_pairs(&t, &[("S0", "0")]).unwrap();
        assert_eq!(McpWeight.weight(&r0, &t), 0.0);
        let r01 = Rule::from_pairs(&t, &[("S0", "0"), ("S1", "1")]).unwrap();
        assert_eq!(McpWeight.weight(&r01, &t), 1.0);
        assert!(crate::weight::check_monotone_on(&McpWeight, &r01, &t));
    }

    #[test]
    fn empty_sets_are_legal() {
        let i = McpInstance {
            universe: 3,
            sets: vec![vec![], vec![0, 1, 2]],
            k: 1,
        };
        assert_eq!(i.exact_coverage(), 3);
        assert_eq!(i.greedy_coverage(), 3);
    }
}
