//! The knapsack → allocation reduction (paper Lemma 4), executable.
//!
//! Lemma 4 proves Problem 5 NP-hard by encoding a 0/1 knapsack instance as
//! a sample-allocation tree: item `i` becomes a node `r_i` with two leaf
//! children; serving the first child is always worth it, and serving the
//! second child costs `w_i · minSS` extra memory and yields probability
//! proportional to `v_i` — exactly the knapsack trade-off.
//!
//! This module materializes the reduction and ships an exact knapsack
//! solver so tests can check that optima map to optima.

use crate::alloc::AllocationProblem;

/// A 0/1 knapsack instance with integer weights.
#[derive(Debug, Clone)]
pub struct Knapsack {
    /// Item weights (positive).
    pub weights: Vec<usize>,
    /// Item values (non-negative).
    pub values: Vec<f64>,
    /// Weight budget.
    pub capacity: usize,
}

impl Knapsack {
    /// Exact DP solver. Returns `(best_value, chosen_items)`.
    pub fn solve_exact(&self) -> (f64, Vec<usize>) {
        let n = self.weights.len();
        assert_eq!(n, self.values.len(), "weights/values length mismatch");
        let cap = self.capacity;
        // best[j] = max value with weight ≤ j; take[i][j] = item i taken.
        let mut best = vec![0.0f64; cap + 1];
        let mut take = vec![vec![false; cap + 1]; n];
        #[allow(
            clippy::needless_range_loop,
            reason = "indexes weights, values, and take together"
        )]
        for i in 0..n {
            let w = self.weights[i];
            if w > cap {
                continue;
            }
            for j in (w..=cap).rev() {
                let cand = best[j - w] + self.values[i];
                if cand > best[j] + 1e-12 {
                    best[j] = cand;
                    take[i][j] = true;
                }
            }
        }
        // Reconstruct.
        let mut chosen = Vec::new();
        let mut j = cap;
        for i in (0..n).rev() {
            if take[i][j] {
                chosen.push(i);
                j -= self.weights[i];
            }
        }
        chosen.reverse();
        (best[cap], chosen)
    }
}

/// Output of [`lemma4_reduction`]: the allocation problem plus index maps.
#[derive(Debug, Clone)]
pub struct Lemma4Instance {
    /// The reduced allocation problem.
    pub problem: AllocationProblem,
    /// For item `i`: node index of its *second* leaf child (`r_{i,2}` in the
    /// proof) — the leaf whose service means "item i chosen".
    pub item_leaf: Vec<usize>,
    /// Probability granted per always-served first child.
    pub base_prob: f64,
    /// `v_i`'s normalizer: `(2m+1) · Σ v_j`.
    pub value_scale: f64,
}

/// Builds the Lemma-4 allocation instance from a knapsack whose weights are
/// expressed as fractions of `min_ss` (so `weights[i] < min_ss`, mirroring
/// the proof's scaling of all `w_i < 1`).
///
/// # Panics
/// If any weight is `0` or `≥ min_ss`, or the value sum is `0`.
pub fn lemma4_reduction(knapsack: &Knapsack, min_ss: usize) -> Lemma4Instance {
    let m = knapsack.weights.len();
    assert!(m > 0, "empty knapsack");
    assert!(
        knapsack.weights.iter().all(|&w| w > 0 && w < min_ss),
        "weights must be in (0, minSS) — scale them first"
    );
    let value_sum: f64 = knapsack.values.iter().sum();
    assert!(value_sum > 0.0, "need positive total value");

    // Node layout: 0 = root; for item i: node 1+3i = r_i, 2+3i = r_{i,1},
    // 3+3i = r_{i,2}.
    let n_nodes = 1 + 3 * m;
    let mut parent = vec![None; n_nodes];
    let mut prob = vec![0.0f64; n_nodes];
    let mut selectivity = vec![0.0f64; n_nodes];
    selectivity[0] = 1.0;

    let denom = (2 * m + 1) as f64;
    for i in 0..m {
        let ri = 1 + 3 * i;
        let ri1 = ri + 1;
        let ri2 = ri + 2;
        parent[ri] = Some(0);
        parent[ri1] = Some(ri);
        parent[ri2] = Some(ri);
        selectivity[ri] = 0.0; // root sample is useless for the r_i (proof: S ≈ 0)
        selectivity[ri1] = 1.0;
        selectivity[ri2] = 1.0 - knapsack.weights[i] as f64 / min_ss as f64;
        prob[ri1] = 2.0 / denom;
        prob[ri2] = knapsack.values[i] / (denom * value_sum);
    }

    let capacity = (m * min_ss) + knapsack.capacity;
    let problem = AllocationProblem {
        parent,
        prob,
        selectivity,
        capacity,
        min_ss,
    };
    Lemma4Instance {
        item_leaf: (0..m).map(|i| 3 + 3 * i).collect(),
        base_prob: 2.0 * m as f64 / denom,
        value_scale: denom * value_sum,
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_dp::solve_dp;

    fn sack() -> Knapsack {
        Knapsack {
            weights: vec![30, 40, 50, 20],
            values: vec![3.0, 5.0, 6.0, 2.0],
            capacity: 90,
        }
    }

    #[test]
    fn exact_knapsack_known_answer() {
        let (v, chosen) = sack().solve_exact();
        // Best: items 1 (w40,v5) + 2 (w50,v6) = 11 at weight 90.
        assert!((v - 11.0).abs() < 1e-9);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn exact_knapsack_respects_capacity() {
        let k = sack();
        let (_, chosen) = k.solve_exact();
        let w: usize = chosen.iter().map(|&i| k.weights[i]).sum();
        assert!(w <= k.capacity);
    }

    #[test]
    fn exact_knapsack_empty_capacity() {
        let mut k = sack();
        k.capacity = 0;
        let (v, chosen) = k.solve_exact();
        assert_eq!(v, 0.0);
        assert!(chosen.is_empty());
    }

    #[test]
    fn exact_knapsack_oversized_item_skipped() {
        let k = Knapsack {
            weights: vec![100, 10],
            values: vec![99.0, 1.0],
            capacity: 50,
        };
        let (v, chosen) = k.solve_exact();
        assert_eq!(chosen, vec![1]);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_structure_matches_the_proof() {
        let inst = lemma4_reduction(&sack(), 100);
        let p = &inst.problem;
        assert!(p.validate().is_ok());
        assert_eq!(p.parent.len(), 1 + 3 * 4);
        assert_eq!(p.capacity, 4 * 100 + 90);
        // Each r_{i,2}'s selectivity is 1 − w_i/minSS.
        assert!((p.selectivity[3] - 0.7).abs() < 1e-12);
        assert!((p.selectivity[6] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn dp_on_reduced_instance_solves_the_knapsack() {
        // The heart of Lemma 4: the DP's optimal allocation chooses exactly
        // the knapsack-optimal item set.
        let k = sack();
        let min_ss = 100;
        let inst = lemma4_reduction(&k, min_ss);
        let alloc = solve_dp(&inst.problem);
        let ess = inst.problem.ess(&alloc.sizes);

        // All first children are served (they dominate any item value).
        for i in 0..k.weights.len() {
            let ri1 = 2 + 3 * i;
            assert!(
                ess[ri1] + 1e-9 >= min_ss as f64,
                "first child of item {i} unserved"
            );
        }
        // The served second children form a knapsack-optimal set.
        let chosen: Vec<usize> = (0..k.weights.len())
            .filter(|&i| ess[inst.item_leaf[i]] + 1e-9 >= min_ss as f64)
            .collect();
        let chosen_value: f64 = chosen.iter().map(|&i| k.values[i]).sum();
        let chosen_weight: usize = chosen.iter().map(|&i| k.weights[i]).sum();
        let (opt_value, _) = k.solve_exact();
        assert!(chosen_weight <= k.capacity, "chosen {chosen:?} overweight");
        assert!(
            (chosen_value - opt_value).abs() < 1e-9,
            "allocation chose {chosen:?} (value {chosen_value}), knapsack optimum {opt_value}"
        );
        // And the achieved probability decomposes as the proof predicts.
        let expected = inst.base_prob + chosen_value / inst.value_scale;
        assert!((alloc.value - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "weights must be in")]
    fn reduction_rejects_unscaled_weights() {
        let k = Knapsack {
            weights: vec![200],
            values: vec![1.0],
            capacity: 10,
        };
        let _ = lemma4_reduction(&k, 100);
    }
}
