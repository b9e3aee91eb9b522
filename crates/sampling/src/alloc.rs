//! The sample-memory allocation problem (paper §4.1, Problem 5).
//!
//! Given the display tree `U`, a probability that each leaf is the next
//! drill-down target, per-edge selectivity ratios `S(parent, leaf)`, a
//! memory budget `M` (total tuples across samples), and `minSS`, choose a
//! sample size `n_r` for every node maximizing the probability that the
//! next drill-down is served from memory:
//!
//! ```text
//! maximize  Σ_{leaves r'} p_{r'} · 1[ess(r') ≥ minSS]     s.t. Σ n_r ≤ M
//! ```
//!
//! with `ess(r') = n_{r'} + n_parent · S(parent, r')` under the paper's
//! simplifying assumption that a leaf draws tuples only from itself and its
//! parent. Problem 5 is NP-hard (Lemma 4 — reduction in
//! [`crate::knapsack`]); solvers live in [`crate::alloc_dp`] (approximate
//! DP) and [`crate::alloc_convex`] (hinge-loss relaxation).

/// An instance of the allocation problem over an abstract tree. Node `0` is
/// the root; nodes are addressed by index.
#[derive(Debug, Clone)]
pub struct AllocationProblem {
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Probability each node is the next drill-down target. Must sum to ≤ 1;
    /// internal nodes typically carry 0.
    pub prob: Vec<f64>,
    /// `S(parent(r), r)`: the fraction of a parent-sample tuple usable for
    /// `r` (ratio of selectivities, §4.1). Ignored for the root.
    pub selectivity: Vec<f64>,
    /// Memory budget `M` in tuples.
    pub capacity: usize,
    /// Minimum sample size to run BRS without touching disk.
    pub min_ss: usize,
}

impl AllocationProblem {
    /// Validates structural invariants; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.parent.len();
        if self.prob.len() != n || self.selectivity.len() != n {
            return Err("parent/prob/selectivity length mismatch".into());
        }
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.parent[0].is_some() {
            return Err("node 0 must be the root".into());
        }
        for (i, &p) in self.parent.iter().enumerate().skip(1) {
            match p {
                None => return Err(format!("node {i} has no parent but is not the root")),
                Some(j) if j >= n => return Err(format!("node {i} has out-of-range parent {j}")),
                Some(j) if j >= i => {
                    return Err(format!(
                        "node {i}'s parent {j} must precede it (topological order)"
                    ))
                }
                _ => {}
            }
        }
        if self.prob.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err("probabilities must be in [0,1]".into());
        }
        if self.selectivity.iter().any(|&s| !(0.0..=1.0).contains(&s)) {
            return Err("selectivities must be in [0,1]".into());
        }
        if self.min_ss == 0 {
            return Err("minSS must be positive".into());
        }
        Ok(())
    }

    /// Child lists, derived from `parent`.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (i, &p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Leaves of the tree.
    pub fn leaves(&self) -> Vec<usize> {
        let ch = self.children();
        (0..self.parent.len())
            .filter(|&i| ch[i].is_empty())
            .collect()
    }

    /// `ess(r)` for every node under allocation `sizes`.
    pub fn ess(&self, sizes: &[usize]) -> Vec<f64> {
        assert_eq!(sizes.len(), self.parent.len());
        (0..self.parent.len())
            .map(|i| {
                let own = sizes[i] as f64;
                match self.parent[i] {
                    Some(p) => own + sizes[p] as f64 * self.selectivity[i],
                    None => own,
                }
            })
            .collect()
    }

    /// The step objective of Problem 5: probability mass of leaves whose
    /// `ess` clears `minSS`.
    pub fn step_value(&self, sizes: &[usize]) -> f64 {
        let ess = self.ess(sizes);
        self.leaves()
            .into_iter()
            .filter(|&l| ess[l] + 1e-9 >= self.min_ss as f64)
            .map(|l| self.prob[l])
            .sum()
    }

    /// The hinge objective of Problem 6: `Σ p·min(1, ess/minSS)`.
    pub fn hinge_value(&self, sizes: &[f64]) -> f64 {
        assert_eq!(sizes.len(), self.parent.len());
        self.leaves()
            .into_iter()
            .map(|l| {
                let own = sizes[l];
                let ess = match self.parent[l] {
                    Some(p) => own + sizes[p] * self.selectivity[l],
                    None => own,
                };
                self.prob[l] * (ess / self.min_ss as f64).min(1.0)
            })
            .sum()
    }

    /// Total memory used by an allocation.
    pub fn used(&self, sizes: &[usize]) -> usize {
        sizes.iter().sum()
    }
}

/// An allocation: per-node sample sizes plus the achieved step objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Chosen sample size per node.
    pub sizes: Vec<usize>,
    /// `Σ p` over leaves served from memory (step objective).
    pub value: f64,
}

/// Uniform baseline: split the budget equally among leaves (no parent
/// samples). Ablation A3's straw man.
pub fn solve_uniform(problem: &AllocationProblem) -> Allocation {
    let leaves = problem.leaves();
    let mut sizes = vec![0usize; problem.parent.len()];
    if !leaves.is_empty() {
        let per = problem.capacity / leaves.len();
        for &l in &leaves {
            sizes[l] = per;
        }
    }
    let value = problem.step_value(&sizes);
    Allocation { sizes, value }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root with two leaf children, generous selectivities.
    pub(crate) fn two_leaf() -> AllocationProblem {
        AllocationProblem {
            parent: vec![None, Some(0), Some(0)],
            prob: vec![0.0, 0.6, 0.4],
            selectivity: vec![1.0, 0.5, 0.25],
            capacity: 3000,
            min_ss: 1000,
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(two_leaf().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut p = two_leaf();
        p.prob = vec![0.5];
        assert!(p.validate().is_err());

        let mut p = two_leaf();
        p.selectivity[1] = 1.5;
        assert!(p.validate().is_err());

        let mut p = two_leaf();
        p.min_ss = 0;
        assert!(p.validate().is_err());

        let p = AllocationProblem {
            parent: vec![Some(1), None],
            prob: vec![0.0, 0.0],
            selectivity: vec![1.0, 1.0],
            capacity: 10,
            min_ss: 1,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn ess_combines_own_and_parent_sample() {
        let p = two_leaf();
        let ess = p.ess(&[1000, 500, 0]);
        assert_eq!(ess[1], 500.0 + 1000.0 * 0.5);
        assert_eq!(ess[2], 1000.0 * 0.25);
    }

    #[test]
    fn step_value_counts_served_leaves() {
        let p = two_leaf();
        // Leaf 1: 500 + 0.5·1000 = 1000 ✓; leaf 2: 250 ✗.
        assert!((p.step_value(&[1000, 500, 0]) - 0.6).abs() < 1e-12);
        // Give leaf 2 its own 750: 250+750 = 1000 ✓.
        assert!((p.step_value(&[1000, 500, 750]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hinge_value_rewards_partial_samples() {
        let p = two_leaf();
        let v = p.hinge_value(&[0.0, 500.0, 0.0]);
        assert!((v - 0.6 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_baseline_spends_only_on_leaves() {
        let p = two_leaf();
        let a = solve_uniform(&p);
        assert_eq!(a.sizes[0], 0);
        assert_eq!(a.sizes[1], 1500);
        assert_eq!(a.sizes[2], 1500);
        assert!((a.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leaves_of_deeper_tree() {
        let p = AllocationProblem {
            parent: vec![None, Some(0), Some(1), Some(1)],
            prob: vec![0.0, 0.0, 0.5, 0.5],
            selectivity: vec![1.0, 0.5, 0.5, 0.5],
            capacity: 100,
            min_ss: 10,
        };
        assert_eq!(p.leaves(), vec![2, 3]);
    }
}
