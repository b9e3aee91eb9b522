//! The paper's approximate DP solution to the allocation problem (§4.1).
//!
//! Under the simplifying assumption that a leaf's `ess` draws only on its
//! own sample and its parent's, the problem decomposes into independent
//! *groups* — an internal node `r0` plus its leaf children `M_{r0}`. Within
//! a group, every locally-optimal assignment puts each child in one of three
//! categories (paper §4.1):
//!
//! 1. served purely by the parent sample (`n_child = 0`,
//!    `n_{r0} · S(r0, child) ≥ minSS`),
//! 2. unserved (`n_child = 0`),
//! 3. topped up exactly to the threshold
//!    (`n_child = minSS − n_{r0} · S(r0, child)`).
//!
//! Enumerating the ≤ `3^d` category assignments yields each group's
//! (cost, value) menu; a knapsack-style DP over the memory budget combines
//! the menus (`A[i+1][j] = max(A[i][j], max_e A[i][j − S(e)] + P(e))`).

use crate::alloc::{Allocation, AllocationProblem};

/// Maximum leaf children per group the exhaustive 3^d enumeration accepts.
/// The paper notes `d` is usually ≤ `k` (a handful).
pub const MAX_GROUP_CHILDREN: usize = 12;

#[derive(Debug, Clone)]
struct GroupConfig {
    cost: usize,
    value: f64,
    /// Sample size for the group's parent node.
    parent_size: usize,
    /// Sample size per leaf child (aligned with the group's child list).
    child_sizes: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Group {
    parent: usize,
    children: Vec<usize>,
    configs: Vec<GroupConfig>,
}

/// Solves Problem 5 with the paper's DP (§4.1).
///
/// One group — all a prefetch ever plans — needs no knapsack: its
/// dominance-kept configurations all fit the budget and rise in value, so
/// the last one is the best, and it is taken in O(1).
///
/// # Panics
/// If the problem fails [`AllocationProblem::validate`] or a group has more
/// than [`MAX_GROUP_CHILDREN`] leaf children.
pub fn solve_dp(problem: &AllocationProblem) -> Allocation {
    problem.validate().expect("invalid allocation problem");
    let groups = build_groups(problem);
    let picks = match groups.as_slice() {
        [group] => vec![group.configs.last()],
        _ => knapsack(&groups, problem.capacity),
    };
    let sizes = sample_sizes(problem.parent.len(), &groups, picks);
    let achieved = problem.step_value(&sizes);
    Allocation {
        sizes,
        value: achieved,
    }
}

/// The sample size of each of `n_nodes` nodes when each group takes its
/// pick: a parent the largest its groups ask, a child its own.
fn sample_sizes(n_nodes: usize, groups: &[Group], picks: Vec<Option<&GroupConfig>>) -> Vec<usize> {
    let mut sizes = vec![0usize; n_nodes];
    for (group, cfg) in groups.iter().zip(picks) {
        let Some(cfg) = cfg else { continue };
        sizes[group.parent] = sizes[group.parent].max(cfg.parent_size);
        for (child, &cs) in group.children.iter().zip(&cfg.child_sizes) {
            sizes[*child] = cs;
        }
    }
    sizes
}

/// The multiple-choice knapsack over the groups' menus within budget `m`:
/// the configuration each group takes, if any.
fn knapsack(groups: &[Group], m: usize) -> Vec<Option<&GroupConfig>> {
    // value[j] = best value with budget j; choice[g][j] = config index used.
    let mut value = vec![0.0f64; m + 1];
    let mut choices: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    for group in groups {
        let mut next = value.clone();
        let mut choice = vec![usize::MAX; m + 1]; // MAX = "skip" (config cost 0 value 0 implicit)
        for (ci, cfg) in group.configs.iter().enumerate() {
            if cfg.cost > m {
                continue;
            }
            for j in cfg.cost..=m {
                let cand = value[j - cfg.cost] + cfg.value;
                if cand > next[j] + 1e-12 {
                    next[j] = cand;
                    choice[j] = ci;
                }
            }
        }
        // Make `next` monotone in j (standard knapsack invariant); carry the
        // choice marker along so walk-back stays consistent.
        for j in 1..=m {
            if next[j - 1] > next[j] {
                next[j] = next[j - 1];
                choice[j] = choice[j - 1];
            }
        }
        value = next;
        choices.push(choice);
    }

    // Reconstruct: walk groups backwards, using the choice recorded for
    // group g at the budget left after the groups behind it.
    let mut picks = vec![None; groups.len()];
    let mut budget = m;
    for (g, group) in groups.iter().enumerate().rev() {
        if let Some(cfg) = group.configs.get(choices[g][budget]) {
            if cfg.cost <= budget {
                picks[g] = Some(cfg);
                budget -= cfg.cost;
            }
        }
    }
    picks
}

fn build_groups(problem: &AllocationProblem) -> Vec<Group> {
    let children = problem.children();
    let n = problem.parent.len();
    let mut groups = Vec::new();

    for r0 in 0..n {
        let leaf_children: Vec<usize> = children[r0]
            .iter()
            .copied()
            .filter(|&c| children[c].is_empty())
            .collect();
        if leaf_children.is_empty() {
            continue;
        }
        assert!(
            leaf_children.len() <= MAX_GROUP_CHILDREN,
            "group under node {r0} has {} leaf children (> {MAX_GROUP_CHILDREN})",
            leaf_children.len()
        );
        groups.push(Group {
            parent: r0,
            children: leaf_children.clone(),
            configs: enumerate_configs(problem, r0, &leaf_children),
        });
    }

    // A root that is itself a leaf: a degenerate one-node group, whose one
    // configuration is kept, like every group's, only if it fits.
    if children[0].is_empty() && problem.prob[0] > 0.0 {
        let min_ss = problem.min_ss;
        let config = GroupConfig {
            cost: min_ss,
            value: problem.prob[0],
            parent_size: min_ss,
            child_sizes: vec![],
        };
        groups.push(Group {
            parent: 0,
            children: vec![],
            configs: (min_ss <= problem.capacity)
                .then_some(config)
                .into_iter()
                .collect(),
        });
    }
    groups
}

/// Ceiling with a small tolerance: quantities like `minSS·(1 − w/minSS)`
/// carry floating-point dust that would otherwise round a sample one tuple
/// too large and push an exactly-affordable configuration over budget.
/// `AllocationProblem::step_value` carries the matching `1e-9` slack when
/// checking `ess ≥ minSS`.
fn ceil_eps(x: f64) -> usize {
    (x - 1e-9).ceil().max(0.0) as usize
}

/// Enumerates the ≤ 3^d locally-optimal configurations of one group and
/// dominance-filters them.
fn enumerate_configs(
    problem: &AllocationProblem,
    _r0: usize,
    children: &[usize],
) -> Vec<GroupConfig> {
    let d = children.len();
    let min_ss = problem.min_ss as f64;
    let mut configs: Vec<GroupConfig> = Vec::new();

    // Category per child: 0 = parent-served, 1 = unserved, 2 = topped-up.
    let mut cats = vec![0u8; d];
    'outer: loop {
        // Determine the parent sample size required by category-0 children.
        let mut parent_size = 0usize;
        let mut feasible = true;
        for (i, &cat) in cats.iter().enumerate() {
            if cat == 0 {
                let s = problem.selectivity[children[i]];
                if s <= 0.0 {
                    feasible = false;
                    break;
                }
                parent_size = parent_size.max(ceil_eps(min_ss / s));
            }
        }
        if feasible {
            let mut cost = parent_size;
            let mut val = 0.0;
            let mut child_sizes = vec![0usize; d];
            for (i, &cat) in cats.iter().enumerate() {
                let child = children[i];
                match cat {
                    0 => val += problem.prob[child],
                    1 => {}
                    _ => {
                        let from_parent = parent_size as f64 * problem.selectivity[child];
                        let need = ceil_eps((min_ss - from_parent).max(0.0));
                        child_sizes[i] = need;
                        cost += need;
                        val += problem.prob[child];
                    }
                }
            }
            if cost <= problem.capacity {
                configs.push(GroupConfig {
                    cost,
                    value: val,
                    parent_size,
                    child_sizes,
                });
            }
        }

        // Advance the ternary counter.
        #[allow(
            clippy::needless_range_loop,
            reason = "advances a ternary counter in place"
        )]
        for i in 0..d {
            if cats[i] < 2 {
                cats[i] += 1;
                continue 'outer;
            }
            cats[i] = 0;
        }
        break;
    }

    // Dominance filter: sort by (cost asc, value desc); keep strictly
    // increasing value.
    configs.sort_by(|a, b| {
        a.cost
            .cmp(&b.cost)
            .then(b.value.partial_cmp(&a.value).expect("finite"))
    });
    let mut kept: Vec<GroupConfig> = Vec::with_capacity(configs.len());
    let mut best = 0.0f64;
    for c in configs {
        if c.value > best + 1e-12 {
            best = c.value;
            kept.push(c);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::solve_uniform;

    fn two_leaf(capacity: usize) -> AllocationProblem {
        AllocationProblem {
            parent: vec![None, Some(0), Some(0)],
            prob: vec![0.0, 0.6, 0.4],
            selectivity: vec![1.0, 0.5, 0.25],
            capacity,
            min_ss: 1000,
        }
    }

    #[test]
    fn serves_both_leaves_when_budget_allows() {
        let p = two_leaf(10_000);
        let a = solve_dp(&p);
        assert!((a.value - 1.0).abs() < 1e-9, "{a:?}");
        assert!(p.used(&a.sizes) <= p.capacity);
    }

    #[test]
    fn prefers_high_probability_leaf_under_tight_budget() {
        let p = two_leaf(1000);
        let a = solve_dp(&p);
        // Budget fits exactly one direct sample: pick the 0.6 leaf.
        assert!((a.value - 0.6).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn exploits_parent_sharing() {
        // Two leaves each with selectivity 0.5: a parent sample of 2000
        // serves both for cost 2000 < 2×1000? No — 2000 == 2000. Make
        // selectivity 0.8: parent of 1250 serves both, cheaper than 2000.
        let p = AllocationProblem {
            parent: vec![None, Some(0), Some(0)],
            prob: vec![0.0, 0.5, 0.5],
            selectivity: vec![1.0, 0.8, 0.8],
            capacity: 1300,
            min_ss: 1000,
        };
        let a = solve_dp(&p);
        assert!((a.value - 1.0).abs() < 1e-9, "{a:?}");
        assert!(a.sizes[0] >= 1250);
        // Uniform baseline can't do this: 650 per leaf < minSS.
        assert_eq!(solve_uniform(&p).value, 0.0);
    }

    #[test]
    fn topping_up_mixes_parent_and_own_sample() {
        // Parent sample required for leaf 1 (S=1.0 → 1000), leaf 2 has
        // S=0.4 so it gets 400 free and needs 600 of its own.
        let p = AllocationProblem {
            parent: vec![None, Some(0), Some(0)],
            prob: vec![0.0, 0.5, 0.5],
            selectivity: vec![1.0, 1.0, 0.4],
            capacity: 1600,
            min_ss: 1000,
        };
        let a = solve_dp(&p);
        assert!((a.value - 1.0).abs() < 1e-9, "{a:?}");
        assert_eq!(a.sizes[0], 1000);
        assert_eq!(a.sizes[2], 600);
    }

    #[test]
    fn multiple_groups_share_the_budget() {
        // Root with two internal children, each with one leaf.
        let p = AllocationProblem {
            parent: vec![None, Some(0), Some(0), Some(1), Some(2)],
            prob: vec![0.0, 0.0, 0.0, 0.7, 0.3],
            selectivity: vec![1.0, 0.5, 0.5, 1.0, 1.0],
            capacity: 1000,
            min_ss: 1000,
        };
        let a = solve_dp(&p);
        // Only one leaf affordable; take the 0.7 one (served either by its
        // own sample or its parent's — both cost 1000).
        assert!((a.value - 0.7).abs() < 1e-9, "{a:?}");
        let ess = p.ess(&a.sizes);
        assert!(ess[3] + 1e-9 >= 1000.0);
        assert!(ess[4] < 1000.0);
    }

    #[test]
    fn root_leaf_degenerate_tree() {
        let p = AllocationProblem {
            parent: vec![None],
            prob: vec![1.0],
            selectivity: vec![1.0],
            capacity: 500,
            min_ss: 400,
        };
        let a = solve_dp(&p);
        assert!((a.value - 1.0).abs() < 1e-9);
        assert_eq!(a.sizes[0], 400);
    }

    #[test]
    fn zero_capacity_serves_nothing() {
        let p = two_leaf(0);
        let a = solve_dp(&p);
        assert_eq!(a.value, 0.0);
        assert!(a.sizes.iter().all(|&s| s == 0));
    }

    #[test]
    fn zero_selectivity_child_needs_own_sample() {
        let p = AllocationProblem {
            parent: vec![None, Some(0)],
            prob: vec![0.0, 1.0],
            selectivity: vec![1.0, 0.0],
            capacity: 1000,
            min_ss: 1000,
        };
        let a = solve_dp(&p);
        assert!((a.value - 1.0).abs() < 1e-9);
        assert_eq!(a.sizes[1], 1000);
    }

    #[test]
    fn float_dust_does_not_break_exact_budgets() {
        // Regression (found by proptest): selectivity 1 − 55/100 evaluates
        // to 0.4499999999999999, and without tolerant ceilings the optimal
        // configuration costs one phantom tuple too much and is dropped.
        let p = AllocationProblem {
            parent: vec![None, Some(0), Some(0), Some(0)],
            prob: vec![0.0, 0.4, 0.18, 0.42],
            selectivity: vec![1.0, 1.0, 1.0 - 55.0 / 100.0, 0.0],
            capacity: 255,
            min_ss: 100,
        };
        let a = solve_dp(&p);
        // Affordable optimum: parent 100 (serves leaf 1), leaf 2 top-up 55,
        // leaf 3 own 100 → cost 255, value 1.0.
        assert!((a.value - 1.0).abs() < 1e-9, "{a:?}");
        assert!(p.used(&a.sizes) <= p.capacity);
    }

    /// One group takes exactly what the knapsack over that group would:
    /// seeded problems of 0–8 leaves (0 is the root-leaf tree) with
    /// selectivities that include 0 and 1 and budgets from none to all.
    #[test]
    fn one_group_takes_what_the_knapsack_takes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..600 {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = rng.gen_range(0..=8usize);
            let min_ss = rng.gen_range(1..1000usize);
            let mut parent = vec![None];
            let mut prob = vec![if d == 0 { 1.0 } else { 0.0 }];
            let mut selectivity = vec![1.0];
            let mut rest = 1.0f64;
            for _ in 0..d {
                parent.push(Some(0));
                let p = rng.gen_range(0.0..=rest);
                rest -= p;
                prob.push(p);
                selectivity.push(match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(0.0..1.0),
                });
            }
            let problem = AllocationProblem {
                parent,
                prob,
                selectivity,
                capacity: rng.gen_range(0..=(d + 1) * min_ss),
                min_ss,
            };
            let groups = build_groups(&problem);
            assert_eq!(groups.len(), 1, "seed {seed}");
            let by_knapsack = sample_sizes(
                problem.parent.len(),
                &groups,
                knapsack(&groups, problem.capacity),
            );
            assert_eq!(
                solve_dp(&problem).sizes,
                by_knapsack,
                "seed {seed}: {problem:?}"
            );
        }
    }

    #[test]
    fn dp_beats_or_matches_uniform_on_random_trees() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..25 {
            // Random 2-level tree.
            let n_leaves = rng.gen_range(1..6);
            let mut parent = vec![None];
            let mut prob = vec![0.0];
            let mut sel = vec![1.0];
            let mut rest = 1.0f64;
            for i in 0..n_leaves {
                parent.push(Some(0));
                let p = if i + 1 == n_leaves {
                    rest
                } else {
                    rng.gen_range(0.0..rest)
                };
                rest -= p;
                prob.push(p);
                sel.push(rng.gen_range(0.1..1.0));
            }
            let problem = AllocationProblem {
                parent,
                prob,
                selectivity: sel,
                capacity: rng.gen_range(500..4000),
                min_ss: 800,
            };
            let dp = solve_dp(&problem);
            let uni = solve_uniform(&problem);
            assert!(
                dp.value + 1e-9 >= uni.value,
                "dp {} < uniform {} on {problem:?}",
                dp.value,
                uni.value
            );
            assert!(problem.used(&dp.sizes) <= problem.capacity);
        }
    }
}
