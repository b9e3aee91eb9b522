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
//! The parent's size `P` is then 0 or one child's `⌈minSS / S⌉`, and given
//! `P` each child is served if `P` covers it, else unserved or topped up. A
//! group's (cost, value) menu so grows one child at a time, dominance-
//! filtered after each (Nemhauser & Ullmann), and is, configuration for
//! configuration, what enumerating all 3^d assignments keeps (the tests'
//! oracle). A multiple-choice knapsack over the memory budget combines the
//! menus (`A[i+1][j] = max(A[i][j], max_e A[i][j − S(e)] + P(e))`).

use crate::alloc::{Allocation, AllocationProblem};

#[derive(Debug, Clone, PartialEq)]
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

/// A configuration of a group's first children, the last one's sample
/// size at `sizes[at]` in [`menu`]'s arena.
#[derive(Debug, Clone, Copy)]
struct Partial {
    cost: usize,
    value: f64,
    parent_size: usize,
    at: usize,
}

/// Solves Problem 5 with the paper's DP (§4.1).
///
/// One group — all a prefetch ever plans — needs no knapsack: its
/// dominance-kept configurations all fit the budget and rise in value, so
/// the last one is the best, and it is taken in O(1).
///
/// # Panics
/// If the problem fails [`AllocationProblem::validate`].
pub fn solve_dp(problem: &AllocationProblem) -> Allocation {
    problem.validate().expect("invalid allocation problem");
    let groups = build_groups(problem);
    let picks = match groups.as_slice() {
        [group] => vec![group.configs.last()],
        _ => knapsack(&groups, problem.capacity),
    };
    let sizes = sample_sizes(problem.parent.len(), &groups, picks);
    Allocation {
        value: problem.step_value(&sizes),
        sizes,
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
    // group g at the budget left after the groups behind it (a choice at
    // budget j costs at most j).
    let mut picks = vec![None; groups.len()];
    let mut budget = m;
    for (g, group) in groups.iter().enumerate().rev() {
        if let Some(cfg) = group.configs.get(choices[g][budget]) {
            picks[g] = Some(cfg);
            budget -= cfg.cost;
        }
    }
    picks
}

fn build_groups(problem: &AllocationProblem) -> Vec<Group> {
    let children = problem.children();
    let mut groups = Vec::new();
    for r0 in 0..problem.parent.len() {
        let leaf_children: Vec<usize> = children[r0]
            .iter()
            .copied()
            .filter(|&c| children[c].is_empty())
            .collect();
        if leaf_children.is_empty() {
            continue;
        }
        groups.push(Group {
            parent: r0,
            configs: menu(problem, &leaf_children),
            children: leaf_children,
        });
    }

    // A root that is itself a leaf: a degenerate one-node group, whose one
    // configuration is kept, like every group's, only if it fits.
    if children[0].is_empty() && problem.prob[0] > 0.0 {
        let min_ss = problem.min_ss;
        let mut configs = vec![GroupConfig {
            cost: min_ss,
            value: problem.prob[0],
            parent_size: min_ss,
            child_sizes: vec![],
        }];
        configs.retain(|c| c.cost <= problem.capacity);
        groups.push(Group {
            parent: 0,
            children: vec![],
            configs,
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

/// The configurations of the group of `children` that the dominance
/// filter keeps, by rising cost and value.
fn menu(problem: &AllocationProblem, children: &[usize]) -> Vec<GroupConfig> {
    let (min_ss, m) = (problem.min_ss as f64, problem.capacity);
    // The parent size that serves a child, if one does.
    let serving = |c: usize| {
        let s = problem.selectivity[c];
        (s > 0.0).then(|| ceil_eps(min_ss / s))
    };
    // A value never exceeds `total`, and a child moves it by at most half an
    // ulp of that: values over `margin` apart keep their order to the end.
    let total: f64 = children.iter().map(|&c| problem.prob[c]).sum();
    let margin = 2.0 * (children.len() + 1) as f64 * f64::EPSILON * total;
    // `list` stays in the enumeration's order, where a child's category
    // outranks those before it; `sizes[at]` is (size, the previous child's).
    let mut list: Vec<Partial> = children
        .iter()
        .filter_map(|&c| serving(c))
        .chain([0])
        .filter(|&p| p <= m)
        .map(|p| Partial {
            cost: p,
            value: 0.0,
            parent_size: p,
            at: usize::MAX,
        })
        .collect();
    list.sort_unstable_by_key(|x| x.parent_size);
    list.dedup_by_key(|x| x.parent_size);
    let mut sizes: Vec<(usize, usize)> = Vec::new();
    for &c in children {
        let (prob, s) = (problem.prob[c], problem.selectivity[c]);
        let covers = |x: &&Partial| serving(c).is_some_and(|p| p <= x.parent_size);
        let (served, rest): (Vec<&Partial>, Vec<_>) = list.iter().partition(covers);
        let top_up = |x: &Partial| ceil_eps((min_ss - x.parent_size as f64 * s).max(0.0));
        let extended = (served.iter().map(|&x| (x, 0, prob)))
            .chain(rest.iter().map(|&x| (x, 0, 0.0)))
            .chain(rest.iter().map(|&x| (x, top_up(x), prob)));
        let mut next = Vec::with_capacity(2 * list.len());
        for (x, size, gain) in extended {
            if x.cost + size <= m {
                sizes.push((size, x.at));
                next.push(Partial {
                    cost: x.cost + size,
                    value: x.value + gain,
                    at: sizes.len() - 1,
                    ..*x
                });
            }
        }
        list = prune(next, margin);
    }

    // The dominance filter: keep strictly increasing value. The sort is
    // stable, so ties stay in the enumeration's order.
    list.sort_by(|a, b| a.cost.cmp(&b.cost).then(b.value.total_cmp(&a.value)));
    list.retain(|x| x.value > 1e-12);
    list.dedup_by(|x, kept| x.value <= kept.value + 1e-12);
    list.into_iter()
        .map(|x| {
            let mut child_sizes = vec![0; children.len()];
            let mut at = x.at;
            for size in child_sizes.iter_mut().rev() {
                (*size, at) = sizes[at];
            }
            GroupConfig {
                cost: x.cost,
                value: x.value,
                parent_size: x.parent_size,
                child_sizes,
            }
        })
        .collect()
}

/// Keeps, in order, each configuration of `list` (the enumeration's order)
/// that no other of its parent size outdoes whatever the later children
/// get: by costing less and being worth as much, or costing as much and
/// coming first in that order or being worth over `margin` more.
fn prune(mut list: Vec<Partial>, margin: f64) -> Vec<Partial> {
    let mut by_cost: Vec<usize> = (0..list.len()).collect();
    by_cost.sort_by(|&a, &b| {
        let (x, y) = (list[a], list[b]);
        (x.parent_size, x.cost)
            .cmp(&(y.parent_size, y.cost))
            .then(y.value.total_cmp(&x.value))
    });
    let mut keep = vec![false; list.len()];
    // At (parent size, cost) `at`: the best value at a lower cost, the best
    // at `at`, and the first at `at` in the enumeration's order.
    let (mut at, mut best, mut lead, mut first) = (None, 0.0f64, 0.0, 0);
    for i in by_cost {
        let x = list[i];
        if at != Some((x.parent_size, x.cost)) {
            // Values are at least 0, so -1 stands for nothing at a lower cost.
            let same_parent = at.is_some_and(|(p, _)| p == x.parent_size);
            best = if same_parent { best.max(lead) } else { -1.0 };
            (at, lead, first) = (Some((x.parent_size, x.cost)), x.value, i);
        }
        keep[i] = x.value > best && x.value + margin >= lead && i <= first;
        first = first.min(i);
    }
    let mut keep = keep.into_iter();
    list.retain(|_| keep.next() == Some(true));
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::solve_uniform;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The oracle: all 3^d category assignments of a group's children,
    /// dominance-filtered (cost ascending, value descending, ties in
    /// enumeration order, which a stable sort keeps).
    fn enumerate_configs(problem: &AllocationProblem, children: &[usize]) -> Vec<GroupConfig> {
        let d = children.len();
        let min_ss = problem.min_ss as f64;
        let mut configs: Vec<GroupConfig> = Vec::new();

        // Assignment `index`'s category of child i is its base-3 digit i:
        // 0 = parent-served, 1 = unserved, 2 = topped-up.
        for index in 0..3usize.pow(d as u32) {
            let cats: Vec<usize> = (0..d).map(|i| index / 3usize.pow(i as u32) % 3).collect();
            // The parent sample size the served children require.
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
            if !feasible {
                continue;
            }
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

        configs.sort_by(|a, b| a.cost.cmp(&b.cost).then(b.value.total_cmp(&a.value)));
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

    /// A seeded tree of 1–4 groups: the root's leaves, and up to three
    /// internal children of the root with leaves of their own, d ≤ 10 per
    /// group. Probabilities include zeros, repeats and hundredths, whose
    /// sums round into near ties; selectivities include 0, 1, repeats and
    /// fifths; the budget runs from none to all.
    fn random_problem(rng: &mut StdRng) -> AllocationProblem {
        let mut parent = vec![None];
        let mut internal = vec![0];
        for _ in 0..rng.gen_range(0..=3) {
            internal.push(parent.len());
            parent.push(Some(0));
        }
        let mut leaves = 0;
        for &r0 in &internal {
            let d = rng.gen_range(if r0 == 0 { 0 } else { 1 }..=10usize);
            leaves += d;
            parent.extend(std::iter::repeat_n(Some(r0), d));
        }
        let n = parent.len();
        let min_ss = if rng.gen_bool(0.5) {
            100
        } else {
            rng.gen_range(1..2000usize)
        };
        let mut prob = vec![0.0; n];
        let mut selectivity = vec![1.0; n];
        let mut rest = 1.0f64;
        for i in 1..n {
            selectivity[i] = match rng.gen_range(0..6) {
                0 => 0.0,
                1 => 1.0,
                2 => selectivity[rng.gen_range(0..i)],
                3 => rng.gen_range(1..5) as f64 * 0.2,
                _ => rng.gen_range(0.0..1.0),
            };
            if internal.contains(&i) {
                continue;
            }
            let p = match rng.gen_range(0..5) {
                0 => 0.0,
                1 => prob[rng.gen_range(0..i)],
                2 | 3 => rng.gen_range(1..40) as f64 * 0.01,
                _ => rng.gen_range(0.0..=rest),
            };
            let p = p.min(rest);
            rest -= p;
            prob[i] = p;
        }
        AllocationProblem {
            parent,
            prob,
            selectivity,
            capacity: rng.gen_range(0..=(leaves + internal.len()) * min_ss),
            min_ss,
        }
    }

    /// Every group's menu is the oracle's, configuration for configuration,
    /// so the DP's sizes and value are the enumeration's exactly.
    #[test]
    fn menus_equal_the_enumeration() {
        for seed in 0..600 {
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = random_problem(&mut rng);
            let groups = build_groups(&problem);
            let mut oracle = groups.clone();
            for group in oracle.iter_mut().filter(|g| !g.children.is_empty()) {
                group.configs = enumerate_configs(&problem, &group.children);
            }
            for (got, want) in groups.iter().zip(&oracle) {
                assert_eq!(got.configs, want.configs, "seed {seed}: {problem:?}");
            }
            let picks = match oracle.as_slice() {
                [group] => vec![group.configs.last()],
                _ => knapsack(&oracle, problem.capacity),
            };
            let want = sample_sizes(problem.parent.len(), &oracle, picks);
            let solved = solve_dp(&problem);
            assert_eq!(solved.sizes, want, "seed {seed}");
            assert_eq!(solved.value, problem.step_value(&want), "seed {seed}");
        }
    }

    fn two_leaf(capacity: usize) -> AllocationProblem {
        AllocationProblem {
            parent: vec![None, Some(0), Some(0)],
            prob: vec![0.0, 0.6, 0.4],
            selectivity: vec![1.0, 0.5, 0.25],
            capacity,
            min_ss: 1000,
        }
    }

    /// Hundredths whose sums round: filtering each child's list as the
    /// final menu is filtered (a 1e-12 tolerance, one configuration per
    /// cost) would drop configurations the enumeration keeps here.
    #[test]
    fn near_ties_fall_as_in_the_enumeration() {
        let problem = AllocationProblem {
            parent: vec![None, Some(0), Some(0), Some(0), Some(0), Some(0)],
            prob: vec![0.0, 0.3, 0.05, 0.22, 0.05, 0.2],
            selectivity: vec![1.0, 1.0, 0.5, 0.6, 0.5, 1.0],
            capacity: 319,
            min_ss: 100,
        };
        let [group] = build_groups(&problem).try_into().expect("one group");
        assert_eq!(group.configs, enumerate_configs(&problem, &group.children));
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
