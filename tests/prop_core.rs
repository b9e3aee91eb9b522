//! Property-based tests of the core optimizer's invariants (paper
//! Lemmas 1–3 plus the Algorithm-2 ⇔ brute-force equivalence).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{
    drill_down_with, find_best_marginal_rule, find_best_marginal_rule_rowwise,
    marginal::brute_force_best_marginal, score_list, score_set, sort_by_weight_desc, BitsWeight,
    Brs, BrsResult, ColumnWeight, Rule, SearchOptions, SearchStats, SizeMinusOne, SizeWeight,
    WeightFn,
};
use smart_drilldown::table::csv::read_csv_with_measures;
use smart_drilldown::table::{OwnedTableView, Schema, Table, TableError, TableView};

/// A random small categorical table: 3 columns with cardinalities ≤ 4.
fn arb_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..60).prop_map(|rows| {
        let str_rows: Vec<[String; 3]> = rows
            .iter()
            .map(|(a, b, c)| [format!("a{a}"), format!("b{b}"), format!("c{c}")])
            .collect();
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &str_rows).unwrap()
    })
}

/// A random rule over a 3-column table with the given cardinalities-by-
/// construction (codes are only valid if they appear; use row-derived rules
/// to stay in-domain).
fn rule_from_row(table: &Table, row_idx: usize, mask: u8) -> Rule {
    let row = (row_idx % table.n_rows().max(1)) as u32;
    let cols: Vec<usize> = (0..3).filter(|c| mask & (1 << c) != 0).collect();
    Rule::from_row_columns(table, row, &cols)
}

/// Every float a drill-down returns, by bit pattern: per displayed rule
/// its weight, count and mcount, then the total score.
fn float_bits(r: &BrsResult) -> Vec<u64> {
    r.rules
        .iter()
        .flat_map(|s| [s.weight, s.count, s.mcount])
        .chain([r.total_score])
        .map(f64::to_bits)
        .collect()
}

/// Algorithm 1 spelled out over the row-at-a-time reference search: the
/// greedy picks, their summed work counters and the final score.
fn rowwise_greedy(
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    base: &Rule,
    k: usize,
) -> (Vec<Rule>, u64, SearchStats) {
    let table = view.table();
    let mut opts = SearchOptions::new(weight.max_weight(table));
    opts.base = Some(base.clone());
    let mut covered = vec![0.0f64; view.len()];
    let mut picks = Vec::new();
    let mut stats = SearchStats::default();
    for _ in 0..k {
        let Some(best) = find_best_marginal_rule_rowwise(view, weight, &covered, &opts) else {
            break;
        };
        stats.absorb(&best.stats);
        for wr in view.iter() {
            if best.rule.covers_row(table, wr.row) {
                let slot = &mut covered[wr.row as usize];
                *slot = slot.max(best.weight);
            }
        }
        picks.push(best.rule);
    }
    let display = sort_by_weight_desc(view, weight, &picks);
    let total = score_list(view, weight, &display).total;
    (picks, total.to_bits(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drill-down filtering is a gather: over a sample-shaped view (rows of
    /// a table gathered in arbitrary order, repeats allowed, each with its
    /// own weight) `drill_down_with` ≡ BRS over the hand-gathered covered
    /// rows ≡ greedy over the row-at-a-time reference, bit for bit.
    #[test]
    fn drill_down_is_brs_over_the_gathered_covered_rows(
        table in arb_table(),
        picks in proptest::collection::vec((0usize..1000, 0.25f64..4.0), 1..80),
        base_pick in (0usize..1000, 0u8..8),
        bits in 0u8..2,
        k in 1usize..4,
    ) {
        let rows: Vec<u32> = picks.iter().map(|&(i, _)| (i % table.n_rows()) as u32).collect();
        let weights: Vec<f64> = picks.iter().map(|&(_, w)| w).collect();
        let sample = table.gather_rows(&rows);
        let view = TableView::all_with_weights(&sample, &weights);
        let base = rule_from_row(&sample, base_pick.0, base_pick.1);
        let weight: &dyn WeightFn = if bits == 0 { &SizeWeight } else { &BitsWeight };
        let brs = Brs::new(weight);

        let whole = drill_down_with(&brs, &view, &base, k);

        let covered: Vec<u32> = (0..sample.n_rows() as u32)
            .filter(|&r| base.covers_row(&sample, r))
            .collect();
        let hand = sample.gather_rows(&covered);
        let hand_weights: Vec<f64> = covered.iter().map(|&r| weights[r as usize]).collect();
        let hand_view = TableView::all_with_weights(&hand, &hand_weights);
        let gathered = brs.run_with_base(&hand_view, Some(base.clone()), k);
        prop_assert_eq!(whole.rules_only(), gathered.rules_only());
        prop_assert_eq!(&whole.selection_order, &gathered.selection_order);
        prop_assert_eq!(float_bits(&whole), float_bits(&gathered));
        prop_assert_eq!(whole.stats, gathered.stats);

        let (oracle_picks, oracle_total, oracle_stats) = rowwise_greedy(&hand_view, weight, &base, k);
        prop_assert_eq!(&whole.selection_order, &oracle_picks);
        prop_assert_eq!(whole.total_score.to_bits(), oracle_total);
        prop_assert_eq!(whole.stats, oracle_stats);
    }

    /// Lemma 1: sorting a rule list by descending weight never lowers Score.
    #[test]
    fn lemma1_sorted_order_dominates(table in arb_table(), picks in proptest::collection::vec((0usize..1000, 1u8..8), 1..5)) {
        let view = table.view();
        let rules: Vec<Rule> = picks.iter().map(|&(i, m)| rule_from_row(&table, i, m)).collect();
        let any_order = score_list(&view, &SizeWeight, &rules);
        let sorted = sort_by_weight_desc(&view, &SizeWeight, &rules);
        let sorted_score = score_list(&view, &SizeWeight, &sorted);
        prop_assert!(sorted_score.total + 1e-9 >= any_order.total);
    }

    /// Lemma 3 (submodularity): the marginal gain of adding a rule to a set
    /// never increases when the set grows.
    #[test]
    fn lemma3_submodularity(table in arb_table(), picks in proptest::collection::vec((0usize..1000, 1u8..8), 3..6)) {
        let view = table.view();
        let rules: Vec<Rule> = picks.iter().map(|&(i, m)| rule_from_row(&table, i, m)).collect();
        let (extra, rest) = rules.split_last().unwrap();
        // A ⊂ B: A = first half of rest, B = all of rest.
        let a = &rest[..rest.len() / 2];
        let b = rest;
        let score = |set: &[Rule]| score_set(&view, &SizeWeight, set).total;
        let with = |set: &[Rule]| {
            let mut v = set.to_vec();
            v.push(extra.clone());
            v
        };
        let gain_a = score(&with(a)) - score(a);
        let gain_b = score(&with(b)) - score(b);
        prop_assert!(gain_a + 1e-9 >= gain_b, "gain_a={gain_a} < gain_b={gain_b}");
    }

    /// Monotonicity of every shipped weight function along random chains.
    #[test]
    fn weights_are_monotone(table in arb_table(), i in 0usize..1000) {
        let full = rule_from_row(&table, i, 0b111);
        let weights: Vec<Box<dyn WeightFn>> = vec![
            Box::new(SizeWeight),
            Box::new(BitsWeight),
            Box::new(SizeMinusOne),
            Box::new(ColumnWeight::new(vec![0.5, 2.0, 1.0], 1.5)),
        ];
        for w in &weights {
            for sub in full.all_sub_rules() {
                for sub2 in sub.all_sub_rules() {
                    prop_assert!(w.weight(&sub2, &table) <= w.weight(&sub, &table) + 1e-9);
                }
            }
        }
    }

    /// Algorithm 2 finds exactly the brute-force best marginal rule.
    #[test]
    fn marginal_search_matches_brute_force(
        table in arb_table(),
        cov_seed in proptest::collection::vec(0.0f64..3.0, 60),
        mw in 1u8..4,
    ) {
        let view = table.view();
        let cov: Vec<f64> = (0..view.len()).map(|i| cov_seed[i % cov_seed.len()]).collect();
        let mw = mw as f64;
        let fast = find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(mw));
        let slow = brute_force_best_marginal(&view, &SizeWeight, &cov, mw, None);
        match (&fast, &slow) {
            (Some(f), Some(s)) => prop_assert!((f.marginal_value - s.1).abs() < 1e-9,
                "fast {} vs slow {}", f.marginal_value, s.1),
            (None, None) => {}
            _ => prop_assert!(false, "disagreement: {fast:?} vs {slow:?}"),
        }
    }

    /// Pruning never changes the greedy result.
    #[test]
    fn pruning_is_lossless(table in arb_table(), k in 1usize..4) {
        let view = table.view();
        let with = Brs::new(&SizeWeight).with_pruning(true).run(&view, k);
        let without = Brs::new(&SizeWeight).with_pruning(false).run(&view, k);
        prop_assert!((with.total_score - without.total_score).abs() < 1e-9);
    }

    /// Coverage subsumption: a super-rule's covered set is a subset of its
    /// sub-rule's (the paper's `t ∈ r2 ⇒ t ∈ r1`).
    #[test]
    fn coverage_subsumption(table in arb_table(), i in 0usize..1000) {
        let specific = rule_from_row(&table, i, 0b111);
        for general in specific.all_sub_rules() {
            prop_assert!(general.is_sub_rule_of(&specific));
            for row in 0..table.n_rows() as u32 {
                if specific.covers_row(&table, row) {
                    prop_assert!(general.covers_row(&table, row));
                }
            }
        }
    }

    /// MCounts partition the covered mass: Σ MCount = covered tuples, and
    /// MCount ≤ Count per rule.
    #[test]
    fn mcounts_partition_coverage(table in arb_table(), picks in proptest::collection::vec((0usize..1000, 1u8..8), 1..5)) {
        let view = table.view();
        let rules: Vec<Rule> = picks.iter().map(|&(i, m)| rule_from_row(&table, i, m)).collect();
        let s = score_list(&view, &SizeWeight, &rules);
        let mcount_sum: f64 = s.rules.iter().map(|r| r.mcount).sum();
        prop_assert!((mcount_sum + s.uncovered - view.len() as f64).abs() < 1e-9);
        for r in &s.rules {
            prop_assert!(r.mcount <= r.count + 1e-9);
        }
    }

    /// Greedy selection order has non-increasing marginal gains (a
    /// consequence of submodularity the optimizer relies on).
    #[test]
    fn greedy_gains_non_increasing(table in arb_table()) {
        let view = table.view();
        let res = Brs::new(&SizeWeight).run(&view, 4);
        // Recompute gains along the selection order.
        let mut prev_gain = f64::INFINITY;
        for i in 0..res.selection_order.len() {
            let before = score_set(&view, &SizeWeight, &res.selection_order[..i]).total;
            let after = score_set(&view, &SizeWeight, &res.selection_order[..=i]).total;
            let gain = after - before;
            prop_assert!(gain <= prev_gain + 1e-9, "gain grew: {gain} after {prev_gain}");
            prev_gain = gain;
        }
    }
}

/// A seeded 200-row table of three columns (cardinalities 2–6) written as
/// CSV text with a fourth column `m` of numbers drawn from `lo..10`.
fn seeded_sum_csv(seed: u64, lo: f64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards: Vec<u32> = (0..3).map(|_| rng.gen_range(2..7)).collect();
    let rows: Vec<String> = (0..200)
        .map(|_| {
            let cells: Vec<String> = cards
                .iter()
                .map(|&card| format!("v{}", rng.gen_range(0..card)))
                .collect();
            cells.join(",")
        })
        .collect();
    let mut text = "A,B,C,m\n".to_owned();
    for row in rows {
        text += &format!("{row},{}\n", rng.gen_range(lo..10.0));
    }
    text
}

/// The seeded table of [`seeded_sum_csv`], without its `m` column.
fn seeded_table(seed: u64) -> Table {
    read_csv_with_measures(&seeded_sum_csv(seed, 0.0), &["m"])
        .unwrap()
        .0
}

/// The `mw` prune of BRS bounds a rule's score by its covered weight,
/// which holds only for finite, non-negative row weights. On 300 seeded
/// tables read from CSV with a `Sum` column in [0, 10), BRS over the table
/// weighted by that column (k = 3, `mw` = 3) returns the same list with
/// pruning and without, bit for bit; the same draws from [−5, 10), on
/// which the pruned search can return a worse list, fail the read.
#[test]
fn sum_weighted_pruning_is_lossless_and_negative_measures_do_not_build() {
    for seed in 0..300 {
        let text = seeded_sum_csv(seed, 0.0);
        let (table, sums) = read_csv_with_measures(&text, &["m"]).unwrap();
        let view = TableView::all_with_weights(&table, &sums[0]);
        let brs = Brs::new(&SizeWeight).with_max_weight(3.0);
        let pruned = brs.clone().run(&view, 3);
        let unpruned = brs.with_pruning(false).run(&view, 3);
        assert_eq!(pruned.rules_only(), unpruned.rules_only(), "seed {seed}");
        assert_eq!(float_bits(&pruned), float_bits(&unpruned), "seed {seed}");
        assert!(
            matches!(
                read_csv_with_measures(&seeded_sum_csv(seed, -5.0), &["m"]),
                Err(TableError::Csv { .. })
            ),
            "seed {seed}: a negative measure was read"
        );
    }
}

/// The same contract on views weighted directly: on 300 seeded tables with
/// row weights from [0, 10), BRS (k = 3, `mw` = 3) returns the same list
/// with pruning and without, bit for bit; weights from [−5, 10) no longer
/// make a view, borrowed or owned.
#[test]
fn weighted_view_pruning_is_lossless_and_negative_weights_do_not_build() {
    let draw = |seed: u64, lo: f64| -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1 << 32));
        (0..200).map(|_| rng.gen_range(lo..10.0)).collect()
    };
    for seed in 0..300 {
        let table = seeded_table(seed);
        let weights = draw(seed, 0.0);
        let view = TableView::all_with_weights(&table, &weights);
        let brs = Brs::new(&SizeWeight).with_max_weight(3.0);
        let pruned = brs.clone().run(&view, 3);
        let unpruned = brs.with_pruning(false).run(&view, 3);
        assert_eq!(pruned.rules_only(), unpruned.rules_only(), "seed {seed}");
        assert_eq!(float_bits(&pruned), float_bits(&unpruned), "seed {seed}");
        let bad = draw(seed, -5.0);
        let borrowed = std::panic::catch_unwind(|| TableView::all_with_weights(&table, &bad).len());
        assert!(borrowed.is_err(), "seed {seed}: a negative weight built");
        let shared = std::sync::Arc::new(table.clone());
        let owned = std::panic::catch_unwind(|| OwnedTableView::all_with_weights(shared, bad));
        assert!(owned.is_err(), "seed {seed}: a negative weight built");
    }
}

/// No weighted view, borrowed or owned, takes a negative, NaN or infinite
/// weight, wherever in the rows it sits: a weight in a `Sum` is finite and
/// non-negative, or the view does not build.
#[test]
fn a_builder_rejects_negative_nan_or_infinite_measures() {
    let table = Table::from_rows(Schema::new(["A"]).unwrap(), &[["x"], ["y"], ["z"]]).unwrap();
    let shared = std::sync::Arc::new(table.clone());
    for (row, bad) in [
        (1, -1.0),
        (0, f64::NAN),
        (2, f64::INFINITY),
        (1, f64::NEG_INFINITY),
    ] {
        let mut m = vec![1.0, 0.0, 2.5];
        m[row] = bad;
        let borrowed = std::panic::catch_unwind(|| TableView::all_with_weights(&table, &m).len());
        assert!(borrowed.is_err(), "{bad} in row {row} built a view");
        let owned =
            std::panic::catch_unwind(|| OwnedTableView::all_with_weights(shared.clone(), m));
        assert!(owned.is_err(), "{bad} in row {row} built an owned view");
    }
}
