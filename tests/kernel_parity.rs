//! Parity suite for the columnar counting kernel (see `sdd_core::kernel`):
//! the columnar kernel must be **bit-identical** to the historical
//! row-at-a-time implementation (one row-order scan per column or group —
//! no float-merge reordering), and k=1 greedy must match the exhaustive
//! oracle on small instances.

use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{
    exact_best_rule_set, filter_to_rule, find_best_marginal_rule, find_best_marginal_rule_rowwise,
    BestMarginal, BitsWeight, Rule, SearchOptions, SizeWeight, WeightFn,
};
use smart_drilldown::table::{OwnedTableView, Schema, Table, TableView};

/// A random categorical table: `n_cols` ≤ 4 columns with cardinality ≤ 5.
fn random_table(rng: &mut StdRng) -> Table {
    let n_cols = rng.gen_range(2..5);
    let n_rows = rng.gen_range(5..80);
    let cards: Vec<u32> = (0..n_cols).map(|_| rng.gen_range(2..6)).collect();
    let names: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
    let rows: Vec<Vec<String>> = (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|c| format!("v{}", rng.gen_range(0..cards[c])))
                .collect()
        })
        .collect();
    Table::from_rows(Schema::new(names).unwrap(), &rows).unwrap()
}

fn assert_bitwise_equal(label: &str, a: &Option<BestMarginal>, b: &Option<BestMarginal>) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.rule, b.rule, "{label}: rules differ");
            assert_eq!(
                a.marginal_value.to_bits(),
                b.marginal_value.to_bits(),
                "{label}: marginal {} vs {}",
                a.marginal_value,
                b.marginal_value
            );
            assert_eq!(
                a.count.to_bits(),
                b.count.to_bits(),
                "{label}: counts differ"
            );
            assert_eq!(
                a.weight.to_bits(),
                b.weight.to_bits(),
                "{label}: weights differ"
            );
            assert_eq!(a.stats, b.stats, "{label}: work counters differ");
        }
        (a, b) => panic!("{label}: one path found a rule, the other did not: {a:?} vs {b:?}"),
    }
}

/// One randomized scenario: a table, a covered-weight vector, a weight
/// function, an `mw`, optionally a weighted subset view and a base rule.
fn run_scenario(rng: &mut StdRng, trial: usize) {
    let table = random_table(rng);

    // Optionally a weighted subset (a sample: the rows gathered into their
    // own table), else the full view.
    let use_subset = rng.gen_range(0..3) == 0;
    let (gathered, weights);
    let view: TableView<'_> = if use_subset {
        let rows: Vec<u32> = (0..table.n_rows() as u32)
            .filter(|_| rng.gen_range(0..4) != 0)
            .collect();
        if rows.is_empty() {
            return;
        }
        weights = rows
            .iter()
            .map(|_| rng.gen_range(0.25..4.0))
            .collect::<Vec<f64>>();
        gathered = table.gather_rows(&rows);
        TableView::all_with_weights(&gathered, &weights)
    } else {
        table.view()
    };

    let weight: &dyn WeightFn = if rng.gen_range(0..2) == 0 {
        &SizeWeight
    } else {
        &BitsWeight
    };
    let cov: Vec<f64> = (0..view.len()).map(|_| rng.gen_range(0.0..3.0)).collect();
    let mw = rng.gen_range(1.0..8.0);

    let mut opts = SearchOptions::new(mw);
    opts.pruning = rng.gen_range(0..4) != 0;

    // Occasionally search under a drill-down base (view filtered first, per
    // the SearchOptions contract).
    let filtered;
    let (based_view, opts) = if rng.gen_range(0..4) == 0 && table.n_rows() > 0 {
        let col = rng.gen_range(0..table.n_columns());
        let row = rng.gen_range(0..table.n_rows()) as u32;
        let base = Rule::trivial(table.n_columns()).with_value(col, table.code(row, col));
        filtered = filter_to_rule(&view, &base);
        let mut o = opts.clone();
        o.base = Some(base);
        (filtered.as_view(), o)
    } else {
        (view, opts)
    };
    let view_ref = &based_view;
    let cov: Vec<f64> = (0..view_ref.len())
        .map(|i| cov[i % cov.len().max(1)])
        .collect();

    let rowwise = find_best_marginal_rule_rowwise(view_ref, weight, &cov, &opts);
    let columnar = find_best_marginal_rule(view_ref, weight, &cov, &opts);
    assert_bitwise_equal(
        &format!("trial {trial}: columnar vs rowwise"),
        &columnar,
        &rowwise,
    );
}

/// Small random views; large ones are pinned by
/// `default_search_matches_rowwise_on_large_weighted_views` below.
#[test]
fn kernel_matches_rowwise_bitwise_on_randomized_instances() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2016);
    for trial in 0..150 {
        run_scenario(&mut rng, trial);
    }
}

/// The search equals the row-at-a-time reference bitwise on a weighted
/// (sample-shaped) view of 128 Ki rows over three free columns — long
/// enough that any re-association of the float sums (a row-sliced
/// accumulator, say) would show. Every accumulator is one scan in row
/// order, whether the view borrows its table and weights or is the owned
/// form a materialised sample is served in, with pruning on or off, and
/// under a drill-down base (a gathered subset).
#[test]
fn default_search_matches_rowwise_on_large_weighted_views() {
    let mut rng = StdRng::seed_from_u64(0x7AEAD);
    let n = 128 * 1024;
    let rows: Vec<[String; 3]> = (0..n)
        .map(|_| {
            [
                format!("a{}", rng.gen_range(0..7)),
                format!("b{}", rng.gen_range(0..11)),
                format!("c{}", rng.gen_range(0..5)),
            ]
        })
        .collect();
    let table = std::sync::Arc::new(
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap(),
    );
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.25..4.0)).collect();
    let cov: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..3.0)).collect();
    let borrowed = TableView::all_with_weights(&table, &weights);
    let owned = OwnedTableView::all_with_weights(table.clone(), weights.clone());
    let opts = SearchOptions::new(3.0);
    let mut unpruned = opts.clone();
    unpruned.pruning = false;
    let base = Rule::trivial(3).with_value(2, table.code(0, 2));
    let based = filter_to_rule(&borrowed, &base);
    let mut under_base = opts.clone();
    under_base.base = Some(base);

    let cases: [(&str, &TableView<'_>, &dyn WeightFn, &SearchOptions); 4] = [
        ("borrowed", &borrowed, &SizeWeight, &opts),
        ("owned", &owned.as_view(), &SizeWeight, &opts),
        ("unpruned, bits weight", &borrowed, &BitsWeight, &unpruned),
        ("under a base", &based.as_view(), &SizeWeight, &under_base),
    ];
    for (shape, view, weight, opts) in cases {
        let cov = &cov[..view.len()];
        let reference = find_best_marginal_rule_rowwise(view, weight, cov, opts);
        assert!(
            reference.is_some(),
            "{shape}: the scenario must yield a rule"
        );
        let got = find_best_marginal_rule(view, weight, cov, opts);
        assert_bitwise_equal(
            &format!("{shape} view vs rowwise reference"),
            &got,
            &reference,
        );
    }
}

#[test]
fn kernel_first_pick_matches_exact_oracle_on_small_instances() {
    let mut rng = StdRng::seed_from_u64(0xE84C7);
    for trial in 0..40 {
        let table = {
            let n_rows = rng.gen_range(4..16);
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
        };
        let view = table.view();
        let cov = vec![0.0; view.len()];
        let mw = 3.0;

        // With no prior coverage, the best marginal rule's value is
        // Score({r}), so it must equal the exhaustive best 1-rule set.
        let best = find_best_marginal_rule(&view, &SizeWeight, &cov, &SearchOptions::new(mw))
            .expect("non-empty table has a positive-marginal rule");
        let (_, exact_score) = exact_best_rule_set(&view, &SizeWeight, 1, 3);
        assert!(
            (best.marginal_value - exact_score).abs() < 1e-9,
            "trial {trial}: kernel {} vs exact {}",
            best.marginal_value,
            exact_score
        );
    }
}

#[test]
fn scratch_reuse_across_searches_is_stateless() {
    // Re-running searches through one scratch must give the same answers as
    // fresh scratches (Brs reuses one scratch across its k iterations).
    use smart_drilldown::core::{find_best_marginal_rule_with_scratch, SearchScratch};
    let mut rng = StdRng::seed_from_u64(42);
    let mut scratch = SearchScratch::new();
    for trial in 0..25 {
        let table = random_table(&mut rng);
        let view = table.view();
        let cov: Vec<f64> = (0..view.len()).map(|_| rng.gen_range(0.0..2.0)).collect();
        let opts = SearchOptions::new(rng.gen_range(1.0..6.0));
        let reused =
            find_best_marginal_rule_with_scratch(&view, &SizeWeight, &cov, &opts, &mut scratch);
        let fresh = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts);
        assert_bitwise_equal(
            &format!("trial {trial}: reused vs fresh scratch"),
            &reused,
            &fresh,
        );
    }
}
