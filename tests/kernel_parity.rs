//! Parity suite for the columnar counting kernel (see `sdd_core::kernel`):
//! the columnar kernel must be **bit-identical** to the historical
//! row-at-a-time implementation (every sum it reports is one row-order
//! scan of a column or of a candidate's cover; closed forms only steer the
//! prune), and k=1 greedy must match the exhaustive oracle on small
//! instances.

use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{
    count_rules, covered_rows, exact_best_rule_set, filter_to_rule, find_best_marginal_rule,
    find_best_marginal_rule_rowwise, BestMarginal, BitsWeight, Brs, Rule, SearchOptions,
    SearchStats, SizeWeight, WeightFn,
};
use smart_drilldown::datagen::census;
use smart_drilldown::table::{OwnedTableView, Schema, Table, TableView};
use std::sync::OnceLock;

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
    // fresh scratches.
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

    // Two tables of one length, searched in turn — through the shared
    // scratch, through fresh ones, and by a BRS run — each dropped after its
    // search and rebuilt for the next, most likely where the other one
    // lived. Nothing of one may answer for the other: every search equals
    // the row-at-a-time reference, and a BRS run equals the greedy loop
    // over fresh searches.
    let opts = SearchOptions::new(3.0);
    let mut covs = vec![vec![0.0f64; 400]; 2];
    let mut picks: Vec<Vec<Rule>> = vec![Vec::new(); 2];
    let mut stats = [SearchStats::default(); 2];
    for step in 0..3 {
        for (t, cov) in covs.iter_mut().enumerate() {
            let table = equal_length_table(t);
            let view = table.view();
            let label = format!("table {t}, step {step}");
            let reference = find_best_marginal_rule_rowwise(&view, &SizeWeight, cov, &opts);
            let fresh = find_best_marginal_rule(&view, &SizeWeight, cov, &opts);
            assert_bitwise_equal(&format!("{label}: fresh scratch"), &fresh, &reference);
            let reused =
                find_best_marginal_rule_with_scratch(&view, &SizeWeight, cov, &opts, &mut scratch);
            assert_bitwise_equal(&format!("{label}: reused scratch"), &reused, &reference);
            let Some(best) = fresh else { continue };
            for p in covered_rows(&table, &best.rule) {
                let slot = &mut cov[p as usize];
                *slot = slot.max(best.weight);
            }
            stats[t].absorb(&best.stats);
            picks[t].push(best.rule);
        }
    }
    for t in [0, 1, 0, 1] {
        let table = equal_length_table(t);
        let run = Brs::new(&SizeWeight)
            .with_max_weight(3.0)
            .run(&table.view(), 3);
        assert_eq!(run.selection_order, picks[t], "table {t}");
        assert_eq!(run.stats, stats[t], "table {t}");
    }
}

/// One of two 400-row tables, `A` and `B` mostly agreeing, built afresh on
/// every call.
fn equal_length_table(which: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(0x5A7E + which as u64);
    let rows: Vec<[String; 3]> = (0..400)
        .map(|_| {
            let a = rng.gen_range(0..3);
            let b = if rng.gen_range(0..3) == 0 {
                rng.gen_range(0..4)
            } else {
                a
            };
            [
                format!("a{a}"),
                format!("b{b}"),
                format!("c{}", rng.gen_range(0..3)),
            ]
        })
        .collect();
    Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap()
}

/// Every row of a sample weighs the same non-dyadic scale (population over
/// sample size).
const SCALE: f64 = 1_000_000.0 / 5_003.0;

/// Runs up to four greedy steps of BRS by hand over `view`, asserting the
/// search equals the row-at-a-time reference bitwise at each: `cov` is `0`
/// for the first search and then holds the weights of one to three prior
/// winners. Returns the most passes a step took.
fn assert_greedy_steps_match(
    label: &str,
    view: &TableView<'_>,
    weight: &dyn WeightFn,
    opts: &SearchOptions,
) -> usize {
    let mut cov = vec![0.0f64; view.len()];
    let mut passes = 0;
    for step in 0..4 {
        let reference = find_best_marginal_rule_rowwise(view, weight, &cov, opts);
        let got = find_best_marginal_rule(view, weight, &cov, opts);
        assert_bitwise_equal(&format!("{label}, step {step}"), &got, &reference);
        let Some(best) = reference else { break };
        passes = passes.max(best.stats.passes);
        for p in covered_rows(view.table(), &best.rule) {
            let slot = &mut cov[p as usize];
            *slot = slot.max(best.weight);
        }
    }
    passes
}

/// Census-shaped samples as the explorer searches them: `census` projected
/// to its first 7 columns, 5 000 rows, with and without a base. Their
/// searches reach level 4 and beyond, where each sub-rule of a candidate
/// is found by binary search in the level below.
///
/// A Combine-shaped sample, two halves at two scales, is summed in row
/// order throughout, so every bit matches the reference, work counters
/// included. A one-scale sample takes class sums, whose widened bounds may
/// keep candidates the reference prunes (see `sdd_core::kernel`): its
/// winners match bit for bit, and its counters cover the reference's.
#[test]
fn census_sample_searches_match_rowwise_at_every_level() {
    let table = census(20_000, 1990).project_first_columns(7);
    let mut rng = StdRng::seed_from_u64(0xCE45_0507);
    let mut rows: Vec<u32> = (0..table.n_rows() as u32)
        .filter(|_| rng.gen_range(0..3) == 0)
        .collect();
    rows.truncate(5_000);
    assert_eq!(rows.len(), 5_000);
    let sample = table.gather_rows(&rows);
    let combined: Vec<f64> = (0..rows.len())
        .map(|i| {
            if i < rows.len() / 2 {
                SCALE
            } else {
                3.0 * SCALE / 7.0
            }
        })
        .collect();
    let one_scale = vec![SCALE; rows.len()];
    let base = Rule::trivial(7).with_value(0, sample.code(0, 0));
    let weights: [(&str, &dyn WeightFn, f64); 2] =
        [("size", &SizeWeight, 5.0), ("bits", &BitsWeight, 12.0)];
    for (name, weight, mw) in weights {
        let whole = TableView::all_with_weights(&sample, &combined);
        let based = filter_to_rule(&whole, &base);
        let mut opts = SearchOptions::new(mw);
        let deepest = assert_greedy_steps_match(&format!("{name}, no base"), &whole, weight, &opts);
        assert!(
            deepest >= 4,
            "{name}: the root searches stop at level {deepest}"
        );
        opts.base = Some(base.clone());
        let label = format!("{name}, under a base");
        let deepest = assert_greedy_steps_match(&label, &based.as_view(), weight, &opts);
        assert!(
            deepest >= 3,
            "{name}: the based searches stop at level {deepest}"
        );

        let whole = TableView::all_with_weights(&sample, &one_scale);
        let based = filter_to_rule(&whole, &base);
        for (view, base) in [(whole, None), (based.as_view(), Some(base.clone()))] {
            opts.base = base;
            let mut cov = vec![0.0f64; view.len()];
            for step in 0..4 {
                let label = format!("{name}, one scale, base {:?}, step {step}", opts.base);
                let reference = find_best_marginal_rule_rowwise(&view, weight, &cov, &opts);
                let got = find_best_marginal_rule(&view, weight, &cov, &opts);
                let (Some(mut got), Some(reference)) = (got, reference) else {
                    panic!("{label}: no winner");
                };
                let (work, want) = (got.stats, reference.stats);
                assert!(want.passes >= 3, "{label}: stops at level {}", want.passes);
                assert_eq!(work.passes, want.passes, "{label}");
                assert!(
                    work.generated >= want.generated,
                    "{label}: {work:?} {want:?}"
                );
                assert!(work.counted >= want.counted, "{label}: {work:?} {want:?}");
                got.stats = want;
                assert_bitwise_equal(&label, &Some(got), &Some(reference.clone()));
                for p in covered_rows(view.table(), &reference.rule) {
                    let slot = &mut cov[p as usize];
                    *slot = slot.max(reference.weight);
                }
            }
        }
    }
}

/// 72 000 rows over four skewed columns, long enough for row-order sums to
/// round away from any closed form, every row weighing the same non-dyadic
/// scale.
fn constant_weight_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC1A55);
        let rows: Vec<[String; 4]> = (0..72_000)
            .map(|_| {
                let a = rng.gen_range(0..4);
                let b = if rng.gen_range(0..3) == 0 {
                    rng.gen_range(0..9)
                } else {
                    a
                };
                let c = if rng.gen_range(0..2) == 0 {
                    rng.gen_range(0..3)
                } else {
                    a % 3
                };
                [
                    format!("a{a}"),
                    format!("b{b}"),
                    format!("c{c}"),
                    format!("d{}", rng.gen_range(0..6)),
                ]
            })
            .collect();
        Table::from_rows(Schema::new(["A", "B", "C", "D"]).unwrap(), &rows).unwrap()
    })
}

/// The class sums: with every row weighing the same, counts come from
/// running sums and marginals are bounded by class and re-summed in row
/// order only for contenders — which must leave every bit of the answer
/// the reference's, pruned on the whole view and unpruned under a base.
fn assert_class_sums_match_rowwise(weight: &dyn WeightFn, mw: f64) {
    let table = constant_weight_table();
    let weights = vec![SCALE; table.n_rows()];
    let whole = TableView::all_with_weights(table, &weights);
    let mut opts = SearchOptions::new(mw);
    assert_greedy_steps_match("whole view, pruned", &whole, weight, &opts);

    let base = Rule::trivial(4).with_value(3, table.code(0, 3));
    let based = filter_to_rule(&whole, &base);
    opts.pruning = false;
    opts.base = Some(base);
    assert_greedy_steps_match("under a base, unpruned", &based.as_view(), weight, &opts);
}

#[test]
fn class_sums_match_rowwise_with_size_weight() {
    assert_class_sums_match_rowwise(&SizeWeight, 3.0);
}

#[test]
fn class_sums_match_rowwise_with_bits_weight() {
    assert_class_sums_match_rowwise(&BitsWeight, 7.0);
}

/// A near-tie the class sums must not decide. `(xa, ya)` and `(xb, yb)`
/// have the same marginal value in exact arithmetic, `3 001 · SCALE`, over
/// rows covered at weight 0 (adding `2 · SCALE`) and at weight 1 (adding
/// `SCALE`). Their closed forms `n₀·2·SCALE + n₁·SCALE` put `(xa, ya)` one
/// ulp ahead; their row-order sums put `(xb, yb)` ahead. The reference
/// picks `(xb, yb)`, and so must the search.
#[test]
fn a_near_tie_is_decided_in_row_order_not_by_the_closed_form() {
    // (n₀, n₁, weight-0 rows first) for each rule.
    let (a, b) = ((2usize, 2_997usize, true), (1_000usize, 1_001usize, false));
    let covs = |(n0, n1, zeros_first): (usize, usize, bool)| -> Vec<f64> {
        let (zeros, ones) = (vec![0.0; n0], vec![1.0; n1]);
        if zeros_first {
            [zeros, ones].concat()
        } else {
            [ones, zeros].concat()
        }
    };
    let closed_form = |(n0, n1, _): (usize, usize, bool)| {
        let mut sum = 0.0f64;
        sum += n0 as f64 * (SCALE * 2.0);
        sum += n1 as f64 * SCALE;
        sum
    };
    let row_order = |cov: &[f64]| cov.iter().fold(0.0f64, |sum, &c| sum + SCALE * (2.0 - c));
    let (cov_a, cov_b) = (covs(a), covs(b));
    assert!(
        closed_form(a) > closed_form(b),
        "the closed form favours (xa, ya)"
    );
    assert!(
        row_order(&cov_a) < row_order(&cov_b),
        "row order favours (xb, yb)"
    );

    // The two rules' rows, then 64 000 filler rows whose best rule is worth
    // 1 600 · SCALE.
    let mut rows: Vec<[String; 2]> = Vec::new();
    rows.extend(cov_a.iter().map(|_| ["xa".to_owned(), "ya".to_owned()]));
    rows.extend(cov_b.iter().map(|_| ["xb".to_owned(), "yb".to_owned()]));
    let filler = 64_000;
    rows.extend((0..filler).map(|i| [format!("f{}", i % 40), format!("g{}", i % 37)]));
    let table = Table::from_rows(Schema::new(["X", "Y"]).unwrap(), &rows).unwrap();
    let weights = vec![SCALE; table.n_rows()];
    let view = TableView::all_with_weights(&table, &weights);
    let cov = [cov_a, cov_b, vec![0.0; filler]].concat();
    let winner = Rule::from_pairs(&table, &[("X", "xb"), ("Y", "yb")]).unwrap();
    for pruning in [true, false] {
        let mut opts = SearchOptions::new(2.0);
        opts.pruning = pruning;
        let reference = find_best_marginal_rule_rowwise(&view, &SizeWeight, &cov, &opts);
        assert_eq!(reference.as_ref().map(|b| &b.rule), Some(&winner));
        let got = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts);
        assert_bitwise_equal(&format!("near tie, pruning {pruning}"), &got, &reference);
    }
}

/// 6 000 rows, every row weighing `SCALE`, with two many-valued columns —
/// `H` (100 values, a third of the rows `h0`) and `I` (80 values, mostly
/// `H`'s modulo 80) — beside two few-valued ones, `B` following `A` where
/// `H` is `h0`. `H` and `I` have too many values to be held as masks, so a
/// parent built of their blocks, one or both, beside an `A` mask or not, is
/// read from row lists, and extended by class sums or in row order.
fn many_valued_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x4D41);
        let rows: Vec<[String; 4]> = (0..6_000)
            .map(|_| {
                let a = rng.gen_range(0..4);
                let h = if rng.gen_range(0..3) == 0 {
                    0
                } else {
                    rng.gen_range(0..100)
                };
                let i = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..80)
                } else {
                    h % 80
                };
                let b = if h == 0 { a % 3 } else { rng.gen_range(0..3) };
                [
                    format!("a{a}"),
                    format!("h{h}"),
                    format!("i{i}"),
                    format!("b{b}"),
                ]
            })
            .collect();
        Table::from_rows(Schema::new(["A", "H", "I", "B"]).unwrap(), &rows).unwrap()
    })
}

/// Many-valued columns change how blocks are held, never a bit of the
/// answer: size and bits weights, pruned on the whole view, and pruned and
/// not under a base.
#[test]
fn many_valued_columns_match_rowwise() {
    let table = many_valued_table();
    let weights = vec![SCALE; table.n_rows()];
    let whole = TableView::all_with_weights(table, &weights);
    let base = Rule::from_pairs(table, &[("B", "b0")]).unwrap();
    let based = filter_to_rule(&whole, &base);
    // Under the base, `mw` admits every rule of the three free columns.
    for (name, weight, mw, base_mw) in [
        ("size", &SizeWeight as &dyn WeightFn, 3.0, 4.0),
        ("bits", &BitsWeight, 14.0, 17.0),
    ] {
        let mut opts = SearchOptions::new(mw);
        assert_greedy_steps_match(&format!("{name}, whole view"), &whole, weight, &opts);
        opts.max_weight = base_mw;
        opts.base = Some(base.clone());
        let label = format!("{name}, under a base");
        assert_greedy_steps_match(&label, &based.as_view(), weight, &opts);
    }
    // Unpruned, every one of them is counted: one search, as the reference
    // takes seconds.
    let mut opts = SearchOptions::new(4.0);
    opts.pruning = false;
    opts.base = Some(base);
    let view = based.as_view();
    let cov = vec![0.0f64; view.len()];
    let reference = find_best_marginal_rule_rowwise(&view, &SizeWeight, &cov, &opts);
    let got = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts);
    assert_bitwise_equal("unpruned, under a base", &got, &reference);
}

/// A table whose columns are one (`A`, `D`), two (`B`) and four (`C`) bytes
/// wide, and the rows of it the width tests search: the table's first
/// 65 537 rows only fill `C`'s dictionary past what `u16` codes can name.
/// The searched rows follow them in six clusters, each a value of every
/// column: `B` codes on both sides of 255, `C` codes on both sides of
/// 65 535.
fn mixed_widths() -> &'static (Table, Vec<u32>) {
    static TABLE: OnceLock<(Table, Vec<u32>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        const FILL: usize = 65_537;
        let mut rows: Vec<[String; 4]> = (0..FILL)
            .map(|i| {
                [
                    format!("a{}", i % 3),
                    format!("b{}", i % 300),
                    format!("c{i}"),
                    format!("d{}", i % 4),
                ]
            })
            .collect();
        rows.extend((0..1_200).map(|r| {
            let k = r % 6;
            [
                format!("a{}", k % 3),
                format!("b{}", 254 + k),
                format!("c{}", 65_532 + k),
                format!("d{}", k % 4),
            ]
        }));
        let table = Table::from_rows(Schema::new(["A", "B", "C", "D"]).unwrap(), &rows).unwrap();
        let widths: Vec<usize> = (0..4).map(|c| table.column(c).width()).collect();
        assert_eq!(widths, [1, 2, 4, 1], "the test needs every width");
        let tail = (FILL as u32..rows.len() as u32).collect();
        (table, tail)
    })
}

/// The search equals the row-at-a-time reference bitwise whatever width
/// its columns' codes are stored at. Every cluster's rules cover the same
/// rows, so under a size cap the winner is the cluster's rule on the
/// lowest columns: `(A, B)` (one and two bytes) at size 2 on the 1 200-
/// and the 24-row view, `(B, C)` (two and four bytes) at size 2 under the
/// base `A = a0`, and rules with `C` (65 540 values) at sizes 3 and 4.
/// Each runs weighted and unweighted, pruned and not.
#[test]
fn kernel_matches_rowwise_at_every_code_width() {
    let (source, tail) = mixed_widths();
    let mut rng = StdRng::seed_from_u64(0x71D7);
    let mut trial = 0;
    for n_rows in [1_200, 24] {
        let table = source.gather_rows(&tail[..n_rows]);
        let weights: Vec<f64> = (0..n_rows).map(|_| rng.gen_range(0.25..4.0)).collect();
        let cov: Vec<f64> = (0..n_rows)
            .map(|i| {
                if i % 3 == 0 {
                    rng.gen_range(0.0..3.0)
                } else {
                    0.0
                }
            })
            .collect();
        let unweighted = table.view();
        let weighted = TableView::all_with_weights(&table, &weights);
        for (shape, view) in [("unweighted", &unweighted), ("weighted", &weighted)] {
            for base in [
                None,
                Some(Rule::from_pairs(&table, &[("A", "a0")]).unwrap()),
            ] {
                let filtered = base.as_ref().map(|b| filter_to_rule(view, b));
                let view = filtered.as_ref().map_or(*view, |f| f.as_view());
                let cov = &cov[..view.len()];
                for max_rule_size in [Some(2), Some(3), None] {
                    for (wname, weight) in [
                        ("size", &SizeWeight as &dyn WeightFn),
                        ("bits", &BitsWeight),
                    ] {
                        trial += 1;
                        let mut opts = SearchOptions::new(4.0);
                        opts.pruning = trial % 2 == 0;
                        opts.max_rule_size = max_rule_size;
                        opts.base = base.clone();
                        let reference = find_best_marginal_rule_rowwise(&view, weight, cov, &opts);
                        assert!(reference.is_some(), "the scenario must yield a rule");
                        let got = find_best_marginal_rule(&view, weight, cov, &opts);
                        assert_bitwise_equal(
                            &format!(
                                "{n_rows} rows, {shape}, base {base:?}, size {max_rule_size:?}, \
                                 {wname} weight, pruning {}",
                                opts.pruning
                            ),
                            &got,
                            &reference,
                        );
                    }
                }
            }
        }
    }
}

/// `covered_rows` and `count_rules` equal a row-by-row filter on columns of
/// every width, for codes on both sides of each width's boundary and for a
/// code the column's width cannot hold.
#[test]
fn rule_scans_match_rowwise_at_every_code_width() {
    let (source, tail) = mixed_widths();
    let table = source.gather_rows(tail);
    let pairs: [&[(&str, &str)]; 7] = [
        &[("A", "a1")],
        &[("B", "b255")],
        &[("B", "b256")],
        &[("C", "c65535")],
        &[("C", "c65537")],
        &[("A", "a0"), ("B", "b257"), ("C", "c65535")],
        &[("D", "d1"), ("C", "c65537")],
    ];
    let mut rules: Vec<Rule> = pairs
        .iter()
        .map(|p| Rule::from_pairs(&table, p).unwrap())
        .collect();
    // `a` codes are 0..3 in a one-byte column: code 256, whose low byte
    // is `a0`'s code, cannot occur.
    rules.push(Rule::trivial(4).with_value(0, 256));
    let counts = count_rules(&table, &rules);
    for (rule, &count) in rules.iter().zip(&counts) {
        let want: Vec<u32> = (0..table.n_rows() as u32)
            .filter(|&r| rule.covers_row(&table, r))
            .collect();
        assert_eq!(covered_rows(&table, rule), want, "{rule:?}");
        assert_eq!(count, want.len() as f64, "{rule:?}");
    }
    assert!(counts[..7].iter().all(|&c| c > 0.0), "{counts:?}");
    assert_eq!(counts[7], 0.0);
}
