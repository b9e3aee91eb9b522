//! Experiment: paper Figure 8 — effect of `minSS` on (a) expansion time,
//! (b) percent error of displayed counts, and (c) number of incorrect
//! rules, four series: {Marketing, Census} × {Size, Bits}.
//!
//! Protocol mirrors §5.2.2: per (W, minSS), expand the empty rule on a
//! fresh sample, compare displayed counts against exact counts over the
//! full table, compare the displayed rule set against the exact top-k;
//! average over repetitions.
//!
//! Expected shapes: time grows ~linearly in `minSS`; percent error decays
//! ~1/√minSS; incorrect rules decay toward 0.

use sdd_bench::report::{print_table, write_csv};
use sdd_bench::{row, timing};
use sdd_core::{rule_count, BitsWeight, Brs, BrsResult, Rule, SizeWeight, WeightFn};
use sdd_sampling::{percent_error, SampleHandler, SampleHandlerConfig};
use sdd_table::Table;

const K: usize = 4;

fn main() {
    let reps = sdd_bench::reps();
    let marketing = sdd_bench::datasets::marketing7();
    let census = sdd_bench::datasets::census7(sdd_bench::census_rows());
    println!(
        "Figure 8 protocol: expand empty rule on a fresh sample, k={K}, {reps} reps; census rows = {}\n",
        census.n_rows()
    );

    let minss_values = [500usize, 1000, 2000, 3000, 5000, 8000];
    let mut rows = vec![row![
        "minSS",
        "series",
        "mean_ms",
        "pct_error",
        "incorrect_rules"
    ]];

    for (series, table, weight, mw) in [
        (
            "marketing-size",
            &marketing,
            &SizeWeight as &dyn WeightFn,
            5.0,
        ),
        (
            "marketing-bits",
            &marketing,
            &BitsWeight as &dyn WeightFn,
            20.0,
        ),
        ("census-size", &census, &SizeWeight as &dyn WeightFn, 5.0),
        ("census-bits", &census, &BitsWeight as &dyn WeightFn, 20.0),
    ] {
        // Exact reference on the full table (computed once per series).
        let exact = Brs::new(weight).with_max_weight(mw).run(&table.view(), K);
        let exact_rules: Vec<Rule> = exact.rules.iter().map(|s| s.rule.clone()).collect();

        for &minss in &minss_values {
            let mut total_err = 0.0;
            let mut total_incorrect = 0usize;
            let mut total_ms = 0.0;
            for rep in 0..reps {
                let (ms, result) = one_expansion(table, weight, mw, minss, rep as u64);
                total_ms += ms;
                let (err, incorrect) = accuracy(table, &result, &exact_rules);
                total_err += err;
                total_incorrect += incorrect;
            }
            rows.push(row![
                minss,
                series,
                format!("{:.1}", total_ms / reps as f64),
                format!("{:.3}", total_err / reps as f64),
                format!("{:.2}", total_incorrect as f64 / reps as f64)
            ]);
        }
    }

    print_table(&rows);
    let path = write_csv("fig8_minss.csv", &rows);
    println!("\nCSV: {}", path.display());
}

fn one_expansion(
    table: &std::sync::Arc<Table>,
    weight: &dyn WeightFn,
    mw: f64,
    minss: usize,
    rep: u64,
) -> (f64, BrsResult) {
    let trivial = Rule::trivial(table.n_columns());
    let (ms, result) = timing::time_once(|| {
        let mut handler = SampleHandler::new(
            table.clone(),
            SampleHandlerConfig {
                capacity: 50_000.max(minss),
                min_sample_size: minss,
                seed: 1000 + rep,
            },
        );
        let sample = handler.try_get_sample(&trivial).expect("in-memory table");
        Brs::new(weight)
            .with_max_weight(mw)
            .run(&sample.view.as_view(), K)
    });
    (ms, result)
}

/// Returns (average percent count error over displayed rules, number of
/// displayed rules not in the exact top-k).
fn accuracy(table: &Table, result: &BrsResult, exact: &[Rule]) -> (f64, usize) {
    let view = table.view();
    let mut err_sum = 0.0;
    let mut incorrect = 0usize;
    for s in &result.rules {
        let actual = rule_count(&view, &s.rule);
        err_sum += percent_error(s.count, actual);
        if !exact.contains(&s.rule) {
            incorrect += 1;
        }
    }
    let n = result.rules.len().max(1) as f64;
    (err_sum / n, incorrect)
}
