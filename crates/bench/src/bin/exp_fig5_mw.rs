//! Experiment: paper Figure 5 — running time to expand the empty rule as a
//! function of the `mw` parameter, four series: {Marketing, Census} ×
//! {Size, Bits}.
//!
//! Protocol mirrors §5.2.1: for each `mw`, expand the empty rule and
//! average over repetitions. Marketing fits in memory so the time reflects
//! the BRS passes; Census goes through the SampleHandler, so its time is
//! dominated by the sample-creation scan (the paper's observation).
//!
//! Expected shape: roughly linear growth in `mw` (paper: "running time
//! seems to be approximately linear in mw"), with Census offset upward by
//! the scan cost.

use sdd_bench::report::{print_table, write_csv};
use sdd_bench::{row, timing};
use sdd_core::{BitsWeight, Brs, Rule, SizeWeight, WeightFn};
use sdd_sampling::{SampleHandler, SampleHandlerConfig};
use sdd_table::Table;

fn main() {
    let reps = sdd_bench::reps();
    let marketing = sdd_bench::datasets::marketing7();
    let census = sdd_bench::datasets::census7(sdd_bench::census_rows());
    println!(
        "Figure 5 protocol: expand empty rule, k=4, {reps} reps; census rows = {}\n",
        census.n_rows()
    );

    let mw_values: Vec<f64> = (1..=20).map(|v| v as f64).collect();
    let mut rows = vec![row!["mw", "series", "mean_ms"]];

    for (series, table, weight, by_sample) in [
        (
            "marketing-size",
            &marketing,
            &SizeWeight as &dyn WeightFn,
            false,
        ),
        (
            "marketing-bits",
            &marketing,
            &BitsWeight as &dyn WeightFn,
            false,
        ),
        ("census-size", &census, &SizeWeight as &dyn WeightFn, true),
        ("census-bits", &census, &BitsWeight as &dyn WeightFn, true),
    ] {
        for &mw in &mw_values {
            let ms = if by_sample {
                expand_via_sampler(table, weight, mw, reps)
            } else {
                expand_direct(table, weight, mw, reps)
            };
            rows.push(row![mw, series, format!("{ms:.1}")]);
        }
    }

    print_table(&rows);
    let path = write_csv("fig5_mw.csv", &rows);
    println!("\nCSV: {}", path.display());

    // Shape check: time at mw=20 ≥ time at mw=2 for the direct series.
    let get = |mw: f64, series: &str| -> f64 {
        rows.iter()
            .skip(1)
            .find(|r| r[0] == format!("{mw}") && r[1] == series)
            .and_then(|r| r[2].parse().ok())
            .expect("row present")
    };
    for series in ["marketing-size", "marketing-bits"] {
        let lo = get(2.0, series);
        let hi = get(20.0, series);
        println!("{series}: mw=2 → {lo:.1} ms, mw=20 → {hi:.1} ms (paper: grows ~linearly)");
    }
}

/// Marketing protocol: the table is small, run BRS directly.
fn expand_direct(table: &Table, weight: &dyn WeightFn, mw: f64, reps: usize) -> f64 {
    let view = table.view();
    timing::time_mean(reps, || {
        let brs = Brs::new(weight).with_max_weight(mw);
        std::hint::black_box(brs.run(&view, 4));
    })
}

/// Census protocol: fresh SampleHandler each rep (forces the Create scan,
/// as on first interaction), then BRS on the sample.
fn expand_via_sampler(
    table: &std::sync::Arc<Table>,
    weight: &dyn WeightFn,
    mw: f64,
    reps: usize,
) -> f64 {
    let trivial = Rule::trivial(table.n_columns());
    let mut seed = 0u64;
    timing::time_mean(reps, || {
        seed += 1;
        let mut handler = SampleHandler::new(
            table.clone(),
            SampleHandlerConfig {
                capacity: 50_000,
                min_sample_size: 5_000,
                seed,
            },
        );
        let sample = handler.try_get_sample(&trivial).expect("in-memory table");
        let brs = Brs::new(weight).with_max_weight(mw);
        std::hint::black_box(brs.run(&sample.view.as_view(), 4));
    })
}
