//! Ablation A1: how much does Algorithm 2's `mw`/`H` upper-bound pruning
//! buy over plain support-based a-priori?
//!
//! Runs the same expansions with pruning on and off (one of them on the
//! `Sum` path, retail weighted by `Sales`), comparing wall time
//! and the number of candidate rules whose marginal values were counted.
//! The answers must be identical (the prune is exact); only the work should
//! differ.

use sdd_bench::report::{print_table, write_csv};
use sdd_bench::{row, timing};
use sdd_core::{BitsWeight, Brs, SizeWeight, WeightFn};
use sdd_table::TableView;

fn main() {
    let reps = sdd_bench::reps();
    let (retail, sales) = sdd_datagen::retail_with_sales(42);
    let marketing = sdd_bench::datasets::marketing7();

    let mut rows = vec![row![
        "dataset",
        "weight",
        "pruning",
        "mean_ms",
        "counted_candidates",
        "pruned_candidates"
    ]];

    // `sum` holds the `Sum` path's row weights (paper §6.3); `None` counts
    // rows.
    for (dataset, table, sum, weight, mw) in [
        ("retail", &retail, None, &SizeWeight as &dyn WeightFn, 3.0),
        ("retail/Sales", &retail, Some(&sales[..]), &SizeWeight, 3.0),
        ("marketing", &*marketing, None, &SizeWeight, 5.0),
        ("marketing", &*marketing, None, &BitsWeight, 20.0),
    ] {
        let view = match sum {
            Some(weights) => TableView::all_with_weights(table, weights),
            None => table.view(),
        };
        let mut answers = Vec::new();
        for pruning in [true, false] {
            let brs = Brs::new(weight).with_max_weight(mw).with_pruning(pruning);
            let ms = timing::time_mean(reps, || {
                std::hint::black_box(brs.run(&view, 4));
            });
            let result = brs.run(&view, 4);
            rows.push(row![
                dataset,
                weight.name(),
                pruning,
                format!("{ms:.1}"),
                result.stats.counted,
                result.stats.pruned
            ]);
            answers.push(result.rules_only());
        }
        assert_eq!(
            answers[0],
            answers[1],
            "{dataset}/{}: pruning changed the answer!",
            weight.name()
        );
    }

    print_table(&rows);

    // The prune must reduce counted candidates on every workload.
    for pair in rows[1..].chunks(2) {
        let with: usize = pair[0][4].parse().unwrap();
        let without: usize = pair[1][4].parse().unwrap();
        assert!(
            with <= without,
            "pruning counted more candidates ({with} vs {without})?!"
        );
        println!(
            "{}/{}: pruning counted {with} vs {without} candidates ({:.1}× reduction)",
            pair[0][0],
            pair[0][1],
            without as f64 / with.max(1) as f64
        );
    }

    let path = write_csv("ablation_pruning.csv", &rows);
    println!("CSV: {}", path.display());
}
