//! Experiment: §5.2.3 — scaling behaviour: runtime ≈ a·|T| + b·minSS.
//!
//! Sweeps the census table size, measuring (i) the *cold* expansion (one
//! Create scan + BRS on the sample) and (ii) the *warm* expansion (sample
//! already in memory). The paper's claims, reproduced as assertions:
//!
//! * cold time grows linearly in |T| (the a·|T| scan term dominates at
//!   scale),
//! * warm time is roughly independent of |T| (only the b·minSS term).
//!
//! A least-squares fit of cold-time vs |T| is printed as (a, b).

use sdd_bench::report::{print_table, write_csv};
use sdd_bench::{row, timing};
use sdd_core::{Brs, Rule, SizeWeight};
use sdd_sampling::{SampleHandler, SampleHandlerConfig};

fn main() {
    let reps = sdd_bench::reps();
    let max_rows = sdd_bench::census_rows().max(200_000);
    let sizes: Vec<usize> = [
        10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_458_285,
    ]
    .into_iter()
    .filter(|&n| n <= max_rows)
    .collect();
    println!("Scaling protocol: census sizes {sizes:?}, minSS=5000, k=4, {reps} reps\n");

    let mut rows = vec![row!["n_rows", "cold_ms", "warm_ms"]];
    let mut points: Vec<(f64, f64)> = Vec::new();

    for &n in &sizes {
        let table = sdd_bench::datasets::census7(n);
        let trivial = Rule::trivial(table.n_columns());
        let brs = Brs::new(&SizeWeight).with_max_weight(5.0);

        // Cold: fresh handler each rep → Create scan + BRS.
        let mut seed = 0u64;
        let cold = timing::time_mean(reps, || {
            seed += 1;
            let mut h = SampleHandler::new(
                table.clone(),
                SampleHandlerConfig {
                    capacity: 50_000,
                    min_sample_size: 5_000,
                    seed,
                },
            );
            let s = h.try_get_sample(&trivial).expect("in-memory table");
            std::hint::black_box(brs.run(&s.view.as_view(), 4));
        });

        // Warm: reuse one handler; after the first call every expansion is
        // a Find.
        let mut h = SampleHandler::new(table.clone(), SampleHandlerConfig::default());
        let _ = h.try_get_sample(&trivial).expect("in-memory table");
        let warm = timing::time_mean(reps, || {
            let s = h.try_get_sample(&trivial).expect("in-memory table");
            std::hint::black_box(brs.run(&s.view.as_view(), 4));
        });

        rows.push(row![n, format!("{cold:.1}"), format!("{warm:.1}")]);
        points.push((n as f64, cold));
    }

    print_table(&rows);

    // Least-squares fit cold ≈ a·n + c.
    let (a, c) = linear_fit(&points);
    println!("\ncold_ms ≈ {a:.6}·|T| + {c:.1}   (the paper's a·|T| + b·minSS with fixed minSS)");

    // Shape checks.
    if points.len() >= 3 {
        let first = points.first().expect("non-empty").1;
        let last = points.last().expect("non-empty").1;
        assert!(
            last > first,
            "cold expansion should get slower with table size ({first:.1} → {last:.1} ms)"
        );
    }
    let warm_values: Vec<f64> = rows
        .iter()
        .skip(1)
        .map(|r| r[2].parse::<f64>().expect("numeric"))
        .collect();
    let warm_min = warm_values.iter().cloned().fold(f64::INFINITY, f64::min);
    let warm_max = warm_values.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "warm expansion stays within [{warm_min:.1}, {warm_max:.1}] ms across sizes (paper: depends on minSS, not |T|)"
    );

    let path = write_csv("scaling.csv", &rows);
    println!("CSV: {}", path.display());
}

fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let c = (sy - a * sx) / n;
    (a, c)
}
