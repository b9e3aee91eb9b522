//! Smart drill-down on a large table through the sampling layer (paper §4):
//! the SampleHandler answers drill-downs from in-memory samples, only
//! scanning the full table when Find and Combine both fail, and pre-fetches
//! samples for the likely next clicks.
//!
//! ```sh
//! cargo run --release --example census_at_scale [n_rows]
//! ```

use smart_drilldown::core::Rule;
use smart_drilldown::prelude::*;
use smart_drilldown::sampling::PrefetchEntry;
use std::time::Instant;

fn main() {
    let n_rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300_000);

    let t0 = Instant::now();
    let full = census::census(n_rows, 1990);
    // The paper restricts all experiments to the first 7 columns (§5) — on
    // all 68 correlated columns the frequent-rule lattice is astronomically
    // larger and a summary over 68 wildcards is unreadable anyway.
    let table = std::sync::Arc::new(full.project_first_columns(7));
    println!(
        "Generated census-shaped table: {} rows × {} columns (projected to {}) in {:.1?}\n",
        full.n_rows(),
        full.n_columns(),
        table.n_columns(),
        t0.elapsed()
    );

    let mut handler = SampleHandler::new(
        table.clone(),
        SampleHandlerConfig {
            capacity: 50_000,       // the paper's M
            min_sample_size: 5_000, // the paper's minSS
            seed: 7,
        },
    );

    // First drill-down: no samples exist → Create (one full scan).
    let trivial = Rule::trivial(table.n_columns());
    let t1 = Instant::now();
    let sample = handler.try_get_sample(&trivial).expect("in-memory table");
    let brs = Brs::new(&SizeWeight).with_max_weight(4.0);
    let result = brs.run(&sample.view.as_view(), 4);
    println!(
        "First expansion ({:?}, sample of {} tuples) took {:.1?}:",
        sample.mechanism,
        sample.view.len(),
        t1.elapsed()
    );
    for s in &result.rules {
        println!(
            "  {:<60} Count≈{:.0}",
            truncate(&s.rule.display(&table), 58),
            s.count
        );
    }

    // Pre-fetch for the rules the analyst may click next (uniform
    // probabilities; selectivities from the displayed count estimates).
    let total = table.n_rows() as f64;
    let entries: Vec<PrefetchEntry> = result
        .rules
        .iter()
        .map(|s| PrefetchEntry {
            rule: s.rule.clone(),
            probability: 1.0 / result.rules.len() as f64,
            selectivity: (s.count / total).min(1.0),
        })
        .collect();
    let t2 = Instant::now();
    let hit = handler
        .try_prefetch(&trivial, &entries)
        .expect("in-memory table");
    println!(
        "\nPre-fetched {} candidate drill-downs in {:.1?} (expected hit prob {:.2})",
        entries.len(),
        t2.elapsed(),
        hit
    );

    // Second drill-down: served from memory, no disk pass.
    let target = result.rules[0].rule.clone();
    let scans_before = handler.stats.full_scans;
    let t3 = Instant::now();
    let sample2 = handler.try_get_sample(&target).expect("in-memory table");
    // The sample is already filtered to the target's coverage; constrain the
    // optimizer to strict super-rules of the clicked rule (drill-down
    // semantics, §3.1).
    let result2 = smart_drilldown::core::drill_down_with(&brs, &sample2.view.as_view(), &target, 4);
    println!(
        "\nSecond expansion of {} ({:?}, {} tuples, {} new scans) took {:.1?}:",
        truncate(&target.display(&table), 40),
        sample2.mechanism,
        sample2.view.len(),
        handler.stats.full_scans - scans_before,
        t3.elapsed()
    );
    for s in &result2.rules {
        println!(
            "  {:<60} Count≈{:.0}",
            truncate(&s.rule.display(&table), 58),
            s.count
        );
    }

    println!("\nHandler stats: {:?}", handler.stats);
    println!(
        "Memory used: {} / {} tuples",
        handler.memory_used(),
        handler.config().capacity
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n])
    }
}
