//! The full prototype architecture (paper §4.3): a scripted tour of the
//! [`Explorer`] — sampled expansions with confidence intervals, automatic
//! pre-fetching, exact-count refresh, and incremental (time-budgeted)
//! rule search.
//!
//! ```sh
//! cargo run --release --example interactive_explorer
//! ```
//!
//! For a live session, run the REPL instead: `cargo run -p sdd-cli --release`.

use smart_drilldown::core::Brs;
use smart_drilldown::prelude::*;
use std::time::Duration;

fn main() {
    let table = std::sync::Arc::new(census::census(200_000, 1990).project_first_columns(7));
    println!(
        "census-shaped table: {} rows × {} columns\n",
        table.n_rows(),
        table.n_columns()
    );

    let mut explorer = Explorer::new(
        table.clone(),
        Box::new(SizeWeight),
        ExplorerConfig {
            k: 4,
            max_weight: Some(4.0),
            ..ExplorerConfig::default()
        },
    );

    // First expansion: Create (one scan), estimates with 95% CIs.
    explorer.expand(&[]).expect("root expansion");
    println!("after first expansion (sampled estimates with CIs):");
    println!("{}", explorer.render());

    // Drill into the first rule: served from the prefetched samples.
    explorer.expand(&[0]).expect("child expansion");
    println!("after drilling into the first rule:");
    println!("{}", explorer.render());
    // Run the prefetch the drill-down scheduled, so the counters include it.
    explorer.try_drain_pending_prefetch().expect("prefetch");
    println!(
        "{} of {} expansions served from memory; handler: {:?}\n",
        explorer.stats.served_from_memory,
        explorer.stats.expansions,
        explorer.handler_stats()
    );

    // The paper's background pass: replace estimates with exact counts.
    explorer.try_refresh_exact_counts().expect("refresh");
    println!("after exact-count refresh:");
    println!("{}", explorer.render());

    // Incremental BRS (§6.1): stream rules under a time budget. The clock
    // stays caller-side — core search is deterministic, so the budget is a
    // plain `run_streaming` stop callback.
    println!("incremental search (250 ms budget, up to 12 rules):");
    let budget = Duration::from_millis(250);
    let start = std::time::Instant::now();
    let result =
        Brs::new(&SizeWeight)
            .with_max_weight(4.0)
            .run_streaming(&table.view(), 12, |_, _| start.elapsed() < budget);
    for s in &result.rules {
        println!("  {:<55} Count={:.0}", s.rule.display(&table), s.count);
    }
    println!("  ({} rules found within the budget)", result.rules.len());
}
