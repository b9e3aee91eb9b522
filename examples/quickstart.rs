//! Quickstart: load a CSV, run one smart drill-down, print the summary.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use smart_drilldown::prelude::*;
use smart_drilldown::table::csv::read_csv;

fn main() {
    // A small sales table. In practice, read from a file.
    let csv = "\
Store,Product,Region
Walmart,cookies,CA-1
Walmart,cookies,CA-1
Walmart,cookies,WA-5
Walmart,soap,CA-1
Walmart,soap,WA-5
Target,bicycles,MA-3
Target,bicycles,MA-3
Target,bicycles,NY-2
Costco,comforters,MA-3
Costco,comforters,MA-3
Costco,comforters,MA-3
Costco,towels,NY-2
";
    let table = std::sync::Arc::new(read_csv(csv).expect("well-formed CSV"));
    println!(
        "Loaded {} rows × {} columns\n",
        table.n_rows(),
        table.n_columns()
    );

    // --- One-shot API: expand the trivial rule into the best 3 rules. ---
    let result = Brs::new(&SizeWeight).run(&table.view(), 3);
    println!("Best 3 rules under Size weighting:");
    for scored in &result.rules {
        println!(
            "  {:<30} Count={:<4} Weight={}",
            scored.rule.display(&table),
            scored.count,
            scored.weight
        );
    }
    println!("  total score = {}\n", result.total_score);

    // --- Interactive API: the paper's click-driven session, exact. ---
    let config = ExplorerConfig {
        k: 3,
        ..ExplorerConfig::exact(table.n_rows())
    };
    let mut session = Explorer::new(table.clone(), Box::new(SizeWeight), config);
    session.expand(&[]).expect("root exists");
    println!("Session after expanding the trivial rule:");
    println!("{}", session.render());

    // Drill into the first displayed rule.
    session.expand(&[0]).expect("first child exists");
    println!("After drilling into the first rule:");
    println!("{}", session.render());

    // Star drill-down: force the Region column open on the first rule.
    let region = table.schema().index_of("Region").expect("column exists");
    if session
        .rule_at(&[0])
        .map(|r| r.rule.is_star(region))
        .unwrap_or(false)
    {
        session.expand_star(&[0], region).expect("star expansion");
        println!("After star-expanding Region on the first rule:");
        println!("{}", session.render());
    }
}
