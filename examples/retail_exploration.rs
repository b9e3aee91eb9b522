//! The paper's walkthrough (§1, Tables 1–3) on the synthetic retail data:
//! a department-store sales table where the analyst discovers that Target
//! sells a lot of bicycles, comforters sell well in MA-3, and Walmart
//! dominates — then drills into Walmart.
//!
//! ```sh
//! cargo run --example retail_exploration
//! ```

use smart_drilldown::prelude::*;

fn main() {
    let (table, sales) = retail_with_sales(42);
    let table = std::sync::Arc::new(table);
    let config = ExplorerConfig {
        k: 3,
        ..ExplorerConfig::exact(table.n_rows())
    };
    let mut session = Explorer::new(table.clone(), Box::new(SizeWeight), config);

    // Table 1: the initial display — one trivial rule with the total count.
    println!("== Table 1: initial summary ==");
    println!("{}", session.render());

    // Table 2: the analyst clicks the trivial rule.
    session.expand(&[]).expect("root expansion");
    println!("== Table 2: after the first smart drill-down ==");
    println!("{}", session.render());

    // Table 3: the analyst clicks the Walmart rule.
    let walmart_idx = session
        .children_at(&[])
        .expect("root exists")
        .iter()
        .position(|r| r.rule.display(&table).contains("Walmart"))
        .expect("the Walmart rule is planted with count 1000");
    session.expand(&[walmart_idx]).expect("walmart expansion");
    println!("== Table 3: after drilling into the Walmart rule ==");
    println!("{}", session.render());

    // Roll up (collapse) — back to Table 2.
    session.collapse(&[walmart_idx]).expect("collapse");
    println!("== After collapsing Walmart (roll-up) ==");
    println!("{}", session.render());

    // Bonus: the same exploration by total Sales instead of tuple count
    // (the paper's Sum aggregate, §6.3).
    let view = TableView::all_with_weights(&table, &sales);
    let result = Brs::new(&SizeWeight).run(&view, 3);
    println!("== Top rules by total Sales (Sum aggregate) ==");
    for s in &result.rules {
        println!(
            "  {:<32} Sum(Sales)={:<9.0} Weight={}",
            s.rule.display(&table),
            s.count,
            s.weight
        );
    }
}
