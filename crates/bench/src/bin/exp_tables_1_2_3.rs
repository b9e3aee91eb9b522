//! Experiment: paper Tables 1–3 — the department-store walkthrough.
//!
//! Expands the trivial rule (k = 3, Size weighting), then drills into the
//! Walmart rule, printing the paper's exact tables. The planted counts are
//! asserted so a regression is loud.

use sdd_bench::report::{print_table, write_csv};
use sdd_bench::{exact_explorer, row};
use sdd_core::SizeWeight;

fn main() {
    let table = sdd_bench::datasets::retail();
    let mut session = exact_explorer(&table, Box::new(SizeWeight), 3, None);

    println!("== Table 1: initial summary ==");
    println!("{}", session.render());

    session.expand(&[]).expect("root expansion");
    println!("== Table 2: after first smart drill-down ==");
    println!("{}", session.render());

    // Assert the paper's Table 2 shape.
    let displays: Vec<String> = session
        .children_at(&[])
        .unwrap()
        .iter()
        .map(|r| format!("{} count={}", r.rule.display(&table), r.count))
        .collect();
    assert!(
        displays
            .iter()
            .any(|d| d == "(Target, bicycles, ?) count=200"),
        "missing Target×bicycles: {displays:?}"
    );
    assert!(
        displays
            .iter()
            .any(|d| d == "(?, comforters, MA-3) count=600"),
        "missing comforters×MA-3: {displays:?}"
    );
    assert!(
        displays.iter().any(|d| d == "(Walmart, ?, ?) count=1000"),
        "missing Walmart: {displays:?}"
    );

    let walmart = displays
        .iter()
        .position(|d| d.contains("Walmart"))
        .expect("Walmart rule displayed");
    session.expand(&[walmart]).expect("Walmart expansion");
    println!("== Table 3: after drilling into the Walmart rule ==");
    println!("{}", session.render());

    let children: Vec<String> = session
        .children_at(&[walmart])
        .unwrap()
        .iter()
        .map(|r| format!("{} count={}", r.rule.display(&table), r.count))
        .collect();
    assert!(
        children
            .iter()
            .any(|d| d == "(Walmart, cookies, ?) count=200"),
        "{children:?}"
    );
    assert!(
        children.iter().any(|d| d == "(Walmart, ?, CA-1) count=150"),
        "{children:?}"
    );
    assert!(
        children.iter().any(|d| d == "(Walmart, ?, WA-5) count=130"),
        "{children:?}"
    );

    // Summary rows, one per displayed rule.
    let mut rows = vec![row!["table", "rule", "count", "weight"]];
    for (depth, r) in session.visible().iter().skip(1) {
        rows.push(row![
            if *depth == 1 { "T2" } else { "T3" },
            r.rule.display(&table),
            r.count,
            r.weight
        ]);
    }
    print_table(&rows);
    let path = write_csv("tables_1_2_3.csv", &rows);
    println!(
        "\nAll paper rows reproduced exactly. CSV: {}",
        path.display()
    );
}
