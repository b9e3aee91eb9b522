//! Experiment: paper Figures 1–3 — qualitative study on Marketing.
//!
//! * Fig. 1: summary after clicking the empty rule (Size weighting, k = 4,
//!   mw = 5). Expected shape: gender × long-residence rules dominate.
//! * Fig. 2: star expansion on the Education column of a displayed rule —
//!   children enumerate education levels within that rule.
//! * Fig. 3: plain expansion of a displayed rule.

use sdd_bench::report::write_csv;
use sdd_bench::{exact_explorer, row};
use sdd_core::SizeWeight;

fn main() {
    let table = sdd_bench::datasets::marketing7();
    let mut session = exact_explorer(&table, Box::new(SizeWeight), 4, Some(5.0));

    session.expand(&[]).expect("root expansion");
    println!("== Figure 1: summary after clicking the empty rule ==");
    println!("{}", session.render());

    // Shape assertions (synthetic data, same correlations the paper shows):
    // single-gender rules and gender × >10-years rules dominate.
    let children = session.children_at(&[]).unwrap();
    assert_eq!(children.len(), 4);
    let years = table.schema().index_of("YearsInBayArea").unwrap();
    assert!(
        children.iter().any(|r| !r.rule.is_star(years)),
        "expected a long-residence rule in the top 4"
    );

    let mut rows = vec![row!["figure", "rule", "count", "weight"]];
    for r in children {
        rows.push(row!["fig1", r.rule.display(&table), r.count, r.weight]);
    }

    // Figure 2: star-expand Education on the first rule that leaves it ?.
    let education = table.schema().index_of("Education").unwrap();
    let idx = session
        .children_at(&[])
        .unwrap()
        .iter()
        .position(|r| r.rule.is_star(education))
        .expect("some displayed rule leaves Education starred");
    session
        .expand_star(&[idx], education)
        .expect("star expansion");
    println!("== Figure 2: star expansion on 'Education' ==");
    println!("{}", session.render());
    for r in session.children_at(&[idx]).unwrap() {
        assert!(!r.rule.is_star(education));
        rows.push(row!["fig2", r.rule.display(&table), r.count, r.weight]);
    }
    session.collapse(&[idx]).unwrap();

    // Figure 3: plain expansion of a displayed rule.
    session.expand(&[0]).expect("rule expansion");
    println!("== Figure 3: expanding a displayed rule ==");
    println!("{}", session.render());
    for r in session.children_at(&[0]).unwrap() {
        rows.push(row!["fig3", r.rule.display(&table), r.count, r.weight]);
    }

    let path = write_csv("fig1_2_3.csv", &rows);
    println!("CSV: {}", path.display());
}
