//! Experiment: paper Figures 6–7 — alternative weighting functions on the
//! Marketing dataset.
//!
//! * Fig. 6 (Bits): binary columns like Sex stop dominating; rules shift to
//!   higher-cardinality columns (MaritalStatus / Occupation / YearsInBayArea).
//! * Fig. 7 (max(0, Size−1)): no single-column rules can appear; every
//!   displayed rule has ≥ 2 instantiated columns.

use sdd_bench::report::write_csv;
use sdd_bench::{exact_explorer, row};
use sdd_core::{BitsWeight, SizeMinusOne, SizeWeight};

fn main() {
    let table = sdd_bench::datasets::marketing7();
    let sex = table.schema().index_of("Sex").unwrap();
    let mut rows = vec![row!["figure", "rule", "count", "weight"]];

    // Reference: Size weighting (Figure 1) for contrast.
    let mut size_session = exact_explorer(&table, Box::new(SizeWeight), 4, Some(5.0));
    let size_uses_sex = size_session
        .expand(&[])
        .unwrap()
        .iter()
        .filter(|r| !r.rule.is_star(sex))
        .count();

    // Figure 6: Bits weighting, mw = 20 (paper §5).
    let mut session = exact_explorer(&table, Box::new(BitsWeight), 4, Some(20.0));
    let shown = session.expand(&[]).unwrap();
    println!("== Figure 6: Bits weighting ==");
    println!("{}", session.render());
    let bits_uses_sex = shown.iter().filter(|r| !r.rule.is_star(sex)).count();
    for r in &shown {
        rows.push(row!["fig6-bits", r.rule.display(&table), r.count, r.weight]);
    }
    // The paper's observation: Bits weighting moves away from the binary
    // Gender column relative to Size weighting.
    assert!(
        bits_uses_sex <= size_uses_sex,
        "Bits ({bits_uses_sex} Sex rules) should rely on Sex no more than Size ({size_uses_sex})"
    );

    // Figure 7: max(0, Size−1) weighting.
    let mut session = exact_explorer(&table, Box::new(SizeMinusOne), 4, Some(4.0));
    let shown = session.expand(&[]).unwrap();
    println!("== Figure 7: max(0, Size−1) weighting ==");
    println!("{}", session.render());
    for r in &shown {
        assert!(
            r.rule.size() >= 2,
            "size-1 rules have zero weight and must not appear: {:?}",
            r.rule
        );
        rows.push(row![
            "fig7-size-1",
            r.rule.display(&table),
            r.count,
            r.weight
        ]);
    }
    println!("Every Figure-7 rule instantiates ≥ 2 columns ✓");

    let path = write_csv("fig6_7_weights.csv", &rows);
    println!("CSV: {}", path.display());
}
