//! The paper's qualitative study (§5.1, Figures 1–4, 6, 7) on the synthetic
//! Marketing survey: different weighting functions and interface actions.
//!
//! ```sh
//! cargo run --release --example marketing_survey
//! ```

use smart_drilldown::core::{drill_down, ColumnWeight, TraditionalEmulation, WeightFn};
use smart_drilldown::olap::drilldown::drill_down_all_values;
use smart_drilldown::prelude::*;

fn main() {
    let table = marketing::marketing(2016);
    // The paper restricts displays to the first 7 columns to fit the page.
    let narrow = std::sync::Arc::new(table.project_first_columns(7));
    println!(
        "Synthetic Marketing dataset: {} rows, using first {} columns\n",
        narrow.n_rows(),
        narrow.n_columns()
    );

    // Figure 1: expand the empty rule, Size weighting, k = 4.
    let mut session = exact_explorer(&narrow, Box::new(SizeWeight), 5.0); // the paper's mw for Size
    session.expand(&[]).expect("root expansion");
    println!("== Figure 1: summary after clicking the empty rule (Size) ==");
    println!("{}", session.render());

    // Figure 2: star expansion on the Education column of a displayed rule.
    let education = narrow.schema().index_of("Education").expect("column");
    if let Some(idx) = session
        .children_at(&[])
        .expect("root exists")
        .iter()
        .position(|r| r.rule.is_star(education))
    {
        session
            .expand_star(&[idx], education)
            .expect("star expansion");
        println!("== Figure 2: star expansion on 'Education' ==");
        println!("{}", session.render());
        session.collapse(&[idx]).ok();
    }

    // Figure 3: plain expansion of a displayed rule.
    session.expand(&[0]).expect("rule expansion");
    println!("== Figure 3: expanding the first displayed rule ==");
    println!("{}", session.render());

    // Figure 4: a regular drill-down on Age — two ways.
    let age = narrow.schema().index_of("Age").expect("column");
    println!("== Figure 4a: regular drill-down on Age (OLAP baseline) ==");
    let level = drill_down_all_values(&narrow.view(), age);
    for g in &level.groups {
        println!("  {:<8} {}", g.label, g.count);
    }
    println!();

    println!("== Figure 4b: the same via smart drill-down emulation ==");
    let weight = TraditionalEmulation::new(age);
    let k = narrow.cardinality(age);
    let result = drill_down(
        &narrow.view(),
        &weight,
        &smart_drilldown::core::Rule::trivial(narrow.n_columns()),
        k,
    );
    for s in &result.rules {
        println!("  {:<40} Count={}", s.rule.display(&narrow), s.count);
    }
    println!();

    // Figure 6: Bits weighting (mw = 20 in the paper).
    show_weighted(
        &narrow,
        Box::new(BitsWeight),
        20.0,
        "Figure 6: Bits weighting",
    );

    // Figure 7: max(0, Size − 1) weighting.
    show_weighted(
        &narrow,
        Box::new(SizeMinusOne),
        4.0,
        "Figure 7: Size-minus-one weighting",
    );

    // Extension: a custom member of the §6.1 parametric family that loves
    // the Occupation column and ignores Sex.
    let mut w = vec![1.0; narrow.n_columns()];
    w[narrow.schema().index_of("Sex").expect("column")] = 0.0;
    w[narrow.schema().index_of("Occupation").expect("column")] = 3.0;
    show_weighted(
        &narrow,
        Box::new(ColumnWeight::new(w, 1.0)),
        8.0,
        "Custom column-preference weighting (Occupation ×3, Sex ×0)",
    );
}

/// An exact (every count a full-table count) explorer with `k = 4`.
fn exact_explorer(table: &std::sync::Arc<Table>, weight: Box<dyn WeightFn>, mw: f64) -> Explorer {
    let config = ExplorerConfig {
        k: 4,
        max_weight: Some(mw),
        ..ExplorerConfig::exact(table.n_rows())
    };
    Explorer::new(table.clone(), weight, config)
}

fn show_weighted(table: &std::sync::Arc<Table>, weight: Box<dyn WeightFn>, mw: f64, title: &str) {
    let mut session = exact_explorer(table, weight, mw);
    session.expand(&[]).expect("root expansion");
    println!("== {title} ==");
    println!("{}", session.render());
}
