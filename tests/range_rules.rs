//! Integration test for **range rules** on numeric columns (paper §2.1:
//! "for a column with numerical values ... we allow the corresponding
//! rule-value to be a range"; §6.2 handles numerics by bucketization).
//!
//! Strategy: a numeric column is expanded into a nested bucket hierarchy
//! (`Price.L0` coarse, `Price.L1` fine); the optimizer then discovers hot
//! ranges at whichever granularity pays off.

use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{Brs, ColumnWeight, SizeWeight};
use smart_drilldown::table::bucketize::hierarchy;
use smart_drilldown::table::{Schema, Table, TableBuilder};

/// 1500 sales: 1000 background rows with uniform prices, 500 "promo" rows
/// concentrated in the 40–60 price band.
fn sales_table() -> (Table, f64, f64) {
    let mut rng = StdRng::seed_from_u64(77);
    let mut categories: Vec<&str> = Vec::new();
    let mut prices: Vec<f64> = Vec::new();
    for _ in 0..1000 {
        categories.push("regular");
        prices.push(rng.gen_range(0.0..100.0));
    }
    for _ in 0..500 {
        categories.push("promo");
        prices.push(rng.gen_range(40.0..60.0));
    }

    let h = hierarchy(&prices, 4, 2).expect("valid numeric data");
    let schema = Schema::new(["Category", "Price.L0", "Price.L1"]).unwrap();
    let mut b = TableBuilder::new(schema);
    for (i, &cat) in categories.iter().enumerate() {
        b.push_row(&[cat, &h.labels[0][i], &h.labels[1][i]])
            .unwrap();
    }
    (b.build(), 40.0, 60.0)
}

fn parse_range(label: &str) -> (f64, f64) {
    // Labels look like "[40, 60)".
    let inner = label.trim_start_matches('[').trim_end_matches(')');
    let mut parts = inner.split(", ");
    let lo: f64 = parts.next().unwrap().parse().unwrap();
    let hi: f64 = parts.next().unwrap().parse().unwrap();
    (lo, hi)
}

#[test]
fn optimizer_finds_the_hot_price_range() {
    let (table, band_lo, band_hi) = sales_table();
    let result = Brs::new(&SizeWeight)
        .with_max_weight(2.0)
        .run(&table.view(), 4);

    // Some displayed rule must pin a price range overlapping the promo band
    // with a concentrated count.
    let price_cols = [1usize, 2];
    let mut found = false;
    for s in &result.rules {
        for &c in &price_cols {
            if let smart_drilldown::core::RuleValue::Value(code) = s.rule.get(c) {
                let label = table.dictionary(c).value_of(code).unwrap();
                let (lo, hi) = parse_range(label);
                if lo < band_hi && hi > band_lo {
                    found = true;
                }
            }
        }
    }
    assert!(
        found,
        "no displayed rule pinned a price range near the promo band: {:?}",
        result
            .rules
            .iter()
            .map(|s| s.rule.display(&table))
            .collect::<Vec<_>>()
    );
}

#[test]
fn promo_category_pairs_with_its_price_range() {
    let (table, band_lo, band_hi) = sales_table();
    // Drill into the promo category.
    let promo = smart_drilldown::core::Rule::from_pairs(&table, &[("Category", "promo")]).unwrap();
    let result = smart_drilldown::core::drill_down(&table.view(), &SizeWeight, &promo, 3);
    assert!(!result.rules.is_empty());
    // Every child pins a price bucket; the biggest ones must overlap 40–60.
    let top = &result.rules[0];
    let pinned = (1..3)
        .filter_map(|c| match top.rule.get(c) {
            smart_drilldown::core::RuleValue::Value(code) => {
                Some(parse_range(table.dictionary(c).value_of(code).unwrap()))
            }
            _ => None,
        })
        .next()
        .expect("child instantiates a price level");
    assert!(
        pinned.0 < band_hi && pinned.1 > band_lo,
        "top promo range {pinned:?} misses the 40-60 band"
    );
}

#[test]
fn level_weights_steer_granularity() {
    let (table, _, _) = sales_table();
    // Weighting the fine level much higher pushes the optimizer to fine
    // ranges; weighting the coarse level higher pushes it to coarse ones.
    let fine_lover = ColumnWeight::new(vec![0.5, 0.5, 4.0], 1.0);
    let coarse_lover = ColumnWeight::new(vec![0.5, 4.0, 0.5], 1.0);
    let fine = Brs::new(&fine_lover).run(&table.view(), 3);
    let coarse = Brs::new(&coarse_lover).run(&table.view(), 3);

    let uses = |res: &smart_drilldown::core::BrsResult, col: usize| {
        res.rules.iter().filter(|s| !s.rule.is_star(col)).count()
    };
    assert!(
        uses(&fine, 2) >= uses(&coarse, 2),
        "fine-level preference ignored"
    );
    assert!(
        uses(&coarse, 1) >= uses(&fine, 1),
        "coarse-level preference ignored"
    );
}
