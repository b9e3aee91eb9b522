//! End-to-end integration test: the paper's §1 walkthrough through the
//! public facade, spanning datagen → table → core → explorer.

use smart_drilldown::core::{score_set, SizeWeight};
use smart_drilldown::prelude::*;
use std::sync::Arc;

/// An explorer that shows exact counts (`ExplorerConfig::exact`).
fn exact(table: &Arc<Table>, weight: Box<dyn WeightFn>, k: usize, mw: Option<f64>) -> Explorer {
    let config = ExplorerConfig {
        k,
        max_weight: mw,
        ..ExplorerConfig::exact(table.n_rows())
    };
    Explorer::new(table.clone(), weight, config)
}

/// `(display, count)` of the children of the rule at `path`.
fn shown(ex: &Explorer, path: &[usize]) -> Vec<(String, f64)> {
    ex.children_at(path)
        .unwrap()
        .iter()
        .map(|r| (r.rule.display(ex.table()), r.count))
        .collect()
}

#[test]
fn tables_1_2_3_reproduce_through_the_facade() {
    let table = Arc::new(retail(42));

    // Table 1: trivial rule with the total count.
    let mut ex = exact(&table, Box::new(SizeWeight), 3, None);
    assert_eq!(ex.rule_at(&[]).unwrap().count, 6000.0);
    assert!(ex.rule_at(&[]).unwrap().rule.is_trivial());

    // Table 2.
    ex.expand(&[]).unwrap();
    let shown2 = shown(&ex, &[]);
    for want in [
        ("(Target, bicycles, ?)", 200.0),
        ("(?, comforters, MA-3)", 600.0),
        ("(Walmart, ?, ?)", 1000.0),
    ] {
        assert!(shown2.contains(&(want.0.to_owned(), want.1)), "{shown2:?}");
    }
    assert!(ex.visible().iter().all(|(_, r)| r.exact));

    // Display order is descending weight (Lemma 1's convention).
    let weights: Vec<f64> = ex
        .children_at(&[])
        .unwrap()
        .iter()
        .map(|r| r.weight)
        .collect();
    assert!(weights.windows(2).all(|w| w[0] >= w[1]));

    // Table 3.
    let walmart = shown2
        .iter()
        .position(|(d, _)| d == "(Walmart, ?, ?)")
        .unwrap();
    ex.expand(&[walmart]).unwrap();
    let shown3 = shown(&ex, &[walmart]);
    for want in [
        ("(Walmart, cookies, ?)", 200.0),
        ("(Walmart, ?, CA-1)", 150.0),
        ("(Walmart, ?, WA-5)", 130.0),
    ] {
        assert!(shown3.contains(&(want.0.to_owned(), want.1)), "{shown3:?}");
    }

    // Collapse = roll-up.
    ex.collapse(&[walmart]).unwrap();
    assert!(ex.children_at(&[walmart]).unwrap().is_empty());
}

#[test]
fn one_shot_api_agrees_with_session() {
    let table = Arc::new(retail(42));
    let result = Brs::new(&SizeWeight).run(&table.view(), 3);

    let mut ex = exact(&table, Box::new(SizeWeight), 3, None);
    ex.expand(&[]).unwrap();
    let session_rules: Vec<_> = ex
        .children_at(&[])
        .unwrap()
        .iter()
        .map(|r| r.rule.clone())
        .collect();
    assert_eq!(result.rules_only(), session_rules);
}

/// Appends `# title` and then every visible row as `depth rule count
/// weight`, floats in `{:?}` so a pinned line catches any drift.
fn snap(out: &mut Vec<String>, title: &str, ex: &Explorer) {
    out.push(format!("# {title}"));
    for (depth, r) in ex.visible() {
        out.push(format!(
            "{depth} {} {:?} {:?}",
            r.rule.display(ex.table()),
            r.count,
            r.weight
        ));
    }
}

#[test]
fn exact_trees_match_the_pinned_paper_tables() {
    let mut got = Vec::new();

    let table = Arc::new(retail(42));
    let mut ex = exact(&table, Box::new(SizeWeight), 3, None);
    snap(&mut got, "Table 1", &ex);
    ex.expand(&[]).unwrap();
    snap(&mut got, "Table 2", &ex);
    let walmart = shown(&ex, &[])
        .iter()
        .position(|(d, _)| d == "(Walmart, ?, ?)")
        .unwrap();
    ex.expand(&[walmart]).unwrap();
    snap(&mut got, "Table 3", &ex);
    for i in 0..ex.children_at(&[]).unwrap().len() {
        ex.expand(&[i]).unwrap();
    }
    snap(&mut got, "every root child expanded", &ex);
    ex.expand(&[walmart, 0]).unwrap();
    snap(&mut got, "depth-2 expand", &ex);
    ex.collapse(&[0]).unwrap();
    snap(&mut got, "collapse", &ex);

    let table = Arc::new(marketing(2016).project_first_columns(7));
    let mut ex = exact(&table, Box::new(SizeWeight), 4, Some(5.0));
    ex.expand(&[]).unwrap();
    snap(&mut got, "Fig. 1", &ex);
    let education = table.schema().index_of("Education").unwrap();
    let idx = ex
        .children_at(&[])
        .unwrap()
        .iter()
        .position(|r| r.rule.is_star(education))
        .unwrap();
    ex.expand_star(&[idx], education).unwrap();
    snap(&mut got, "Fig. 2", &ex);
    ex.collapse(&[idx]).unwrap();
    ex.expand(&[0]).unwrap();
    snap(&mut got, "Fig. 3", &ex);
    for (title, weight, mw) in [
        ("Bits", Box::new(BitsWeight) as Box<dyn WeightFn>, 20.0),
        ("Size-1", Box::new(SizeMinusOne), 4.0),
    ] {
        let mut ex = exact(&table, weight, 4, Some(mw));
        ex.expand(&[]).unwrap();
        ex.expand(&[0]).unwrap();
        snap(&mut got, title, &ex);
    }

    assert_eq!(got, PINNED_TREES);
}

/// What the scripts above display, one visible row a line: any change here
/// is a change in what the analyst sees.
const PINNED_TREES: &[&str] = &[
    "# Table 1",
    "0 (?, ?, ?) 6000.0 0.0",
    "# Table 2",
    "0 (?, ?, ?) 6000.0 0.0",
    "1 (Target, bicycles, ?) 200.0 2.0",
    "1 (?, comforters, MA-3) 600.0 2.0",
    "1 (Walmart, ?, ?) 1000.0 1.0",
    "# Table 3",
    "0 (?, ?, ?) 6000.0 0.0",
    "1 (Target, bicycles, ?) 200.0 2.0",
    "1 (?, comforters, MA-3) 600.0 2.0",
    "1 (Walmart, ?, ?) 1000.0 1.0",
    "2 (Walmart, cookies, ?) 200.0 2.0",
    "2 (Walmart, ?, WA-5) 130.0 2.0",
    "2 (Walmart, ?, CA-1) 150.0 2.0",
    "# every root child expanded",
    "0 (?, ?, ?) 6000.0 0.0",
    "1 (Target, bicycles, ?) 200.0 2.0",
    "2 (Target, bicycles, Region-14) 15.0 3.0",
    "2 (Target, bicycles, Region-08) 14.0 3.0",
    "2 (Target, bicycles, Region-03) 12.0 3.0",
    "1 (?, comforters, MA-3) 600.0 2.0",
    "2 (Store-03, comforters, MA-3) 26.0 3.0",
    "2 (Store-01, comforters, MA-3) 32.0 3.0",
    "2 (Store-00, comforters, MA-3) 27.0 3.0",
    "1 (Walmart, ?, ?) 1000.0 1.0",
    "2 (Walmart, cookies, ?) 200.0 2.0",
    "2 (Walmart, ?, WA-5) 130.0 2.0",
    "2 (Walmart, ?, CA-1) 150.0 2.0",
    "# depth-2 expand",
    "0 (?, ?, ?) 6000.0 0.0",
    "1 (Target, bicycles, ?) 200.0 2.0",
    "2 (Target, bicycles, Region-14) 15.0 3.0",
    "2 (Target, bicycles, Region-08) 14.0 3.0",
    "2 (Target, bicycles, Region-03) 12.0 3.0",
    "1 (?, comforters, MA-3) 600.0 2.0",
    "2 (Store-03, comforters, MA-3) 26.0 3.0",
    "2 (Store-01, comforters, MA-3) 32.0 3.0",
    "2 (Store-00, comforters, MA-3) 27.0 3.0",
    "1 (Walmart, ?, ?) 1000.0 1.0",
    "2 (Walmart, cookies, ?) 200.0 2.0",
    "3 (Walmart, cookies, Region-00) 16.0 3.0",
    "3 (Walmart, cookies, Region-01) 12.0 3.0",
    "3 (Walmart, cookies, Region-06) 13.0 3.0",
    "2 (Walmart, ?, WA-5) 130.0 2.0",
    "2 (Walmart, ?, CA-1) 150.0 2.0",
    "# collapse",
    "0 (?, ?, ?) 6000.0 0.0",
    "1 (Target, bicycles, ?) 200.0 2.0",
    "1 (?, comforters, MA-3) 600.0 2.0",
    "2 (Store-03, comforters, MA-3) 26.0 3.0",
    "2 (Store-01, comforters, MA-3) 32.0 3.0",
    "2 (Store-00, comforters, MA-3) 27.0 3.0",
    "1 (Walmart, ?, ?) 1000.0 1.0",
    "2 (Walmart, cookies, ?) 200.0 2.0",
    "3 (Walmart, cookies, Region-00) 16.0 3.0",
    "3 (Walmart, cookies, Region-01) 12.0 3.0",
    "3 (Walmart, cookies, Region-06) 13.0 3.0",
    "2 (Walmart, ?, WA-5) 130.0 2.0",
    "2 (Walmart, ?, CA-1) 150.0 2.0",
    "# Fig. 1",
    "0 (?, ?, ?, ?, ?, ?, ?) 9409.0 0.0",
    "1 (?, Female, ?, ?, ?, ?, >10years) 2858.0 2.0",
    "1 (?, Male, ?, ?, ?, ?, >10years) 2724.0 2.0",
    "1 (?, Female, ?, ?, ?, ?, ?) 4836.0 1.0",
    "1 (?, Male, ?, ?, ?, ?, ?) 4573.0 1.0",
    "# Fig. 2",
    "0 (?, ?, ?, ?, ?, ?, ?) 9409.0 0.0",
    "1 (?, Female, ?, ?, ?, ?, >10years) 2858.0 2.0",
    "2 (?, Female, ?, ?, HSGraduate, ?, >10years) 700.0 3.0",
    "2 (?, Female, ?, ?, College1-3, ?, >10years) 814.0 3.0",
    "2 (?, Female, ?, ?, CollegeGrad, ?, >10years) 667.0 3.0",
    "2 (?, Female, ?, ?, GradStudy, ?, >10years) 313.0 3.0",
    "1 (?, Male, ?, ?, ?, ?, >10years) 2724.0 2.0",
    "1 (?, Female, ?, ?, ?, ?, ?) 4836.0 1.0",
    "1 (?, Male, ?, ?, ?, ?, ?) 4573.0 1.0",
    "# Fig. 3",
    "0 (?, ?, ?, ?, ?, ?, ?) 9409.0 0.0",
    "1 (?, Female, ?, ?, ?, ?, >10years) 2858.0 2.0",
    "2 (?, Female, Married, ?, ?, ?, >10years) 1324.0 3.0",
    "2 (?, Female, NeverMarried, ?, ?, ?, >10years) 1017.0 3.0",
    "2 (?, Female, Cohabiting, ?, ?, ?, >10years) 195.0 3.0",
    "2 (?, Female, Divorced, ?, ?, ?, >10years) 209.0 3.0",
    "1 (?, Male, ?, ?, ?, ?, >10years) 2724.0 2.0",
    "1 (?, Female, ?, ?, ?, ?, ?) 4836.0 1.0",
    "1 (?, Male, ?, ?, ?, ?, ?) 4573.0 1.0",
    "# Bits",
    "0 (?, ?, ?, ?, ?, ?, ?) 9409.0 0.0",
    "1 (?, ?, Married, ?, ?, ?, >10years) 2524.0 6.0",
    "2 (?, ?, Married, ?, ?, Professional, >10years) 766.0 10.0",
    "2 (?, ?, Married, ?, ?, Clerical, >10years) 411.0 10.0",
    "2 (?, Female, Married, ?, ?, ?, >10years) 1324.0 7.0",
    "2 (?, Male, Married, ?, ?, ?, >10years) 1200.0 7.0",
    "1 (?, ?, NeverMarried, ?, ?, ?, >10years) 2046.0 6.0",
    "1 (?, ?, Married, ?, ?, ?, ?) 4312.0 3.0",
    "1 (?, ?, ?, ?, ?, ?, >10years) 5582.0 3.0",
    "# Size-1",
    "0 (?, ?, ?, ?, ?, ?, ?) 9409.0 0.0",
    "1 (?, Female, Married, ?, ?, ?, >10years) 1324.0 2.0",
    "2 (?, Female, Married, 35-44, ?, ?, >10years) 343.0 3.0",
    "2 (?, Female, Married, 45-54, ?, ?, >10years) 183.0 3.0",
    "2 (?, Female, Married, 25-34, ?, ?, >10years) 405.0 3.0",
    "2 (?, Female, Married, ?, College1-3, ?, >10years) 361.0 3.0",
    "1 (?, Male, Married, ?, ?, ?, >10years) 1200.0 2.0",
    "1 (?, Female, ?, ?, ?, ?, >10years) 2858.0 1.0",
    "1 (?, Male, ?, ?, ?, ?, >10years) 2724.0 1.0",
];

#[test]
fn displayed_score_matches_recomputation() {
    let table = Arc::new(retail(42));
    let view = table.view();
    let result = Brs::new(&SizeWeight).run(&view, 3);
    let recomputed = score_set(&view, &SizeWeight, &result.rules_only());
    assert!((result.total_score - recomputed.total).abs() < 1e-9);
    assert_eq!(result.total_score, 2.0 * 200.0 + 2.0 * 600.0 + 1.0 * 1000.0);
}

#[test]
fn sum_aggregate_walkthrough() {
    let (table, sales) = retail_with_sales(42);
    let table = Arc::new(table);
    let view = TableView::all_with_weights(&table, &sales);
    let result = Brs::new(&SizeWeight).run(&view, 3);
    // Same rule shapes win under Sum (sales are uniform-ish per tuple).
    let shown: Vec<String> = result
        .rules
        .iter()
        .map(|s| s.rule.display(&table))
        .collect();
    assert!(shown.contains(&"(Walmart, ?, ?)".to_owned()), "{shown:?}");
    // Sums exceed counts (each tuple carries ≥ 40 in sales).
    for s in &result.rules {
        assert!(s.count >= 40.0 * 100.0);
    }
    // The Sum is pinned bit for bit: each rule's summed Sales, and a fold
    // of the Sales column's bits (the weights every sum is taken over).
    // The sums are 45 852, 132 871 and 226 490.
    let sums: Vec<u64> = result.rules.iter().map(|s| s.count.to_bits()).collect();
    assert_eq!(
        shown,
        [
            "(Target, bicycles, ?)",
            "(?, comforters, MA-3)",
            "(Walmart, ?, ?)"
        ]
    );
    assert_eq!(
        sums,
        [
            0x40e6_6380_0000_0000,
            0x4100_3838_0000_0000,
            0x410b_a5d0_0000_0000
        ]
    );
    let fold = sales
        .iter()
        .fold(0u64, |h, v| h.rotate_left(5) ^ v.to_bits());
    assert_eq!(fold, 0xb0db_5bee_22c0_b535);
}

#[test]
fn star_drill_down_on_walkthrough() {
    let table = Arc::new(retail(42));
    let walmart = smart_drilldown::core::Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
    let region = table.schema().index_of("Region").unwrap();
    let res = star_drill_down(&table.view(), &SizeWeight, &walmart, region, 3);
    // CA-1 (150) and WA-5 (130) are Walmart's biggest planted regions.
    let shown: Vec<String> = res.rules.iter().map(|s| s.rule.display(&table)).collect();
    assert!(shown.iter().any(|s| s.contains("CA-1")), "{shown:?}");
    assert!(shown.iter().any(|s| s.contains("WA-5")), "{shown:?}");
    for s in &res.rules {
        assert!(!s.rule.is_star(region));
    }
}
