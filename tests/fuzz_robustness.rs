//! Failure-injection and fuzz tests: hostile inputs must produce `Err`s,
//! never panics, and long random interaction sequences must preserve the
//! system's invariants.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{Rule, SizeWeight};
use smart_drilldown::prelude::*;
use smart_drilldown::sampling::PrefetchEntry;
use smart_drilldown::table::bucketize::{equal_depth, equal_width, hierarchy};
use smart_drilldown::table::csv::read_csv;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes-as-text never panic the CSV parser.
    #[test]
    fn csv_parser_never_panics(input in ".{0,200}") {
        let _ = read_csv(&input); // Ok or Err — both fine, no panic.
    }

    /// CSV with quote/comma/newline soup never panics.
    #[test]
    fn csv_parser_survives_quote_soup(parts in proptest::collection::vec("[\",\\n\\r a-z]{0,12}", 0..20)) {
        let input = parts.join("");
        let _ = read_csv(&input);
    }

    /// Bucketizers reject or handle any finite input without panicking.
    #[test]
    fn bucketizers_never_panic(values in proptest::collection::vec(-1e12f64..1e12, 0..50), n in 0usize..12) {
        let _ = equal_width(&values, n);
        let _ = equal_depth(&values, n);
        if n > 0 && !values.is_empty() {
            let h = hierarchy(&values, n.max(2), 2).unwrap();
            prop_assert_eq!(h.assignments[0].len(), values.len());
        }
    }

    /// Session navigation with random (often invalid) paths returns errors,
    /// never panics, and keeps the tree consistent.
    #[test]
    fn session_random_navigation(ops in proptest::collection::vec((0u8..4, proptest::collection::vec(0usize..5, 0..3)), 1..25)) {
        let table = Table::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[
                &["a", "x"], &["a", "x"], &["a", "y"], &["b", "y"],
                &["b", "z"], &["c", "x"], &["c", "x"], &["a", "z"],
            ],
        ).unwrap();
        let table = std::sync::Arc::new(table);
        let mut session = Session::new(table.clone(), Box::new(SizeWeight), 2);
        for (op, path) in &ops {
            match op {
                0 => { let _ = session.expand(path); }
                1 => { let _ = session.expand_star(path, path.first().copied().unwrap_or(0) % 2); }
                2 => { let _ = session.collapse(path); }
                _ => { let _ = session.render(); }
            }
            // Invariants: every visible child is a strict super-rule of its
            // parent; counts do not exceed the table size.
            let visible = session.visible();
            for (_, node) in &visible {
                prop_assert!(node.count <= table.n_rows() as f64 + 1e-9);
            }
        }
    }
}

/// A long randomized interaction against the SampleHandler keeps memory
/// within the cap and every estimate within a loose factor of the truth.
#[test]
fn handler_stateful_random_ops() {
    let table = std::sync::Arc::new(retail(42));
    let view = table.view();
    let rules = [
        Rule::trivial(3),
        Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap(),
        Rule::from_pairs(&table, &[("Region", "MA-3")]).unwrap(),
        Rule::from_pairs(&table, &[("Product", "comforters")]).unwrap(),
        Rule::from_pairs(&table, &[("Store", "Target"), ("Product", "bicycles")]).unwrap(),
        Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(4242);
    let mut handler = SampleHandler::new(
        table.clone(),
        SampleHandlerConfig {
            capacity: 3_000,
            min_sample_size: 600,
            seed: 9,
            strategy: AllocationStrategy::Dp,
        },
    );

    for step in 0..120 {
        match rng.gen_range(0..10) {
            0 => handler.clear(),
            1 => {
                let parent = rules[rng.gen_range(0..2)].clone();
                let entries: Vec<PrefetchEntry> = (0..2)
                    .map(|_| {
                        let r = rules[rng.gen_range(0..rules.len())].clone();
                        PrefetchEntry {
                            rule: r,
                            probability: 0.5,
                            selectivity: rng.gen_range(0.05..1.0),
                        }
                    })
                    .filter(|e| parent.is_sub_rule_of(&e.rule))
                    .collect();
                let _ = handler.try_prefetch(&parent, &entries).unwrap();
            }
            _ => {
                let rule = &rules[rng.gen_range(0..rules.len())];
                let sample = handler.try_get_sample(rule).unwrap();
                let est = sample.view.total_weight();
                let truth = smart_drilldown::core::rule_count(&view, rule);
                assert!(
                    (est - truth).abs() / truth.max(1.0) < 0.6,
                    "step {step}: estimate {est} too far from {truth} for {}",
                    rule.display(&table)
                );
            }
        }
        assert!(
            handler.memory_used() <= 3_000,
            "step {step}: memory {} over cap",
            handler.memory_used()
        );
    }
    // The workload must have exercised all three mechanisms.
    let stats = handler.stats;
    assert!(stats.finds > 0 && stats.creates > 0, "{stats:?}");
}

/// Zero-row and single-row tables flow through the whole stack.
#[test]
fn degenerate_tables_are_handled() {
    let empty = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &[] as &[&[&str]]).unwrap();
    let res = Brs::new(&SizeWeight).run(&empty.view(), 3);
    assert!(res.rules.is_empty());

    let single = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &[&["x", "y"]]).unwrap();
    let res = Brs::new(&SizeWeight).run(&single.view(), 3);
    assert_eq!(res.rules.len(), 1);
    assert_eq!(res.rules[0].count, 1.0);
    assert_eq!(res.rules[0].rule.size(), 2);

    let mut session = Session::new(std::sync::Arc::new(single), Box::new(SizeWeight), 3);
    session.expand(&[]).unwrap();
    assert_eq!(session.visible().len(), 2);
}

/// A table with one column and one value: the optimizer terminates with
/// the single possible rule.
#[test]
fn constant_table() {
    let rows: Vec<[&str; 1]> = vec![["same"]; 50];
    let t = Table::from_rows(Schema::new(["A"]).unwrap(), &rows).unwrap();
    let res = Brs::new(&SizeWeight).run(&t.view(), 5);
    assert_eq!(res.rules.len(), 1);
    assert_eq!(res.rules[0].count, 50.0);
}
