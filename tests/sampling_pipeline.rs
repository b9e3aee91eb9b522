//! Integration tests across core + sampling: drill-downs served from
//! samples must approximate full-table results, the Find/Combine/Create
//! ladder must engage in the documented order, and prefetching must
//! eliminate disk passes.

use smart_drilldown::core::{
    covered_rows, filter_to_rule, rule_count, FilteredView, Rule, SizeWeight,
};
use smart_drilldown::explorer::PrefetchMode;
use smart_drilldown::prelude::*;
use smart_drilldown::sampling::{FetchMechanism, PrefetchEntry, StoredSampleInfo};
use smart_drilldown::table::Table;
use std::sync::Arc;

fn handler_cfg(capacity: usize, min_ss: usize, seed: u64) -> SampleHandlerConfig {
    SampleHandlerConfig {
        capacity,
        min_sample_size: min_ss,
        seed,
    }
}

/// `retail(seed)` three times over (18 000 rows): the same rules and
/// values, each covering three times the rows.
fn retail_x3(seed: u64) -> Table {
    let t = retail(seed);
    let n = t.n_rows() as u32;
    t.gather_rows(&(0..3 * n).map(|r| r % n).collect::<Vec<_>>())
}

#[test]
fn sampled_expansion_approximates_exact_expansion() {
    let table = std::sync::Arc::new(retail(42));
    let exact = Brs::new(&SizeWeight)
        .with_max_weight(3.0)
        .run(&table.view(), 3);

    let mut agree = 0usize;
    let trials = 5usize;
    for seed in 0..trials as u64 {
        let mut handler = SampleHandler::new(table.clone(), handler_cfg(20_000, 3_000, seed));
        let sample = handler.try_get_sample(&Rule::trivial(3)).unwrap();
        let approx = Brs::new(&SizeWeight)
            .with_max_weight(3.0)
            .run(&sample.view.as_view(), 3);
        if approx.rules_only() == exact.rules_only() {
            agree += 1;
        }
        // Count estimates within 25% for every displayed rule.
        for s in &approx.rules {
            let truth = rule_count(&table.view(), &s.rule);
            assert!(
                (s.count - truth).abs() / truth.max(1.0) < 0.25,
                "seed {seed}: estimate {} vs truth {truth} for {}",
                s.count,
                s.rule.display(&table)
            );
        }
    }
    assert!(
        agree >= trials - 1,
        "sampled rule set disagreed with exact in {} of {trials} trials",
        trials - agree
    );
}

#[test]
fn find_combine_create_ladder() {
    let table = std::sync::Arc::new(retail(42));
    let mut handler = SampleHandler::new(table.clone(), handler_cfg(30_000, 800, 3));
    let trivial = Rule::trivial(3);
    let walmart = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();

    // 1st: nothing cached → Create.
    assert_eq!(
        handler.try_get_sample(&trivial).unwrap().mechanism,
        FetchMechanism::Create
    );
    // 2nd same rule → Find.
    assert_eq!(
        handler.try_get_sample(&trivial).unwrap().mechanism,
        FetchMechanism::Find
    );
    // Sub-rule coverage insufficient? trivial sample is only 800 tuples →
    // Walmart portion ≈ 133 < 800 → Create.
    assert_eq!(
        handler.try_get_sample(&walmart).unwrap().mechanism,
        FetchMechanism::Create
    );
    // Now a Walmart super-rule can Combine from the Walmart sample:
    // cookies ≈ 20% of Walmart's 800 = 160... still < 800 → Create (exact).
    let cookies =
        Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap();
    let s = handler.try_get_sample(&cookies).unwrap();
    assert_eq!(s.mechanism, FetchMechanism::Create);
    // The cookies rule covers only 200 tuples < minSS 800: the stored
    // sample is exact, so asking again is a Find with scale 1.
    let again = handler.try_get_sample(&cookies).unwrap();
    assert_eq!(again.mechanism, FetchMechanism::Find);
    assert!((again.scale - 1.0).abs() < 1e-12);
    assert_eq!(again.view.len(), 200);
}

#[test]
fn combine_merges_multiple_sources_unbiased() {
    let table = std::sync::Arc::new(retail(42));
    // Big capacity, small minSS: seed samples for two sub-rules of the
    // Walmart×cookies target.
    let mut handler = SampleHandler::new(table.clone(), handler_cfg(50_000, 100, 11));
    let walmart = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
    let cookies = Rule::from_pairs(&table, &[("Product", "cookies")]).unwrap();
    // Force creation of both parent samples (minSS 100 → reservoirs of 100).
    let _ = handler.try_get_sample(&walmart).unwrap();
    let _ = handler.try_get_sample(&cookies).unwrap();

    let both = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap();
    let s = handler.try_get_sample(&both).unwrap();
    // Walmart sample: ~20 cookies rows; cookies sample: 100 rows all
    // Walmart (cookies only sold by Walmart) → combined ≥ 100 ≥ minSS.
    assert_eq!(s.mechanism, FetchMechanism::Combine);
    let est = s.view.total_weight();
    let truth = 200.0;
    assert!(
        (est - truth).abs() / truth < 0.5,
        "combined estimate {est} too far from {truth}"
    );
}

/// The invariant that makes drill-down filtering free in the product:
/// whichever mechanism serves a sample for a rule — Find (a stored sample of
/// that very rule), Combine (the *covered* rows of stored sub-rule samples)
/// or Create (a reservoir over the rule's covered rows) — every row of the
/// served view is covered by the rule, so `filter_to_rule` lends the view
/// back (same table, same weights) instead of copying it.
#[test]
fn every_served_sample_is_fully_covered_by_its_requested_rule() {
    let table = Arc::new(retail(42));
    let mut handler = SampleHandler::new(table.clone(), handler_cfg(50_000, 100, 11));
    let walmart = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
    let cookies = Rule::from_pairs(&table, &[("Product", "cookies")]).unwrap();
    let both = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap();
    let requests = [
        (Rule::trivial(3), FetchMechanism::Create),
        (walmart.clone(), FetchMechanism::Create),
        (cookies, FetchMechanism::Create),
        (walmart, FetchMechanism::Find),
        (both.clone(), FetchMechanism::Combine),
        (both, FetchMechanism::Combine),
    ];
    for (rule, mechanism) in requests {
        let s = handler.try_get_sample(&rule).unwrap();
        assert_eq!(s.mechanism, mechanism, "{}", rule.display(&table));
        assert!(!s.view.is_empty());
        assert_eq!(
            covered_rows(s.view.table(), &rule).len(),
            s.view.len(),
            "{mechanism:?}: a served row is not covered by {}",
            rule.display(&table)
        );
        let view = s.view.as_view();
        let filtered = filter_to_rule(&view, &rule);
        assert!(matches!(filtered, FilteredView::Whole(_)), "{mechanism:?}");
        assert!(std::ptr::eq(filtered.as_view().table(), view.table()));
        assert!(std::ptr::eq(
            filtered.as_view().weights().unwrap(),
            view.weights().unwrap()
        ));
    }
}

#[test]
fn prefetch_then_drill_without_disk() {
    let table = std::sync::Arc::new(retail(42));
    let mut handler = SampleHandler::new(table.clone(), handler_cfg(30_000, 1_000, 17));
    let trivial = Rule::trivial(3);
    let first = handler.try_get_sample(&trivial).unwrap();
    let result = Brs::new(&SizeWeight)
        .with_max_weight(3.0)
        .run(&first.view.as_view(), 3);

    let entries: Vec<PrefetchEntry> = result
        .rules
        .iter()
        .map(|s| PrefetchEntry {
            rule: s.rule.clone(),
            probability: 1.0 / 3.0,
            selectivity: (s.count / 6000.0).min(1.0),
        })
        .collect();
    handler.try_prefetch(&trivial, &entries).unwrap();
    let scans = handler.stats.full_scans;

    for e in &entries {
        let s = handler.try_get_sample(&e.rule).unwrap();
        assert_ne!(
            s.mechanism,
            FetchMechanism::Create,
            "{} forced a scan after prefetch",
            e.rule.display(&table)
        );
    }
    assert_eq!(
        handler.stats.full_scans, scans,
        "drill-downs after prefetch hit disk"
    );
}

/// The §4.3 single pass is invisible in what it stores: the samples a
/// prefetch batch draws while sharing one sweep of the table are the
/// samples one Create per rule draws, over one table or eight spilled
/// shards.
#[test]
fn a_prefetch_batch_stores_what_one_create_per_rule_stores() {
    use smart_drilldown::table::{ShardConfig, ShardedTable, TableStore};
    let table = Arc::new(retail_x3(42));
    let walmart = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
    let target = Rule::from_pairs(&table, &[("Store", "Target")]).unwrap();
    let cookies = Rule::from_pairs(&table, &[("Product", "cookies")]).unwrap();
    let entries: Vec<PrefetchEntry> = [
        (&walmart, 1.0 / 6.0),
        (&target, 1.0 / 30.0),
        (&cookies, 0.2),
    ]
    .into_iter()
    .map(|(rule, selectivity)| PrefetchEntry {
        rule: rule.clone(),
        probability: 0.3,
        selectivity,
    })
    .collect();
    let sorted = |h: &SampleHandler| {
        let mut stored = h.stored_samples();
        stored.sort_by(|a, b| a.filter.codes().cmp(b.filter.codes()));
        let digests: Vec<_> = stored
            .iter()
            .map(|s| {
                h.peek_stored(&s.filter)
                    .map(|v| smart_drilldown::core::view_digest(&v.view.as_view()))
            })
            .collect();
        (stored, digests)
    };
    let stores = || {
        let spill = ShardConfig::spilling(8, 0, std::env::temp_dir());
        [
            TableStore::Whole(table.clone()),
            TableStore::Sharded(Arc::new(ShardedTable::from_table(&table, &spill).unwrap())),
        ]
    };

    let mut reference = None;
    for store in stores() {
        let mut batch = SampleHandler::with_store(store.clone(), handler_cfg(20_000, 500, 77));
        batch.try_prefetch(&Rule::trivial(3), &entries).unwrap();
        assert_eq!(batch.stats.full_scans, 1);
        let got = sorted(&batch);
        assert!(got.0.len() >= 3, "the allocator must plan a real batch");

        let mut singles = SampleHandler::with_store(store, handler_cfg(20_000, 500, 77));
        for s in &got.0 {
            singles
                .try_create_batch(&[(s.filter.clone(), s.rows.len())])
                .unwrap();
        }
        assert_eq!(sorted(&singles), got);
        assert_eq!(reference.get_or_insert(got.clone()), &got);
    }
}

#[test]
fn session_over_sampled_view_reproduces_walkthrough_shape() {
    let table = std::sync::Arc::new(retail(42));
    let mut ex = Explorer::new(
        table.clone(),
        Box::new(SizeWeight),
        ExplorerConfig {
            k: 3,
            handler: handler_cfg(20_000, 4_000, 23),
            prefetch: PrefetchMode::Off,
            ..ExplorerConfig::default()
        },
    );
    // The root drill-down runs over a scaled sample: counts are estimates.
    let shown = ex.expand(&[]).unwrap();
    assert!(shown.iter().all(|r| !r.exact), "{shown:?}");
    let walmart = shown
        .iter()
        .find(|r| r.rule.display(&table) == "(Walmart, ?, ?)")
        .unwrap_or_else(|| panic!("{shown:?}"));
    // Estimated Walmart count ≈ 1000, inside its interval.
    assert!((walmart.count - 1000.0).abs() < 150.0, "{walmart:?}");
    assert!(walmart.ci_lo <= walmart.count && walmart.count <= walmart.ci_hi);
}

/// Drives a fixed three-level drill script through an [`Explorer`] and
/// snapshots the sample store afterwards. With `worker`, each prefetch job
/// runs between requests; without, the next request drains it.
fn prefetch_script_samples(table: &Arc<Table>, worker: bool) -> (Vec<StoredSampleInfo>, String) {
    let mut ex = Explorer::new(
        table.clone(),
        Box::new(SizeWeight),
        ExplorerConfig {
            k: 3,
            max_weight: Some(3.0),
            handler: handler_cfg(20_000, 1_000, 55),
            prefetch: PrefetchMode::Deferred,
            confidence_z: 1.96,
            cache: None,
            table_id: None,
        },
    );
    for path in [vec![], vec![0], vec![1], vec![0]] {
        ex.expand(&path).expect("scripted expansion");
        // Play the background worker: claim and run the job between
        // requests (the server's think-time overlap).
        if worker {
            if let Some(job) = ex.take_pending_prefetch() {
                ex.try_run_prefetch(&job).unwrap();
            }
        }
    }
    ex.try_drain_pending_prefetch().unwrap();
    (ex.handler().stored_samples(), ex.render())
}

#[test]
fn background_prefetch_is_deterministic_across_workers() {
    // The §4.3 prefetch must store bit-identical samples whether the next
    // request drains it or a background worker runs it first — rows,
    // order, scales, and the resulting display must all match.
    let table = Arc::new(retail_x3(42));
    let (lazy_samples, lazy_render) = prefetch_script_samples(&table, false);
    let (worker1_samples, worker1_render) = prefetch_script_samples(&table, true);

    assert!(!lazy_samples.is_empty(), "script must store samples");
    assert_eq!(
        lazy_samples, worker1_samples,
        "deferred(1 worker) differs from a lazy drain"
    );
    assert_eq!(lazy_render, worker1_render);
    // Scales must match to the bit, not approximately.
    for (a, b) in lazy_samples.iter().zip(&worker1_samples) {
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    }
}

#[test]
fn background_prefetch_reduces_request_blocking_scans() {
    // Acceptance criterion: prefetching measurably reduces the full scans
    // an analyst *waits on*. Every Create is a blocking full pass over the
    // table on the request path; with prefetch, drill-downs after the first
    // are served from prefetched memory (the prefetch pass itself runs in
    // think-time, off the request path).
    let table = Arc::new(retail(42));
    let drill = |mode: PrefetchMode| {
        let mut ex = Explorer::new(
            table.clone(),
            Box::new(SizeWeight),
            ExplorerConfig {
                k: 3,
                max_weight: Some(3.0),
                handler: handler_cfg(20_000, 1_000, 31),
                prefetch: mode,
                confidence_z: 1.96,
                cache: None,
                table_id: None,
            },
        );
        for path in [vec![], vec![0], vec![1], vec![2]] {
            ex.expand(&path).expect("scripted expansion");
            if let Some(job) = ex.take_pending_prefetch() {
                ex.try_run_prefetch(&job).unwrap();
            }
        }
        ex.handler_stats()
    };

    let without = drill(PrefetchMode::Off);
    let with = drill(PrefetchMode::Deferred);
    assert_eq!(
        without.creates, 4,
        "without prefetch every expansion blocks on a Create scan: {without:?}"
    );
    assert_eq!(
        with.creates, 1,
        "with prefetch only the cold first expansion blocks: {with:?}"
    );
    assert!(
        with.creates < without.creates,
        "prefetch must reduce blocking scans ({} vs {})",
        with.creates,
        without.creates
    );
    assert_eq!(without.creates, without.full_scans);
}

#[test]
fn eviction_under_pressure_keeps_serving_correct_samples() {
    let table = std::sync::Arc::new(retail(42));
    let mut handler = SampleHandler::new(table.clone(), handler_cfg(1_500, 700, 29));
    let rules = [
        Rule::trivial(3),
        Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap(),
        Rule::from_pairs(&table, &[("Region", "MA-3")]).unwrap(),
        Rule::from_pairs(&table, &[("Product", "comforters")]).unwrap(),
    ];
    for round in 0..3 {
        for r in &rules {
            let s = handler.try_get_sample(r).unwrap();
            assert!(
                handler.memory_used() <= 1_500,
                "round {round}: over capacity"
            );
            let est = s.view.total_weight();
            let truth = rule_count(&table.view(), r);
            assert!(
                (est - truth).abs() / truth < 0.3,
                "round {round}: {} estimated {est} vs {truth}",
                r.display(&table)
            );
        }
    }
    assert!(handler.stats.evictions > 0);
}

/// A drill-down wider than the server's `k` bound (12) plans a prefetch
/// for every displayed child and drains it.
#[test]
fn a_wide_drill_down_prefetches_without_panicking() {
    let table = Arc::new(retail(42));
    for k in [13, 32] {
        let mut ex = Explorer::new(
            table.clone(),
            Box::new(SizeWeight),
            ExplorerConfig {
                k,
                ..ExplorerConfig::default()
            },
        );
        ex.expand(&[]).expect("root expansion");
        let shown = ex.children_at(&[]).unwrap().len();
        assert!(shown > 12, "k = {k}: {shown} children");
        let job = ex.take_pending_prefetch().expect("a prefetch job");
        assert_eq!(job.entries.len(), shown);
        // The plan covers every displayed child, and the drain succeeds.
        let planned = ex.handler().plan(&job.entries);
        assert_eq!(planned.parent.len(), 1 + shown, "k = {k}");
        ex.try_run_prefetch(&job).unwrap();
        ex.try_drain_pending_prefetch().unwrap();
    }
}
