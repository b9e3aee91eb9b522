//! Cross-shard parity suite: everything the product runs over a
//! [`ShardedTable`] must be **bit-identical** to the monolithic [`Table`]
//! path — the segment-tier scans (covered rows, exact counts), a search
//! over gathered rows, sample stores and every served sample view,
//! explorer sessions, and server transcripts — across shard counts 1..=8,
//! with every shard resident or every shard spilled to disk, and over the
//! snapshot of a spilling live table, whose sealed segments are spilled and
//! whose tail is resident.
//!
//! The determinism contract under test (see `sdd_table::shard` and
//! `sdd_core::shard`): the shard layout partitions rows in order, segment
//! scans concatenate hit lists and add integer counts shard after shard, a
//! gather copies global codes, and spill round-trips reproduce segments
//! bit-for-bit — so *where bytes live* (RAM vs disk, one shard vs eight)
//! can never change a result.

use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{
    count_rules, covered_rows, find_best_marginal_rule, try_count_rules_in_store,
    try_count_rules_sharded, try_covered_rows_sharded, try_covered_rows_sharded_range,
    try_find_best_marginal_rule_sharded, try_scan_rules_in_store, view_digest, BitsWeight, Rule,
    SearchOptions, SearchScratch, SizeWeight, WeightFn,
};
use smart_drilldown::datagen::retail;
use smart_drilldown::explorer::{Explorer, ExplorerConfig, PrefetchMode};
use smart_drilldown::sampling::{
    FetchMechanism, SampleHandler, SampleHandlerConfig, StoredSampleInfo,
};
use smart_drilldown::server::{Engine, EngineConfig, OpenOptions, Request};
use smart_drilldown::table::csv::{stream_csv_file, write_csv};
use smart_drilldown::table::{
    LiveTable, LiveTableConfig, Schema, ShardConfig, ShardedTable, ShardedView, Table, TableStore,
    TableView,
};
use std::sync::Arc;

/// Shard counts the whole suite sweeps (the acceptance range).
const SHARD_COUNTS: std::ops::RangeInclusive<usize> = 1..=8;

/// Both shard configurations for a given shard count: every shard
/// resident, and every shard spilled.
fn shard_configs(shards: usize) -> [ShardConfig; 2] {
    [
        ShardConfig::in_memory(shards),
        ShardConfig::spilling(shards, 0, std::env::temp_dir()),
    ]
}

fn sharded(table: &Table, cfg: &ShardConfig) -> Arc<ShardedTable> {
    Arc::new(ShardedTable::from_table(table, cfg).expect("shard build"))
}

/// `table`'s rows as their categorical values, in schema order.
fn value_rows(table: &Table) -> Vec<Vec<&str>> {
    (0..table.n_rows() as u32)
        .map(|r| (0..table.n_columns()).map(|c| table.value(r, c)).collect())
        .collect()
}

/// `table` without its measures, built row by row: the categorical columns
/// every sharded, streamed and live build holds.
fn without_measures(table: &Table) -> Table {
    Table::from_rows(table.schema().clone(), &value_rows(table)).expect("same schema")
}

/// Builds the same sharded table by **streaming** `table`'s categorical
/// rows, written out as CSV, through [`stream_csv_file`] — the out-of-core
/// ingest path. Codes are interned in first-appearance order by both paths,
/// so the result must be bit-identical to [`ShardedTable::from_table`].
fn stream_built(table: &Table, cfg: &ShardConfig) -> Arc<ShardedTable> {
    let path = std::env::temp_dir().join(format!(
        "sdd-shard-parity-{}-{:?}.csv",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, write_csv(&without_measures(table))).expect("write CSV");
    let built = stream_csv_file(&path, cfg).expect("stream ingest");
    std::fs::remove_file(&path).ok();
    Arc::new(built)
}

/// A live table under `cfg` holding `table`'s rows, appended in two
/// batches: its snapshot has segments sealed at both epochs, dictionaries
/// grown between them and — unless the rows divide evenly — a tail.
fn grow_live(table: &Table, cfg: &LiveTableConfig) -> Arc<LiveTable> {
    let rows = value_rows(table);
    let live = Arc::new(LiveTable::new(table.schema().clone(), vec![], cfg).expect("live table"));
    let (head, tail) = rows.split_at(rows.len() / 2);
    live.try_append(head, &[]).expect("append");
    live.try_append(tail, &[]).expect("append");
    live
}

/// The snapshot of a spilling live table sealing every `n_rows / shards +
/// 1` rows: spilled sealed segments beside a resident tail (all tail for
/// one shard).
fn live_built(table: &Table, shards: usize) -> Arc<ShardedTable> {
    let per_segment = table.n_rows() / shards + 1;
    let cfg = LiveTableConfig::spilling(per_segment, std::env::temp_dir());
    grow_live(table, &cfg).snapshot().table
}

/// Every construction path for one config: every parity case below runs on
/// each, so "stream-built" and "a live snapshot" join "where bytes live" in
/// the set of things that can never change a result.
fn builds(table: &Table, cfg: &ShardConfig) -> Vec<(Arc<ShardedTable>, &'static str)> {
    let mut builds = vec![
        (sharded(table, cfg), "from_table"),
        (stream_built(table, cfg), "stream"),
    ];
    if cfg.spill_dir.is_some() {
        builds.push((live_built(table, cfg.shards), "live"));
    }
    builds
}

fn cfg_label(cfg: &ShardConfig) -> String {
    let form = if cfg.spill_dir.is_some() {
        "spilled"
    } else {
        "resident"
    };
    format!("{} shards, {form}", cfg.shards)
}

/// A random categorical table: 2..=4 columns with cardinality ≤ 6.
fn random_table(rng: &mut StdRng) -> Table {
    let n_cols = rng.gen_range(2..5);
    let n_rows = rng.gen_range(10..120);
    let cards: Vec<u32> = (0..n_cols).map(|_| rng.gen_range(2..7)).collect();
    let names: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
    let rows: Vec<Vec<String>> = (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|c| format!("v{}", rng.gen_range(0..cards[c])))
                .collect()
        })
        .collect();
    Table::from_rows(Schema::new(names).unwrap(), &rows).unwrap()
}

// ---------------------------------------------------------------------------
// Marginal search
// ---------------------------------------------------------------------------

#[test]
fn marginal_search_is_bit_identical_across_shard_layouts() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0001);
    for trial in 0..12 {
        let table = random_table(&mut rng);
        let weight: &dyn WeightFn = if trial % 2 == 0 {
            &SizeWeight
        } else {
            &BitsWeight
        };
        let mw = rng.gen_range(1.5..6.0);

        // Optionally a weighted subset (a sample-shaped view).
        let use_subset = trial % 3 == 0;
        let (rows, weights): (Vec<u32>, Option<Vec<f64>>) = if use_subset {
            let rows: Vec<u32> = (0..table.n_rows() as u32)
                .filter(|_| rng.gen_range(0..4) != 0)
                .collect();
            let ws: Vec<f64> = rows.iter().map(|_| rng.gen_range(0.5..3.0)).collect();
            (rows, Some(ws))
        } else {
            ((0..table.n_rows() as u32).collect(), None)
        };
        if rows.is_empty() {
            continue;
        }
        let cov: Vec<f64> = (0..rows.len()).map(|_| rng.gen_range(0.0..2.5)).collect();

        // The monolithic reference for a subset is the rows gathered from
        // the monolithic table, in the same order.
        let gathered = table.gather_rows(&rows);
        let mono_view: TableView<'_> = match &weights {
            Some(w) => TableView::all_with_weights(&gathered, w),
            None => table.view(),
        };
        let opts = SearchOptions::new(mw);
        let mono = find_best_marginal_rule(&mono_view, weight, &cov, &opts);

        for shards in SHARD_COUNTS {
            for cfg in shard_configs(shards) {
                for (st, how) in builds(&table, &cfg) {
                    let view = match &weights {
                        Some(w) => {
                            ShardedView::with_rows_and_weights(st.clone(), rows.clone(), w.clone())
                        }
                        None if use_subset => ShardedView::with_rows(st.clone(), rows.clone()),
                        None => ShardedView::all(st.clone()),
                    };
                    let mut scratch = SearchScratch::new();
                    let got = try_find_best_marginal_rule_sharded(
                        &view,
                        weight,
                        &cov,
                        &opts,
                        &mut scratch,
                    )
                    .expect("spill files decode");
                    let label = format!("trial {trial}, {} ({how})", cfg_label(&cfg));
                    match (&mono, &got) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.rule, b.rule, "{label}: winner differs");
                            assert_eq!(
                                a.marginal_value.to_bits(),
                                b.marginal_value.to_bits(),
                                "{label}: marginal bits differ"
                            );
                            assert_eq!(a.count.to_bits(), b.count.to_bits(), "{label}: count bits");
                            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{label}: weight");
                            assert_eq!(a.stats, b.stats, "{label}: work counters");
                        }
                        (a, b) => panic!("{label}: disagreement {a:?} vs {b:?}"),
                    }
                    if st.spills() > 0 {
                        assert!(st.loads() > 0, "{label}: spill path never exercised");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sample stores
// ---------------------------------------------------------------------------

fn handler_config(seed: u64) -> SampleHandlerConfig {
    SampleHandlerConfig {
        capacity: 3_000,
        min_sample_size: 50,
        seed,
    }
}

/// Everything observable about one served view: mechanism, length, scale
/// bits, total-weight bits, content digest.
type Served = (FetchMechanism, usize, u64, u64, [u64; 2]);

/// Drives a request sequence; snapshots the stored samples and every served
/// view (by type the self-contained "all rows of its own table" form).
fn drive_handler(mut h: SampleHandler, rules: &[Rule]) -> (Vec<StoredSampleInfo>, Vec<Served>) {
    let served = rules
        .iter()
        .map(|rule| {
            let s = h.try_get_sample(rule).unwrap();
            (
                s.mechanism,
                s.view.len(),
                s.scale.to_bits(),
                s.view.total_weight().to_bits(),
                view_digest(&s.view.as_view()),
            )
        })
        .collect();
    (h.stored_samples(), served)
}

/// A live store holding `table`'s rows ([`grow_live`]), its sealed
/// segments spilled when `spill`.
fn live_store(table: &Table, spill: bool) -> TableStore {
    let per_segment = (table.n_rows() / 5).max(1);
    let cfg = if spill {
        LiveTableConfig::spilling(per_segment, std::env::temp_dir())
    } else {
        LiveTableConfig::in_memory(per_segment)
    };
    TableStore::from(grow_live(table, &cfg))
}

/// One request sequence over every store kind — monolithic, sharded
/// (resident and spilling, every build), live (resident and spilling): the
/// stored samples and every served view must agree with the monolithic
/// handler's. Returns the mechanisms that served.
fn assert_stores_agree(
    table: &Arc<Table>,
    rules: &[Rule],
    config: &SampleHandlerConfig,
    what: &str,
) -> Vec<FetchMechanism> {
    let mono = drive_handler(SampleHandler::new(table.clone(), config.clone()), rules);
    let mut others = vec![
        (live_store(table, false), "live, resident".to_owned()),
        (live_store(table, true), "live, spilling".to_owned()),
    ];
    for shards in [1, 3, 8] {
        for cfg in shard_configs(shards) {
            for (st, how) in builds(table, &cfg) {
                let label = format!("{} ({how})", cfg_label(&cfg));
                others.push((TableStore::Sharded(st), label));
            }
        }
    }
    for (store, label) in others {
        let got = drive_handler(SampleHandler::with_store(store, config.clone()), rules);
        assert_eq!(got.0, mono.0, "{what}, {label}: stored samples differ");
        assert_eq!(got.1, mono.1, "{what}, {label}: served views differ");
    }
    mono.1.iter().map(|served| served.0).collect()
}

#[test]
fn sample_stores_are_bit_identical_between_monolithic_and_sharded() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0003);
    for trial in 0..6 {
        let table = Arc::new(random_table(&mut rng));
        let n_cols = table.n_columns();
        // Random request sequence: trivial rule + rules from real rows.
        let mut rules = vec![Rule::trivial(n_cols)];
        for _ in 0..6 {
            let row = rng.gen_range(0..table.n_rows()) as u32;
            let mut r = Rule::trivial(n_cols);
            for c in 0..n_cols {
                if rng.gen_range(0..2) == 0 {
                    r = r.with_value(c, table.code(row, c));
                }
            }
            rules.push(r);
        }
        let seed = rng.gen::<u64>();
        assert_stores_agree(
            &table,
            &rules,
            &handler_config(seed),
            &format!("trial {trial}"),
        );
    }

    // A fixed ladder that serves by all three mechanisms: two single-column
    // samples whose pooled Walmart×cookies rows reach minSS → Combine.
    let table = Arc::new(retail(42));
    let walmart = Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap();
    let cookies = Rule::from_pairs(&table, &[("Product", "cookies")]).unwrap();
    let both = Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap();
    let ladder = [
        Rule::trivial(3),
        Rule::trivial(3),
        walmart,
        cookies,
        both.clone(),
        both,
    ];
    let config = SampleHandlerConfig {
        capacity: 50_000,
        min_sample_size: 100,
        seed: 11,
    };
    use FetchMechanism::{Combine, Create, Find};
    assert_eq!(
        assert_stores_agree(&table, &ladder, &config, "retail ladder"),
        vec![Create, Find, Create, Create, Combine, Combine]
    );
}

/// `retail(seed)` three times over (18 000 rows): the same rules and
/// values, each covering three times the rows.
fn retail_x3(seed: u64) -> Table {
    let t = retail(seed);
    let n = t.n_rows() as u32;
    t.gather_rows(&(0..3 * n).map(|r| r % n).collect::<Vec<_>>())
}

/// Everything a handler holds, by filter: the stored sample and — through
/// `peek_stored`, the stored table itself at the stored scale — its
/// materialised columns' digest.
fn stored_by_filter(h: &SampleHandler) -> Vec<(StoredSampleInfo, [u64; 2])> {
    let mut all: Vec<(StoredSampleInfo, [u64; 2])> = h
        .stored_samples()
        .into_iter()
        .map(|info| {
            let view = h.peek_stored(&info.filter).expect("stored at minSS").view;
            assert_eq!(view.len(), info.rows.len());
            (info, view_digest(&view.as_view()))
        })
        .collect();
    all.sort_by(|a, b| a.0.filter.codes().cmp(b.0.filter.codes()));
    all
}

/// One pass for a whole batch (§4.3) changes what is *fetched*, never what
/// is *drawn*: a k-rule batch — with the trivial rule and a repeated filter
/// in it — stores exactly the samples, materialised tables and digests
/// that k single-rule Creates store, on every store kind, and costs a
/// spilling store at most two reads per spilled shard however large k is.
#[test]
fn batched_creates_match_single_creates_and_share_their_fetches() {
    let table = Arc::new(retail_x3(42));
    let rule = |pairs: &[(&str, &str)]| Rule::from_pairs(&table, pairs).unwrap();
    let requests = [
        (Rule::trivial(3), 900),
        (rule(&[("Store", "Walmart")]), 700),
        (rule(&[("Store", "Walmart"), ("Product", "cookies")]), 650),
        (rule(&[("Region", "MA-3")]), 600),
        // The repeated filter: the later size wins.
        (rule(&[("Store", "Walmart")]), 800),
        (rule(&[("Product", "comforters")]), 600),
    ];
    let config = SampleHandlerConfig {
        capacity: 50_000,
        min_sample_size: 600,
        seed: 19,
    };
    let stores = || -> Vec<(TableStore, String)> {
        let sharded = |cfg| TableStore::Sharded(sharded(&table, &cfg));
        vec![
            (TableStore::Whole(table.clone()), "whole".to_owned()),
            (
                sharded(shard_configs(8)[0].clone()),
                "8 shards, resident".to_owned(),
            ),
            (
                sharded(shard_configs(8)[1].clone()),
                "8 shards, spilled".to_owned(),
            ),
            // A batch meets spilled and resident shards in one sweep.
            (
                TableStore::Sharded(live_built(&table, 8)),
                "live snapshot, spilled and resident".to_owned(),
            ),
            (live_store(&table, false), "live, resident".to_owned()),
            (live_store(&table, true), "live, spilling".to_owned()),
        ]
    };

    for k in [1usize, 3, 6] {
        let batch = &requests[..k];
        // The reference: k single-rule Creates over the monolithic table.
        let mut singles = SampleHandler::new(table.clone(), config.clone());
        for request in batch {
            singles
                .try_create_batch(std::slice::from_ref(request))
                .unwrap();
        }
        let want = stored_by_filter(&singles);
        assert_eq!(want.len(), k.min(5), "one sample per distinct filter");

        for (store, label) in stores() {
            let label = format!("k = {k}, {label}");
            let counters = |store: &TableStore| match store {
                TableStore::Sharded(st) => Some((st.loads(), st.spills())),
                _ => None,
            };
            let before = counters(&store);
            let mut h = SampleHandler::with_store(store.clone(), config.clone());
            h.try_create_batch(batch).unwrap();
            assert_eq!(stored_by_filter(&h), want, "{label}");
            assert_eq!(h.stats.full_scans, 1, "{label}: a batch is one pass");
            if let (Some((loads, cold)), Some((after, _))) = (before, counters(&store)) {
                assert!(
                    after - loads <= 2 * cold,
                    "{label}: {} reads for {cold} spilled shards",
                    after - loads
                );
                if cold > 0 {
                    assert!(after > loads, "{label}: spill never exercised");
                }
            }
        }
    }
}

/// A live sync offers one append to every stored filter in a single sweep
/// and fetches only the sample slots whose row changed, in a single batch:
/// the new snapshot's appended segments are each read once for the scan
/// and at most once more for the gather — the segments before them not at
/// all — whether one sample is stored or five, and the result is what a
/// rebuild at the new epoch stores.
#[test]
fn live_sync_touches_each_appended_segment_once() {
    let table = retail(42);
    let rows: Vec<Vec<&str>> = (0..table.n_rows() as u32)
        .map(|r| (0..table.n_columns()).map(|c| table.value(r, c)).collect())
        .collect();
    let filters = |header: &Table| {
        vec![
            Rule::from_pairs(header, &[("Store", "Walmart")]).unwrap(),
            Rule::trivial(3),
            Rule::from_pairs(header, &[("Product", "cookies")]).unwrap(),
            Rule::from_pairs(header, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap(),
            Rule::from_pairs(header, &[("Region", "MA-3")]).unwrap(),
        ]
    };
    let config = SampleHandlerConfig {
        capacity: 5_000,
        min_sample_size: 300,
        seed: 23,
    };
    for k in [1usize, 5] {
        let cfg = LiveTableConfig::spilling(500, std::env::temp_dir());
        let live = Arc::new(LiveTable::new(table.schema().clone(), vec![], &cfg).unwrap());
        live.try_append(&rows[..3_200], &[]).unwrap();
        let mut h = SampleHandler::with_store(TableStore::from(live.clone()), config.clone());
        let header = h.table().clone();
        for f in &filters(&header)[..k] {
            h.try_get_sample(f).unwrap();
        }
        // 3 200 → 4 700 rows: the append finishes segment 6, fills 7 and 8
        // and leaves a 200-row tail — the scan has three sealed segments
        // to read, and every newly drawn row lives in one of those three.
        let snap = live.try_append(&rows[3_200..4_700], &[]).unwrap();
        assert_eq!((snap.table.n_shards(), snap.table.loads()), (10, 0));
        h.try_sync_to_snapshot(&snap).unwrap();
        let loads = snap.table.loads();
        assert!(
            (3 + 1..=3 + 3).contains(&loads),
            "k = {k}: {loads} reads — one per appended segment, at most one more \
             for each that holds a newly drawn row, none for the six before them"
        );
        let resident = (0..10).filter(|&i| snap.table.resident_segment(i).is_some());
        assert!(
            resident.eq([9]),
            "k = {k}: only the tail is resident — a sync leaves nothing decoded"
        );

        let mut rebuilt = SampleHandler::with_store(TableStore::from(live.clone()), config.clone());
        for f in &filters(&header)[..k] {
            rebuilt.try_get_sample(f).unwrap();
        }
        assert_eq!(stored_by_filter(&h), stored_by_filter(&rebuilt), "k = {k}");
    }
}

/// Everything a stored sample's materialised table holds: columns and
/// dictionary lengths. `None` for a sample `peek_stored` does not serve (a
/// drained zero-capacity one).
type Materialised = (Vec<Vec<u32>>, Vec<usize>);

fn materialised(h: &SampleHandler, filter: &Rule) -> Option<Materialised> {
    let view = h.peek_stored(filter)?.view;
    let t = view.table();
    let cols = 0..t.n_columns();
    Some((
        cols.clone().map(|c| t.column(c).to_u32_vec()).collect(),
        cols.map(|c| t.cardinality(c)).collect(),
    ))
}

/// A sync patches the stored tables instead of re-gathering them — and
/// what it leaves is, byte for byte, what a fresh handler Creates at the
/// new epoch: row ids, scales, columns and dictionary lengths.
/// One sync across four appends (18 000 rows) and a sync per append agree
/// with it, over a resident
/// and a spilling live table, for samples that are overwritten in place by
/// rows carrying a value no dictionary held before, that grow while
/// under capacity, that are drained, and that no appended row touches.
/// The frozen pre-grown twin closes the chain: scans, counts and Creates
/// over sealed segments shared since before `Costco` was interned read
/// what the twin reads.
#[test]
fn a_synced_sample_is_the_sample_a_create_at_the_new_epoch_stores() {
    let retail = retail(42);
    let n = retail.n_rows();
    let (base, total) = (n, 4 * n);
    // `Closed` occurs only in the base rows, `Costco` only in appended ones.
    let rows: Vec<Vec<&str>> = (0..total)
        .map(|i| {
            let r = (i % n) as u32;
            let mut row: Vec<&str> = (0..3).map(|c| retail.value(r, c)).collect();
            if i < base && i % 50 == 0 {
                row[0] = "Closed";
            } else if i >= base && i % 3 == 0 {
                row[0] = "Costco";
            }
            row
        })
        .collect();
    let twin = Arc::new(Table::from_rows(retail.schema().clone(), &rows).unwrap());
    let config = SampleHandlerConfig {
        capacity: 50_000,
        min_sample_size: 50,
        seed: 29,
    };
    let requests = |header: &Table| {
        let rule = |pairs: &[(&str, &str)]| Rule::from_pairs(header, pairs).unwrap();
        vec![
            (Rule::trivial(3), 900),
            (rule(&[("Store", "Walmart")]), 700),
            // Under capacity: holds every covered row, and grows.
            (rule(&[("Store", "Walmart"), ("Product", "cookies")]), 5_000),
            // Zero capacity: drained, only `seen` moves.
            (rule(&[("Region", "MA-3")]), 0),
            // No appended row is covered.
            (rule(&[("Store", "Closed")]), 60),
        ]
    };
    let spill = LiveTableConfig::spilling(2_000, std::env::temp_dir());
    for (cfg, label) in [
        (LiveTableConfig::in_memory(2_000), "resident"),
        (spill, "spilling"),
    ] {
        let live = Arc::new(LiveTable::new(retail.schema().clone(), vec![], &cfg).unwrap());
        live.try_append(&rows[..base], &[]).unwrap();
        let created = || {
            let mut h = SampleHandler::with_store(TableStore::from(live.clone()), config.clone());
            let requests = requests(h.table());
            h.try_create_batch(&requests).unwrap();
            h
        };
        let (mut jumped, mut stepped) = (created(), created());
        let before = jumped.stored_samples();
        let mut snap = live.snapshot();
        for lo in (base..total).step_by((total - base) / 4) {
            let hi = lo + (total - base) / 4;
            snap = live.try_append(&rows[lo..hi], &[]).unwrap();
            stepped.try_sync_to_snapshot(&snap).unwrap();
        }
        assert_eq!(snap.epoch, 5, "{label}: four epochs past the handlers' pin");
        jumped.try_sync_to_snapshot(&snap).unwrap();
        let fresh = created();
        assert_eq!(fresh.pinned_epoch(), 5);

        let mut frozen = SampleHandler::new(twin.clone(), config.clone());
        frozen.try_create_batch(&requests(&twin)).unwrap();
        let want = frozen.stored_samples();
        let handlers = [
            (&jumped, "one sync"),
            (&stepped, "a sync per append"),
            (&fresh, "a fresh Create"),
        ];
        for (h, how) in handlers {
            assert_eq!(h.stored_samples(), want, "{label}, {how}");
            for info in &want {
                assert_eq!(
                    materialised(h, &info.filter),
                    materialised(&frozen, &info.filter),
                    "{label}, {how}: the table of {:?}",
                    info.filter
                );
            }
        }
        // The scenarios happened: slots overwritten by rows with the
        // new value, growth under capacity, a drained sample, and one
        // whose rows no append moved.
        let costco = twin.dictionary(0).code_of("Costco").expect("appended");
        let (trivial, ..) = materialised(&jumped, &want[0].filter).unwrap();
        assert!(trivial[0].contains(&costco), "{label}");
        assert!(want[2].exact && want[2].rows.len() > before[2].rows.len());
        assert!(want[3].rows.is_empty() && want[3].scale.is_infinite());
        assert!(materialised(&jumped, &want[3].filter).is_none());
        assert_eq!(want[4].rows, before[4].rows, "{label}");

        let rules: Vec<Rule> = requests(&twin).into_iter().map(|(rule, _)| rule).collect();
        let rules = [&rules[..], &[Rule::trivial(3).with_value(0, costco)]].concat();
        assert_eq!(
            bits(&try_count_rules_sharded(&snap.table, &rules).unwrap()),
            bits(&count_rules(&twin, &rules)),
            "{label}: counts"
        );
        for rule in &rules {
            assert_eq!(
                try_covered_rows_sharded(&snap.table, rule).unwrap(),
                covered_rows(&twin, rule),
                "{label}: covered rows of {rule:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Explorer sessions and server transcripts
// ---------------------------------------------------------------------------

fn explorer_config(seed: u64) -> ExplorerConfig {
    ExplorerConfig {
        k: 3,
        max_weight: Some(3.0),
        handler: SampleHandlerConfig {
            capacity: 20_000,
            min_sample_size: 1_000,
            seed,
        },
        prefetch: PrefetchMode::Deferred,
        confidence_z: 1.96,
        cache: None,
        table_id: None,
    }
}

/// Runs a fixed drill script and snapshots every observable: the rendered
/// display after each step, the final stored samples, and all counters.
fn drive_explorer(mut ex: Explorer) -> (String, Vec<StoredSampleInfo>, String) {
    let mut transcript = String::new();
    ex.expand(&[]).unwrap();
    transcript.push_str(&ex.render());
    ex.expand(&[0]).unwrap();
    transcript.push_str(&ex.render());
    let star_col = 2; // Region in the retail schema
    ex.expand_star(&[1], star_col).ok();
    transcript.push_str(&ex.render());
    ex.collapse(&[0]).unwrap();
    ex.try_refresh_exact_counts().unwrap();
    transcript.push_str(&ex.render());
    ex.try_drain_pending_prefetch().unwrap();
    let stats = format!("{:?} {:?}", ex.stats, ex.handler_stats());
    (transcript, ex.handler().stored_samples(), stats)
}

/// Which shards of `st` are resident (the rest are spilled).
fn resident_shards(st: &ShardedTable) -> Vec<bool> {
    (0..st.n_shards())
        .map(|i| st.resident_segment(i).is_some())
        .collect()
}

#[test]
fn explorer_sessions_are_byte_identical_on_sharded_spilling_tables() {
    let table = Arc::new(retail(42));
    let mono = drive_explorer(Explorer::new(
        table.clone(),
        Box::new(SizeWeight),
        explorer_config(7),
    ));

    for shards in [1, 4, 8] {
        for cfg in shard_configs(shards) {
            for (st, how) in builds(&table, &cfg) {
                let label = format!("{} ({how})", cfg_label(&cfg));
                let forms = resident_shards(&st);
                let got = drive_explorer(Explorer::with_store(
                    TableStore::Sharded(st.clone()),
                    Box::new(SizeWeight),
                    explorer_config(7),
                ));
                assert_eq!(got.0, mono.0, "{label}: rendered transcripts differ");
                assert_eq!(got.1, mono.1, "{label}: stored samples differ");
                assert_eq!(got.2, mono.2, "{label}: counters differ");
                if st.spills() > 0 {
                    assert!(st.loads() > 0, "{label}: spill never exercised");
                }
                assert_eq!(
                    resident_shards(&st),
                    forms,
                    "{label}: the session left a spilled shard decoded"
                );
            }
        }
    }
}

/// One scripted protocol session (raw request lines, in order).
fn session_script(name: &str) -> Vec<String> {
    let session = name.to_owned();
    let reqs = vec![
        Request::TableInfo,
        Request::Open {
            session: session.clone(),
            options: OpenOptions {
                k: Some(3),
                max_weight: Some(3.0),
                weight: Some("size".to_owned()),
                seed: Some(11),
                capacity: Some(20_000),
                min_ss: Some(1_000),
            },
        },
        Request::Expand {
            session: session.clone(),
            path: vec![],
        },
        Request::Expand {
            session: session.clone(),
            path: vec![0],
        },
        Request::Star {
            session: session.clone(),
            path: vec![1],
            column: "Region".to_owned(),
        },
        Request::Expand {
            session: session.clone(),
            path: vec![9, 9], // guaranteed error payload
        },
        Request::Rules {
            session: session.clone(),
        },
        Request::Render {
            session: session.clone(),
        },
        Request::Refresh {
            session: session.clone(),
        },
        Request::Stats { session },
    ];
    reqs.iter().map(|r| r.to_json().to_string()).collect()
}

#[test]
fn server_transcripts_are_byte_identical_on_sharded_spilling_tables() {
    let table = Arc::new(retail(42));
    let script: Vec<String> = session_script("parity");
    let run = |engine: &Engine| -> Vec<String> {
        script
            .iter()
            .map(|line| engine.handle_line(line).0)
            .collect()
    };
    let mono = run(&Engine::new(table.clone(), EngineConfig::default()));
    assert!(
        mono.iter().any(|l| l.contains("\"op\":\"expand\"")),
        "script must exercise expansions"
    );

    for shards in SHARD_COUNTS {
        for cfg in shard_configs(shards) {
            for (st, how) in builds(&table, &cfg) {
                let got = run(&Engine::with_store(
                    TableStore::Sharded(st.clone()),
                    EngineConfig::default(),
                ));
                let label = format!("{} ({how})", cfg_label(&cfg));
                assert_eq!(got.len(), mono.len());
                for (step, (a, b)) in got.iter().zip(&mono).enumerate() {
                    assert_eq!(a, b, "{label}: transcript diverges at step {step}");
                }
                if st.spills() > 0 {
                    assert!(st.loads() > 0, "{label}: spill never exercised");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming build ⇔ from_table byte equality
// ---------------------------------------------------------------------------

/// The structural half of the streaming contract: beyond producing equal
/// *results*, a stream-built table holds byte-identical segments — decoded
/// columns, spill files on disk and dictionaries — for every shard count,
/// resident or spilled. (The transcript half is covered by the
/// suites above, which run every case on both builds.)
#[test]
fn stream_built_tables_are_byte_identical_to_from_table() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0005);
    let mut tables: Vec<Table> = (0..4).map(|_| random_table(&mut rng)).collect();
    tables.push(retail(42));
    for (ti, table) in tables.iter().enumerate() {
        for shards in SHARD_COUNTS {
            for cfg in shard_configs(shards) {
                let a = sharded(table, &cfg);
                let b = stream_built(table, &cfg);
                let label = format!("table {ti}, {}", cfg_label(&cfg));
                assert_eq!(a.spans(), b.spans(), "{label}: span layouts differ");
                for c in 0..table.n_columns() {
                    assert_eq!(
                        a.dictionary(c).iter().collect::<Vec<_>>(),
                        b.dictionary(c).iter().collect::<Vec<_>>(),
                        "{label}: dictionaries differ in column {c}"
                    );
                }
                for i in 0..a.n_shards() {
                    if let (Some(pa), Some(pb)) = (a.spill_path(i), b.spill_path(i)) {
                        assert_eq!(
                            std::fs::read(pa).expect("spill readable"),
                            std::fs::read(pb).expect("spill readable"),
                            "{label}: shard {i} spill files differ"
                        );
                    }
                    let (sa, sb) = (a.try_segment(i).unwrap(), b.try_segment(i).unwrap());
                    assert_eq!(sa.span(), sb.span(), "{label}: shard {i} span");
                    for c in 0..table.n_columns() {
                        assert_eq!(sa.col(c), sb.col(c), "{label}: shard {i} col {c}");
                    }
                }
            }
        }
    }
}

/// `a` and `b` hold the same spans, spill bytes, segment columns and
/// dictionaries, and neither carries a measure.
fn assert_same_categorical_store(a: &ShardedTable, b: &ShardedTable, label: &str) {
    assert_eq!(a.spans(), b.spans(), "{label}: spans");
    for i in 0..a.n_shards() {
        assert_eq!(
            a.spill_path(i)
                .map(|p| std::fs::read(p).expect("spill readable")),
            b.spill_path(i)
                .map(|p| std::fs::read(p).expect("spill readable")),
            "{label}: shard {i} spill bytes"
        );
        let (sa, sb) = (a.try_segment(i).unwrap(), b.try_segment(i).unwrap());
        for c in 0..a.n_columns() {
            assert_eq!(sa.col(c), sb.col(c), "{label}: shard {i} col {c}");
        }
        let measures = sa.table().measure_names().chain(sb.table().measure_names());
        assert_eq!(measures.count(), 0, "{label}: shard {i} carries a measure");
    }
    for c in 0..a.n_columns() {
        assert!(
            a.dictionary(c).iter().eq(b.dictionary(c).iter()),
            "{label}: column {c} dictionaries"
        );
    }
    let measures = a.header().measure_names().chain(b.header().measure_names());
    assert_eq!(measures.count(), 0, "{label}: a header names a measure");
}

/// Measures stop at the monolithic table: the sharded (resident and
/// spilled) and live builds of `retail(42)`, which carries `Sales`, are
/// byte for byte the builds of the same table without it.
#[test]
fn measured_tables_shard_and_go_live_as_their_categorical_columns() {
    let table = retail(42);
    assert!(table.measure("Sales").is_ok());
    let plain = without_measures(&table);
    for cfg in shard_configs(8) {
        let label = cfg_label(&cfg);
        assert_same_categorical_store(&sharded(&table, &cfg), &sharded(&plain, &cfg), &label);
    }
    for cfg in [
        LiveTableConfig::in_memory(1_000),
        LiveTableConfig::spilling(1_000, std::env::temp_dir()),
    ] {
        let a = LiveTable::from_table(&table, &cfg).unwrap().snapshot();
        let b = LiveTable::from_table(&plain, &cfg).unwrap().snapshot();
        assert_eq!((a.epoch, b.epoch), (1, 1));
        assert_same_categorical_store(&a.table, &b.table, &format!("live, {cfg:?}"));
    }
}

// ---------------------------------------------------------------------------
// Coverage + exact-count scan parity
// ---------------------------------------------------------------------------

/// `f64`s compared as bit patterns: parity here means *bitwise* equality,
/// not approximate equality.
fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// The row-at-a-time exact count (the loop the explorer's refresh used to
/// carry privately): the oracle both columnar count scans must equal.
fn count_rules_rowwise(table: &Table, rules: &[Rule]) -> Vec<f64> {
    let mut counts = vec![0.0f64; rules.len()];
    let mut codes: Vec<u32> = Vec::with_capacity(table.n_columns());
    for row in 0..table.n_rows() as u32 {
        table.row_codes(row, &mut codes);
        for (i, rule) in rules.iter().enumerate() {
            if rule.covers_codes(&codes) {
                counts[i] += 1.0;
            }
        }
    }
    counts
}

/// Every rule's covered rows in `range` of `store`, as the one batched
/// sweep streams them (per rule, the slices concatenated in arrival order).
fn batched_scan(
    store: &TableStore,
    rules: &[Rule],
    range: std::ops::Range<usize>,
) -> Vec<Vec<u32>> {
    let mut streams: Vec<Vec<u32>> = vec![Vec::new(); rules.len()];
    try_scan_rules_in_store(store, rules, range, |i, rows| {
        streams[i].extend_from_slice(rows)
    })
    .unwrap();
    streams
}

/// The scans the product runs over segments — `try_covered_rows_sharded`,
/// `try_covered_rows_sharded_range` and `try_count_rules_sharded` — are
/// bit-identical to their monolithic forms for every shard layout and both
/// construction paths, and both count scans equal the row-at-a-time oracle
/// on rules with 0, 1 and ≥ 2 instantiated columns, down to an empty table
/// (lint rule X001 requires each `*_sharded` entry point exercised here by
/// name).
#[test]
fn coverage_and_scoring_scans_are_bit_identical_across_shard_layouts() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0007);
    let mut tables: Vec<Table> = (0..6).map(|_| random_table(&mut rng)).collect();
    let no_rows: [[&str; 2]; 0] = [];
    tables.push(Table::from_rows(Schema::new(["c0", "c1"]).unwrap(), &no_rows).unwrap());
    for table in &tables {
        // Real rules built off the table's own dictionaries (when it has
        // any rows): the trivial rule, one size-1, one size-2 (often sparse
        // or empty), and a second size-1.
        let mut rules = vec![Rule::trivial(table.n_columns())];
        if table.n_rows() > 0 {
            let val = |c: usize, k: usize| {
                let card = table.cardinality(c);
                let (_, v) = table.dictionary(c).iter().nth(k % card).expect("in range");
                v.to_string()
            };
            let (v00, v01, v10) = (val(0, 0), val(0, 1), val(1, 0));
            rules.extend([
                Rule::from_pairs(table, &[("c0", v00.as_str())]).expect("dict value"),
                Rule::from_pairs(table, &[("c0", v01.as_str()), ("c1", v10.as_str())])
                    .expect("dict value"),
                Rule::from_pairs(table, &[("c1", v10.as_str())]).expect("dict value"),
            ]);
        }

        let n = table.n_rows();
        let mono_counts = count_rules(table, &rules);
        assert_eq!(
            bits(&mono_counts),
            bits(&count_rules_rowwise(table, &rules)),
            "count_rules vs row-at-a-time oracle"
        );
        let (lo, hi) = (n / 3, n - n / 4);

        // The monolithic table behind the store dispatch runs the same
        // sweep over row slices: it too must equal the twins.
        let whole = TableStore::Whole(Arc::new(table.clone()));
        assert_eq!(
            bits(&try_count_rules_in_store(&whole, &rules).unwrap()),
            bits(&mono_counts),
            "monolithic store: count_rules"
        );
        let mono_rows: Vec<Vec<u32>> = rules.iter().map(|r| covered_rows(table, r)).collect();
        assert_eq!(
            batched_scan(&whole, &rules, 0..n),
            mono_rows,
            "monolithic store: batched scan"
        );

        for shards in SHARD_COUNTS {
            for cfg in shard_configs(shards) {
                for (st, how) in builds(table, &cfg) {
                    let label = format!("{} [{how}]", cfg_label(&cfg));
                    assert_eq!(
                        bits(&try_count_rules_sharded(&st, &rules).unwrap()),
                        bits(&mono_counts),
                        "{label}: count_rules"
                    );
                    // The same sweep behind the store dispatch, and with
                    // the whole rule list sharing one pass: per rule, the
                    // slices the sink receives concatenate to the
                    // monolithic scan whatever else is in the batch.
                    let store = TableStore::Sharded(st.clone());
                    assert_eq!(
                        bits(&try_count_rules_in_store(&store, &rules).unwrap()),
                        bits(&mono_counts),
                        "{label}: count_rules through the store"
                    );
                    assert_eq!(
                        batched_scan(&store, &rules, 0..n),
                        mono_rows,
                        "{label}: batched scan"
                    );
                    for (rule, mono_rows) in rules.iter().zip(&mono_rows) {
                        assert_eq!(
                            &try_covered_rows_sharded(&st, rule).unwrap(),
                            mono_rows,
                            "{label}: covered_rows"
                        );
                        let in_range: Vec<u32> = mono_rows
                            .iter()
                            .copied()
                            .filter(|&r| (lo..hi).contains(&(r as usize)))
                            .collect();
                        assert_eq!(
                            try_covered_rows_sharded_range(&st, rule, lo..hi).unwrap(),
                            in_range,
                            "{label}: covered_rows over {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }
}

/// A table for the batch-scan property: `lo` (one of three values), `blk`
/// (clustered by row position, so most values are absent from most
/// segments), `mid` (`mid_card` values: two bytes wide past 256) and `hi`
/// (a new value per row for the first `hi_unique` rows, then a few repeats:
/// four bytes wide past 65 536).
fn batch_table(rng: &mut StdRng, n: usize, mid_card: u32, hi_unique: usize) -> Table {
    let rows: Vec<[String; 4]> = (0..n)
        .map(|i| {
            let blk = (i * 6 / n.max(1) + usize::from(rng.gen_bool(0.05))) % 6;
            [
                format!("l{}", rng.gen_range(0..3)),
                format!("k{blk}"),
                format!("m{}", rng.gen_range(0..mid_card)),
                format!("h{}", if i < hi_unique { i } else { i % 5 }),
            ]
        })
        .collect();
    Table::from_rows(Schema::new(["lo", "blk", "mid", "hi"]).unwrap(), &rows).unwrap()
}

/// A seeded batch over `table`: a base rule of 0–2 predicates and members
/// that keep it (sharing all), extend it (sharing all, plus their own),
/// drop or re-value one of its predicates (sharing some — a re-valued one
/// shares the column but not the code), random rules and the trivial rule
/// (sharing none), with one member repeated.
fn random_batch(rng: &mut StdRng, table: &Table) -> Vec<Rule> {
    let nc = table.n_columns();
    let code = |rng: &mut StdRng, c: usize| rng.gen_range(0..table.cardinality(c) as u32);
    let mut base = Rule::trivial(nc);
    for _ in 0..rng.gen_range(0..3) {
        let c = rng.gen_range(0..nc);
        base = base.with_value(c, code(rng, c));
    }
    let mut batch = Vec::new();
    for _ in 0..rng.gen_range(1..7) {
        let c = rng.gen_range(0..nc);
        let member = match rng.gen_range(0..6) {
            0 => base.clone(),
            1 | 2 => base.with_value(c, code(rng, c)),
            3 => base.with_star(c),
            4 => Rule::trivial(nc).with_value(c, code(rng, c)),
            _ => Rule::trivial(nc),
        };
        batch.push(member);
    }
    if let Some(c) = base
        .instantiated_columns()
        .next()
        .filter(|_| rng.gen_bool(0.5))
    {
        let other = (base.code(c) + 1) % table.cardinality(c) as u32;
        batch.push(base.with_value(c, other));
    }
    let again = batch[rng.gen_range(0..batch.len())].clone();
    batch.push(again);
    batch
}

/// A batch shares one sweep, and the predicates all its rules have in
/// common are masked once per block for all of them — yet each rule's
/// hits from `try_scan_rules_in_store` concatenate to exactly its covered
/// rows clipped to the range, as a row-at-a-time filter and a one-rule scan
/// find them: on monolithic, sharded (resident and spilled) and live
/// (resident and spilling) stores, over code columns of all three widths,
/// shared values absent from some segments, and ranges straddling every
/// segment seam.
#[test]
fn batched_scans_equal_per_rule_scans_on_every_store() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_4ED5);
    let mut tables: Vec<(Table, usize)> = (0..4)
        .map(|_| {
            let n = rng.gen_range(300..3_000);
            let mid_card = if rng.gen_bool(0.5) { 400 } else { 5 };
            (batch_table(&mut rng, n, mid_card, 0), 6)
        })
        .collect();
    tables.push((batch_table(&mut rng, 66_000, 300, 65_600), 2));
    for (table, n_batches) in &tables {
        let n = table.n_rows();
        let mut stores = vec![
            (
                TableStore::Whole(Arc::new(table.clone())),
                "whole".to_owned(),
            ),
            (live_store(table, false), "live, resident".to_owned()),
            (live_store(table, true), "live, spilling".to_owned()),
        ];
        for shards in [1, 3, 7] {
            for cfg in shard_configs(shards) {
                stores.push((TableStore::Sharded(sharded(table, &cfg)), cfg_label(&cfg)));
            }
        }
        // Beside the seeded batches, two pinned ones over every column.
        // The first shares a `blk` value from the middle rows (absent from
        // the outer segments) and, but for one rule that re-values it, a
        // `mid` one; its rules add `lo` or an `hi` value from the last row
        // (absent from the middle segments). The second shares nothing.
        let (mid_row, last_row) = (n as u32 / 2, n as u32 - 1);
        let base = Rule::trivial(4)
            .with_value(1, table.code(mid_row, 1))
            .with_value(2, table.code(mid_row, 2));
        let hi = table.code(last_row, 3);
        let mut batches = vec![
            vec![
                base.clone(),
                base.with_value(0, table.code(mid_row, 0)),
                base.with_value(3, hi),
                base.with_value(2, table.code(0, 2)),
                base.clone(),
            ],
            vec![
                base.with_value(1, table.code(0, 1)),
                Rule::trivial(4).with_value(3, hi),
                Rule::trivial(4),
            ],
        ];
        batches.extend((0..*n_batches).map(|_| random_batch(&mut rng, table)));
        for batch in batches {
            let covered: Vec<Vec<u32>> = batch.iter().map(|r| covered_rows(table, r)).collect();
            for (rule, covered) in batch.iter().zip(&covered) {
                let rowwise: Vec<u32> = (0..n as u32)
                    .filter(|&r| rule.covers_row(table, r))
                    .collect();
                assert_eq!(covered, &rowwise, "covered_rows vs row-at-a-time: {rule:?}");
            }
            for (store, label) in &stores {
                let seams: Vec<usize> = store
                    .as_sharded()
                    .map_or_else(Vec::new, |st| st.spans().iter().map(|s| s.start).collect());
                let mut ranges = vec![0..n, rng.gen_range(0..n)..n + 9];
                ranges.extend(seams.iter().map(|&s| s.saturating_sub(70)..s + 2_100));
                for range in ranges {
                    let streams = batched_scan(store, &batch, range.clone());
                    for ((rule, stream), covered) in batch.iter().zip(&streams).zip(&covered) {
                        let want: Vec<u32> = covered
                            .iter()
                            .copied()
                            .filter(|&r| range.contains(&(r as usize)))
                            .collect();
                        assert_eq!(stream, &want, "{label}: {rule:?} over {range:?}");
                        let alone = batched_scan(store, std::slice::from_ref(rule), range.clone());
                        assert_eq!(alone[0], want, "{label}: {rule:?} alone over {range:?}");
                    }
                }
            }
        }
    }
}

/// Every fallible per-shard call turns a shard index past the last shard
/// into an error (`None` for `spill_path`) on resident and spilling tables
/// alike, and reads nothing.
#[test]
fn out_of_range_shard_indices_are_errors_not_panics() {
    let table = retail(42);
    for cfg in shard_configs(3) {
        let st = sharded(&table, &cfg);
        let n = st.n_shards();
        for i in [n, n + 1, usize::MAX] {
            let want = Some(format!("shard {i} out of range: the table has {n} shards"));
            let segment = st.try_segment(i).err().map(|e| e.to_string());
            assert_eq!(segment, want, "{}", cfg_label(&cfg));
            assert_eq!(st.read_columns(i, &[0]).err().map(|e| e.to_string()), want);
            assert!(st.spill_path(i).is_none());
        }
        assert_eq!(st.loads(), 0, "a rejected index is not a load");
    }
}
