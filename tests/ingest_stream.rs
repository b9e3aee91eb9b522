//! Streaming out-of-core ingest suite: the memory-bound build guarantee
//! (ingest never materializes the monolithic table), pin-aware residency
//! accounting under concurrent scans, and the
//! CSV-file end-to-end path (stream ingest ⇔ materialize-then-shard
//! bit-identity, up through served engine transcripts).
//!
//! Complements `tests/shard_parity.rs`, which runs every cross-shard parity
//! case on both construction paths; this file owns the *resource* contracts
//! (what is in memory, when) that parity alone cannot see.

use smart_drilldown::core::{
    find_best_marginal_rule, try_find_best_marginal_rule_sharded, SearchOptions, SearchScratch,
    SizeWeight,
};
use smart_drilldown::datagen::{census, retail};
use smart_drilldown::server::{Engine, EngineConfig, OpenOptions, Request};
use smart_drilldown::table::csv::{read_csv_with_measures, stream_csv_file, write_csv};
use smart_drilldown::table::{ShardConfig, ShardedTable, ShardedView, Table, TableStore};
use std::sync::{Arc, Barrier};

/// Writes `table` as a CSV fixture under the temp dir, named uniquely per
/// process and call site.
fn csv_fixture(table: &Table, tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sdd-ingest-{}-{tag}.csv", std::process::id()));
    std::fs::write(&path, write_csv(table)).expect("write CSV fixture");
    path
}

fn spilling(shards: usize, resident: usize) -> ShardConfig {
    ShardConfig::spilling(shards, resident, std::env::temp_dir())
}

// ---------------------------------------------------------------------------
// Memory-bound build
// ---------------------------------------------------------------------------

/// The acceptance-criterion test: an ingest with `resident = 1` completes
/// without ever materializing the monolithic table. The counters pin the
/// whole story — every segment is spilled exactly once as it seals
/// (`spills == n_shards`), nothing is ever read back or decoded during the
/// build (`loads == 0`, `evictions == 0`, `peak_resident == 0`), and the
/// first scan afterwards holds at most `resident + 1` decoded segments at
/// a time (the resident one plus the in-flight pin).
#[test]
fn streaming_ingest_with_resident_one_is_memory_bound() {
    let table = census(8_000, 1990).project_first_columns(3);
    let path = csv_fixture(&table, "membound");
    let st = stream_csv_file(&path, &[], &spilling(10, 1)).expect("stream ingest");
    assert_eq!(st.n_rows(), table.n_rows());
    assert_eq!(st.n_shards(), 10);

    // Build-time counters: the build streamed.
    assert_eq!(st.spills(), 10, "each segment spilled exactly once");
    assert_eq!(st.loads(), 0, "the build never read a segment back");
    assert_eq!(st.evictions(), 0, "nothing was cached, so nothing evicted");
    assert_eq!(
        st.peak_resident(),
        0,
        "no decoded segment existed during the build — the monolithic table was never materialized"
    );

    // A full sequential scan decodes segments one at a time under the
    // budget and reproduces the reference columns exactly.
    for i in 0..st.n_shards() {
        let seg = st.try_segment(i).unwrap();
        for c in 0..table.n_columns() {
            assert_eq!(
                seg.col(c),
                &table.column(c)[seg.span()],
                "shard {i} col {c}"
            );
        }
    }
    assert_eq!(st.loads(), 10, "cold cache: one load per shard");
    assert!(
        st.peak_resident() <= 1 + 1,
        "scan held {} decoded segments; budget 1 allows resident + 1",
        st.peak_resident()
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Pin-aware budget accounting
// ---------------------------------------------------------------------------

/// A gather fetches its shards one at a time — bucket the rows by shard,
/// read one segment transiently, scatter its rows into output order,
/// release it — so under `resident = 1` a gather over rows from *every*
/// shard, in a reservoir's scrambled order, holds nothing resident that
/// was not already, leaves nothing pinned, pays exactly one load per shard
/// that was not already resident, and neither fills nor churns the cache.
#[test]
fn gather_pins_one_segment_at_a_time() {
    let table = census(8_000, 1990).project_first_columns(3);
    let st = ShardedTable::from_table(&table, &spilling(10, 1)).expect("shard build");
    let n = table.n_rows();
    let rows: Vec<u32> = (0..400).map(|i| ((i * 7919) % n) as u32).collect();
    let touched: std::collections::BTreeSet<usize> =
        rows.iter().map(|&r| st.shard_of_row(r).unwrap()).collect();
    assert_eq!(
        touched.len(),
        st.n_shards(),
        "rows must come from every shard"
    );

    let got = st.try_gather_rows(&rows).expect("gather");
    let want = table.gather_rows(&rows);
    assert_eq!(got.n_rows(), rows.len());
    for c in 0..table.n_columns() {
        assert_eq!(got.column(c), want.column(c), "col {c}");
    }
    assert_eq!(st.pinned(), 0, "gather left segments pinned");
    assert_eq!(st.loads(), 10, "cold cache: one load per touched shard");
    assert_eq!(
        (st.resident_count(), st.peak_resident(), st.evictions()),
        (0, 0, 0),
        "a gather reads transiently: it must not fill or churn the cache"
    );

    // Warm cache: the one resident segment is copied from in place — not
    // reloaded, and not evicted on the way to it.
    let resident = st.try_segment(4).expect("load");
    drop(resident);
    assert_eq!(st.loads(), 11);
    let again = st.try_gather_rows(&rows).expect("gather");
    for c in 0..table.n_columns() {
        assert_eq!(again.column(c), want.column(c), "col {c}, warm");
    }
    assert_eq!(st.loads(), 20, "a resident shard must not be reloaded");
    assert_eq!((st.resident_count(), st.evictions()), (1, 0));

    // A batch shares the visit: three samples cost what one does.
    let halves = [&rows[..200], &rows[200..], &rows[100..300]];
    let tables = st.try_gather_batch(&halves).expect("batched gather");
    assert_eq!(st.loads(), 29, "one load per non-resident shard per batch");
    for (rows, got) in halves.iter().zip(&tables) {
        let want = table.gather_rows(rows);
        for c in 0..table.n_columns() {
            assert_eq!(got.column(c), want.column(c), "col {c}, batched");
        }
    }
}

/// A search over rows of a segmented store is a gather plus the one kernel,
/// so it inherits the gather's residency contract: over a cold 8-shard
/// table at `resident = 1`, an all-rows search loads every shard exactly
/// once — not once per counting pass — never holds more than the resident
/// segment plus the one in flight, and leaves nothing pinned.
#[test]
fn search_over_sharded_rows_loads_each_shard_once() {
    let table = census(8_000, 1990).project_first_columns(3);
    let st = Arc::new(ShardedTable::from_table(&table, &spilling(8, 1)).expect("shard build"));
    let cov = vec![0.0f64; table.n_rows()];
    let opts = SearchOptions::new(3.0);
    let mono = find_best_marginal_rule(&table.view(), &SizeWeight, &cov, &opts).expect("a rule");
    assert!(
        mono.stats.passes > 1,
        "the search must count more than once"
    );

    let view = ShardedView::all(st.clone());
    let mut scratch = SearchScratch::new();
    let got = try_find_best_marginal_rule_sharded(&view, &SizeWeight, &cov, &opts, &mut scratch)
        .expect("spill files decode")
        .expect("a rule");
    assert_eq!(got.rule, mono.rule);
    assert_eq!(got.marginal_value.to_bits(), mono.marginal_value.to_bits());
    assert_eq!(got.count.to_bits(), mono.count.to_bits());
    assert_eq!(got.stats, mono.stats);

    assert_eq!(st.loads(), st.n_shards() as u64, "one load per shard");
    assert!(
        st.peak_resident() <= 2,
        "search held {} segments under a budget of 1",
        st.peak_resident()
    );
    assert_eq!(st.pinned(), 0, "search left segments pinned");
}

/// Regression for the ROADMAP known issue: in-flight segment `Arc`s used to
/// leave the cache's resident count dishonest (evicted-but-held segments
/// occupied memory the budget never saw). Pinned segments now stay in the
/// cache and count against the budget: under `resident = 1` with
/// concurrent scans, every atomic snapshot satisfies
/// `resident ≤ resident_budget + pinned`.
#[test]
fn concurrent_scans_stay_within_resident_plus_pinned() {
    let table = Arc::new(census(3_000, 7).project_first_columns(3));
    let st = Arc::new(ShardedTable::from_table(&table, &spilling(6, 1)).expect("shard build"));
    let threads = 4usize;
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let (st, table, barrier) = (st.clone(), table.clone(), barrier.clone());
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for pass in 0..3 {
                for i in 0..st.n_shards() {
                    // Hold the pin across the verification scan, as a real
                    // kernel pass does.
                    let seg = st.try_segment(i).unwrap();
                    for c in 0..table.n_columns() {
                        assert_eq!(
                            seg.col(c),
                            &table.column(c)[seg.span()],
                            "thread {t} pass {pass} shard {i} col {c}"
                        );
                    }
                }
            }
        }));
    }
    barrier.wait();
    // Sample the invariant while the scans churn the cache.
    for _ in 0..2_000 {
        let (resident, pinned) = st.resident_and_pinned();
        assert!(
            resident <= st.resident_budget() + pinned,
            "budget busted: {resident} resident with {pinned} pinned under budget {}",
            st.resident_budget()
        );
        assert!(pinned <= threads + 1, "more pins than pinners");
    }
    for h in handles {
        h.join().expect("scan thread");
    }
    // All pins released: the cache settles back to the budget.
    let (resident, pinned) = st.resident_and_pinned();
    assert_eq!(pinned, 0);
    assert!(resident <= st.resident_budget());
}

// ---------------------------------------------------------------------------
// CSV end-to-end
// ---------------------------------------------------------------------------

/// One scripted protocol session (raw request lines, in order).
fn session_script(name: &str) -> Vec<String> {
    let session = name.to_owned();
    let reqs = [
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

/// The full out-of-core pipeline on a real CSV file with a measure column:
/// `stream_csv_file` must be bit-identical to `read_csv_with_measures` +
/// `from_table` — segment columns, spill bytes, measures — and an [`Engine`]
/// serving the streamed store must produce byte-identical transcripts to
/// one serving the materialized monolithic table, while its storage
/// counters show the spill tier actually carried the session.
#[test]
fn csv_stream_ingest_matches_materialized_ingest_up_to_served_transcripts() {
    let table = retail(42);
    let path = csv_fixture(&table, "e2e");
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    let materialized = read_csv_with_measures(&text, &["Sales"]).expect("parse CSV");

    for cfg in [spilling(8, 2), ShardConfig::in_memory(5), spilling(4, 1)] {
        let streamed = Arc::new(stream_csv_file(&path, &["Sales"], &cfg).expect("stream ingest"));
        let reference =
            Arc::new(ShardedTable::from_table(&materialized, &cfg).expect("shard build"));
        assert_eq!(streamed.spans(), reference.spans());
        for i in 0..streamed.n_shards() {
            if let (Some(pa), Some(pb)) = (streamed.spill_path(i), reference.spill_path(i)) {
                assert_eq!(
                    std::fs::read(pa).unwrap(),
                    std::fs::read(pb).unwrap(),
                    "shard {i}: spill files differ"
                );
            }
            let (sa, sb) = (
                streamed.try_segment(i).unwrap(),
                reference.try_segment(i).unwrap(),
            );
            for c in 0..streamed.n_columns() {
                assert_eq!(sa.col(c), sb.col(c), "shard {i} col {c}");
            }
            let (ma, mb) = (
                sa.table().measure("Sales").unwrap(),
                sb.table().measure("Sales").unwrap(),
            );
            assert_eq!(
                ma.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                mb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shard {i}: Sales bits differ"
            );
        }

        // Served transcripts: streamed store vs the monolithic table.
        let script = session_script("ingest-e2e");
        let run = |engine: &Engine| -> Vec<String> {
            script.iter().map(|l| engine.handle_line(l).0).collect()
        };
        let mono_engine = Engine::new(Arc::new(materialized.clone()), EngineConfig::default());
        let stream_engine = Engine::with_store(
            TableStore::Sharded(streamed.clone()),
            EngineConfig::default(),
        );
        assert!(mono_engine.storage_counters().is_none());
        assert_eq!(
            run(&stream_engine),
            run(&mono_engine),
            "served transcripts diverge on the streamed store"
        );
        let (loads, _evictions, spills, peak) = stream_engine
            .storage_counters()
            .expect("sharded store has counters");
        if cfg.resident > 0 {
            assert!(loads > 0, "the served session never touched the spill tier");
            assert_eq!(spills, streamed.n_shards() as u64);
            // The honest peak bound for a served session is budget + the
            // most segments any operation pins at once: `gather_rows`
            // (sample materialization) deliberately pins every distinct
            // shard of a reservoir up front — under the old accounting the
            // same bytes were in flight but invisible to the counter.
            assert!(
                peak <= cfg.resident + streamed.n_shards(),
                "peak {peak} exceeds budget {} + {} pinnable shards",
                cfg.resident,
                streamed.n_shards()
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Structural and numeric CSV errors surface from the streaming path with
/// the same classifications as the materializing reader, and a failed
/// ingest cleans up after itself (no table, no panic).
#[test]
fn stream_ingest_surfaces_csv_errors() {
    use smart_drilldown::table::TableError;
    let cases: &[(&str, &str)] = &[
        ("a,b\n1,2\n3\n", "arity"),
        ("a\n\"oops\n", "quote"),
        ("Store,Sales\nWalmart,lots\n", "measure"),
        ("", "empty"),
    ];
    for (text, what) in cases {
        let path = csv_fixture_text(text, what);
        let measures: &[&str] = if *what == "measure" { &["Sales"] } else { &[] };
        let got = stream_csv_file(&path, measures, &spilling(3, 1));
        match (what, got) {
            (&"arity", Err(TableError::Csv { line, .. })) => assert_eq!(line, 3),
            (&"quote", Err(TableError::Csv { .. })) => {}
            (&"measure", Err(TableError::ParseNumber(v))) => assert_eq!(v, "lots"),
            (&"empty", Err(TableError::Empty)) => {}
            (what, got) => panic!("{what}: unexpected result {got:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

fn csv_fixture_text(text: &str, tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("sdd-ingest-err-{}-{tag}.csv", std::process::id()));
    std::fs::write(&path, text).expect("write CSV fixture");
    path
}
