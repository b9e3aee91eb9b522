//! Streaming out-of-core ingest suite: the memory-bound build guarantee
//! (ingest never materializes the monolithic table), the guarantee that no
//! scan, gather, search or served session leaves a spilled shard decoded —
//! alone or under concurrent scans — and the CSV-file end-to-end path
//! (stream ingest ⇔ materialize-then-shard bit-identity, up through served
//! engine transcripts).
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
use smart_drilldown::table::csv::{
    read_csv, read_csv_with_measures, stream_csv_file, stream_csv_live, write_csv,
};
use smart_drilldown::table::{
    LiveTable, LiveTableConfig, ShardConfig, ShardedTable, ShardedView, Table, TableStore,
};
use std::sync::{Arc, Barrier};

/// Writes `table` as a CSV fixture under the temp dir, named uniquely per
/// process and call site.
fn csv_fixture(table: &Table, tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sdd-ingest-{}-{tag}.csv", std::process::id()));
    std::fs::write(&path, write_csv(table)).expect("write CSV fixture");
    path
}

fn spilling(shards: usize) -> ShardConfig {
    ShardConfig::spilling(shards, 0, std::env::temp_dir())
}

/// No shard of `st` is held decoded by the table: every one is spilled.
fn nothing_decoded(st: &ShardedTable) -> bool {
    (0..st.n_shards()).all(|i| st.resident_segment(i).is_none())
}

// ---------------------------------------------------------------------------
// Memory-bound build
// ---------------------------------------------------------------------------

/// The acceptance-criterion test: a spilling ingest completes without ever
/// materializing the monolithic table. The counters pin the whole story —
/// every segment is spilled exactly once as it seals (`spills ==
/// n_shards`), nothing is read back during the build (`loads == 0`), no
/// shard is held decoded — and a full scan afterwards decodes one segment
/// at a time, each a copy only the scan holds, and leaves none behind.
#[test]
fn streaming_ingest_with_resident_one_is_memory_bound() {
    let table = census(8_000, 1990).project_first_columns(3);
    let path = csv_fixture(&table, "membound");
    let st = stream_csv_file(&path, &spilling(10)).expect("stream ingest");
    assert_eq!(st.n_rows(), table.n_rows());
    assert_eq!(st.n_shards(), 10);

    // Build-time counters: the build streamed.
    assert_eq!(st.spills(), 10, "each segment spilled exactly once");
    assert_eq!(st.loads(), 0, "the build never read a segment back");
    assert!(
        nothing_decoded(&st),
        "a decoded segment outlived the build — the monolithic table was materialized"
    );

    // A full sequential scan reproduces the reference columns exactly; the
    // table keeps no reference to any segment it decodes.
    for i in 0..st.n_shards() {
        let seg = st.try_segment(i).unwrap();
        assert_eq!(Arc::strong_count(&seg), 1, "shard {i} was kept decoded");
        for c in 0..table.n_columns() {
            assert_eq!(
                seg.col(c),
                &table.column(c).slice(seg.span()),
                "shard {i} col {c}"
            );
        }
    }
    assert_eq!(st.loads(), 10, "one load per shard");
    assert!(nothing_decoded(&st));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Nothing spilled stays decoded
// ---------------------------------------------------------------------------

/// A gather fetches its shards one at a time — bucket the rows by shard,
/// read one shard transiently, scatter its rows into output order, drop
/// the read — so a gather over rows from *every* shard, in a reservoir's
/// scrambled order, pays exactly one load per shard, leaves no shard
/// decoded, and pays the same again next time: nothing it read was kept.
#[test]
fn gather_pins_one_segment_at_a_time() {
    let table = census(8_000, 1990).project_first_columns(3);
    let st = ShardedTable::from_table(&table, &spilling(10)).expect("shard build");
    let n = table.n_rows();
    let rows: Vec<u32> = (0..400).map(|i| ((i * 7919) % n) as u32).collect();
    let touched: std::collections::BTreeSet<usize> =
        rows.iter().map(|&r| st.shard_of_row(r).unwrap()).collect();
    assert_eq!(
        touched.len(),
        st.n_shards(),
        "rows must come from every shard"
    );

    let want = table.gather_rows(&rows);
    for pass in 1..=2u64 {
        let got = st.try_gather_rows(&rows).expect("gather");
        assert_eq!(got.n_rows(), rows.len());
        for c in 0..table.n_columns() {
            assert_eq!(got.column(c), want.column(c), "pass {pass}, col {c}");
        }
        assert_eq!(st.loads(), 10 * pass, "one load per touched shard");
        assert!(nothing_decoded(&st), "a gather left a shard decoded");
    }

    // A batch shares the visit: three samples cost what one does.
    let halves = [&rows[..200], &rows[200..], &rows[100..300]];
    let tables = st.try_gather_batch(&halves).expect("batched gather");
    assert_eq!(st.loads(), 30, "one load per shard per batch");
    for (rows, got) in halves.iter().zip(&tables) {
        let want = table.gather_rows(rows);
        for c in 0..table.n_columns() {
            assert_eq!(got.column(c), want.column(c), "col {c}, batched");
        }
    }
}

/// A search over rows of a segmented store is a gather plus the one kernel,
/// so it inherits the gather's contract: over an 8-shard spilling table, an
/// all-rows search loads every shard exactly once — not once per counting
/// pass — and leaves no shard decoded.
#[test]
fn search_over_sharded_rows_loads_each_shard_once() {
    let table = census(8_000, 1990).project_first_columns(3);
    let st = Arc::new(ShardedTable::from_table(&table, &spilling(8)).expect("shard build"));
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
    assert!(nothing_decoded(&st), "the search left a shard decoded");
}

/// Concurrent scans decode spilled shards independently: every segment a
/// thread gets is its own copy — the table holds no reference to it, not
/// even while other threads decode the same shard — every decode is one
/// counted load, and once the scans finish no shard is left decoded.
#[test]
fn concurrent_scans_stay_within_resident_plus_pinned() {
    let table = Arc::new(census(3_000, 7).project_first_columns(3));
    let st = Arc::new(ShardedTable::from_table(&table, &spilling(6)).expect("shard build"));
    let (threads, passes) = (4usize, 3usize);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let (st, table, barrier) = (st.clone(), table.clone(), barrier.clone());
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for pass in 0..passes {
                for i in 0..st.n_shards() {
                    // Hold the segment across the verification scan, as a
                    // real kernel pass does.
                    let seg = st.try_segment(i).unwrap();
                    assert_eq!(Arc::strong_count(&seg), 1, "thread {t}: shard {i} shared");
                    for c in 0..table.n_columns() {
                        assert_eq!(
                            seg.col(c),
                            &table.column(c).slice(seg.span()),
                            "thread {t} pass {pass} shard {i} col {c}"
                        );
                    }
                }
            }
        }));
    }
    barrier.wait();
    // Sample the invariant while the scans run.
    for _ in 0..2_000 {
        assert!(
            nothing_decoded(&st),
            "a concurrent scan left a shard decoded"
        );
    }
    for h in handles {
        h.join().expect("scan thread");
    }
    assert_eq!(st.loads(), (threads * passes * st.n_shards()) as u64);
    assert!(nothing_decoded(&st));
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
                ..OpenOptions::default()
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

/// The full out-of-core pipeline on a real CSV file: `stream_csv_file` must
/// be bit-identical to `read_csv` + `from_table` — segment columns, spill
/// bytes — and an [`Engine`] serving the streamed store must produce
/// byte-identical transcripts to one serving the materialized monolithic
/// table, while its storage counters show the spill tier actually carried
/// the session.
#[test]
fn csv_stream_ingest_matches_materialized_ingest_up_to_served_transcripts() {
    let path = csv_fixture(&retail(42), "e2e");
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    let materialized = read_csv(&text).expect("parse CSV");

    for cfg in [spilling(8), ShardConfig::in_memory(5), spilling(4)] {
        let streamed = Arc::new(stream_csv_file(&path, &cfg).expect("stream ingest"));
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
        let (loads, _, spills, _) = stream_engine
            .storage_counters()
            .expect("sharded store has counters");
        if cfg.spill_dir.is_some() {
            assert!(loads > 0, "the served session never touched the spill tier");
            assert_eq!(spills, streamed.n_shards() as u64);
            assert!(
                nothing_decoded(&streamed),
                "the served session left a shard decoded"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Structural CSV errors surface from the streaming path with the same
/// classifications as the materializing reader, and a failed ingest cleans
/// up after itself (no table, no panic).
#[test]
fn stream_ingest_surfaces_csv_errors() {
    use smart_drilldown::table::TableError;
    let cases: &[(&str, &str)] = &[
        ("a,b\n1,2\n3\n", "arity"),
        ("a\n\"oops\n", "quote"),
        ("", "empty"),
    ];
    for (text, what) in cases {
        let path = csv_fixture_text(text, what);
        let got = stream_csv_file(&path, &spilling(3));
        match (what, got) {
            (&"arity", Err(TableError::Csv { line, .. })) => assert_eq!(line, 3),
            (&"quote", Err(TableError::Csv { .. })) => {}
            (&"empty", Err(TableError::Empty)) => {}
            (what, got) => panic!("{what}: unexpected result {got:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A measure value weighs its row in a `Sum`, and BRS's `mw` bound holds
/// only for finite, non-negative weights: a CSV measure field holding
/// anything else fails the read with the line its record starts on.
#[test]
fn negative_nan_or_infinite_measures_fail_with_their_line() {
    use smart_drilldown::table::TableError;
    for v in ["-1", "NaN", "inf", "-inf", "-0.5"] {
        // The bad record starts on line 5: a blank line and a quoted
        // newline come before it.
        let text = format!("Store,Sales\n\"Wal\nmart\",1\n\nTarget,{v}\nCostco,2\n");
        match read_csv_with_measures(&text, &["Sales"]) {
            Err(TableError::Csv { line, message }) => {
                assert_eq!(line, 5, "{v}: {message}");
                assert!(message.contains(v), "{v}: {message}");
            }
            other => panic!("{v}: unexpected result {other:?}"),
        }
    }
    let text = "Store,Sales\nWalmart,0\nTarget,-0\nCostco,2.5\n";
    let (table, sales) = read_csv_with_measures(text, &["Sales"]).expect("non-negative weights");
    assert_eq!(table.n_rows(), 3);
    assert_eq!(sales, [[0.0, 0.0, 2.5]]);
}

fn csv_fixture_text(text: &str, tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("sdd-ingest-err-{}-{tag}.csv", std::process::id()));
    std::fs::write(&path, text).expect("write CSV fixture");
    path
}

// ---------------------------------------------------------------------------
// Live seeds
// ---------------------------------------------------------------------------

/// `a` and `b` hold the same spans, spill bytes, dictionaries and segment
/// codes.
fn assert_same_store(a: &ShardedTable, b: &ShardedTable, label: &str) {
    assert_eq!(a.spans(), b.spans(), "{label}: spans");
    for i in 0..a.n_shards() {
        match (a.spill_path(i), b.spill_path(i)) {
            (Some(pa), Some(pb)) => assert_eq!(
                std::fs::read(pa).expect("spill file"),
                std::fs::read(pb).expect("spill file"),
                "{label}: segment {i} spill bytes"
            ),
            (None, None) => {}
            _ => panic!("{label}: segment {i} is spilled on one side only"),
        }
        let (sa, sb) = (a.try_segment(i).unwrap(), b.try_segment(i).unwrap());
        for c in 0..a.n_columns() {
            assert_eq!(sa.col(c), sb.col(c), "{label}: segment {i} column {c}");
        }
    }
    for c in 0..a.n_columns() {
        assert!(
            a.dictionary(c).iter().eq(b.dictionary(c).iter()),
            "{label}: column {c} dictionaries"
        );
    }
}

/// The streamed `--tail` seed is the table one `try_append` of the same
/// rows builds — and so is a live table seeded from the loaded table: same
/// spans, spill bytes and dictionaries, at epoch 1, for a segment size of
/// 1, a divisor and a non-divisor of the row count, resident and spilled.
#[test]
fn a_streamed_live_seed_is_one_append_of_its_rows() {
    let all: Vec<u32> = (0..90).collect();
    let table = retail(42).gather_rows(&all);
    let path = csv_fixture(&table, "live-seed");
    let rows: Vec<Vec<&str>> = (0..table.n_rows() as u32)
        .map(|r| (0..table.n_columns()).map(|c| table.value(r, c)).collect())
        .collect();
    for rows_per_segment in [1, 30, 37] {
        for config in [
            LiveTableConfig::in_memory(rows_per_segment),
            LiveTableConfig::spilling(rows_per_segment, std::env::temp_dir()),
        ] {
            let label = format!("{rows_per_segment} rows per segment, {config:?}");
            let appended = LiveTable::new(table.schema().clone(), vec![], &config)
                .unwrap()
                .try_append(&rows, &[])
                .unwrap();
            let streamed = stream_csv_live(&path, &config).unwrap();
            let seeded = LiveTable::from_table(&table, &config).unwrap();
            for (live, how) in [(streamed, "streamed"), (seeded, "from_table")] {
                let snap = live.snapshot();
                assert_eq!(snap.epoch, 1, "{label}, {how}");
                assert_same_store(&snap.table, &appended.table, &format!("{label}, {how}"));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A malformed record in a live seed fails it with the line the record
/// starts on, after earlier rows sealed and spilled, and the failed build
/// leaves no spill directory behind.
#[test]
fn a_malformed_live_seed_reports_its_line_and_leaves_no_spill_directory() {
    use smart_drilldown::table::TableError;
    let dir = std::env::temp_dir().join(format!("sdd-live-seed-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");
    let path = csv_fixture_text("a,b\n1,2\n3,4\n\n5,6\n7\n", "live-seed");
    match stream_csv_live(&path, &LiveTableConfig::spilling(2, &dir)) {
        Err(TableError::Csv { line, .. }) => assert_eq!(line, 6),
        other => panic!("unexpected result {other:?}"),
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("spill dir").collect();
    assert!(left.is_empty(), "the failed seed left {left:?}");
    let _ = std::fs::remove_dir(&dir);
    let _ = std::fs::remove_file(&path);
}
