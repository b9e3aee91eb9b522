//! Spill-tier fault injection: a corrupted or truncated spill file must
//! surface as an error *response* on the session that needed it — never as
//! a panic that takes down the connection worker — and the engine must keep
//! serving every request that does not touch the damaged shard.

use sdd_server::{Engine, EngineConfig, OpenOptions, Request, Response, TailConfig};
use sdd_table::{LiveTable, LiveTableConfig, Schema, ShardConfig, ShardedTable, TableStore};
use std::sync::Arc;

fn spilling_engine() -> (Engine, Arc<ShardedTable>) {
    spilling_engine_with(EngineConfig::default())
}

fn spilling_engine_with(config: EngineConfig) -> (Engine, Arc<ShardedTable>) {
    let table = sdd_datagen::retail(42);
    let st = Arc::new(
        ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, std::env::temp_dir()))
            .unwrap(),
    );
    (
        Engine::with_store(TableStore::Sharded(st.clone()), config),
        st,
    )
}

fn open(engine: &Engine, session: &str) -> Response {
    engine
        .handle(&Request::Open {
            session: session.to_owned(),
            options: OpenOptions {
                k: Some(3),
                max_weight: Some(3.0),
                weight: Some("size".to_owned()),
                seed: Some(7),
                capacity: Some(20_000),
                min_ss: Some(1_000),
                ..OpenOptions::default()
            },
        })
        .0
}

#[test]
fn truncated_spill_file_yields_error_response_not_crash() {
    let (engine, st) = spilling_engine();
    assert!(matches!(open(&engine, "s"), Response::Opened { .. }));

    // Damage a spilled shard behind the engine's back; nothing keeps it
    // decoded, so the next scan reads the damaged file.
    let path = st.spill_path(0).unwrap().to_path_buf();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..16]).unwrap();

    // The expansion needs a Create scan over every shard → error response.
    let (resp, _) = engine.handle(&Request::Expand {
        session: "s".to_owned(),
        path: vec![],
    });
    match resp {
        Response::Error { message } => {
            assert!(
                message.contains("storage error"),
                "expected a storage error, got: {message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // The engine (and the session) survive: requests still work.
    assert!(matches!(engine.handle(&Request::Ping).0, Response::Pong));
    assert!(matches!(
        engine
            .handle(&Request::Rules {
                session: "s".to_owned()
            })
            .0,
        Response::RuleList { .. }
    ));

    // Restore the file: the very same session recovers.
    std::fs::write(&path, &bytes).unwrap();
    let (resp, _) = engine.handle(&Request::Expand {
        session: "s".to_owned(),
        path: vec![],
    });
    assert!(
        matches!(resp, Response::Expanded { .. }),
        "session must recover once the file is intact: {resp:?}"
    );
}

/// A remap entry naming a global code the dictionary does not hold reads
/// back as corrupt, so the root expansion — whose gather decodes it —
/// answers an error response instead of indexing a per-value count array
/// out of bounds in the search that follows.
#[test]
fn a_damaged_remap_entry_yields_error_response_not_crash() {
    let (engine, st) = spilling_engine();
    assert!(matches!(open(&engine, "s"), Response::Opened { .. }));
    // Column 0's first remap entry (header: 16 bytes, then u64 column
    // offsets; blob: u32 remap length, then the remap).
    let path = st.spill_path(0).unwrap().to_path_buf();
    let intact = std::fs::read(&path).unwrap();
    let at = u64::from_le_bytes(intact[16..24].try_into().unwrap()) as usize + 4;
    let mut damaged = intact.clone();
    damaged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &damaged).unwrap();

    let expand = || {
        engine
            .handle(&Request::Expand {
                session: "s".to_owned(),
                path: vec![],
            })
            .0
    };
    match expand() {
        Response::Error { message } => assert!(
            message.contains("global code out of range"),
            "expected the damaged remap to read as corrupt, got: {message}"
        ),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(matches!(engine.handle(&Request::Ping).0, Response::Pong));

    std::fs::write(&path, &intact).unwrap();
    let resp = expand();
    assert!(
        matches!(resp, Response::Expanded { .. }),
        "session must recover once the file is intact: {resp:?}"
    );
}

/// A deferred prefetch job scans the store *after* the expansion that
/// scheduled it was answered from memory. A damaged spill file at that
/// point must not panic the worker or poison the session: the job stores
/// nothing, the next request that needs the damaged shard answers with an
/// error response, and the session recovers once the file is intact.
#[test]
fn a_prefetch_over_a_truncated_spill_file_is_an_error_response() {
    let (engine, st) = spilling_engine();
    assert!(matches!(open(&engine, "s"), Response::Opened { .. }));
    let expand = |path: Vec<usize>| {
        engine
            .handle(&Request::Expand {
                session: "s".to_owned(),
                path,
            })
            .0
    };
    let stats = || match engine
        .handle(&Request::Stats {
            session: "s".to_owned(),
        })
        .0
    {
        Response::Stats { stats } => (stats.creates, stats.stored_samples),
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(matches!(expand(vec![]), Response::Expanded { .. }));
    // The stats request drains the root's prefetch job over intact files.
    let before = stats();

    let path = st.spill_path(2).unwrap().to_path_buf();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..16]).unwrap();

    // The root's prefetch stored this child's sample: the drill-down is
    // served from memory, and only its own prefetch job touches disk.
    assert!(matches!(expand(vec![0]), Response::Expanded { .. }));
    engine.run_pending_prefetch("s");
    assert_eq!(stats(), before, "the failed job must store nothing");
    match expand(vec![0, 0]) {
        Response::Error { message } => assert!(
            message.contains("storage error"),
            "expected a storage error, got: {message}"
        ),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(matches!(engine.handle(&Request::Ping).0, Response::Pong));

    std::fs::write(&path, &bytes).unwrap();
    let resp = expand(vec![0, 0]);
    assert!(
        matches!(resp, Response::Expanded { .. }),
        "session must recover once the file is intact: {resp:?}"
    );
}

/// A batch is atomic under faults. With stored samples that a five-rule
/// prefetch would replace and evict, a spill fault — during the scan, or
/// only once the drawn samples are gathered — must leave the stored
/// samples and the counters exactly as they were, and the retry after the
/// file is restored must store what a handler that never faulted stores.
#[test]
fn a_faulted_prefetch_batch_changes_nothing_and_retries_cleanly() {
    use sdd_core::Rule;
    use sdd_sampling::{PrefetchEntry, SampleHandler, SampleHandlerConfig};

    let table = sdd_datagen::retail(42);
    let st = Arc::new(
        ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, std::env::temp_dir()))
            .unwrap(),
    );
    let handler = || {
        let config = SampleHandlerConfig {
            capacity: 2_000,
            min_sample_size: 400,
            seed: 7,
        };
        let mut h = SampleHandler::with_store(TableStore::Sharded(st.clone()), config);
        // One sample the batch replaces, and enough beside it that the
        // batch must evict to fit.
        for pairs in [&[("Store", "Walmart")][..], &[("Region", "MA-3")], &[]] {
            let rule = Rule::from_pairs(h.table(), pairs).unwrap();
            h.try_create_batch(&[(rule, 600)]).unwrap();
        }
        h
    };
    let entries: Vec<PrefetchEntry> = [
        (&[("Store", "Walmart")][..], 1.0 / 6.0),
        (&[("Store", "Target")], 1.0 / 30.0),
        (&[("Product", "cookies")], 0.2),
        (&[("Product", "bicycles")], 0.1),
    ]
    .into_iter()
    .map(|(pairs, selectivity)| PrefetchEntry {
        rule: Rule::from_pairs(st.header(), pairs).unwrap(),
        probability: 0.25,
        selectivity,
    })
    .collect();
    let trivial = Rule::trivial(3);

    // What the batch does when nothing goes wrong.
    let mut clean = handler();
    clean.try_prefetch(&trivial, &entries).unwrap();
    assert_eq!(
        (clean.n_samples(), clean.stats.evictions),
        (5, 1),
        "the batch must replace one stored sample and evict another"
    );

    let path = st.spill_path(2).unwrap().to_path_buf();
    let intact = std::fs::read(&path).unwrap();
    // Fault 1 — the scan fails: the file is cut short inside its header.
    let truncated = intact[..16].to_vec();
    // Fault 2 — only the gather fails: the batch's rules read `Store` and
    // `Product`, so a bad width byte in `Region`'s blob (column 2; header:
    // 16 bytes, then u64 column offsets; blob: u32 remap length, remap,
    // width) passes every range read and trips the whole-file validation.
    let mut bad_region = intact.clone();
    let offset = |c: usize| {
        let at = 16 + 8 * c;
        u64::from_le_bytes(intact[at..at + 8].try_into().unwrap()) as usize
    };
    let remap_len = u32::from_le_bytes(intact[offset(2)..offset(2) + 4].try_into().unwrap());
    bad_region[offset(2) + 4 + 4 * remap_len as usize] = 3;

    for (fault, label) in [(truncated, "scan fault"), (bad_region, "gather fault")] {
        let mut h = handler();
        let (samples, stats) = (h.stored_samples(), h.stats);
        std::fs::write(&path, &fault).unwrap();
        let err = h.try_prefetch(&trivial, &entries).unwrap_err();
        assert!(
            matches!(err, sdd_table::TableError::Corrupt(_)),
            "{label}: {err}"
        );
        assert_eq!(h.stored_samples(), samples, "{label}: the store moved");
        assert_eq!(h.stats, stats, "{label}: the counters moved");

        std::fs::write(&path, &intact).unwrap();
        h.try_prefetch(&trivial, &entries).unwrap();
        assert_eq!(h.stored_samples(), clean.stored_samples(), "{label}: retry");
        assert_eq!(h.stats, clean.stats, "{label}: retry counters");
    }
}

/// A live sync is atomic under faults too. With three stored samples over
/// a spilling live table, damage to a segment the append sealed — caught by
/// the scan of the appended range, or only by the (smaller) gather of the
/// newly drawn rows — must leave the samples, the pinned epoch and the
/// counters exactly as they were, and the retry after the file is restored
/// must leave what a handler that never faulted holds.
#[test]
fn a_faulted_sync_changes_nothing_and_retries_cleanly() {
    use sdd_core::{view_digest, Rule};
    use sdd_sampling::{SampleHandler, SampleHandlerConfig};

    let table = sdd_datagen::retail(42);
    let rows: Vec<Vec<&str>> = (0..4_700u32)
        .map(|r| (0..3).map(|c| table.value(r, c)).collect())
        .collect();
    let cfg = LiveTableConfig::spilling(500, std::env::temp_dir());
    let live = Arc::new(LiveTable::new(table.schema().clone(), vec![], &cfg).unwrap());
    live.try_append(&rows[..3_200], &[]).unwrap();
    let handler = || {
        let config = SampleHandlerConfig {
            capacity: 5_000,
            min_sample_size: 300,
            seed: 7,
        };
        let mut h = SampleHandler::with_store(TableStore::from(live.clone()), config);
        for pairs in [&[("Store", "Walmart")][..], &[], &[("Product", "cookies")]] {
            let rule = Rule::from_pairs(h.table(), pairs).unwrap();
            h.try_create_batch(&[(rule, 300)]).unwrap();
        }
        h
    };
    let mut faulted = [handler(), handler()];
    let mut clean = handler();
    // The append finishes segment 6 and seals 7 and 8.
    let snap = live.try_append(&rows[3_200..], &[]).unwrap();
    clean.try_sync_to_snapshot(&snap).unwrap();
    let held = |h: &SampleHandler| {
        let tables: Vec<[u64; 2]> = h
            .stored_samples()
            .iter()
            .map(|s| view_digest(&h.peek_stored(&s.filter).unwrap().view.as_view()))
            .collect();
        (h.stored_samples(), tables, h.pinned_epoch(), h.stats)
    };

    let path = snap.table.spill_path(7).unwrap().to_path_buf();
    let intact = std::fs::read(&path).unwrap();
    // Fault 1 — the scan fails: the file is cut short inside its header.
    let truncated = intact[..16].to_vec();
    // Fault 2 — only the gather fails: the stored filters read `Store` and
    // `Product`, so a bad width byte in `Region`'s blob (column 2; layout
    // as in the prefetch test above) passes every range read of the scan
    // and trips the gather's whole-file validation.
    let mut bad_region = intact.clone();
    let offset = |c: usize| {
        let at = 16 + 8 * c;
        u64::from_le_bytes(intact[at..at + 8].try_into().unwrap()) as usize
    };
    let remap_len = u32::from_le_bytes(intact[offset(2)..offset(2) + 4].try_into().unwrap());
    bad_region[offset(2) + 4 + 4 * remap_len as usize] = 3;

    // (damaged bytes, label, whether the scan's three reads complete first)
    let faults = [
        (truncated, "scan fault", false),
        (bad_region, "gather fault", true),
    ];
    for (h, (fault, label, scan_completes)) in faulted.iter_mut().zip(faults) {
        let before = held(h);
        let loads = snap.table.loads();
        std::fs::write(&path, &fault).unwrap();
        let err = h.try_sync_to_snapshot(&snap).unwrap_err();
        assert!(
            matches!(err, sdd_table::TableError::Corrupt(_)),
            "{label}: {err}"
        );
        assert_eq!(held(h), before, "{label}: the handler moved");
        assert_eq!(snap.table.loads() - loads >= 3, scan_completes, "{label}");

        std::fs::write(&path, &intact).unwrap();
        h.try_sync_to_snapshot(&snap).unwrap();
        assert_eq!(held(h), held(&clean), "{label}: retry");
    }
}

#[test]
fn refresh_surfaces_spill_errors_as_responses() {
    let (engine, st) = spilling_engine();
    assert!(matches!(open(&engine, "s"), Response::Opened { .. }));
    let (resp, _) = engine.handle(&Request::Expand {
        session: "s".to_owned(),
        path: vec![],
    });
    assert!(matches!(resp, Response::Expanded { .. }));

    let path = st.spill_path(1).unwrap().to_path_buf();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, b"SDDSHRD2garbage").unwrap();

    let (resp, _) = engine.handle(&Request::Refresh {
        session: "s".to_owned(),
    });
    match resp {
        Response::Error { message } => assert!(message.contains("storage error")),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(matches!(engine.handle(&Request::Ping).0, Response::Pong));

    std::fs::write(&path, &bytes).unwrap();
    let (resp, _) = engine.handle(&Request::Refresh {
        session: "s".to_owned(),
    });
    assert!(matches!(resp, Response::RuleList { .. }));
}

#[test]
fn deferred_refresh_fault_during_append_is_an_error_response() {
    // The live serving mode: refresh is *scheduled* and drained off the
    // request path. A spill fault while the deferred scan runs must become
    // an error response on the session's next operation — never a worker
    // panic — and the refresh stays scheduled so the session recovers once
    // the file is intact.
    let dir = std::env::temp_dir().join(format!("sdd-live-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let schema = Schema::new(["Store", "Product"]).unwrap();
    let live = Arc::new(
        LiveTable::new(schema, vec![], &LiveTableConfig::spilling(16, dir.clone())).unwrap(),
    );
    let engine = Engine::with_store(
        TableStore::from(live.clone()),
        EngineConfig {
            tail: Some(TailConfig::default()),
            ..EngineConfig::default()
        },
    );
    let batch: Vec<Vec<String>> = (0..64)
        .map(|i| vec![format!("s{}", i % 4), format!("p{}", i % 7)])
        .collect();
    engine.handle(&Request::Append {
        rows: batch.clone(),
        measures: vec![],
    });
    assert!(matches!(open(&engine, "s"), Response::Opened { .. }));
    let (resp, _) = engine.handle(&Request::Expand {
        session: "s".to_owned(),
        path: vec![],
    });
    assert!(matches!(resp, Response::Expanded { .. }), "{resp:?}");

    // Schedule the refresh (live mode answers immediately)...
    let (resp, hint) = engine.handle(&Request::Refresh {
        session: "s".to_owned(),
    });
    assert!(matches!(resp, Response::RuleList { .. }), "{resp:?}");
    assert!(
        hint.is_some(),
        "live refresh must be deferred to the worker"
    );

    // ... then an append lands and a sealed segment goes bad before the
    // deferred scan ran.
    engine.handle(&Request::Append {
        rows: batch,
        measures: vec![],
    });
    let snap = live.snapshot();
    let damaged = (0..snap.table.n_shards())
        .find_map(|i| snap.table.spill_path(i).map(|p| p.to_path_buf()))
        .expect("a sealed segment must have spilled");
    let bytes = std::fs::read(&damaged).unwrap();
    std::fs::write(&damaged, &bytes[..8]).unwrap();

    // The worker tick swallows the fault (best-effort, refresh stays
    // scheduled); the session's next operation surfaces it as a response.
    engine.run_pending_prefetch("s");
    let (resp, _) = engine.handle(&Request::Rules {
        session: "s".to_owned(),
    });
    match resp {
        Response::Error { message } => assert!(
            message.contains("storage error"),
            "expected a storage error, got: {message}"
        ),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(matches!(engine.handle(&Request::Ping).0, Response::Pong));

    // Restore: the same session drains the refresh and serves again.
    std::fs::write(&damaged, &bytes).unwrap();
    let (resp, _) = engine.handle(&Request::Rules {
        session: "s".to_owned(),
    });
    let Response::RuleList { rules } = resp else {
        panic!("session must recover once the file is intact: {resp:?}");
    };
    assert_eq!(
        rules[0].count, 128.0,
        "recovered session is at the new epoch"
    );
}
