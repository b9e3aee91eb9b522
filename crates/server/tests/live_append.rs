//! Server-side tail ingest: `append` gating (tail opt-in, tenant
//! capability, batch cap, frozen stores), epoch propagation into live
//! sessions, the deferred exact-count refresh serving mode, and the
//! epoch-keyed result cache never serving across an append.

use sdd_server::{Engine, EngineConfig, Request, Response, TailConfig, TenantRegistry};
use sdd_table::{LiveTable, LiveTableConfig, Schema, TableStore};
use std::sync::Arc;

fn live_table(rows_per_segment: usize) -> Arc<LiveTable> {
    let schema = Schema::new(["Store", "Product"]).expect("schema");
    Arc::new(
        LiveTable::new(
            schema,
            vec![],
            &LiveTableConfig::in_memory(rows_per_segment),
        )
        .expect("live table"),
    )
}

fn rows(lo: usize, hi: usize) -> Vec<Vec<String>> {
    (lo..hi)
        .map(|i| vec![format!("s{}", i % 4), format!("p{}", i % 7)])
        .collect()
}

fn live_engine(tail: Option<TailConfig>) -> Engine {
    let cfg = EngineConfig {
        tail,
        ..EngineConfig::default()
    };
    Engine::with_store(TableStore::from(live_table(16)), cfg)
}

fn append_req(lo: usize, hi: usize) -> Request {
    Request::Append {
        rows: rows(lo, hi),
        measures: vec![],
    }
}

fn open(engine: &Engine, session: &str) {
    let line = format!(
        r#"{{"op":"open","session":"{session}","seed":"7","k":3,"capacity":400,"min_ss":40}}"#
    );
    let (resp, _) = engine.handle_line(&line);
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn append_is_rejected_without_tail_opt_in() {
    let engine = live_engine(None);
    let (resp, _) = engine.handle(&append_req(0, 4));
    match resp {
        Response::Error { message } => assert!(message.contains("tail ingest"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn append_is_rejected_on_frozen_stores() {
    let cfg = EngineConfig {
        tail: Some(TailConfig::default()),
        ..EngineConfig::default()
    };
    let engine = Engine::new(Arc::new(sdd_datagen::retail(42)), cfg);
    let (resp, _) = engine.handle(&append_req(0, 4));
    match resp {
        Response::Error { message } => assert!(message.contains("frozen"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn append_batches_above_the_cap_are_rejected() {
    let engine = live_engine(Some(TailConfig::default()));
    let (resp, _) = engine.handle(&append_req(0, 10_001));
    match resp {
        Response::Error { message } => assert!(
            message.contains("10001 rows exceeds the 10000-row cap"),
            "{message}"
        ),
        other => panic!("unexpected {other:?}"),
    }
    // At the cap is fine.
    let (resp, _) = engine.handle(&append_req(0, 10_000));
    assert_eq!(
        resp,
        Response::Appended {
            epoch: 1,
            rows: 10_000
        }
    );
}

#[test]
fn append_requires_the_ingest_capability() {
    let tenants =
        TenantRegistry::from_token_file("tok-w writer 4 2 ingest\ntok-r reader 4 2").unwrap();
    let writer = tenants.authenticate("tok-w").unwrap();
    let reader = tenants.authenticate("tok-r").unwrap();
    let cfg = EngineConfig {
        tail: Some(TailConfig::default()),
        tenants: Arc::new(tenants),
        ..EngineConfig::default()
    };
    let engine = Engine::with_store(TableStore::from(live_table(16)), cfg);
    let (resp, _) = engine.handle_as(&append_req(0, 4), reader);
    match resp {
        Response::Error { message } => {
            assert!(message.contains("ingest capability"), "{message}")
        }
        other => panic!("unexpected {other:?}"),
    }
    let (resp, _) = engine.handle_as(&append_req(0, 4), writer);
    assert_eq!(resp, Response::Appended { epoch: 1, rows: 4 });
}

#[test]
fn appends_bump_the_epoch_and_sessions_observe_them() {
    let engine = live_engine(Some(TailConfig::default()));
    assert_eq!(engine.live_info(), Some((0, 0)));

    let (resp, _) = engine.handle(&append_req(0, 64));
    assert_eq!(resp, Response::Appended { epoch: 1, rows: 64 });
    assert_eq!(engine.live_info(), Some((1, 64)));

    open(&engine, "live");
    let expand = |path: &str| {
        let (resp, hint) = engine.handle_line(&format!(
            r#"{{"op":"expand","session":"live","path":{path}}}"#
        ));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // Play the background worker whenever the engine asks for it.
        if let Some(s) = hint {
            engine.run_pending_prefetch(&s);
        }
        resp
    };
    expand("[]");
    let (rules, _) = engine.handle(&Request::Rules {
        session: "live".to_owned(),
    });
    let Response::RuleList { rules } = rules else {
        panic!("unexpected {rules:?}");
    };
    assert_eq!(rules[0].count, 64.0, "root shows epoch-1 rows");

    // `table` reports the latest published state, not the load-time pin.
    let (resp, _) = engine.handle(&append_req(64, 128));
    assert_eq!(
        resp,
        Response::Appended {
            epoch: 2,
            rows: 128
        }
    );
    let (info, _) = engine.handle(&Request::TableInfo);
    assert_eq!(
        info,
        Response::TableInfo {
            rows: 128,
            columns: vec!["Store".to_owned(), "Product".to_owned()],
        }
    );

    // The session picks the new epoch up at its next operation prologue.
    let (rules, _) = engine.handle(&Request::Rules {
        session: "live".to_owned(),
    });
    let Response::RuleList { rules } = rules else {
        panic!("unexpected {rules:?}");
    };
    assert_eq!(rules[0].count, 128.0, "root shows epoch-2 rows");
}

#[test]
fn no_cache_hit_ever_crosses_an_epoch() {
    let engine = live_engine(Some(TailConfig::default()));
    engine.handle(&append_req(0, 64));
    open(&engine, "a");

    let drill = |session: &str| {
        let (resp, hint) = engine.handle_line(&format!(
            r#"{{"op":"expand","session":"{session}","path":[]}}"#
        ));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        if let Some(s) = hint {
            engine.run_pending_prefetch(&s);
        }
        resp
    };
    let first = drill("a");

    // A second session repeating the identical drill at the same epoch may
    // share the cached result — and must answer the same bytes.
    open(&engine, "b");
    let second = drill("b");
    assert_eq!(first, second, "same epoch, same drill, same bytes");
    let hits_same_epoch = engine.cache_counters().map(|c| c.hits);

    // After an append the same drill must recompute: the epoch is part of
    // the cache key, so the old entry cannot satisfy it.
    engine.handle(&append_req(64, 128));
    open(&engine, "c");
    drill("c");
    if let (Some(before), Some(after)) = (hits_same_epoch, engine.cache_counters().map(|c| c.hits))
    {
        assert_eq!(
            before, after,
            "the post-append drill must not hit any pre-append cache entry"
        );
        assert!(before > 0, "the same-epoch drill should have hit the cache");
    }
}

#[test]
fn live_refresh_is_deferred_and_drained_off_the_request_path() {
    let engine = live_engine(Some(TailConfig::default()));
    engine.handle(&append_req(0, 64));
    open(&engine, "r");
    let (resp, hint) = engine.handle_line(r#"{"op":"expand","session":"r","path":[]}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    if let Some(s) = hint {
        engine.run_pending_prefetch(&s);
    }

    // Refresh over a live store schedules the scan and answers immediately
    // with the current (possibly estimated) counts...
    let (resp, hint) = engine.handle(&Request::Refresh {
        session: "r".to_owned(),
    });
    let Response::RuleList { .. } = resp else {
        panic!("unexpected {resp:?}");
    };
    // ... and hands the scheduled work to the background worker.
    let session = hint.expect("deferred refresh must ping the worker");
    engine.run_pending_prefetch(&session);

    let (resp, _) = engine.handle(&Request::Rules {
        session: "r".to_owned(),
    });
    let Response::RuleList { rules } = resp else {
        panic!("unexpected {resp:?}");
    };
    assert!(
        rules.iter().all(|r| r.exact),
        "worker-drained refresh marks every displayed rule exact: {rules:?}"
    );
}

#[test]
fn appends_carrying_measures_are_rejected() {
    // A live table carries no measures: any measure column, ragged or
    // fitting, one or many, fails the append whole with one named error.
    let engine = live_engine(Some(TailConfig::default()));
    engine.handle(&append_req(0, 3));
    for (n_rows, measures) in [
        (3, vec![vec![1.0, 2.0, 3.0]]),
        (2, vec![vec![1.0]]),
        (0, vec![vec![]; 3]),
        (2, vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
    ] {
        let rows = rows(0, n_rows);
        let (resp, _) = engine.handle(&Request::Append { rows, measures });
        assert_eq!(
            resp,
            Response::Error {
                message: "append rejected: a live table carries no measures".to_owned()
            }
        );
        assert_eq!(engine.live_info(), Some((1, 3)), "the epoch or rows moved");
    }
}

#[test]
fn empty_appends_still_bump_the_epoch() {
    // An empty batch publishes a new (identical) epoch — the cheapest way
    // for an operator to force cache turnover — and stays consistent.
    let engine = live_engine(Some(TailConfig::default()));
    engine.handle(&append_req(0, 16));
    let (resp, _) = engine.handle(&append_req(0, 0));
    assert_eq!(resp, Response::Appended { epoch: 2, rows: 16 });
}
