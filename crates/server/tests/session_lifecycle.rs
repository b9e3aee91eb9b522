//! Session-lifecycle and prefetch-scheduling regression tests.
//!
//! Two serve-path bugs this file pins down forever:
//!
//! 1. **Session leak on abrupt disconnect.** Sessions are
//!    connection-scoped (PROTOCOL.md): a client that vanishes without
//!    `close` — crash, abrupt TCP drop — must not leave registry entries
//!    (and their sample memory) behind until server restart.
//!
//! 2. **Deferred-prefetch claim race.** The background worker's
//!    [`Engine::run_pending_prefetch`] and the next request's own drain
//!    both want the one pending job; the job `Option` lives under the
//!    session lock and is `take()`n, so exactly one side runs it and a
//!    duplicate or late worker tick is a no-op. The audit found no bug —
//!    these tests replay every worker/request interleaving a real server
//!    can produce and assert byte-identical transcripts against inline
//!    execution, so a future regression cannot land silently.

use sdd_server::{
    Client, Engine, EngineConfig, OpenOptions, Request, Response, Server, ServerConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_opts(seed: u64) -> OpenOptions {
    OpenOptions {
        k: Some(3),
        max_weight: Some(3.0),
        weight: Some("size".to_owned()),
        seed: Some(seed),
        capacity: Some(20_000),
        min_ss: Some(1_000),
        ..OpenOptions::default()
    }
}

fn start_retail_server() -> sdd_server::ServerHandle {
    let table = Arc::new(sdd_datagen::retail(42));
    Server::bind(table, ServerConfig::default(), "127.0.0.1:0")
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

/// Polls until the engine's registry drains to `expected` sessions;
/// panics after a generous timeout (cleanup is asynchronous — the pool
/// worker runs it after the read side observes the hangup).
fn wait_for_sessions(engine: &Engine, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.n_sessions() != expected {
        assert!(
            Instant::now() < deadline,
            "registry stuck at {} sessions (expected {expected})",
            engine.n_sessions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn abrupt_disconnect_reaps_the_connections_sessions() {
    let server = start_retail_server();
    let mut client = Client::connect(server.addr()).unwrap();
    for name in ["leak-a", "leak-b"] {
        assert_eq!(
            client
                .call(&Request::Open {
                    session: name.to_owned(),
                    options: open_opts(7),
                })
                .unwrap(),
            Response::Opened {
                session: name.to_owned()
            }
        );
    }
    // Use one so a deferred prefetch job is in flight when we vanish —
    // cleanup must cope with a session the background worker still pings.
    match client
        .call(&Request::Expand {
            session: "leak-a".to_owned(),
            path: vec![],
        })
        .unwrap()
    {
        Response::Expanded { rules } => assert!(!rules.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(server.engine().n_sessions(), 2);

    // Abrupt drop: no `close`, just a dead socket.
    drop(client);
    wait_for_sessions(server.engine(), 0);
    server.shutdown();
}

#[test]
fn graceful_close_is_not_double_freed_on_disconnect() {
    let server = start_retail_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .call(&Request::Open {
            session: "tidy".to_owned(),
            options: open_opts(7),
        })
        .unwrap();
    assert_eq!(
        client
            .call(&Request::Close {
                session: "tidy".to_owned()
            })
            .unwrap(),
        Response::Closed
    );
    assert_eq!(server.engine().n_sessions(), 0);
    // A second client reuses the name while the first connection is still
    // up: the first connection's exit must not reap the new owner.
    let mut second = Client::connect(server.addr()).unwrap();
    second
        .call(&Request::Open {
            session: "tidy".to_owned(),
            options: open_opts(8),
        })
        .unwrap();
    assert_eq!(server.engine().n_sessions(), 1);
    drop(client);
    // Give the first connection's cleanup every chance to misfire.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(server.engine().n_sessions(), 1, "close was double-freed");
    drop(second);
    wait_for_sessions(server.engine(), 0);
    server.shutdown();
}

#[test]
fn sessions_outlive_requests_but_not_their_connection() {
    // Two live connections never interfere: each reaps only its own opens.
    let server = start_retail_server();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    a.call(&Request::Open {
        session: "conn-a".to_owned(),
        options: open_opts(1),
    })
    .unwrap();
    b.call(&Request::Open {
        session: "conn-b".to_owned(),
        options: open_opts(2),
    })
    .unwrap();
    assert_eq!(server.engine().n_sessions(), 2);
    drop(a);
    wait_for_sessions(server.engine(), 1);
    // conn-b still answers after conn-a's reap.
    match b
        .call(&Request::Expand {
            session: "conn-b".to_owned(),
            path: vec![],
        })
        .unwrap()
    {
        Response::Expanded { rules } => assert!(!rules.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    drop(b);
    wait_for_sessions(server.engine(), 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Deferred-prefetch claim race: deterministic interleaving replay
// ---------------------------------------------------------------------------

fn engine_with(cache_bytes: usize) -> Engine {
    let table = Arc::new(sdd_datagen::retail(42));
    let config = EngineConfig {
        cache_bytes,
        ..EngineConfig::default()
    };
    Engine::new(table, config)
}

fn script(session: &str) -> Vec<Request> {
    let s = || session.to_owned();
    vec![
        Request::Open {
            session: s(),
            options: open_opts(7),
        },
        Request::Expand {
            session: s(),
            path: vec![],
        },
        Request::Expand {
            session: s(),
            path: vec![0],
        },
        Request::Expand {
            session: s(),
            path: vec![1],
        },
        Request::Rules { session: s() },
        Request::Refresh { session: s() },
        Request::Stats { session: s() },
        Request::Close { session: s() },
    ]
}

/// Replays the script, firing `ticks` duplicate background-worker claims
/// after each request, and returns the raw response lines.
fn transcript(engine: &Engine, session: &str, ticks: usize) -> Vec<String> {
    script(session)
        .iter()
        .map(|req| {
            let (line, hint) = engine.handle_line(&req.to_json().to_string());
            for _ in 0..ticks {
                // Real servers deliver at most one worker tick per hint;
                // firing extra unconditional ticks (hint or not) models
                // every losing side of the claim race at once.
                engine.run_pending_prefetch(hint.as_deref().unwrap_or(session));
            }
            line
        })
        .collect()
}

#[test]
fn duplicate_worker_claims_never_change_a_response_byte() {
    // The reference: no worker (each request drains the job the one
    // before it left), no cache.
    let reference = transcript(&engine_with(0), "race", 0);
    assert!(
        reference.iter().any(|l| l.contains("\"op\":\"expand\"")),
        "script never expanded: {reference:?}"
    );

    // Every worker cadence a server can produce — the request always
    // drains an unclaimed job first (ticks=0), the worker always wins
    // (ticks=1), and a stale duplicate tick fires after every claim
    // (ticks=2) — with the shared cache off and on.
    for cache_bytes in [0, 64 << 20] {
        for ticks in 0..=2 {
            let engine = engine_with(cache_bytes);
            let got = transcript(&engine, "race", ticks);
            assert_eq!(
                got, reference,
                "transcript diverged (ticks={ticks}, cache_bytes={cache_bytes})"
            );
        }
    }
}

#[test]
fn worker_tick_on_missing_or_idle_session_is_a_no_op() {
    let engine = engine_with(0);
    // Unknown session: nothing to claim, nothing to panic over.
    engine.run_pending_prefetch("nobody");
    let (line, hint) = engine.handle_line(
        &Request::Open {
            session: "idle".to_owned(),
            options: open_opts(3),
        }
        .to_json()
        .to_string(),
    );
    assert!(line.contains("\"op\":\"open\""), "{line}");
    assert!(hint.is_none(), "open must not schedule prefetch");
    // Session exists but has no pending job: repeated ticks stay no-ops.
    engine.run_pending_prefetch("idle");
    engine.run_pending_prefetch("idle");
    assert_eq!(engine.n_sessions(), 1);
}
