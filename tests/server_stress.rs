//! The concurrency determinism harness: N client threads drive seeded
//! command scripts against one TCP server (deferred background prefetch,
//! lock-striped registry, connection pool), and every per-session response
//! transcript must be **byte-identical** to a single-threaded replay of the
//! same script through a fresh in-process [`Engine`] running prefetch
//! inline.
//!
//! This pins the whole tentpole stack at once: shared-nothing sessions,
//! per-session locking, the deferred-prefetch handoff (worker vs. next
//! request races), deterministic sampling, and deterministic JSON
//! serialization. Any cross-session leak, lock misordering, or
//! schedule-dependent sample draw shows up as a transcript diff.

use smart_drilldown::datagen::retail;
use smart_drilldown::explorer::{ExplorerConfig, PrefetchMode};
use smart_drilldown::server::{
    Client, Engine, EngineConfig, Json, OpenOptions, Request, Response, Server, ServerConfig,
};
use smart_drilldown::table::{ShardConfig, ShardedTable, Table, TableStore};
use std::sync::Arc;

const N_CLIENTS: usize = 6;
const N_COMMANDS: usize = 14;

/// Anything that can answer one protocol line — a real TCP connection or a
/// direct in-process engine. The driver below only sees this trait, so the
/// *exact same* request bytes flow through both.
trait Transport {
    fn call_line(&mut self, line: &str) -> String;
}

struct Tcp(Client);

impl Transport for Tcp {
    fn call_line(&mut self, line: &str) -> String {
        self.0.call_line(line).expect("tcp request")
    }
}

struct Direct<'e>(&'e Engine);

impl Transport for Direct<'_> {
    fn call_line(&mut self, line: &str) -> String {
        self.0.handle_line(line).0
    }
}

/// SplitMix64 — deterministic script randomness, seeded per client.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

/// Drives one session's scripted command sequence over `transport` and
/// returns the full response transcript (raw lines, in order).
///
/// The script adapts to responses (it expands paths it has seen exist), but
/// the adaptation is a pure function of the transcript — so identical
/// responses produce identical follow-up requests, and the whole exchange
/// is reproducible.
fn drive_session(transport: &mut dyn Transport, name: &str, seed: u64) -> Vec<String> {
    let mut transcript = Vec::new();
    let mut send = |transport: &mut dyn Transport, req: &Request| -> String {
        let line = transport.call_line(&req.to_json().to_string());
        transcript.push(line.clone());
        line
    };

    let open = Request::Open {
        session: name.to_owned(),
        options: OpenOptions {
            k: Some(3),
            max_weight: Some(3.0),
            weight: Some("size".to_owned()),
            seed: Some(seed),
            capacity: Some(20_000),
            min_ss: Some(1_000),
        },
    };
    send(transport, &open);

    // Star targets: three real columns plus one bogus one, so the script
    // also exercises deterministic error payloads.
    let columns = ["Store", "Product", "Region", "Price"];
    let mut rng = Rng(seed);
    let mut known: Vec<Vec<usize>> = vec![vec![]];

    for _ in 0..N_COMMANDS {
        let session = name.to_owned();
        let req = match rng.next() % 10 {
            0..=4 => Request::Expand {
                session,
                path: rng.pick(&known).clone(),
            },
            5 => Request::Star {
                session,
                path: rng.pick(&known).clone(),
                column: (*rng.pick(&columns)).to_owned(),
            },
            6 => Request::Collapse {
                session,
                path: rng.pick(&known).clone(),
            },
            7 => Request::Rules { session },
            8 => Request::Render { session },
            _ => Request::Stats { session },
        };
        let response_line = send(transport, &req);
        let response = Response::from_json(&Json::parse(&response_line).expect("response json"))
            .expect("typed response");
        // Track the visible tree from responses only.
        match (&req, response) {
            (
                Request::Expand { path, .. } | Request::Star { path, .. },
                Response::Expanded { rules },
            ) => {
                known.retain(|p| !(p.len() > path.len() && p.starts_with(path)));
                known.extend(rules.into_iter().map(|r| r.path));
            }
            (Request::Collapse { path, .. }, Response::Collapsed) => {
                known.retain(|p| !(p.len() > path.len() && p.starts_with(path)));
            }
            _ => {}
        }
    }

    // Closing snapshot: the full tree, the rendered display, every counter,
    // and two guaranteed error payloads (invalid path, unknown column) —
    // the strongest equality the protocol can express.
    for req in [
        Request::Rules {
            session: name.to_owned(),
        },
        Request::Render {
            session: name.to_owned(),
        },
        Request::Expand {
            session: name.to_owned(),
            path: vec![9, 9],
        },
        Request::Star {
            session: name.to_owned(),
            path: vec![],
            column: "Price".to_owned(),
        },
        Request::Refresh {
            session: name.to_owned(),
        },
        Request::Stats {
            session: name.to_owned(),
        },
    ] {
        send(transport, &req);
    }
    transcript
}

fn session_name(i: usize) -> String {
    format!("client-{i}")
}

fn session_seed(i: usize) -> u64 {
    0xC11E_0000 + i as u64
}

/// Replays every client's script single-threaded through a fresh engine
/// with **inline** prefetch — the reference semantics.
fn sequential_reference(table: &Arc<Table>) -> Vec<Vec<String>> {
    let engine = Engine::new(
        table.clone(),
        EngineConfig {
            session: ExplorerConfig {
                prefetch: PrefetchMode::Inline,
                ..ExplorerConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    (0..N_CLIENTS)
        .map(|i| drive_session(&mut Direct(&engine), &session_name(i), session_seed(i)))
        .collect()
}

#[test]
fn concurrent_sessions_match_sequential_replay_byte_for_byte() {
    let table = Arc::new(retail(42));

    // Concurrent phase: one TCP server, deferred background prefetch, one
    // OS thread per client hammering its own session with no think-time —
    // the worst case for the prefetch worker race.
    let server = Server::bind(
        table.clone(),
        ServerConfig {
            engine: EngineConfig::default(), // PrefetchMode::Deferred
            threads: N_CLIENTS + 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    let handles: Vec<_> = (0..N_CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("connect");
                drive_session(&mut Tcp(client), &session_name(i), session_seed(i))
            })
        })
        .collect();
    let concurrent: Vec<Vec<String>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Sessions are connection-scoped: once every client has disconnected
    // (no script sends `close`), the server must reap all of them — the
    // leak regression check, under maximum connection churn.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.engine().n_sessions() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "registry stuck at {} sessions after all clients disconnected",
            server.engine().n_sessions()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown();

    // Reference phase: same scripts, fresh engine, single thread, inline
    // prefetch.
    let reference = sequential_reference(&table);

    for (i, (conc, refr)) in concurrent.iter().zip(&reference).enumerate() {
        assert_eq!(
            conc.len(),
            refr.len(),
            "client {i}: transcript length diverged"
        );
        for (step, (a, b)) in conc.iter().zip(refr).enumerate() {
            assert_eq!(
                a, b,
                "client {i} step {step}: concurrent response differs from \
                 sequential replay"
            );
        }
    }

    // The scripts must have actually exercised the machinery: expansions,
    // at least one error payload, and memory-served drill-downs.
    let all = concurrent.concat().join("\n");
    assert!(all.contains("\"op\":\"expand\""), "no expansions happened");
    assert!(
        all.contains("unknown column") || all.contains("no node at path"),
        "scripts never hit an error path"
    );
    assert!(
        all.contains("\"served_from_memory\""),
        "stats were never sampled"
    );
}

#[test]
fn sharded_spilling_server_matches_monolithic_sequential_replay() {
    // The same concurrent-client harness, but the served table is split
    // into 8 spilled shards — every sample scan, gather and refresh streams
    // through the spill tier while N clients hammer their sessions
    // concurrently. Transcripts must stay byte-identical to the
    // *monolithic* single-threaded replay: sharding + spilling +
    // concurrency together must not move a single byte.
    let table = Arc::new(retail(42));
    let sharded = Arc::new(
        ShardedTable::from_table(&table, &ShardConfig::spilling(8, 0, std::env::temp_dir()))
            .expect("shard build"),
    );

    let server = Server::bind_store(
        TableStore::Sharded(sharded.clone()),
        ServerConfig {
            engine: EngineConfig::default(), // PrefetchMode::Deferred
            threads: N_CLIENTS + 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    let handles: Vec<_> = (0..N_CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("connect");
                drive_session(&mut Tcp(client), &session_name(i), session_seed(i))
            })
        })
        .collect();
    let concurrent: Vec<Vec<String>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    server.shutdown();
    assert!(sharded.loads() > 0, "the spill path was never exercised");
    assert!(
        (0..sharded.n_shards()).all(|i| sharded.resident_segment(i).is_none()),
        "concurrent sessions left a spilled shard decoded"
    );

    // Reference: the same scripts through a *monolithic* in-process engine,
    // single-threaded, inline prefetch.
    let reference = sequential_reference(&table);
    for (i, (conc, refr)) in concurrent.iter().zip(&reference).enumerate() {
        assert_eq!(conc.len(), refr.len(), "client {i}: transcript length");
        for (step, (a, b)) in conc.iter().zip(refr).enumerate() {
            assert_eq!(
                a, b,
                "client {i} step {step}: sharded concurrent response differs \
                 from monolithic sequential replay"
            );
        }
    }
}

#[test]
fn concurrent_run_is_stable_across_repeats() {
    // Two independent concurrent runs (fresh server each) must agree with
    // each other, not just with the replay — catches nondeterminism that
    // happens to cancel against a reference built the same way.
    let table = Arc::new(retail(42));
    let run = || -> Vec<Vec<String>> {
        let server = Server::bind(
            table.clone(),
            ServerConfig {
                engine: EngineConfig::default(),
                threads: N_CLIENTS + 2,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind")
        .spawn()
        .expect("spawn");
        let addr = server.addr();
        let handles: Vec<_> = (0..N_CLIENTS)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = Client::connect(addr).expect("connect");
                    drive_session(&mut Tcp(client), &session_name(i), session_seed(i))
                })
            })
            .collect();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        server.shutdown();
        out
    };
    assert_eq!(run(), run());
}
