//! Serve-path robustness regressions: oversized request lines and
//! stalled/half-open clients.
//!
//! Two bugs this file pins down forever:
//!
//! 1. **Oversized request line.** The reader caps a line at 1 MiB, but the
//!    connection used to *survive* the refusal by discarding the rest of
//!    the line — letting a hostile client stream unbounded garbage through
//!    the discard loop forever. Now the refusal is final: one clean
//!    `Response::Error`, then the connection closes (and its sessions are
//!    reaped).
//! 2. **Stalled client pins a pool worker.** A client that connects and
//!    goes silent (or whose network half-opens) used to park a connection
//!    worker in `read` forever; enough of them starved the pool. With
//!    `ServerConfig::idle_timeout`, the silent connection is disconnected,
//!    the worker freed, and connection-scoped sessions reaped.
//!
//! It also pins the bounds `open` puts on what one session may allocate.

use sdd_server::{Client, OpenOptions, Request, Response, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> sdd_server::ServerHandle {
    let table = Arc::new(sdd_datagen::retail(42));
    Server::bind(table, config, "127.0.0.1:0")
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

fn wait_for_sessions(engine: &sdd_server::Engine, expected: usize) {
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
fn oversized_line_gets_one_error_then_the_connection_closes() {
    let server = start_server(ServerConfig::default());
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A multi-MiB "request line": three times the 1 MiB cap, no newline
    // until the very end.
    let huge = "x".repeat(3 << 20);
    writer.write_all(huge.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();

    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"ok\":false") && reply.contains("exceeds"),
        "oversized line must be refused: {reply}"
    );
    // …and the refusal is final: the server closes, EOF follows.
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "connection must close after an oversized line, got: {rest}"
    );
}

#[test]
fn oversized_line_reaps_the_connections_sessions() {
    let server = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let opened = client
        .call(&Request::Open {
            session: "big-then-dead".to_owned(),
            options: OpenOptions {
                seed: Some(7),
                capacity: Some(20_000),
                min_ss: Some(1_000),
                ..OpenOptions::default()
            },
        })
        .unwrap();
    assert!(matches!(opened, Response::Opened { .. }));
    assert_eq!(server.engine().n_sessions(), 1);

    let mut raw = client; // keep variable names honest below
    let line = format!("{}\n", "z".repeat(2 << 20));
    // Push the oversized line through the same connection.
    let err = raw.call_line(&line[..line.len() - 1]);
    // Either we read the error response, or the server already hung up.
    if let Ok(reply) = err {
        assert!(reply.contains("exceeds"), "{reply}");
    }
    wait_for_sessions(server.engine(), 0);
}

#[test]
fn stalled_client_is_disconnected_and_its_worker_reclaimed() {
    // One worker: if the stalled connection kept it, the probe below
    // could never be served.
    let server = start_server(ServerConfig {
        threads: 1,
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });

    let mut stalled = Client::connect(server.addr()).unwrap();
    let opened = stalled
        .call(&Request::Open {
            session: "stall".to_owned(),
            options: OpenOptions {
                seed: Some(7),
                capacity: Some(20_000),
                min_ss: Some(1_000),
                ..OpenOptions::default()
            },
        })
        .unwrap();
    assert!(matches!(opened, Response::Opened { .. }));
    assert_eq!(server.engine().n_sessions(), 1);
    // …and now the client goes silent, still holding the lone worker.

    // The read timeout must disconnect it, reap its session, and free
    // the worker for the next client.
    wait_for_sessions(server.engine(), 0);
    let mut probe = Client::connect(server.addr()).unwrap();
    let info = probe.call(&Request::TableInfo).unwrap();
    assert!(
        matches!(info, Response::TableInfo { .. }),
        "freed worker must serve new connections"
    );
}

#[test]
fn live_clients_survive_the_read_timeout_between_requests() {
    // The timeout bounds silence, not session length: a client that keeps
    // talking (slower than the tick, faster than the timeout) is fine.
    let server = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(120));
        let info = client.call(&Request::TableInfo).unwrap();
        assert!(matches!(info, Response::TableInfo { .. }));
    }
}

/// Admission control sheds only HTTP. With one worker busy and
/// `max_queue: 0`, the connection queued behind the second would get `429`
/// over HTTP; over TCP it waits for the worker and is served.
#[test]
fn tcp_connections_queued_past_max_queue_are_served_not_shed() {
    let server = start_server(ServerConfig {
        threads: 1,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let ping = |stream: &mut TcpStream| -> String {
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        line
    };
    // The first connection owns the lone worker once it has answered.
    let mut first = TcpStream::connect(server.addr()).unwrap();
    assert!(ping(&mut first).contains("pong"));
    let mut queued: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    // Both are accepted (counted) while the worker is busy: the second
    // found one connection already waiting, past `max_queue`.
    let deadline = Instant::now() + Duration::from_secs(10);
    let open = || server.metrics().tcp_connections.load(Ordering::Relaxed);
    while open() != 3 {
        assert!(Instant::now() < deadline, "{} connections accepted", open());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.metrics().shed.load(Ordering::Relaxed), 0);
    drop(first);
    for (i, stream) in queued.iter_mut().enumerate() {
        assert!(ping(stream).contains("pong"), "queued connection {i}");
        stream.shutdown(std::net::Shutdown::Both).unwrap();
    }
    server.shutdown();
}

/// `open` bounds what a session allocates. A `k` of 13 would make the
/// prefetch DP panic on a 13-child group, and a `k` or `capacity` of 2^52
/// would make the next `expand` abort the process on a failed allocation:
/// each is refused at `open`, naming its bound, and the engine answers on.
/// A `k` at the bound survives a drill-down and its prefetch. The aborting
/// `expand` is never sent.
#[test]
fn open_refuses_a_k_or_capacity_no_session_can_allocate() {
    let engine = sdd_server::Engine::new(
        Arc::new(sdd_datagen::retail(42)),
        sdd_server::EngineConfig::default(),
    );
    let refusals = [
        (r#""k":13"#, "k must be at most 12"),
        (r#""k":4503599627370496"#, "k must be at most 12"),
        (
            r#""capacity":4503599627370496,"min_ss":4503599627370496"#,
            "capacity must be at most 50000",
        ),
    ];
    for (i, (field, bound)) in refusals.into_iter().enumerate() {
        let (reply, _) =
            engine.handle_line(&format!(r#"{{"op":"open","session":"s{i}",{field}}}"#));
        assert!(
            reply.contains(r#""ok":false"#) && reply.contains(bound),
            "{field}: {reply}"
        );
        let (pong, _) = engine.handle_line(r#"{"op":"ping"}"#);
        assert!(pong.contains("pong"), "{field}: {pong}");
    }
    assert_eq!(engine.n_sessions(), 0);

    let (opened, _) = engine.handle_line(r#"{"op":"open","session":"top","k":12}"#);
    assert!(opened.contains(r#""ok":true"#), "{opened}");
    for line in [
        r#"{"op":"expand","session":"top","path":[]}"#,
        r#"{"op":"expand","session":"top","path":[0]}"#,
        r#"{"op":"stats","session":"top"}"#,
    ] {
        let (reply, _) = engine.handle_line(line);
        assert!(reply.contains(r#""ok":true"#), "{line}: {reply}");
    }

    // BRS itself reserves nothing for `k`: it stops when no rule gains.
    let rows: Vec<[String; 1]> = (0..10).map(|i| [format!("v{}", i % 3)]).collect();
    let schema = sdd_table::Schema::new(["A"]).unwrap();
    let table = sdd_table::Table::from_rows(schema, &rows).unwrap();
    let result = sdd_core::Brs::new(&sdd_core::SizeWeight).run(&table.view(), usize::MAX);
    assert_eq!(result.rules.len(), 3);
}
