//! End-to-end smoke tests: a real TCP server on an ephemeral port, driven
//! through the [`Client`] helper.

use sdd_server::{Client, OpenOptions, Request, Response, Server, ServerConfig};
use std::sync::Arc;

fn start_retail_server() -> sdd_server::ServerHandle {
    let table = Arc::new(sdd_datagen::retail(42));
    Server::bind(table, ServerConfig::default(), "127.0.0.1:0")
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

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

#[test]
fn full_session_lifecycle_over_tcp() {
    let server = start_retail_server();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    match client.call(&Request::TableInfo).unwrap() {
        Response::TableInfo { rows, columns } => {
            assert_eq!(rows, 6000);
            assert_eq!(columns, ["Store", "Product", "Region"]);
        }
        other => panic!("unexpected {other:?}"),
    }

    let session = "e2e".to_owned();
    assert_eq!(
        client
            .call(&Request::Open {
                session: session.clone(),
                options: open_opts(7),
            })
            .unwrap(),
        Response::Opened {
            session: session.clone()
        }
    );

    let children = match client
        .call(&Request::Expand {
            session: session.clone(),
            path: vec![],
        })
        .unwrap()
    {
        Response::Expanded { rules } => rules,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(children.len(), 3);
    assert!(children.iter().any(|r| r.rule.contains("Walmart")));
    assert_eq!(children[0].path, vec![0]);

    // Drill into a prefetched child: must not block on a Create scan.
    match client
        .call(&Request::Expand {
            session: session.clone(),
            path: vec![0],
        })
        .unwrap()
    {
        Response::Expanded { rules } => assert!(!rules.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    match client
        .call(&Request::Stats {
            session: session.clone(),
        })
        .unwrap()
    {
        Response::Stats { stats } => {
            assert_eq!(stats.expansions, 2);
            assert_eq!(stats.creates, 1, "second expansion served from memory");
            assert_eq!(stats.served_from_memory, 1);
        }
        other => panic!("unexpected {other:?}"),
    }

    match client
        .call(&Request::Render {
            session: session.clone(),
        })
        .unwrap()
    {
        Response::Rendered { text } => {
            assert!(text.contains("95% CI"), "{text}");
            assert!(text.lines().any(|l| l.starts_with(". ")), "{text}");
        }
        other => panic!("unexpected {other:?}"),
    }

    match client
        .call(&Request::Refresh {
            session: session.clone(),
        })
        .unwrap()
    {
        Response::RuleList { rules } => {
            assert!(rules.iter().all(|r| r.exact));
            assert_eq!(rules[0].count, 6000.0);
        }
        other => panic!("unexpected {other:?}"),
    }

    assert_eq!(
        client
            .call(&Request::Close {
                session: session.clone()
            })
            .unwrap(),
        Response::Closed
    );
    // Closed session is gone.
    match client.call(&Request::Rules { session }).unwrap() {
        Response::Error { message } => assert!(message.contains("no session"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }

    server.shutdown();
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let server = start_retail_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Garbage line → error response, connection still usable.
    let resp = client.call_line("this is not json").unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("bad json"), "{resp}");

    client
        .call(&Request::Open {
            session: "err".to_owned(),
            options: open_opts(1),
        })
        .unwrap();
    // SessionError and TableError surfaced via Display.
    match client
        .call(&Request::Expand {
            session: "err".to_owned(),
            path: vec![9],
        })
        .unwrap()
    {
        Response::Error { message } => assert_eq!(message, "no node at path [9]"),
        other => panic!("unexpected {other:?}"),
    }
    match client
        .call(&Request::Star {
            session: "err".to_owned(),
            path: vec![],
            column: "Price".to_owned(),
        })
        .unwrap()
    {
        Response::Error { message } => assert_eq!(message, "unknown column: \"Price\""),
        other => panic!("unexpected {other:?}"),
    }
    // Duplicate open.
    match client
        .call(&Request::Open {
            session: "err".to_owned(),
            options: OpenOptions::default(),
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("already exists"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
    // Still alive.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    server.shutdown();
}

#[test]
fn sessions_are_isolated_across_connections() {
    let server = start_retail_server();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    for (client, name) in [(&mut a, "alice"), (&mut b, "bob")] {
        client
            .call(&Request::Open {
                session: name.to_owned(),
                options: open_opts(99),
            })
            .unwrap();
    }
    // Alice expands; Bob's session must stay untouched.
    a.call(&Request::Expand {
        session: "alice".to_owned(),
        path: vec![],
    })
    .unwrap();
    match b
        .call(&Request::Rules {
            session: "bob".to_owned(),
        })
        .unwrap()
    {
        Response::RuleList { rules } => assert_eq!(rules.len(), 1, "bob still shows only root"),
        other => panic!("unexpected {other:?}"),
    }
    // Connections can drive each other's sessions (names, not connections,
    // are the key) — Bob reads Alice's tree.
    match b
        .call(&Request::Rules {
            session: "alice".to_owned(),
        })
        .unwrap()
    {
        Response::RuleList { rules } => assert_eq!(rules.len(), 4),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(server.engine().n_sessions(), 2);
    server.shutdown();
}
