//! End-to-end tests for the HTTP/1.1 front-end: routes, bearer auth,
//! per-tenant session quotas, admission control, the idle sweep, and the
//! `/metrics` exposition.

use sdd_server::{HttpClient, Server, ServerConfig, TenantRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_line(session: &str, seed: u64) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"k\":3,\"mw\":3.0,\"weight\":\"size\",\
         \"seed\":{seed},\"capacity\":20000,\"min_ss\":1000}}"
    )
}

fn start_http_server(config: ServerConfig) -> sdd_server::ServerHandle {
    let table = Arc::new(sdd_datagen::retail(42));
    Server::bind(
        table,
        ServerConfig {
            http_addr: Some("127.0.0.1:0".to_owned()),
            ..config
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral ports")
    .spawn()
    .expect("spawn server thread")
}

fn http_client(server: &sdd_server::ServerHandle) -> HttpClient {
    HttpClient::connect(server.http_addr().expect("http front-end configured"))
        .expect("connect to http front-end")
}

#[test]
fn routes_answer_and_line_bodies_are_engine_bytes() {
    let server = start_http_server(ServerConfig::default());
    let mut client = http_client(&server);

    let health = client.request("GET", "/healthz", None, None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok\n");

    // open → expand → close over keep-alive, statuses mirroring "ok".
    let (status, body) = client.call_line(None, &open_line("h1", 7)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true,\"op\":\"open\",\"session\":\"h1\"}");
    let (status, body) = client
        .call_line(None, "{\"op\":\"expand\",\"session\":\"h1\",\"path\":[]}")
        .unwrap();
    assert_eq!(status, 200, "expand failed: {body}");
    let (status, body) = client
        .call_line(
            None,
            "{\"op\":\"expand\",\"session\":\"no-such\",\"path\":[]}",
        )
        .unwrap();
    assert_eq!(status, 400, "engine errors surface as 400");
    assert!(body.starts_with("{\"ok\":false"), "{body}");
    let (status, _) = client
        .call_line(None, "{\"op\":\"close\",\"session\":\"h1\"}")
        .unwrap();
    assert_eq!(status, 200);

    let missing = client.request("GET", "/v2/nope", None, None).unwrap();
    assert_eq!(missing.status, 404);
    let bad_method = client.request("DELETE", "/v1/line", None, None).unwrap();
    assert_eq!(bad_method.status, 405);
    assert_eq!(bad_method.header("allow"), Some("GET, POST"));
}

#[test]
fn bearer_auth_gates_line_and_metrics_but_not_health() {
    let tenants = TenantRegistry::from_token_file("tok-a alpha 2 4\n").unwrap();
    let mut config = ServerConfig::default();
    config.engine.tenants = Arc::new(tenants);
    let server = start_http_server(config);
    let mut client = http_client(&server);

    // No token / wrong token → 401 with a challenge; connection survives.
    let (status, _) = client.call_line(None, open_line("a1", 7).as_str()).unwrap();
    assert_eq!(status, 401);
    let reply = client
        .request("POST", "/v1/line", Some("wrong"), Some(&open_line("a1", 7)))
        .unwrap();
    assert_eq!(reply.status, 401);
    assert_eq!(reply.header("www-authenticate"), Some("Bearer"));
    let metrics = client.request("GET", "/metrics", None, None).unwrap();
    assert_eq!(metrics.status, 401);
    let health = client.request("GET", "/healthz", None, None).unwrap();
    assert_eq!(health.status, 200, "liveness needs no token");

    // The right token works, and auth failures were counted.
    let (status, _) = client
        .call_line(Some("tok-a"), &open_line("a1", 7))
        .unwrap();
    assert_eq!(status, 200);
    let metrics = client
        .request("GET", "/metrics", Some("tok-a"), None)
        .unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str().into_owned();
    assert!(
        text.contains("sdd_auth_failures_total 3"),
        "three rejected requests must be counted:\n{text}"
    );
    assert!(
        text.contains("sdd_tenant_sessions{tenant=\"alpha\"} 1"),
        "{text}"
    );
}

#[test]
fn tenant_session_quota_is_enforced_and_released() {
    let tenants = TenantRegistry::from_token_file("tok-a alpha 2 4\n").unwrap();
    let mut config = ServerConfig::default();
    config.engine.tenants = Arc::new(tenants);
    let server = start_http_server(config);
    let mut client = http_client(&server);

    for s in ["q1", "q2"] {
        let (status, body) = client.call_line(Some("tok-a"), &open_line(s, 7)).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = client
        .call_line(Some("tok-a"), &open_line("q3", 7))
        .unwrap();
    assert_eq!(status, 400, "third session must exceed the quota of 2");
    assert!(body.contains("session quota"), "{body}");
    // A failed open must not leak a quota slot: close one, open succeeds.
    let (status, _) = client
        .call_line(Some("tok-a"), "{\"op\":\"close\",\"session\":\"q1\"}")
        .unwrap();
    assert_eq!(status, 200);
    let (status, body) = client
        .call_line(Some("tok-a"), &open_line("q3", 7))
        .unwrap();
    assert_eq!(status, 200, "slot must be released by close: {body}");
}

#[test]
fn metrics_scrape_exposes_all_families() {
    let server = start_http_server(ServerConfig::default());
    let mut client = http_client(&server);
    let (status, _) = client.call_line(None, &open_line("m1", 7)).unwrap();
    assert_eq!(status, 200);
    let reply = client.request("GET", "/metrics", None, None).unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply
        .header("content-type")
        .is_some_and(|v| v.starts_with("text/plain")));
    let text = reply.body_str().into_owned();
    for needle in [
        "# TYPE sdd_request_latency_seconds histogram",
        "sdd_request_latency_seconds_bucket{transport=\"http\",le=\"+Inf\"} 1",
        "sdd_requests_total{transport=\"http\",outcome=\"ok\"} 1",
        "sdd_requests_shed_total 0",
        "sdd_auth_failures_total 0",
        "sdd_http_connections 1",
        "sdd_tcp_connections 0",
        "sdd_queue_depth 0",
        "sdd_sessions 1",
        "sdd_sessions_swept_total 0",
        "sdd_tenant_sessions{tenant=\"anonymous\"} 1",
        "sdd_tenant_cache_bytes{tenant=\"anonymous\"}",
        "sdd_cache_hits_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn admission_control_sheds_with_429_and_accepted_work_is_unchanged() {
    // One worker, zero queue tolerance: the first connection owns the
    // worker, the second waits in the queue, the third must be shed.
    let server = start_http_server(ServerConfig {
        threads: 1,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let mut first = http_client(&server);
    let (status, opened) = first.call_line(None, &open_line("adm", 7)).unwrap();
    assert_eq!(status, 200);

    // Parks in the accept queue (the lone worker is held by `first`'s
    // keep-alive connection).
    let queued = http_client(&server);
    std::thread::sleep(Duration::from_millis(300)); // let accept submit it

    let mut shed = http_client(&server);
    let reply = shed.request("GET", "/healthz", None, None).unwrap();
    assert_eq!(reply.status, 429, "queue depth 1 > max_queue 0 must shed");
    assert!(
        reply.header("retry-after").is_some(),
        "shed answers carry Retry-After"
    );

    // Accepted requests are byte-identical to an unloaded replay.
    let (status, expanded) = first
        .call_line(None, "{\"op\":\"expand\",\"session\":\"adm\",\"path\":[]}")
        .unwrap();
    assert_eq!(status, 200);
    drop(queued);
    let unloaded = start_http_server(ServerConfig::default());
    let mut replay = http_client(&unloaded);
    let (_, opened_replay) = replay.call_line(None, &open_line("adm", 7)).unwrap();
    let (_, expanded_replay) = replay
        .call_line(None, "{\"op\":\"expand\",\"session\":\"adm\",\"path\":[]}")
        .unwrap();
    assert_eq!(opened, opened_replay);
    assert_eq!(expanded, expanded_replay);

    assert!(
        server
            .metrics()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the shed counter must tick"
    );
}

#[test]
fn idle_sweep_evicts_http_sessions_and_frees_their_quota() {
    let tenants = TenantRegistry::from_token_file("tok-a alpha 1 4\n").unwrap();
    let mut config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    };
    config.engine.tenants = Arc::new(tenants);
    let server = start_http_server(config);
    let mut client = http_client(&server);
    let (status, _) = client
        .call_line(Some("tok-a"), &open_line("idle", 7))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.engine().n_sessions(), 1);

    // HTTP sessions outlive their connection; only the sweep reaps them.
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.engine().n_sessions() != 0 {
        assert!(Instant::now() < deadline, "idle session never swept");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The quota slot came back: the 1-session tenant can open again.
    let mut client = http_client(&server);
    let (status, body) = client
        .call_line(Some("tok-a"), &open_line("idle2", 7))
        .unwrap();
    assert_eq!(status, 200, "swept session must release its slot: {body}");
    let metrics = client
        .request("GET", "/metrics", Some("tok-a"), None)
        .unwrap();
    assert!(
        metrics.body_str().contains("sdd_sessions_swept_total 1"),
        "the sweep counter must tick"
    );
}

#[test]
fn oversized_and_malformed_heads_are_refused() {
    use std::io::{Read, Write};
    let server = start_http_server(ServerConfig::default());

    // A request line over the 8 KiB head cap → 431 and close.
    let mut stream = std::net::TcpStream::connect(server.http_addr().unwrap()).unwrap();
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(16 << 10));
    stream.write_all(huge.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

    // Garbage head → 400 and close.
    let mut stream = std::net::TcpStream::connect(server.http_addr().unwrap()).unwrap();
    stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // A declared body over the 1 MiB cap → 413 before reading any of it.
    let mut stream = std::net::TcpStream::connect(server.http_addr().unwrap()).unwrap();
    stream
        .write_all(b"POST /v1/line HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
}
