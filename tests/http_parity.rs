//! HTTP transcript-transparency harness: the same seeded command scripts
//! from the stress suite are driven over the HTTP front-end, the line-JSON
//! TCP path, and a direct in-process engine — and all three per-session
//! response transcripts must be **byte-identical**.
//!
//! This pins the tentpole claim of the HTTP layer: auth, admission
//! control, status mapping, and metrics recording gate *whether* a request
//! reaches the engine, never what it answers. The `POST /v1/line` body is
//! the exact line the TCP path would have written, and the HTTP status is
//! derived from (never added to) the response's leading `"ok"` field.

use smart_drilldown::datagen::retail;
use smart_drilldown::server::{
    Client, Engine, EngineConfig, HttpClient, OpenOptions, Request, Server, ServerConfig,
};
use std::sync::Arc;

const N_COMMANDS: usize = 12;

trait Transport {
    fn call_line(&mut self, line: &str) -> String;
}

struct Tcp(Client);

impl Transport for Tcp {
    fn call_line(&mut self, line: &str) -> String {
        self.0.call_line(line).expect("tcp request")
    }
}

struct Http(HttpClient);

impl Transport for Http {
    fn call_line(&mut self, line: &str) -> String {
        let (status, body) = self.0.call_line(None, line).expect("http request");
        // The status must mirror the body's own verdict — and nothing else.
        let expected = if body.starts_with("{\"ok\":true") {
            200
        } else {
            400
        };
        assert_eq!(status, expected, "status must mirror \"ok\" for {body}");
        body
    }
}

struct Direct<'e>(&'e Engine);

impl Transport for Direct<'_> {
    fn call_line(&mut self, line: &str) -> String {
        self.0.handle_line(line).0
    }
}

/// SplitMix64 — deterministic script randomness.
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

/// One scripted session: open (with `favor` multipliers, when given) →
/// mixed commands (expands, stars — including a bogus column for error
/// parity — collapses, rules, stats) → close.
fn drive_session(
    transport: &mut dyn Transport,
    name: &str,
    seed: u64,
    favor: &[(&str, f64)],
) -> Vec<String> {
    let mut transcript = Vec::new();
    let mut send = |transport: &mut dyn Transport, req: &Request| -> String {
        let line = transport.call_line(&req.to_json().to_string());
        transcript.push(line.clone());
        line
    };

    send(
        transport,
        &Request::Open {
            session: name.to_owned(),
            options: OpenOptions {
                k: Some(3),
                max_weight: Some(3.0),
                weight: Some("size".to_owned()),
                seed: Some(seed),
                capacity: Some(20_000),
                min_ss: Some(1_000),
                favor: favor.iter().map(|&(c, m)| (c.to_owned(), m)).collect(),
            },
        },
    );
    let columns = ["Store", "Product", "Region", "NoSuchColumn"];
    let mut rng = Rng(seed);
    for _ in 0..N_COMMANDS {
        let session = name.to_owned();
        let req = match rng.next() % 8 {
            0..=3 => Request::Expand {
                session,
                path: vec![],
            },
            4 => Request::Star {
                session,
                path: vec![],
                column: (*rng.pick(&columns)).to_owned(),
            },
            5 => Request::Collapse {
                session,
                path: vec![],
            },
            6 => Request::Rules { session },
            _ => Request::Stats { session },
        };
        send(transport, &req);
    }
    send(
        transport,
        &Request::Close {
            session: name.to_owned(),
        },
    );
    transcript
}

#[test]
fn http_tcp_and_inprocess_transcripts_are_byte_identical() {
    let table = Arc::new(retail(42));

    // Fresh server per transport: parity must come from determinism, not
    // from shared state.
    let tcp_server = Server::bind(Arc::clone(&table), ServerConfig::default(), "127.0.0.1:0")
        .expect("bind tcp server")
        .spawn()
        .expect("spawn tcp server");
    let http_server = Server::bind(
        Arc::clone(&table),
        ServerConfig {
            http_addr: Some("127.0.0.1:0".to_owned()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind http server")
    .spawn()
    .expect("spawn http server");
    let engine = Engine::new(Arc::clone(&table), EngineConfig::default());

    // The last session is tailored: Region favored, Store ignored.
    let tailored: &[(&str, f64)] = &[("Region", 10.0), ("Store", 0.0)];
    for (seed, favor) in [(3u64, &[][..]), (11, &[]), (29, &[]), (29, tailored)] {
        let name = format!("parity-{seed}-{}", favor.len());
        let tcp = drive_session(
            &mut Tcp(Client::connect(tcp_server.addr()).expect("tcp connect")),
            &name,
            seed,
            favor,
        );
        let http = drive_session(
            &mut Http(
                HttpClient::connect(http_server.http_addr().expect("http addr"))
                    .expect("http connect"),
            ),
            &name,
            seed,
            favor,
        );
        let direct = drive_session(&mut Direct(&engine), &name, seed, favor);
        assert_eq!(tcp, http, "HTTP transcript diverged for seed {seed}");
        assert_eq!(
            tcp, direct,
            "in-process transcript diverged for seed {seed}"
        );
    }
    // The tailored session answers differently from the plain one.
    let plain = drive_session(&mut Direct(&engine), "plain", 29, &[]);
    let favored = drive_session(&mut Direct(&engine), "favored", 29, tailored);
    assert_ne!(plain[1..], favored[1..], "favor changed nothing");
}

#[test]
fn auth_and_quotas_never_touch_response_bytes() {
    // The same script through an authenticated, tightly-quota'd tenant
    // must produce the same bytes as the open server above — auth gates
    // access, never content.
    let table = Arc::new(retail(42));
    let tenants =
        smart_drilldown::server::TenantRegistry::from_token_file("tok-p alpha 8 2\n").unwrap();
    let mut config = ServerConfig {
        http_addr: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    };
    config.engine.tenants = Arc::new(tenants);
    let server = Server::bind(Arc::clone(&table), config, "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let engine = Engine::new(Arc::clone(&table), EngineConfig::default());

    let mut client = HttpClient::connect(server.http_addr().unwrap()).unwrap();
    struct AuthedHttp(HttpClient);
    impl Transport for AuthedHttp {
        fn call_line(&mut self, line: &str) -> String {
            self.0.call_line(Some("tok-p"), line).expect("request").1
        }
    }
    let via_tenant = drive_session(
        &mut AuthedHttp(HttpClient::connect(server.http_addr().unwrap()).unwrap()),
        "parity-a",
        17,
        &[],
    );
    let direct = drive_session(&mut Direct(&engine), "parity-a", 17, &[]);
    assert_eq!(via_tenant, direct);
    // And the unauthenticated view of the same server is a clean 401.
    let (status, _) = client.call_line(None, "{\"op\":\"table_info\"}").unwrap();
    assert_eq!(status, 401);
}
