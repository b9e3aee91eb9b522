//! Round-trip tests for every protocol request/response variant: value →
//! JSON text → value must be the identity, and error payloads built from
//! the library error types' `Display` impls must survive the wire.

use sdd_explorer::SessionError;
use sdd_server::{Json, OpenOptions, Request, Response, RuleInfo, StatsInfo};
use sdd_table::TableError;

fn roundtrip_request(req: &Request) {
    let line = req.to_json().to_string();
    let parsed = Request::from_json(&Json::parse(&line).expect("request line parses"))
        .expect("request deserializes");
    assert_eq!(&parsed, req, "request round-trip changed value: {line}");
    // Serialization is deterministic: same value → same bytes.
    assert_eq!(parsed.to_json().to_string(), line);
}

fn roundtrip_response(resp: &Response) {
    let line = resp.to_json().to_string();
    let parsed = Response::from_json(&Json::parse(&line).expect("response line parses"))
        .expect("response deserializes");
    assert_eq!(&parsed, resp, "response round-trip changed value: {line}");
    assert_eq!(parsed.to_json().to_string(), line);
}

#[test]
fn every_request_variant_round_trips() {
    let session = "client-1".to_owned();
    let requests = [
        Request::Open {
            session: session.clone(),
            options: OpenOptions::default(),
        },
        Request::Open {
            session: "with options".to_owned(),
            options: OpenOptions {
                k: Some(4),
                max_weight: Some(3.5),
                weight: Some("bits".to_owned()),
                seed: Some(12345),
                capacity: Some(20_000),
                min_ss: Some(1_000),
                favor: vec![("Region".to_owned(), 10.0), ("Store".to_owned(), 0.0)],
            },
        },
        Request::Expand {
            session: session.clone(),
            path: vec![],
        },
        Request::Expand {
            session: session.clone(),
            path: vec![0, 2, 1],
        },
        Request::Star {
            session: session.clone(),
            path: vec![1],
            column: "Region".to_owned(),
        },
        Request::Collapse {
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
        Request::Stats {
            session: session.clone(),
        },
        Request::Close { session },
        Request::Append {
            rows: vec![
                vec!["Walmart".to_owned(), "bread".to_owned()],
                vec!["Target".to_owned(), "milk".to_owned()],
            ],
            measures: vec![vec![1.5, 2.5]],
        },
        Request::Append {
            rows: vec![],
            measures: vec![],
        },
        Request::Ping,
        Request::TableInfo,
    ];
    for req in &requests {
        roundtrip_request(req);
    }
}

#[test]
fn every_response_variant_round_trips() {
    let rule = RuleInfo {
        path: vec![0, 1],
        rule: "(Walmart, ?, ?)".to_owned(),
        count: 1010.0,
        ci: (915.6437889984718, 1104.3562110015282),
        exact: false,
        weight: 1.0,
    };
    let exact_rule = RuleInfo {
        path: vec![],
        rule: "(?, ?, ?)".to_owned(),
        count: 6000.0,
        ci: (6000.0, 6000.0),
        exact: true,
        weight: 0.0,
    };
    let responses = [
        Response::Opened {
            session: "alice".to_owned(),
        },
        Response::Expanded {
            rules: vec![rule.clone(), exact_rule.clone()],
        },
        Response::Expanded { rules: vec![] },
        Response::Collapsed,
        Response::RuleList {
            rules: vec![exact_rule, rule],
        },
        Response::Rendered {
            text: "Store | Count\n------\nWalmart | 7\n".to_owned(),
        },
        Response::Stats {
            stats: StatsInfo {
                expansions: 3,
                served_from_memory: 2,
                refreshes: 1,
                finds: 2,
                combines: 1,
                creates: 1,
                full_scans: 4,
                evictions: 0,
                stored_samples: 5,
                memory_used: 19_000,
            },
        },
        Response::Closed,
        Response::Appended {
            epoch: 3,
            rows: 192,
        },
        Response::Pong,
        Response::TableInfo {
            rows: 6000,
            columns: vec!["Store".to_owned(), "Product".to_owned()],
        },
        Response::Error {
            message: "something broke".to_owned(),
        },
    ];
    for resp in &responses {
        roundtrip_response(resp);
    }
}

#[test]
fn seeds_above_2_pow_53_survive_the_wire_exactly() {
    // Seeds ride as decimal strings: the full u64 range must round-trip
    // (a JSON-number encoding would silently round past 2^53).
    for seed in [0u64, 1 << 53, (1 << 53) + 1, u64::MAX] {
        let req = Request::Open {
            session: "s".to_owned(),
            options: OpenOptions {
                seed: Some(seed),
                ..OpenOptions::default()
            },
        };
        let line = req.to_json().to_string();
        let parsed = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, req, "{line}");
    }
    // Hand-written numeric seeds still parse (≤ 2^53).
    let req = sdd_server::protocol::parse_request_line(r#"{"op":"open","session":"s","seed":7}"#)
        .unwrap();
    let Request::Open { options, .. } = req else {
        panic!("wrong variant");
    };
    assert_eq!(options.seed, Some(7));
}

#[test]
fn float_payloads_survive_bit_exact() {
    let rule = RuleInfo {
        path: vec![3],
        rule: "(?, x)".to_owned(),
        count: 1.0 / 3.0,
        ci: (0.1 + 0.2, f64::MAX),
        exact: false,
        weight: 2.000000000000001,
    };
    let resp = Response::Expanded {
        rules: vec![rule.clone()],
    };
    let line = resp.to_json().to_string();
    let parsed = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
    let Response::Expanded { rules } = parsed else {
        panic!("wrong variant");
    };
    assert_eq!(rules[0].count.to_bits(), rule.count.to_bits());
    assert_eq!(rules[0].ci.0.to_bits(), rule.ci.0.to_bits());
    assert_eq!(rules[0].ci.1.to_bits(), rule.ci.1.to_bits());
    assert_eq!(rules[0].weight.to_bits(), rule.weight.to_bits());
}

#[test]
fn session_error_payloads_round_trip() {
    let errors = [
        SessionError::InvalidPath(vec![0, 9]),
        SessionError::ColumnNotStarred(2),
        SessionError::Storage("spill file truncated".to_owned()),
    ];
    for e in errors {
        let resp = Response::error(&e);
        let line = resp.to_json().to_string();
        let parsed = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(
            parsed,
            Response::Error {
                message: e.to_string()
            },
            "{line}"
        );
    }
    // The concrete Display strings are part of the wire contract.
    let resp = Response::error(SessionError::InvalidPath(vec![9]));
    assert_eq!(
        resp.to_json().to_string(),
        r#"{"ok":false,"op":"error","error":"no node at path [9]"}"#
    );
}

#[test]
fn table_error_payloads_round_trip() {
    let errors = [
        TableError::ArityMismatch {
            expected: 3,
            got: 2,
        },
        TableError::UnknownColumn("Price\"quoted\"".to_owned()),
        TableError::UnknownMeasure("Sales".to_owned()),
        TableError::DuplicateColumn("Store".to_owned()),
        TableError::Csv {
            line: 7,
            message: "bad quote".to_owned(),
        },
        TableError::ParseNumber("x1\n".to_owned()),
        TableError::Empty,
    ];
    for e in errors {
        let resp = Response::error(&e);
        let line = resp.to_json().to_string();
        let parsed = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(
            parsed,
            Response::Error {
                message: e.to_string()
            },
            "{line}"
        );
        assert!(!line.contains('\n'), "wire lines must stay single-line");
    }
}

#[test]
fn malformed_requests_are_rejected_with_reasons() {
    for (line, needle) in [
        ("", "bad json"),
        ("{}", "op"),
        (r#"{"op":"warp"}"#, "unknown op"),
        (r#"{"op":"expand"}"#, "session"),
        (r#"{"op":"expand","session":"s"}"#, "path"),
        (r#"{"op":"expand","session":"s","path":[1.5]}"#, "path"),
        (r#"{"op":"star","session":"s","path":[]}"#, "column"),
        (r#"{"op":"open","session":"s","k":-1}"#, "k"),
        (r#"{"op":"open","session":"s","mw":"big"}"#, "mw"),
        (r#"{"op":"open","session":"s","favor":["Region"]}"#, "favor"),
        (
            r#"{"op":"open","session":"s","favor":{"Region":"x"}}"#,
            "favor",
        ),
        (r#"{"op":"append"}"#, "rows"),
        (r#"{"op":"append","rows":[["a"],7]}"#, "bad row"),
        (
            r#"{"op":"append","rows":[["a"]],"measures":[["x"]]}"#,
            "measure",
        ),
    ] {
        let err = match sdd_server::protocol::parse_request_line(line) {
            Err(e) => e,
            Ok(req) => panic!("{line:?} unexpectedly parsed to {req:?}"),
        };
        assert!(
            err.contains(needle),
            "{line:?} → {err:?} (expected mention of {needle:?})"
        );
    }
}

#[test]
fn unknown_fields_are_ignored_for_forward_compat() {
    let line = r#"{"op":"ping","future_field":[1,2,3]}"#;
    let req = sdd_server::protocol::parse_request_line(line).unwrap();
    assert_eq!(req, Request::Ping);
}
