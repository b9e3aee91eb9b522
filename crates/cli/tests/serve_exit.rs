//! `sdd serve`'s exit status, from the built binary: 2 for a usage error,
//! 1 when the server cannot start, each with its message on the stream it
//! has always used.

use std::process::{Command, Output};

fn sdd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdd"))
        .args(args)
        .output()
        .expect("the sdd binary runs")
}

#[test]
fn usage_errors_exit_two() {
    let cases: [(&[&str], &str); 4] = [
        (&["serve", "--bogus"], "error: unknown flag --bogus"),
        (&["serve", "stray"], "error: unexpected argument \"stray\""),
        (
            &["serve", "--tail", "4", "--shards", "2"],
            "error: --tail conflicts with --shards",
        ),
        (
            &["serve", "--smoke-scrape"],
            "error: --smoke-scrape requires --http",
        ),
    ];
    for (args, message) in cases {
        let out = sdd(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stdout}");
        assert!(stdout.contains(message), "{args:?}: {stdout}");
        assert!(stdout.contains("usage: sdd serve"), "{args:?}: {stdout}");
    }
    // A malformed flag value is reported on stderr.
    let out = sdd(&["serve", "--rows", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --rows"));
}

#[test]
fn start_failures_exit_one() {
    let missing = "/nonexistent/sdd-serve-exit.csv";
    for args in [
        &["serve", "--open", missing, "--tail", "4"][..],
        &["serve", "--open", missing, "--shards", "2"],
        &["serve", "--open", missing],
        &["serve", "--tokens", missing],
    ] {
        let out = sdd(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stdout}");
        assert!(stdout.starts_with("error: "), "{args:?}: {stdout}");
        assert!(!stdout.contains("serving"), "{args:?}: {stdout}");
    }
}
