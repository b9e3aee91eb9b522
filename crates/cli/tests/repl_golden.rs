//! The REPL's exact output, from the built binary: each `golden/<name>.in`
//! script piped into `sdd` must print `golden/<name>.out` byte for byte.
//! Regenerate an expected file with `sdd < golden/<name>.in >
//! golden/<name>.out` only when a change to the output is intended.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

fn repl(script: &[u8]) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sdd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("the sdd binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script)
        .expect("the REPL reads its script");
    let out = child.wait_with_output().expect("the REPL exits");
    assert!(out.status.success(), "exit status {:?}", out.status);
    out.stdout
}

#[test]
fn repl_scripts_print_their_golden_transcripts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in ["retail_star", "census", "retail_settings"] {
        let script = std::fs::read(dir.join(format!("{name}.in"))).expect("script");
        let expected = std::fs::read(dir.join(format!("{name}.out"))).expect("transcript");
        let got = repl(&script);
        assert!(
            got == expected,
            "{name}: transcript differs\n--- expected\n{}\n--- got\n{}",
            String::from_utf8_lossy(&expected),
            String::from_utf8_lossy(&got)
        );
    }
}
