//! `sdd` — the interactive smart drill-down terminal tool.
//!
//! ```sh
//! cargo run -p sdd-cli --release                 # local REPL
//! cargo run -p sdd-cli --release -- serve        # multi-session server
//! cargo run -p sdd-cli --release -- connect      # client REPL
//! sdd> demo retail
//! sdd> expand
//! sdd> star 2 Region
//! ```

// D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::io::{stdin, stdout};

const USAGE: &str = "\
usage:
  sdd                     local single-user REPL
  sdd serve [options]     host a concurrent multi-session server
  sdd connect [addr]      connect a REPL to a running server
";

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = stdout().lock();
    match args.first().map(String::as_str) {
        None => {
            let stdin = stdin().lock();
            sdd_cli::run(stdin, &mut stdout)
        }
        Some("serve") => sdd_cli::serve(&args[1..], &mut stdout),
        Some("connect") => {
            let addr = args.get(1).cloned().unwrap_or("127.0.0.1:7878".to_owned());
            let stdin = stdin().lock();
            sdd_cli::connect(&addr, stdin, &mut stdout)
        }
        Some("help" | "--help" | "-h") => {
            print!(
                "{USAGE}\n{}\n{}",
                sdd_cli::net::SERVE_USAGE,
                sdd_cli::net::CONNECT_USAGE
            );
            Ok(())
        }
        Some(other) => {
            eprintln!("unknown mode {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
