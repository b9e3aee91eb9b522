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

use std::io::{stdin, stdout};

const USAGE: &str = "\
usage:
  sdd [--no-simd]         local single-user REPL
  sdd serve [options]     host a concurrent multi-session server
  sdd connect [addr]      connect a REPL to a running server

global options:
  --no-simd               force the scalar count kernels (also: SDD_NO_SIMD=1)
";

fn main() -> std::io::Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flag, honored in every mode (results are bit-identical either
    // way — the switch exists for debugging and A/B timing).
    if let Some(i) = args.iter().position(|a| a == "--no-simd") {
        args.remove(i);
        sdd_core::accel::set_simd_enabled(false);
    }
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
