//! The benchmark's one command. See `README.md`.

use sdd_benchmark::cli::{self, Command};
use sdd_benchmark::{compare, work::Workdir, workloads};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// The product's one source of thread counts. The harness pins it to 1:
/// a request that fans out over both vCPUs of the reference box rides on
/// whether the host grants the second one, which it does in phases.
const THREADS_VAR: &str = "SDD_THREADS";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sdd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match cli::parse(args)? {
        Command::Compare { a, b } => {
            // Like a run, from the repository root.
            let report = compare::compare_files(&a, &b, Path::new("BENCHMARK.json"))?;
            print!("{}", report.text);
            Ok(if report.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Command::Run { args, append } => {
            // Any SDD_* knob changes what the product does; a run under one
            // is not this benchmark.
            if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("SDD_")) {
                return Err(format!("refusing to run with {name} set"));
            }
            // Before any thread exists and any store is built.
            std::env::set_var(THREADS_VAR, "1");
            let work = Workdir::open()?;
            let outcome = workloads::run(args, &work)?;
            if let Some(path) = append {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("open {}: {e}", path.display()))?;
                writeln!(file, "{}", outcome.to_json())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            for m in outcome.metrics.iter().chain(&outcome.info) {
                eprintln!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "timed phase {:.1} s, digest {}, {} requests, {} failed",
                outcome.timed_phase_s, outcome.transcript_digest, outcome.attempted, outcome.failed
            );
            for failure in outcome.checks.failures() {
                eprintln!("check failed: {failure}");
            }
            println!("{}", outcome.contract_line());
            Ok(if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}
