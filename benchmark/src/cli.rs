//! Command-line parsing.
//!
//! ```text
//! sdd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--scale full|smoke] [--append <results.jsonl>]
//! sdd-benchmark compare <a.jsonl> <b.jsonl>
//! ```

use crate::scale::Scale;
use crate::workloads::{RunArgs, Workload};
use std::path::PathBuf;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// The `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
pub const DEFAULT_SECONDS: u64 = 20;

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run one workload.
    Run {
        /// The run.
        args: RunArgs,
        /// Append the full result, as one JSON line, to this file.
        append: Option<PathBuf>,
    },
    /// Compare two sets of results.
    Compare {
        /// The first set (one JSON object per line).
        a: PathBuf,
        /// The second set.
        b: PathBuf,
    },
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("usage: compare <a.jsonl> <b.jsonl>".to_owned()),
        };
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut scale = Scale::Full;
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?;
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("bad --scale {value:?} (full or smoke)")),
                };
            }
            "--append" => append = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Command::Run {
        args: RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            traced,
            scale,
        },
        append,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cmd = parse(&strings(&[
            "--workload",
            "serve_hot",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                args: RunArgs {
                    workload: Workload::ServeHot,
                    seed: 7,
                    seconds: 15,
                    traced: true,
                    scale: Scale::Full,
                },
                append: None,
            }
        );
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--seed", "1"])).is_err());
        assert!(parse(&strings(&["--workload", "serve_hot", "--trace", "2"])).is_err());
        assert_eq!(
            parse(&strings(&["compare", "a", "b"])).unwrap(),
            Command::Compare {
                a: "a".into(),
                b: "b".into()
            }
        );
    }
}
