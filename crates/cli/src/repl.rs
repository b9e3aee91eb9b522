//! The REPL loop, generic over input/output for testability.

use crate::command::{parse_command, Command, WeightKind, HELP};
use sdd_core::{BitsWeight, SizeMinusOne, SizeWeight, WeightFn};
use sdd_explorer::{Explorer, ExplorerConfig};
use sdd_table::{ShardConfig, ShardSegment, Table, TableError};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// What dataset to (re)load next.
pub(crate) enum Source {
    /// A CSV file on disk.
    Csv(String),
    /// A built-in demo dataset (name, optional row count).
    Demo(String, Option<usize>),
}

enum Outcome {
    Quit,
    Reload(Source),
}

/// Runs the REPL until the input ends or the user quits.
///
/// `input` lines are commands (see [`crate::command::HELP`]); all output is
/// written to `output`. Designed so tests can drive a whole session from a
/// string.
pub fn run<R: BufRead, W: Write>(mut input: R, output: &mut W) -> std::io::Result<()> {
    writeln!(output, "smart drill-down explorer — `help` for commands")?;
    let mut pending: Option<Source> = None;

    loop {
        let source = match pending.take() {
            Some(s) => s,
            None => match read_source(&mut input, output)? {
                Some(s) => s,
                None => return Ok(()),
            },
        };
        let table = match load(&source) {
            Ok(t) => t,
            Err(e) => {
                writeln!(output, "error: {e}")?;
                continue;
            }
        };
        writeln!(
            output,
            "loaded {} rows × {} columns",
            table.n_rows(),
            table.n_columns()
        )?;
        match explore(&table, &mut input, output)? {
            Outcome::Quit => return Ok(()),
            Outcome::Reload(next) => pending = Some(next),
        }
    }
}

/// Reads commands until one provides a dataset (or input ends / quits).
fn read_source<R: BufRead, W: Write>(
    input: &mut R,
    output: &mut W,
) -> std::io::Result<Option<Source>> {
    let mut line = String::new();
    loop {
        write!(output, "> ")?;
        output.flush()?;
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_command(trimmed) {
            Ok(Command::Open(path)) => return Ok(Some(Source::Csv(path))),
            Ok(Command::Demo(name, rows)) => return Ok(Some(Source::Demo(name, rows))),
            Ok(Command::Quit) => return Ok(None),
            Ok(Command::Help) => writeln!(output, "{HELP}")?,
            Ok(_) => writeln!(
                output,
                "load a dataset first: `open <csv>` or `demo retail`"
            )?,
            Err(e) => writeln!(output, "error: {e}")?,
        }
    }
}

pub(crate) fn load(source: &Source) -> Result<Arc<Table>, String> {
    let table = match source {
        Source::Csv(path) => {
            // Streamed into one resident shard, whose segment is then moved
            // out: the file's text is never held whole.
            let config = ShardConfig::in_memory(1);
            let st = sdd_table::csv::stream_csv_file(path, &[], &config).map_err(|e| match e {
                TableError::Io(e) => format!("cannot read {path:?}: {e}"),
                e => e.to_string(),
            })?;
            let segment = st.try_segment(0).map_err(|e| e.to_string())?;
            drop(st);
            Arc::try_unwrap(segment).map_or_else(|s| s.table().clone(), ShardSegment::into_table)
        }
        Source::Demo(name, rows) => match name.to_ascii_lowercase().as_str() {
            "retail" => sdd_datagen::retail(42),
            "marketing" => sdd_datagen::marketing(2016).project_first_columns(7),
            "census" => sdd_datagen::census(rows.unwrap_or(100_000), 1990).project_first_columns(7),
            other => return Err(format!("unknown demo {other:?} (retail|marketing|census)")),
        },
    };
    Ok(Arc::new(table))
}

/// The active weighting: a base kind plus per-column multipliers (the
/// paper's §2.2 favor/ignore adjustments). Monotone and non-negative for
/// any non-negative multipliers.
struct AdjustedWeight {
    base: WeightKind,
    multipliers: Vec<f64>,
}

impl WeightFn for AdjustedWeight {
    fn weight(&self, rule: &sdd_core::Rule, table: &Table) -> f64 {
        let sum: f64 = rule
            .instantiated_columns()
            .map(|c| {
                let base = match self.base {
                    WeightKind::Size | WeightKind::SizeMinusOne => 1.0,
                    WeightKind::Bits => (table.cardinality(c).max(1) as f64).log2().ceil(),
                };
                base * self.multipliers.get(c).copied().unwrap_or(1.0)
            })
            .sum();
        match self.base {
            WeightKind::SizeMinusOne => (sum - 1.0).max(0.0),
            _ => sum,
        }
    }

    fn name(&self) -> &str {
        "adjusted"
    }
}

fn make_weight(kind: WeightKind, multipliers: &[f64]) -> Box<dyn WeightFn> {
    if multipliers.iter().all(|&m| (m - 1.0).abs() < 1e-12) {
        match kind {
            WeightKind::Size => Box::new(SizeWeight),
            WeightKind::Bits => Box::new(BitsWeight),
            WeightKind::SizeMinusOne => Box::new(SizeMinusOne),
        }
    } else {
        Box::new(AdjustedWeight {
            base: kind,
            multipliers: multipliers.to_vec(),
        })
    }
}

/// The exploration loop over one loaded table.
fn explore<R: BufRead, W: Write>(
    table: &Arc<Table>,
    input: &mut R,
    output: &mut W,
) -> std::io::Result<Outcome> {
    let mut weight_kind = WeightKind::Size;
    let mut multipliers = vec![1.0f64; table.n_columns()];
    let mut config = ExplorerConfig {
        k: 4,
        ..ExplorerConfig::default()
    };
    let mut explorer = Explorer::new(
        table.clone(),
        make_weight(weight_kind, &multipliers),
        config.clone(),
    );
    writeln!(output, "{}", explorer.render())?;

    let mut line = String::new();
    loop {
        write!(output, "> ")?;
        output.flush()?;
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(Outcome::Quit);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let command = match parse_command(trimmed) {
            Ok(c) => c,
            Err(e) => {
                writeln!(output, "error: {e}")?;
                continue;
            }
        };
        match command {
            Command::Quit => return Ok(Outcome::Quit),
            Command::Open(path) => return Ok(Outcome::Reload(Source::Csv(path))),
            Command::Demo(name, rows) => return Ok(Outcome::Reload(Source::Demo(name, rows))),
            Command::Help => writeln!(output, "{HELP}")?,
            Command::Show => writeln!(output, "{}", explorer.render())?,
            Command::Stats => match explorer.try_drain_pending_prefetch() {
                Ok(()) => {
                    writeln!(output, "handler: {:?}", explorer.handler_stats())?;
                    writeln!(output, "explorer: {:?}", explorer.stats)?;
                }
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Refresh => match explorer.try_refresh_exact_counts() {
                Ok(()) => writeln!(output, "counts refreshed (exact)\n{}", explorer.render())?,
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Expand(path) => match explorer.expand(&path) {
                Ok(_) => writeln!(output, "{}", explorer.render())?,
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Star(path, column) => match table.schema().index_of(&column) {
                Ok(col) => match explorer.expand_star(&path, col) {
                    Ok(_) => writeln!(output, "{}", explorer.render())?,
                    Err(e) => writeln!(output, "error: {e}")?,
                },
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Collapse(path) => match explorer.collapse(&path) {
                Ok(()) => writeln!(output, "{}", explorer.render())?,
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Weight(kind) => {
                weight_kind = kind;
                explorer = Explorer::new(
                    table.clone(),
                    make_weight(weight_kind, &multipliers),
                    config.clone(),
                );
                writeln!(
                    output,
                    "weighting = {kind}; display reset\n{}",
                    explorer.render()
                )?;
            }
            Command::Favor(column, factor) => match table.schema().index_of(&column) {
                Ok(col) => {
                    multipliers[col] = factor;
                    explorer = Explorer::new(
                        table.clone(),
                        make_weight(weight_kind, &multipliers),
                        config.clone(),
                    );
                    writeln!(
                        output,
                        "column {column:?} weighted ×{factor}; display reset"
                    )?;
                }
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::Ignore(column) => match table.schema().index_of(&column) {
                Ok(col) => {
                    multipliers[col] = 0.0;
                    explorer = Explorer::new(
                        table.clone(),
                        make_weight(weight_kind, &multipliers),
                        config.clone(),
                    );
                    writeln!(output, "column {column:?} ignored; display reset")?;
                }
                Err(e) => writeln!(output, "error: {e}")?,
            },
            Command::SetK(k) => {
                config.k = k;
                explorer = Explorer::new(
                    table.clone(),
                    make_weight(weight_kind, &multipliers),
                    config.clone(),
                );
                writeln!(output, "k = {k}; display reset")?;
            }
            Command::SetMw(mw) => {
                config.max_weight = Some(mw);
                explorer = Explorer::new(
                    table.clone(),
                    make_weight(weight_kind, &multipliers),
                    config.clone(),
                );
                writeln!(output, "mw = {mw}; display reset")?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drive(script: &str) -> String {
        let mut out = Vec::new();
        run(Cursor::new(script), &mut out).expect("io on buffers cannot fail");
        String::from_utf8(out).expect("utf8 output")
    }

    #[test]
    fn quit_immediately() {
        let out = drive("quit\n");
        assert!(out.contains("help"));
    }

    #[test]
    fn help_before_loading() {
        let out = drive("help\nquit\n");
        assert!(out.contains("smart drill-down on the rule at path"));
    }

    #[test]
    fn demo_retail_walkthrough() {
        let out = drive("demo retail\nexpand\nexpand 2\nshow\nquit\n");
        assert!(out.contains("loaded 6000 rows × 3 columns"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        assert!(out.contains("comforters"), "{out}");
        // Nested expansion produced depth-2 rows.
        assert!(out.lines().any(|l| l.starts_with(". . ")), "{out}");
    }

    #[test]
    fn star_command_by_column_name() {
        let out = drive("demo retail\nexpand\nstar 2 Region\nquit\n");
        // Expanding the Walmart rule's Region: CA-1/WA-5 surface.
        assert!(out.contains("CA-1") || out.contains("WA-5"), "{out}");
    }

    #[test]
    fn refresh_marks_counts_exact() {
        let out = drive("demo retail\nexpand\nrefresh\nquit\n");
        assert!(out.contains("counts refreshed"), "{out}");
        assert!(out.contains("exact"), "{out}");
    }

    #[test]
    fn weight_switch_resets_display() {
        let out = drive("demo retail\nexpand\nweight bits\nquit\n");
        assert!(out.contains("weighting = bits"), "{out}");
    }

    #[test]
    fn bad_commands_are_reported_not_fatal() {
        let out = drive("demo retail\nfrobnicate\nexpand 9.9\nstar 0 NoSuchColumn\nquit\n");
        assert!(out.contains("unknown command"), "{out}");
        assert!(out.contains("no node at path"), "{out}");
        assert!(out.contains("unknown column"), "{out}");
    }

    #[test]
    fn ignore_column_removes_it_from_rules() {
        // Ignoring Store: zero weight for Store values, so the summary must
        // not instantiate Store anywhere.
        let out = drive("demo retail\nignore Store\nexpand\nquit\n");
        assert!(out.contains("ignored"), "{out}");
        let after = out.split("ignored").nth(1).unwrap();
        assert!(!after.contains("Walmart"), "{out}");
        assert!(
            after.contains("comforters") || after.contains("MA-3"),
            "{out}"
        );
    }

    #[test]
    fn favor_column_steers_rules_toward_it() {
        let out = drive("demo retail\nfavor Region 10\nexpand\nquit\n");
        assert!(out.contains("weighted ×10"), "{out}");
        // Region-instantiating rules dominate after the boost.
        let after = out.split("weighted").nth(1).unwrap();
        assert!(after.contains("MA-3") || after.contains("Region-"), "{out}");
    }

    #[test]
    fn favor_unknown_column_reports_error() {
        let out = drive("demo retail\nfavor Price\nquit\n");
        assert!(out.contains("unknown column"), "{out}");
    }

    #[test]
    fn open_missing_file_reports_error() {
        let out = drive("open /no/such/file.csv\nquit\n");
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn eof_terminates_cleanly() {
        let out = drive("demo retail\n");
        assert!(out.contains("loaded 6000"));
    }

    #[test]
    fn open_real_csv_file_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join("sdd_cli_test_store.csv");
        std::fs::write(
            &path,
            "Store,Product\nWalmart,cookies\nWalmart,cookies\nTarget,bikes\n",
        )
        .unwrap();
        let script = format!("open {}\nexpand\nquit\n", path.display());
        let out = drive(&script);
        std::fs::remove_file(&path).ok();
        assert!(out.contains("loaded 3 rows × 2 columns"), "{out}");
        assert!(out.contains("cookies"), "{out}");
    }

    #[test]
    fn reload_switches_datasets_mid_session() {
        let out = drive("demo retail\nexpand\ndemo marketing\nquit\n");
        assert!(out.contains("loaded 6000 rows × 3 columns"), "{out}");
        assert!(out.contains("loaded 9409 rows × 7 columns"), "{out}");
    }
}
