//! The command loop both front-ends run, and the local REPL around an
//! in-process [`Engine`].

use crate::command::{parse_command, Command, HELP};
use sdd_server::{Engine, EngineConfig, OpenOptions, Request, Response};
use sdd_table::{ShardConfig, ShardSegment, Table, TableError};
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// What dataset to (re)load next.
pub enum Source {
    /// A CSV file on disk.
    Csv(String),
    /// A built-in demo dataset (name, optional row count).
    Demo(String, Option<usize>),
}

/// Runs the local REPL until the input ends or the user quits.
///
/// `input` lines are commands (see [`crate::command::HELP`]); all output is
/// written to `output`. Each loaded dataset gets its own in-process
/// [`Engine`], driven by [`drive`] exactly as `sdd connect` drives a
/// server.
pub fn run<R: BufRead, W: Write>(mut input: R, output: &mut W) -> io::Result<()> {
    writeln!(output, "smart drill-down explorer — `help` for commands")?;
    let mut engine: Option<Engine> = None;
    let mut session = Session::new("repl");
    loop {
        let mut call = |req: &Request| {
            Ok(engine.as_ref().map_or_else(
                || Response::error("load a dataset first: `open <csv>` or `demo retail`"),
                |e| e.handle(req).0,
            ))
        };
        let Some(source) = drive(&mut call, &mut session, &mut input, output)? else {
            return Ok(());
        };
        // The old dataset goes first: a reload never holds two tables.
        engine = None;
        let table = match load(&source) {
            Ok(t) => t,
            Err(e) => {
                writeln!(output, "error: {e}")?;
                continue;
            }
        };
        let (rows, columns) = (table.n_rows(), table.n_columns());
        writeln!(output, "loaded {rows} rows × {columns} columns")?;
        let loaded = Engine::new(table, EngineConfig::default());
        let mut call = |req: &Request| Ok(loaded.handle(req).0);
        session = Session::new("repl");
        if session.reopen(&mut call, OpenOptions::default(), output)? {
            show(&mut call, &session, output)?;
        }
        engine = Some(loaded);
    }
}

pub(crate) fn load(source: &Source) -> Result<Arc<Table>, String> {
    let table = match source {
        Source::Csv(path) => {
            // Streamed into one resident shard, whose segment is then moved
            // out: the file's text is never held whole.
            let config = ShardConfig::in_memory(1);
            let st = sdd_table::csv::stream_csv_file(path, &config).map_err(|e| match e {
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
            "census" => sdd_datagen::census_first_columns(rows.unwrap_or(100_000), 7, 1990),
            other => return Err(format!("unknown demo {other:?} (retail|marketing|census)")),
        },
    };
    Ok(Arc::new(table))
}

/// The analyst's session as the command loop sees it: the options it was
/// opened with, under the name `<base>-<n>` of its `n`-th opening.
pub struct Session {
    base: String,
    opened: usize,
    options: OpenOptions,
}

impl Session {
    /// A session not opened yet; [`Session::reopen`] opens it.
    pub fn new(base: impl Into<String>) -> Self {
        Self {
            base: base.into(),
            opened: 0,
            options: OpenOptions::default(),
        }
    }

    /// The session's current name on the engine.
    pub fn name(&self) -> String {
        format!("{}-{}", self.base, self.opened)
    }

    /// Opens `options` under a fresh name, then closes the session it
    /// replaces. When the engine rejects the options, writes its error and
    /// returns `false`: the current session stays as it was.
    pub fn reopen<W: Write>(
        &mut self,
        call: &mut impl FnMut(&Request) -> io::Result<Response>,
        options: OpenOptions,
        output: &mut W,
    ) -> io::Result<bool> {
        let open = Request::Open {
            session: format!("{}-{}", self.base, self.opened + 1),
            options: options.clone(),
        };
        let reply = call(&open)?;
        if !matches!(reply, Response::Opened { .. }) {
            print_reply(reply, output)?;
            return Ok(false);
        }
        if self.opened > 0 {
            call(&Request::Close {
                session: self.name(),
            })?;
        }
        self.opened += 1;
        self.options = options;
        Ok(true)
    }
}

/// Writes the session's rendered display.
fn show<W: Write>(
    call: &mut impl FnMut(&Request) -> io::Result<Response>,
    session: &Session,
    output: &mut W,
) -> io::Result<()> {
    let render = Request::Render {
        session: session.name(),
    };
    print_reply(call(&render)?, output)
}

/// Writes a reply that needs no follow-up request.
fn print_reply<W: Write>(reply: Response, output: &mut W) -> io::Result<()> {
    match reply {
        Response::Rendered { text } => writeln!(output, "{text}"),
        Response::RuleList { rules } => {
            for r in rules {
                let path: Vec<String> = r.path.iter().map(usize::to_string).collect();
                let path = if path.is_empty() {
                    "root".to_owned()
                } else {
                    path.join(".")
                };
                let ci = if r.exact {
                    "exact".to_owned()
                } else {
                    format!("[{:.0}, {:.0}]", r.ci.0, r.ci.1)
                };
                let (rule, count, weight) = (r.rule, r.count, r.weight);
                writeln!(
                    output,
                    "{path} {rule}  count={count:.0} ({ci}) weight={weight:.0}"
                )?;
            }
            Ok(())
        }
        Response::Stats { stats } => writeln!(output, "{stats:?}"),
        Response::Appended { epoch, rows } => {
            writeln!(output, "appended — epoch {epoch}, {rows} rows")
        }
        Response::Error { message } => writeln!(output, "error: {message}"),
        other => writeln!(output, "unexpected reply: {other:?}"),
    }
}

/// Applies a setting verb to `options` and returns its confirmation, or
/// `None` for any other command.
fn apply_setting(command: &Command, options: &mut OpenOptions) -> Option<String> {
    Some(match command {
        Command::Weight(w) => {
            options.weight = Some(w.clone());
            format!("weighting = {w}; display reset")
        }
        Command::SetK(k) => {
            options.k = Some(*k);
            format!("k = {k}; display reset")
        }
        Command::SetMw(mw) => {
            options.max_weight = Some(*mw);
            format!("mw = {mw}; display reset")
        }
        Command::Favor(column, factor) => {
            options.favor.retain(|(c, _)| c != column);
            options.favor.push((column.clone(), *factor));
            if *factor == 0.0 {
                format!("column {column:?} ignored; display reset")
            } else {
                format!("column {column:?} weighted ×{factor}; display reset")
            }
        }
        _ => return None,
    })
}

/// The command loop of both front-ends: reads commands from `input`, sends
/// each to the engine through `call` as protocol requests on `session`,
/// and writes the replies to `output`. The local REPL passes
/// [`Engine::handle`], `sdd connect` passes [`sdd_server::Client::call`].
///
/// Setting verbs (`weight`, `k`, `mw`, `favor`, `ignore`) reopen the
/// session with the updated options. Returns the dataset an `open` or
/// `demo` line asks for, or `None` once the input ends or the analyst
/// quits; `session` stays open either way.
pub fn drive<R: BufRead, W: Write>(
    call: &mut impl FnMut(&Request) -> io::Result<Response>,
    session: &mut Session,
    input: &mut R,
    output: &mut W,
) -> io::Result<Option<Source>> {
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
        let command = match parse_command(trimmed) {
            Ok(c) => c,
            Err(e) => {
                writeln!(output, "error: {e}")?;
                continue;
            }
        };
        let mut options = session.options.clone();
        if let Some(confirmation) = apply_setting(&command, &mut options) {
            if session.reopen(call, options, output)? {
                writeln!(output, "{confirmation}")?;
                if matches!(command, Command::Weight(_)) {
                    show(call, session, output)?;
                }
            }
            continue;
        }
        let session_name = session.name();
        let request = match command {
            Command::Quit => return Ok(None),
            Command::Open(path) => return Ok(Some(Source::Csv(path))),
            Command::Demo(name, rows) => return Ok(Some(Source::Demo(name, rows))),
            Command::Help => {
                writeln!(output, "{HELP}")?;
                continue;
            }
            Command::Show => Request::Render {
                session: session_name,
            },
            Command::Rules => Request::Rules {
                session: session_name,
            },
            Command::Refresh => Request::Refresh {
                session: session_name,
            },
            Command::Stats => Request::Stats {
                session: session_name,
            },
            Command::Expand(path) => Request::Expand {
                session: session_name,
                path,
            },
            Command::Star(path, column) => Request::Star {
                session: session_name,
                path,
                column,
            },
            Command::Collapse(path) => Request::Collapse {
                session: session_name,
                path,
            },
            Command::Append(values) => Request::Append {
                rows: vec![values],
                measures: Vec::new(),
            },
            // Applied above.
            Command::Weight(_) | Command::SetK(_) | Command::SetMw(_) | Command::Favor(..) => {
                continue
            }
        };
        match call(&request)? {
            Response::Expanded { .. } | Response::Collapsed => show(call, session, output)?,
            // Over a live table the refresh is scheduled; the render drains it.
            Response::RuleList { .. } if matches!(request, Request::Refresh { .. }) => {
                writeln!(output, "counts refreshed (exact)")?;
                show(call, session, output)?;
            }
            reply => print_reply(reply, output)?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_script(script: &str) -> String {
        let mut out = Vec::new();
        run(Cursor::new(script), &mut out).expect("io on buffers cannot fail");
        String::from_utf8(out).expect("utf8 output")
    }

    #[test]
    fn quit_immediately() {
        let out = run_script("quit\n");
        assert!(out.contains("help"));
    }

    #[test]
    fn help_before_loading() {
        let out = run_script("help\nquit\n");
        assert!(out.contains("smart drill-down on the rule at path"));
    }

    #[test]
    fn demo_retail_walkthrough() {
        let out = run_script("demo retail\nexpand\nexpand 2\nshow\nquit\n");
        assert!(out.contains("loaded 6000 rows × 3 columns"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        assert!(out.contains("comforters"), "{out}");
        // Nested expansion produced depth-2 rows.
        assert!(out.lines().any(|l| l.starts_with(". . ")), "{out}");
    }

    #[test]
    fn star_command_by_column_name() {
        let out = run_script("demo retail\nexpand\nstar 2 Region\nquit\n");
        // Expanding the Walmart rule's Region: CA-1/WA-5 surface.
        assert!(out.contains("CA-1") || out.contains("WA-5"), "{out}");
    }

    #[test]
    fn refresh_marks_counts_exact() {
        let out = run_script("demo retail\nexpand\nrefresh\nquit\n");
        assert!(out.contains("counts refreshed"), "{out}");
        assert!(out.contains("exact"), "{out}");
    }

    #[test]
    fn weight_switch_resets_display() {
        let out = run_script("demo retail\nexpand\nweight bits\nquit\n");
        assert!(out.contains("weighting = bits"), "{out}");
    }

    #[test]
    fn size_minus_one_weighting_skips_single_value_rules() {
        // Size-1 weighs a rule with one instantiated column 0, so every
        // rule the expansion picks instantiates at least two.
        let out = run_script("demo retail\nw size-1\nexpand\nrules\nquit\n");
        assert!(out.contains("weighting = size-1; display reset"), "{out}");
        let listed: Vec<&str> = out
            .lines()
            .filter(|l| l.contains(" weight=") && !l.contains("root ("))
            .collect();
        assert!(!listed.is_empty(), "{out}");
        for line in listed {
            let weight: f64 = line.rsplit("weight=").next().unwrap().parse().unwrap();
            let rule = &line[line.find('(').unwrap()..line.find(')').unwrap()];
            let values = rule.split(", ").filter(|v| !v.ends_with('?')).count();
            assert!(weight >= 1.0 && values >= 2, "{line}\n{out}");
        }
    }

    #[test]
    fn bad_commands_are_reported_not_fatal() {
        let out = run_script("demo retail\nfrobnicate\nexpand 9.9\nstar 0 NoSuchColumn\nquit\n");
        assert!(out.contains("unknown command"), "{out}");
        assert!(out.contains("no node at path"), "{out}");
        assert!(out.contains("unknown column"), "{out}");
    }

    #[test]
    fn ignore_column_removes_it_from_rules() {
        // Ignoring Store: zero weight for Store values, so the summary must
        // not instantiate Store anywhere.
        let out = run_script("demo retail\nignore Store\nexpand\nquit\n");
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
        let out = run_script("demo retail\nfavor Region 10\nexpand\nquit\n");
        assert!(out.contains("weighted ×10"), "{out}");
        // Region-instantiating rules dominate after the boost.
        let after = out.split("weighted").nth(1).unwrap();
        assert!(after.contains("MA-3") || after.contains("Region-"), "{out}");
    }

    #[test]
    fn favor_unknown_column_reports_error() {
        let out = run_script("demo retail\nfavor Price\nquit\n");
        assert!(out.contains("unknown column"), "{out}");
    }

    #[test]
    fn open_missing_file_reports_error() {
        let out = run_script("open /no/such/file.csv\nquit\n");
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn eof_terminates_cleanly() {
        let out = run_script("demo retail\n");
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
        let out = run_script(&script);
        std::fs::remove_file(&path).ok();
        assert!(out.contains("loaded 3 rows × 2 columns"), "{out}");
        assert!(out.contains("cookies"), "{out}");
    }

    #[test]
    fn settings_reopen_the_session_and_close_the_one_replaced() {
        let engine = Engine::new(Arc::new(sdd_datagen::retail(42)), EngineConfig::default());
        let mut call = |req: &Request| Ok(engine.handle(req).0);
        let mut session = Session::new("t");
        let mut out = Vec::new();
        assert!(session
            .reopen(&mut call, OpenOptions::default(), &mut out)
            .unwrap());
        let mut script = Cursor::new("weight bits\nk 3\nmw 5\nfavor Region\nignore Store\nk 0\n");
        let next = drive(&mut call, &mut session, &mut script, &mut out).unwrap();
        assert!(next.is_none());
        assert_eq!(engine.n_sessions(), 1);
        // Five accepted settings, one rejected.
        assert_eq!(session.name(), "t-6");
        let favor = vec![("Region".to_owned(), 3.0), ("Store".to_owned(), 0.0)];
        let expected = OpenOptions {
            k: Some(3),
            max_weight: Some(5.0),
            weight: Some("bits".to_owned()),
            favor,
            ..OpenOptions::default()
        };
        assert_eq!(session.options, expected);
    }

    #[test]
    fn reload_switches_datasets_mid_session() {
        let out = run_script("demo retail\nexpand\ndemo marketing\nquit\n");
        assert!(out.contains("loaded 6000 rows × 3 columns"), "{out}");
        assert!(out.contains("loaded 9409 rows × 7 columns"), "{out}");
    }
}
