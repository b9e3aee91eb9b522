//! The one command language of the local REPL and `sdd connect`.

/// One command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Load a CSV file (local REPL only).
    Open(String),
    /// Load a built-in demo dataset (`retail`, `marketing`, `census [rows]`;
    /// local REPL only).
    Demo(String, Option<usize>),
    /// Expand the rule at a path (rule drill-down).
    Expand(Vec<usize>),
    /// Star drill-down: path + column name.
    Star(Vec<usize>, String),
    /// Collapse (roll up) the node at a path.
    Collapse(Vec<usize>),
    /// Render the current display.
    Show,
    /// List the visible rules with their paths.
    Rules,
    /// Replace estimates with exact counts (one scan).
    Refresh,
    /// Append one row, values in schema order, to a live served table.
    Append(Vec<String>),
    /// Switch the weighting function by name (resets expansions).
    Weight(String),
    /// Change `k` (rules per expansion).
    SetK(usize),
    /// Change the `mw` optimizer parameter.
    SetMw(f64),
    /// Multiply a column's weight contribution (paper §2.2: "expressing a
    /// higher preference for a column"; `ignore` is a factor of 0,
    /// "expressing indifference"). Resets expansions.
    Favor(String, f64),
    /// Print session and sampling statistics.
    Stats,
    /// Print the help text.
    Help,
    /// Exit.
    Quit,
}

/// Parses a node path: `root` or `-` → `[]`; `0.2.1` → `[0, 2, 1]`.
pub fn parse_path(s: &str) -> Result<Vec<usize>, String> {
    if s.is_empty() || s == "root" || s == "-" {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|part| {
            part.parse::<usize>()
                .map_err(|_| format!("bad path segment {part:?} (expected e.g. `root` or `0.2`)"))
        })
        .collect()
}

/// Parses one input line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut parts = line.split_whitespace();
    let Some(verb) = parts.next() else {
        return Err("empty command".to_owned());
    };
    let rest: Vec<&str> = parts.collect();
    let need = |n: usize, usage: &str| -> Result<(), String> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(format!("usage: {usage}"))
        }
    };

    match verb.to_ascii_lowercase().as_str() {
        "open" => {
            need(1, "open <file.csv>")?;
            Ok(Command::Open(rest[0].to_owned()))
        }
        "demo" => match rest.as_slice() {
            [name] => Ok(Command::Demo((*name).to_owned(), None)),
            [name, rows] => {
                let n = rows
                    .parse()
                    .map_err(|_| format!("bad row count {rows:?}"))?;
                Ok(Command::Demo((*name).to_owned(), Some(n)))
            }
            _ => Err("usage: demo <retail|marketing|census> [rows]".to_owned()),
        },
        "expand" | "e" => {
            let path = parse_path(rest.first().copied().unwrap_or("root"))?;
            Ok(Command::Expand(path))
        }
        "star" | "s" => {
            need(2, "star <path> <column>")?;
            Ok(Command::Star(parse_path(rest[0])?, rest[1].to_owned()))
        }
        "collapse" | "c" => {
            let path = parse_path(rest.first().copied().unwrap_or("root"))?;
            Ok(Command::Collapse(path))
        }
        "show" => Ok(Command::Show),
        "rules" => Ok(Command::Rules),
        "refresh" => Ok(Command::Refresh),
        "append" if !rest.is_empty() => Ok(Command::Append(
            rest.iter().map(|v| (*v).to_owned()).collect(),
        )),
        "append" => Err("usage: append <v1> <v2> ...".to_owned()),
        "weight" | "w" => {
            need(1, "weight <size|bits|size-1>")?;
            Ok(Command::Weight(rest[0].to_ascii_lowercase()))
        }
        "k" => {
            need(1, "k <n>")?;
            let k = rest[0]
                .parse()
                .map_err(|_| format!("bad k {:?}", rest[0]))?;
            Ok(Command::SetK(k))
        }
        "mw" => {
            need(1, "mw <weight>")?;
            let mw = rest[0]
                .parse()
                .map_err(|_| format!("bad mw {:?}", rest[0]))?;
            Ok(Command::SetMw(mw))
        }
        "favor" => match rest.as_slice() {
            [col] => Ok(Command::Favor((*col).to_owned(), 3.0)),
            [col, factor] => {
                let f = factor
                    .parse()
                    .map_err(|_| format!("bad factor {factor:?}"))?;
                Ok(Command::Favor((*col).to_owned(), f))
            }
            _ => Err("usage: favor <column> [factor]".to_owned()),
        },
        "ignore" => {
            need(1, "ignore <column>")?;
            Ok(Command::Favor(rest[0].to_owned(), 0.0))
        }
        "stats" => Ok(Command::Stats),
        "help" | "?" => Ok(Command::Help),
        "quit" | "exit" | "q" => Ok(Command::Quit),
        other => Err(format!("unknown command {other:?} — try `help`")),
    }
}

/// The help text of the local REPL and of `sdd connect`.
pub const HELP: &str = "\
commands:
  open <file.csv>                 load a CSV table (local REPL only)
  demo <retail|marketing|census> [rows]
                                  load a built-in dataset (local REPL only)
  expand [path]   (e)             smart drill-down on the rule at path
                                  (path like 0.2; `root` or omitted = top)
  star <path> <column>  (s)       star drill-down on a ? column
  collapse [path] (c)             roll up an expanded rule
  show                            print the current display
  rules                           list the visible rules with their paths
  refresh                         replace estimates with exact counts
  weight <size|bits|size-1> (w)   switch weighting (resets expansions)
  favor <column> [factor]         boost a column's weight (default 3x)
  ignore <column>                 zero a column's weight
  k <n>                           rules per expansion
  mw <w>                          optimizer max-weight parameter
  append <v1> <v2> ...            append a row to a `sdd serve --tail` table
  stats                           session and sampling statistics
  help (?)                        this text
  quit (q)                        exit
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paths() {
        assert_eq!(parse_path("root").unwrap(), Vec::<usize>::new());
        assert_eq!(parse_path("").unwrap(), Vec::<usize>::new());
        assert_eq!(parse_path("0").unwrap(), vec![0]);
        assert_eq!(parse_path("0.2.1").unwrap(), vec![0, 2, 1]);
        assert!(parse_path("0.x").is_err());
    }

    #[test]
    fn parses_expand_variants() {
        assert_eq!(parse_command("expand").unwrap(), Command::Expand(vec![]));
        assert_eq!(parse_command("e 0.1").unwrap(), Command::Expand(vec![0, 1]));
        assert_eq!(
            parse_command("EXPAND root").unwrap(),
            Command::Expand(vec![])
        );
    }

    #[test]
    fn parses_star_and_collapse() {
        assert_eq!(
            parse_command("star 0 Region").unwrap(),
            Command::Star(vec![0], "Region".to_owned())
        );
        assert_eq!(parse_command("c 1").unwrap(), Command::Collapse(vec![1]));
        assert!(parse_command("star 0").is_err());
    }

    #[test]
    fn parses_settings() {
        assert_eq!(
            parse_command("weight BITS").unwrap(),
            Command::Weight("bits".to_owned())
        );
        assert_eq!(
            parse_command("w size-1").unwrap(),
            Command::Weight("size-1".to_owned())
        );
        assert_eq!(parse_command("k 5").unwrap(), Command::SetK(5));
        assert_eq!(parse_command("mw 4.5").unwrap(), Command::SetMw(4.5));
        assert_eq!(
            parse_command("favor Region").unwrap(),
            Command::Favor("Region".to_owned(), 3.0)
        );
        // Values are the engine's to judge; only malformed numbers fail here.
        assert_eq!(parse_command("k 0").unwrap(), Command::SetK(0));
        assert_eq!(parse_command("mw -1").unwrap(), Command::SetMw(-1.0));
        assert!(parse_command("k -1").is_err());
        assert!(parse_command("favor Region x").is_err());
    }

    #[test]
    fn parses_connect_verbs() {
        assert_eq!(parse_command("rules").unwrap(), Command::Rules);
        assert_eq!(
            parse_command("append Walmart bread online").unwrap(),
            Command::Append(vec!["Walmart".into(), "bread".into(), "online".into()])
        );
        assert!(parse_command("append").is_err());
    }

    #[test]
    fn parses_dataset_commands() {
        assert_eq!(
            parse_command("open data.csv").unwrap(),
            Command::Open("data.csv".to_owned())
        );
        assert_eq!(
            parse_command("demo census 100000").unwrap(),
            Command::Demo("census".to_owned(), Some(100_000))
        );
        assert_eq!(
            parse_command("demo retail").unwrap(),
            Command::Demo("retail".to_owned(), None)
        );
    }

    #[test]
    fn rejects_unknown_and_empty() {
        assert!(parse_command("").is_err());
        assert!(parse_command("frobnicate").is_err());
    }

    #[test]
    fn quit_aliases() {
        for s in ["quit", "exit", "q"] {
            assert_eq!(parse_command(s).unwrap(), Command::Quit);
        }
    }
}
