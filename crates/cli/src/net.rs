//! The networked modes: `sdd serve` hosts the concurrent multi-session
//! server; `sdd connect` runs the local REPL's command loop
//! ([`crate::repl::drive`]) against it, sending each command as protocol
//! lines through a [`Client`]. Every command but the dataset verbs `open`
//! and `demo` works over `connect`, the setting verbs (`weight`, `k`, `mw`,
//! `favor`, `ignore`) included: they reopen the session with new options.

use crate::repl::{drive, load, Session, Source};
use sdd_server::{Client, OpenOptions, Request, Response, Server, ServerConfig, TailConfig};
use sdd_table::{LiveTable, LiveTableConfig, ShardConfig, ShardedTable, TableStore};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Usage text for `sdd serve`.
pub const SERVE_USAGE: &str = "\
usage: sdd serve [options]
  --addr <host:port>   bind address (default 127.0.0.1:7878)
  --demo <name>        retail | marketing | census  (default retail)
  --rows <n>           row count for the census demo
  --open <file.csv>    serve a CSV file instead of a demo; with --shards
                       it streams straight into the shards without ever
                       materializing the whole table (out-of-core ingest)
  --tail <n>           serve a live appendable store: new rows arrive via
                       the authenticated `append` request and seal into
                       immutable segments every n rows; the demo, or the
                       --open file streamed in one pass, becomes epoch 1
                       (a header-only file stays at epoch 0) and every
                       append bumps the epoch (conflicts with --shards)
  --threads <n>        connection worker threads (default: cores, min 4)
  --shards <n>         partition the table into n columnar shards
  --spill <dir>        spill every shard (with --tail: every sealed
                       segment) to a file under dir, read back on demand
                       and never kept decoded (requires --shards or
                       --tail; results are identical, only memory use
                       changes)
  --cache <mib>        shared cross-session result-cache budget in MiB
                       (default 64; 0 disables — responses are identical
                       either way)
  --http <port>        also serve the HTTP/1.1 front-end on this port
                       (same host as --addr): POST /v1/line, GET /metrics,
                       GET /healthz — see PROTOCOL.md
  --tokens <file>      bearer-token file (`token tenant [max_sessions]
                       [cache_mib]` per line); makes HTTP auth mandatory
                       and enforces per-tenant quotas
  --max-queue <n>      shed new HTTP connections with 429 + Retry-After
                       while more than n connections wait for a worker
                       (default 1024)
  --idle-timeout <s>   disconnect connections silent for s seconds and
                       evict sessions idle that long (default 300 when
                       --http is on, else off; 0 disables)
  --smoke-scrape       start, drive one HTTP session, scrape and validate
                       /metrics, then exit (CI self-test; requires --http,
                       incompatible with --tokens)
";

/// Usage text for `sdd connect`; its commands are [`crate::command::HELP`].
pub const CONNECT_USAGE: &str = "usage: sdd connect [host:port]      (default 127.0.0.1:7878)\n";

fn parse_flags(args: &[String]) -> Result<Vec<(String, Option<String>)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .peek()
                .filter(|v| !v.starts_with("--"))
                .map(|v| (*v).clone());
            if value.is_some() {
                it.next();
            }
            out.push((name.to_owned(), value));
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(out)
}

/// Writes a usage error and the usage text: exit status 2.
fn usage_error(output: &mut impl Write, message: &str) -> std::io::Result<ExitCode> {
    writeln!(output, "error: {message}\n{SERVE_USAGE}")?;
    Ok(ExitCode::from(2))
}

/// Writes why the server could not start: exit status 1.
fn start_failure(output: &mut impl Write, message: &str) -> std::io::Result<ExitCode> {
    writeln!(output, "error: {message}")?;
    Ok(ExitCode::FAILURE)
}

/// Flag `--name`'s value as a `T`: `--name needs a <what>` when it has
/// none, `bad --name` when it is not a `T`.
fn flag<T: std::str::FromStr>(name: &str, value: Option<&str>, what: &str) -> std::io::Result<T> {
    let invalid = |message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
    let raw = value.ok_or_else(|| invalid(format!("--{name} needs a {what}")))?;
    raw.parse().map_err(|_| invalid(format!("bad --{name}")))
}

/// Runs `sdd serve` with command-line `args` (everything after `serve`).
/// Returns the process exit status: 0 once serving ends, 2 on a bad,
/// unknown or conflicting flag, 1 when the table, the token file or the
/// smoke scrape fails. A malformed flag value is an `InvalidInput` error.
pub fn serve(args: &[String], output: &mut impl Write) -> std::io::Result<ExitCode> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut source = Source::Demo("retail".to_owned(), None);
    let mut rows: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut spill: Option<std::path::PathBuf> = None;
    let mut tail: Option<usize> = None;
    let mut http_port: Option<u16> = None;
    let mut idle_timeout: Option<u64> = None;
    let mut smoke_scrape = false;
    let mut config = ServerConfig::default();
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(output, &e),
    };
    for (name, value) in flags {
        let (n, v) = (name.as_str(), value.as_deref());
        match n {
            "addr" => addr = flag(n, v, "host:port")?,
            "demo" => source = Source::Demo(flag(n, v, "name")?, None),
            "open" => source = Source::Csv(flag(n, v, "path")?),
            "rows" => rows = Some(flag(n, v, "count")?),
            "threads" => config.threads = flag(n, v, "count")?,
            "shards" => shards = Some(flag(n, v, "count")?),
            "spill" => spill = Some(flag(n, v, "dir")?),
            "tail" => tail = Some(flag(n, v, "rows-per-segment")?),
            "cache" => config.engine.cache_bytes = flag::<usize>(n, v, "MiB")? << 20,
            "http" => http_port = Some(flag(n, v, "port")?),
            "tokens" => {
                let path: std::path::PathBuf = flag(n, v, "file")?;
                match sdd_server::TenantRegistry::load_token_file(&path) {
                    Ok(reg) => config.engine.tenants = Arc::new(reg),
                    Err(e) => return start_failure(output, &e.to_string()),
                }
            }
            "max-queue" => config.max_queue = flag(n, v, "count")?,
            "idle-timeout" => idle_timeout = Some(flag(n, v, "seconds")?),
            "smoke-scrape" => smoke_scrape = true,
            other => return usage_error(output, &format!("unknown flag --{other}")),
        }
    }
    if let (Source::Demo(_, demo_rows), Some(n)) = (&mut source, rows) {
        *demo_rows = Some(n);
    }
    if tail.is_some() && shards.is_some() {
        return usage_error(
            output,
            "--tail conflicts with --shards (a live table manages its own segment layout)",
        );
    }
    if smoke_scrape && http_port.is_none() {
        return usage_error(
            output,
            "--smoke-scrape requires --http (it validates the /metrics endpoint)",
        );
    }
    if smoke_scrape && config.engine.tenants.auth_required() {
        // The smoke client scrapes anonymously; with auth mandatory it
        // would only ever prove the 401 path.
        return usage_error(output, "--smoke-scrape is incompatible with --tokens");
    }
    if spill.is_some() && shards.is_none() && tail.is_none() {
        // A monolithic table has no shards to spill: serving it whole while
        // the operator expects disk relief is the one silent-OOM
        // combination, so reject it loudly.
        return usage_error(output, "--spill requires --shards or --tail");
    }
    let shard_config = |n: usize| ShardConfig {
        shards: n,
        spill_dir: spill.clone(),
    };
    let spilling = if spill.is_some() { ", spilled" } else { "" };
    let sharded = |st: ShardedTable, streamed: bool| {
        let how = if streamed { "streamed into " } else { "" };
        let layout = format!(" ({how}{} shards{spilling})", st.n_shards());
        (TableStore::Sharded(Arc::new(st)), layout)
    };
    let built = match (tail, &source, shards) {
        (Some(seg_rows), ..) => {
            // Live serving mode: the source's rows, streamed through the
            // append staging in one pass, become epoch 1 of an appendable
            // store; `append` requests grow it from there.
            let live_config = LiveTableConfig {
                rows_per_segment: seg_rows,
                spill_dir: spill.clone(),
            };
            let live = match &source {
                Source::Csv(path) => sdd_table::csv::stream_csv_live(path, &live_config)
                    .map_err(|e| format!("cannot ingest {path:?}: {e}")),
                Source::Demo(..) => load(&source).and_then(|t| {
                    LiveTable::from_table(&t, &live_config).map_err(|e| e.to_string())
                }),
            };
            live.map(|live| {
                config.engine.tail = Some(TailConfig::default());
                let layout = format!(
                    " (live, epoch {}, sealing every {seg_rows} rows{spilling})",
                    live.epoch()
                );
                (TableStore::from(Arc::new(live)), layout)
            })
        }
        // Out-of-core path: the monolithic table never exists.
        (None, Source::Csv(path), Some(n)) => {
            sdd_table::csv::stream_csv_file(path, &shard_config(n))
                .map(|st| sharded(st, true))
                .map_err(|e| format!("cannot ingest {path:?}: {e}"))
        }
        (None, _, None) => load(&source).map(|t| (TableStore::Whole(t), String::new())),
        (None, _, Some(n)) => load(&source).and_then(|t| {
            let st = ShardedTable::from_table(&t, &shard_config(n)).map_err(|e| e.to_string())?;
            Ok(sharded(st, false))
        }),
    };
    let (store, layout) = match built {
        Ok(built) => built,
        Err(e) => return start_failure(output, &e),
    };
    if let Some(port) = http_port {
        let host = addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
        config.http_addr = Some(format!("{host}:{port}"));
    }
    // Idle handling defaults on with the HTTP front-end: its sessions are
    // not connection-scoped, so without the sweep they would live forever.
    let idle_secs = idle_timeout.unwrap_or(if http_port.is_some() { 300 } else { 0 });
    if idle_secs > 0 {
        config.idle_timeout = Some(std::time::Duration::from_secs(idle_secs));
    }
    let server = Server::bind_store(store.clone(), config, addr.as_str())?;
    // Surface whether the cross-session result cache is live — an
    // operator passing `--cache 0` should see it took.
    let cache_note = match server.engine().cache_capacity() {
        Some(bytes) => format!(", result cache {} MiB", bytes >> 20),
        None => ", result cache off".to_owned(),
    };
    let http_note = match server.http_addr() {
        Some(h) if server.engine().tenants().auth_required() => {
            format!(", http on {h} (bearer auth)")
        }
        Some(h) => format!(", http on {h}"),
        None => String::new(),
    };
    writeln!(
        output,
        "serving {} rows × {} columns{layout}{cache_note}{http_note} on {} — connect with `sdd connect {}`",
        store.n_rows(),
        store.n_columns(),
        server.local_addr()?,
        server.local_addr()?
    )?;
    output.flush()?;
    if smoke_scrape {
        let handle = server.spawn()?;
        let result = run_smoke_scrape(&handle, store.as_sharded().is_some(), output);
        handle.shutdown();
        return result.map(|()| ExitCode::SUCCESS);
    }
    server.run().map(|()| ExitCode::SUCCESS)
}

/// Drives one session, tailored with a `favor` on the served table's first
/// column, over the HTTP front-end, scrapes `/metrics`, and checks the
/// exposition is well-formed Prometheus text with every core family
/// present — and the storage families when the store is `segmented`. Used
/// by `--smoke-scrape` (the CI self-test).
fn run_smoke_scrape(
    handle: &sdd_server::ServerHandle,
    segmented: bool,
    output: &mut impl Write,
) -> std::io::Result<()> {
    let bail = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let http_addr = handle
        .http_addr()
        .ok_or_else(|| bail("no HTTP listener".to_owned()))?;
    let mut client = sdd_server::HttpClient::connect(http_addr)?;
    let session = "smoke-scrape".to_owned();
    let first_column = handle.engine().store().schema().column_name(0).to_owned();
    for req in [
        Request::Open {
            session: session.clone(),
            options: OpenOptions {
                favor: vec![(first_column, 2.0)],
                ..OpenOptions::default()
            },
        },
        Request::Expand {
            session: session.clone(),
            path: vec![],
        },
        Request::Stats {
            session: session.clone(),
        },
        Request::Close { session },
    ] {
        let (status, body) = client.call_line(None, &req.to_json().to_string())?;
        if status != 200 {
            return Err(bail(format!("smoke request failed ({status}): {body}")));
        }
    }
    let reply = client.request("GET", "/metrics", None, None)?;
    if reply.status != 200 {
        return Err(bail(format!("GET /metrics returned {}", reply.status)));
    }
    let (families, samples) = validate_prometheus(&reply.body_str(), segmented).map_err(bail)?;
    writeln!(
        output,
        "smoke-scrape ok: {samples} samples across {families} families"
    )?;
    Ok(())
}

/// Checks Prometheus text-format exposition: every sample's family must
/// carry `# HELP` and `# TYPE` lines, every sample value must parse, and
/// the core server families — plus, over a `segmented` store, the storage
/// families — must all be present. Returns (families, samples) on success.
fn validate_prometheus(text: &str, segmented: bool) -> Result<(usize, usize), String> {
    use std::collections::HashSet;
    let mut help: HashSet<&str> = HashSet::new();
    let mut typed: HashSet<&str> = HashSet::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) => {
                    help.insert(name);
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return Err(format!("unknown TYPE {kind:?} for {name}"));
                    }
                    typed.insert(name);
                }
                _ => return Err(format!("malformed comment line {line:?}")),
            }
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or(format!("malformed sample {line:?}"))?;
        let name = &line[..name_end];
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !help.contains(family) || !typed.contains(family) {
            return Err(format!("sample {name} missing # HELP/# TYPE for {family}"));
        }
        let value = line
            .rsplit(' ')
            .next()
            .filter(|v| v.parse::<f64>().is_ok())
            .ok_or(format!("unparsable value in {line:?}"))?;
        let _ = value;
        samples += 1;
    }
    let storage: &[&str] = if segmented {
        &["sdd_storage_loads_total", "sdd_storage_spills_total"]
    } else {
        &[]
    };
    for &family in [
        "sdd_request_latency_seconds",
        "sdd_requests_total",
        "sdd_requests_shed_total",
        "sdd_auth_failures_total",
        "sdd_queue_depth",
        "sdd_sessions",
        "sdd_http_connections",
        "sdd_tcp_connections",
    ]
    .iter()
    .chain(storage)
    {
        if !typed.contains(family) {
            return Err(format!("family {family} missing from /metrics"));
        }
    }
    Ok((typed.len(), samples))
}

/// Runs the `sdd connect` REPL against `addr`, reading commands from
/// `input` and writing to `output` (I/O-generic for tests).
pub fn connect<R: BufRead, W: Write>(
    addr: &str,
    mut input: R,
    output: &mut W,
) -> std::io::Result<()> {
    let mut client = Client::connect(addr)?;
    let (rows, columns) = match client.call(&Request::TableInfo)? {
        Response::TableInfo { rows, columns } => (rows, columns),
        other => {
            writeln!(output, "unexpected reply: {other:?}")?;
            return Ok(());
        }
    };
    writeln!(
        output,
        "connected to {addr}: {} rows × {} columns ({})",
        rows,
        columns.len(),
        columns.join(", ")
    )?;

    // One session per connect invocation. The pid alone collides across
    // hosts, so mix in a per-process random tag: two live clients must not
    // collide on a name.
    let tag = {
        use std::hash::{BuildHasher, Hasher};
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    };
    let mut session = Session::new(format!("cli-{}-{:08x}", std::process::id(), tag as u32));
    let mut call = |req: &Request| client.call(req);
    if !session.reopen(&mut call, OpenOptions::default(), output)? {
        return Ok(());
    }
    writeln!(output, "session {:?} opened", session.name())?;
    while drive(&mut call, &mut session, &mut input, output)?.is_some() {
        writeln!(
            output,
            "error: `open` and `demo` load a dataset in the local REPL only"
        )?;
    }
    let _ = call(&Request::Close {
        session: session.name(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_server::EngineConfig;
    use std::io::Cursor;
    use std::sync::Arc;

    fn spawn_server() -> sdd_server::ServerHandle {
        let table = Arc::new(sdd_datagen::retail(42));
        let config = ServerConfig {
            engine: EngineConfig::default(),
            threads: 4,
            ..ServerConfig::default()
        };
        Server::bind(table, config, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap()
    }

    #[test]
    fn connect_repl_drives_a_session_end_to_end() {
        let server = spawn_server();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        let script = "expand\nshow\nstats\nbogus\nquit\n";
        connect(&addr, Cursor::new(script), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("connected to"), "{out}");
        assert!(out.contains("6000 rows × 3 columns"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("expansions: 1"), "{out}");
        assert!(out.contains("unknown command"), "{out}");
        server.shutdown();
    }

    #[test]
    fn connect_reports_session_errors_inline() {
        let server = spawn_server();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        connect(
            &addr,
            Cursor::new("expand 7\nstar 0 NoSuchColumn\nquit\n"),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("no node at path [7]"), "{out}");
        assert!(out.contains("unknown column"), "{out}");
        server.shutdown();
    }

    #[test]
    fn connect_reopens_on_settings_and_survives_rejected_ones() {
        let server = spawn_server();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        let script = "expand\nfavor NoSuchColumn\nmw -1\nfavor Region -1\nshow\n\
                      demo retail\nk 2\nexpand\nrules\nquit\n";
        connect(&addr, Cursor::new(script), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.contains("error: unknown column: \"NoSuchColumn\""),
            "{out}"
        );
        assert!(out.contains("error: mw must be positive"), "{out}");
        assert!(out.contains("must be finite, ≥ 0"), "{out}");
        assert!(out.contains("local REPL only"), "{out}");
        // `show` after the rejected settings still has the first expansion.
        let shown = out.split("≥ 0").nth(1).unwrap();
        assert_eq!(
            shown.split("k = 2").next().unwrap().matches("\n. ").count(),
            4,
            "{out}"
        );
        // The reopened session expands two rules at a time.
        assert!(out.contains("k = 2; display reset"), "{out}");
        assert!(out.contains("root (?, ?, ?)"), "{out}");
        assert!(out.contains("\n1 ("), "{out}");
        assert!(!out.contains("\n2 ("), "{out}");
        server.shutdown();
    }

    #[test]
    fn connect_drives_a_session_against_a_spilling_sharded_server() {
        // End-to-end over the sharded tier: a server whose table is split
        // into 8 spilled shards must serve the same session flow (and the
        // same row/column banner counts) as a monolithic one.
        let table = Arc::new(sdd_datagen::retail(42));
        let sharded = Arc::new(
            ShardedTable::from_table(&table, &ShardConfig::spilling(8, 0, std::env::temp_dir()))
                .unwrap(),
        );
        let server = Server::bind_store(
            TableStore::Sharded(sharded.clone()),
            ServerConfig {
                engine: EngineConfig::default(),
                threads: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        connect(&addr, Cursor::new("expand\nshow\nstats\nquit\n"), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("6000 rows × 3 columns"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        assert!(out.contains("expansions: 1"), "{out}");
        assert!(sharded.loads() > 0, "the spill tier was never exercised");
        server.shutdown();
    }

    #[test]
    fn serve_rejects_spill_without_shards_or_tail() {
        // --spill over a monolithic table would silently serve it whole —
        // the one silent-OOM flag combination; it must be loud.
        let mut out = Vec::new();
        let dir = std::env::temp_dir().display().to_string();
        let status = serve(&["--spill".to_owned(), dir], &mut out).unwrap();
        assert_eq!(status, ExitCode::from(2));
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("--spill requires --shards or --tail"), "{out}");
    }

    #[test]
    fn serve_reports_unreadable_ingest_file() {
        let mut out = Vec::new();
        let status = serve(
            &[
                "--open".to_owned(),
                "/no/such/file.csv".to_owned(),
                "--shards".to_owned(),
                "4".to_owned(),
            ],
            &mut out,
        )
        .unwrap();
        assert_eq!(status, ExitCode::FAILURE);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("cannot ingest"), "{out}");
    }

    #[test]
    fn connect_drives_a_session_against_a_stream_ingested_server() {
        // Full out-of-core path: retail → CSV file → streaming ingest into
        // a spilling sharded store → served session. Same session flow and
        // banner counts as the materialized server.
        let table = sdd_datagen::retail(42);
        let csv_path = std::env::temp_dir().join(format!(
            "sdd-cli-ingest-{}-{:x}.csv",
            std::process::id(),
            &table as *const _ as usize
        ));
        // A sharded table keeps the categorical columns only, so its one
        // segment is the file a streaming ingest reads back whole.
        let plain = ShardedTable::from_table(&table, &ShardConfig::in_memory(1)).unwrap();
        let text = sdd_table::csv::write_csv(plain.try_segment(0).unwrap().table());
        std::fs::write(&csv_path, text).unwrap();
        let sharded = Arc::new(
            sdd_table::csv::stream_csv_file(
                &csv_path,
                &ShardConfig::spilling(8, 0, std::env::temp_dir()),
            )
            .unwrap(),
        );
        assert_eq!(sharded.spills(), 8, "streaming build must spill per shard");
        let server = Server::bind_store(
            TableStore::Sharded(sharded.clone()),
            ServerConfig {
                engine: EngineConfig::default(),
                threads: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        connect(&addr, Cursor::new("expand\nshow\nstats\nquit\n"), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("6000 rows × 3 columns"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        assert!(sharded.loads() > 0, "the spill tier was never exercised");
        server.shutdown();
        let _ = std::fs::remove_file(&csv_path);
    }

    #[test]
    fn serve_rejects_tail_combined_with_shards() {
        // `--open --shards` would stream into a frozen sharded store; a
        // live store grows through `append` instead.
        for source in [&[][..], &["--open", "b.csv"]] {
            let mut args: Vec<String> = ["--tail", "512", "--shards", "4"]
                .map(str::to_owned)
                .to_vec();
            args.extend(source.iter().map(|s| (*s).to_owned()));
            let mut out = Vec::new();
            let status = serve(&args, &mut out).unwrap();
            assert_eq!(status, ExitCode::from(2));
            let out = String::from_utf8(out).unwrap();
            assert!(out.contains("--tail conflicts with --shards"), "{out}");
        }
    }

    #[test]
    fn connect_appends_rows_into_a_live_tail_server() {
        // End-to-end live mode: a server whose table is an appendable live
        // store must accept `append` from the REPL, bump the epoch, and
        // serve drill-downs over the grown table.
        let table = sdd_datagen::retail(42);
        let live = LiveTable::from_table(&table, &LiveTableConfig::in_memory(1024)).unwrap();
        let server = Server::bind_store(
            TableStore::from(Arc::new(live)),
            ServerConfig {
                engine: EngineConfig {
                    tail: Some(sdd_server::TailConfig::default()),
                    ..EngineConfig::default()
                },
                threads: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();
        let mut out = Vec::new();
        let script = "expand\nappend Walmart bread online\nappend Walmart bread\nshow\nquit\n";
        connect(&addr, Cursor::new(script), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("6000 rows × 3 columns"), "{out}");
        assert!(out.contains("appended — epoch 2, 6001 rows"), "{out}");
        // The short row is rejected by the table's arity check, not a hang.
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("Walmart"), "{out}");
        server.shutdown();
    }

    #[test]
    fn smoke_scrape_drives_http_and_validates_metrics() {
        let mut out = Vec::new();
        let status = serve(
            &[
                "--addr".to_owned(),
                "127.0.0.1:0".to_owned(),
                "--http".to_owned(),
                "0".to_owned(),
                "--smoke-scrape".to_owned(),
            ],
            &mut out,
        )
        .unwrap();
        assert_eq!(status, ExitCode::SUCCESS);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("http on 127.0.0.1:"), "{out}");
        assert!(out.contains("smoke-scrape ok:"), "{out}");
    }

    #[test]
    fn smoke_scrape_over_a_spilling_store_requires_the_storage_families() {
        let mut out = Vec::new();
        let dir = std::env::temp_dir().display().to_string();
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "8",
            "--spill",
            &dir,
            "--http",
            "0",
            "--smoke-scrape",
        ]
        .map(str::to_owned)
        .to_vec();
        let status = serve(&args, &mut out).unwrap();
        assert_eq!(status, ExitCode::SUCCESS);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("(8 shards, spilled)"), "{out}");
        assert!(out.contains("smoke-scrape ok:"), "{out}");
        // The same check fails a monolithic store's scrape, which has no
        // storage families.
        let engine =
            sdd_server::Engine::new(Arc::new(sdd_datagen::retail(42)), EngineConfig::default());
        let text = sdd_server::Metrics::default().render(&engine, 0);
        assert!(validate_prometheus(&text, false).is_ok());
        let err = validate_prometheus(&text, true).unwrap_err();
        assert!(err.contains("sdd_storage_loads_total"), "{err}");
    }

    #[test]
    fn smoke_scrape_over_an_opened_csv_streams_it_into_spilled_shards() {
        let table = sdd_datagen::retail(42);
        let csv_path = std::env::temp_dir().join(format!(
            "sdd-cli-open-{}-{:x}.csv",
            std::process::id(),
            &table as *const _ as usize
        ));
        std::fs::write(&csv_path, sdd_table::csv::write_csv(&table)).unwrap();
        let mut out = Vec::new();
        let dir = std::env::temp_dir().display().to_string();
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--open",
            &csv_path.display().to_string(),
            "--shards",
            "4",
            "--spill",
            &dir,
            "--http",
            "0",
            "--smoke-scrape",
        ]
        .map(str::to_owned)
        .to_vec();
        let status = serve(&args, &mut out).unwrap();
        let _ = std::fs::remove_file(&csv_path);
        assert_eq!(status, ExitCode::SUCCESS);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("(streamed into 4 shards, spilled)"), "{out}");
        assert!(out.contains("smoke-scrape ok:"), "{out}");
    }

    /// `serve` with `args` plus the smoke-scrape flags; returns its exit
    /// status and output.
    fn serve_smoke(args: &[&str]) -> (ExitCode, String) {
        let mut args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        args.extend(["--addr", "127.0.0.1:0", "--http", "0", "--smoke-scrape"].map(str::to_owned));
        let mut out = Vec::new();
        let status = serve(&args, &mut out).unwrap();
        (status, String::from_utf8(out).unwrap())
    }

    #[test]
    fn smoke_scrape_over_a_live_tail_seeded_from_a_csv_a_demo_and_a_header() {
        let dir = std::env::temp_dir().join(format!("sdd-cli-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("rows.csv");
        std::fs::write(&csv, sdd_table::csv::write_csv(&sdd_datagen::retail(42))).unwrap();
        let header = dir.join("header.csv");
        std::fs::write(&header, "Region,Product\n").unwrap();
        let (csv, header, spill) = (
            csv.display().to_string(),
            header.display().to_string(),
            dir.display().to_string(),
        );
        let cases: [(&[&str], &str); 3] = [
            (
                &["--open", &csv, "--tail", "128", "--spill", &spill],
                "6000 rows × 3 columns (live, epoch 1, sealing every 128 rows, spilled)",
            ),
            (
                &["--demo", "retail", "--tail", "512"],
                "6000 rows × 3 columns (live, epoch 1, sealing every 512 rows)",
            ),
            (
                &["--open", &header, "--tail", "128"],
                "0 rows × 2 columns (live, epoch 0, sealing every 128 rows)",
            ),
        ];
        for (args, banner) in cases {
            let (status, out) = serve_smoke(args);
            assert_eq!(status, ExitCode::SUCCESS, "{out}");
            assert!(out.contains(banner), "{out}");
            assert!(out.contains("smoke-scrape ok:"), "{out}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_reports_a_malformed_tail_csv_by_line_and_leaves_no_spill_directory() {
        let dir = std::env::temp_dir().join(format!("sdd-cli-bad-tail-{}", std::process::id()));
        let spill = dir.join("spill");
        std::fs::create_dir_all(&spill).unwrap();
        let csv = dir.join("bad.csv");
        std::fs::write(&csv, "a,b\n1,2\n3,4\n5\n").unwrap();
        let (status, out) = serve_smoke(&[
            "--open",
            &csv.display().to_string(),
            "--tail",
            "1",
            "--spill",
            &spill.display().to_string(),
        ]);
        assert_eq!(status, ExitCode::FAILURE);
        assert!(out.contains("csv error at line 4"), "{out}");
        assert!(!out.contains("serving"), "{out}");
        assert_eq!(
            std::fs::read_dir(&spill).unwrap().count(),
            0,
            "spill left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_rejects_smoke_scrape_without_http() {
        let mut out = Vec::new();
        let status = serve(&["--smoke-scrape".to_owned()], &mut out).unwrap();
        assert_eq!(status, ExitCode::from(2));
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("--smoke-scrape requires --http"), "{out}");
    }

    #[test]
    fn validate_prometheus_rejects_malformed_expositions() {
        // A family sampled without HELP/TYPE, an unparsable value, and a
        // missing core family must each be caught.
        assert!(validate_prometheus("orphan_total 1\n", false)
            .unwrap_err()
            .contains("missing # HELP/# TYPE"));
        let bad_value = "# HELP x y\n# TYPE x counter\nx notanumber\n";
        assert!(validate_prometheus(bad_value, false)
            .unwrap_err()
            .contains("unparsable value"));
        let incomplete = "# HELP sdd_sessions s\n# TYPE sdd_sessions gauge\nsdd_sessions 0\n";
        assert!(validate_prometheus(incomplete, false)
            .unwrap_err()
            .contains("missing from /metrics"));
    }

    #[test]
    fn serve_rejects_unknown_flags_gracefully() {
        let mut out = Vec::new();
        let status = serve(&["--bogus".to_owned()], &mut out).unwrap();
        assert_eq!(status, ExitCode::from(2));
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("unknown flag"), "{out}");
        assert!(out.contains("usage"), "{out}");
    }
}
