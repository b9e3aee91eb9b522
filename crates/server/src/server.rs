//! The TCP front-end: `std::net::TcpListener` + a [`TaskPool`] of
//! connection workers + one background prefetch worker.
//!
//! Each accepted connection is handed to the pool and served for its whole
//! lifetime (line in → [`Engine::handle_line`] → line out). After any
//! response that leaves a deferred prefetch job pending, the connection
//! pings the prefetch worker over an mpsc channel; the worker claims and
//! runs the job under the session lock during the client's think-time. If
//! the next request for that session wins the race instead, it drains the
//! job itself first — either way the observable results equal inline
//! execution (the determinism harness asserts exactly this).

use crate::engine::{Engine, EngineConfig};
use crate::http::{self, LineRead};
use crate::metrics::{Metrics, Transport};
use crate::protocol::{Request, Response};
use sdd_core::exec::TaskPool;
use sdd_table::{Table, TableStore};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Server front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine (session) defaults.
    pub engine: EngineConfig,
    /// Connection-worker threads. Each concurrent client occupies one for
    /// the lifetime of its connection, so size this at or above the
    /// expected concurrent-client count.
    pub threads: usize,
    /// Socket read timeout applied to every connection (TCP and HTTP). A
    /// client silent past it is disconnected (and its connection-scoped
    /// sessions reaped), so a stalled or half-open client cannot pin a
    /// pool worker forever. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// When set, also binds the HTTP front-end ([`crate::http`]) here.
    pub http_addr: Option<String>,
    /// Admission control: while more than this many accepted connections
    /// are queued for a pool worker, new HTTP connections are shed with
    /// `429` + `Retry-After` instead of queueing behind them.
    pub max_queue: usize,
    /// `Retry-After` seconds on shed (`429`) and draining (`503`) answers.
    pub retry_after_s: u32,
    /// Background sweep: evict sessions idle beyond this TTL — the
    /// lifecycle for HTTP sessions, which are not connection-scoped.
    /// `None` disables the sweep.
    pub session_ttl: Option<Duration>,
    /// Idle-sweep cadence.
    pub sweep_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
            read_timeout: None,
            http_addr: None,
            max_queue: 1024,
            retry_after_s: 1,
            session_ttl: None,
            sweep_interval: Duration::from_millis(1000),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    engine: Arc<Engine>,
    metrics: Arc<Metrics>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and builds the
    /// engine over a monolithic `table`.
    pub fn bind(
        table: Arc<Table>,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        Self::bind_store(TableStore::Whole(table), config, addr)
    }

    /// [`Server::bind`] over any [`TableStore`] — the entry point for
    /// serving a sharded table whose shards are spilled to disk (`sdd serve
    /// --shards N --spill DIR`), so the served dataset can exceed RAM.
    pub fn bind_store(
        store: TableStore,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let http_listener = match config.http_addr.as_deref() {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        Ok(Server {
            listener,
            http_listener,
            engine: Arc::new(Engine::with_store(store, config.engine.clone())),
            metrics: Arc::new(Metrics::default()),
            config,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The HTTP front-end's bound address, when one was configured.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The shared engine (for in-process inspection in tests/benches).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The shared metrics hub.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Runs the accept loop on the calling thread until [`ServerHandle`]
    /// shutdown (never returns when run without a handle, barring I/O
    /// errors on the listener).
    pub fn run(self) -> std::io::Result<()> {
        self.run_until(Arc::new(AtomicBool::new(false)))
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the idle sweep ticks on the wall clock"
    )]
    fn run_until(self, stop: Arc<AtomicBool>) -> std::io::Result<()> {
        let pool = Arc::new(TaskPool::new(self.config.threads));
        let queue_gauge = pool.pending_gauge();
        // The prefetch worker: claims deferred jobs during think-time.
        let (prefetch_tx, prefetch_rx) = mpsc::channel::<String>();
        let prefetch_engine = Arc::clone(&self.engine);
        let prefetch_worker = std::thread::spawn(move || {
            while let Ok(session) = prefetch_rx.recv() {
                prefetch_engine.run_pending_prefetch(&session);
            }
        });
        // The idle sweep: reaps sessions untouched past the TTL. Short
        // poll ticks (not one long sleep) keep shutdown prompt.
        let sweeper = self.config.session_ttl.map(|ttl| {
            let engine = Arc::clone(&self.engine);
            let metrics = Arc::clone(&self.metrics);
            let stop = Arc::clone(&stop);
            let interval = self.config.sweep_interval;
            std::thread::spawn(move || {
                let mut last = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    if last.elapsed() >= interval {
                        let swept = engine.evict_idle_sessions(ttl);
                        if swept > 0 {
                            metrics
                                .sessions_swept
                                .fetch_add(swept as u64, Ordering::Relaxed);
                        }
                        last = Instant::now();
                    }
                }
            })
        });
        // Clones of live connections so shutdown can unblock workers
        // parked in `read_line`, keyed by connection id so each worker can
        // drop its own entry when the client disconnects (otherwise a
        // long-lived server would leak one fd per past connection).
        let conns: Arc<std::sync::Mutex<Vec<(u64, TcpStream)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let next_conn_id = Arc::new(AtomicU64::new(0));

        // The HTTP accept loop, when configured: admission control on the
        // accept thread (shedding must not depend on a free pool worker),
        // everything else on the shared pool.
        let http_addr = self.http_addr();
        let http_thread = self.http_listener.map(|listener| {
            let engine = Arc::clone(&self.engine);
            let metrics = Arc::clone(&self.metrics);
            let pool = Arc::clone(&pool);
            let queue_gauge = Arc::clone(&queue_gauge);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let next_conn_id = Arc::clone(&next_conn_id);
            let prefetch_tx = prefetch_tx.clone();
            let read_timeout = self.config.read_timeout;
            let max_queue = self.config.max_queue;
            let retry_after_s = self.config.retry_after_s;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    stream.set_nodelay(true).ok();
                    if pool.pending() > max_queue {
                        metrics.shed.fetch_add(1, Ordering::Relaxed);
                        let _ = http::write_overload(
                            &mut stream,
                            429,
                            "Too Many Requests",
                            retry_after_s,
                        );
                        continue; // drop closes the shed connection
                    }
                    stream.set_read_timeout(read_timeout).ok();
                    let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().expect("conns poisoned").push((conn_id, clone));
                    }
                    metrics.http_connections.fetch_add(1, Ordering::Relaxed);
                    let engine = Arc::clone(&engine);
                    let metrics = Arc::clone(&metrics);
                    let queue_gauge = Arc::clone(&queue_gauge);
                    let stop = Arc::clone(&stop);
                    let prefetch_tx = prefetch_tx.clone();
                    let conns_for_worker = Arc::clone(&conns);
                    pool.submit(move || {
                        let _ = http::serve_http_connection(
                            &engine,
                            &metrics,
                            &queue_gauge,
                            &stop,
                            stream,
                            &prefetch_tx,
                            retry_after_s,
                        );
                        metrics.http_connections.fetch_sub(1, Ordering::Relaxed);
                        conns_for_worker
                            .lock()
                            .expect("conns poisoned")
                            .retain(|(id, _)| *id != conn_id);
                    });
                }
            })
        });

        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // One small response per request line: Nagle + delayed ACK
            // would add ~40 ms to every exchange.
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(self.config.read_timeout).ok();
            let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                conns.lock().expect("conns poisoned").push((conn_id, clone));
            }
            self.metrics.tcp_connections.fetch_add(1, Ordering::Relaxed);
            let engine = Arc::clone(&self.engine);
            let metrics = Arc::clone(&self.metrics);
            let prefetch_tx = prefetch_tx.clone();
            let conns_for_worker = Arc::clone(&conns);
            pool.submit(move || {
                let _ = serve_connection(&engine, &metrics, stream, &prefetch_tx);
                metrics.tcp_connections.fetch_sub(1, Ordering::Relaxed);
                conns_for_worker
                    .lock()
                    .expect("conns poisoned")
                    .retain(|(id, _)| *id != conn_id);
            });
        }
        // Unblock and join the HTTP accept loop first, so nothing submits
        // to the pool while it shuts down.
        if let Some(t) = http_thread {
            if let Some(addr) = http_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = t.join();
        }
        // Force-close every still-live connection so pool workers blocked
        // on reads can exit, then join them.
        for (_, c) in conns.lock().expect("conns poisoned").drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        drop(pool); // last handle: joins connection workers
        drop(prefetch_tx); // close the channel …
        let _ = prefetch_worker.join(); // … and join the worker
        if let Some(t) = sweeper {
            let _ = t.join();
        }
        Ok(())
    }

    /// Starts the accept loop on a background thread and returns a handle
    /// that can stop it.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let http_addr = self.http_addr();
        let engine = Arc::clone(&self.engine);
        let metrics = Arc::clone(&self.metrics);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_for_loop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let _ = self.run_until(stop_for_loop);
        });
        Ok(ServerHandle {
            addr,
            http_addr,
            engine,
            metrics,
            stop,
            thread: Some(thread),
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    http_addr: Option<std::net::SocketAddr>,
    engine: Arc<Engine>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The HTTP front-end's address, when one was configured.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_addr
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The shared metrics hub.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn unblock_accept_loops(&self) {
        // Unblock the accept calls so both loops observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Stops the accept loop and joins the server thread. Connections that
    /// are mid-request finish their current line first.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.unblock_accept_loops();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            self.unblock_accept_loops();
            let _ = t.join();
        }
    }
}

/// Caps a request line at 1 MiB — a malicious client must not balloon
/// server memory one byte at a time.
const MAX_LINE_BYTES: usize = 1 << 20;

fn serve_connection(
    engine: &Engine,
    metrics: &Metrics,
    stream: TcpStream,
    prefetch_tx: &mpsc::Sender<String>,
) -> std::io::Result<()> {
    // Sessions are connection-scoped (PROTOCOL.md): whatever this client
    // opened and did not close must be reaped when the connection ends —
    // graceful EOF, abrupt drop, oversized-line refusal, and read-timeout
    // disconnect alike — or a crashy client leaks registry entries and
    // their sample memory until the server restarts.
    let mut opened: Vec<String> = Vec::new();
    let result = serve_lines(engine, metrics, stream, prefetch_tx, &mut opened);
    for session in &opened {
        engine.close_session(session);
    }
    result
}

#[allow(
    clippy::disallowed_methods,
    reason = "times each request for the latency metrics"
)]
fn serve_lines(
    engine: &Engine,
    metrics: &Metrics,
    stream: TcpStream,
    prefetch_tx: &mpsc::Sender<String>,
    opened: &mut Vec<String>,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        let mut last = false;
        match http::read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES)? {
            LineRead::Line => {}
            // A final unterminated line before EOF is still one request.
            LineRead::Eof if !line.is_empty() => last = true,
            LineRead::Eof => return Ok(()), // client closed
            // The configured read timeout fired: a stalled or half-open
            // client. Close (reaping its sessions) and free the worker.
            LineRead::TimedOut => return Ok(()),
            LineRead::Overflow => {
                // Over-long request line: one error, then close. (Keeping
                // the connection alive would mean discarding an
                // attacker-sized rest-of-line just to stay in sync — the
                // old behavior, which let a hostile client stream garbage
                // through the discard loop forever.)
                let response =
                    Response::error(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
                        .to_json()
                        .to_string();
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                // Bounded drain so closing with unread bytes queued does
                // not reset the refusal away before the client reads it.
                http::drain_briefly(&mut reader);
                return Ok(());
            }
        }
        // The protocol is JSON, hence UTF-8; anything else cannot parse.
        let Ok(text) = std::str::from_utf8(&line) else {
            let response = Response::error("request line is not UTF-8")
                .to_json()
                .to_string();
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            http::drain_briefly(&mut reader);
            return Ok(());
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            if last {
                return Ok(());
            }
            continue;
        }
        let started = Instant::now();
        let (response, prefetch_hint) = engine.handle_line_tracked(trimmed, opened);
        metrics.record(
            Transport::Tcp,
            started.elapsed(),
            response.starts_with("{\"ok\":true"),
        );
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if let Some(session) = prefetch_hint {
            // Best effort: if the worker is gone (shutdown), the next
            // request drains the job instead.
            let _ = prefetch_tx.send(session);
        }
        if last {
            return Ok(());
        }
    }
}

/// A minimal blocking client for the line protocol — used by the CLI
/// `connect` mode, the serve bench, and the stress harness.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line and returns the raw response line
    /// (both without trailing newline).
    pub fn call_line(&mut self, line: &str) -> std::io::Result<String> {
        debug_assert!(!line.contains('\n'), "one request per line");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends a typed request and parses the typed response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let line = self.call_line(&req.to_json().to_string())?;
        let v = crate::json::Json::parse(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Response::from_json(&v).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}
