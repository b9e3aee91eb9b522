//! The HTTP/1.1 front-end: bearer auth, admission control, and `/metrics`
//! over the same [`Engine`] the line-JSON TCP path drives.
//!
//! Hand-rolled over `std::net` (the build environment has no registry
//! access, so no hyper/axum): request-line + header parsing with hard
//! caps, `Content-Length` bodies only (no chunked encoding), HTTP/1.1
//! keep-alive.
//!
//! ## Routes
//!
//! | route | auth | behavior |
//! |---|---|---|
//! | `POST /v1/line` | bearer | body = one protocol request object; response body = the **exact** engine response line (transcript-transparent) |
//! | `GET /metrics` | bearer | Prometheus text exposition 0.0.4 |
//! | `GET /healthz` | none | `200 ok` liveness probe |
//!
//! ## Transcript transparency
//!
//! The `/v1/line` response body is byte-for-byte the line the TCP path
//! would have written (including the trailing newline). HTTP status codes
//! mirror the `"ok"` field (`200`/`400`) without touching the body, so a
//! transcript collected over HTTP equals a transcript collected over TCP —
//! `tests/http_parity.rs` pins this. Auth (`401`), admission control
//! (`429`/`503`), and parse errors answer *before* the engine runs: they
//! gate whether a request reaches the engine, never what it answers.
//!
//! Unlike the TCP path, HTTP sessions are **not** connection-scoped — a
//! session must survive across keep-alive connections from the same
//! client. Their lifecycle is the idle sweep: `open` without `close`
//! lives until it has been untouched for the server's idle timeout.
//!
//! This file is panic-free outside tests (lint rule P001): it parses
//! attacker-controlled bytes on every request.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::engine::Engine;
use crate::metrics::{Metrics, Transport};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Cap on one head line (request line or one header line), bytes.
pub const MAX_HEAD_LINE: usize = 8 << 10;
/// Cap on the number of header lines per request.
pub const MAX_HEADERS: usize = 64;
/// Cap on a request body — same bound as the TCP path's request line, so
/// no transport accepts a request the other would refuse for size.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One bounded line read. `buf` accumulates across [`LineRead::TimedOut`]
/// returns, so a slow-but-live client never loses partial data to a
/// timeout tick (std's `read_line` truncates on error; this keeps it).
pub(crate) enum LineRead {
    /// `buf` now ends with `\n`.
    Line,
    /// Clean close (no terminator arriving; `buf` may hold a fragment).
    Eof,
    /// The socket read timeout fired before the terminator.
    TimedOut,
    /// The line exceeded `max` bytes; the connection should be closed.
    Overflow,
}

/// Appends one `\n`-terminated line to `buf`, never exceeding `max`
/// bytes, surfacing read timeouts instead of failing.
pub(crate) fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    use std::io::ErrorKind;
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(LineRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(LineRead::Eof);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i + 1 > max {
                    reader.consume(i + 1);
                    return Ok(LineRead::Overflow);
                }
                buf.extend_from_slice(&available[..=i]);
                reader.consume(i + 1);
                return Ok(LineRead::Line);
            }
            None => {
                let n = available.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    return Ok(LineRead::Overflow);
                }
                buf.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

/// Consumes and discards whatever the client already sent, bounded in
/// bytes and time, before a terminal close. Closing a socket with unread
/// data in its receive queue makes the kernel reset the connection,
/// destroying the queued error response the client deserves to read.
pub(crate) fn drain_briefly(reader: &mut BufReader<TcpStream>) {
    use std::io::ErrorKind;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let mut drained: usize = 0;
    while drained < (4 << 20) {
        match reader.fill_buf() {
            Ok([]) => break,
            Ok(b) => {
                let n = b.len();
                drained += n;
                reader.consume(n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// A parsed request head (request line + headers; body not yet read).
pub(crate) struct RequestHead {
    pub method: String,
    pub target: String,
    headers: Vec<(String, String)>,
}

impl RequestHead {
    /// The first value of `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The parsed `Content-Length`, if present and numeric.
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length")?.trim().parse().ok()
    }

    /// True when the client asked to drop keep-alive.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The bearer token from `Authorization`, if the scheme matches.
    pub fn bearer_token(&self) -> Option<&str> {
        let auth = self.header("authorization")?.trim();
        let (scheme, token) = auth.split_once(' ')?;
        if scheme.eq_ignore_ascii_case("bearer") {
            Some(token.trim())
        } else {
            None
        }
    }
}

/// Outcome of reading one request head off a keep-alive connection.
pub(crate) enum HeadRead {
    Head(RequestHead),
    /// Clean close between requests.
    Eof,
    /// Read timeout — the idle/stalled-client guard; close.
    TimedOut,
    /// Malformed head → `400` and close.
    Bad(&'static str),
    /// Request line or a header over [`MAX_HEAD_LINE`] → `431` and close.
    TooLarge,
}

fn trim_crlf(buf: &[u8]) -> &[u8] {
    let mut end = buf.len();
    while end > 0 && (buf[end - 1] == b'\n' || buf[end - 1] == b'\r') {
        end -= 1;
    }
    &buf[..end]
}

/// Reads and parses one request head.
pub(crate) fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<HeadRead> {
    let mut line = Vec::with_capacity(256);
    match read_line_bounded(reader, &mut line, MAX_HEAD_LINE)? {
        LineRead::Line => {}
        LineRead::Eof => return Ok(HeadRead::Eof),
        LineRead::TimedOut => return Ok(HeadRead::TimedOut),
        LineRead::Overflow => return Ok(HeadRead::TooLarge),
    }
    let Ok(request_line) = std::str::from_utf8(trim_crlf(&line)) else {
        return Ok(HeadRead::Bad("request line is not UTF-8"));
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(HeadRead::Bad("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(HeadRead::Bad("unsupported HTTP version"));
    }
    let mut head = RequestHead {
        method: method.to_owned(),
        target: target.to_owned(),
        headers: Vec::new(),
    };
    loop {
        let mut hline = Vec::with_capacity(128);
        match read_line_bounded(reader, &mut hline, MAX_HEAD_LINE)? {
            LineRead::Line => {}
            // Mid-head EOF is a malformed request, not a clean close.
            LineRead::Eof => return Ok(HeadRead::Bad("connection closed mid-head")),
            LineRead::TimedOut => return Ok(HeadRead::TimedOut),
            LineRead::Overflow => return Ok(HeadRead::TooLarge),
        }
        let raw = trim_crlf(&hline);
        if raw.is_empty() {
            return Ok(HeadRead::Head(head)); // blank line ends the head
        }
        if head.headers.len() >= MAX_HEADERS {
            return Ok(HeadRead::TooLarge);
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            return Ok(HeadRead::Bad("header line is not UTF-8"));
        };
        let Some((name, value)) = text.split_once(':') else {
            return Ok(HeadRead::Bad("header line without a colon"));
        };
        head.headers
            .push((name.trim().to_owned(), value.trim().to_owned()));
    }
}

/// Writes one response with `Content-Length` framing.
fn write_response(
    w: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut head = String::with_capacity(160);
    let _ = write!(head, "HTTP/1.1 {status} {reason}\r\n");
    let _ = write!(head, "Content-Type: {content_type}\r\n");
    let _ = write!(head, "Content-Length: {}\r\n", body.len());
    for (k, v) in extra_headers {
        let _ = write!(head, "{k}: {v}\r\n");
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// `Retry-After` seconds on shed (`429`) and draining (`503`) answers.
const RETRY_AFTER_S: u32 = 1;

/// Writes an admission-control shed response (`429`/`503` + `Retry-After`)
/// **without reading the request** — called from the accept loop, which
/// must never block on a client's bytes. Clients that already sent their
/// request simply find this answer waiting.
pub(crate) fn write_overload(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
) -> std::io::Result<()> {
    write_response(
        stream,
        status,
        reason,
        "application/json",
        &[("Retry-After", RETRY_AFTER_S.to_string())],
        format!(
            "{{\"ok\":false,\"error\":{:?}}}\n",
            reason.to_ascii_lowercase()
        )
        .as_bytes(),
        true,
    )
}

/// `"ok"` serializes first on every response, so raw bytes reveal the
/// outcome without re-parsing (and without ever altering the body).
fn response_is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// Serves one HTTP connection for its lifetime (keep-alive loop). The
/// caller has already applied admission control and the socket read
/// timeout; sessions opened here are *not* reaped at connection end — the
/// idle sweep owns their lifecycle (see module docs).
#[allow(
    clippy::disallowed_methods,
    reason = "times each request for the latency metrics"
)]
pub(crate) fn serve_http_connection(
    engine: &Arc<Engine>,
    metrics: &Arc<Metrics>,
    queue_depth: &AtomicUsize,
    stopping: &AtomicBool,
    stream: TcpStream,
    prefetch_tx: &mpsc::Sender<String>,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let head = match read_head(&mut reader)? {
            HeadRead::Head(h) => h,
            HeadRead::Eof | HeadRead::TimedOut => return Ok(()),
            HeadRead::Bad(why) => {
                let r = write_response(
                    &mut writer,
                    400,
                    "Bad Request",
                    "application/json",
                    &[],
                    format!("{{\"ok\":false,\"error\":{why:?}}}\n").as_bytes(),
                    true,
                );
                drain_briefly(&mut reader);
                return r;
            }
            HeadRead::TooLarge => {
                let r = write_response(
                    &mut writer,
                    431,
                    "Request Header Fields Too Large",
                    "application/json",
                    &[],
                    b"{\"ok\":false,\"error\":\"request head too large\"}\n",
                    true,
                );
                drain_briefly(&mut reader);
                return r;
            }
        };
        // Draining: finish nothing new once shutdown has begun.
        if stopping.load(Ordering::SeqCst) {
            let r = write_overload(&mut writer, 503, "Service Unavailable");
            drain_briefly(&mut reader);
            return r;
        }
        let close = head.wants_close();
        match (head.method.as_str(), head.target.as_str()) {
            ("GET", "/healthz") => {
                write_response(&mut writer, 200, "OK", "text/plain", &[], b"ok\n", close)?;
            }
            ("POST", "/v1/line") => {
                // Body before auth: a 401 must still consume the request
                // body, or the keep-alive stream desynchronizes (the body
                // would parse as the next request's head).
                let body = match read_body(&mut reader, &head) {
                    Ok(Ok(b)) => b,
                    Ok(Err((status, reason, msg))) => {
                        // Without the body consumed, the stream is out of
                        // sync — always close after a body-level refusal.
                        let r = write_response(
                            &mut writer,
                            status,
                            reason,
                            "application/json",
                            &[],
                            format!("{{\"ok\":false,\"error\":{msg:?}}}\n").as_bytes(),
                            true,
                        );
                        drain_briefly(&mut reader);
                        return r;
                    }
                    Err(e) => return Err(e),
                };
                let tenant = match authenticate(engine, metrics, &head) {
                    Ok(t) => t,
                    Err(()) => {
                        write_unauthorized(&mut writer, close)?;
                        if close {
                            return Ok(());
                        }
                        continue;
                    }
                };
                let Ok(text) = std::str::from_utf8(&body) else {
                    return write_response(
                        &mut writer,
                        400,
                        "Bad Request",
                        "application/json",
                        &[],
                        b"{\"ok\":false,\"error\":\"body is not UTF-8\"}\n",
                        true,
                    );
                };
                let started = Instant::now();
                let (response, prefetch_hint) = engine.handle_line_as(text.trim(), None, tenant);
                let ok = response_is_ok(&response);
                metrics.record(Transport::Http, started.elapsed(), ok);
                let (status, reason) = if ok {
                    (200, "OK")
                } else {
                    (400, "Bad Request")
                };
                // Transcript transparency: the body is the exact line the
                // TCP path would write, trailing newline included.
                let mut body = response.into_bytes();
                body.push(b'\n');
                write_response(
                    &mut writer,
                    status,
                    reason,
                    "application/json",
                    &[],
                    &body,
                    close,
                )?;
                if let Some(session) = prefetch_hint {
                    let _ = prefetch_tx.send(session);
                }
            }
            ("GET", "/metrics") => {
                if authenticate(engine, metrics, &head).is_err() {
                    write_unauthorized(&mut writer, close)?;
                    if close {
                        return Ok(());
                    }
                    continue;
                }
                let text = metrics.render(engine, queue_depth.load(Ordering::Relaxed));
                write_response(
                    &mut writer,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &[],
                    text.as_bytes(),
                    close,
                )?;
            }
            ("GET" | "POST", _) => {
                write_response(
                    &mut writer,
                    404,
                    "Not Found",
                    "application/json",
                    &[],
                    b"{\"ok\":false,\"error\":\"no such route\"}\n",
                    close,
                )?;
            }
            _ => {
                write_response(
                    &mut writer,
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &[("Allow", "GET, POST".to_owned())],
                    b"{\"ok\":false,\"error\":\"method not allowed\"}\n",
                    close,
                )?;
            }
        }
        if close {
            return Ok(());
        }
    }
}

/// Resolves the request's tenant: the anonymous tenant when no token file
/// is configured, otherwise a valid bearer token or `Err` (= `401`).
fn authenticate(
    engine: &Engine,
    metrics: &Metrics,
    head: &RequestHead,
) -> Result<crate::registry::TenantId, ()> {
    let tenants = engine.tenants();
    if !tenants.auth_required() {
        return Ok(crate::registry::ANONYMOUS_TENANT);
    }
    match head.bearer_token().and_then(|t| tenants.authenticate(t)) {
        Some(id) => Ok(id),
        None => {
            metrics.auth_failures.fetch_add(1, Ordering::Relaxed);
            Err(())
        }
    }
}

fn write_unauthorized(writer: &mut TcpStream, close: bool) -> std::io::Result<()> {
    write_response(
        writer,
        401,
        "Unauthorized",
        "application/json",
        &[("WWW-Authenticate", "Bearer".to_owned())],
        b"{\"ok\":false,\"error\":\"missing or invalid bearer token\"}\n",
        close,
    )
}

/// Reads the request body per `Content-Length`. The inner `Err` carries a
/// ready-to-send refusal `(status, reason, message)`.
#[allow(
    clippy::type_complexity,
    reason = "an I/O result around a ready-to-send refusal, used here only"
)]
fn read_body(
    reader: &mut BufReader<TcpStream>,
    head: &RequestHead,
) -> std::io::Result<Result<Vec<u8>, (u16, &'static str, &'static str)>> {
    if head
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Ok(Err((
            501,
            "Not Implemented",
            "chunked transfer encoding is not supported",
        )));
    }
    let Some(len) = head.content_length() else {
        return Ok(Err((411, "Length Required", "Content-Length is required")));
    };
    if len > MAX_BODY_BYTES {
        return Ok(Err((
            413,
            "Content Too Large",
            "body exceeds the 1 MiB request cap",
        )));
    }
    let mut body = vec![0u8; len];
    match reader.read_exact(&mut body) {
        Ok(()) => Ok(Ok(body)),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::UnexpectedEof =>
        {
            Ok(Err((
                400,
                "Bad Request",
                "body shorter than Content-Length",
            )))
        }
        Err(e) => Err(e),
    }
}

/// A minimal blocking HTTP/1.1 client for the front-end — used by the
/// parity/e2e suites, the serve bench, and CI smoke checks. Keep-alive:
/// one connection serves many [`HttpClient::request`] calls.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One parsed HTTP response.
pub struct HttpReply {
    /// Status code (`200`, `429`, …).
    pub status: u16,
    /// Response headers, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The first value of `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

impl HttpClient {
    /// Connects to a server's HTTP address.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(HttpClient {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the full response. `token` becomes an
    /// `Authorization: Bearer` header; `body` implies `Content-Length`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        token: Option<&str>,
        body: Option<&str>,
    ) -> std::io::Result<HttpReply> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(160);
        let _ = write!(head, "{method} {path} HTTP/1.1\r\nHost: sdd\r\n");
        if let Some(t) = token {
            let _ = write!(head, "Authorization: Bearer {t}\r\n");
        }
        let _ = write!(head, "Content-Length: {}\r\n\r\n", body.map_or(0, str::len));
        self.writer.write_all(head.as_bytes())?;
        if let Some(b) = body {
            self.writer.write_all(b.as_bytes())?;
        }
        self.writer.flush()?;
        self.read_reply()
    }

    /// Convenience: `POST /v1/line` with one protocol request line,
    /// returning `(status, response line)` — the response line is exactly
    /// what a TCP [`crate::Client::call_line`] would have returned.
    pub fn call_line(&mut self, token: Option<&str>, line: &str) -> std::io::Result<(u16, String)> {
        let reply = self.request("POST", "/v1/line", token, Some(line))?;
        let mut text = reply.body_str().into_owned();
        while text.ends_with('\n') || text.ends_with('\r') {
            text.pop();
        }
        Ok((reply.status, text))
    }

    fn read_reply(&mut self) -> std::io::Result<HttpReply> {
        let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        loop {
            let mut hline = String::new();
            if self.reader.read_line(&mut hline)? == 0 {
                return Err(bad("connection closed mid-head"));
            }
            let trimmed = hline.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((k, v)) = trimmed.split_once(':') {
                headers.push((k.trim().to_owned(), v.trim().to_owned()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(HttpReply {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bearer_tokens_parse_case_insensitively() {
        let head = RequestHead {
            method: "GET".into(),
            target: "/".into(),
            headers: vec![("authorization".into(), "BEARER  tok-1 ".into())],
        };
        assert_eq!(head.bearer_token(), Some("tok-1"));
        let basic = RequestHead {
            method: "GET".into(),
            target: "/".into(),
            headers: vec![("Authorization".into(), "Basic dXNlcg==".into())],
        };
        assert_eq!(basic.bearer_token(), None);
    }

    #[test]
    fn head_helpers_are_case_insensitive() {
        let head = RequestHead {
            method: "POST".into(),
            target: "/v1/line".into(),
            headers: vec![
                ("Content-Length".into(), "42".into()),
                ("CONNECTION".into(), "Close".into()),
            ],
        };
        assert_eq!(head.content_length(), Some(42));
        assert!(head.wants_close());
        assert_eq!(head.header("content-length"), Some("42"));
    }

    #[test]
    fn ok_discriminator_reads_the_first_field() {
        assert!(response_is_ok("{\"ok\":true,\"op\":\"open\"}"));
        assert!(!response_is_ok(
            "{\"ok\":false,\"op\":\"open\",\"error\":\"x\"}"
        ));
        assert!(!response_is_ok("garbage"));
    }

    #[test]
    fn trim_crlf_strips_all_terminators() {
        assert_eq!(trim_crlf(b"abc\r\n"), b"abc");
        assert_eq!(trim_crlf(b"abc\n"), b"abc");
        assert_eq!(trim_crlf(b"abc"), b"abc");
        assert_eq!(trim_crlf(b"\r\n"), b"");
    }
}
