//! The HTTP/1.1 front-end: a hand-rolled server over
//! [`std::net::TcpListener`] (no registry access, so no hyper/axum) that
//! serves one handler as a long-lived process. The handler is either a
//! [`Service`] (`tfsn serve-http`: deployments load once per process, not
//! once per CLI call) or the cluster router (`tfsn route`, see
//! [`crate::cluster::router`]); both run on the same transport.
//!
//! ## Endpoints
//!
//! The endpoints of a [`Service`] (the router's are in its module docs):
//!
//! | Method + path          | Body                       | Response |
//! |------------------------|----------------------------|----------|
//! | `GET /healthz`         | —                          | `ok` (text/plain) |
//! | `POST /v1/query`       | one [`crate::TeamQuery`] JSON object | one [`crate::TeamAnswer`] JSON object |
//! | `POST /v1/batch`       | JSONL of queries           | JSONL of answers (same bytes as CLI `serve-batch`) |
//! | `POST /v1/mutate`      | one bare mutation object (`{"op": "edge_insert", "u": 1, "v": 2, "sign": "+"}`) | `mutated` [`Response`] envelope |
//! | `POST /v1/rpc`         | one protocol [`Request`] envelope | one [`Response`] envelope |
//! | `GET /v1/stats`        | —                          | `stats` [`Response`] envelope |
//! | `GET /v1/metrics`      | —                          | `metrics` [`Response`] envelope |
//! | `GET /v1/telemetry`    | —                          | `telemetry` [`Response`] envelope (latency percentiles + slow-query log) |
//! | `GET /metrics`         | —                          | Prometheus text exposition over every loaded deployment |
//! | `GET /v1/deployments`  | —                          | `deployments` [`Response`] envelope |
//! | `GET /v1/wal`          | —                          | `wal_records` [`Response`] envelope (`?from_seq=N&max=M`; replication pulls — see `docs/CLUSTER.md`) |
//! | `POST /v1/shutdown`    | — (only with [`ServerOptions::allow_shutdown`]) | `shutting down` (text/plain), then the server drains |
//!
//! `query`, `batch`, `mutate` and `stats` accept `?deployment=NAME` to
//! address a registry entry; `query`/`batch` accept `?timing=false` to
//! zero the per-answer latency fields and `?deadline_ms=N` to bound the
//! request's wall-clock budget (expiry → `deadline_exceeded`, 504). Errors
//! are [`Response::Error`] envelopes with mapped status codes
//! (`unknown_deployment` → 404, `too_large` → 413, `overloaded` → 503 with
//! a `Retry-After` header, `deadline_exceeded` → 504, other client errors
//! → 400).
//!
//! ## Overload protection
//!
//! Two independent caps shed load instead of queueing it unboundedly: the
//! transport's connection cap ([`ServerOptions::max_connections`]), and a
//! bounded *admission queue* for a [`Service`]'s data-plane work
//! ([`ServerOptions::max_inflight`] concurrent solves,
//! [`ServerOptions::admission_queue`] waiters, each waiting at most
//! [`ServerOptions::admission_wait`]). Shed requests get a typed
//! `overloaded` 503 with a `Retry-After` header; `/healthz`, `/metrics`
//! and the `GET` control plane bypass admission so the server stays
//! observable while degraded. The router has the connection cap but no
//! admission queue: it forwards, and its backends admit. See
//! `docs/DURABILITY.md`.
//!
//! ## Architecture
//!
//! The transport reads requests; a handler answers them. A small pool of
//! acceptor threads shares the listener (each holds a `try_clone`); every
//! accepted connection gets its own thread, so idle keep-alive connections
//! (monitoring dashboards, pooled clients) never pin an acceptor and
//! `/healthz` stays responsive. Concurrent connections are capped at
//! [`ServerOptions::max_connections`] — over the cap the server answers
//! `503` and closes. A connection is driven until the peer closes, sends
//! `Connection: close`, or idles past the read timeout. Request heads are
//! read with per-line and header-count caps (a newline-less firehose
//! cannot grow memory), bodies are framed by `Content-Length` (no chunked
//! upload support — JSONL batches have a known length) and capped at
//! [`ServerOptions::max_body_bytes`], and `Expect: 100-continue` gets its
//! interim response so curl does not stall before large uploads. Each
//! request then goes to the handler, which writes its response and says
//! whether the connection stays open. A [`Service`]'s handler admits
//! data-plane work, streams `/v1/batch` chunked through
//! [`Service::stream_batch`] (so the engine-side chunking — bounded memory,
//! in-order answers — is identical to the CLI transport), and answers the
//! opt-in `/v1/shutdown`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{JsonWriter, Serialize};

use crate::failpoint;
use crate::proto::{Request, RequestBody, Response, ServiceError};
use crate::service::{Deadline, Service, StreamError, StreamOptions};
use crate::telemetry::globals;
use crate::TeamQuery;

/// Longest accepted request line or header line, bytes.
const MAX_HEAD_LINE_BYTES: usize = 8 << 10;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// Construction options for an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Acceptor threads sharing the listener. Connections are handled on
    /// their own threads; batches fan out over the engine's rayon workers.
    pub threads: usize,
    /// Maximum concurrent connections; over the cap the server answers
    /// `503` and closes.
    pub max_connections: usize,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Keep-alive idle timeout: a connection silent this long is closed.
    pub keep_alive: Duration,
    /// Enables `POST /v1/shutdown`, the remote graceful-shutdown endpoint
    /// (off by default: an unauthenticated shutdown is an operator opt-in —
    /// CI smoke tests and local sessions, not exposed fleets).
    pub allow_shutdown: bool,
    /// Maximum data-plane requests (`POST` query/batch/rpc/mutate) solving
    /// concurrently. Requests over the cap wait in a bounded admission
    /// queue; observability endpoints (`/healthz`, `/metrics`, the `GET`
    /// control plane) bypass admission so the server stays inspectable
    /// while shedding.
    pub max_inflight: usize,
    /// Requests allowed to wait for an admission slot; one more is shed
    /// with a typed `overloaded` 503 and a `Retry-After` header.
    pub admission_queue: usize,
    /// Longest a queued request waits for a slot before it is shed.
    pub admission_wait: Duration,
    /// The `Retry-After` delay advertised on shed (503) responses.
    pub retry_after: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            threads: 4,
            max_connections: 256,
            max_body_bytes: 64 << 20,
            keep_alive: Duration::from_secs(30),
            allow_shutdown: false,
            max_inflight: 64,
            admission_queue: 128,
            admission_wait: Duration::from_millis(500),
            retry_after: Duration::from_secs(1),
        }
    }
}

/// The shared stop signal of one server: the flag acceptors poll plus the
/// address to poke them awake on.
#[derive(Debug)]
struct ShutdownState {
    flag: AtomicBool,
    addr: SocketAddr,
    workers: usize,
}

/// A cloneable handle that stops a running [`HttpServer`] from anywhere —
/// another thread while [`HttpServer::join`] blocks, a signal handler, or
/// the opt-in `POST /v1/shutdown` endpoint. Triggering is idempotent.
///
/// This is the graceful-shutdown path: acceptors stop and exit, and
/// `join`/`shutdown` then wait (bounded by [`SHUTDOWN_DRAIN_MAX`]) for the
/// live-connection gauge to drain so in-flight responses finish — instead
/// of the process being killed by PID mid-write. Connections that are
/// still open at the drain deadline (idle keep-alive peers sitting in
/// their read timeout) are abandoned.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<ShutdownState>,
}

impl ShutdownHandle {
    /// Signals the server to stop and wakes its acceptors. Safe to call
    /// multiple times; only the first call does work.
    pub fn shutdown(&self) {
        if self.state.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake-up connection per worker unblocks the blocking accepts.
        for _ in 0..self.state.workers {
            let _ = TcpStream::connect(self.state.addr);
        }
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.flag.load(Ordering::SeqCst)
    }
}

/// Longest `join`/`shutdown` waits for in-flight connections to drain
/// after the acceptors stop. The cap exists because idle keep-alive peers
/// only notice the shutdown at their read timeout — a busy handler
/// finishing a response exits the wait early via the gauge.
pub const SHUTDOWN_DRAIN_MAX: Duration = Duration::from_secs(5);

/// What an [`HttpServer`] serves. The transport owns everything up to a
/// parsed request: accepting, the connection cap, timeouts, framing,
/// keep-alive and the drain. A handler owns the response.
pub(crate) trait Handler: Send + Sync {
    /// Writes the response to `request` and returns whether the connection
    /// stays open. `shutdown` stops the server that read the request.
    fn respond(
        &self,
        request: &HttpRequest,
        writer: &mut TcpStream,
        shutdown: &ShutdownHandle,
    ) -> std::io::Result<bool>;
}

/// A running HTTP front-end. Dropping the handle does **not** stop the
/// server; call [`HttpServer::shutdown`], trigger a
/// [`HttpServer::shutdown_handle`] from another thread, or
/// [`HttpServer::join`] to serve until one of those fires.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    connections: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an ephemeral
    /// port — read it back from [`HttpServer::addr`]) and starts the worker
    /// pool serving `service`.
    pub fn bind(
        service: Arc<Service>,
        addr: &str,
        options: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        let handler = ServiceHandler {
            service,
            admission: Admission::new(&options),
            options: options.clone(),
        };
        Self::serve(Arc::new(handler), addr, options)
    }

    /// Binds `addr` and starts the worker pool serving `handler`.
    pub(crate) fn serve(
        handler: Arc<dyn Handler>,
        addr: &str,
        options: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = options.threads.max(1);
        let handle = ShutdownHandle {
            state: Arc::new(ShutdownState {
                flag: AtomicBool::new(false),
                addr,
                workers: threads,
            }),
        };
        let connections = Arc::new(AtomicUsize::new(0));
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cloned = match listener.try_clone() {
                Ok(cloned) => cloned,
                Err(e) => {
                    // Partial failure (fd exhaustion): stop and join the
                    // acceptors already spawned so no half-built server
                    // keeps the port alive behind an `Err` return.
                    handle.shutdown();
                    for worker in workers {
                        let _: std::thread::Result<()> = worker.join();
                    }
                    return Err(e);
                }
            };
            let handler = handler.clone();
            let handle = handle.clone();
            let connections = connections.clone();
            let options = options.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&cloned, &handler, &handle, &connections, &options)
            }));
        }
        Ok(HttpServer {
            addr,
            handle,
            connections,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle that can stop this server from another thread
    /// while [`HttpServer::join`] blocks (the CLI installs it behind
    /// `POST /v1/shutdown` when `--allow-shutdown` is set).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Stops accepting, wakes the acceptors, joins them and drains
    /// in-flight connections (bounded by [`SHUTDOWN_DRAIN_MAX`]); idle
    /// keep-alive connections still open at the deadline are abandoned
    /// (their threads exit at the read timeout).
    pub fn shutdown(self) {
        self.handle.shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
        drain_connections(&self.connections);
    }

    /// Blocks the calling thread until the server shuts down — via
    /// [`HttpServer::shutdown_handle`] or the `POST /v1/shutdown` endpoint
    /// (the CLI `serve-http` foreground mode) — then drains in-flight
    /// connections like [`HttpServer::shutdown`], so the process does not
    /// exit mid-response.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        drain_connections(&self.connections);
    }
}

/// Waits for the live-connection gauge to reach zero, up to
/// [`SHUTDOWN_DRAIN_MAX`] — the piece that makes shutdown *graceful*:
/// handler threads are detached, so without this wait the process could
/// exit while a response (the `/v1/shutdown` acknowledgement included) is
/// still being written.
fn drain_connections(connections: &AtomicUsize) {
    let deadline = std::time::Instant::now() + SHUTDOWN_DRAIN_MAX;
    while connections.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Decrements the live-connection gauge when a handler thread exits, on
/// every path (including panics inside route handlers).
struct ConnectionGuard(Arc<AtomicUsize>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The bounded admission queue: at most `max_inflight` data-plane requests
/// solve concurrently, at most `max_waiting` more wait (up to `max_wait`)
/// for a slot, and everything beyond that is shed immediately with a typed
/// `overloaded` 503 — the server degrades by refusing work it cannot start
/// soon, instead of queueing unboundedly until every response is late.
#[derive(Debug)]
struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
    max_inflight: usize,
    max_waiting: usize,
    max_wait: Duration,
}

#[derive(Debug, Default)]
struct AdmissionState {
    inflight: usize,
    waiting: usize,
}

/// One admitted request's slot; dropping it frees the slot and wakes a
/// waiter.
struct AdmissionPermit {
    admission: Arc<Admission>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self
            .admission
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        state.inflight -= 1;
        drop(state);
        self.admission.freed.notify_one();
    }
}

impl Admission {
    fn new(options: &ServerOptions) -> Arc<Self> {
        Arc::new(Admission {
            state: Mutex::new(AdmissionState::default()),
            freed: Condvar::new(),
            max_inflight: options.max_inflight.max(1),
            max_waiting: options.admission_queue,
            max_wait: options.admission_wait,
        })
    }

    /// Waits for an execution slot: `None` means the request is shed (the
    /// queue was full, or no slot freed within the wait budget).
    fn admit(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let permit = || AdmissionPermit {
            admission: self.clone(),
        };
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.inflight < self.max_inflight {
            state.inflight += 1;
            return Some(permit());
        }
        if state.waiting >= self.max_waiting {
            return None;
        }
        state.waiting += 1;
        let deadline = Instant::now() + self.max_wait;
        loop {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                state.waiting -= 1;
                return None;
            }
            let (next, _) = self
                .freed
                .wait_timeout(state, timeout)
                .unwrap_or_else(|p| p.into_inner());
            state = next;
            if state.inflight < self.max_inflight {
                state.waiting -= 1;
                state.inflight += 1;
                return Some(permit());
            }
        }
    }
}

/// First accept-retry delay after an `accept(2)` failure.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(10);
/// Hard cap on the accept-retry delay: fd exhaustion can persist for
/// seconds, but an acceptor must come back quickly once it clears.
pub const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Capped exponential backoff for accept failures: doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_CAP`], resets on the next success — so a
/// persistent fault (fd exhaustion) does not busy-spin every acceptor, and
/// one transient fault does not leave acceptors sluggish.
struct AcceptBackoff {
    current: Duration,
}

impl AcceptBackoff {
    fn new() -> Self {
        AcceptBackoff {
            current: ACCEPT_BACKOFF_START,
        }
    }

    /// The delay to sleep for this failure; doubles the next one.
    fn next_delay(&mut self) -> Duration {
        let delay = self.current;
        self.current = (self.current * 2).min(ACCEPT_BACKOFF_CAP);
        delay
    }

    /// A successful accept ends the failure streak.
    fn reset(&mut self) {
        self.current = ACCEPT_BACKOFF_START;
    }
}

fn worker_loop(
    listener: &TcpListener,
    handler: &Arc<dyn Handler>,
    shutdown: &ShutdownHandle,
    connections: &Arc<AtomicUsize>,
    options: &ServerOptions,
) {
    let mut backoff = AcceptBackoff::new();
    loop {
        if shutdown.is_shutdown() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff.reset();
                // A response leaves in one write, but the `100 Continue`
                // interim reply and a multi-chunk batch stream still send
                // several small segments per exchange; without nodelay,
                // Nagle holds each until the client's delayed ACK (~40ms).
                let _ = stream.set_nodelay(true);
                stream
            }
            Err(_) => {
                // Persistent accept failures (fd exhaustion, transient
                // network errors) must not busy-spin every acceptor; the
                // capped exponential backoff keeps retries cheap while
                // recovering quickly once the fault clears.
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        if shutdown.is_shutdown() {
            return;
        }
        if connections.fetch_add(1, Ordering::SeqCst) >= options.max_connections {
            globals::note_request_shed();
            let guard = ConnectionGuard(connections.clone());
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(options.keep_alive));
            let _ = write_response(
                &mut stream,
                &HttpResponse::error(
                    503,
                    ServiceError::Overloaded {
                        max_connections: options.max_connections as u64,
                    },
                )
                .with_retry_after(options.retry_after),
                true,
            );
            drop(guard);
            continue;
        }
        // One thread per connection (detached): an idle keep-alive
        // connection then costs one parked thread, not an acceptor. The
        // guard keeps the gauge exact on every exit path.
        let guard = ConnectionGuard(connections.clone());
        let handler = handler.clone();
        let shutdown = shutdown.clone();
        let options = options.clone();
        std::thread::spawn(move || {
            let _guard = guard;
            // Per-connection errors (resets, timeouts, malformed framing)
            // only terminate that connection.
            let _ = handle_connection(stream, &*handler, &shutdown, &options);
        });
    }
}

/// One parsed request head plus its body.
pub(crate) struct HttpRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
    pub(crate) close: bool,
    /// `true` for HTTP/1.1 peers, which understand chunked responses.
    pub(crate) http11: bool,
}

impl HttpRequest {
    /// The body as text; a body that is not UTF-8 is a typed 400.
    pub(crate) fn text(&self) -> Result<&str, ServiceError> {
        std::str::from_utf8(&self.body).map_err(|_| ServiceError::BadRequest {
            detail: "request body is not UTF-8".to_string(),
        })
    }
}

/// Outcome of one capped head-line read.
enum HeadLine {
    /// A complete line (terminator stripped).
    Line(String),
    /// Clean EOF before any byte of this line.
    Eof,
    /// The line exceeded [`MAX_HEAD_LINE_BYTES`] — the connection is
    /// hostile or broken; respond 400 and close.
    TooLong,
}

/// Reads one `\n`-terminated head line with a hard byte cap, so a
/// newline-less firehose cannot grow memory (`BufRead::read_line` has no
/// such cap).
fn read_head_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<HeadLine> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: clean only between requests (nothing read yet).
            return Ok(if line.is_empty() {
                HeadLine::Eof
            } else {
                HeadLine::Line(line_text(line))
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let take = pos + 1;
                if line.len() + pos > MAX_HEAD_LINE_BYTES {
                    reader.consume(take);
                    return Ok(HeadLine::TooLong);
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(take);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(HeadLine::Line(line_text(line)));
            }
            None => {
                let take = buf.len();
                if line.len() + take > MAX_HEAD_LINE_BYTES {
                    reader.consume(take);
                    return Ok(HeadLine::TooLong);
                }
                line.extend_from_slice(buf);
                reader.consume(take);
            }
        }
    }
}

/// A head line's bytes as text, converted in place when they are UTF-8
/// (copied, with invalid bytes replaced, only when they are not).
fn line_text(line: Vec<u8>) -> String {
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Decodes `%XX` escapes and `+`-as-space in one URL query component, so
/// percent-encoding clients can address deployment names with reserved
/// characters. Malformed escapes pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one request off the connection. `Ok(None)` = clean EOF (the peer
/// closed between requests). Framing errors are returned as a response to
/// send before closing. `writer` is needed for the `100 Continue` interim
/// response clients like curl wait for before sending large bodies.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    max_body: usize,
) -> std::io::Result<std::result::Result<Option<HttpRequest>, (u16, ServiceError)>> {
    let too_long = || {
        Ok(Err((
            400,
            ServiceError::BadRequest {
                detail: format!("request head line exceeds {MAX_HEAD_LINE_BYTES} bytes"),
            },
        )))
    };
    let line = match read_head_line(reader)? {
        HeadLine::Eof => return Ok(Ok(None)),
        HeadLine::TooLong => return too_long(),
        HeadLine::Line(line) => line,
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(Err((
            400,
            ServiceError::BadRequest {
                detail: "malformed request line".to_string(),
            },
        )));
    };
    let http11 = version.eq_ignore_ascii_case("HTTP/1.1");
    let method = method.to_ascii_uppercase();
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query: Vec<(String, String)> = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; 1.0 to close.
    let mut close = !http11;
    let mut expect_continue = false;
    let mut headers = 0usize;
    loop {
        let header = match read_head_line(reader)? {
            HeadLine::Eof => return Ok(Ok(None)), // peer vanished mid-headers
            HeadLine::TooLong => return too_long(),
            HeadLine::Line(header) => header,
        };
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err((
                400,
                ServiceError::BadRequest {
                    detail: format!("more than {MAX_HEADERS} request headers"),
                },
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: the value is 1*DIGIT (`usize::from_str` would
            // also take a sign), and a second value that differs from the
            // first leaves the framing ambiguous. Both are invalid framing.
            let parsed = value
                .bytes()
                .all(|b| b.is_ascii_digit())
                .then(|| value.parse::<usize>().ok())
                .flatten();
            match parsed {
                Some(n) if content_length.is_none_or(|first| first == n) => {
                    content_length = Some(n)
                }
                invalid => {
                    let detail = match invalid {
                        Some(_) => "conflicting Content-Length headers".to_string(),
                        None => format!("invalid Content-Length `{value}`"),
                    };
                    return Ok(Err((400, ServiceError::BadRequest { detail })));
                }
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            return Ok(Err((
                400,
                ServiceError::BadRequest {
                    detail: "chunked request bodies are not supported; send Content-Length"
                        .to_string(),
                },
            )));
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Ok(Err((
            413,
            ServiceError::TooLarge {
                limit_bytes: max_body as u64,
            },
        )));
    }
    if expect_continue && content_length > 0 {
        // curl sends `Expect: 100-continue` for bodies over ~1 KiB and
        // stalls up to a second waiting for this interim response.
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(Some(HttpRequest {
        method,
        path,
        query,
        body,
        close,
        http11,
    })))
}

/// One response ready to write.
pub(crate) struct HttpResponse {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
    /// Extra response headers (name, value) beyond the framing set.
    pub(crate) headers: Vec<(&'static str, String)>,
}

impl HttpResponse {
    pub(crate) fn text(status: u16, body: &[u8]) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain",
            body: body.to_vec(),
            headers: Vec::new(),
        }
    }

    pub(crate) fn json(status: u16, value: &impl Serialize) -> Self {
        let mut body = String::with_capacity(JSON_BODY_CAPACITY);
        value.serialize(&mut JsonWriter::compact(&mut body));
        body.push('\n');
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    pub(crate) fn error(status: u16, error: ServiceError) -> Self {
        Self::json(status, &Response::Error(error))
    }

    /// Adds a `Retry-After` header (whole seconds, rounded up, at least 1)
    /// — every shed (503) response carries one so clients back off an
    /// advertised amount instead of guessing.
    pub(crate) fn with_retry_after(mut self, delay: Duration) -> Self {
        let secs = delay.as_secs() + u64::from(delay.subsec_nanos() > 0);
        self.headers.push(("Retry-After", secs.max(1).to_string()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// The HTTP status a typed service error maps to.
pub(crate) fn status_for(error: &ServiceError) -> u16 {
    match error {
        ServiceError::UnknownDeployment { .. } => 404,
        ServiceError::TooLarge { .. } => 413,
        // Both 503s mean "retry later": `overloaded` because the server
        // shed the request, `no_backend` because the router has no healthy
        // target for it right now.
        ServiceError::Overloaded { .. } | ServiceError::NoBackend { .. } => 503,
        ServiceError::DeadlineExceeded { .. } => 504,
        ServiceError::Internal { .. } => 500,
        ServiceError::UnsupportedVersion { .. }
        | ServiceError::UnknownOp { .. }
        | ServiceError::BadRequest { .. } => 400,
    }
}

/// Drives one connection: reads requests and hands each to `handler`
/// until the peer closes, the handler closes, or the server stops.
fn handle_connection(
    stream: TcpStream,
    handler: &dyn Handler,
    shutdown: &ShutdownHandle,
    options: &ServerOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(options.keep_alive))?;
    // Also bound writes: a client that stops reading its response would
    // otherwise block this handler forever once the socket send buffer
    // fills, leaking its connection slot until the cap starves the server.
    stream.set_write_timeout(Some(options.keep_alive))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while !shutdown.is_shutdown() {
        let request = match read_request(&mut reader, &mut writer, options.max_body_bytes) {
            Ok(Ok(Some(request))) => request,
            Ok(Ok(None)) => return Ok(()), // clean close
            Ok(Err((status, error))) => {
                // Framing errors poison the connection: respond and close.
                write_response(&mut writer, &HttpResponse::error(status, error), true)?;
                return Ok(());
            }
            Err(_) => return Ok(()), // timeout or reset
        };
        if !handler.respond(&request, &mut writer, shutdown)? {
            return Ok(());
        }
    }
    Ok(())
}

/// The handler of a [`Service`]: admission, the chunked `/v1/batch`
/// stream, the opt-in `/v1/shutdown`, and [`route`] for the rest.
struct ServiceHandler {
    service: Arc<Service>,
    admission: Arc<Admission>,
    options: ServerOptions,
}

impl Handler for ServiceHandler {
    fn respond(
        &self,
        request: &HttpRequest,
        writer: &mut TcpStream,
        shutdown: &ShutdownHandle,
    ) -> std::io::Result<bool> {
        let close = request.close;
        // Admission: data-plane work (solves, mutations) competes for a
        // bounded number of slots; everything else (health, metrics,
        // control-plane reads) bypasses so the server stays inspectable
        // exactly when it is shedding.
        let data_plane = request.method == "POST"
            && matches!(
                request.path.as_str(),
                "/v1/query" | "/v1/batch" | "/v1/rpc" | "/v1/mutate"
            );
        let _permit = if data_plane {
            match self.admission.admit() {
                Some(permit) => Some(permit),
                None => {
                    globals::note_request_shed();
                    let shed = HttpResponse::error(
                        503,
                        ServiceError::Overloaded {
                            max_connections: self.options.max_inflight as u64,
                        },
                    )
                    .with_retry_after(self.options.retry_after);
                    write_response(writer, &shed, close)?;
                    return Ok(!close);
                }
            }
        } else {
            None
        };
        // HTTP/1.1 batch responses stream chunked: answers go to the
        // socket as engine chunks complete instead of accumulating the
        // whole JSONL body in memory first. (HTTP/1.0 peers cannot parse
        // chunked framing and get the buffered path in `route`.)
        if request.http11 && request.method == "POST" && request.path == "/v1/batch" {
            return respond_batch_streaming(writer, &self.service, request);
        }
        // The opt-in graceful-stop endpoint is handled here, not in
        // `route`: the acknowledgement must be fully written *before* the
        // trigger fires, because the drain in `HttpServer::join` races
        // this handler once the acceptors wake.
        if request.method == "POST" && request.path == "/v1/shutdown" && self.options.allow_shutdown
        {
            let ack = HttpResponse::text(200, b"shutting down\n");
            write_response(writer, &ack, true)?;
            shutdown.shutdown();
            return Ok(false);
        }
        write_response(writer, &route(&self.service, request), close)?;
        Ok(!close)
    }
}

/// Buffered bytes per emitted HTTP chunk (one chunk per answer line would
/// waste the wire on framing).
const CHUNK_FLUSH_BYTES: usize = 32 << 10;

/// Room for a response head (or a chunk's framing) beside its body in the
/// one write.
const HEAD_CAPACITY: usize = 160;

/// Starting capacity of a JSON response body: one answer fits without a
/// regrowth.
const JSON_BODY_CAPACITY: usize = 256;

/// A `Write` sink that frames everything written through it as an HTTP/1.1
/// chunked `200` of JSONL. The response head is committed lazily, on the
/// first sent chunk — so an error *before any output* (say a bad query on
/// line 1) can still become a clean status-coded response. Each chunk
/// leaves in one write of the socket, the pending head included, and
/// [`ChunkedWriter::finish`] adds the terminal chunk to the last one: a
/// body under [`CHUNK_FLUSH_BYTES`] is a single write.
struct ChunkedWriter<W: Write> {
    inner: W,
    /// The response head, sent with the first chunk (`None` once sent).
    head: Option<String>,
    /// The pending chunk's payload.
    buf: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    fn new(inner: W, close: bool) -> Self {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            if close { "close" } else { "keep-alive" },
        );
        ChunkedWriter {
            inner,
            head: Some(head),
            buf: Vec::with_capacity(CHUNK_FLUSH_BYTES),
        }
    }

    /// `true` once any byte of the response has hit the socket.
    fn committed(&self) -> bool {
        self.head.is_none()
    }

    /// Sends the pending chunk, preceded by the head while that is still
    /// pending; `last` appends the terminal zero-length chunk. One write.
    fn send(&mut self, last: bool) -> std::io::Result<()> {
        if self.buf.is_empty() && !last {
            return Ok(());
        }
        let mut frame = Vec::with_capacity(HEAD_CAPACITY + self.buf.len());
        if let Some(head) = self.head.take() {
            frame.extend_from_slice(head.as_bytes());
        }
        if !self.buf.is_empty() {
            write!(frame, "{:x}\r\n", self.buf.len())?;
            frame.extend_from_slice(&self.buf);
            frame.extend_from_slice(b"\r\n");
            self.buf.clear();
        }
        if last {
            frame.extend_from_slice(b"0\r\n\r\n");
        }
        self.inner.write_all(&frame)
    }

    /// Sends the head (even for an empty body), the pending chunk and the
    /// terminal zero-length chunk. Skipping this (the mid-stream error
    /// path) leaves the body visibly truncated to the client.
    fn finish(mut self) -> std::io::Result<()> {
        self.send(true)?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= CHUNK_FLUSH_BYTES {
            self.send(false)?;
        }
        Ok(data.len())
    }

    /// Leaves the pending chunk buffered: it leaves with the terminal chunk
    /// in [`ChunkedWriter::finish`]'s one write.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams a `/v1/batch` response with chunked transfer coding. Returns
/// `Ok(true)` when the connection may serve another request.
fn respond_batch_streaming(
    writer: &mut TcpStream,
    service: &Service,
    request: &HttpRequest,
) -> std::io::Result<bool> {
    let params = match query_params(request) {
        Ok(params) => params,
        Err(e) => {
            write_response(writer, &HttpResponse::error(400, e), request.close)?;
            return Ok(!request.close);
        }
    };
    // Resolve (and lazily load) the deployment before committing a 200:
    // addressing errors still get clean status-coded envelopes.
    if let Err(e) = service.engine(params.deployment.as_deref()) {
        write_response(
            writer,
            &HttpResponse::error(status_for(&e), e),
            request.close,
        )?;
        return Ok(!request.close);
    }
    let mut chunked = ChunkedWriter::new(&mut *writer, request.close);
    match service.stream_batch(
        params.deployment.as_deref(),
        std::io::Cursor::new(&request.body),
        &mut chunked,
        params.stream_options(),
    ) {
        Ok(_) => {
            chunked.finish()?;
            Ok(!request.close)
        }
        Err(e) => {
            if chunked.committed() {
                // The 200 is on the wire; closing without the terminal
                // chunk is the one honest signal left (the client sees
                // truncation, not a silently-complete body).
                return Ok(false);
            }
            drop(chunked);
            write_response(writer, &stream_error_response(e), request.close)?;
            Ok(!request.close)
        }
    }
}

/// Writes one response, head and body, in one write.
pub(crate) fn write_response(
    mut writer: impl Write,
    response: &HttpResponse,
    close: bool,
) -> std::io::Result<()> {
    failpoint::hit("server.write")?;
    let mut frame = Vec::with_capacity(HEAD_CAPACITY + response.body.len());
    write!(
        frame,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (name, value) in &response.headers {
        write!(frame, "{name}: {value}\r\n")?;
    }
    frame.extend_from_slice(b"\r\n");
    frame.extend_from_slice(&response.body);
    writer.write_all(&frame)?;
    writer.flush()
}

/// The shared query parameters of a data-plane request.
struct QueryParams {
    deployment: Option<String>,
    timing: bool,
    deadline_ms: Option<u64>,
}

impl QueryParams {
    /// The stream-batch options these parameters select.
    fn stream_options(&self) -> StreamOptions {
        StreamOptions {
            timing: self.timing,
            deadline: self.deadline_ms.map(Deadline::after_ms),
        }
    }
}

/// Parses the shared `?deployment=`/`?timing=`/`?deadline_ms=` query
/// parameters; an unparseable `deadline_ms` is a typed 400.
fn query_params(request: &HttpRequest) -> Result<QueryParams, ServiceError> {
    let param = |key: &str| {
        request
            .query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let deployment = param("deployment").map(str::to_string);
    let timing = !matches!(param("timing"), Some("0") | Some("false"));
    let deadline_ms = match param("deadline_ms") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| ServiceError::BadRequest {
            detail: format!(
                "query parameter `deadline_ms` must be a non-negative integer of \
                 milliseconds, got `{v}`"
            ),
        })?),
    };
    Ok(QueryParams {
        deployment,
        timing,
        deadline_ms,
    })
}

/// The response a failed [`Service::stream_batch`] maps to (when nothing
/// has been committed to the wire yet).
fn stream_error_response(e: StreamError) -> HttpResponse {
    match e {
        StreamError::Service(e) => HttpResponse::error(status_for(&e), e),
        StreamError::Io(e) => HttpResponse::error(
            500,
            ServiceError::Internal {
                detail: format!("stream failed: {e}"),
            },
        ),
    }
}

fn route(service: &Service, request: &HttpRequest) -> HttpResponse {
    let params = match query_params(request) {
        Ok(params) => params,
        Err(e) => return HttpResponse::error(400, e),
    };
    let envelope = |body: RequestBody| Request {
        deployment: params.deployment.clone(),
        body,
        deadline_ms: params.deadline_ms,
    };
    let respond = |response: Response| match &response {
        Response::Error(e) => HttpResponse::error(status_for(e), e.clone()),
        _ => HttpResponse::json(200, &response),
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => HttpResponse::text(200, b"ok\n"),
        ("GET", "/v1/stats") => respond(service.handle(&envelope(RequestBody::Stats))),
        ("GET", "/v1/metrics") => respond(service.handle(&envelope(RequestBody::Metrics))),
        ("GET", "/v1/telemetry") => respond(service.handle(&envelope(RequestBody::Telemetry))),
        // The Prometheus scrape endpoint: text exposition, not a protocol
        // envelope, so stock scrapers need zero configuration beyond the
        // address.
        ("GET", "/metrics") => HttpResponse {
            status: 200,
            content_type: crate::telemetry::prometheus::CONTENT_TYPE,
            body: service.prometheus_metrics().into_bytes(),
            headers: Vec::new(),
        },
        ("GET", "/v1/deployments") => respond(service.handle(&envelope(RequestBody::Deployments))),
        ("GET", "/v1/wal") => {
            // Replication pulls: `?from_seq=N&max=M` slice the primary's
            // acknowledged log (see docs/CLUSTER.md). Like the other GETs
            // this bypasses admission — a degraded primary must still feed
            // its followers.
            let uint = |key: &str| -> Result<Option<u64>, HttpResponse> {
                match request.query.iter().find(|(k, _)| k == key) {
                    None => Ok(None),
                    Some((_, v)) => v.parse::<u64>().map(Some).map_err(|_| {
                        HttpResponse::error(
                            400,
                            ServiceError::BadRequest {
                                detail: format!(
                                    "query parameter `{key}` must be a non-negative \
                                     integer, got `{v}`"
                                ),
                            },
                        )
                    }),
                }
            };
            let (from_seq, max) = match (uint("from_seq"), uint("max")) {
                (Ok(from_seq), Ok(max)) => (from_seq.unwrap_or(0), max),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            respond(service.handle(&envelope(RequestBody::WalPull { from_seq, max })))
        }
        ("POST", "/v1/rpc") => match request.text() {
            Ok(json) => respond(service.handle_json(json)),
            Err(e) => HttpResponse::error(400, e),
        },
        ("POST", "/v1/query") => {
            let parsed = request.text().and_then(|json| {
                serde_json::from_str(json).map_err(|e| ServiceError::BadRequest {
                    detail: e.to_string(),
                })
            });
            let query: TeamQuery = match parsed {
                Ok(query) => query,
                Err(e) => return HttpResponse::error(400, e),
            };
            match service.handle(&envelope(RequestBody::Query {
                query,
                timing: params.timing,
            })) {
                Response::Answer(answer) => HttpResponse::json(200, &answer),
                Response::Error(e) => HttpResponse::error(status_for(&e), e),
                other => HttpResponse::error(
                    500,
                    ServiceError::Internal {
                        detail: format!("unexpected response `{}`", other.op()),
                    },
                ),
            }
        }
        ("POST", "/v1/batch") => {
            // The shared streaming path: the response body is built by the
            // same code that writes the CLI serve-batch output, so the two
            // transports emit byte-identical JSONL for the same stream.
            let mut body = Vec::new();
            match service.stream_batch(
                params.deployment.as_deref(),
                std::io::Cursor::new(&request.body),
                &mut body,
                params.stream_options(),
            ) {
                Ok(_) => HttpResponse {
                    status: 200,
                    content_type: "application/x-ndjson",
                    body,
                    headers: Vec::new(),
                },
                Err(e) => stream_error_response(e),
            }
        }
        ("POST", "/v1/mutate") => {
            // One bare mutation object per request; the deployment comes
            // from `?deployment=` like the other data-plane endpoints.
            let parsed = request.text().and_then(crate::proto::parse_mutation_json);
            match parsed {
                Ok(body) => respond(service.handle(&envelope(body))),
                Err(e) => HttpResponse::error(status_for(&e), e),
            }
        }
        // The enabled case is answered in `ServiceHandler::respond` (the
        // ack must hit the wire before the trigger); only the disabled
        // rejection routes here.
        ("POST", "/v1/shutdown") => HttpResponse::error(
            403,
            ServiceError::BadRequest {
                detail: "shutdown over HTTP is disabled; start the server with \
                         --allow-shutdown to enable it"
                    .to_string(),
            },
        ),
        (
            _,
            "/healthz" | "/metrics" | "/v1/stats" | "/v1/metrics" | "/v1/telemetry"
            | "/v1/deployments" | "/v1/wal" | "/v1/rpc" | "/v1/query" | "/v1/batch" | "/v1/mutate"
            | "/v1/shutdown",
        ) => HttpResponse::error(
            405,
            ServiceError::BadRequest {
                detail: format!("method {} not allowed here", request.method),
            },
        ),
        (_, path) => HttpResponse::error(
            404,
            ServiceError::UnknownOp {
                op: format!("{} {path}", request.method),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_cap_and_resets() {
        let mut backoff = AcceptBackoff::new();
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_START);
        assert_eq!(backoff.next_delay(), ACCEPT_BACKOFF_START * 2);
        let mut last = Duration::ZERO;
        for _ in 0..20 {
            last = backoff.next_delay();
        }
        assert_eq!(last, ACCEPT_BACKOFF_CAP, "growth stops at the cap");
        backoff.reset();
        assert_eq!(
            backoff.next_delay(),
            ACCEPT_BACKOFF_START,
            "a success ends the streak"
        );
    }

    #[test]
    fn admission_sheds_beyond_queue_and_recycles_slots() {
        let options = ServerOptions {
            max_inflight: 1,
            admission_queue: 0,
            admission_wait: Duration::from_millis(10),
            ..Default::default()
        };
        let admission = Admission::new(&options);
        let first = admission.admit().expect("the one slot");
        assert!(
            admission.admit().is_none(),
            "a zero-length queue sheds immediately"
        );
        drop(first);
        assert!(admission.admit().is_some(), "a freed slot re-admits");
    }

    #[test]
    fn admission_waiters_get_freed_slots() {
        let options = ServerOptions {
            max_inflight: 1,
            admission_queue: 1,
            admission_wait: Duration::from_secs(5),
            ..Default::default()
        };
        let admission = Admission::new(&options);
        let held = admission.admit().unwrap();
        let waiter = {
            let admission = admission.clone();
            std::thread::spawn(move || admission.admit().is_some())
        };
        // Give the waiter time to enter the queue, then free the slot.
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        assert!(waiter.join().unwrap(), "the waiter takes the freed slot");
    }

    #[test]
    fn admission_wait_expiry_sheds() {
        let options = ServerOptions {
            max_inflight: 1,
            admission_queue: 4,
            admission_wait: Duration::from_millis(20),
            ..Default::default()
        };
        let admission = Admission::new(&options);
        let _held = admission.admit().unwrap();
        let started = Instant::now();
        assert!(
            admission.admit().is_none(),
            "no slot frees, so the wait budget sheds"
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    /// A sink that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes.push(data.to_vec());
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn written(response: &HttpResponse, close: bool) -> Vec<Vec<u8>> {
        let mut sink = Recorder::default();
        write_response(&mut sink, response, close).unwrap();
        sink.writes
    }

    const CHUNKED_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
        Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";

    #[test]
    fn a_response_leaves_in_one_write() {
        let ok = HttpResponse::json(200, &vec![1u32, 2]);
        assert_eq!(
            written(&ok, false),
            [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                Content-Length: 6\r\nConnection: keep-alive\r\n\r\n[1,2]\n"]
        );
        let shed = HttpResponse::error(503, ServiceError::Overloaded { max_connections: 4 })
            .with_retry_after(Duration::from_millis(1500));
        let body = "{\"version\":1,\"op\":\"error\",\"error\":{\"code\":\"overloaded\",\
            \"max_connections\":4,\"message\":\"server at its 4-connection capacity; \
            retry later\"}}\n";
        let head = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\nRetry-After: 2\r\n\r\n",
            body.len()
        );
        assert_eq!(written(&shed, true), [format!("{head}{body}").into_bytes()]);
    }

    #[test]
    fn a_small_chunked_body_leaves_in_one_write() {
        let mut sink = Recorder::default();
        ChunkedWriter::new(&mut sink, false).finish().unwrap();
        assert_eq!(sink.writes, [[CHUNKED_HEAD, b"0\r\n\r\n"].concat()]);

        let mut sink = Recorder::default();
        let mut chunked = ChunkedWriter::new(&mut sink, false);
        chunked.write_all(b"{\"id\":1}\n").unwrap();
        chunked.write_all(b"{\"id\":2}\n").unwrap();
        chunked.flush().unwrap();
        assert!(!chunked.committed(), "nothing leaves before the body ends");
        chunked.finish().unwrap();
        assert_eq!(
            sink.writes,
            [[CHUNKED_HEAD, b"12\r\n{\"id\":1}\n{\"id\":2}\n\r\n0\r\n\r\n"].concat()]
        );
    }

    #[test]
    fn a_long_chunked_body_makes_one_write_per_chunk() {
        let mut sink = Recorder::default();
        let mut chunked = ChunkedWriter::new(&mut sink, false);
        chunked.write_all(&[b'a'; CHUNK_FLUSH_BYTES]).unwrap();
        assert!(chunked.committed());
        chunked.write_all(b"tail").unwrap();
        chunked.finish().unwrap();
        let [first, last] = &sink.writes[..] else {
            panic!("expected two writes, got {}", sink.writes.len());
        };
        let payload = [b'a'; CHUNK_FLUSH_BYTES];
        assert_eq!(
            first,
            &[CHUNKED_HEAD, b"8000\r\n", &payload, b"\r\n"].concat()
        );
        assert_eq!(last, b"4\r\ntail\r\n0\r\n\r\n");
    }

    #[test]
    fn retry_after_rounds_up_to_whole_seconds() {
        let header = |d| {
            HttpResponse::text(503, b"")
                .with_retry_after(d)
                .headers
                .pop()
                .unwrap()
        };
        assert_eq!(
            header(Duration::from_secs(1)),
            ("Retry-After", "1".to_string())
        );
        assert_eq!(
            header(Duration::from_millis(1500)),
            ("Retry-After", "2".to_string())
        );
        assert_eq!(header(Duration::ZERO), ("Retry-After", "1".to_string()));
    }
}
