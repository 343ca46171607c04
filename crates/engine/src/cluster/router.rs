//! The `tfsn route` front-end: a thin HTTP/1.1 proxy over a static
//! [`Topology`].
//!
//! ## Routing rules
//!
//! | Request                              | Target |
//! |--------------------------------------|--------|
//! | `POST /v1/mutate`                    | primary only, never retried |
//! | `GET /v1/wal`                        | primary only (replication pulls) |
//! | `POST /v1/rpc` with a mutation / `wal_pull` op | primary only |
//! | everything else (queries, batches, stats, metrics, …) | round-robin over healthy replicas (or content-affinity under [`RouterOptions::affinity`]), one transparent retry on a *different* replica |
//! | `GET /healthz`                       | answered by the router itself |
//! | `GET /v1/topology`                   | answered by the router itself (backend health JSON) |
//! | `POST /v1/shutdown`                  | refused (403) — stop backends directly |
//!
//! Reads fall back to the primary when no replica is healthy; when no
//! healthy target remains at all, the router answers a typed `no_backend`
//! 503 with a `Retry-After` header instead of hanging or guessing.
//!
//! ## Health
//!
//! A background prober hits every backend's `/healthz` each
//! [`RouterOptions::probe_interval`]. [`RouterOptions::fail_threshold`]
//! *consecutive* failures (probe or data-path) eject a backend from
//! rotation; a single successful probe re-admits it. Ejection is
//! advisory for reads (the retry already skips a dead replica
//! mid-storm) and authoritative for writes (mutations fail fast with
//! `no_backend` instead of timing out against a dead primary).
//!
//! ## Connections
//!
//! Per-backend pools of keep-alive [`HttpClient`]s: a forwarded request
//! checks a client out, and checks it back in only on success — an I/O
//! error drops the connection instead of poisoning the pool. Pooled
//! connections idle longer than [`POOL_IDLE`] are discarded on checkout,
//! staying safely inside the backends' own keep-alive timeout; should a
//! reused socket fail anyway, idempotent requests are redialed once on a
//! fresh connection before the failure counts against the backend.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::client::{HttpClient, HttpReply, RetryPolicy};
use crate::cluster::replica::percent_encode;
use crate::cluster::topology::{Role, Topology};
use crate::proto::ServiceError;
use crate::server::{read_request, status_for, write_response, HttpRequest, HttpResponse};

/// Pooled backend connections idle longer than this are discarded on
/// checkout (the serving default keep-alive is 30 s; staying well under it
/// means the router never reuses a socket the backend has abandoned).
pub const POOL_IDLE: Duration = Duration::from_secs(10);

/// Construction options for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Acceptor threads sharing the listener.
    pub threads: usize,
    /// Keep-alive idle timeout for client connections.
    pub keep_alive: Duration,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Delay between `/healthz` probes of each backend.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or data-path) that eject a backend.
    pub fail_threshold: u32,
    /// The `Retry-After` delay advertised on `no_backend` responses.
    pub retry_after: Duration,
    /// Content-affinity reads (`--affinity`): pick the replica by a hash
    /// of the request's target and body instead of round-robin, so the
    /// same query always lands on the same replica while the healthy set
    /// is stable. Under memory-budgeted engines this *partitions* the row
    /// working set across replicas — each cache holds only its share — at
    /// the price of an uneven split when a few queries dominate. The
    /// transparent retry still moves to a different replica on failure.
    pub affinity: bool,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            threads: 2,
            keep_alive: Duration::from_secs(30),
            max_body_bytes: 64 << 20,
            probe_interval: Duration::from_millis(500),
            fail_threshold: 3,
            retry_after: Duration::from_secs(1),
            affinity: false,
        }
    }
}

/// One backend's live state: its spec, health, and connection pool.
#[derive(Debug)]
struct BackendState {
    name: String,
    addr: SocketAddr,
    role: Role,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    pool: parking_lot::Mutex<Vec<(HttpClient, Instant)>>,
}

impl BackendState {
    fn new(name: String, addr: SocketAddr, role: Role) -> Self {
        BackendState {
            name,
            addr,
            role,
            // Start healthy: traffic flows immediately and the prober
            // corrects within fail_threshold × probe_interval.
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            pool: parking_lot::Mutex::new(Vec::new()),
        }
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// One success (probe or forwarded request) re-admits the backend and
    /// ends any failure streak.
    fn note_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        self.healthy.store(true, Ordering::SeqCst);
    }

    /// One failure; at `threshold` consecutive failures the backend is
    /// ejected from rotation until a probe succeeds.
    fn note_failure(&self, threshold: u32) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= threshold {
            self.healthy.store(false, Ordering::SeqCst);
        }
    }

    /// A pooled connection, or a fresh one; the flag says which (`true` =
    /// reused). Stale pool entries are discarded here rather than reused
    /// into an I/O error — but a backend whose keep-alive timer is shorter
    /// than [`POOL_IDLE`] can still close a socket we consider fresh
    /// enough, which is why [`RouterCore::try_backend`] redials reused
    /// connections once before charging the backend with a failure.
    fn checkout(&self) -> std::io::Result<(HttpClient, bool)> {
        let mut pool = self.pool.lock();
        while let Some((client, last_used)) = pool.pop() {
            if last_used.elapsed() <= POOL_IDLE {
                return Ok((client, true));
            }
        }
        drop(pool);
        HttpClient::connect_with(self.addr, RetryPolicy::none()).map(|c| (c, false))
    }

    fn checkin(&self, client: HttpClient) {
        self.pool.lock().push((client, Instant::now()));
    }
}

/// The shared router state behind every acceptor and the prober.
#[derive(Debug)]
struct RouterCore {
    backends: Vec<Arc<BackendState>>,
    /// Index of the primary in `backends`.
    primary: usize,
    /// Indices of the replicas in `backends`, in flag order.
    replicas: Vec<usize>,
    /// Round-robin cursor for the read path.
    rr: AtomicUsize,
    /// Transparent read retries performed (exposed in `/v1/topology`).
    read_retries: AtomicU64,
    options: RouterOptions,
}

/// What one request routes to.
enum Plan {
    /// Answer locally without touching a backend.
    Local(HttpResponse),
    /// The primary, exactly one attempt (writes must not double-apply).
    Primary,
    /// A healthy replica (primary fallback), with one transparent retry.
    Read,
}

impl RouterCore {
    fn new(topology: &Topology, options: RouterOptions) -> Self {
        let backends: Vec<Arc<BackendState>> = topology
            .backends()
            .iter()
            .map(|b| Arc::new(BackendState::new(b.name.clone(), b.addr, b.role)))
            .collect();
        let primary = backends
            .iter()
            .position(|b| b.role == Role::Primary)
            .expect("Topology::new enforces exactly one primary");
        let replicas = backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.role == Role::Replica)
            .map(|(i, _)| i)
            .collect();
        RouterCore {
            backends,
            primary,
            replicas,
            rr: AtomicUsize::new(0),
            read_retries: AtomicU64::new(0),
            options,
        }
    }

    fn plan(&self, request: &HttpRequest) -> Plan {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Plan::Local(HttpResponse::text(200, b"ok\n")),
            ("GET", "/v1/topology") => Plan::Local(self.topology_response()),
            ("POST", "/v1/shutdown") => Plan::Local(HttpResponse::error(
                403,
                ServiceError::BadRequest {
                    detail: "the router does not forward shutdowns; stop backends directly"
                        .to_string(),
                },
            )),
            ("POST", "/v1/mutate") => Plan::Primary,
            ("GET", "/v1/wal") => Plan::Primary,
            ("POST", "/v1/rpc") => {
                // Sniff the envelope op: mutations and WAL pulls are
                // primary-only even over the generic endpoint. Anything
                // unparseable goes to the read path, whose backend answers
                // with the canonical typed parse error.
                let op = std::str::from_utf8(&request.body)
                    .ok()
                    .and_then(|json| serde_json::parse_value(json).ok())
                    .and_then(|v| v.get("op").and_then(|op| op.as_str().map(String::from)));
                match op.as_deref() {
                    Some(
                        "edge_insert" | "edge_remove" | "edge_set_sign" | "mutate_batch"
                        | "wal_pull",
                    ) => Plan::Primary,
                    _ => Plan::Read,
                }
            }
            _ => Plan::Read,
        }
    }

    /// The deployment a request addresses, for `no_backend` envelopes.
    fn deployment_of(request: &HttpRequest) -> String {
        request
            .query
            .iter()
            .find(|(k, _)| k == "deployment")
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| "default".to_string())
    }

    /// Forwards one request to backend `idx`. On success the connection
    /// returns to the pool; on failure it is dropped and the backend's
    /// failure streak grows.
    ///
    /// `retry_stale` covers the keep-alive race: a pooled socket the
    /// backend's idle timer closed between requests fails on first use
    /// even though the backend is fine. For idempotent requests the
    /// router redials once on a fresh connection before counting the
    /// failure; mutations never take this retry (the backend may have
    /// processed a request whose response was lost, and resending could
    /// double-apply it).
    fn try_backend(
        &self,
        idx: usize,
        request: &HttpRequest,
        retry_stale: bool,
    ) -> std::io::Result<HttpReply> {
        let backend = &self.backends[idx];
        let body = std::str::from_utf8(&request.body)
            .map_err(|_| std::io::Error::other("request body is not UTF-8"))?;
        let (mut client, reused) = backend.checkout().inspect_err(|_| {
            backend.note_failure(self.options.fail_threshold);
        })?;
        let target = rebuild_target(request);
        match client.request(&request.method, &target, body) {
            Ok(reply) => {
                backend.note_success();
                backend.checkin(client);
                Ok(reply)
            }
            Err(e) if reused && retry_stale => {
                drop(client);
                let mut fresh = HttpClient::connect_with(backend.addr, RetryPolicy::none())
                    .inspect_err(|_| {
                        backend.note_failure(self.options.fail_threshold);
                    })?;
                match fresh.request(&request.method, &target, body) {
                    Ok(reply) => {
                        backend.note_success();
                        backend.checkin(fresh);
                        Ok(reply)
                    }
                    Err(_) => {
                        backend.note_failure(self.options.fail_threshold);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                backend.note_failure(self.options.fail_threshold);
                Err(e)
            }
        }
    }

    fn route(&self, request: &HttpRequest) -> HttpResponse {
        match self.plan(request) {
            Plan::Local(response) => response,
            Plan::Primary => {
                let primary = &self.backends[self.primary];
                if !primary.is_healthy() {
                    return self.no_backend(request, "primary");
                }
                // GETs to the primary (wal_pull, stats) are idempotent and
                // may redial a stale pooled socket; POSTed writes must not
                // — a write whose response was lost may have been applied
                // and logged, and resending could double it.
                match self.try_backend(self.primary, request, request.method == "GET") {
                    Ok(reply) => pass_through(reply),
                    Err(_) => self.no_backend(request, "primary"),
                }
            }
            Plan::Read => {
                // Healthy replicas first; a replica-less (or fully
                // degraded) deployment falls back to the primary so reads
                // keep working on a one-box topology.
                let mut candidates: Vec<usize> = self
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&i| self.backends[i].is_healthy())
                    .collect();
                if candidates.is_empty() && self.backends[self.primary].is_healthy() {
                    candidates.push(self.primary);
                }
                if candidates.is_empty() {
                    return self.no_backend(request, "replica");
                }
                let start = if self.options.affinity {
                    affinity_key(request) as usize
                } else {
                    self.rr.fetch_add(1, Ordering::Relaxed)
                };
                // Reads are idempotent: retry once, on a *different*
                // replica when one exists (kill a replica mid-batch and
                // the in-flight request lands on its sibling instead of
                // failing back to the client).
                let attempts = candidates.len().min(2);
                for attempt in 0..attempts.max(1) {
                    let idx = candidates[(start + attempt) % candidates.len()];
                    if attempt > 0 {
                        self.read_retries.fetch_add(1, Ordering::Relaxed);
                    }
                    match self.try_backend(idx, request, true) {
                        Ok(reply) => return pass_through(reply),
                        Err(_) => continue,
                    }
                }
                self.no_backend(request, "replica")
            }
        }
    }

    fn no_backend(&self, request: &HttpRequest, role: &str) -> HttpResponse {
        let error = ServiceError::NoBackend {
            deployment: Self::deployment_of(request),
            role: role.to_string(),
        };
        HttpResponse::error(status_for(&error), error).with_retry_after(self.options.retry_after)
    }

    fn topology_response(&self) -> HttpResponse {
        let backends = self
            .backends
            .iter()
            .map(|b| BackendReport {
                name: b.name.clone(),
                addr: b.addr.to_string(),
                role: b.role.label().to_string(),
                healthy: b.is_healthy(),
                consecutive_failures: b.consecutive_failures.load(Ordering::SeqCst) as u64,
            })
            .collect();
        HttpResponse::json(
            200,
            &TopologyReport {
                backends,
                read_retries: self.read_retries.load(Ordering::Relaxed),
            },
        )
    }
}

/// The `GET /v1/topology` body: one entry per backend plus router
/// counters.
#[derive(Debug, Clone, Serialize)]
struct TopologyReport {
    backends: Vec<BackendReport>,
    read_retries: u64,
}

#[derive(Debug, Clone, Serialize)]
struct BackendReport {
    name: String,
    addr: String,
    role: String,
    healthy: bool,
    consecutive_failures: u64,
}

/// The content-affinity key for [`RouterOptions::affinity`]: FNV-1a over
/// the request's path, query pairs, and body. The same read always hashes
/// to the same replica (modulo a change in the healthy set), so each
/// replica's budgeted row cache serves a stable share of the query
/// working set instead of every replica churning through all of it.
fn affinity_key(request: &HttpRequest) -> u64 {
    fn eat(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
    let mut hash = eat(0xcbf2_9ce4_8422_2325, request.path.as_bytes());
    for (k, v) in &request.query {
        hash = eat(hash, k.as_bytes());
        hash = eat(hash, v.as_bytes());
    }
    eat(hash, &request.body)
}

/// Rebuilds the forwarded request target from the parsed path and
/// (decoded) query pairs.
fn rebuild_target(request: &HttpRequest) -> String {
    let mut target = request.path.clone();
    for (i, (k, v)) in request.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&percent_encode(k));
        if !v.is_empty() {
            target.push('=');
            target.push_str(&percent_encode(v));
        }
    }
    target
}

/// Re-frames a backend reply for the client. The body passes through
/// byte-for-byte; the content type and `Retry-After` survive, the rest of
/// the backend's connection-level headers do not (the router manages its
/// own keep-alive).
fn pass_through(reply: HttpReply) -> HttpResponse {
    let content_type = match reply.header("content-type") {
        Some("application/json") => "application/json",
        Some("application/x-ndjson") => "application/x-ndjson",
        Some(ct) if ct == crate::telemetry::prometheus::CONTENT_TYPE => {
            crate::telemetry::prometheus::CONTENT_TYPE
        }
        Some(ct) if ct.starts_with("text/plain") => "text/plain",
        _ => "application/octet-stream",
    };
    let mut headers: Vec<(&'static str, String)> = Vec::new();
    if let Some(retry_after) = reply.header("retry-after") {
        headers.push(("Retry-After", retry_after.to_string()));
    }
    HttpResponse {
        status: reply.status,
        content_type,
        body: reply.body.into_bytes(),
        headers,
    }
}

/// The shared stop signal: flag + listener address to poke acceptors
/// awake.
#[derive(Debug)]
struct RouterStop {
    flag: AtomicBool,
    addr: SocketAddr,
    workers: usize,
}

/// A running router process. Dropping the handle does not stop it; call
/// [`Router::shutdown`] or [`Router::join`].
#[derive(Debug)]
pub struct Router {
    addr: SocketAddr,
    stop: Arc<RouterStop>,
    workers: Vec<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` and starts forwarding over `topology`.
    pub fn bind(
        topology: &Topology,
        addr: &str,
        options: RouterOptions,
    ) -> std::io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = options.threads.max(1);
        let core = Arc::new(RouterCore::new(topology, options));
        let stop = Arc::new(RouterStop {
            flag: AtomicBool::new(false),
            addr,
            workers: threads,
        });
        let mut workers = Vec::with_capacity(threads + 1);
        // The prober: walks every backend each interval, feeding the same
        // health state the data path updates.
        {
            let core = core.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || prober_loop(&core, &stop)));
        }
        for _ in 0..threads {
            let listener = listener.try_clone()?;
            let core = core.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                acceptor_loop(&listener, &core, &stop)
            }));
        }
        Ok(Router {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the acceptors and the prober. In-flight
    /// handler threads finish their current response on their own.
    pub fn shutdown(self) {
        if !self.stop.flag.swap(true, Ordering::SeqCst) {
            for _ in 0..self.stop.workers {
                let _ = TcpStream::connect(self.stop.addr);
            }
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Blocks until the router is shut down from another thread (the CLI
    /// foreground path: the process runs until killed).
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn prober_loop(core: &RouterCore, stop: &RouterStop) {
    while !stop.flag.load(Ordering::SeqCst) {
        for backend in &core.backends {
            let alive = HttpClient::connect_with(backend.addr, RetryPolicy::none())
                .and_then(|mut probe| probe.get("/healthz"))
                .map(|reply| reply.status == 200)
                .unwrap_or(false);
            if alive {
                backend.note_success();
            } else {
                backend.note_failure(core.options.fail_threshold);
            }
        }
        // Interruptible sleep so shutdown is prompt.
        let mut remaining = core.options.probe_interval;
        while !remaining.is_zero() && !stop.flag.load(Ordering::SeqCst) {
            let nap = remaining.min(Duration::from_millis(25));
            std::thread::sleep(nap);
            remaining -= nap;
        }
    }
}

fn acceptor_loop(listener: &TcpListener, core: &Arc<RouterCore>, stop: &Arc<RouterStop>) {
    loop {
        if stop.flag.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                // Same reason as the server's acceptor: a relayed reply
                // leaves in one write, but the `100 Continue` interim reply
                // is a second small segment, and Nagle would stall it
                // behind the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                stream
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.flag.load(Ordering::SeqCst) {
            return;
        }
        let core = core.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &core, &stop);
        });
    }
}

fn handle_connection(
    stream: TcpStream,
    core: &RouterCore,
    stop: &RouterStop,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(core.options.keep_alive))?;
    stream.set_write_timeout(Some(core.options.keep_alive))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if stop.flag.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request = match read_request(&mut reader, &mut writer, core.options.max_body_bytes) {
            Ok(Ok(Some(request))) => request,
            Ok(Ok(None)) => return Ok(()),
            Ok(Err((status, error))) => {
                write_response(&mut writer, &HttpResponse::error(status, error), true)?;
                return Ok(());
            }
            Err(_) => return Ok(()),
        };
        let close = request.close;
        let response = core.route(&request);
        write_response(&mut writer, &response, close)?;
        if close || stop.flag.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> BackendState {
        BackendState::new(
            "b".to_string(),
            "127.0.0.1:9".parse().unwrap(),
            Role::Replica,
        )
    }

    #[test]
    fn ejection_needs_consecutive_failures_and_one_success_readmits() {
        let backend = state();
        assert!(backend.is_healthy(), "backends start healthy");
        backend.note_failure(3);
        backend.note_failure(3);
        assert!(backend.is_healthy(), "two of three failures keep it in");
        backend.note_success();
        backend.note_failure(3);
        backend.note_failure(3);
        assert!(backend.is_healthy(), "a success resets the streak");
        backend.note_failure(3);
        backend.note_failure(3);
        backend.note_failure(3);
        assert!(
            !backend.is_healthy(),
            "the third consecutive failure ejects"
        );
        backend.note_success();
        assert!(backend.is_healthy(), "one probe success re-admits");
    }

    #[test]
    fn rebuild_target_re_encodes_query_pairs() {
        let request = HttpRequest {
            method: "GET".to_string(),
            path: "/v1/stats".to_string(),
            query: vec![
                ("deployment".to_string(), "my dep".to_string()),
                ("timing".to_string(), "false".to_string()),
                ("flag".to_string(), String::new()),
            ],
            body: Vec::new(),
            close: false,
            http11: true,
        };
        assert_eq!(
            rebuild_target(&request),
            "/v1/stats?deployment=my%20dep&timing=false&flag"
        );
        let bare = HttpRequest {
            query: Vec::new(),
            ..request
        };
        assert_eq!(rebuild_target(&bare), "/v1/stats");
    }

    #[test]
    fn plan_sends_writes_to_primary_and_reads_to_replicas() {
        let topology =
            Topology::parse(&["p=127.0.0.1:1,role=primary", "r=127.0.0.1:2,role=replica"]).unwrap();
        let core = RouterCore::new(&topology, RouterOptions::default());
        let request = |method: &str, path: &str, body: &str| HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
            http11: true,
        };
        assert!(matches!(
            core.plan(&request("POST", "/v1/mutate", "{}")),
            Plan::Primary
        ));
        assert!(matches!(
            core.plan(&request("GET", "/v1/wal", "")),
            Plan::Primary
        ));
        assert!(matches!(
            core.plan(&request(
                "POST",
                "/v1/rpc",
                r#"{"version":1,"op":"edge_insert","u":1,"v":2,"sign":"+"}"#
            )),
            Plan::Primary
        ));
        assert!(matches!(
            core.plan(&request(
                "POST",
                "/v1/rpc",
                r#"{"version":1,"op":"wal_pull","from_seq":0}"#
            )),
            Plan::Primary
        ));
        assert!(matches!(
            core.plan(&request(
                "POST",
                "/v1/rpc",
                r#"{"version":1,"op":"mutate_batch","mutations":[{"op":"edge_remove","u":1,"v":2}]}"#
            )),
            Plan::Primary
        ));
        assert!(matches!(
            core.plan(&request("POST", "/v1/rpc", r#"{"version":1,"op":"stats"}"#)),
            Plan::Read
        ));
        assert!(matches!(
            core.plan(&request("POST", "/v1/query", "{}")),
            Plan::Read
        ));
        assert!(matches!(
            core.plan(&request("POST", "/v1/batch", "")),
            Plan::Read
        ));
        assert!(matches!(
            core.plan(&request("GET", "/v1/stats", "")),
            Plan::Read
        ));
        assert!(matches!(
            core.plan(&request("GET", "/healthz", "")),
            Plan::Local(_)
        ));
        assert!(matches!(
            core.plan(&request("POST", "/v1/shutdown", "")),
            Plan::Local(_)
        ));
    }

    #[test]
    fn affinity_keys_are_stable_and_spread() {
        let request = |body: &str| HttpRequest {
            method: "POST".to_string(),
            path: "/v1/query".to_string(),
            query: vec![("timing".to_string(), "false".to_string())],
            body: body.as_bytes().to_vec(),
            close: false,
            http11: true,
        };
        // Deterministic: the same request always produces the same key.
        assert_eq!(
            affinity_key(&request(r#"{"task": [1, 2]}"#)),
            affinity_key(&request(r#"{"task": [1, 2]}"#)),
        );
        // Spread: across a realistic query working set, both replicas of a
        // two-replica topology get a share (a constant hash would pin
        // everything to one backend and waste the other's cache).
        let buckets: std::collections::HashSet<u64> = (0..32)
            .map(|i| affinity_key(&request(&format!("{{\"task\": [{i}, {}]}}", i + 1))) % 2)
            .collect();
        assert_eq!(
            buckets.len(),
            2,
            "32 distinct queries must hit both of 2 replicas"
        );
        // The query string participates: the same body addressed to a
        // different deployment may land elsewhere.
        let mut other = request(r#"{"task": [1, 2]}"#);
        other
            .query
            .push(("deployment".to_string(), "sd".to_string()));
        assert_ne!(
            affinity_key(&request(r#"{"task": [1, 2]}"#)),
            affinity_key(&other),
        );
    }
}
