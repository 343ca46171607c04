//! The traced replay: an in-process copy of the served stack that the
//! benchmark drives with the exact bytes each request carried, timing its
//! own calls into every layer's public functions.
//!
//! The benchmark cannot reach inside a public function, so a layer nested
//! inside another is timed in a separate call on the same input; the span
//! tree records that nesting and [`crate::stats::Trace::self_ns`] subtracts
//! child durations from parents. Calls that change state (`handle_json` of a
//! mutation window) run once, and their inner layers are read from what
//! they report.

use std::cell::RefCell;
use std::io::Cursor;
use std::time::Instant;

use signed_graph::EdgeMutation;
use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::SolveScratch;
use tfsn_engine::query::QueryReader;
use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource};
use tfsn_engine::telemetry::QuerySample;
use tfsn_engine::{
    BatchOptions, EngineOptions, EngineTelemetry, Request, RequestBody, Response, Service,
    ServiceOptions, StorePolicy, StreamOptions, TeamQuery, Wal,
};
use tfsn_skills::task::Task;
use tfsn_skills::SkillId;

use crate::stats::Trace;

/// Ledger layer names (the per-layer metric prefixes).
pub mod layer {
    /// Client round trip minus the in-process work on the same bytes.
    pub const TRANSPORT: &str = "server.transport";
    /// JSON decode of the request body.
    pub const DECODE: &str = "proto.decode";
    /// JSON encode of the response body.
    pub const ENCODE: &str = "proto.encode";
    /// The service's own work around its children.
    pub const SERVICE: &str = "service.self";
    /// `DeploymentRegistry::engine`.
    pub const REGISTRY: &str = "registry.lookup";
    /// `RelationStore::fetch(..).scope().compat()`.
    pub const STORE: &str = "store.fetch";
    /// `Solver::solve_objective_with_scratch`.
    pub const SOLVE: &str = "team.solve";
    /// `EngineTelemetry::record_query`.
    pub const TELEMETRY: &str = "telemetry.record";
    /// `Engine::batch`.
    pub const BATCH: &str = "engine.batch";
    /// `Engine::mutate_batch` (store apply, no log).
    pub const MUTATE: &str = "engine.mutate_batch";
    /// `Wal::append_batch`.
    pub const WAL: &str = "wal.append";
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

thread_local! {
    /// Per-thread solver scratch, as the engine keeps one per worker.
    static SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Times `query`'s solver alone on the replica's resident relation.
fn timed_solve(engine: &tfsn_engine::Engine, query: &TeamQuery) -> (f64, Option<u64>) {
    let fetched = engine.store().fetch(query.kind);
    let scope = fetched.scope();
    let task = Task::new(query.task.iter().map(|&s| SkillId::new(s)));
    let objective = query.objective.clone().unwrap_or_default();
    let start = Instant::now();
    let team = SCRATCH.with(|scratch| {
        query.solver.solve_objective_with_scratch(
            &engine.deployment().instance(),
            scope.compat(),
            &task,
            &objective,
            &mut scratch.borrow_mut(),
        )
    });
    let ns = ns_since(start);
    (ns, team.ok().map(|t| t.members().len() as u64))
}

/// The in-process stack plus the timings of building it.
pub struct Replica {
    service: Service,
    /// A telemetry sink of the server's default shape, timed in isolation.
    telemetry: EngineTelemetry,
    /// `DeploymentRegistry::engine` on a cold registry: the load.
    pub load_s: f64,
    /// `Engine::warm` over the workload's kinds.
    pub warm_s: f64,
}

/// One replayed query's timings beyond the span tree.
pub struct QueryReplay {
    /// The spans, rooted at the client round trip.
    pub trace: Trace,
    /// The answer body the server's `/v1/query` path would write.
    pub encoded: String,
}

/// One replayed batch body's timings beyond the span tree.
pub struct BatchReplay {
    /// The spans, rooted at the client round trip.
    pub trace: Trace,
    /// The JSONL body `Service::stream_batch` wrote.
    pub encoded: String,
    /// Per query: (popular?, `Engine::query` ns, solve ns).
    pub queries: Vec<(bool, f64, f64)>,
}

/// One replayed mutation window.
pub struct WriteReplay {
    /// The spans, rooted at the client round trip.
    pub trace: Trace,
    /// Framed bytes the scratch log appended.
    pub wal_bytes: u64,
}

impl Replica {
    /// Loads `source` under `policy` and warms `kinds`, timing both.
    pub fn new(
        source: &str,
        policy: StorePolicy,
        kinds: &[CompatibilityKind],
        batch_threads: usize,
    ) -> Result<Replica, String> {
        let config = DeploymentConfig::new("bench", DeploymentSource::parse(source)?).with_options(
            EngineOptions {
                policy,
                ..Default::default()
            },
        );
        let service = Service::with_options(
            DeploymentRegistry::single(config),
            ServiceOptions {
                batch: BatchOptions::with_threads(batch_threads),
                ..Default::default()
            },
        );
        let start = Instant::now();
        let engine = service.engine(None).map_err(|e| e.to_string())?;
        let load_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        engine.warm(kinds);
        let warm_s = start.elapsed().as_secs_f64();
        Ok(Replica {
            service,
            telemetry: EngineTelemetry::default(),
            load_s,
            warm_s,
        })
    }

    /// The replica's service.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Replays one `POST /v1/query` body (answered with `timing=false`).
    ///
    /// ```text
    /// client.round_trip          → server.transport
    ///   server.handle            (the sum of its children)
    ///     proto.decode
    ///     service.handle         → service.self
    ///       registry.lookup
    ///       engine.query         → residual (answer building, counters)
    ///         store.fetch
    ///         team.solve
    ///         telemetry.record
    ///     proto.encode
    /// ```
    pub fn query(&self, body: &str, rtt_ns: f64) -> Result<QueryReplay, String> {
        // The server's /v1/query path: decode, Service::handle, encode.
        let start = Instant::now();
        let query: TeamQuery =
            serde_json::from_str(body).map_err(|e| format!("decode query: {e}"))?;
        let decode_ns = ns_since(start);
        let copy = query.clone();
        let start = Instant::now();
        let response = self.service.handle(&Request {
            deployment: None,
            body: RequestBody::Query {
                query,
                timing: false,
            },
            deadline_ms: None,
        });
        let handle_ns = ns_since(start);
        let start = Instant::now();
        let answer = match &response {
            Response::Answer(answer) => answer,
            other => return Err(format!("replica answered `{}`", other.op())),
        };
        let mut encoded = serde_json::to_string(answer).map_err(|e| e.to_string())?;
        encoded.push('\n');
        let encode_ns = ns_since(start);
        let query = copy;

        // The layers inside Service::handle, each timed on its own.
        let start = Instant::now();
        let engine = self
            .service
            .registry()
            .engine(None)
            .map_err(|e| e.to_string())?;
        let lookup_ns = ns_since(start);
        let start = Instant::now();
        std::hint::black_box(engine.query(&query));
        let query_ns = ns_since(start);
        let start = Instant::now();
        std::hint::black_box(
            engine
                .store()
                .fetch(query.kind)
                .scope()
                .compat()
                .node_count(),
        );
        let fetch_ns = ns_since(start);
        let (solve_ns, team_size) = timed_solve(&engine, &query);
        let sample = QuerySample {
            kind: query.kind,
            algorithm: query.solver.label().to_string(),
            objective: query.objective.as_ref().map_or("min_team", |o| o.label()),
            total_micros: (query_ns / 1e3) as u64,
            build_wait_micros: 0,
            row_compute_micros: 0,
            team_size: team_size.unwrap_or(0),
            solved: team_size.is_some(),
        };
        let start = Instant::now();
        self.telemetry.record_query(sample);
        let record_ns = ns_since(start);

        let mut trace = Trace::default();
        let root = trace.push("client.round_trip", Some(layer::TRANSPORT), None, rtt_ns);
        let server = trace.push(
            "server.handle",
            None,
            Some(root),
            decode_ns + handle_ns + encode_ns,
        );
        trace.push("proto.decode", Some(layer::DECODE), Some(server), decode_ns);
        let service = trace.push(
            "service.handle",
            Some(layer::SERVICE),
            Some(server),
            handle_ns,
        );
        trace.push(
            "registry.lookup",
            Some(layer::REGISTRY),
            Some(service),
            lookup_ns,
        );
        let eq = trace.push("engine.query", None, Some(service), query_ns);
        trace.push("store.fetch", Some(layer::STORE), Some(eq), fetch_ns);
        trace.push("team.solve", Some(layer::SOLVE), Some(eq), solve_ns);
        trace.push(
            "telemetry.record",
            Some(layer::TELEMETRY),
            Some(eq),
            record_ns,
        );
        trace.push("proto.encode", Some(layer::ENCODE), Some(server), encode_ns);
        Ok(QueryReplay { trace, encoded })
    }

    /// Replays one `POST /v1/batch` JSONL body (answered with
    /// `timing=false`).
    ///
    /// ```text
    /// client.round_trip          → server.transport
    ///   service.stream_batch     → service.self
    ///     proto.decode
    ///     registry.lookup
    ///     engine.batch
    ///     proto.encode
    /// ```
    ///
    /// Each query is also timed alone through `Engine::query` and the
    /// solver, outside the tree: the batch runs queries in parallel, so
    /// their sum is not a child of its wall time.
    pub fn batch(&self, body: &str, rtt_ns: f64) -> Result<BatchReplay, String> {
        let mut sink = Vec::new();
        let start = Instant::now();
        self.service
            .stream_batch(
                None,
                Cursor::new(body.as_bytes()),
                &mut sink,
                StreamOptions::timing(false),
            )
            .map_err(|e| format!("replica stream_batch: {e:?}"))?;
        let stream_ns = ns_since(start);
        let encoded = String::from_utf8(sink).map_err(|e| e.to_string())?;

        let start = Instant::now();
        let queries = QueryReader::new(Cursor::new(body.as_bytes()))
            .collect::<Result<Vec<TeamQuery>, _>>()
            .map_err(|e| format!("decode batch: {e}"))?;
        let decode_ns = ns_since(start);
        let start = Instant::now();
        let engine = self
            .service
            .registry()
            .engine(None)
            .map_err(|e| e.to_string())?;
        let lookup_ns = ns_since(start);
        let start = Instant::now();
        let mut answers = engine.batch(&queries, &self.service.options().batch);
        let batch_ns = ns_since(start);
        let start = Instant::now();
        let mut out = String::new();
        for answer in &mut answers {
            answer.strip_timing();
            out.push_str(&serde_json::to_string(answer).map_err(|e| e.to_string())?);
            out.push('\n');
        }
        std::hint::black_box(&out);
        let encode_ns = ns_since(start);

        let mut per_query = Vec::with_capacity(queries.len());
        for query in &queries {
            let start = Instant::now();
            std::hint::black_box(engine.query(query));
            let query_ns = ns_since(start);
            let (solve_ns, _) = timed_solve(&engine, query);
            per_query.push((crate::gen::is_popular(query), query_ns, solve_ns));
        }

        let mut trace = Trace::default();
        let root = trace.push("client.round_trip", Some(layer::TRANSPORT), None, rtt_ns);
        let stream = trace.push(
            "service.stream_batch",
            Some(layer::SERVICE),
            Some(root),
            stream_ns,
        );
        trace.push("proto.decode", Some(layer::DECODE), Some(stream), decode_ns);
        trace.push(
            "registry.lookup",
            Some(layer::REGISTRY),
            Some(stream),
            lookup_ns,
        );
        trace.push("engine.batch", Some(layer::BATCH), Some(stream), batch_ns);
        trace.push("proto.encode", Some(layer::ENCODE), Some(stream), encode_ns);
        Ok(BatchReplay {
            trace,
            encoded,
            queries: per_query,
        })
    }

    /// Replays one `mutate_batch` envelope sent to `POST /v1/rpc`, and
    /// appends the window to `wal` as the server's log would.
    ///
    /// ```text
    /// client.round_trip          → server.transport
    ///   server.work              → (sum of its children)
    ///     service.handle_json    → service.self
    ///       proto.decode
    ///       registry.lookup
    ///       engine.mutate_batch  (the `micros` the replica reports)
    ///     wal.append
    ///     proto.encode
    /// ```
    pub fn mutate(
        &self,
        envelope: &str,
        mutations: &[EdgeMutation],
        wal: &Wal,
        rtt_ns: f64,
    ) -> Result<WriteReplay, String> {
        let start = Instant::now();
        let response = self.service.handle_json(envelope);
        let handle_ns = ns_since(start);
        let apply_ns = match &response {
            Response::MutatedBatch {
                micros, outcomes, ..
            } if outcomes.iter().all(|o| o.applied) => *micros as f64 * 1e3,
            other => return Err(format!("replica answered `{}` to a window", other.op())),
        };
        let start = Instant::now();
        Request::parse_json(envelope).map_err(|e| e.to_string())?;
        let decode_ns = ns_since(start);
        let start = Instant::now();
        self.service
            .registry()
            .engine(None)
            .map_err(|e| e.to_string())?;
        let lookup_ns = ns_since(start);
        let start = Instant::now();
        let receipt = wal
            .append_batch(mutations)
            .map_err(|e| format!("scratch log append: {e}"))?;
        let wal_ns = ns_since(start);
        let start = Instant::now();
        std::hint::black_box(serde_json::to_string(&response).map_err(|e| e.to_string())?);
        let encode_ns = ns_since(start);

        let mut trace = Trace::default();
        let root = trace.push("client.round_trip", Some(layer::TRANSPORT), None, rtt_ns);
        let work = trace.push(
            "server.work",
            None,
            Some(root),
            handle_ns + wal_ns + encode_ns,
        );
        let handle = trace.push(
            "service.handle_json",
            Some(layer::SERVICE),
            Some(work),
            handle_ns,
        );
        trace.push("proto.decode", Some(layer::DECODE), Some(handle), decode_ns);
        trace.push(
            "registry.lookup",
            Some(layer::REGISTRY),
            Some(handle),
            lookup_ns,
        );
        trace.push(
            "engine.mutate_batch",
            Some(layer::MUTATE),
            Some(handle),
            apply_ns,
        );
        trace.push("wal.append", Some(layer::WAL), Some(work), wal_ns);
        trace.push("proto.encode", Some(layer::ENCODE), Some(work), encode_ns);
        Ok(WriteReplay {
            trace,
            wal_bytes: receipt.bytes,
        })
    }

    /// Times the solver alone on `query` (the popular-mix probe every
    /// traced run makes).
    pub fn solve_ns(&self, query: &TeamQuery) -> Result<f64, String> {
        let engine = self
            .service
            .registry()
            .engine(None)
            .map_err(|e| e.to_string())?;
        Ok(timed_solve(&engine, query).0)
    }
}
