//! The transport-agnostic service: one object that owns a
//! [`DeploymentRegistry`] and answers protocol [`Request`]s, no matter which
//! transport carried them.
//!
//! Both shipped transports are thin adapters over this type: the CLI
//! `serve-batch`/`stats` subcommands and the HTTP/1.1 front-end
//! ([`crate::server`]) each parse their framing, then call
//! [`Service::handle`] (envelopes) or [`Service::stream_batch`] (JSONL
//! query streams). Because the JSONL path is *shared*, the same warm query
//! stream produces byte-identical answer lines over every transport.
//!
//! [`Service::stream_batch`] is also where batch serving stopped buffering:
//! queries are read in bounded chunks (default [`ServiceOptions::chunk`]),
//! each chunk fans across [`Engine::batch`]'s workers, and answers are
//! written out as each chunk completes — in input order — so a million-query
//! stream needs memory for one chunk, not the whole workload.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{JsonWriter, Serialize};
use tfsn_core::compat::CompatibilityKind;

use crate::batch::BatchSummary;
use crate::proto::{
    DeploymentMetrics, DeploymentStats, DeploymentTelemetry, MutationOutcome, Request, RequestBody,
    Response, ServiceError,
};
use crate::query::QueryReader;
use crate::registry::DeploymentRegistry;
use crate::telemetry::prometheus::{self, DeploymentScrape};
use crate::telemetry::{self, HistogramSnapshot, Op, Phase};
use crate::wal;
use crate::{BatchOptions, Engine, MetricsSnapshot, Objective, TeamQuery};

/// Upper bound on records in one `wal_records` reply, applied even when
/// the pull does not name a `max`. Followers loop while `next_seq <
/// end_seq`, so the cap costs extra round-trips on a huge backlog, never
/// records.
pub const WAL_PULL_MAX_RECORDS: u64 = 65_536;

/// Tuning for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker-thread options for batch execution.
    pub batch: BatchOptions,
    /// Queries per chunk when streaming JSONL batches (bounds resident
    /// queries + answers; answers still come back in input order).
    pub chunk: usize,
    /// Default [`Objective`] applied to queries that do not name one
    /// (`--objective` on the serving subcommands). `None` keeps the
    /// protocol default: absent means the paper's minimum-diameter
    /// objective and byte-identical legacy answers.
    pub objective: Option<Objective>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            batch: BatchOptions::default(),
            chunk: 1024,
            objective: None,
        }
    }
}

/// A per-request wall-clock budget, carried from the envelope's
/// `deadline_ms` field (or the HTTP `?deadline_ms=` query parameter) and
/// checked at the protocol's cancellation points: before each solve, and
/// between batch chunks. Granularity is deliberately one chunk — a chunk
/// that has started runs to completion, so answers already streamed out
/// always stand.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
    ms: u64,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Deadline {
            at: Instant::now() + Duration::from_millis(ms),
            ms,
        }
    }

    /// `true` once the budget has run out.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// The typed failure when the budget has run out.
    pub fn check(&self) -> Result<(), ServiceError> {
        if self.expired() {
            Err(ServiceError::DeadlineExceeded {
                deadline_ms: self.ms,
            })
        } else {
            Ok(())
        }
    }
}

/// Per-run options for [`Service::stream_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Keep per-answer latency fields; `false` zeroes them
    /// ([`crate::TeamAnswer::strip_timing`]) for byte-stable output.
    pub timing: bool,
    /// Abandon the stream (after the in-flight chunk) once this budget
    /// runs out.
    pub deadline: Option<Deadline>,
}

impl StreamOptions {
    /// Options with the given timing flag and no deadline.
    pub fn timing(timing: bool) -> Self {
        StreamOptions {
            timing,
            deadline: None,
        }
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Outcome of one [`Service::stream_batch`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSummary {
    /// Per-answer statistics, folded across chunks.
    pub summary: BatchSummary,
    /// Chunks executed.
    pub chunks: usize,
}

/// An error from the streaming path: either a protocol-level failure
/// (unknown deployment, unparseable query line) or sink I/O.
#[derive(Debug)]
pub enum StreamError {
    /// Protocol-level failure; map it through [`ServiceError::code`].
    Service(ServiceError),
    /// The answer sink failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Service(e) => e.fmt(f),
            StreamError::Io(e) => write!(f, "write answer: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ServiceError> for StreamError {
    fn from(e: ServiceError) -> Self {
        StreamError::Service(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// The service: a [`DeploymentRegistry`] plus execution options. `Sync` and
/// cheap to share — transports hold it behind `Arc` and call it from any
/// thread.
#[derive(Debug)]
pub struct Service {
    registry: DeploymentRegistry,
    options: ServiceOptions,
}

impl Service {
    /// A service with default options.
    pub fn new(registry: DeploymentRegistry) -> Self {
        Self::with_options(registry, ServiceOptions::default())
    }

    /// A service with explicit options.
    pub fn with_options(registry: DeploymentRegistry, options: ServiceOptions) -> Self {
        Service { registry, options }
    }

    /// The deployment registry.
    pub fn registry(&self) -> &DeploymentRegistry {
        &self.registry
    }

    /// The service options.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Handles one protocol request. Failures come back as
    /// [`Response::Error`]; this method itself never panics on bad input.
    ///
    /// # Examples
    ///
    /// ```
    /// use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource};
    /// use tfsn_engine::{Request, RequestBody, Response, Service, ServiceError};
    ///
    /// let registry = DeploymentRegistry::single(DeploymentConfig::new(
    ///     "tiny",
    ///     DeploymentSource::parse("synthetic:nodes=60,edges=150,skills=8").unwrap(),
    /// ));
    /// let service = Service::new(registry);
    ///
    /// // Deployment statistics over the envelope protocol.
    /// let response = service.handle(&Request::new(RequestBody::Stats));
    /// assert!(matches!(response, Response::Stats(_)));
    ///
    /// // Unknown deployments come back as typed error envelopes.
    /// let response = service.handle(&Request::new(RequestBody::Stats).on("prod"));
    /// assert!(matches!(
    ///     response.error(),
    ///     Some(ServiceError::UnknownDeployment { .. })
    /// ));
    /// ```
    pub fn handle(&self, request: &Request) -> Response {
        match self.dispatch(request) {
            Ok(response) => response,
            Err(e) => Response::Error(e),
        }
    }

    /// Parses and handles one JSON envelope (the `POST /v1/rpc` body, or a
    /// line of an envelope stream). Parse failures come back as
    /// [`Response::Error`] envelopes too, so transports always have a
    /// serializable answer.
    pub fn handle_json(&self, json: &str) -> Response {
        match Request::parse_json(json) {
            Ok(request) => self.handle(&request),
            Err(e) => Response::Error(e),
        }
    }

    /// Applies the service-wide default objective to a query that does not
    /// name one. Returns `None` when the query can run as-is — either there
    /// is no service default, or the query pins its own objective (which
    /// always wins).
    fn defaulted(&self, query: &TeamQuery) -> Option<TeamQuery> {
        match (&self.options.objective, &query.objective) {
            (Some(objective), None) => {
                let mut query = query.clone();
                query.objective = Some(objective.clone());
                Some(query)
            }
            _ => None,
        }
    }

    fn dispatch(&self, request: &Request) -> Result<Response, ServiceError> {
        let deployment = request.deployment.as_deref();
        // The budget starts at dispatch, so deployment loading counts
        // against it; it is checked before each solve, never mid-solve.
        let deadline = request.deadline_ms.map(Deadline::after_ms);
        match &request.body {
            RequestBody::Query { query, timing } => {
                let engine = self.registry.engine(deployment)?;
                if let Some(d) = &deadline {
                    d.check()?;
                }
                let mut answer = match self.defaulted(query) {
                    Some(query) => engine.query(&query),
                    None => engine.query(query),
                };
                if !timing {
                    answer.strip_timing();
                }
                Ok(Response::Answer(answer))
            }
            RequestBody::Batch { queries, timing } => {
                let engine = self.registry.engine(deployment)?;
                if let Some(d) = &deadline {
                    d.check()?;
                }
                let mut answers = if self.options.objective.is_some() {
                    let queries: Vec<TeamQuery> = queries
                        .iter()
                        .map(|q| self.defaulted(q).unwrap_or_else(|| q.clone()))
                        .collect();
                    engine.batch(&queries, &self.options.batch)
                } else {
                    engine.batch(queries, &self.options.batch)
                };
                if !timing {
                    answers.iter_mut().for_each(|a| a.strip_timing());
                }
                Ok(Response::Batch(answers))
            }
            RequestBody::Warm { kinds } => {
                let engine = self.registry.engine(deployment)?;
                let kinds: Vec<CompatibilityKind> = if kinds.is_empty() {
                    CompatibilityKind::EVALUATED.to_vec()
                } else {
                    kinds.clone()
                };
                let start = Instant::now();
                engine.warm(&kinds);
                Ok(Response::Warmed {
                    deployment: deployment
                        .unwrap_or_else(|| self.registry.default_name())
                        .to_string(),
                    kinds,
                    micros: start.elapsed().as_micros() as u64,
                })
            }
            RequestBody::Stats => {
                let engine = self.registry.engine(deployment)?;
                let replicated_seq = engine.replicated_seq();
                Ok(Response::Stats(DeploymentStats {
                    dataset: engine.cached_stats(),
                    serving: engine.serving_plan(),
                    replicated_seq,
                }))
            }
            RequestBody::Metrics => {
                let mut deployments = Vec::new();
                let mut total = MetricsSnapshot::default();
                // `accumulate` can only upper-bound percentiles (they do
                // not sum); histograms merge exactly, so the total's
                // percentiles are recomputed from the merged distribution.
                let mut merged = HistogramSnapshot::default();
                for name in self.registry.names() {
                    if let Some(engine) = self.registry.engine_if_loaded(name) {
                        let metrics = engine.metrics();
                        total.accumulate(&metrics);
                        merged.merge(&engine.telemetry().op_snapshot(Op::Query));
                        deployments.push(DeploymentMetrics {
                            deployment: name.to_string(),
                            metrics,
                        });
                    }
                }
                if merged.count() > 0 {
                    telemetry::set_query_latency(&mut total, &merged);
                }
                Ok(Response::Metrics { deployments, total })
            }
            RequestBody::Telemetry => {
                let mut deployments = Vec::new();
                match deployment {
                    // Naming a deployment scopes the report to it — but
                    // still without forcing a load (an unloaded target
                    // yields an empty list, not an implicit multi-GB load).
                    Some(name) => {
                        if let Some(engine) = self.registry.loaded_engine(Some(name))? {
                            deployments.push(DeploymentTelemetry {
                                deployment: name.to_string(),
                                telemetry: engine.telemetry().report(),
                            });
                        }
                    }
                    None => {
                        for name in self.registry.names() {
                            if let Some(engine) = self.registry.engine_if_loaded(name) {
                                deployments.push(DeploymentTelemetry {
                                    deployment: name.to_string(),
                                    telemetry: engine.telemetry().report(),
                                });
                            }
                        }
                    }
                }
                Ok(Response::Telemetry { deployments })
            }
            RequestBody::Deployments => Ok(Response::Deployments(self.registry.infos())),
            RequestBody::WalPull { from_seq, max } => {
                let name = deployment.unwrap_or_else(|| self.registry.default_name());
                // Like mutations: pulls address live deployments only —
                // a follower bootstraps against a serving primary, never
                // forces a cold multi-GB load.
                let engine = self.registry.loaded_engine(Some(name))?.ok_or_else(|| {
                    ServiceError::BadRequest {
                        detail: format!(
                            "deployment `{name}` is not loaded; wal_pull streams from live \
                             deployments only (warm or query it first)"
                        ),
                    }
                })?;
                let wal = engine.wal().ok_or_else(|| ServiceError::BadRequest {
                    detail: format!(
                        "deployment `{name}` has no write-ahead log attached; start the \
                         primary with --wal to serve replication pulls"
                    ),
                })?;
                // Re-scan the log file fresh: append-only writes mean a
                // concurrent half-written record shows up as a torn tail,
                // which scan() stops at — this poll just returns fewer
                // records and the follower catches up next time. No lock
                // against the write path is needed.
                let scan = wal::scan(wal.path()).map_err(|e| ServiceError::Internal {
                    detail: format!("scan write-ahead log: {e}"),
                })?;
                let end_seq = scan.mutations.len() as u64;
                // Bound every reply even when the caller asks for "all":
                // followers loop on next_seq < end_seq, so a cap costs one
                // extra round-trip, never correctness.
                let capped = Some(
                    max.unwrap_or(WAL_PULL_MAX_RECORDS)
                        .min(WAL_PULL_MAX_RECORDS),
                );
                let records = wal::slice(&scan.mutations, *from_seq, capped).to_vec();
                Ok(Response::WalRecords {
                    deployment: name.to_string(),
                    from_seq: *from_seq,
                    next_seq: from_seq + records.len() as u64,
                    end_seq,
                    records,
                })
            }
            RequestBody::EdgeInsert { .. }
            | RequestBody::EdgeRemove { .. }
            | RequestBody::EdgeSetSign { .. } => {
                let mutation = request
                    .body
                    .mutation()
                    .expect("mutation variants carry a graph delta");
                let name = deployment.unwrap_or_else(|| self.registry.default_name());
                // Resolve without loading: a mutation addressed at a cold
                // deployment must not pull gigabytes into memory — the
                // caller warms (or queries) first, then mutates.
                let engine = self.registry.loaded_engine(Some(name))?.ok_or_else(|| {
                    ServiceError::BadRequest {
                        detail: format!(
                            "deployment `{name}` is not loaded; mutations apply to live \
                             deployments only (warm or query it first)"
                        ),
                    }
                })?;
                let start = Instant::now();
                // A graph-level rejection is the client's fault; a WAL
                // append failure is ours — the mutation was refused
                // *before* touching the graph (append-before-apply), so
                // the client may safely retry once the operator recovers
                // the log.
                let report = engine.mutate(&mutation).map_err(|e| match e {
                    crate::MutateError::Graph(e) => ServiceError::BadRequest {
                        detail: e.to_string(),
                    },
                    crate::MutateError::Wal(e) => ServiceError::Internal {
                        detail: format!("write-ahead log append failed: {e}"),
                    },
                })?;
                Ok(Response::Mutated {
                    deployment: name.to_string(),
                    mutation: request.body.op().to_string(),
                    changed: report.effect.changed(),
                    rows_invalidated: report.rows_invalidated as u64,
                    downgraded: report.kinds_downgraded,
                    edges: engine.graph().edge_count() as u64,
                    micros: start.elapsed().as_micros() as u64,
                })
            }
            RequestBody::MutateBatch { mutations } => {
                let name = deployment.unwrap_or_else(|| self.registry.default_name());
                // Same no-load rule as single mutations: batches apply to
                // live deployments only.
                let engine = self.registry.loaded_engine(Some(name))?.ok_or_else(|| {
                    ServiceError::BadRequest {
                        detail: format!(
                            "deployment `{name}` is not loaded; mutations apply to live \
                             deployments only (warm or query it first)"
                        ),
                    }
                })?;
                let start = Instant::now();
                // Graph-level rejections are per-mutation outcomes, not
                // envelope errors; only a WAL failure fails the envelope
                // (the whole group was refused before touching the graph).
                let report = engine.mutate_batch(mutations).map_err(|e| match e {
                    crate::MutateError::Graph(e) => ServiceError::BadRequest {
                        detail: e.to_string(),
                    },
                    crate::MutateError::Wal(e) => ServiceError::Internal {
                        detail: format!("write-ahead log append failed: {e}"),
                    },
                })?;
                let outcomes = mutations
                    .iter()
                    .zip(&report.outcomes)
                    .map(|(m, outcome)| match outcome {
                        Ok(effect) => MutationOutcome {
                            mutation: m.op().to_string(),
                            applied: true,
                            changed: effect.changed(),
                            error: None,
                        },
                        Err(e) => MutationOutcome {
                            mutation: m.op().to_string(),
                            applied: false,
                            changed: false,
                            error: Some(ServiceError::BadRequest {
                                detail: e.to_string(),
                            }),
                        },
                    })
                    .collect();
                Ok(Response::MutatedBatch {
                    deployment: name.to_string(),
                    outcomes,
                    rows_invalidated: report.rows_invalidated as u64,
                    rows_repaired: report.rows_repaired as u64,
                    downgraded: report.kinds_downgraded,
                    edges: engine.graph().edge_count() as u64,
                    micros: start.elapsed().as_micros() as u64,
                })
            }
        }
    }

    /// Streams a JSONL query batch: reads bounded chunks from `input`, runs
    /// each through [`Engine::batch`], and writes one JSONL answer per
    /// query to `sink` in input order as chunks complete. With
    /// `options.timing` off the answers' latency fields are zeroed
    /// ([`crate::TeamAnswer::strip_timing`]), making warm output
    /// byte-stable across runs and transports. With a deadline set, the
    /// budget is checked before each chunk solves: on expiry the stream
    /// aborts with [`ServiceError::DeadlineExceeded`] — answers of chunks
    /// already streamed stand, pending chunks are abandoned.
    ///
    /// A malformed line aborts the stream with
    /// [`ServiceError::BadRequest`] carrying its 1-based line number;
    /// answers of earlier chunks have already been written by then
    /// (streaming is the point — there is no buffering to roll back).
    pub fn stream_batch(
        &self,
        deployment: Option<&str>,
        input: impl BufRead,
        sink: &mut dyn Write,
        options: StreamOptions,
    ) -> Result<StreamSummary, StreamError> {
        let engine = self.registry.engine(deployment)?;
        let mut reader = QueryReader::new(input);
        let mut out = StreamSummary::default();
        // Capacity is a hint capped well below `chunk` — an absurd --chunk
        // must not preallocate terabytes; the vec grows to what the input
        // actually holds.
        let mut chunk: Vec<TeamQuery> = Vec::with_capacity(self.options.chunk.clamp(1, 1024));
        // One answer line at a time, in a buffer reused across the stream.
        let mut line = String::new();
        loop {
            chunk.clear();
            while chunk.len() < self.options.chunk.max(1) {
                match reader.next() {
                    Some(Ok(mut query)) => {
                        if query.objective.is_none() {
                            query.objective = self.options.objective.clone();
                        }
                        chunk.push(query);
                    }
                    Some(Err(e)) => {
                        return Err(ServiceError::BadRequest {
                            detail: e.to_string(),
                        }
                        .into());
                    }
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            if let Some(deadline) = &options.deadline {
                deadline.check()?;
            }
            let mut answers = engine.batch(&chunk, &self.options.batch);
            out.summary.absorb(&BatchSummary::of(&answers));
            out.chunks += 1;
            let serialize_started = std::time::Instant::now();
            for answer in &mut answers {
                if !options.timing {
                    answer.strip_timing();
                }
                line.clear();
                answer.serialize(&mut JsonWriter::compact(&mut line));
                sink.write_all(line.as_bytes())?;
                sink.write_all(b"\n")?;
            }
            // One serialize-phase sample per chunk: encoding plus the write
            // into the sink — the part of batch latency the solver phases
            // cannot see.
            engine.telemetry().record_phase(
                Phase::Serialize,
                serialize_started.elapsed().as_micros() as u64,
            );
        }
        sink.flush()?;
        Ok(out)
    }

    /// The engine serving `deployment` (`None` = default), loading it if
    /// needed — for transports that need engine-level access (warm-up,
    /// summaries) around the protocol operations.
    pub fn engine(&self, deployment: Option<&str>) -> Result<Arc<Engine>, ServiceError> {
        self.registry.engine(deployment)
    }

    /// Renders the Prometheus text exposition over every loaded deployment
    /// — the `GET /metrics` scrape body (see `docs/OBSERVABILITY.md`).
    pub fn prometheus_metrics(&self) -> String {
        let engines: Vec<_> = self
            .registry
            .names()
            .into_iter()
            .filter_map(|name| Some((name, self.registry.engine_if_loaded(name)?)))
            .collect();
        let scrapes: Vec<_> = engines
            .iter()
            .map(|(name, engine)| {
                DeploymentScrape::capture(name, engine.metrics(), engine.telemetry())
            })
            .collect();
        prometheus::render(&scrapes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DeploymentConfig, DeploymentSource};
    use crate::AnswerStatus;

    fn two_deployment_service(chunk: usize) -> Service {
        let registry = DeploymentRegistry::new(vec![
            DeploymentConfig::new("sd", DeploymentSource::Slashdot),
            DeploymentConfig::new(
                "tiny",
                DeploymentSource::parse("synthetic:nodes=80,edges=240,skills=12,seed=5").unwrap(),
            ),
        ])
        .unwrap();
        Service::with_options(
            registry,
            ServiceOptions {
                batch: BatchOptions::with_threads(2),
                chunk,
                objective: None,
            },
        )
    }

    fn jsonl(n: usize) -> String {
        (0..n)
            .map(|i| format!("{{\"id\": {i}, \"task\": [{}, {}]}}\n", i % 5, (i + 2) % 5))
            .collect()
    }

    #[test]
    fn batch_op_answers_against_the_named_deployment() {
        let service = two_deployment_service(64);
        let queries: Vec<TeamQuery> = (0..6)
            .map(|i| TeamQuery::new([i % 4]).with_id(i as u64))
            .collect();
        let response = service.handle(
            &Request::new(RequestBody::Batch {
                queries: queries.clone(),
                timing: false,
            })
            .on("tiny"),
        );
        let Response::Batch(answers) = response else {
            panic!("unexpected response {response:?}");
        };
        assert_eq!(answers.len(), 6);
        assert!(answers.iter().all(|a| a.micros == 0 && a.build_micros == 0));
        // Same queries straight through the engine agree (timing aside).
        let engine = service.engine(Some("tiny")).unwrap();
        let mut direct = engine.batch(&queries, &BatchOptions::with_threads(2));
        direct.iter_mut().for_each(|a| a.strip_timing());
        let direct_members: Vec<_> = direct
            .iter()
            .map(|a| (a.id, a.status, a.members.clone()))
            .collect();
        let served_members: Vec<_> = answers
            .iter()
            .map(|a| (a.id, a.status, a.members.clone()))
            .collect();
        assert_eq!(direct_members, served_members);
    }

    #[test]
    fn unknown_deployment_is_an_error_envelope() {
        let service = two_deployment_service(64);
        let response =
            service.handle_json(r#"{"version": 1, "op": "stats", "deployment": "prod"}"#);
        match response.error() {
            Some(ServiceError::UnknownDeployment { name, available }) => {
                assert_eq!(name, "prod");
                assert_eq!(available, &vec!["sd".to_string(), "tiny".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_batch_chunks_and_matches_unchunked() {
        let input = jsonl(23);
        // Chunked (size 4) vs one-shot (size 1024) on fresh services: the
        // JSONL out must be identical, and the chunk count must reflect the
        // bound. Each service fills SPA before it streams: otherwise
        // whichever of its two batch workers reaches the fill first answers
        // `cache_hit: false`, and the streams differ by that race.
        let warmed = |service: Service| {
            service
                .engine(None)
                .unwrap()
                .warm(&[CompatibilityKind::Spa]);
            service
        };
        let chunked_service = warmed(two_deployment_service(4));
        let mut chunked = Vec::new();
        let s1 = chunked_service
            .stream_batch(
                None,
                std::io::Cursor::new(&input),
                &mut chunked,
                StreamOptions::timing(false),
            )
            .unwrap();
        assert_eq!(s1.chunks, 6, "23 queries in chunks of 4");
        assert_eq!(s1.summary.queries, 23);
        let oneshot_service = warmed(two_deployment_service(1024));
        let mut oneshot = Vec::new();
        let s2 = oneshot_service
            .stream_batch(
                None,
                std::io::Cursor::new(&input),
                &mut oneshot,
                StreamOptions::timing(false),
            )
            .unwrap();
        assert_eq!(s2.chunks, 1);
        assert_eq!(chunked, oneshot, "chunking must not change the stream");
        assert_eq!(chunked.iter().filter(|&&b| b == b'\n').count(), 23);
        assert_eq!(s1.summary.solved, s2.summary.solved);
        assert!(s1.summary.solved > 0);
    }

    #[test]
    fn stream_batch_reports_bad_lines_with_numbers() {
        let service = two_deployment_service(2);
        let input = "{\"task\": [1]}\n{\"task\": [2]}\n{\"task\": [3]}\nboom\n";
        let mut sink = Vec::new();
        let err = service
            .stream_batch(
                None,
                std::io::Cursor::new(input),
                &mut sink,
                StreamOptions::timing(true),
            )
            .unwrap_err();
        match err {
            StreamError::Service(ServiceError::BadRequest { detail }) => {
                assert!(detail.starts_with("line 4:"), "got: {detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The first full chunk was already streamed out before the error.
        assert_eq!(String::from_utf8(sink).unwrap().lines().count(), 2);
    }

    #[test]
    fn service_default_objective_applies_only_to_unpinned_queries() {
        let registry = DeploymentRegistry::single(DeploymentConfig::new(
            "tiny",
            DeploymentSource::parse("synthetic:nodes=80,edges=240,skills=12,seed=5").unwrap(),
        ));
        let service = Service::with_options(
            registry,
            ServiceOptions {
                batch: BatchOptions::with_threads(2),
                chunk: 64,
                objective: Some(Objective::Synergy),
            },
        );
        // An objective-less query picks up the service default.
        let response = service.handle(&Request::new(RequestBody::Query {
            query: TeamQuery::new([0, 1]),
            timing: false,
        }));
        let Response::Answer(answer) = response else {
            panic!("unexpected {response:?}");
        };
        assert_eq!(answer.objective.as_deref(), Some("synergy"));
        // A query that pins its own objective wins over the default.
        let response = service.handle(&Request::new(RequestBody::Query {
            query: TeamQuery::new([0, 1]).with_objective(Objective::MinTeam),
            timing: false,
        }));
        let Response::Answer(answer) = response else {
            panic!("unexpected {response:?}");
        };
        assert_eq!(answer.objective.as_deref(), Some("min_team"));
        // The streaming path stamps the default on every parsed line.
        let mut sink = Vec::new();
        service
            .stream_batch(
                None,
                std::io::Cursor::new(jsonl(4)),
                &mut sink,
                StreamOptions::timing(false),
            )
            .unwrap();
        let out = String::from_utf8(sink).unwrap();
        assert_eq!(out.lines().count(), 4);
        assert!(
            out.lines().all(|l| l.contains("\"objective\":\"synergy\"")),
            "streamed answers must carry the default objective: {out}"
        );
    }

    #[test]
    fn deadlines_fail_typed_at_cancellation_points() {
        let service = two_deployment_service(4);
        // A zero budget expires before the first solve.
        let response = service.handle(
            &Request::new(RequestBody::Query {
                query: TeamQuery::new([0, 1]),
                timing: false,
            })
            .on("tiny")
            .with_deadline_ms(0),
        );
        assert_eq!(
            response.error(),
            Some(&ServiceError::DeadlineExceeded { deadline_ms: 0 })
        );
        // The streaming path aborts before the first chunk solves.
        let mut sink = Vec::new();
        let err = service
            .stream_batch(
                Some("tiny"),
                std::io::Cursor::new(jsonl(8)),
                &mut sink,
                StreamOptions::timing(false).with_deadline(Deadline::after_ms(0)),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Service(ServiceError::DeadlineExceeded { deadline_ms: 0 })
            ),
            "got {err:?}"
        );
        assert!(sink.is_empty(), "no chunk may start after expiry");
        // A generous budget changes nothing.
        let response = service.handle(
            &Request::new(RequestBody::Query {
                query: TeamQuery::new([0, 1]),
                timing: false,
            })
            .on("tiny")
            .with_deadline_ms(60_000),
        );
        assert!(matches!(response, Response::Answer(_)), "got {response:?}");
    }

    #[test]
    fn warm_stats_metrics_deployments_round() {
        let service = two_deployment_service(64);
        // Warm the default deployment for two kinds.
        let response = service.handle(&Request::new(RequestBody::Warm {
            kinds: vec![CompatibilityKind::Spa, CompatibilityKind::Nne],
        }));
        match &response {
            Response::Warmed {
                deployment, kinds, ..
            } => {
                assert_eq!(deployment, "sd");
                assert_eq!(kinds.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A warm query is a cache hit and counts in metrics.
        let answer = service.handle(&Request::new(RequestBody::Query {
            query: TeamQuery::new([0, 1]).with_kind(CompatibilityKind::Spa),
            timing: true,
        }));
        let Response::Answer(answer) = answer else {
            panic!("unexpected {answer:?}");
        };
        assert!(answer.cache_hit);
        assert!(matches!(
            answer.status,
            AnswerStatus::Ok | AnswerStatus::NoTeam
        ));
        // Stats: dataset + serving plan of the default deployment.
        let stats = service.handle(&Request::new(RequestBody::Stats));
        let Response::Stats(stats) = stats else {
            panic!("unexpected {stats:?}");
        };
        assert_eq!(stats.dataset.name, "Slashdot");
        assert_eq!(stats.dataset.users, 214);
        assert_eq!(stats.serving.tier, "matrix");
        // Metrics: only the loaded deployment reports; totals match.
        let metrics = service.handle(&Request::new(RequestBody::Metrics));
        let Response::Metrics { deployments, total } = metrics else {
            panic!("unexpected {metrics:?}");
        };
        assert_eq!(deployments.len(), 1, "tiny was never loaded");
        assert_eq!(deployments[0].deployment, "sd");
        assert_eq!(total.queries_served, 1);
        assert_eq!(total.matrix_builds, 2, "the two warmed kinds");
        // Deployments listing knows which entries are loaded.
        let listing = service.handle(&Request::new(RequestBody::Deployments));
        let Response::Deployments(infos) = listing else {
            panic!("unexpected {listing:?}");
        };
        assert_eq!(infos.len(), 2);
        assert!(infos[0].default && infos[0].loaded);
        assert!(!infos[1].default && !infos[1].loaded);
    }

    #[test]
    fn telemetry_op_scopes_to_loaded_deployments() {
        let service = two_deployment_service(64);
        // Nothing loaded yet: the report is empty, not an error.
        let idle = service.handle(&Request::new(RequestBody::Telemetry));
        let Response::Telemetry { deployments } = idle else {
            panic!("unexpected {idle:?}");
        };
        assert!(deployments.is_empty(), "no deployment has been loaded");
        // Serve one query so the default deployment loads and records.
        let answer = service.handle(&Request::new(RequestBody::Query {
            query: TeamQuery::new([0, 1]),
            timing: true,
        }));
        assert!(matches!(answer, Response::Answer(_)), "got {answer:?}");
        let report = service.handle(&Request::new(RequestBody::Telemetry));
        let Response::Telemetry { deployments } = report else {
            panic!("unexpected {report:?}");
        };
        assert_eq!(deployments.len(), 1, "tiny was never loaded");
        assert_eq!(deployments[0].deployment, "sd");
        let telemetry = &deployments[0].telemetry;
        let query_axis = telemetry
            .ops
            .iter()
            .find(|axis| axis.label == "query")
            .expect("query op axis");
        assert_eq!(query_axis.stats.count, 1);
        assert!(query_axis.stats.p50_micros <= query_axis.stats.p99_micros);
        assert_eq!(telemetry.phases.len(), 4, "all phases always reported");
        assert_eq!(telemetry.slow_queries.len(), 1);
        assert_eq!(telemetry.slow_queries[0].seq, 0);
        // Naming a deployment narrows the report; unloaded stays empty.
        let named = service.handle(&Request::new(RequestBody::Telemetry).on("tiny"));
        let Response::Telemetry { deployments } = named else {
            panic!("unexpected {named:?}");
        };
        assert!(deployments.is_empty(), "tiny is registered but unloaded");
        // An unknown deployment is still a protocol error.
        let bogus = service.handle(&Request::new(RequestBody::Telemetry).on("prod"));
        assert!(
            matches!(bogus.error(), Some(ServiceError::UnknownDeployment { .. })),
            "got {bogus:?}"
        );
        // Metrics totals now carry exact percentiles from the merged
        // query histogram.
        let metrics = service.handle(&Request::new(RequestBody::Metrics));
        let Response::Metrics { total, .. } = metrics else {
            panic!("unexpected {metrics:?}");
        };
        assert!(total.query_p50_micros.is_some());
        assert!(total.query_p50_micros <= total.query_max_micros);
    }
}
