//! # tfsn-engine
//!
//! A cached, parallel **team-query serving subsystem** for the TFSN problem:
//! the layer that turns the one-shot reproduction solvers into an online
//! query engine, as the paper frames the problem ("given a signed network
//! and a task T, return a compatible covering team of minimum diameter").
//!
//! ## Architecture
//!
//! * [`Deployment`] — the immutable serving state: one signed network
//!   (behind `Arc`) + one skill assignment, loaded once.
//! * [`store::RelationStore`] — the relation store: one memory-budgeted,
//!   row-level LRU cache ([`tfsn_core::compat::LazyCompatibility`]) per
//!   [`CompatibilityKind`], either filled whole at the kind's first fetch
//!   (then served from an immutable row table, at matrix-lookup cost) or
//!   filled row by row on demand, as an explicit [`StorePolicy`] plans per
//!   kind. Concurrent identical queries build **exactly once**, and exactly
//!   one of them is accounted the miss.
//! * [`TeamQuery`] / [`TeamAnswer`] — the JSONL wire types
//!   (see their module docs for the schema).
//! * [`Engine`] — glues the above: [`Engine::query`] answers one query,
//!   [`Engine::batch`] fans a slice of queries across rayon workers with
//!   order-stable, deterministic results.
//! * [`telemetry`] — the engine's one recording type, [`EngineTelemetry`]:
//!   per-op/per-phase/per-kind/per-objective log-bucketed latency
//!   histograms (p50/p90/p99/p999), the counters no histogram records, and
//!   the slow-query log, exposed as the `metrics` and `telemetry` protocol
//!   ops and Prometheus `GET /metrics`.
//! * [`cli`] — the `tfsn` binary: `serve-batch`, `stats`, `gen`.
//!
//! ## Example
//!
//! ```
//! use tfsn_engine::{BatchOptions, Deployment, Engine, TeamQuery};
//! use tfsn_core::compat::CompatibilityKind;
//!
//! let engine = Engine::new(Deployment::from_dataset(tfsn_datasets::slashdot()));
//! let queries: Vec<TeamQuery> = (0..8)
//!     .map(|i| TeamQuery::new([0, 1 + i % 4]).with_id(i as u64)
//!         .with_kind(CompatibilityKind::Spo))
//!     .collect();
//! let answers = engine.batch(&queries, &BatchOptions::default());
//! assert_eq!(answers.len(), queries.len());
//! // One fill (SPO), shared by all eight queries.
//! assert_eq!(engine.store().build_count(), 1);
//! ```
//!
//! Serving a graph whose full `O(|V|²)` matrix exceeds memory:
//!
//! ```
//! use tfsn_engine::{Deployment, Engine, EngineOptions, StorePolicy};
//!
//! let deployment = Deployment::from_dataset(tfsn_datasets::slashdot());
//! let engine = Engine::with_options(deployment, EngineOptions {
//!     // A 64 KiB budget per relation kind: rows are computed on demand
//!     // and evicted LRU-first. (`StorePolicy::auto` does the same only for
//!     // kinds whose full matrix misses the budget — on this 214-node demo
//!     // graph the matrix would fit, so it would fill every row.)
//!     policy: StorePolicy::rows(Some(64 << 10)),
//!     ..Default::default()
//! });
//! # let _ = engine;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod cluster;
pub mod deployment;
pub mod failpoint;
pub mod registry;
pub mod server;
pub mod service;
pub mod store;
pub mod telemetry;
pub mod wal;

// The wire types and the remote HTTP client live in the `tfsn-client`
// crate since the cluster split — the SDK remote callers (and the cluster
// router) consume without linking the engine. Re-exported here under
// their historical module paths so `tfsn_engine::proto::…`,
// `crate::query::…` and friends keep resolving.
pub use tfsn_client::{answer, client, proto, query};

use std::cell::RefCell;
use std::time::Instant;

use tfsn_core::compat::{CompatibilityKind, EngineConfig};
use tfsn_core::team::SolveScratch;
use tfsn_skills::task::Task;
use tfsn_skills::SkillId;

pub use answer::{AnswerStatus, TeamAnswer};
pub use batch::BatchOptions;
pub use client::{HttpClient, HttpReply};
pub use deployment::Deployment;
pub use proto::{Request, RequestBody, Response, ServiceError, PROTOCOL_VERSION};
pub use query::{QueryReadError, TeamQuery};
pub use registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource, WalConfig};
pub use server::{HttpServer, ServerOptions, ShutdownHandle};
pub use service::{Deadline, Service, ServiceOptions, StreamOptions};
pub use store::{BatchReport, MutationReport, RelationStore, ServingMode, StorePolicy, TierChoice};
pub use telemetry::{EngineTelemetry, LatencyHistogram, MetricsSnapshot, TelemetryReport};
pub use tfsn_core::team::Objective;
pub use wal::{FsyncPolicy, Wal};

thread_local! {
    /// Per-thread solver scratch (see [`Engine::query`]): rayon batch
    /// workers live for a whole batch in the vendored shim (and for the
    /// process under real rayon), so the candidate-mask allocation is paid
    /// once per worker instead of once per query.
    static SOLVE_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Compiles the documentation book's code fences under `cargo test --doc`:
/// any `rust` (or unannotated) fence in `docs/PROTOCOL.md` must build as a
/// doctest, so the book cannot drift into uncompilable examples.
/// Non-Rust fences (`json`, `console`, `text`) are skipped by rustdoc.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/PROTOCOL.md")]
pub struct ProtocolDocFences;

/// Same guard for `docs/ARCHITECTURE.md`.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/ARCHITECTURE.md")]
pub struct ArchitectureDocFences;

/// Same guard for `docs/OBSERVABILITY.md`.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/OBSERVABILITY.md")]
pub struct ObservabilityDocFences;

/// Same guard for `docs/DURABILITY.md`.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/DURABILITY.md")]
pub struct DurabilityDocFences;

/// Same guard for `docs/CLUSTER.md`.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/CLUSTER.md")]
pub struct ClusterDocFences;

/// Construction-time options for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Tuning for the compatibility-relation algorithms.
    pub compat: EngineConfig,
    /// Worker threads used to build each compatibility matrix
    /// (0 = available parallelism).
    pub build_threads: usize,
    /// Memory-budget policy deciding the serving tier per relation kind.
    pub policy: StorePolicy,
    /// Slow-query log capacity: how many of the slowest queries the
    /// engine's [`telemetry::SlowQueryLog`] retains (`None` =
    /// [`telemetry::SlowQueryLog::DEFAULT_CAPACITY`], `Some(0)` disables
    /// retention). Set by `tfsn serve-http --slow-log N`.
    pub slow_log: Option<usize>,
}

/// The query engine: a [`Deployment`] plus the relation store and
/// serving telemetry. All methods take `&self`; the engine is `Sync` and
/// meant to be shared across threads.
///
/// Since PR 5 the served graph is **live**: [`Engine::mutate`] applies edge
/// inserts/removals/sign flips without a reload, invalidating only the
/// relation rows the change can affect (see [`store::RelationStore::mutate`]).
/// The store's graph snapshot ([`Engine::graph`]) is the post-mutation
/// truth; the deployment keeps the load-time snapshot (skills and the node
/// set never change).
#[derive(Debug)]
pub struct Engine {
    deployment: Deployment,
    store: RelationStore,
    telemetry: EngineTelemetry,
    /// Deployment statistics, keyed by the graph version they were
    /// computed at — the exact diameter inside is an all-pairs BFS and must
    /// not be re-derived for every `/v1/stats` poll on a long-lived server,
    /// but must not survive a graph-changing mutation either.
    stats: parking_lot::Mutex<Option<(u64, tfsn_datasets::DatasetStats)>>,
    /// The durable mutation log, attached once by the registry *after*
    /// replay (so replay does not re-append its own input).
    wal: std::sync::OnceLock<wal::Wal>,
    /// Orders WAL append before store apply across threads: the store's
    /// internal mutation lock serializes applies, but cannot order them
    /// relative to appends — without this lock two racing mutations could
    /// log in one order and apply in the other, and replay would diverge.
    write_order: parking_lot::Mutex<()>,
    /// Replication high-water mark on a follower: how many primary WAL
    /// records have been replayed. `None` until [`Engine::note_replicated`]
    /// first runs, so non-following servers never report the field.
    replicated: parking_lot::Mutex<Option<u64>>,
}

/// Why [`Engine::mutate`] failed: either the mutation itself is invalid
/// against the live graph (a client error), or the write-ahead log could
/// not durably record it (a server fault — the mutation was *not* applied).
#[derive(Debug)]
pub enum MutateError {
    /// The mutation is invalid (unknown node, duplicate edge, …); the
    /// graph and the log are untouched. Serving layers surface this as
    /// `bad_request`.
    Graph(signed_graph::GraphError),
    /// Appending to the write-ahead log failed; the mutation was not
    /// applied (append-before-apply). Serving layers surface this as
    /// `internal`, and the log refuses further appends until the
    /// deployment reloads (see [`wal::Wal::append`]).
    Wal(std::io::Error),
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::Graph(e) => e.fmt(f),
            MutateError::Wal(e) => write!(f, "write-ahead log append failed: {e}"),
        }
    }
}

impl std::error::Error for MutateError {}

impl From<signed_graph::GraphError> for MutateError {
    fn from(e: signed_graph::GraphError) -> Self {
        MutateError::Graph(e)
    }
}

impl Engine {
    /// Creates an engine with default options.
    pub fn new(deployment: Deployment) -> Self {
        Self::with_options(deployment, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(deployment: Deployment, options: EngineOptions) -> Self {
        let store = RelationStore::new(
            deployment.graph_arc(),
            options.compat,
            options.build_threads,
            options.policy,
        );
        let slow_log = options
            .slow_log
            .unwrap_or(telemetry::SlowQueryLog::DEFAULT_CAPACITY);
        Engine {
            deployment,
            store,
            telemetry: EngineTelemetry::new(slow_log),
            stats: parking_lot::Mutex::new(None),
            wal: std::sync::OnceLock::new(),
            write_order: parking_lot::Mutex::new(()),
            replicated: parking_lot::Mutex::new(None),
        }
    }

    /// The deployment being served. Holds the load-time graph snapshot;
    /// after mutations, [`Engine::graph`] is the live truth.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The tiered relation store (for diagnostics and tests).
    pub fn store(&self) -> &RelationStore {
        &self.store
    }

    /// The signed network currently being served, mutations included.
    pub fn graph(&self) -> std::sync::Arc<signed_graph::SignedGraph> {
        self.store.graph()
    }

    /// Deployment statistics, computed once per graph version — recomputed
    /// after a mutation that changed the graph (the edge counts, balance
    /// and diameter all may move), memoized between them. No-op sign sets
    /// do not invalidate the cache: the exact diameter inside is an
    /// all-pairs BFS.
    pub fn cached_stats(&self) -> tfsn_datasets::DatasetStats {
        let version = self.store.graph_version() as u64;
        let mut guard = self.stats.lock();
        if let Some((v, stats)) = &*guard {
            if *v == version {
                return stats.clone();
            }
        }
        let graph = self.store.graph();
        let stats = tfsn_datasets::DatasetStats::compute_parts(
            self.deployment.name(),
            &graph,
            self.deployment.universe(),
            self.deployment.skills(),
        );
        *guard = Some((version, stats.clone()));
        stats
    }

    /// Applies one live edge mutation to the served graph (see
    /// [`RelationStore::mutate`] for the invalidation semantics). Failures
    /// are typed [`MutateError`]s and leave the deployment untouched.
    ///
    /// With a write-ahead log attached ([`Engine::attach_wal`]) the
    /// mutation is durably appended **before** it is applied, under one
    /// write-order lock — so log order equals apply order, and replaying
    /// the log reproduces the live graph byte-for-byte. A mutation that
    /// fails graph validation still appends first; on replay it re-fails
    /// identically, so the divergence window is empty either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use signed_graph::EdgeMutation;
    /// use tfsn_engine::registry::DeploymentSource;
    /// use tfsn_engine::Engine;
    ///
    /// let deployment = DeploymentSource::parse("synthetic:nodes=50,edges=120,skills=8")
    ///     .unwrap()
    ///     .load();
    /// let engine = Engine::new(deployment);
    /// let before = engine.graph().edge_count();
    ///
    /// // Remove an existing edge, then re-insert it with the opposite sign.
    /// let edge = engine.graph().edges()[0];
    /// let report = engine
    ///     .mutate(&EdgeMutation::Remove { u: edge.u, v: edge.v })
    ///     .unwrap();
    /// assert!(report.effect.changed());
    /// assert_eq!(engine.graph().edge_count(), before - 1);
    /// engine
    ///     .mutate(&EdgeMutation::Insert { u: edge.u, v: edge.v, sign: edge.sign.flip() })
    ///     .unwrap();
    /// assert_eq!(engine.graph().edge_count(), before);
    /// assert_eq!(engine.metrics().mutations_applied, 2);
    /// ```
    pub fn mutate(
        &self,
        mutation: &signed_graph::EdgeMutation,
    ) -> Result<MutationReport, MutateError> {
        let start = Instant::now();
        let _order = self.write_order.lock();
        if let Some(wal) = self.wal.get() {
            let receipt = wal.append(mutation).map_err(MutateError::Wal)?;
            self.telemetry.record_wal_append(&receipt);
        }
        let report = self.store.mutate(mutation).map_err(MutateError::Graph);
        if report.is_ok() {
            self.telemetry
                .record_op(telemetry::Op::Mutate, start.elapsed().as_micros() as u64);
        }
        report
    }

    /// Applies a batch of mutations under **one** write-order acquisition:
    /// the batch is durably appended as one atomic WAL group *before* any
    /// of it is applied (crash recovery replays all of it or none of it),
    /// then swept through [`RelationStore::mutate_batch`] — one merged
    /// invalidation pass instead of one per mutation. Batches larger than
    /// [`proto::MAX_BATCH_MUTATIONS`] are chunked into consecutive groups
    /// (each chunk atomic on its own), so arbitrarily large replication
    /// windows replay through this one path.
    ///
    /// Answer-equivalent to folding [`Engine::mutate`] over the batch: a
    /// mutation that fails graph validation reports its
    /// [`GraphError`](signed_graph::GraphError) in
    /// its [`BatchReport::outcomes`] slot and later mutations still apply.
    /// Only a write-ahead log failure aborts the call.
    pub fn mutate_batch(
        &self,
        mutations: &[signed_graph::EdgeMutation],
    ) -> Result<BatchReport, MutateError> {
        let start = Instant::now();
        let _order = self.write_order.lock();
        let mut combined = BatchReport {
            outcomes: Vec::with_capacity(mutations.len()),
            rows_invalidated: 0,
            rows_repaired: 0,
            kinds_downgraded: Vec::new(),
        };
        for chunk in mutations.chunks(proto::MAX_BATCH_MUTATIONS) {
            if let Some(wal) = self.wal.get() {
                let receipt = wal.append_batch(chunk).map_err(MutateError::Wal)?;
                self.telemetry.record_wal_append(&receipt);
            }
            let report = self.store.mutate_batch(chunk);
            combined.outcomes.extend(report.outcomes);
            combined.rows_invalidated += report.rows_invalidated;
            combined.rows_repaired += report.rows_repaired;
            for kind in report.kinds_downgraded {
                if !combined.kinds_downgraded.contains(&kind) {
                    combined.kinds_downgraded.push(kind);
                }
            }
        }
        self.telemetry
            .record_op(telemetry::Op::Mutate, start.elapsed().as_micros() as u64);
        Ok(combined)
    }

    /// Attaches the durable mutation log. Called once by the registry
    /// *after* replaying the log's existing records through
    /// [`Engine::mutate`] — attaching first would re-append every replayed
    /// record. Returns the log back when one is already attached.
    pub fn attach_wal(&self, wal: wal::Wal) -> Result<(), wal::Wal> {
        self.wal.set(wal)
    }

    /// The attached mutation log, if any.
    pub fn wal(&self) -> Option<&wal::Wal> {
        self.wal.get()
    }

    /// Records the replication high-water mark: `seq` primary WAL records
    /// have now been replayed into this engine. Called by the follower
    /// loop after each applied `wal_pull` batch; monotone (a stale writer
    /// can never move the mark backwards).
    pub fn note_replicated(&self, seq: u64) {
        let mut guard = self.replicated.lock();
        *guard = Some(guard.map_or(seq, |prev| prev.max(seq)));
    }

    /// The replication high-water mark, when this engine follows a
    /// primary (`None` on ordinary servers — the `stats` payload omits
    /// the field entirely).
    pub fn replicated_seq(&self) -> Option<u64> {
        *self.replicated.lock()
    }

    /// A snapshot of the serving metrics, including the store gauges and
    /// the query-latency percentiles from the telemetry histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            matrix_builds: self.store.build_count() as u64,
            row_builds: self.store.row_build_count() as u64,
            row_evictions: self.store.row_eviction_count() as u64,
            resident_rows: self.store.resident_row_count() as u64,
            resident_bytes: self.store.resident_bytes() as u64,
            mutations_applied: self.store.mutation_count() as u64,
            rows_invalidated: self.store.rows_invalidated_count() as u64,
            ..self.telemetry.query_metrics()
        }
    }

    /// The engine's telemetry: per-op/per-phase/per-kind/per-objective
    /// histograms, the query and WAL counters, and the slow-query log.
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// The serving plan the store policy assigns to this deployment —
    /// deterministic (nothing is built to report it). This fills the
    /// [`proto::ServingPlan`] wire type, which lives crate-side in
    /// `tfsn-client` and cannot see the live policy itself.
    pub fn serving_plan(&self) -> proto::ServingPlan {
        let policy = self.store.policy();
        let nodes = self.deployment.user_count();
        proto::ServingPlan {
            mode: policy.mode.label().to_string(),
            memory_budget_bytes: policy.memory_budget.map(|b| b as u64),
            tier: policy.tier_for(nodes).label().to_string(),
            estimated_matrix_bytes: tfsn_core::compat::estimated_matrix_bytes(nodes) as u64,
            estimated_row_bytes: tfsn_core::compat::estimated_row_bytes(nodes) as u64,
            budget_resident_rows: policy
                .memory_budget
                .map(|b| (b / tfsn_core::compat::estimated_row_bytes(nodes).max(1)) as u64),
        }
    }

    /// Pre-initialises the shards for `kinds` so subsequent queries are
    /// warm: kinds planned `matrix` are filled; kinds planned `rows` get
    /// their (empty) row store, whose rows fill on demand.
    pub fn warm(&self, kinds: &[CompatibilityKind]) {
        let start = Instant::now();
        for &kind in kinds {
            self.store.fetch(kind);
        }
        self.telemetry
            .record_op(telemetry::Op::Warm, start.elapsed().as_micros() as u64);
    }

    /// Answers one query.
    ///
    /// Accounting: the answer is a cache miss iff **this** call performed
    /// build work — it ran the kind's fill (concurrent callers that merely
    /// blocked on it are hits), or it computed at least one row.
    /// Build/wait time is reported in `build_micros`, separate from solver
    /// time, so cold-start stalls do not masquerade as solver latency.
    pub fn query(&self, query: &TeamQuery) -> TeamAnswer {
        let start = Instant::now();
        // When the shard was already initialised, the fetch is a plain
        // lookup and its (microscopic) cost stays out of build accounting;
        // otherwise the fetch time is this query's build — or its wait on
        // another query's in-flight build.
        let resident_before = self.store.is_resident(query.kind);
        let fetched = self.store.fetch(query.kind);
        let fetch_micros = if resident_before {
            0
        } else {
            start.elapsed().as_micros() as u64
        };
        let scope = fetched.scope();
        let comp = scope.compat();
        let task = Task::new(query.task.iter().map(|&s| SkillId::new(s)));
        let instance = self.deployment.instance();
        // An absent objective is the default min-diameter objective.
        let objective = query.objective.clone().unwrap_or_default();
        // One solver scratch per worker thread, shared across every query
        // the thread answers (and across engines — the buffers resize when
        // deployments differ in size): the greedy candidate-mask words are
        // reseeded in place instead of reallocated per solve.
        let result = SOLVE_SCRATCH.with(|scratch| {
            query.solver.solve_objective_with_scratch(
                &instance,
                comp,
                &task,
                &objective,
                &mut scratch.borrow_mut(),
            )
        });

        let (status, members, diameter, score) = match result {
            Ok(team) => {
                let diameter = team.diameter(comp);
                let score = objective.team_score(comp, &team);
                let members: Vec<usize> = team.members().iter().map(|m| m.index()).collect();
                (AnswerStatus::Ok, members, diameter, score)
            }
            Err(e) => (AnswerStatus::from_error(&e), Vec::new(), None, None),
        };
        // Phase split: `build_wait` is the fetch slice (the fill or a wait on
        // it, or one-time row-store creation) plus time blocked on *other*
        // queries' in-flight row builds; `row_compute` is the rows this
        // query computed itself; the remainder is solver + lookups. The
        // row-build waits come from the tracker (`RowFetch::wait_micros`),
        // so stalls no longer masquerade as solver latency.
        let build_wait_micros = fetch_micros + scope.wait_micros();
        let row_compute_micros = scope.build_micros();
        let build_micros = build_wait_micros + row_compute_micros;
        let cache_hit = !fetched.built_matrix() && scope.rows_built() == 0;
        let micros = start.elapsed().as_micros() as u64;
        let answer = TeamAnswer {
            id: query.id,
            status,
            kind: query.kind,
            algorithm: query.solver.label().to_string(),
            cardinality: members.len(),
            members,
            diameter,
            micros,
            build_micros,
            cache_hit,
            objective: query.objective.as_ref().map(|o| o.label().to_string()),
            score,
        };
        self.telemetry.record_query(telemetry::QuerySample {
            kind: query.kind,
            algorithm: answer.algorithm.clone(),
            objective: objective.label(),
            total_micros: micros,
            build_wait_micros,
            row_compute_micros,
            team_size: answer.cardinality as u64,
            solved: answer.status == AnswerStatus::Ok,
        });
        self.telemetry.record_cache(cache_hit);
        answer
    }

    /// Answers a batch of queries in parallel. Answers come back in query
    /// order and are deterministic regardless of the worker-thread count
    /// (timing fields aside).
    pub fn batch(&self, queries: &[TeamQuery], options: &BatchOptions) -> Vec<TeamAnswer> {
        let start = Instant::now();
        let answers = batch::run(self, queries, options);
        self.telemetry
            .record_op(telemetry::Op::Batch, start.elapsed().as_micros() as u64);
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsn_core::team::Solver;

    fn slashdot_engine() -> Engine {
        Engine::new(Deployment::from_dataset(tfsn_datasets::slashdot()))
    }

    #[test]
    fn single_query_solves_and_records_metrics() {
        let engine = slashdot_engine();
        let q = TeamQuery::new([0, 1])
            .with_id(42)
            .with_kind(CompatibilityKind::Nne);
        let a = engine.query(&q);
        assert_eq!(a.id, Some(42));
        assert_eq!(a.kind, CompatibilityKind::Nne);
        assert!(!a.cache_hit, "first query of a kind must be a miss");
        if a.status == AnswerStatus::Ok {
            assert_eq!(a.cardinality, a.members.len());
            assert!(a.cardinality >= 1);
        }
        let again = engine.query(&q);
        assert!(again.cache_hit, "second query of a kind must hit the cache");
        assert_eq!(again.status, a.status);
        assert_eq!(again.members, a.members);
        let m = engine.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.matrix_builds, 1);
        assert!(m.resident_bytes > 0);
        assert_eq!(engine.store().build_count(), 1);
    }

    #[test]
    fn solved_answers_are_valid_teams() {
        let engine = slashdot_engine();
        let queries: Vec<TeamQuery> = (0..20)
            .map(|i| {
                TeamQuery::new([i % 7, (i + 3) % 7])
                    .with_id(i as u64)
                    .with_kind(CompatibilityKind::Spo)
            })
            .collect();
        let answers = engine.batch(&queries, &BatchOptions::default());
        let fetched = engine.store().fetch(CompatibilityKind::Spo);
        let scope = fetched.scope();
        let comp = scope.compat();
        let mut solved = 0;
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(q.id, a.id);
            if a.status == AnswerStatus::Ok {
                solved += 1;
                let team =
                    tfsn_core::Team::new(a.members.iter().map(|&m| signed_graph::NodeId::new(m)));
                let task = Task::new(q.task.iter().map(|&s| SkillId::new(s)));
                assert!(team.is_valid(engine.deployment().skills(), &task, comp));
                assert_eq!(a.diameter, team.diameter(comp));
            }
        }
        assert!(solved > 0, "no query in the smoke batch solved at all");
    }

    #[test]
    fn exhaustive_solver_is_dispatched() {
        let engine = slashdot_engine();
        // A rare skill (high id under Zipf) keeps the relevant pool small
        // enough for the exact solver; if it is too popular the answer is
        // budget_exceeded, which is also a valid dispatch outcome.
        let q = TeamQuery::new([900])
            .with_kind(CompatibilityKind::Nne)
            .with_solver(Solver::Exhaustive);
        let a = engine.query(&q);
        assert_eq!(a.algorithm, "EXHAUSTIVE");
        assert!(matches!(
            a.status,
            AnswerStatus::Ok | AnswerStatus::Uncoverable | AnswerStatus::BudgetExceeded
        ));
    }
}
