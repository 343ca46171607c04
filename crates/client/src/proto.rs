//! The transport-agnostic service protocol: a versioned [`Request`] /
//! [`Response`] envelope with typed error variants.
//!
//! Every transport — the CLI `serve-batch`/`stats` adapters, the engine's
//! HTTP/1.1 front-end, the cluster router, and remote clients built on
//! this crate — speaks this protocol against one service. A request names
//! an operation (`op`), optionally a deployment in the service's registry,
//! and carries the protocol `version` so old clients fail loudly
//! ([`ServiceError::UnsupportedVersion`]) instead of mis-parsing.
//!
//! On the wire an envelope is one JSON object:
//!
//! ```json
//! {"version": 1, "op": "batch", "deployment": "epinions",
//!  "timing": false, "queries": [{"task": [3, 19, 4]}]}
//! ```
//!
//! ```json
//! {"version": 1, "op": "batch", "answers": [{"status": "ok", "...": "..."}]}
//! ```
//!
//! Errors are a response variant, not an HTTP afterthought:
//!
//! ```json
//! {"version": 1, "op": "error",
//!  "error": {"code": "unknown_deployment", "deployment": "prod",
//!            "message": "unknown deployment `prod` (available: slashdot)"}}
//! ```
//!
//! The serde impls are hand-written (like the [`crate::TeamQuery`] wire
//! types) so the format stays flat and label-based rather than mirroring
//! Rust enum structure; `tests/proto.rs` property-tests that every variant —
//! errors included — survives serialize → parse.

use std::fmt;

use serde::{Deserialize, Error as SerdeError, JsonWriter, Serialize, Value};
use signed_graph::{EdgeMutation, NodeId, Sign};
use tfsn_core::compat::CompatibilityKind;
use tfsn_datasets::DatasetStats;

use crate::answer::TeamAnswer;
use crate::query::TeamQuery;
use crate::report::{MetricsSnapshot, TelemetryReport};

/// The protocol version this build speaks. Bump on breaking envelope
/// changes; requests carrying any other version are rejected with
/// [`ServiceError::UnsupportedVersion`] before their body is interpreted.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on mutations per `mutate_batch` envelope (and therefore per
/// write-ahead-log group record). Enough to swallow a full replication pull
/// chunk in one sweep, small enough that one group payload stays far below
/// the log's record-size cap.
pub const MAX_BATCH_MUTATIONS: usize = 1024;

/// One request envelope: the operation body plus the deployment it targets
/// (`None` = the registry's default deployment).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Named deployment to serve from (`None` = registry default).
    pub deployment: Option<String>,
    /// The operation.
    pub body: RequestBody,
    /// Per-request deadline budget in milliseconds, counted from when the
    /// service starts dispatching. Work still pending at the deadline is
    /// abandoned with [`ServiceError::DeadlineExceeded`] — checked before
    /// each solve and between batch chunks, so granularity is one chunk.
    /// `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request against the default deployment.
    pub fn new(body: RequestBody) -> Self {
        Request {
            deployment: None,
            body,
            deadline_ms: None,
        }
    }

    /// Targets a named deployment.
    pub fn on(mut self, deployment: impl Into<String>) -> Self {
        self.deployment = Some(deployment.into());
        self
    }

    /// Sets the deadline budget (milliseconds from dispatch).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Parses an envelope from a [`Value`] tree with typed errors:
    /// version mismatches become [`ServiceError::UnsupportedVersion`],
    /// unknown `op` labels [`ServiceError::UnknownOp`], everything else
    /// malformed [`ServiceError::BadRequest`].
    pub fn parse_value(v: &Value) -> Result<Self, ServiceError> {
        let map = v
            .as_map()
            .ok_or_else(|| bad("request envelope must be a JSON object"))?;
        let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let version = field("version")
            .ok_or_else(|| bad("request is missing required field `version`"))?
            .as_u64()
            .ok_or_else(|| bad("field `version` must be a non-negative integer"))?;
        if version != u64::from(PROTOCOL_VERSION) {
            return Err(ServiceError::UnsupportedVersion {
                requested: version,
                supported: PROTOCOL_VERSION,
            });
        }
        let deployment = match field("deployment") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad("field `deployment` must be a string"))?
                    .to_string(),
            ),
        };
        let op = field("op")
            .ok_or_else(|| bad("request is missing required field `op`"))?
            .as_str()
            .ok_or_else(|| bad("field `op` must be a string label"))?;
        let timing = match field("timing") {
            None | Some(Value::Null) => true,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("field `timing` must be a boolean")),
        };
        let deadline_ms = match field("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                bad("field `deadline_ms` must be a non-negative integer of milliseconds")
            })?),
        };
        let body =
            match op {
                "query" => {
                    let q = field("query").ok_or_else(|| bad("op `query` needs field `query`"))?;
                    RequestBody::Query {
                        query: TeamQuery::from_value(q)
                            .map_err(|e| bad(format!("field `query`: {e}")))?,
                        timing,
                    }
                }
                "batch" => {
                    let qs = field("queries")
                        .ok_or_else(|| bad("op `batch` needs field `queries`"))?
                        .as_seq()
                        .ok_or_else(|| bad("field `queries` must be an array"))?;
                    let queries = qs
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            TeamQuery::from_value(q).map_err(|e| bad(format!("queries[{i}]: {e}")))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    RequestBody::Batch { queries, timing }
                }
                "warm" => RequestBody::Warm {
                    kinds: parse_kinds(field("kinds"), "kinds")?,
                },
                "stats" => RequestBody::Stats,
                "metrics" => RequestBody::Metrics,
                "telemetry" => RequestBody::Telemetry,
                "deployments" => RequestBody::Deployments,
                "wal_pull" => RequestBody::WalPull {
                    from_seq: match field("from_seq") {
                        None | Some(Value::Null) => 0,
                        Some(v) => v.as_u64().ok_or_else(|| {
                            bad("field `from_seq` must be a non-negative record index")
                        })?,
                    },
                    max: match field("max") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(v.as_u64().ok_or_else(|| {
                            bad("field `max` must be a non-negative record count")
                        })?),
                    },
                },
                "mutate_batch" => RequestBody::MutateBatch {
                    mutations: parse_mutations_field(
                        field("mutations")
                            .ok_or_else(|| bad("op `mutate_batch` needs field `mutations`"))?,
                    )?,
                },
                op => match parse_mutation_fields(op, &field)? {
                    Some(body) => body,
                    None => {
                        return Err(ServiceError::UnknownOp { op: op.to_string() });
                    }
                },
            };
        Ok(Request {
            deployment,
            body,
            deadline_ms,
        })
    }

    /// Parses an envelope from JSON text (see [`Request::parse_value`]).
    pub fn parse_json(json: &str) -> Result<Self, ServiceError> {
        let value: Value =
            serde_json::from_str(json).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        Request::parse_value(&value)
    }
}

/// The operation of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Answer one team query. `timing: false` zeroes the latency fields of
    /// the answer so output is byte-stable across runs and transports.
    Query {
        /// The query.
        query: TeamQuery,
        /// Report per-query latency fields (default `true`).
        timing: bool,
    },
    /// Answer a batch of queries (order-stable, parallel).
    Batch {
        /// The queries, answered in order.
        queries: Vec<TeamQuery>,
        /// Report per-query latency fields (default `true`).
        timing: bool,
    },
    /// Pre-initialise relation state so subsequent queries are warm. An
    /// empty `kinds` list warms every evaluated relation kind.
    Warm {
        /// Relation kinds to warm (empty = all evaluated kinds).
        kinds: Vec<CompatibilityKind>,
    },
    /// Deployment statistics plus the serving plan.
    Stats,
    /// Serving metrics of every loaded deployment.
    Metrics,
    /// Latency telemetry (per-op/per-phase/per-kind percentile summaries
    /// and the slow-query log) of every loaded deployment — or of the one
    /// deployment the envelope names.
    Telemetry,
    /// List the registry's deployments.
    Deployments,
    /// Pull acknowledged records from the deployment's write-ahead log —
    /// the replication feed (`GET /v1/wal`). Record sequence numbers are
    /// 0-based positions in the log; followers resume from the `next_seq`
    /// of the previous pull.
    WalPull {
        /// First record sequence wanted (0 = from the beginning).
        from_seq: u64,
        /// At most this many records (`None` = the server's cap).
        max: Option<u64>,
    },
    /// Insert an edge into the live graph (`sign` travels as `"+"`/`"-"`).
    /// Mutations target loaded deployments only — they never force a load.
    EdgeInsert {
        /// One endpoint (a user id).
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The new edge's label.
        sign: Sign,
    },
    /// Remove an existing edge (either sign) from the live graph.
    EdgeRemove {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Set the sign of an existing edge. Setting the sign it already has
    /// is acknowledged (`changed: false`) without invalidating anything.
    EdgeSetSign {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The label the edge should have.
        sign: Sign,
    },
    /// Apply up to [`MAX_BATCH_MUTATIONS`] mutations in one envelope: one
    /// write-order acquisition, one merged invalidation sweep, one atomic
    /// write-ahead-log group (crash recovery replays all of the batch or
    /// none of it). Answer-equivalent to sending the mutations one by one —
    /// a rejected mutation reports its error in place and later mutations
    /// still apply.
    MutateBatch {
        /// The mutations, applied in order (each the same shape as a bare
        /// mutation object: `{"op": "edge_insert", "u": 1, "v": 2,
        /// "sign": "+"}`).
        mutations: Vec<EdgeMutation>,
    },
}

impl RequestBody {
    /// Every request `op` label this protocol version speaks — the closure
    /// the docs-coverage test checks `docs/PROTOCOL.md` against, so a new
    /// operation cannot ship undocumented.
    pub const ALL_OPS: [&'static str; 12] = [
        "query",
        "batch",
        "warm",
        "stats",
        "metrics",
        "telemetry",
        "deployments",
        "wal_pull",
        "edge_insert",
        "edge_remove",
        "edge_set_sign",
        "mutate_batch",
    ];

    /// The wire label of this operation.
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::Query { .. } => "query",
            RequestBody::Batch { .. } => "batch",
            RequestBody::Warm { .. } => "warm",
            RequestBody::Stats => "stats",
            RequestBody::Metrics => "metrics",
            RequestBody::Telemetry => "telemetry",
            RequestBody::Deployments => "deployments",
            RequestBody::WalPull { .. } => "wal_pull",
            RequestBody::EdgeInsert { .. } => "edge_insert",
            RequestBody::EdgeRemove { .. } => "edge_remove",
            RequestBody::EdgeSetSign { .. } => "edge_set_sign",
            RequestBody::MutateBatch { .. } => "mutate_batch",
        }
    }

    /// The graph-delta operation of a mutation request (`None` for the
    /// non-mutating operations).
    pub fn mutation(&self) -> Option<EdgeMutation> {
        match *self {
            RequestBody::EdgeInsert { u, v, sign } => Some(EdgeMutation::Insert {
                u: NodeId::new(u),
                v: NodeId::new(v),
                sign,
            }),
            RequestBody::EdgeRemove { u, v } => Some(EdgeMutation::Remove {
                u: NodeId::new(u),
                v: NodeId::new(v),
            }),
            RequestBody::EdgeSetSign { u, v, sign } => Some(EdgeMutation::SetSign {
                u: NodeId::new(u),
                v: NodeId::new(v),
                sign,
            }),
            _ => None,
        }
    }
}

/// Parses the fields of a mutation op (`edge_insert` / `edge_remove` /
/// `edge_set_sign`) given a field accessor; `Ok(None)` when `op` is not a
/// mutation label. Shared by the envelope parser, the bare
/// `POST /v1/mutate` body and the `tfsn mutate` JSONL stream.
fn parse_mutation_fields<'a>(
    op: &str,
    field: &impl Fn(&str) -> Option<&'a Value>,
) -> Result<Option<RequestBody>, ServiceError> {
    if !matches!(op, "edge_insert" | "edge_remove" | "edge_set_sign") {
        return Ok(None);
    }
    let node = |key: &str| {
        field(key)
            .ok_or_else(|| bad(format!("op `{op}` needs field `{key}`")))?
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| bad(format!("field `{key}` must be a non-negative user id")))
    };
    let sign = || {
        let v = field("sign").ok_or_else(|| bad(format!("op `{op}` needs field `sign`")))?;
        let label = v
            .as_str()
            .ok_or_else(|| bad("field `sign` must be \"+\" or \"-\""))?;
        match label {
            "+" | "positive" => Ok(Sign::Positive),
            "-" | "negative" => Ok(Sign::Negative),
            other => Err(bad(format!(
                "field `sign` must be \"+\" or \"-\", got `{other}`"
            ))),
        }
    };
    let (u, v) = (node("u")?, node("v")?);
    Ok(Some(match op {
        "edge_insert" => RequestBody::EdgeInsert {
            u,
            v,
            sign: sign()?,
        },
        "edge_remove" => RequestBody::EdgeRemove { u, v },
        _ => RequestBody::EdgeSetSign {
            u,
            v,
            sign: sign()?,
        },
    }))
}

/// Parses a `mutations` array (bare mutation objects, in apply order) and
/// enforces the [`MAX_BATCH_MUTATIONS`] cap. Shared by the `mutate_batch`
/// envelope arm and the write-ahead log's group-record decoder.
fn parse_mutations_field(v: &Value) -> Result<Vec<EdgeMutation>, ServiceError> {
    let seq = v
        .as_seq()
        .ok_or_else(|| bad("field `mutations` must be an array of mutation objects"))?;
    if seq.is_empty() {
        return Err(bad("field `mutations` needs at least one mutation"));
    }
    if seq.len() > MAX_BATCH_MUTATIONS {
        return Err(bad(format!(
            "field `mutations` accepts at most {MAX_BATCH_MUTATIONS} mutations per batch, got {}",
            seq.len()
        )));
    }
    seq.iter()
        .enumerate()
        .map(|(i, m)| {
            parse_mutation_value(m)
                .map(|body| body.mutation().expect("mutation bodies only"))
                .map_err(|e| bad(format!("mutations[{i}]: {e}")))
        })
        .collect()
}

/// Parses one *bare* mutation object — the `POST /v1/mutate` request body
/// and one line of the `tfsn mutate` JSONL stream:
///
/// ```json
/// {"op": "edge_set_sign", "u": 17, "v": 42, "sign": "-"}
/// ```
///
/// Unlike envelopes there is no `version` field; the transport that carries
/// it (the versioned URL `/v1/mutate`, or the CLI of the same build) pins
/// the version.
pub fn parse_mutation_value(v: &Value) -> Result<RequestBody, ServiceError> {
    let map = v
        .as_map()
        .ok_or_else(|| bad("mutation must be a JSON object"))?;
    let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    // The bare object has no deployment channel — that is the transport's
    // job (`?deployment=` on /v1/mutate, `--select` on the CLI). Silently
    // ignoring an envelope-style `deployment` field here would apply the
    // mutation to the *default* deployment: a cross-deployment write, not
    // a tolerable extra field.
    if field("deployment").is_some() {
        return Err(bad(
            "mutation objects carry no `deployment` field; address a deployment with \
             `?deployment=NAME` (HTTP) or `--select NAME` (CLI), or use the envelope \
             protocol via /v1/rpc",
        ));
    }
    let op = field("op")
        .ok_or_else(|| bad("mutation is missing required field `op`"))?
        .as_str()
        .ok_or_else(|| bad("field `op` must be a string label"))?;
    parse_mutation_fields(op, &field)?.ok_or_else(|| {
        bad(format!(
            "`{op}` is not a mutation op (expected edge_insert, edge_remove or edge_set_sign)"
        ))
    })
}

/// [`parse_mutation_value`] over JSON text.
pub fn parse_mutation_json(json: &str) -> Result<RequestBody, ServiceError> {
    let value: Value = serde_json::from_str(json).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    parse_mutation_value(&value)
}

/// The wire label of a sign (`"+"` / `"-"`).
pub fn sign_label(sign: Sign) -> &'static str {
    match sign {
        Sign::Positive => "+",
        Sign::Negative => "-",
    }
}

/// Writes the bare wire object of one mutation — the exact shape
/// [`parse_mutation_value`] accepts, and therefore one `tfsn mutate` JSONL
/// line or a `POST /v1/mutate` body. The engine's write-ahead log (its
/// `wal` module) frames these same objects, so a WAL export *is* a
/// replayable mutation stream.
fn write_mutation(w: &mut JsonWriter<'_>, mutation: &EdgeMutation) {
    let mut m = w.object();
    m.field("op", mutation.op());
    let (u, v) = mutation.endpoints();
    m.field("u", &u.index());
    m.field("v", &v.index());
    match *mutation {
        EdgeMutation::Insert { sign, .. } | EdgeMutation::SetSign { sign, .. } => {
            m.field("sign", sign_label(sign));
        }
        EdgeMutation::Remove { .. } => {}
    }
    m.end();
}

/// Writes an array of mutation wire objects.
fn write_mutations(w: &mut JsonWriter<'_>, mutations: &[EdgeMutation]) {
    let mut a = w.array();
    for mutation in mutations {
        a.element_with(|w| write_mutation(w, mutation));
    }
    a.end();
}

/// One mutation's bare wire object as compact JSON text (one JSONL line,
/// no newline).
pub fn mutation_json(mutation: &EdgeMutation) -> String {
    let mut out = String::new();
    write_mutation(&mut JsonWriter::compact(&mut out), mutation);
    out
}

/// The wire object of one mutation *group* — the payload of a batched
/// write-ahead-log record — as compact JSON text:
///
/// ```json
/// {"op": "mutate_batch", "mutations": [{"op": "edge_insert", "u": 1,
///  "v": 2, "sign": "+"}, {"op": "edge_remove", "u": 3, "v": 4}]}
/// ```
pub fn mutation_batch_json(mutations: &[EdgeMutation]) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::compact(&mut out);
    let mut m = w.object();
    m.field("op", "mutate_batch");
    m.field_with("mutations", |w| write_mutations(w, mutations));
    m.end();
    out
}

/// [`mutation_batch_json`] parsed back into a [`Value`] tree, for callers
/// that edit the object before sending it.
pub fn mutation_batch_value(mutations: &[EdgeMutation]) -> Value {
    serde_json::parse_value(&mutation_batch_json(mutations)).expect("the encoder writes valid JSON")
}

/// Parses one write-ahead-log record payload: either a single bare
/// mutation object (one mutation) or a `mutate_batch` group (its mutations
/// in apply order). The flattened view is what log consumers see — group
/// boundaries matter for crash atomicity, not for sequence numbering.
pub fn parse_mutation_group_json(json: &str) -> Result<Vec<EdgeMutation>, ServiceError> {
    let value: Value = serde_json::from_str(json).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let map = value
        .as_map()
        .ok_or_else(|| bad("mutation record must be a JSON object"))?;
    let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if field("op").and_then(|v| v.as_str()) == Some("mutate_batch") {
        return parse_mutations_field(
            field("mutations").ok_or_else(|| bad("op `mutate_batch` needs field `mutations`"))?,
        );
    }
    let body = parse_mutation_value(&value)?;
    Ok(vec![body.mutation().expect("mutation bodies only")])
}

impl Serialize for Request {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        m.field("version", &PROTOCOL_VERSION);
        m.field("op", self.body.op());
        if let Some(d) = &self.deployment {
            m.field("deployment", d);
        }
        if let Some(ms) = self.deadline_ms {
            m.field("deadline_ms", &ms);
        }
        match &self.body {
            RequestBody::Query { query, timing } => {
                if !timing {
                    m.field("timing", &false);
                }
                m.field("query", query);
            }
            RequestBody::Batch { queries, timing } => {
                if !timing {
                    m.field("timing", &false);
                }
                m.field("queries", queries);
            }
            RequestBody::Warm { kinds } => m.field_with("kinds", |w| write_kinds(w, kinds)),
            RequestBody::Stats
            | RequestBody::Metrics
            | RequestBody::Telemetry
            | RequestBody::Deployments => {}
            RequestBody::WalPull { from_seq, max } => {
                m.field("from_seq", from_seq);
                if let Some(max) = max {
                    m.field("max", max);
                }
            }
            RequestBody::EdgeInsert { u, v, sign } | RequestBody::EdgeSetSign { u, v, sign } => {
                m.field("u", u);
                m.field("v", v);
                m.field("sign", sign_label(*sign));
            }
            RequestBody::EdgeRemove { u, v } => {
                m.field("u", u);
                m.field("v", v);
            }
            RequestBody::MutateBatch { mutations } => {
                m.field_with("mutations", |w| write_mutations(w, mutations));
            }
        }
        m.end();
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Request::parse_value(v).map_err(|e| SerdeError::custom(e.to_string()))
    }
}

/// One response envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The answer to a [`RequestBody::Query`].
    Answer(TeamAnswer),
    /// The answers to a [`RequestBody::Batch`], in query order.
    Batch(Vec<TeamAnswer>),
    /// Acknowledgement of a [`RequestBody::Warm`].
    Warmed {
        /// The deployment that was warmed.
        deployment: String,
        /// The kinds that were warmed.
        kinds: Vec<CompatibilityKind>,
        /// Wall-clock warm-up time, microseconds.
        micros: u64,
    },
    /// Deployment statistics plus the serving plan.
    Stats(DeploymentStats),
    /// Serving metrics per loaded deployment plus their sum.
    Metrics {
        /// Per-deployment snapshots (loaded deployments only — metrics do
        /// not force a load).
        deployments: Vec<DeploymentMetrics>,
        /// The field-wise sum over `deployments`.
        total: MetricsSnapshot,
    },
    /// Latency telemetry per loaded deployment (see
    /// [`TelemetryReport`]). Exact cross-deployment
    /// percentiles require merging histograms, so no `total` is summed
    /// here; the `metrics` op's total carries merged query percentiles.
    Telemetry {
        /// Per-deployment telemetry reports (loaded deployments only —
        /// telemetry does not force a load).
        deployments: Vec<DeploymentTelemetry>,
    },
    /// The registry listing.
    Deployments(Vec<DeploymentInfo>),
    /// A slice of the deployment's write-ahead log, for
    /// [`RequestBody::WalPull`]. Records are the bare mutation wire
    /// objects, in log (= apply) order; replaying them through the
    /// mutation path reproduces the primary's graph.
    WalRecords {
        /// The deployment whose log was pulled.
        deployment: String,
        /// Sequence of the first record in `records` (echoes the
        /// request's effective `from_seq`, clamped to the log length).
        from_seq: u64,
        /// Where the next pull should resume: `from_seq + records.len()`.
        next_seq: u64,
        /// Acknowledged records in the whole log at serve time — so
        /// `end_seq - next_seq` is the follower's remaining lag.
        end_seq: u64,
        /// The records themselves (possibly fewer than requested).
        records: Vec<EdgeMutation>,
    },
    /// Acknowledgement of a mutation op (`edge_insert` / `edge_remove` /
    /// `edge_set_sign`).
    Mutated {
        /// The deployment that was mutated.
        deployment: String,
        /// The mutation op that was applied (`edge_insert`, …).
        mutation: String,
        /// `false` for a no-op `edge_set_sign` to the sign the edge already
        /// had (nothing was invalidated).
        changed: bool,
        /// Resident relation rows invalidated by the mutation.
        rows_invalidated: u64,
        /// Kinds whose full row table this mutation withdrew (the kind had
        /// every row resident and lost one).
        downgraded: Vec<CompatibilityKind>,
        /// Live edge count after the mutation.
        edges: u64,
        /// Wall-clock time applying the mutation, microseconds.
        micros: u64,
    },
    /// Acknowledgement of a [`RequestBody::MutateBatch`]: per-mutation
    /// outcomes in request order plus the merged invalidation accounting
    /// of the single sweep that applied them.
    MutatedBatch {
        /// The deployment that was mutated.
        deployment: String,
        /// One outcome per requested mutation, in order.
        outcomes: Vec<MutationOutcome>,
        /// Resident relation rows invalidated by the whole batch.
        rows_invalidated: u64,
        /// Resident rows kept by in-place repair instead of invalidation.
        rows_repaired: u64,
        /// Kinds whose full row table this batch's sweep withdrew.
        downgraded: Vec<CompatibilityKind>,
        /// Live edge count after the batch.
        edges: u64,
        /// Wall-clock time applying the batch, microseconds.
        micros: u64,
    },
    /// The request failed; the envelope carries the typed error.
    Error(ServiceError),
}

/// One mutation's outcome inside a [`Response::MutatedBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// The mutation op label (`edge_insert`, …).
    pub mutation: String,
    /// `true` when the mutation applied (no-op sign sets included).
    pub applied: bool,
    /// `true` when the mutation structurally changed the graph.
    pub changed: bool,
    /// The typed rejection when `applied` is `false`.
    pub error: Option<ServiceError>,
}

impl Serialize for MutationOutcome {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        m.field("mutation", &self.mutation);
        m.field("applied", &self.applied);
        m.field("changed", &self.changed);
        if let Some(e) = &self.error {
            m.field("error", e);
        }
        m.end();
    }
}

impl Deserialize for MutationOutcome {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let map = v
            .as_map()
            .ok_or_else(|| SerdeError::custom("mutation outcome must be a JSON object"))?;
        let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let flag = |key: &str| match field(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(SerdeError::custom(format!(
                "mutation outcome field `{key}` must be a boolean"
            ))),
        };
        Ok(MutationOutcome {
            mutation: field("mutation")
                .and_then(|v| v.as_str())
                .ok_or_else(|| SerdeError::custom("mutation outcome needs a `mutation` label"))?
                .to_string(),
            applied: flag("applied")?,
            changed: flag("changed")?,
            error: match field("error") {
                None | Some(Value::Null) => None,
                Some(e) => Some(
                    ServiceError::parse_value(e).map_err(|e| SerdeError::custom(e.to_string()))?,
                ),
            },
        })
    }
}

impl Response {
    /// The wire label of this response kind.
    pub fn op(&self) -> &'static str {
        match self {
            Response::Answer(_) => "answer",
            Response::Batch(_) => "batch",
            Response::Warmed { .. } => "warmed",
            Response::Stats(_) => "stats",
            Response::Metrics { .. } => "metrics",
            Response::Telemetry { .. } => "telemetry",
            Response::Deployments(_) => "deployments",
            Response::WalRecords { .. } => "wal_records",
            Response::Mutated { .. } => "mutated",
            Response::MutatedBatch { .. } => "mutated_batch",
            Response::Error(_) => "error",
        }
    }

    /// The error, when this is an error response.
    pub fn error(&self) -> Option<&ServiceError> {
        match self {
            Response::Error(e) => Some(e),
            _ => None,
        }
    }

    /// Parses a response envelope with typed errors (mirrors
    /// [`Request::parse_value`]).
    pub fn parse_value(v: &Value) -> Result<Self, ServiceError> {
        let map = v
            .as_map()
            .ok_or_else(|| bad("response envelope must be a JSON object"))?;
        let field = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let version = field("version")
            .ok_or_else(|| bad("response is missing required field `version`"))?
            .as_u64()
            .ok_or_else(|| bad("field `version` must be a non-negative integer"))?;
        if version != u64::from(PROTOCOL_VERSION) {
            return Err(ServiceError::UnsupportedVersion {
                requested: version,
                supported: PROTOCOL_VERSION,
            });
        }
        let op = field("op")
            .ok_or_else(|| bad("response is missing required field `op`"))?
            .as_str()
            .ok_or_else(|| bad("field `op` must be a string label"))?;
        let required =
            |key: &str| field(key).ok_or_else(|| bad(format!("op `{op}` needs `{key}`")));
        let parsed = match op {
            "answer" => Response::Answer(
                TeamAnswer::from_value(required("answer")?)
                    .map_err(|e| bad(format!("field `answer`: {e}")))?,
            ),
            "batch" => Response::Batch(
                Vec::<TeamAnswer>::from_value(required("answers")?)
                    .map_err(|e| bad(format!("field `answers`: {e}")))?,
            ),
            "warmed" => Response::Warmed {
                deployment: String::from_value(required("deployment")?)
                    .map_err(|e| bad(format!("field `deployment`: {e}")))?,
                kinds: parse_kinds(field("kinds"), "kinds")?,
                micros: required("micros")?
                    .as_u64()
                    .ok_or_else(|| bad("field `micros` must be a non-negative integer"))?,
            },
            "stats" => Response::Stats(
                DeploymentStats::from_value(v).map_err(|e| bad(format!("stats response: {e}")))?,
            ),
            "metrics" => Response::Metrics {
                deployments: Vec::<DeploymentMetrics>::from_value(required("deployments")?)
                    .map_err(|e| bad(format!("field `deployments`: {e}")))?,
                total: MetricsSnapshot::from_value(required("total")?)
                    .map_err(|e| bad(format!("field `total`: {e}")))?,
            },
            "telemetry" => Response::Telemetry {
                deployments: Vec::<DeploymentTelemetry>::from_value(required("deployments")?)
                    .map_err(|e| bad(format!("field `deployments`: {e}")))?,
            },
            "deployments" => Response::Deployments(
                Vec::<DeploymentInfo>::from_value(required("deployments")?)
                    .map_err(|e| bad(format!("field `deployments`: {e}")))?,
            ),
            "wal_records" => {
                let u64_of = |key: &str| {
                    required(key)?
                        .as_u64()
                        .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer")))
                };
                let records = required("records")?
                    .as_seq()
                    .ok_or_else(|| bad("field `records` must be an array of mutation objects"))?
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        parse_mutation_value(r)
                            .and_then(|body| body.mutation().ok_or_else(|| bad("not a mutation")))
                            .map_err(|e| bad(format!("records[{i}]: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Response::WalRecords {
                    deployment: String::from_value(required("deployment")?)
                        .map_err(|e| bad(format!("field `deployment`: {e}")))?,
                    from_seq: u64_of("from_seq")?,
                    next_seq: u64_of("next_seq")?,
                    end_seq: u64_of("end_seq")?,
                    records,
                }
            }
            "mutated" => {
                let u64_of = |key: &str| {
                    required(key)?
                        .as_u64()
                        .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer")))
                };
                Response::Mutated {
                    deployment: String::from_value(required("deployment")?)
                        .map_err(|e| bad(format!("field `deployment`: {e}")))?,
                    mutation: String::from_value(required("mutation")?)
                        .map_err(|e| bad(format!("field `mutation`: {e}")))?,
                    changed: match required("changed")? {
                        Value::Bool(b) => *b,
                        _ => return Err(bad("field `changed` must be a boolean")),
                    },
                    rows_invalidated: u64_of("rows_invalidated")?,
                    downgraded: parse_kinds(field("downgraded"), "downgraded")?,
                    edges: u64_of("edges")?,
                    micros: u64_of("micros")?,
                }
            }
            "mutated_batch" => {
                let u64_of = |key: &str| {
                    required(key)?
                        .as_u64()
                        .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer")))
                };
                Response::MutatedBatch {
                    deployment: String::from_value(required("deployment")?)
                        .map_err(|e| bad(format!("field `deployment`: {e}")))?,
                    outcomes: Vec::<MutationOutcome>::from_value(required("outcomes")?)
                        .map_err(|e| bad(format!("field `outcomes`: {e}")))?,
                    rows_invalidated: u64_of("rows_invalidated")?,
                    rows_repaired: u64_of("rows_repaired")?,
                    downgraded: parse_kinds(field("downgraded"), "downgraded")?,
                    edges: u64_of("edges")?,
                    micros: u64_of("micros")?,
                }
            }
            "error" => Response::Error(ServiceError::parse_value(required("error")?)?),
            other => {
                return Err(ServiceError::UnknownOp {
                    op: other.to_string(),
                })
            }
        };
        Ok(parsed)
    }

    /// Parses a response envelope from JSON text.
    pub fn parse_json(json: &str) -> Result<Self, ServiceError> {
        let value: Value =
            serde_json::from_str(json).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        Response::parse_value(&value)
    }
}

impl Serialize for Response {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        m.field("version", &PROTOCOL_VERSION);
        m.field("op", self.op());
        match self {
            Response::Answer(a) => m.field("answer", a),
            Response::Batch(answers) => m.field("answers", answers),
            Response::Warmed {
                deployment,
                kinds,
                micros,
            } => {
                m.field("deployment", deployment);
                m.field_with("kinds", |w| write_kinds(w, kinds));
                m.field("micros", micros);
            }
            Response::Stats(stats) => {
                // The stats sections sit in the envelope itself, so the
                // payload matches the CLI `stats` output shape.
                m.field("dataset", &stats.dataset);
                m.field("serving", &stats.serving);
                m.field("replicated_seq", &stats.replicated_seq);
            }
            Response::Metrics { deployments, total } => {
                m.field("deployments", deployments);
                m.field("total", total);
            }
            Response::Telemetry { deployments } => m.field("deployments", deployments),
            Response::Deployments(infos) => m.field("deployments", infos),
            Response::WalRecords {
                deployment,
                from_seq,
                next_seq,
                end_seq,
                records,
            } => {
                m.field("deployment", deployment);
                m.field("from_seq", from_seq);
                m.field("next_seq", next_seq);
                m.field("end_seq", end_seq);
                m.field_with("records", |w| write_mutations(w, records));
            }
            Response::Mutated {
                deployment,
                mutation,
                changed,
                rows_invalidated,
                downgraded,
                edges,
                micros,
            } => {
                m.field("deployment", deployment);
                m.field("mutation", mutation);
                m.field("changed", changed);
                m.field("rows_invalidated", rows_invalidated);
                m.field_with("downgraded", |w| write_kinds(w, downgraded));
                m.field("edges", edges);
                m.field("micros", micros);
            }
            Response::MutatedBatch {
                deployment,
                outcomes,
                rows_invalidated,
                rows_repaired,
                downgraded,
                edges,
                micros,
            } => {
                m.field("deployment", deployment);
                m.field("outcomes", outcomes);
                m.field("rows_invalidated", rows_invalidated);
                m.field("rows_repaired", rows_repaired);
                m.field_with("downgraded", |w| write_kinds(w, downgraded));
                m.field("edges", edges);
                m.field("micros", micros);
            }
            Response::Error(e) => m.field("error", e),
        }
        m.end();
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Response::parse_value(v).map_err(|e| SerdeError::custom(e.to_string()))
    }
}

/// Deployment statistics plus the serving plan — the payload of
/// [`Response::Stats`] and the body of the CLI `stats` subcommand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentStats {
    /// Table-1 style statistics of the deployment's dataset.
    pub dataset: DatasetStats,
    /// The serving plan the store policy assigns to this deployment.
    pub serving: ServingPlan,
    /// On a follower: how many primary WAL records have been replayed
    /// (the follower's replication high-water mark). Absent on servers
    /// that are not following anything, and in pre-replication payloads.
    pub replicated_seq: Option<u64>,
}

/// The serving plan the store policy assigns to one deployment
/// (deterministic — nothing is built to report it). The engine constructs
/// it (`tfsn_engine::Service` fills it from the live store policy); here
/// it is a pure wire type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingPlan {
    /// Tier-selection mode (`auto`, `matrix`, `rows`).
    pub mode: String,
    /// Resident-byte cap per relation kind, if any.
    pub memory_budget_bytes: Option<u64>,
    /// The tier every relation kind of this deployment is assigned.
    pub tier: String,
    /// Estimated bytes of one fully materialised matrix.
    pub estimated_matrix_bytes: u64,
    /// Estimated bytes of a single cached bit-packed row (1 bit + 2 bytes
    /// per node plus the row header).
    pub estimated_row_bytes: u64,
    /// How many bit-packed rows the configured budget keeps resident per
    /// relation kind (`None` without a budget: unbounded).
    pub budget_resident_rows: Option<u64>,
}

/// One deployment's serving metrics, for [`Response::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeploymentMetrics {
    /// The deployment name.
    pub deployment: String,
    /// Its metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// One deployment's latency telemetry, for [`Response::Telemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentTelemetry {
    /// The deployment name.
    pub deployment: String,
    /// Its telemetry report: per-op/per-phase/per-kind percentile
    /// summaries plus the slow-query log.
    pub telemetry: TelemetryReport,
}

/// One registry entry, for [`Response::Deployments`]. Shape fields are
/// `None` until the deployment is lazily loaded by its first request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeploymentInfo {
    /// The deployment name (the `deployment` field of requests).
    pub name: String,
    /// `true` for the registry's default deployment.
    pub default: bool,
    /// Whether the deployment has been loaded into memory.
    pub loaded: bool,
    /// Users, once loaded.
    pub users: Option<u64>,
    /// Edges, once loaded.
    pub edges: Option<u64>,
    /// Distinct skills, once loaded.
    pub skills: Option<u64>,
    /// Serving tier (`matrix`/`rows`), once loaded.
    pub tier: Option<String>,
}

/// Typed service errors — the `error` payload of [`Response::Error`].
/// Replaces the ad-hoc `String` errors of the pre-protocol CLI paths:
/// transports map codes to their own status space (the HTTP front-end maps
/// `unknown_deployment` to 404, `too_large` to 413, the rest of the client
/// errors to 400) without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request's protocol version is not spoken by this build.
    UnsupportedVersion {
        /// The version the client sent.
        requested: u64,
        /// The version this build speaks.
        supported: u32,
    },
    /// The request targets a deployment outside the registry.
    UnknownDeployment {
        /// The deployment that was requested.
        name: String,
        /// The names the registry does serve.
        available: Vec<String>,
    },
    /// The request's `op` label is not a known operation.
    UnknownOp {
        /// The label that was sent.
        op: String,
    },
    /// The request was malformed (bad JSON, missing/ill-typed fields,
    /// unparseable query lines — the detail says which).
    BadRequest {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// The request body exceeds the transport's size cap.
    TooLarge {
        /// The cap, in bytes.
        limit_bytes: u64,
    },
    /// The server is at capacity; retry later (after the `Retry-After`
    /// header's delay, when the HTTP transport carried the response). The
    /// one retryable code.
    Overloaded {
        /// The saturated concurrency cap: the connection cap when the
        /// accept path shed, or the in-flight cap when the admission gate
        /// did.
        max_connections: u64,
    },
    /// The request's `deadline_ms` budget ran out before the work
    /// completed. Answers already streamed out stand; pending work was
    /// abandoned. Not retryable as-is — retrying the same request with the
    /// same budget deterministically re-fails under the same load.
    DeadlineExceeded {
        /// The budget that was exhausted, milliseconds.
        deadline_ms: u64,
    },
    /// The cluster router has no healthy backend for the deployment this
    /// request targets (every replica is ejected, or the primary is down
    /// and the request is a mutation). Retryable after the `Retry-After`
    /// delay — health probes re-admit backends as they recover.
    NoBackend {
        /// The deployment that could not be routed.
        deployment: String,
        /// What the router needed (`"primary"` or `"replica"`).
        role: String,
    },
    /// A server-side fault (transport I/O, invariant breach) — not a
    /// problem with the request; clients should not treat it as one.
    Internal {
        /// Human-readable description of the fault.
        detail: String,
    },
}

impl ServiceError {
    /// Every error code this protocol version can emit — the closure the
    /// docs-coverage test checks `docs/PROTOCOL.md` against, so a new error
    /// variant cannot ship undocumented.
    pub const ALL_CODES: [&'static str; 9] = [
        "unsupported_version",
        "unknown_deployment",
        "unknown_op",
        "bad_request",
        "too_large",
        "overloaded",
        "deadline_exceeded",
        "no_backend",
        "internal",
    ];

    /// The stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnsupportedVersion { .. } => "unsupported_version",
            ServiceError::UnknownDeployment { .. } => "unknown_deployment",
            ServiceError::UnknownOp { .. } => "unknown_op",
            ServiceError::BadRequest { .. } => "bad_request",
            ServiceError::TooLarge { .. } => "too_large",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::NoBackend { .. } => "no_backend",
            ServiceError::Internal { .. } => "internal",
        }
    }

    /// Parses the typed error payload.
    pub fn parse_value(v: &Value) -> Result<Self, ServiceError> {
        let code = v
            .get("code")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("error payload needs a string `code`"))?;
        let u64_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("error code `{code}` needs integer `{key}`")))
        };
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("error code `{code}` needs string `{key}`")))
        };
        match code {
            "unsupported_version" => Ok(ServiceError::UnsupportedVersion {
                requested: u64_field("requested")?,
                supported: u64_field("supported")? as u32,
            }),
            "unknown_deployment" => Ok(ServiceError::UnknownDeployment {
                name: str_field("deployment")?,
                available: match v.get("available") {
                    None | Some(Value::Null) => Vec::new(),
                    Some(a) => Vec::<String>::from_value(a)
                        .map_err(|e| bad(format!("field `available`: {e}")))?,
                },
            }),
            "unknown_op" => Ok(ServiceError::UnknownOp {
                op: str_field("op")?,
            }),
            "bad_request" => Ok(ServiceError::BadRequest {
                detail: str_field("message")?,
            }),
            "too_large" => Ok(ServiceError::TooLarge {
                limit_bytes: u64_field("limit_bytes")?,
            }),
            "overloaded" => Ok(ServiceError::Overloaded {
                max_connections: u64_field("max_connections")?,
            }),
            "deadline_exceeded" => Ok(ServiceError::DeadlineExceeded {
                deadline_ms: u64_field("deadline_ms")?,
            }),
            "no_backend" => Ok(ServiceError::NoBackend {
                deployment: str_field("deployment")?,
                role: str_field("role")?,
            }),
            "internal" => Ok(ServiceError::Internal {
                detail: str_field("message")?,
            }),
            other => Err(bad(format!("unknown error code `{other}`"))),
        }
    }
}

impl Serialize for ServiceError {
    fn serialize(&self, w: &mut JsonWriter<'_>) {
        let mut m = w.object();
        m.field("code", self.code());
        match self {
            ServiceError::UnsupportedVersion {
                requested,
                supported,
            } => {
                m.field("requested", requested);
                m.field("supported", supported);
            }
            ServiceError::UnknownDeployment { name, available } => {
                m.field("deployment", name);
                m.field("available", available);
            }
            ServiceError::UnknownOp { op } => m.field("op", op),
            ServiceError::TooLarge { limit_bytes } => m.field("limit_bytes", limit_bytes),
            ServiceError::Overloaded { max_connections } => {
                m.field("max_connections", max_connections);
            }
            ServiceError::DeadlineExceeded { deadline_ms } => m.field("deadline_ms", deadline_ms),
            ServiceError::NoBackend { deployment, role } => {
                m.field("deployment", deployment);
                m.field("role", role);
            }
            // `message` (below) doubles as the detail for bad_request and
            // internal; for the other codes it is derived display text.
            ServiceError::BadRequest { .. } | ServiceError::Internal { .. } => {}
        }
        m.field("message", &self.to_string());
        m.end();
    }
}

impl Deserialize for ServiceError {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        ServiceError::parse_value(v).map_err(|e| SerdeError::custom(e.to_string()))
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "unsupported protocol version {requested} (this build speaks {supported})"
            ),
            ServiceError::UnknownDeployment { name, available } => write!(
                f,
                "unknown deployment `{name}` (available: {})",
                available.join(", ")
            ),
            ServiceError::UnknownOp { op } => write!(f, "unknown op `{op}`"),
            ServiceError::BadRequest { detail } => f.write_str(detail),
            ServiceError::TooLarge { limit_bytes } => {
                write!(f, "request body exceeds the {limit_bytes}-byte limit")
            }
            ServiceError::Overloaded { max_connections } => {
                write!(
                    f,
                    "server at its {max_connections}-connection capacity; retry later"
                )
            }
            ServiceError::DeadlineExceeded { deadline_ms } => {
                write!(
                    f,
                    "deadline of {deadline_ms} ms exceeded before the request completed"
                )
            }
            ServiceError::NoBackend { deployment, role } => {
                write!(
                    f,
                    "no healthy {role} backend for deployment `{deployment}`; retry later"
                )
            }
            ServiceError::Internal { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Kind lists travel as arrays of the paper's short labels (`"SPA"`, …).
fn write_kinds(w: &mut JsonWriter<'_>, kinds: &[CompatibilityKind]) {
    let mut a = w.array();
    for kind in kinds {
        a.element(kind.label());
    }
    a.end();
}

/// Parses an optional kind-label array; `name` is the field being parsed
/// (`kinds`, `downgraded`, …) so diagnostics point at the right field.
fn parse_kinds(v: Option<&Value>, name: &str) -> Result<Vec<CompatibilityKind>, ServiceError> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let seq = v.as_seq().ok_or_else(|| {
        bad(format!(
            "field `{name}` must be an array of relation labels"
        ))
    })?;
    seq.iter()
        .map(|k| {
            let label = k
                .as_str()
                .ok_or_else(|| bad(format!("field `{name}` must contain string labels")))?;
            CompatibilityKind::parse(label)
                .ok_or_else(|| bad(format!("unknown compatibility kind `{label}` in `{name}`")))
        })
        .collect()
}

fn bad(detail: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_defaults() {
        let req = Request::new(RequestBody::Batch {
            queries: vec![TeamQuery::new([1, 2]).with_id(7)],
            timing: false,
        })
        .on("epinions");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"version\":1"), "{json}");
        assert!(json.contains("\"op\":\"batch\""), "{json}");
        assert!(json.contains("\"timing\":false"), "{json}");
        assert_eq!(Request::parse_json(&json).unwrap(), req);
    }

    #[test]
    fn wrong_version_is_typed_rejection() {
        let err = Request::parse_json(r#"{"version": 2, "op": "stats"}"#).unwrap_err();
        assert_eq!(
            err,
            ServiceError::UnsupportedVersion {
                requested: 2,
                supported: PROTOCOL_VERSION
            }
        );
        assert!(Request::parse_json(r#"{"op": "stats"}"#)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn unknown_op_is_typed() {
        let err = Request::parse_json(r#"{"version": 1, "op": "mutate"}"#).unwrap_err();
        assert_eq!(
            err,
            ServiceError::UnknownOp {
                op: "mutate".to_string()
            }
        );
    }

    #[test]
    fn error_response_round_trips() {
        for err in [
            ServiceError::UnsupportedVersion {
                requested: 9,
                supported: PROTOCOL_VERSION,
            },
            ServiceError::UnknownDeployment {
                name: "prod".to_string(),
                available: vec!["slashdot".to_string(), "epinions".to_string()],
            },
            ServiceError::UnknownOp {
                op: "mutate".to_string(),
            },
            ServiceError::BadRequest {
                detail: "line 3: bad json".to_string(),
            },
            ServiceError::TooLarge { limit_bytes: 4096 },
            ServiceError::Overloaded {
                max_connections: 256,
            },
            ServiceError::DeadlineExceeded { deadline_ms: 250 },
            ServiceError::NoBackend {
                deployment: "slashdot".to_string(),
                role: "replica".to_string(),
            },
            ServiceError::Internal {
                detail: "stream failed: broken pipe".to_string(),
            },
        ] {
            let resp = Response::Error(err.clone());
            let json = serde_json::to_string(&resp).unwrap();
            assert!(json.contains(err.code()), "{json}");
            assert_eq!(Response::parse_json(&json).unwrap(), resp);
            let bare = serde_json::to_string(&err).unwrap();
            assert_eq!(serde_json::from_str::<ServiceError>(&bare).unwrap(), err);
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        let answer = |id: u64, objective: Option<&str>| TeamAnswer {
            id: Some(id),
            status: crate::AnswerStatus::Ok,
            kind: CompatibilityKind::Spa,
            algorithm: "LCMD".to_string(),
            members: vec![3, 17, 40],
            cardinality: 3,
            diameter: Some(2),
            micros: 184,
            build_micros: 9,
            cache_hit: true,
            objective: objective.map(str::to_string),
            score: objective.map(|_| 1500),
        };
        let no_team = TeamAnswer {
            id: None,
            status: crate::AnswerStatus::NoTeam,
            members: Vec::new(),
            cardinality: 0,
            diameter: None,
            cache_hit: false,
            score: None,
            ..answer(0, Some("synergy"))
        };
        let stats = DeploymentStats {
            dataset: DatasetStats {
                name: "slashdot".to_string(),
                users: 1443,
                edges: 6892,
                negative_edges: 1606,
                negative_percentage: 23.3,
                diameter: 9,
                diameter_exact: true,
                skills: 40,
                mean_skills_per_user: 2.5,
            },
            serving: ServingPlan {
                mode: "auto".to_string(),
                memory_budget_bytes: Some(1 << 20),
                tier: "rows".to_string(),
                estimated_matrix_bytes: 1_734_486,
                estimated_row_bytes: 1202,
                budget_resident_rows: Some(872),
            },
            replicated_seq: Some(12),
        };
        let outcome = |error: Option<ServiceError>| MutationOutcome {
            mutation: "edge_insert".to_string(),
            applied: error.is_none(),
            changed: error.is_none(),
            error,
        };
        let responses = [
            Response::Answer(answer(7, None)),
            Response::Batch(vec![answer(1, Some("min_team")), no_team]),
            Response::Warmed {
                deployment: "sd".to_string(),
                kinds: vec![CompatibilityKind::Spa, CompatibilityKind::Nne],
                micros: 5,
            },
            Response::Stats(stats),
            Response::Metrics {
                deployments: vec![DeploymentMetrics {
                    deployment: "sd".to_string(),
                    metrics: MetricsSnapshot {
                        queries_served: 4,
                        query_p50_micros: Some(12),
                        ..MetricsSnapshot::default()
                    },
                }],
                total: MetricsSnapshot::default(),
            },
            Response::Telemetry {
                deployments: Vec::new(),
            },
            Response::Deployments(vec![DeploymentInfo {
                name: "sd".to_string(),
                default: true,
                loaded: false,
                users: None,
                edges: None,
                skills: None,
                tier: Some("rows".to_string()),
            }]),
            Response::WalRecords {
                deployment: "sd".to_string(),
                from_seq: 0,
                next_seq: 1,
                end_seq: 1,
                records: vec![EdgeMutation::SetSign {
                    u: NodeId::new(4),
                    v: NodeId::new(5),
                    sign: Sign::Positive,
                }],
            },
            Response::Mutated {
                deployment: "sd".to_string(),
                mutation: "edge_remove".to_string(),
                changed: true,
                rows_invalidated: 3,
                downgraded: vec![CompatibilityKind::Sbp],
                edges: 6891,
                micros: 41,
            },
            Response::MutatedBatch {
                deployment: "sd".to_string(),
                outcomes: vec![
                    outcome(None),
                    outcome(Some(ServiceError::BadRequest {
                        detail: "edge (1, 2) already exists".to_string(),
                    })),
                ],
                rows_invalidated: 0,
                rows_repaired: 9,
                downgraded: Vec::new(),
                edges: 6893,
                micros: 77,
            },
            Response::Error(ServiceError::Overloaded { max_connections: 8 }),
        ];
        let ops: std::collections::BTreeSet<_> = responses.iter().map(Response::op).collect();
        assert_eq!(ops.len(), 11, "one fixture per variant");
        for resp in responses {
            for json in [
                serde_json::to_string(&resp).unwrap(),
                serde_json::to_string_pretty(&resp).unwrap(),
            ] {
                assert_eq!(Response::parse_json(&json).unwrap(), resp, "{json}");
            }
        }
    }

    #[test]
    fn all_ops_is_closed_over_the_parser() {
        for op in RequestBody::ALL_OPS {
            let json = format!("{{\"version\": 1, \"op\": \"{op}\"}}");
            match Request::parse_json(&json) {
                Ok(req) => assert_eq!(req.body.op(), op),
                // Recognised op, missing fields: still not UnknownOp.
                Err(ServiceError::BadRequest { .. }) => {}
                Err(other) => panic!("op `{op}` not recognised: {other:?}"),
            }
        }
        assert_eq!(ServiceError::ALL_CODES.len(), 9);
    }

    #[test]
    fn deadline_field_round_trips_and_is_typed() {
        let req = Request::new(RequestBody::Stats).with_deadline_ms(250);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"deadline_ms\":250"), "{json}");
        assert_eq!(Request::parse_json(&json).unwrap(), req);
        // Absent and null both mean "no deadline".
        let req = Request::parse_json(r#"{"version": 1, "op": "stats"}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
        let req =
            Request::parse_json(r#"{"version": 1, "op": "stats", "deadline_ms": null}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
        // Ill-typed deadlines are typed bad requests.
        for bad in [
            r#"{"version": 1, "op": "stats", "deadline_ms": "fast"}"#,
            r#"{"version": 1, "op": "stats", "deadline_ms": -5}"#,
        ] {
            let err = Request::parse_json(bad).unwrap_err();
            assert!(
                matches!(err, ServiceError::BadRequest { .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn mutation_json_round_trips_through_the_bare_parser() {
        for m in [
            EdgeMutation::Insert {
                u: NodeId::new(3),
                v: NodeId::new(9),
                sign: Sign::Negative,
            },
            EdgeMutation::Remove {
                u: NodeId::new(1),
                v: NodeId::new(2),
            },
            EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(7),
                sign: Sign::Positive,
            },
        ] {
            let line = mutation_json(&m);
            let body = parse_mutation_json(&line).unwrap();
            assert_eq!(body.mutation(), Some(m), "{line}");
        }
    }

    #[test]
    fn mutation_envelopes_and_bare_objects_parse() {
        let req = Request::parse_json(
            r#"{"version": 1, "op": "edge_insert", "deployment": "sd",
                "u": 3, "v": 9, "sign": "-"}"#,
        )
        .unwrap();
        assert_eq!(
            req.body,
            RequestBody::EdgeInsert {
                u: 3,
                v: 9,
                sign: Sign::Negative
            }
        );
        assert_eq!(
            req.body.mutation(),
            Some(EdgeMutation::Insert {
                u: NodeId::new(3),
                v: NodeId::new(9),
                sign: Sign::Negative
            })
        );
        // The bare object (the /v1/mutate body) parses to the same variant.
        let bare =
            parse_mutation_json(r#"{"op": "edge_insert", "u": 3, "v": 9, "sign": "-"}"#).unwrap();
        assert_eq!(bare, req.body);
        // `positive`/`negative` labels are accepted on input; `+`/`-` are
        // what serialization emits.
        let bare =
            parse_mutation_json(r#"{"op": "edge_set_sign", "u": 1, "v": 2, "sign": "positive"}"#)
                .unwrap();
        let json = serde_json::to_string(&Request::new(bare)).unwrap();
        assert!(json.contains("\"sign\":\"+\""), "{json}");
        // Typed failures: bad sign, missing fields, non-mutation op.
        for bad in [
            r#"{"op": "edge_insert", "u": 1, "v": 2, "sign": "0"}"#,
            r#"{"op": "edge_insert", "u": 1, "sign": "+"}"#,
            r#"{"op": "edge_remove", "u": 1, "v": -2}"#,
            r#"{"op": "warm"}"#,
            r#"{"u": 1, "v": 2}"#,
            // A bare mutation must not smuggle a deployment: silently
            // ignoring it would mutate the default deployment instead.
            r#"{"op": "edge_remove", "deployment": "lab", "u": 1, "v": 2}"#,
        ] {
            assert!(
                matches!(
                    parse_mutation_json(bad),
                    Err(ServiceError::BadRequest { .. })
                ),
                "{bad} must be a typed bad_request"
            );
        }
    }

    #[test]
    fn telemetry_op_round_trips() {
        let req = Request::new(RequestBody::Telemetry).on("sd");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"telemetry\""), "{json}");
        assert_eq!(Request::parse_json(&json).unwrap(), req);

        let report = TelemetryReport {
            ops: vec![crate::report::AxisStats {
                label: "query".to_string(),
                stats: crate::report::HistogramStats {
                    count: 1,
                    sum_micros: 250,
                    max_micros: 250,
                    mean_micros: 250.0,
                    p50_micros: 256,
                    p90_micros: 256,
                    p99_micros: 256,
                    p999_micros: 256,
                },
            }],
            phases: Vec::new(),
            kinds: Vec::new(),
            objectives: Vec::new(),
            slow_queries: vec![crate::report::SlowQuery {
                seq: 0,
                kind: "SPA".to_string(),
                algorithm: "LCMD".to_string(),
                objective: "min_team".to_string(),
                total_micros: 250,
                build_wait_micros: 40,
                row_compute_micros: 10,
                solve_micros: 200,
                team_size: 3,
                solved: true,
            }],
        };
        let resp = Response::Telemetry {
            deployments: vec![DeploymentTelemetry {
                deployment: "sd".to_string(),
                telemetry: report,
            }],
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"p99_micros\""), "{json}");
        assert!(json.contains("\"slow_queries\""), "{json}");
        assert_eq!(Response::parse_json(&json).unwrap(), resp);

        // Error path: a telemetry response without its payload is typed.
        let err = Response::parse_json(r#"{"version": 1, "op": "telemetry"}"#).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest { .. }));
    }

    #[test]
    fn wal_pull_round_trips_with_defaults() {
        // Explicit slice.
        let req = Request::new(RequestBody::WalPull {
            from_seq: 12,
            max: Some(64),
        })
        .on("sd");
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"wal_pull\""), "{json}");
        assert!(json.contains("\"from_seq\":12"), "{json}");
        assert_eq!(Request::parse_json(&json).unwrap(), req);
        // Absent fields default: from the beginning, server-capped count.
        let req = Request::parse_json(r#"{"version": 1, "op": "wal_pull"}"#).unwrap();
        assert_eq!(
            req.body,
            RequestBody::WalPull {
                from_seq: 0,
                max: None
            }
        );
        // Ill-typed slicing is a typed bad request.
        let err = Request::parse_json(r#"{"version": 1, "op": "wal_pull", "from_seq": "x"}"#)
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest { .. }));
    }

    #[test]
    fn wal_records_response_round_trips() {
        let resp = Response::WalRecords {
            deployment: "sd".to_string(),
            from_seq: 2,
            next_seq: 4,
            end_seq: 9,
            records: vec![
                EdgeMutation::Insert {
                    u: NodeId::new(3),
                    v: NodeId::new(9),
                    sign: Sign::Negative,
                },
                EdgeMutation::Remove {
                    u: NodeId::new(1),
                    v: NodeId::new(2),
                },
            ],
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"op\":\"wal_records\""), "{json}");
        assert!(json.contains("\"end_seq\":9"), "{json}");
        // Records are the bare mutation wire objects — the same shape the
        // WAL frames and `tfsn wal export` emits, so a pull is replayable.
        assert!(
            json.contains(r#"{"op":"edge_insert","u":3,"v":9,"sign":"-"}"#),
            "{json}"
        );
        assert_eq!(Response::parse_json(&json).unwrap(), resp);
        // A record that is not a mutation object is a typed bad request.
        let err = Response::parse_json(
            r#"{"version": 1, "op": "wal_records", "deployment": "sd",
                "from_seq": 0, "next_seq": 1, "end_seq": 1,
                "records": [{"op": "warm"}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest { .. }));
    }

    #[test]
    fn warm_request_defaults_to_all_kinds() {
        let req = Request::parse_json(r#"{"version": 1, "op": "warm"}"#).unwrap();
        assert_eq!(req.body, RequestBody::Warm { kinds: Vec::new() });
        let req = Request::parse_json(r#"{"version": 1, "op": "warm", "kinds": ["SPA", "nne"]}"#)
            .unwrap();
        assert_eq!(
            req.body,
            RequestBody::Warm {
                kinds: vec![CompatibilityKind::Spa, CompatibilityKind::Nne]
            }
        );
    }
}
