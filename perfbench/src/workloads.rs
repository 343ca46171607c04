//! The four workloads: seeded inputs, set-up, the measured loops, the
//! correctness gate, and the traced variant that fills the layer ledger.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use signed_graph::EdgeMutation;
use tfsn_client::client::{HttpClient, HttpReply, RetryPolicy};
use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_engine::proto::mutation_batch_value;
use tfsn_engine::telemetry::QuerySample;
use tfsn_engine::{
    BatchOptions, Deployment, Engine, EngineOptions, EngineTelemetry, FsyncPolicy, MetricsSnapshot,
    Response, ServingMode, StorePolicy, TeamAnswer, TeamQuery, Wal,
};

use crate::gen;
use crate::proc::{allowed_cpus, first_allowed_cpu, pin, Process, ROUTING, SERVING};
use crate::replica::{layer, Replica};
use crate::stats::{mean_of_fastest, median, windowed, Ledger, Summary, Trace};

/// How a workload drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop of single `POST /v1/query` on one connection.
    Query,
    /// The same stream through `tfsn route`.
    Routed,
    /// Closed loop of `POST /v1/batch` bodies on one connection.
    Batch,
    /// Open-loop `mutate_batch` writer plus closed-loop query reader.
    Mix,
}

/// One workload's fixed configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The traffic shape.
    pub shape: Shape,
    /// The deployment SPEC served.
    pub dataset: &'static str,
    /// Relation kinds the queries use (warmed at set-up).
    pub kinds: &'static [CompatibilityKind],
    /// Greedy algorithms the queries use.
    pub algorithms: &'static [TeamAlgorithm],
    /// `--serving-mode`.
    pub serving_mode: ServingMode,
    /// `--memory-budget` in bytes per relation kind, if any.
    pub memory_budget: Option<usize>,
}

const READ_KINDS: &[CompatibilityKind] = &[
    CompatibilityKind::Spa,
    CompatibilityKind::Nne,
    CompatibilityKind::Sbph,
];
const SPA_NNE: &[CompatibilityKind] = &[CompatibilityKind::Spa, CompatibilityKind::Nne];
const LCMD: &[TeamAlgorithm] = &[TeamAlgorithm::LCMD];
const LCMD_RFMD: &[TeamAlgorithm] = &[TeamAlgorithm::LCMD, TeamAlgorithm::RFMD];

/// The row budget per kind on `mutate_mix`: 80% of the ~2.6 MB per kind
/// the reader reaches with no budget (every row of the 1,443 users), so
/// rows are evicted and rebuilt while writes repair and invalidate them.
pub const MIX_MEMORY_BUDGET: usize = 2_100_000;

/// Every workload `--workload` accepts. `BENCHMARK.json` lists all but
/// `routed_query`, whose runs spread too widely on a shared 2-vCPU host
/// (see `perfbench/README.md`).
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "warm_query",
            shape: Shape::Query,
            dataset: "epinions:0.05",
            kinds: READ_KINDS,
            algorithms: LCMD,
            serving_mode: ServingMode::Auto,
            memory_budget: None,
        },
        Workload {
            name: "routed_query",
            shape: Shape::Routed,
            dataset: "epinions:0.05",
            kinds: READ_KINDS,
            algorithms: LCMD,
            serving_mode: ServingMode::Auto,
            memory_budget: None,
        },
        Workload {
            name: "batch_solve",
            shape: Shape::Batch,
            dataset: "epinions:0.1",
            kinds: SPA_NNE,
            algorithms: LCMD_RFMD,
            serving_mode: ServingMode::Auto,
            memory_budget: None,
        },
        Workload {
            name: "mutate_mix",
            shape: Shape::Mix,
            dataset: "epinions:0.05",
            kinds: SPA_NNE,
            algorithms: LCMD,
            serving_mode: ServingMode::Rows,
            memory_budget: Some(MIX_MEMORY_BUDGET),
        },
    ]
}

impl Workload {
    fn policy(&self) -> StorePolicy {
        StorePolicy {
            mode: self.serving_mode,
            memory_budget: self.memory_budget,
        }
    }

    fn writes(&self) -> bool {
        self.shape == Shape::Mix
    }
}

/// Distinct single queries a closed loop cycles through: enough that the
/// pool's mix of solve costs barely differs from seed to seed.
const POOL: usize = 4096;
/// The `mutate_mix` reader's pool, sampled at random (fixed content).
const MIX_POOL: usize = 512;
/// Distinct batch bodies, and queries per body. Few enough bodies that a
/// 30-second run sends each one some 150 times, so each body's
/// fastest send finds a quiet moment of the host (see
/// `stats::mean_of_fastest`). The popular tasks are a fixed set, so fewer
/// bodies cost no seed-to-seed spread.
const BODIES: usize = 8;
const PER_BODY: usize = 32;
/// Every this-many-th query of a batch body is a popular-mix task.
const POPULAR_EVERY: usize = 4;
/// Open-loop writer rate (windows per second) and window shape.
pub const WRITER_RATE: f64 = 10.0;
const FLIPS: usize = 4;
const PAIRS: usize = 2;
/// Queries in the `mutate_mix` end-of-run probe (the first of the reader's
/// pool, whose order the seed sets).
const PROBES: usize = 48;
/// Windows of the single-query loops, and the percentile of them reported
/// (see `stats::windowed`): the quiet tenth, since on a shared host the
/// window means of one run swing by half with the neighbours' load.
const QUERY_WINDOW_S: f64 = 0.5;
const QUIET_PERMILLE: u64 = 100;
/// Windows of the `mutate_mix` reader, and the percentile reported: the
/// median, since each 2-second window holds 20 writer windows and the
/// reader's cost is set by them more than by the host.
const MIX_WINDOW_S: f64 = 2.0;
const MIX_PERMILLE: u64 = 500;
/// Seconds the read-only loops spend on one CPU before the stack moves on
/// (see `Stack::rotating`): two single-query windows.
const ROTATE_S: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 3;
/// Request pairs alternated direct/routed to measure the router hop.
const HOP_PAIRS_QUERY: usize = 400;
const HOP_PAIRS_BATCH: usize = 24;
/// Windows the traced run of a read-only workload replays in process.
const REPLAY_WINDOWS: usize = 64;
/// Popular-mix solves every traced run times (SPA and NNE, LCMD).
const POPULAR_PROBES: usize = 8;
/// Chunks of the query pool timed through `Engine::batch` when the
/// workload's own operation is not a batch.
const BATCH_PROBE_CHUNKS: usize = 2;
/// `record_query` calls the telemetry probe times.
const RECORD_PROBES: usize = 20_000;

/// Where and how a run executes.
pub struct Ctx {
    /// The `tfsn` binary.
    pub tfsn: PathBuf,
    /// A scratch directory inside the checkout, owned by this run.
    pub tmp: PathBuf,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds` measured.
    pub seconds: f64,
    /// Batch workers on the server and in process (`nproc`).
    pub threads: usize,
}

/// One metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (requests, plus correctness probes).
    pub attempted: u64,
    /// Operations that failed: non-2xx answers or failed checks.
    pub failed: u64,
    /// The metrics of the final JSON line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further metrics printed for people (per-operation latencies,
    /// layer figures that are zero by construction on some workloads).
    pub extra: Vec<Metric>,
    /// Run facts: dataset sizes, serving mode, budgets, rates.
    pub facts: Vec<(String, String)>,
    /// The first few failures, for stderr.
    pub failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `{prefix}_p50_{unit}`, the tail when it is above the median, and
    /// the sample count; `scale` converts from the summary's unit.
    fn latency(&mut self, prefix: &str, summary: &Summary, scale: f64, unit: &'static str) {
        self.extra(&format!("{prefix}_p50_{unit}"), summary.p50 * scale, unit);
        if summary.tail_permille > 500 {
            let tail = format!("{prefix}_{}_{unit}", summary.tail_label());
            self.extra(&tail, summary.tail * scale, unit);
        }
        self.extra(&format!("{prefix}_samples"), summary.n as f64, "count");
    }

    fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.failures.extend(tally.failures);
    }
}

/// Attempted and failed operations of one loop.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }
}

/// The seeded inputs of one run.
struct Inputs {
    deployment: Deployment,
    /// Single queries (reads) and their JSON bodies.
    queries: Vec<TeamQuery>,
    query_bodies: Vec<String>,
    /// Batch bodies: the queries and the JSONL text.
    batches: Vec<Vec<TeamQuery>>,
    batch_bodies: Vec<String>,
    /// Mutation windows and their `/v1/rpc` envelopes.
    windows: Vec<Vec<EdgeMutation>>,
    envelopes: Vec<String>,
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("wire types always serialize")
}

impl Inputs {
    fn generate(w: &Workload, seed: u64, seconds: f64) -> Result<Inputs, String> {
        let deployment = tfsn_engine::DeploymentSource::parse(w.dataset)?.load();
        let skills = deployment.skills();
        let (queries, batches) = match w.shape {
            Shape::Batch => (
                Vec::new(),
                gen::batch_bodies(
                    skills,
                    gen::stream_seed(seed, 0),
                    BODIES,
                    PER_BODY,
                    POPULAR_EVERY,
                    w.kinds,
                    w.algorithms,
                ),
            ),
            // The mix reader samples its pool at random, so which tasks it
            // holds (not their order) sets its cost: that content is fixed.
            Shape::Mix => (
                gen::fixed_pool_queries(
                    skills,
                    gen::stream_seed(seed, 0),
                    MIX_POOL,
                    w.kinds,
                    w.algorithms,
                ),
                Vec::new(),
            ),
            Shape::Query | Shape::Routed => (
                gen::random_queries(
                    skills,
                    gen::stream_seed(seed, 0),
                    POOL,
                    w.kinds,
                    w.algorithms,
                ),
                Vec::new(),
            ),
        };
        let windows = if w.writes() {
            // One window per writer slot of the measured time (a traced
            // run splits them into two halves).
            let count = ((seconds * WRITER_RATE).floor() as usize).max(2);
            gen::mutation_windows(
                deployment.graph(),
                gen::stream_seed(seed, 2),
                count,
                FLIPS,
                PAIRS,
            )
        } else {
            gen::mutation_windows(
                deployment.graph(),
                gen::stream_seed(seed, 2),
                REPLAY_WINDOWS,
                FLIPS,
                PAIRS,
            )
        };
        let envelopes = windows
            .iter()
            .map(|window| {
                let mut value = mutation_batch_value(window);
                if let serde::Value::Map(m) = &mut value {
                    m.insert(0, ("version".to_string(), serde::Value::UInt(1)));
                }
                json(&value)
            })
            .collect();
        Ok(Inputs {
            query_bodies: queries.iter().map(json).collect(),
            batch_bodies: batches
                .iter()
                .map(|b| b.iter().map(|q| json(q) + "\n").collect())
                .collect(),
            deployment,
            queries,
            batches,
            windows,
            envelopes,
        })
    }

    /// The bodies and path of the workload's read requests.
    fn reads(&self, w: &Workload) -> (&[String], &'static str) {
        match w.shape {
            Shape::Batch => (&self.batch_bodies, "/v1/batch?timing=false"),
            _ => (&self.query_bodies, "/v1/query?timing=false"),
        }
    }

    fn record_facts(&self, w: &Workload, ctx: &Ctx, report: &mut Report) {
        let graph = self.deployment.graph();
        report.fact("workload", w.name);
        report.fact("dataset", w.dataset);
        report.fact("users", graph.node_count());
        report.fact("edges", graph.edge_count());
        report.fact("skills", self.deployment.skills().skill_count());
        report.fact("serving_mode", w.serving_mode.label());
        report.fact(
            "memory_budget_bytes",
            w.memory_budget
                .map_or("none".to_string(), |b| b.to_string()),
        );
        report.fact(
            "wal_fsync",
            if w.writes() { "batch" } else { "none (no WAL)" },
        );
        report.fact("batch_workers", ctx.threads);
        let (connections, loop_kind) = match w.shape {
            Shape::Query | Shape::Routed | Shape::Batch => (1, "closed"),
            Shape::Mix => (2, "open writer + closed reader"),
        };
        report.fact("connections", connections);
        report.fact("loop", loop_kind);
        if w.writes() {
            report.fact("writer_windows_per_s", WRITER_RATE);
            report.fact("mutations_per_window", FLIPS + 2 * PAIRS);
        }
        match w.shape {
            Shape::Batch => {
                report.fact("bodies", BODIES);
                report.fact("queries_per_body", PER_BODY);
            }
            _ => report.fact("query_pool", POOL),
        }
    }
}

/// A running server, plus the router in front of it on `routed_query`.
struct Stack {
    server: Process,
    router: Option<Process>,
    setup_s: f64,
}

fn labels(kinds: &[CompatibilityKind]) -> String {
    kinds
        .iter()
        .map(|k| format!("\"{}\"", k.label()))
        .collect::<Vec<_>>()
        .join(",")
}

fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect_with(addr, RetryPolicy::none()).map_err(|e| format!("connect {addr}: {e}"))
}

fn spawn_router(ctx: &Ctx, backend: SocketAddr) -> Result<Process, String> {
    let args: Vec<String> = [
        "route",
        "--listen",
        "127.0.0.1:0",
        "--backend",
        &format!("primary={backend},role=primary"),
        "--http-threads",
        &ctx.threads.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let router = Process::spawn(&ctx.tfsn, &args, ROUTING)?;
    router.wait_healthy()?;
    Ok(router)
}

impl Stack {
    /// Spawns and warms a server (and router); the set-up time runs from
    /// spawn to the warm acknowledgement.
    fn start(ctx: &Ctx, w: &Workload, n: usize) -> Result<Stack, String> {
        let mut args: Vec<String> = [
            "serve-http",
            "--addr",
            "127.0.0.1:0",
            "--allow-shutdown",
            "--deployment",
            &format!("bench={}", w.dataset),
            "--threads",
            &ctx.threads.to_string(),
            "--serving-mode",
            w.serving_mode.label(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(budget) = w.memory_budget {
            args.extend(["--memory-budget".to_string(), budget.to_string()]);
        }
        if w.writes() {
            let dir = ctx.tmp.join(format!("wal-{n}"));
            std::fs::remove_dir_all(&dir).ok();
            args.extend([
                "--wal-dir".to_string(),
                dir.display().to_string(),
                "--wal-fsync".to_string(),
                "batch".to_string(),
            ]);
        }
        let start = Instant::now();
        let server = Process::spawn(&ctx.tfsn, &args, SERVING)?;
        server.wait_healthy()?;
        let warm = format!(
            r#"{{"version":1,"op":"warm","kinds":[{}]}}"#,
            labels(w.kinds)
        );
        let reply = connect(server.addr())?
            .post("/v1/rpc", &warm)
            .map_err(|e| format!("warm: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm answered {}: {}", reply.status, reply.body));
        }
        let router = match w.shape {
            Shape::Routed => Some(spawn_router(ctx, server.addr())?),
            _ => None,
        };
        Ok(Stack {
            server,
            router,
            setup_s: start.elapsed().as_secs_f64(),
        })
    }

    /// Puts this process, the server and the router on one CPU for the
    /// measured phase: on a small VM, whether each request's wakeup crosses
    /// CPUs is decided per run and makes round trips bimodal across runs.
    /// Returns the fact to record.
    fn pin(&self) -> String {
        let Some(cpu) = first_allowed_cpu() else {
            return "none (no allowed-CPU list)".to_string();
        };
        match self.pin_to(cpu) {
            Ok(()) => format!("client, server and router on cpu {cpu}"),
            Err(e) => format!("none ({e})"),
        }
    }

    fn pin_to(&self, cpu: usize) -> Result<(), String> {
        let mut pids = vec![std::process::id(), self.server.pid()];
        pids.extend(self.router.as_ref().map(Process::pid));
        pids.into_iter().try_for_each(|pid| pin(pid, cpu))
    }

    /// Runs `measure` with the whole stack on one CPU at a time, moved to
    /// the next allowed CPU every [`ROTATE_S`] by a helper thread. On a
    /// shared host each CPU's speed drifts with its neighbours for minutes
    /// at a time, and the CPUs drift apart; visiting every CPU lets each
    /// run find the quiet one. Returns `measure`'s result and the fact to
    /// record.
    fn rotating<T>(&self, measure: impl FnOnce() -> T) -> (T, String) {
        let cpus = allowed_cpus();
        if cpus.len() < 2 {
            return (measure(), self.pin());
        }
        if let Err(e) = self.pin_to(cpus[0]) {
            return (measure(), format!("none ({e})"));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mover = s.spawn(|| {
                let start = Instant::now();
                let mut turn = 0;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                    let due = (start.elapsed().as_secs_f64() / ROTATE_S) as usize;
                    if due != turn {
                        turn = due;
                        self.pin_to(cpus[turn % cpus.len()])?;
                    }
                }
                Ok::<(), String>(())
            });
            let result = measure();
            stop.store(true, Ordering::Relaxed);
            let fact = match mover.join().expect("CPU rotation thread panicked") {
                Ok(()) => format!(
                    "client, server and router together, moved over cpus {cpus:?} every {ROTATE_S} s"
                ),
                Err(e) => format!("rotation over cpus {cpus:?} stopped ({e})"),
            };
            (result, fact)
        })
    }

    /// Where the workload's requests go.
    fn front(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.server.addr(), |r| r.addr())
    }

    fn stop(self) -> Result<(), String> {
        if let Some(router) = self.router {
            router.kill();
        }
        self.server.shutdown()
    }
}

/// Latencies (µs) of one closed loop's answered requests, with the send
/// time of each (s since the loop started).
struct LoopLog {
    latencies_us: Vec<f64>,
    sent_at_s: Vec<f64>,
    /// The pool index of each answered request.
    ids: Vec<usize>,
    elapsed_s: f64,
}

/// Indices 0, 1, …, `len - 1`, 0, …: a closed loop's walk through its pool.
fn cycle(len: usize) -> impl FnMut() -> usize {
    let mut next = 0;
    move || {
        let i = next % len;
        next += 1;
        i
    }
}

/// Sends `bodies[pick()]` to `path` on one keep-alive connection until
/// `until`; every 200 reply goes through `check` with its round trip in ns.
fn closed_loop(
    addr: SocketAddr,
    (bodies, path): (&[String], &str),
    pick: &mut dyn FnMut() -> usize,
    until: Instant,
    tally: &mut Tally,
    check: &mut dyn FnMut(usize, &HttpReply, f64) -> Result<(), String>,
) -> Result<LoopLog, String> {
    let mut client = connect(addr)?;
    let mut latencies_us = Vec::new();
    let mut sent_at_s = Vec::new();
    let mut ids = Vec::new();
    let start = Instant::now();
    while Instant::now() < until {
        let i = pick();
        let sent = Instant::now();
        let reply = client.post(path, &bodies[i]);
        let rtt_ns = sent.elapsed().as_nanos() as f64;
        tally.check(match reply {
            Ok(reply) if reply.status == 200 => {
                latencies_us.push(rtt_ns / 1e3);
                sent_at_s.push(sent.duration_since(start).as_secs_f64());
                ids.push(i);
                check(i, &reply, rtt_ns)
            }
            Ok(reply) => Err(format!("{path} answered {}: {}", reply.status, reply.body)),
            Err(e) => Err(format!("{path}: {e}")),
        });
    }
    Ok(LoopLog {
        latencies_us,
        sent_at_s,
        ids,
        elapsed_s: start.elapsed().as_secs_f64(),
    })
}

/// What the open-loop writer saw.
#[derive(Default)]
struct WriterLog {
    /// Acknowledgement latency from when each window was due, µs.
    latencies_us: Vec<f64>,
    /// Send-to-acknowledgement round trip of each window, µs.
    round_trip_us: Vec<f64>,
    /// How late each window went out, ms.
    lateness_ms: Vec<f64>,
    rows_repaired: u64,
    rows_invalidated: u64,
    sent: usize,
}

/// Sends `envelopes` to `/v1/rpc` at [`WRITER_RATE`] from `start`, timing
/// each from when it was due. `hook` sees each acknowledged window's index
/// and its send-to-ack round trip in ns.
fn writer_loop(
    addr: SocketAddr,
    envelopes: &[String],
    start: Instant,
    tally: &mut Tally,
    hook: &mut dyn FnMut(usize, f64) -> Result<(), String>,
) -> Result<WriterLog, String> {
    let mut client = connect(addr)?;
    let period = Duration::from_secs_f64(1.0 / WRITER_RATE);
    let mut log = WriterLog::default();
    for (i, envelope) in envelopes.iter().enumerate() {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        log.lateness_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let reply = client.post("/v1/rpc", envelope);
        let acked = Instant::now();
        log.sent += 1;
        let outcome = match reply {
            Ok(reply) if reply.status == 200 => match Response::parse_json(&reply.body) {
                Ok(Response::MutatedBatch {
                    outcomes,
                    rows_repaired,
                    rows_invalidated,
                    ..
                }) if outcomes.iter().all(|o| o.applied) => {
                    log.latencies_us
                        .push(acked.duration_since(due).as_secs_f64() * 1e6);
                    log.round_trip_us
                        .push(acked.duration_since(sent).as_secs_f64() * 1e6);
                    log.rows_repaired += rows_repaired;
                    log.rows_invalidated += rows_invalidated;
                    hook(i, acked.duration_since(sent).as_nanos() as f64)
                }
                _ => Err(format!("window {i} not applied: {}", reply.body)),
            },
            Ok(reply) => Err(format!("/v1/rpc answered {}: {}", reply.status, reply.body)),
            Err(e) => Err(format!("/v1/rpc: {e}")),
        };
        tally.check(outcome);
    }
    Ok(log)
}

/// Checks a `/v1/query` reply is a well-formed answer to query `id`.
fn well_formed(reply: &HttpReply, id: u64) -> Result<(), String> {
    let answer: TeamAnswer =
        serde_json::from_str(&reply.body).map_err(|e| format!("answer does not parse: {e}"))?;
    if answer.id == Some(id) {
        Ok(())
    } else {
        Err(format!("answer for id {:?}, expected {id}", answer.id))
    }
}

/// An answer with the run-dependent fields cleared: timing, and whether
/// this particular store happened to hold the rows.
fn comparable(answer: &TeamAnswer) -> String {
    let mut answer = answer.clone();
    answer.strip_timing();
    answer.cache_hit = false;
    json(&answer)
}

/// The answers a freshly loaded in-process engine gives the run's reads,
/// encoded as the server writes them (`timing=false`).
fn reference_bodies(w: &Workload, inputs: &Inputs, ctx: &Ctx) -> Vec<String> {
    let engine = Engine::with_options(
        inputs.deployment.clone(),
        EngineOptions {
            policy: w.policy(),
            ..Default::default()
        },
    );
    engine.warm(w.kinds);
    let encode = |queries: &[TeamQuery]| -> Vec<String> {
        engine
            .batch(queries, &BatchOptions::with_threads(ctx.threads))
            .into_iter()
            .map(|mut a| {
                a.strip_timing();
                json(&a) + "\n"
            })
            .collect()
    };
    match w.shape {
        Shape::Batch => inputs
            .batches
            .iter()
            .map(|body| encode(body).concat())
            .collect(),
        _ => encode(&inputs.queries),
    }
}

/// The `mutate_mix` gate: compares the server's edge count and probe
/// answers with an in-process engine that applied the same windows.
fn mix_gate(
    addr: SocketAddr,
    inputs: &Inputs,
    replayed: &Engine,
    tally: &mut Tally,
) -> Result<(), String> {
    let probes: Vec<TeamQuery> = inputs.queries.iter().take(PROBES).cloned().collect();
    let body: String = probes.iter().map(|q| json(q) + "\n").collect();
    let mut client = connect(addr)?;
    let reply = client
        .post("/v1/batch?timing=false", &body)
        .map_err(|e| format!("probe batch: {e}"))?;
    let expected: Vec<String> = replayed
        .batch(&probes, &BatchOptions::default())
        .iter()
        .map(comparable)
        .collect();
    if reply.status != 200 {
        tally.check(Err(format!("probe batch answered {}", reply.status)));
    } else {
        let got: Vec<&str> = reply.body.lines().collect();
        for (i, want) in expected.iter().enumerate() {
            tally.check(
                match got.get(i).map(|l| serde_json::from_str::<TeamAnswer>(l)) {
                    Some(Ok(answer)) if comparable(&answer) == *want => Ok(()),
                    Some(Ok(answer)) => Err(format!(
                        "probe {i}: server {} vs replay {want}",
                        comparable(&answer)
                    )),
                    _ => Err(format!("probe {i}: missing or malformed answer")),
                },
            );
        }
    }
    let stats = client.get("/v1/stats").map_err(|e| format!("stats: {e}"))?;
    let want = replayed.graph().edge_count() as u64;
    tally.check(match Response::parse_json(&stats.body) {
        Ok(Response::Stats(s)) if s.dataset.edges as u64 == want => Ok(()),
        Ok(Response::Stats(s)) => Err(format!(
            "server has {} edges, the replay {want}",
            s.dataset.edges
        )),
        _ => Err(format!("stats answered {}: {}", stats.status, stats.body)),
    });
    Ok(())
}

/// A fresh in-process engine with `windows` applied through
/// `Engine::mutate_batch`.
fn replay_engine(
    w: &Workload,
    inputs: &Inputs,
    windows: &[Vec<EdgeMutation>],
) -> Result<Engine, String> {
    let engine = Engine::with_options(
        inputs.deployment.clone(),
        EngineOptions {
            policy: w.policy(),
            ..Default::default()
        },
    );
    for window in windows {
        let report = engine.mutate_batch(window).map_err(|e| e.to_string())?;
        if report.outcomes.iter().any(|o| o.is_err()) {
            return Err("a generated mutation failed in the replay".to_string());
        }
    }
    Ok(engine)
}

/// Runs the end-to-end measurement (`--trace 0`).
pub fn run_e2e(ctx: &Ctx, w: &Workload) -> Result<Report, String> {
    let inputs = Inputs::generate(w, ctx.seed, ctx.seconds)?;
    let mut report = Report::default();
    inputs.record_facts(w, ctx, &mut report);
    let expected = match w.shape {
        Shape::Mix => Vec::new(),
        _ => reference_bodies(w, &inputs, ctx),
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for n in 0..SETUPS {
        let started = Stack::start(ctx, w, n)?;
        setups.push(started.setup_s);
        if n + 1 < SETUPS {
            started.stop()?;
        } else {
            stack = Some(started);
        }
    }
    let stack = stack.expect("at least one set-up");
    report.metric("setup_s", median(&setups), "s");

    let reads = inputs.reads(w);
    let mut tally = Tally::default();
    // Means, not p50s: they add up layer by layer (as the ledger does),
    // and on `mutate_mix` the reader's round trips are bimodal (resident
    // hits vs row rebuilds), so their p50 sat in the gap between the modes
    // and jumped from run to run (spread 0.9) while the mean held.
    let (mean_us, per_s) = match w.shape {
        Shape::Query | Shape::Routed | Shape::Batch => {
            let (log, pinning) = stack.rotating(|| {
                closed_loop(
                    stack.front(),
                    reads,
                    &mut cycle(reads.0.len()),
                    Instant::now() + Duration::from_secs_f64(ctx.seconds),
                    &mut tally,
                    &mut |i, reply, _| {
                        if reply.body == expected[i] {
                            Ok(())
                        } else {
                            Err(format!("answer {i} differs from the in-process engine"))
                        }
                    },
                )
            });
            report.fact("cpu_pinning", pinning);
            let log = log?;
            let whole = Summary::of(&log.latencies_us).ok_or("too few answers")?;
            if w.shape == Shape::Batch {
                // A window holds too few bodies, of unequal cost, for a
                // quiet window to mean anything; every body is sent several
                // times, seconds apart, so its fastest send is the quiet one.
                let fastest_us =
                    mean_of_fastest(&log.ids, &log.latencies_us).ok_or("no answers")?;
                let sends = log.latencies_us.len() as f64 / inputs.batch_bodies.len() as f64;
                report.extra("batch_sends_per_body", sends, "count");
                report.extra(
                    "batch_qps",
                    (log.latencies_us.len() * PER_BODY) as f64 / log.elapsed_s,
                    "1/s",
                );
                report.latency("batch", &whole, 1e-3, "ms");
                (fastest_us, PER_BODY as f64 * 1e6 / fastest_us)
            } else {
                let (quiet_us, rate) = windowed(
                    &log.sent_at_s,
                    &log.latencies_us,
                    QUERY_WINDOW_S,
                    QUIET_PERMILLE,
                )
                .ok_or("too few answers per window")?;
                report.extra(
                    "query_qps",
                    log.latencies_us.len() as f64 / log.elapsed_s,
                    "1/s",
                );
                report.latency("query", &whole, 1.0, "us");
                (quiet_us, rate)
            }
        }
        Shape::Mix => {
            report.fact("cpu_pinning", stack.pin());
            let start = Instant::now();
            let addr = stack.front();
            let mut writer_tally = Tally::default();
            let mut picks = gen::uniform_picks(gen::stream_seed(ctx.seed, 3), reads.0.len());
            let (writer, reader) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    writer_loop(
                        addr,
                        &inputs.envelopes,
                        start,
                        &mut writer_tally,
                        &mut |_, _| Ok(()),
                    )
                });
                let reader = closed_loop(
                    addr,
                    reads,
                    &mut picks,
                    start + Duration::from_secs_f64(ctx.seconds),
                    &mut tally,
                    &mut |i, reply, _| well_formed(reply, i as u64),
                );
                (writer.join().expect("writer thread panicked"), reader)
            });
            let (writer, reader) = (writer?, reader?);
            tally.merge(writer_tally);
            let replayed = replay_engine(w, &inputs, &inputs.windows[..writer.sent])?;
            mix_gate(stack.server.addr(), &inputs, &replayed, &mut tally)?;
            drop(replayed);
            // The end-to-end figures are the reader's: with the stack on one
            // CPU, a window's ack latency swung between two regimes from
            // run to run (spread 1.0), so it is printed, not bounded.
            let (median_us, rate) = windowed(
                &reader.sent_at_s,
                &reader.latencies_us,
                MIX_WINDOW_S,
                MIX_PERMILLE,
            )
            .ok_or("too few reads per window")?;
            let writes = Summary::of(&writer.latencies_us).ok_or("too few windows")?;
            let reads = Summary::of(&reader.latencies_us).ok_or("too few reads")?;
            report.latency("mutate", &writes, 1.0, "us");
            report.latency("query", &reads, 1.0, "us");
            report.extra("query_qps", rate, "1/s");
            let lateness = Summary::of(&writer.lateness_ms).ok_or("too few windows")?;
            report.latency("loadgen.lateness", &lateness, 1.0, "ms");
            report.extra("compat.rows_repaired", writer.rows_repaired as f64, "count");
            report.extra(
                "compat.rows_invalidated",
                writer.rows_invalidated as f64,
                "count",
            );
            (median_us, rate)
        }
    };
    report.metric("latency_mean_us", mean_us, "us");
    report.metric("queries_per_s", per_s, "1/s");
    report.metric("peak_rss_mb", stack.server.peak_rss_mb()?, "MB");
    report.absorb(tally);
    stack.stop()?;
    report.extra(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.correct = report.failed == 0;
    Ok(report)
}

/// Server-side counters read over HTTP.
struct ServerView {
    metrics: MetricsSnapshot,
    prometheus: String,
}

impl ServerView {
    fn read(addr: SocketAddr) -> Result<ServerView, String> {
        let mut client = connect(addr)?;
        let reply = client
            .get("/v1/metrics")
            .map_err(|e| format!("metrics: {e}"))?;
        let metrics = match Response::parse_json(&reply.body) {
            Ok(Response::Metrics { total, .. }) => total,
            _ => {
                return Err(format!(
                    "/v1/metrics answered {}: {}",
                    reply.status, reply.body
                ))
            }
        };
        let prometheus = client.metrics_text().map_err(|e| format!("scrape: {e}"))?;
        Ok(ServerView {
            metrics,
            prometheus,
        })
    }

    /// The value of the first Prometheus sample whose line starts with
    /// `series` (0 when absent).
    fn prom(&self, series: &str) -> f64 {
        self.prometheus
            .lines()
            .find(|l| l.starts_with(series))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// The engine's own `op="query"` histogram summary (mean, p50) in µs.
fn engine_query_histogram(addr: SocketAddr) -> Result<(f64, f64), String> {
    let reply = connect(addr)?
        .get("/v1/telemetry")
        .map_err(|e| format!("telemetry: {e}"))?;
    match Response::parse_json(&reply.body) {
        Ok(Response::Telemetry { deployments }) => deployments
            .first()
            .and_then(|d| d.telemetry.ops.iter().find(|o| o.label == "query"))
            .map(|o| (o.stats.mean_micros, o.stats.p50_micros as f64))
            .ok_or_else(|| "telemetry has no query histogram".to_string()),
        _ => Err(format!("/v1/telemetry answered {}", reply.status)),
    }
}

/// Span durations and self times collected during the traced phase.
#[derive(Default)]
struct SpanLog {
    ledger: Ledger,
    /// Per-request transport self time, µs.
    transport_us: Vec<f64>,
    /// Span durations by name, ns.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Answer bytes and answers encoded.
    answer_bytes: usize,
    answers: usize,
}

impl SpanLog {
    fn push(&mut self, name: &'static str, ns: f64) {
        self.durations.entry(name).or_default().push(ns);
    }

    fn spans(&mut self, trace: &Trace) {
        for span in trace.spans() {
            self.push(span.name, span.ns);
        }
    }

    fn primary(&mut self, trace: &Trace) {
        self.ledger.add(trace);
        self.transport_us.push(trace.self_ns()[0] / 1e3);
        self.spans(trace);
    }

    fn mean_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64 / 1e3)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Alternates the workload's reads straight to the server and through a
/// router, and returns the difference of the medians in µs. Each pair
/// starts with an untimed request of the same body, so row-tier caches
/// are equally warm for both timed ones.
fn router_hop(
    ctx: &Ctx,
    stack: &Stack,
    (bodies, path): (&[String], &str),
    pairs: usize,
    tally: &mut Tally,
) -> Result<f64, String> {
    let own = match &stack.router {
        Some(_) => None,
        None => {
            let router = spawn_router(ctx, stack.server.addr())?;
            // Join the CPU the rest of the stack was pinned to, if any.
            if let Some(cpu) = first_allowed_cpu() {
                pin(router.pid(), cpu).ok();
            }
            Some(router)
        }
    };
    let router = own
        .as_ref()
        .or(stack.router.as_ref())
        .expect("a router either way")
        .addr();
    let mut direct = connect(stack.server.addr())?;
    let mut routed = connect(router)?;
    let (mut direct_ns, mut routed_ns) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        let body = &bodies[i % bodies.len()];
        tally.check(match direct.post(path, body) {
            Ok(r) if r.status == 200 => Ok(()),
            Ok(r) => Err(format!("hop warm-up answered {}", r.status)),
            Err(e) => Err(format!("hop warm-up: {e}")),
        });
        let mut order = [(&mut direct, &mut direct_ns), (&mut routed, &mut routed_ns)];
        if i % 2 == 1 {
            order.reverse();
        }
        for (client, samples) in order {
            let start = Instant::now();
            let reply = client.post(path, body);
            samples.push(start.elapsed().as_nanos() as f64);
            tally.check(match reply {
                Ok(r) if r.status == 200 => Ok(()),
                Ok(r) => Err(format!("hop probe answered {}", r.status)),
                Err(e) => Err(format!("hop probe: {e}")),
            });
        }
    }
    drop((direct, routed));
    if let Some(router) = own {
        router.kill();
    }
    Ok((median(&routed_ns) - median(&direct_ns)) / 1e3)
}

/// Runs the traced measurement (`--trace 1`): an untraced half, then a
/// traced half whose every request is replayed in process with spans.
pub fn run_traced(ctx: &Ctx, w: &Workload) -> Result<Report, String> {
    let inputs = Inputs::generate(w, ctx.seed, ctx.seconds)?;
    let mut report = Report::default();
    inputs.record_facts(w, ctx, &mut report);
    let replica = Replica::new(w.dataset, w.policy(), w.kinds, ctx.threads)?;
    let wal_path = ctx.tmp.join("scratch.wal");
    std::fs::remove_file(&wal_path).ok();
    let (wal, _) =
        Wal::open(&wal_path, FsyncPolicy::Batch).map_err(|e| format!("scratch log: {e}"))?;
    let stack = Stack::start(ctx, w, 0)?;
    report.fact("cpu_pinning", stack.pin());
    let before = ServerView::read(stack.server.addr())?;

    let reads = inputs.reads(w);
    let bodies = reads.0;
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut tally = Tally::default();
    let mut spans = SpanLog::default();
    let mut writer_stats = (0u64, 0u64, Vec::new());
    let mut wal_bytes = 0u64;
    let mut wal_mutations = 0usize;

    // Untraced, then traced: the primary operation's mean round trip.
    let (untraced_us, traced_us) = match w.shape {
        Shape::Query | Shape::Routed | Shape::Batch => {
            let mut walk = cycle(bodies.len());
            let plain = closed_loop(
                stack.front(),
                reads,
                &mut walk,
                Instant::now() + half,
                &mut tally,
                &mut |_, _, _| Ok(()),
            )?;
            let traced = closed_loop(
                stack.front(),
                reads,
                &mut walk,
                Instant::now() + half,
                &mut tally,
                &mut |i, reply, rtt_ns| {
                    let encoded = if w.shape == Shape::Batch {
                        let replay = replica.batch(&bodies[i], rtt_ns)?;
                        spans.primary(&replay.trace);
                        for (popular, query_ns, solve_ns) in replay.queries {
                            spans.push("engine.query", query_ns);
                            let name = if popular {
                                "solve.popular"
                            } else {
                                "solve.random"
                            };
                            spans.push(name, solve_ns);
                        }
                        spans.answers += PER_BODY;
                        replay.encoded
                    } else {
                        let replay = replica.query(&bodies[i], rtt_ns)?;
                        spans.primary(&replay.trace);
                        spans.push(
                            "solve.random",
                            replay.trace.duration("team.solve").unwrap_or(0.0),
                        );
                        spans.answers += 1;
                        replay.encoded
                    };
                    spans.answer_bytes += encoded.len();
                    if reply.body == encoded {
                        Ok(())
                    } else {
                        Err(format!("answer {i} differs from the in-process replica"))
                    }
                },
            )?;
            (mean(&plain.latencies_us), mean(&traced.latencies_us))
        }
        Shape::Mix => {
            let per_phase = (ctx.seconds / 2.0 * WRITER_RATE).floor() as usize;
            let mut picks = gen::uniform_picks(gen::stream_seed(ctx.seed, 3), bodies.len());
            let mut phase = |from: usize,
                             traced: bool,
                             tally: &mut Tally,
                             spans: &mut SpanLog|
             -> Result<(f64, WriterLog), String> {
                let start = Instant::now();
                let addr = stack.front();
                let envelopes = &inputs.envelopes[from..from + per_phase];
                let mut writer_tally = Tally::default();
                let mut write_spans = SpanLog::default();
                let mut wal_acc = (0u64, 0usize);
                let (writer, reader) = std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        writer_loop(
                            addr,
                            envelopes,
                            start,
                            &mut writer_tally,
                            &mut |i, rtt_ns| {
                                if traced {
                                    let window = &inputs.windows[from + i];
                                    let replay =
                                        replica.mutate(&envelopes[i], window, &wal, rtt_ns)?;
                                    write_spans.primary(&replay.trace);
                                    wal_acc.0 += replay.wal_bytes;
                                    wal_acc.1 += window.len();
                                }
                                Ok(())
                            },
                        )
                    });
                    let reader = closed_loop(
                        addr,
                        reads,
                        &mut picks,
                        start + half,
                        tally,
                        &mut |i, reply, rtt_ns| {
                            if traced {
                                let replay = replica.query(&bodies[i], rtt_ns)?;
                                spans.spans(&replay.trace);
                                let solve = replay.trace.duration("team.solve").unwrap_or(0.0);
                                spans.push("solve.random", solve);
                                spans.answer_bytes += replay.encoded.len();
                                spans.answers += 1;
                            }
                            well_formed(reply, i as u64)
                        },
                    );
                    (writer.join().expect("writer thread panicked"), reader)
                });
                let writer = writer?;
                reader?;
                tally.merge(writer_tally);
                if traced {
                    spans.ledger = write_spans.ledger;
                    spans.transport_us = write_spans.transport_us;
                    for (name, v) in write_spans.durations {
                        spans.durations.entry(name).or_default().extend(v);
                    }
                    wal_bytes += wal_acc.0;
                    wal_mutations += wal_acc.1;
                } else {
                    // The replica catches up on the untraced windows
                    // before the traced half replays the rest.
                    let engine = replica.service().engine(None).map_err(|e| e.to_string())?;
                    for window in &inputs.windows[from..from + writer.sent] {
                        engine.mutate_batch(window).map_err(|e| e.to_string())?;
                    }
                }
                Ok((mean(&writer.round_trip_us), writer))
            };
            let (untraced, first) = phase(0, false, &mut tally, &mut spans)?;
            let (traced, second) = phase(per_phase, true, &mut tally, &mut spans)?;
            writer_stats.0 = first.rows_repaired + second.rows_repaired;
            writer_stats.1 = first.rows_invalidated + second.rows_invalidated;
            writer_stats.2 = first
                .lateness_ms
                .iter()
                .chain(&second.lateness_ms)
                .copied()
                .collect();
            // Gate: the replica applied every window the server did.
            let engine = replica.service().engine(None).map_err(|e| e.to_string())?;
            mix_gate(stack.server.addr(), &inputs, &engine, &mut tally)?;
            (untraced, traced)
        }
    };
    let after = ServerView::read(stack.server.addr())?;
    let (engine_mean_us, engine_p50_us) = engine_query_histogram(stack.server.addr())?;

    // The router hop, on every workload, over the workload's own reads.
    let pairs = if w.shape == Shape::Batch {
        HOP_PAIRS_BATCH
    } else {
        HOP_PAIRS_QUERY
    };
    let hop_us = router_hop(ctx, &stack, reads, pairs, &mut tally)?;

    // Engine::batch per query on workloads whose primary op is not a batch.
    if w.shape != Shape::Batch {
        let engine = replica.service().engine(None).map_err(|e| e.to_string())?;
        for chunk in inputs.queries.chunks(PER_BODY).take(BATCH_PROBE_CHUNKS) {
            let start = Instant::now();
            std::hint::black_box(engine.batch(chunk, &replica.service().options().batch));
            let ns = start.elapsed().as_nanos() as f64;
            spans.push("engine.batch", ns / chunk.len() as f64);
        }
    } else {
        let per_query: Vec<f64> = spans.durations["engine.batch"]
            .iter()
            .map(|ns| ns / PER_BODY as f64)
            .collect();
        spans.durations.insert("engine.batch", per_query);
    }

    // The popular mix on SPA and NNE, timed through the solver alone.
    let popular = gen::popular_queries(
        inputs.deployment.skills(),
        gen::stream_seed(ctx.seed, 4),
        POPULAR_PROBES,
        SPA_NNE,
        LCMD,
    );
    for query in &popular {
        spans.push("solve.popular.probe", replica.solve_ns(query)?);
    }

    // Write-path layers on workloads that do not write: the workload's
    // deployment replays a few windows in process (last, since the writes
    // invalidate the replica's resident rows).
    if !w.writes() {
        for (envelope, window) in inputs.envelopes.iter().zip(&inputs.windows) {
            let replay = replica.mutate(envelope, window, &wal, 0.0)?;
            spans.spans(&replay.trace);
            wal_bytes += replay.wal_bytes;
            wal_mutations += window.len();
        }
    }
    let windows_logged = spans.durations.get("wal.append").map_or(0, Vec::len);

    // EngineTelemetry::record_query alone, on a sink of the server's shape.
    let sink = EngineTelemetry::default();
    let samples: Vec<QuerySample> = (0..RECORD_PROBES)
        .map(|i| {
            let q = inputs
                .queries
                .get(i % inputs.queries.len().max(1))
                .cloned()
                .unwrap_or_else(|| inputs.batches[0][0].clone());
            QuerySample {
                kind: q.kind,
                algorithm: q.solver.label().to_string(),
                objective: "min_team",
                total_micros: (i % 97) as u64 + 5,
                build_wait_micros: 0,
                row_compute_micros: 0,
                team_size: 4,
                solved: true,
            }
        })
        .collect();
    let start = Instant::now();
    for sample in samples {
        sink.record_query(sample);
    }
    let record_ns = start.elapsed().as_nanos() as f64 / RECORD_PROBES as f64;

    stack.stop()?;

    let d = |f: fn(&MetricsSnapshot) -> u64| (f(&after.metrics) - f(&before.metrics)) as f64;
    let served = d(|m| m.queries_served);
    let transport = Summary::of(&spans.transport_us);
    report.metric(
        "server.transport_us",
        spans.ledger.layer_us(layer::TRANSPORT),
        "us",
    );
    report.metric(
        "server.transport_p99_us",
        transport.as_ref().map_or(0.0, |s| s.tail),
        "us",
    );
    report.metric(
        "server.shed",
        after.prom("tfsn_requests_shed_total") - before.prom("tfsn_requests_shed_total"),
        "count",
    );
    report.metric(
        "proto.decode_us",
        spans.ledger.layer_us(layer::DECODE),
        "us",
    );
    report.metric(
        "proto.encode_us",
        spans.ledger.layer_us(layer::ENCODE),
        "us",
    );
    report.metric(
        "proto.bytes_per_answer",
        spans.answer_bytes as f64 / spans.answers.max(1) as f64,
        "bytes",
    );
    report.metric(
        "service.self_us",
        spans.ledger.layer_us(layer::SERVICE),
        "us",
    );
    report.metric(
        "registry.lookup_us",
        spans.ledger.layer_us(layer::REGISTRY),
        "us",
    );
    report.metric("registry.load_s", replica.load_s, "s");
    report.metric("store.warm_s", replica.warm_s, "s");
    report.metric("engine.query_us", spans.mean_us("engine.query"), "us");
    report.metric(
        "engine.batch_us_per_query",
        spans.mean_us("engine.batch"),
        "us",
    );
    report.metric(
        "engine.mutate_batch_us",
        spans.mean_us("engine.mutate_batch"),
        "us",
    );
    report.metric("telemetry.engine_mean_us", engine_mean_us, "us");
    report.metric("telemetry.record_ns", record_ns, "ns");
    report.metric(
        "team.solve_us.popular",
        spans.mean_us("solve.popular.probe"),
        "us",
    );
    report.metric("team.solve_us.random", spans.mean_us("solve.random"), "us");
    report.metric("store.row_builds", d(|m| m.row_builds), "count");
    report.metric("store.row_evictions", d(|m| m.row_evictions), "count");
    report.metric(
        "store.hit_ratio",
        if served > 0.0 {
            d(|m| m.cache_hits) / served
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "store.resident_bytes",
        after.metrics.resident_bytes as f64,
        "bytes",
    );
    let (repaired, invalidated, lateness) = writer_stats;
    report.metric("compat.rows_repaired", repaired as f64, "count");
    report.metric("compat.rows_invalidated", invalidated as f64, "count");
    report.metric(
        "compat.repair_ratio",
        if repaired + invalidated > 0 {
            repaired as f64 / (repaired + invalidated) as f64
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("wal.append_us", spans.mean_us("wal.append"), "us");
    report.metric(
        "wal.fsyncs_per_window",
        wal.fsyncs() as f64 / windows_logged.max(1) as f64,
        "ratio",
    );
    report.metric(
        "wal.bytes_per_mutation",
        wal_bytes as f64 / wal_mutations.max(1) as f64,
        "bytes",
    );
    report.metric("cluster.router_hop_us", hop_us, "us");
    report.metric("ledger.residual_us", spans.ledger.residual_us(), "us");
    report.metric(
        "trace.overhead_pct",
        (traced_us - untraced_us) / untraced_us * 100.0,
        "%",
    );

    // Figures that are zero by construction on some workloads, or read
    // from integer histograms: printed, not part of the JSON ledger.
    let phase = |view: &ServerView, name: &str| {
        let sum = view.prom(&format!(
            "tfsn_phase_latency_seconds_sum{{deployment=\"bench\",phase=\"{name}\"}}"
        ));
        let count = view.prom(&format!(
            "tfsn_phase_latency_seconds_count{{deployment=\"bench\",phase=\"{name}\"}}"
        ));
        (sum, count)
    };
    for (metric, name) in [
        ("store.build_wait_us", "build_wait"),
        ("store.row_compute_us", "row_compute"),
    ] {
        let ((s0, c0), (s1, c1)) = (phase(&before, name), phase(&after, name));
        let per_query = if c1 > c0 {
            (s1 - s0) / (c1 - c0) * 1e6
        } else {
            0.0
        };
        report.extra(metric, per_query, "us");
    }
    report.extra("telemetry.engine_p50_us", engine_p50_us, "us");
    if w.writes() {
        if let Some(late) = Summary::of(&lateness) {
            report.latency("loadgen.lateness", &late, 1.0, "ms");
        }
        report.extra(
            "wal.server_fsyncs",
            after.prom("tfsn_wal_fsync_micros_count{")
                - before.prom("tfsn_wal_fsync_micros_count{"),
            "count",
        );
    }
    report.extra("ledger.round_trip_us", spans.ledger.round_trip_us(), "us");
    report.extra("ledger.requests", spans.ledger.requests() as f64, "count");
    for (name, us) in spans.ledger.layers_us() {
        report.extra(&format!("ledger.{name}_us"), us, "us");
    }
    report.extra("trace.untraced_round_trip_us", untraced_us, "us");
    report.extra("trace.traced_round_trip_us", traced_us, "us");
    report.absorb(tally);
    report.correct = report.failed == 0;
    Ok(report)
}
