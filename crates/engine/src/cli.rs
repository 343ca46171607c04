//! The `tfsn` command-line interface.
//!
//! ```text
//! tfsn serve-batch [deployment flags] [serving flags] [--input F] [--output F]
//!                  [--threads N] [--chunk N] [--warm] [--no-timing]
//! tfsn serve-http  [deployment flags] [serving flags] [--addr HOST:PORT]
//!                  [--http-threads N] [--threads N] [--chunk N]
//!                  [--allow-shutdown] [--follow PRIMARY_ADDR] [--poll-ms N]
//! tfsn route       --backend NAME=ADDR,role=primary|replica ... [--listen A]
//!                  [--probe-ms N] [--fail-after N] [--http-threads N]
//!                  [--affinity]
//! tfsn mutate      [deployment flags] [serving flags] [--input F] [--output F]
//! tfsn stats       [deployment flags] [serving flags]
//! tfsn gen         [dataset flags] [--queries N] [--task-size K]
//!                  [--kinds CSV] [--algorithms CSV] [--output F] [--seed S]
//! tfsn wal         inspect|truncate|export --file PATH [--output F]
//!                  [--from-seq N] [--max N]
//! ```
//!
//! `route` runs the cluster front-end of [`crate::cluster`]: a proxy that
//! forwards mutations and WAL pulls to the topology's single primary and
//! round-robins queries across healthy replicas. `serve-http --follow`
//! turns a server into a read replica that converges on a primary by
//! polling its WAL (see `docs/CLUSTER.md`).
//!
//! `serve-batch`, `serve-http`, `mutate` and `stats` are thin transports
//! over one [`crate::Service`]: they build a [`crate::DeploymentRegistry`]
//! from the deployment flags, then speak the versioned protocol of
//! [`crate::proto`].
//!
//! `mutate` reads one bare mutation object per input line
//! (`{"op": "edge_insert", "u": 1, "v": 2, "sign": "+"}`), applies them in
//! order to the selected deployment, and emits one `mutated` (or typed
//! `error`) response envelope per line — the same shapes `POST /v1/mutate`
//! speaks, so a mutation log replays identically over either transport.
//!
//! Deployment flags (`serve-batch`, `serve-http`, `stats`):
//!
//! ```text
//! --deployment NAME=SPEC   register a named deployment (repeatable); SPEC is
//!                          slashdot | epinions[:scale] | wikipedia[:scale]
//!                          | synthetic[:nodes=..,edges=..,skills=..,neg=..,seed=..]
//! --select NAME            deployment this invocation targets (default: first)
//! ```
//!
//! Without `--deployment`, the classic dataset flags (`--dataset`,
//! `--scale`, `--nodes`, …) register a single deployment under the
//! dataset's name.
//!
//! Serving flags (`serve-batch`, `serve-http`, `mutate`, `stats`):
//!
//! ```text
//! --serving-mode auto|matrix|rows   tier selection (default auto)
//! --memory-budget BYTES[K|M|G]      resident-byte cap per relation kind
//! --wal-dir DIR                     durable write-ahead mutation log per
//!                                   deployment; replayed on load (crash
//!                                   recovery — see docs/DURABILITY.md)
//! --wal-fsync always|batch|off      WAL fsync policy (default batch)
//! ```
//!
//! `wal` operates on one log file directly: `inspect` prints a JSON
//! summary (record count, valid/torn bytes), `truncate` cuts a torn tail
//! left by a crash mid-append, and `export` re-emits the log as the JSONL
//! `tfsn mutate` reads — `tfsn wal export --file X.wal | tfsn mutate ...`
//! replays a log against any deployment.
//!
//! `serve-batch` reads one [`crate::TeamQuery`] JSON object per input line
//! and **streams** one [`crate::TeamAnswer`] JSON object per output line:
//! queries go through the engine in bounded chunks (`--chunk`, default
//! 1024) and answers are written as each chunk completes, in input order —
//! million-query files never sit fully in memory. A human-readable summary
//! goes to stderr. `--no-timing` zeroes the per-answer latency fields so
//! the output of a warm run is byte-identical across transports and runs.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use tfsn_core::compat::CompatibilityKind;
use tfsn_datasets::{synthetic, Dataset, DatasetSpec};
use tfsn_skills::taskgen::random_coverable_tasks;

use crate::cluster::{FollowerOptions, Router, RouterOptions, Topology};
use crate::proto::{Request, RequestBody, Response};
use crate::query::QueryReader;
use crate::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource, WalConfig};
use crate::server::{HttpServer, ServerOptions};
use crate::service::{Service, ServiceOptions, StreamError, StreamOptions};
use crate::wal::{self, FsyncPolicy};
use crate::{
    BatchOptions, Deployment, EngineOptions, Objective, ServingMode, StorePolicy, TeamQuery,
};

/// Runs the CLI with the given arguments (exclusive of the program name);
/// returns the process exit code.
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    // Unlocked handles on purpose: the stdio locks are reentrant only for
    // the owning thread, so a guard held here for the life of the process
    // would wedge the first `eprintln!` from a background thread (the
    // `--follow` replication loop, most visibly) while `serve-http` sits
    // in its accept loop forever.
    let mut stdout = std::io::stdout();
    let mut stderr = std::io::stderr();
    match main_impl(&args, &mut stdout, &mut stderr) {
        Ok(()) => 0,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            2
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

const USAGE: &str = "\
usage: tfsn <subcommand> [flags]

subcommands:
  serve-batch   answer a JSONL batch of team queries (stdin/file -> stdout/file)
  serve-http    serve the query engine over HTTP/1.1 (long-lived process)
  route         proxy a primary/replica topology (see docs/CLUSTER.md)
  mutate        apply a JSONL stream of live edge mutations to a deployment
  stats         print deployment statistics as JSON
  gen           generate a JSONL query workload for the deployment
  wal           inspect, repair, or export a write-ahead mutation log file

deployment flags (serve-batch, serve-http, stats):
  --deployment NAME=SPEC   register a named deployment (repeatable); SPEC:
                           slashdot | epinions[:scale] | wikipedia[:scale] |
                           synthetic[:nodes=..,edges=..,skills=..,neg=..,seed=..]
  --select NAME            deployment this invocation targets (default: first)

dataset flags (single-deployment fallback; also gen):
  --dataset slashdot|epinions|wikipedia|synthetic   (default slashdot)
  --scale F           scale for epinions/wikipedia (default 0.05)
  --nodes N --edges M --skills K --neg-fraction F --seed S   (synthetic)

serving flags (serve-batch, serve-http, mutate, stats):
  --serving-mode M    auto|matrix|rows (default auto: materialise when the
                      full matrix fits the budget, row-mode otherwise)
  --memory-budget B   resident-byte cap per relation kind, e.g. 512M, 2G,
                      65536 (default: unbounded -> full matrices)
  --wal-dir DIR       append each acknowledged mutation to DIR/<name>.wal
                      before applying it, and replay the log when the
                      deployment loads (crash recovery; docs/DURABILITY.md)
  --wal-fsync P       WAL fsync policy: always | batch | off (default batch:
                      one fsync per 32 records)

serve-batch flags:
  --input FILE        JSONL queries (default: stdin)
  --output FILE       JSONL answers (default: stdout)
  --threads N         batch worker threads (default: all cores)
  --chunk N           queries per streamed chunk (default 1024)
  --warm              pre-build every evaluated relation of the selected
                      deployment before timing (row-tier kinds only get
                      their store created; rows still fill on demand)
  --no-timing         zero per-answer latency fields (byte-stable output)
  --objective SPEC    default team objective for queries that name none:
                      min_team | synergy | constrained, or a JSON object
                      such as '{\"kind\": \"constrained\", \"max_size\": 4}'
                      (a query's own objective field always wins)

serve-http flags:
  --addr HOST:PORT    bind address (default 127.0.0.1:7878; port 0 picks an
                      ephemeral port, printed on startup)
  --http-threads N    connection acceptor threads (default 4; each accepted
                      connection gets its own handler thread, capped at 256)
  --threads N         batch worker threads per request (default: all cores)
  --chunk N           queries per streamed chunk for /v1/batch (default 1024)
  --allow-shutdown    enable POST /v1/shutdown (graceful remote stop; off by
                      default — meant for CI smoke tests and local sessions)
  --slow-log N        per-deployment slow-query log capacity: the N slowest
                      queries kept for GET /v1/telemetry (default 16; 0
                      disables the log)
  --objective SPEC    default team objective for queries that name none
                      (same SPEC forms as serve-batch)
  --max-inflight N    data-plane requests solving at once; beyond it
                      requests queue briefly, then shed with 503 +
                      Retry-After (default 64)
  --admission-queue N requests allowed to wait for a slot before the server
                      sheds immediately (default 128)
  --follow ADDR       follow the primary at ADDR as a read replica: poll its
                      GET /v1/wal and replay the records locally (excludes
                      --wal-dir; followers are log-less — docs/CLUSTER.md)
  --poll-ms N         follower poll interval in milliseconds (default 250)

route flags:
  --backend NAME=ADDR,role=primary|replica
                      register a backend (repeatable); exactly one primary
  --listen HOST:PORT  router bind address (default 127.0.0.1:7800)
  --probe-ms N        /healthz probe interval per backend (default 500)
  --fail-after N      consecutive failures that eject a backend (default 3)
  --http-threads N    acceptor threads (default 2)
  --affinity          content-affinity reads: route each read by a hash of
                      its target and body instead of round-robin, so the
                      same query sticks to the same replica and budgeted
                      row caches partition the working set across the fleet

mutate flags:
  --input FILE        JSONL mutations (default stdin), one object per line:
                      op (edge_insert|edge_remove|edge_set_sign), u, v, and
                      sign (+ or -) for insert/set_sign
  --output FILE       one mutated/error response envelope per line (stdout)
  --batch N           group up to N consecutive mutations per mutate_batch
                      request: one lock, one merged invalidation sweep, one
                      atomic WAL group per flush (default 1 = unbatched)

gen flags:
  --queries N         number of queries (default 100)
  --task-size K       skills per task (default 5)
  --kinds CSV         relations to round-robin (default SPA,SPM,SPO,SBPH,NNE)
  --algorithms CSV    algorithms to round-robin (default LCMD)
  --output FILE       destination (default: stdout)
  --seed S            workload seed (default 7)

wal actions (tfsn wal <action> --file PATH):
  inspect             print a JSON summary: records, valid/file bytes, and
                      the torn tail a crash mid-append left (if any)
  truncate            cut the torn tail so the file ends on a record
                      boundary (what loading with --wal-dir does implicitly)
  export              re-emit the decodable records as tfsn-mutate JSONL
                      (--output FILE, default stdout); a torn tail is
                      skipped with a note on stderr. --from-seq N starts at
                      the 0-based record N and --max N caps the count — the
                      same slice rule the wal_pull protocol op uses";

#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

/// Parsed `--flag value` pairs with typed accessors.
struct Flags<'a> {
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["--warm", "--no-timing", "--allow-shutdown", "--affinity"];

/// Deployment/dataset flags accepted by every subcommand.
const DEPLOYMENT_FLAGS: &[&str] = &[
    "--dataset",
    "--scale",
    "--nodes",
    "--edges",
    "--skills",
    "--neg-fraction",
    "--seed",
];

impl<'a> Flags<'a> {
    /// Parses `args`, rejecting flags outside `allowed` (plus the shared
    /// deployment flags) so typos fail loudly instead of silently falling
    /// back to defaults.
    fn parse(args: &'a [String], allowed: &[&str]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !flag.starts_with("--") {
                return Err(usage(format!("unexpected argument `{flag}`")));
            }
            if !DEPLOYMENT_FLAGS.contains(&flag) && !allowed.contains(&flag) {
                return Err(usage(format!("unknown flag `{flag}` for this subcommand")));
            }
            if BOOLEAN_FLAGS.contains(&flag) {
                pairs.push((flag, None));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage(format!("flag `{flag}` needs a value")))?;
                pairs.push((flag, Some(value.as_str())));
                i += 2;
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    /// Every occurrence of a repeatable flag, in order.
    fn get_all(&self, flag: &str) -> Vec<&'a str> {
        self.pairs
            .iter()
            .filter(|(f, _)| *f == flag)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| *f == flag)
    }

    fn parse_num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("flag `{flag}`: invalid value `{v}`"))),
        }
    }
}

const SERVING_FLAGS: &[&str] = &[
    "--serving-mode",
    "--memory-budget",
    "--deployment",
    "--select",
    "--wal-dir",
    "--wal-fsync",
];

fn main_impl(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let Some(subcommand) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "serve-batch" => {
            let mut allowed = vec![
                "--input",
                "--output",
                "--threads",
                "--chunk",
                "--warm",
                "--no-timing",
                "--objective",
            ];
            allowed.extend_from_slice(SERVING_FLAGS);
            let flags = Flags::parse(rest, &allowed)?;
            serve_batch(&flags, out, err)
        }
        "serve-http" => {
            let mut allowed = vec![
                "--addr",
                "--http-threads",
                "--threads",
                "--chunk",
                "--allow-shutdown",
                "--slow-log",
                "--objective",
                "--max-inflight",
                "--admission-queue",
                "--follow",
                "--poll-ms",
            ];
            allowed.extend_from_slice(SERVING_FLAGS);
            let flags = Flags::parse(rest, &allowed)?;
            serve_http(&flags, err)
        }
        "route" => {
            let flags = Flags::parse(
                rest,
                &[
                    "--backend",
                    "--listen",
                    "--probe-ms",
                    "--fail-after",
                    "--http-threads",
                    "--affinity",
                ],
            )?;
            // Flags::parse always admits the shared deployment flags; the
            // router serves no deployments of its own, so they would be
            // silently ignored here — fail loudly instead.
            if let Some(flag) = DEPLOYMENT_FLAGS.iter().find(|f| flags.has(f)) {
                return Err(usage(format!("unknown flag `{flag}` for this subcommand")));
            }
            route(&flags, err)
        }
        "mutate" => {
            let mut allowed = vec!["--input", "--output", "--batch"];
            allowed.extend_from_slice(SERVING_FLAGS);
            let flags = Flags::parse(rest, &allowed)?;
            mutate(&flags, out, err)
        }
        "stats" => {
            let flags = Flags::parse(rest, SERVING_FLAGS)?;
            stats(&flags, out)
        }
        "gen" => {
            let flags = Flags::parse(
                rest,
                &[
                    "--queries",
                    "--task-size",
                    "--kinds",
                    "--algorithms",
                    "--output",
                ],
            )?;
            gen(&flags, out)
        }
        "wal" => wal_cmd(rest, out, err),
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}").ok();
            Ok(())
        }
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Builds the dataset selected by the classic dataset flags.
fn load_dataset(flags: &Flags<'_>) -> Result<Dataset, CliError> {
    let scale: f64 = flags.parse_num("--scale", 0.05)?;
    match flags.get("--dataset").unwrap_or("slashdot") {
        "slashdot" => Ok(tfsn_datasets::slashdot()),
        "epinions" => Ok(tfsn_datasets::epinions(scale)),
        "wikipedia" => Ok(tfsn_datasets::wikipedia(scale)),
        "synthetic" => {
            let nodes: usize = flags.parse_num("--nodes", 1000)?;
            let edges: usize = flags.parse_num("--edges", nodes.saturating_mul(5))?;
            let skills: usize = flags.parse_num("--skills", 200)?;
            let neg: f64 = flags.parse_num("--neg-fraction", 0.2)?;
            let seed: u64 = flags.parse_num("--seed", 42)?;
            let spec = DatasetSpec {
                name: format!("synthetic-{nodes}n-{edges}m"),
                users: nodes,
                edges,
                negative_fraction: neg,
                diameter: 0, // informational only; not enforced
                skills,
                skills_per_user: 3.0,
                zipf_exponent: 1.0,
                locality: 0.8,
                preferential: 0.3,
                balance_bias: 0.8,
                camps: 4,
                seed,
            };
            Ok(synthetic::generate(&spec, 1.0))
        }
        other => Err(usage(format!(
            "unknown dataset `{other}` (expected slashdot, epinions, wikipedia, or synthetic)"
        ))),
    }
}

fn open_input(flags: &Flags<'_>) -> Result<Box<dyn BufRead>, CliError> {
    match flags.get("--input") {
        None | Some("-") => Ok(Box::new(std::io::BufReader::new(std::io::stdin()))),
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| runtime(format!("cannot open --input {path}: {e}")))?;
            Ok(Box::new(std::io::BufReader::new(file)))
        }
    }
}

fn open_output<'a>(
    flags: &Flags<'_>,
    default: &'a mut dyn Write,
) -> Result<Box<dyn Write + 'a>, CliError> {
    match flags.get("--output") {
        None | Some("-") => Ok(Box::new(default)),
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| runtime(format!("cannot create --output {path}: {e}")))?;
            Ok(Box::new(std::io::BufWriter::new(file)))
        }
    }
}

/// Reads a whole JSONL query batch into memory; errors carry the 1-based
/// line number. (The serving paths stream via [`QueryReader`] instead; this
/// stays for tests and small workloads.)
pub fn read_queries(reader: impl BufRead) -> Result<Vec<TeamQuery>, String> {
    QueryReader::new(reader)
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (binary units).
fn parse_bytes(value: &str) -> Result<usize, CliError> {
    let trimmed = value.trim();
    let bad = || usage(format!("flag `--memory-budget`: invalid value `{value}`"));
    let (digits, multiplier) = match trimmed.chars().last() {
        Some('k') | Some('K') => (&trimmed[..trimmed.len() - 1], 1usize << 10),
        Some('m') | Some('M') => (&trimmed[..trimmed.len() - 1], 1usize << 20),
        Some('g') | Some('G') => (&trimmed[..trimmed.len() - 1], 1usize << 30),
        Some(_) => (trimmed, 1),
        None => return Err(bad()),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(multiplier).ok_or_else(bad)
}

/// The store policy selected by the serving flags.
fn parse_policy(flags: &Flags<'_>) -> Result<StorePolicy, CliError> {
    let mode = match flags.get("--serving-mode") {
        None => ServingMode::Auto,
        Some(v) => ServingMode::parse(v).ok_or_else(|| {
            usage(format!(
                "flag `--serving-mode`: expected auto, matrix or rows, got `{v}`"
            ))
        })?,
    };
    let memory_budget = match flags.get("--memory-budget") {
        None => None,
        Some(v) => Some(parse_bytes(v)?),
    };
    Ok(StorePolicy {
        mode,
        memory_budget,
    })
}

/// Builds the service (deployment registry + execution options) plus the
/// selected deployment name from the serving flags.
fn build_service(flags: &Flags<'_>) -> Result<(Service, Option<String>), CliError> {
    let policy = parse_policy(flags)?;
    let slow_log = match flags.get("--slow-log") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| usage(format!("flag `--slow-log`: invalid value `{v}`")))?,
        ),
    };
    let options = EngineOptions {
        policy,
        slow_log,
        ..Default::default()
    };
    let specs = flags.get_all("--deployment");
    let configs = if specs.is_empty() {
        let dataset = load_dataset(flags)?;
        vec![DeploymentConfig {
            name: dataset.name.clone(),
            source: DeploymentSource::Prebuilt(Deployment::from_dataset(dataset)),
            options,
        }]
    } else {
        // Every dataset flag is exclusive with --deployment — otherwise
        // `--deployment big=epinions --scale 0.5` would silently serve the
        // SPEC default scale while the user's flag does nothing.
        if let Some(flag) = DEPLOYMENT_FLAGS.iter().find(|f| flags.has(f)) {
            return Err(usage(format!(
                "--deployment and {flag} are mutually exclusive (put the \
                 parameters in the deployment SPEC instead)",
            )));
        }
        specs
            .iter()
            .map(|entry| {
                let (name, spec) = entry.split_once('=').ok_or_else(|| {
                    usage(format!(
                        "flag `--deployment`: expected NAME=SPEC, got `{entry}`"
                    ))
                })?;
                let source = DeploymentSource::parse(spec)
                    .map_err(|e| usage(format!("flag `--deployment {entry}`: {e}")))?;
                Ok(DeploymentConfig {
                    name: name.to_string(),
                    source,
                    options: options.clone(),
                })
            })
            .collect::<Result<Vec<_>, CliError>>()?
    };
    let mut registry = DeploymentRegistry::new(configs).map_err(usage)?;
    match flags.get("--wal-dir") {
        Some(dir) => {
            let fsync = match flags.get("--wal-fsync") {
                None => FsyncPolicy::default(),
                Some(v) => FsyncPolicy::parse(v).ok_or_else(|| {
                    usage(format!(
                        "flag `--wal-fsync`: expected always, batch or off, got `{v}`"
                    ))
                })?,
            };
            std::fs::create_dir_all(dir)
                .map_err(|e| runtime(format!("cannot create --wal-dir {dir}: {e}")))?;
            registry = registry.with_wal(WalConfig::new(dir).with_fsync(fsync));
        }
        None if flags.has("--wal-fsync") => {
            return Err(usage(
                "--wal-fsync needs --wal-dir (no log to fsync without one)",
            ));
        }
        None => {}
    }
    let select = match flags.get("--select") {
        None => None,
        Some(name) => {
            if !registry.names().contains(&name) {
                return Err(usage(format!(
                    "flag `--select`: unknown deployment `{name}` (available: {})",
                    registry.names().join(", ")
                )));
            }
            Some(name.to_string())
        }
    };
    let threads: usize = flags.parse_num("--threads", 0)?;
    let batch = if threads == 0 {
        BatchOptions::default()
    } else {
        BatchOptions::with_threads(threads)
    };
    let chunk: usize = flags.parse_num("--chunk", 1024)?;
    if chunk == 0 {
        return Err(usage("flag `--chunk`: must be at least 1"));
    }
    let objective = match flags.get("--objective") {
        None => None,
        Some(spec) => Some(parse_objective(spec)?),
    };
    let service = Service::with_options(
        registry,
        ServiceOptions {
            batch,
            chunk,
            objective,
        },
    );
    Ok((service, select))
}

/// Parses the `--objective` SPEC: a bare label (`min_team`, `synergy`,
/// `constrained`) or a JSON object in the wire format of the query
/// `objective` field (see [`crate::query`]).
fn parse_objective(spec: &str) -> Result<Objective, CliError> {
    let value = if spec.trim_start().starts_with('{') {
        serde_json::parse_value(spec).map_err(|e| usage(format!("flag `--objective`: {e}")))?
    } else {
        serde::Value::Str(spec.to_string())
    };
    crate::query::objective_from_value(&value)
        .map_err(|e| usage(format!("flag `--objective`: {e}")))
}

/// Streams a query file once, collecting the distinct relation kinds it
/// uses (stops early once every kind has been seen), so `--warm` builds
/// only what the batch will touch. Parse errors are left for the serving
/// pass, which reports them with line numbers.
fn scan_kinds(path: &str) -> Result<Vec<CompatibilityKind>, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| runtime(format!("cannot open --input {path}: {e}")))?;
    let mut kinds = Vec::new();
    for query in QueryReader::new(std::io::BufReader::new(file)).flatten() {
        if !kinds.contains(&query.kind) {
            kinds.push(query.kind);
            if kinds.len() == CompatibilityKind::ALL.len() {
                break;
            }
        }
    }
    Ok(kinds)
}

fn serve_batch(
    flags: &Flags<'_>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let (service, select) = build_service(flags)?;
    let select = select.as_deref();

    if flags.has("--warm") {
        // With a regular-file input the kinds the batch needs are knowable
        // up front (one cheap streaming scan). Stdin and non-seekable
        // inputs (FIFOs, process substitution) cannot be read twice, so
        // there the warm covers every evaluated kind.
        let kinds = match flags.get("--input") {
            Some(path) if path != "-" => match std::fs::metadata(path) {
                Ok(meta) if meta.is_file() => Some(scan_kinds(path)?),
                Ok(_) => None,
                Err(e) => return Err(runtime(format!("cannot open --input {path}: {e}"))),
            },
            _ => None,
        };
        // An empty file needs no warming (matches the pre-streaming
        // behaviour, which warmed only the kinds present); `None` (stdin /
        // FIFO) warms every evaluated kind.
        let warm = match kinds {
            Some(kinds) if kinds.is_empty() => None,
            Some(kinds) => Some(RequestBody::Warm { kinds }),
            None => Some(RequestBody::Warm { kinds: Vec::new() }),
        };
        let warm_start = Instant::now();
        let warmed_kinds = match warm {
            None => Vec::new(),
            Some(body) => {
                let response = service.handle(&Request {
                    deployment: select.map(str::to_string),
                    deadline_ms: None,
                    body,
                });
                match response {
                    Response::Warmed { kinds, .. } => kinds,
                    Response::Error(e) => return Err(runtime(e.to_string())),
                    other => return Err(runtime(format!("unexpected response `{}`", other.op()))),
                }
            }
        };
        let engine = service.engine(select).map_err(|e| runtime(e.to_string()))?;
        // Every kind of a store shares one plan.
        let (matrix_kinds, row_kinds) = match engine.store().tier() {
            crate::TierChoice::Matrix => (warmed_kinds.len(), 0),
            crate::TierChoice::Rows => (0, warmed_kinds.len()),
        };
        let mut line = format!(
            "[tfsn] warmed {} matrix(es) in {:.2}s",
            matrix_kinds,
            warm_start.elapsed().as_secs_f64()
        );
        if row_kinds > 0 {
            line.push_str(&format!(
                "; {row_kinds} row-tier kind(s) stay cold (rows fill on demand during the batch)"
            ));
        }
        writeln!(err, "{line}").ok();
    }

    let input = open_input(flags)?;
    let started = Instant::now();
    let streamed = {
        let mut sink = open_output(flags, out)?;
        service
            .stream_batch(
                select,
                input,
                &mut sink,
                StreamOptions::timing(!flags.has("--no-timing")),
            )
            .map_err(|e| match e {
                StreamError::Service(e) => runtime(e.to_string()),
                StreamError::Io(e) => runtime(format!("write answer: {e}")),
            })?
    };
    let elapsed = started.elapsed();

    let engine = service.engine(select).map_err(|e| runtime(e.to_string()))?;
    let summary = &streamed.summary;
    let metrics = engine.metrics();
    writeln!(
        err,
        "[tfsn] {} on {}: {} queries in {:.3}s ({:.0} q/s, {} chunk(s)), {} solved, \
         {} cache hits, {} matrix builds, {} row builds, {} evictions, \
         {} resident rows, {} resident bytes, mean latency {:.0}µs",
        engine.deployment().name(),
        format_args!(
            "{}n/{}m",
            engine.deployment().user_count(),
            engine.graph().edge_count()
        ),
        summary.queries,
        elapsed.as_secs_f64(),
        summary.queries as f64 / elapsed.as_secs_f64().max(1e-9),
        streamed.chunks,
        summary.solved,
        summary.cache_hits,
        metrics.matrix_builds,
        metrics.row_builds,
        metrics.row_evictions,
        metrics.resident_rows,
        metrics.resident_bytes,
        summary.mean_micros(),
    )
    .ok();
    // Machine-readable serving metrics, one JSON object — the
    // `tfsn_engine::MetricsSnapshot` schema (also documented in the README
    // serving section).
    if let Ok(line) = serde_json::to_string(&metrics) {
        writeln!(err, "[tfsn] metrics {line}").ok();
    }
    Ok(())
}

/// Applies a JSONL stream of live edge mutations to the selected
/// deployment: one bare mutation object per input line, one response
/// envelope (`mutated`, or a typed `error`) per output line. Parse errors
/// and rejected mutations are emitted as error envelopes and counted; only
/// I/O failures — and a truncated final record (a partially written or
/// chopped log; the error carries the byte offset where the partial record
/// starts) — abort the stream.
///
/// With `--batch N` (N ≥ 2) consecutive parsed mutations are grouped into
/// `mutate_batch` envelopes of up to N: one write-order acquisition, one
/// merged invalidation sweep, and one atomic WAL group per flush, answered
/// by one `mutated_batch` envelope carrying per-mutation outcomes. Pending
/// mutations flush before any error envelope so output order tracks input
/// order.
fn mutate(flags: &Flags<'_>, out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let batch: usize = flags.parse_num("--batch", 1)?;
    if batch == 0 {
        return Err(usage("flag `--batch`: must be at least 1"));
    }
    if batch > crate::proto::MAX_BATCH_MUTATIONS {
        return Err(usage(format!(
            "flag `--batch`: at most {} mutations per batch",
            crate::proto::MAX_BATCH_MUTATIONS
        )));
    }
    let (service, select) = build_service(flags)?;
    let select = select.as_deref();
    // Load the target up front: the CLI owns this process's deployments, so
    // loading here is the point (the service-level "mutations never force a
    // load" rule guards long-lived servers, not one-shot invocations).
    let engine = service.engine(select).map_err(|e| runtime(e.to_string()))?;
    let mut input = open_input(flags)?;
    let started = Instant::now();
    let (applied, rejected) = {
        let mut sink = open_output(flags, out)?;
        let mut applied = 0u64;
        let mut rejected = 0u64;
        let mut pending: Vec<signed_graph::EdgeMutation> = Vec::new();
        let flush = |pending: &mut Vec<signed_graph::EdgeMutation>,
                     sink: &mut dyn Write,
                     applied: &mut u64,
                     rejected: &mut u64|
         -> Result<(), CliError> {
            if pending.is_empty() {
                return Ok(());
            }
            let response = service.handle(&Request {
                deployment: select.map(str::to_string),
                deadline_ms: None,
                body: RequestBody::MutateBatch {
                    mutations: std::mem::take(pending),
                },
            });
            match &response {
                Response::MutatedBatch { outcomes, .. } => {
                    for outcome in outcomes {
                        if outcome.applied {
                            *applied += 1;
                        } else {
                            *rejected += 1;
                        }
                    }
                }
                _ => *rejected += 1,
            }
            let json = serde_json::to_string(&response)
                .map_err(|e| runtime(format!("serialize response: {e}")))?;
            writeln!(sink, "{json}").map_err(|e| runtime(format!("write response: {e}")))?;
            Ok(())
        };
        let mut line = String::new();
        let mut lineno = 0usize;
        let mut offset = 0u64;
        loop {
            line.clear();
            lineno += 1;
            let line_start = offset;
            let n = input
                .read_line(&mut line)
                .map_err(|e| runtime(format!("read mutations: {e}")))?;
            if n == 0 {
                flush(&mut pending, &mut sink, &mut applied, &mut rejected)?;
                break;
            }
            offset += n as u64;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let response = match crate::proto::parse_mutation_json(trimmed) {
                Ok(body) if batch > 1 => {
                    pending.push(body.mutation().expect("mutation bodies only"));
                    if pending.len() >= batch {
                        flush(&mut pending, &mut sink, &mut applied, &mut rejected)?;
                    }
                    continue;
                }
                Ok(body) => service.handle(&Request {
                    deployment: select.map(str::to_string),
                    deadline_ms: None,
                    body,
                }),
                // A final line with no trailing newline that does not parse
                // is a chopped record, not a bad one: abort with the resume
                // offset instead of burying it in an error envelope.
                Err(e) if !line.ends_with('\n') => {
                    return Err(runtime(format!(
                        "--input truncated at byte {line_start} (line {lineno}): final record \
                         has no trailing newline and is not a complete mutation: {e}"
                    )));
                }
                Err(e) => {
                    // Keep output order: mutations read before this bad
                    // line land before its error envelope.
                    flush(&mut pending, &mut sink, &mut applied, &mut rejected)?;
                    Response::Error(crate::ServiceError::BadRequest {
                        detail: format!("line {lineno}: {e}"),
                    })
                }
            };
            match &response {
                Response::Mutated { .. } => applied += 1,
                _ => rejected += 1,
            }
            let json = serde_json::to_string(&response)
                .map_err(|e| runtime(format!("serialize response: {e}")))?;
            writeln!(sink, "{json}").map_err(|e| runtime(format!("write response: {e}")))?;
        }
        sink.flush()
            .map_err(|e| runtime(format!("write response: {e}")))?;
        (applied, rejected)
    };
    let metrics = engine.metrics();
    writeln!(
        err,
        "[tfsn] {}: {applied} mutation(s) applied, {rejected} rejected in {:.3}s; \
         {} edges live, {} rows invalidated, {} rows repaired",
        engine.deployment().name(),
        started.elapsed().as_secs_f64(),
        engine.graph().edge_count(),
        metrics.rows_invalidated,
        engine.store().rows_repaired_count(),
    )
    .ok();
    if let Ok(line) = serde_json::to_string(&metrics) {
        writeln!(err, "[tfsn] metrics {line}").ok();
    }
    Ok(())
}

/// Resolves a `HOST:PORT` flag value (numeric or hostname).
fn resolve_addr(flag: &str, value: &str) -> Result<std::net::SocketAddr, CliError> {
    use std::net::ToSocketAddrs;
    match value.parse() {
        Ok(addr) => Ok(addr),
        Err(_) => value
            .to_socket_addrs()
            .map_err(|e| usage(format!("flag `{flag}`: cannot resolve `{value}`: {e}")))?
            .next()
            .ok_or_else(|| usage(format!("flag `{flag}`: `{value}` resolves to no address"))),
    }
}

fn serve_http(flags: &Flags<'_>, err: &mut dyn Write) -> Result<(), CliError> {
    // Parse the replication flags before building the service, so usage
    // errors beat dataset loading.
    let follow = match flags.get("--follow") {
        None if flags.has("--poll-ms") => {
            return Err(usage(
                "--poll-ms needs --follow (no primary to poll without one)",
            ));
        }
        None => None,
        Some(addr) => {
            // A follower's graph is a replay of the primary's WAL; logging
            // the replayed records into a second WAL would double-apply
            // them on the follower's next restart.
            if flags.has("--wal-dir") {
                return Err(usage(
                    "--follow and --wal-dir are mutually exclusive: followers are \
                     log-less (durability lives in the primary's WAL; a restarted \
                     follower re-pulls from sequence 0)",
                ));
            }
            let poll_ms: u64 = flags.parse_num("--poll-ms", 250)?;
            if poll_ms == 0 {
                return Err(usage("flag `--poll-ms`: must be at least 1"));
            }
            Some(FollowerOptions::new(
                resolve_addr("--follow", addr)?,
                std::time::Duration::from_millis(poll_ms),
            ))
        }
    };
    let (service, select) = build_service(flags)?;
    if select.is_some() {
        return Err(usage(
            "serve-http serves every registered deployment; select one per \
             request with ?deployment=NAME instead of --select",
        ));
    }
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:7878");
    let http_threads: usize = flags.parse_num("--http-threads", 4)?;
    let allow_shutdown = flags.has("--allow-shutdown");
    let mut options = ServerOptions {
        threads: http_threads.max(1),
        allow_shutdown,
        ..Default::default()
    };
    options.max_inflight = flags.parse_num("--max-inflight", options.max_inflight)?;
    options.admission_queue = flags.parse_num("--admission-queue", options.admission_queue)?;
    if options.max_inflight == 0 {
        return Err(usage("flag `--max-inflight`: must be at least 1"));
    }
    let service = Arc::new(service);
    let server = HttpServer::bind(service.clone(), addr, options)
        .map_err(|e| runtime(format!("cannot bind {addr}: {e}")))?;
    writeln!(
        err,
        "[tfsn] serving http://{} ({} acceptor(s); deployments: {}; default: {})",
        server.addr(),
        http_threads.max(1),
        service.registry().names().join(", "),
        service.registry().default_name(),
    )
    .ok();
    if let Some(wal) = service.registry().wal_config() {
        writeln!(
            err,
            "[tfsn] wal: {} (fsync {})",
            wal.dir.display(),
            wal.fsync.label(),
        )
        .ok();
    }
    writeln!(
        err,
        "[tfsn] endpoints: GET /healthz /metrics /v1/stats /v1/metrics /v1/telemetry \
         /v1/deployments; POST /v1/query /v1/batch /v1/mutate /v1/rpc{}",
        if allow_shutdown { " /v1/shutdown" } else { "" },
    )
    .ok();
    let follower = follow.map(|options| {
        writeln!(
            err,
            "[tfsn] following http://{} (poll every {:?}; replaying GET /v1/wal \
             through the live engine)",
            options.primary, options.poll,
        )
        .ok();
        crate::cluster::replica::start(service.clone(), options)
    });
    err.flush().ok();
    server.join();
    if let Some(follower) = follower {
        follower.stop();
    }
    Ok(())
}

/// The `tfsn route` subcommand: binds the cluster router over the
/// `--backend` topology and runs until killed (or until the listener
/// fails).
fn route(flags: &Flags<'_>, err: &mut dyn Write) -> Result<(), CliError> {
    let specs = flags.get_all("--backend");
    let topology = Topology::parse(&specs).map_err(usage)?;
    let addr = flags.get("--listen").unwrap_or("127.0.0.1:7800");
    let mut options = RouterOptions::default();
    options.threads = flags.parse_num("--http-threads", options.threads)?.max(1);
    let probe_ms: u64 = flags.parse_num("--probe-ms", 500)?;
    if probe_ms == 0 {
        return Err(usage("flag `--probe-ms`: must be at least 1"));
    }
    options.probe_interval = std::time::Duration::from_millis(probe_ms);
    options.fail_threshold = flags.parse_num("--fail-after", options.fail_threshold)?;
    if options.fail_threshold == 0 {
        return Err(usage("flag `--fail-after`: must be at least 1"));
    }
    options.affinity = flags.has("--affinity");
    let router = Router::bind(&topology, addr, options)
        .map_err(|e| runtime(format!("cannot bind {addr}: {e}")))?;
    let replicas: Vec<&str> = topology.replicas().map(|b| b.name.as_str()).collect();
    writeln!(
        err,
        "[tfsn] routing http://{} (primary: {} at {}; replicas: {})",
        router.addr(),
        topology.primary().name,
        topology.primary().addr,
        if replicas.is_empty() {
            "none — reads fall back to the primary".to_string()
        } else {
            replicas.join(", ")
        },
    )
    .ok();
    err.flush().ok();
    router.join();
    Ok(())
}

fn stats(flags: &Flags<'_>, out: &mut dyn Write) -> Result<(), CliError> {
    let (service, select) = build_service(flags)?;
    let response = service.handle(&Request {
        deployment: select,
        deadline_ms: None,
        body: RequestBody::Stats,
    });
    let stats = match response {
        Response::Stats(stats) => stats,
        Response::Error(e) => return Err(runtime(e.to_string())),
        other => return Err(runtime(format!("unexpected response `{}`", other.op()))),
    };
    let json = serde_json::to_string_pretty(&stats)
        .map_err(|e| runtime(format!("serialize stats: {e}")))?;
    writeln!(out, "{json}").map_err(|e| runtime(format!("write stats: {e}")))?;
    Ok(())
}

/// The `tfsn wal` subcommand: offline tooling over one log file.
/// `inspect` and `truncate` print a JSON summary of the scan; `export`
/// re-emits the decodable records as the JSONL `tfsn mutate` reads, so
/// `tfsn wal export --file X.wal | tfsn mutate ...` replays a log against
/// any deployment.
fn wal_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let Some(action) = args.first() else {
        return Err(usage(
            "wal needs an action: inspect, truncate, or export (then --file PATH)",
        ));
    };
    let flags = Flags::parse(&args[1..], &["--file", "--output", "--from-seq", "--max"])?;
    // Flags::parse always admits the shared deployment flags; wal operates
    // on a file, not a deployment, so they would be silently ignored here —
    // fail loudly instead.
    if let Some(flag) = DEPLOYMENT_FLAGS.iter().find(|f| flags.has(f)) {
        return Err(usage(format!("unknown flag `{flag}` for this subcommand")));
    }
    if action != "export" {
        if let Some(flag) = ["--from-seq", "--max"].iter().find(|f| flags.has(f)) {
            return Err(usage(format!(
                "flag `{flag}` only applies to `wal export` (slicing a summary \
                 or a truncation makes no sense)"
            )));
        }
    }
    let path = flags
        .get("--file")
        .ok_or_else(|| usage("wal needs --file PATH (the log file to operate on)"))?;
    let path = std::path::Path::new(path);
    let summary_json = |scan: &wal::WalScan| {
        let mut m: Vec<(String, serde::Value)> = vec![
            (
                "file".to_string(),
                serde::Value::Str(path.display().to_string()),
            ),
            (
                "records".to_string(),
                serde::Value::UInt(scan.mutations.len() as u64),
            ),
            (
                "valid_bytes".to_string(),
                serde::Value::UInt(scan.valid_bytes),
            ),
            (
                "file_bytes".to_string(),
                serde::Value::UInt(scan.file_bytes),
            ),
            ("clean".to_string(), serde::Value::Bool(scan.clean())),
        ];
        if let Some(tail) = &scan.tail {
            m.push((
                "torn_tail".to_string(),
                serde::Value::Map(vec![
                    ("offset".to_string(), serde::Value::UInt(tail.offset)),
                    ("bytes".to_string(), serde::Value::UInt(tail.bytes)),
                    ("reason".to_string(), serde::Value::Str(tail.reason.clone())),
                ]),
            ));
        }
        serde_json::to_string_pretty(&serde::Value::Map(m))
            .map_err(|e| runtime(format!("serialize wal summary: {e}")))
    };
    match action.as_str() {
        "inspect" => {
            let scan = wal::scan(path)
                .map_err(|e| runtime(format!("cannot scan {}: {e}", path.display())))?;
            writeln!(out, "{}", summary_json(&scan)?)
                .map_err(|e| runtime(format!("write summary: {e}")))?;
            Ok(())
        }
        "truncate" => {
            let scan = wal::truncate_torn_tail(path)
                .map_err(|e| runtime(format!("cannot truncate {}: {e}", path.display())))?;
            // The scan is pre-truncation: its torn tail is what was cut.
            match &scan.tail {
                Some(tail) => writeln!(
                    err,
                    "[tfsn] cut {} torn byte(s) at offset {} ({})",
                    tail.bytes, tail.offset, tail.reason
                )
                .ok(),
                None => writeln!(err, "[tfsn] log is clean; nothing to cut").ok(),
            };
            writeln!(out, "{}", summary_json(&scan)?)
                .map_err(|e| runtime(format!("write summary: {e}")))?;
            Ok(())
        }
        "export" => {
            let scan = wal::scan(path)
                .map_err(|e| runtime(format!("cannot scan {}: {e}", path.display())))?;
            if let Some(tail) = &scan.tail {
                writeln!(
                    err,
                    "[tfsn] torn tail skipped: {} byte(s) at offset {} ({})",
                    tail.bytes, tail.offset, tail.reason
                )
                .ok();
            }
            // The same positional slice rule the `wal_pull` protocol op
            // applies, so an exported window replays exactly what a
            // follower at that sequence would pull.
            let from_seq: u64 = flags.parse_num("--from-seq", 0)?;
            let max: Option<u64> = match flags.get("--max") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| usage(format!("flag `--max`: invalid value `{v}`")))?,
                ),
            };
            let mut sink = open_output(&flags, out)?;
            for mutation in wal::slice(&scan.mutations, from_seq, max) {
                writeln!(sink, "{}", crate::proto::mutation_json(mutation))
                    .map_err(|e| runtime(format!("write mutation: {e}")))?;
            }
            sink.flush()
                .map_err(|e| runtime(format!("write mutation: {e}")))?;
            Ok(())
        }
        other => Err(usage(format!(
            "unknown wal action `{other}` (expected inspect, truncate, or export)"
        ))),
    }
}

fn gen(flags: &Flags<'_>, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = load_dataset(flags)?;
    let queries: usize = flags.parse_num("--queries", 100)?;
    let task_size: usize = flags.parse_num("--task-size", 5)?;
    let workload_seed: u64 = flags.parse_num("--seed", 7)?;

    let kinds = parse_kind_list(flags.get("--kinds"))?;
    let algorithms = parse_algorithm_list(flags.get("--algorithms"))?;

    let tasks = random_coverable_tasks(&dataset.skills, task_size, queries, workload_seed);
    let mut sink = open_output(flags, out)?;
    for (i, task) in tasks.iter().enumerate() {
        let query = TeamQuery {
            id: Some(i as u64),
            task: task.skills().iter().map(|s| s.index()).collect(),
            // Cross the two lists: cycle kinds fastest and advance the
            // algorithm every full kinds cycle, so every (kind, algorithm)
            // combination appears even when the list lengths share a factor.
            kind: kinds[i % kinds.len()],
            solver: algorithms[(i / kinds.len()) % algorithms.len()].clone(),
            objective: None,
        };
        let line =
            serde_json::to_string(&query).map_err(|e| runtime(format!("serialize query: {e}")))?;
        writeln!(sink, "{line}").map_err(|e| runtime(format!("write query: {e}")))?;
    }
    sink.flush().ok();
    Ok(())
}

fn parse_kind_list(csv: Option<&str>) -> Result<Vec<CompatibilityKind>, CliError> {
    match csv {
        None => Ok(CompatibilityKind::EVALUATED.to_vec()),
        Some(csv) => csv
            .split(',')
            .map(|label| {
                CompatibilityKind::parse(label.trim())
                    .ok_or_else(|| usage(format!("unknown kind `{label}` in --kinds")))
            })
            .collect(),
    }
}

fn parse_algorithm_list(csv: Option<&str>) -> Result<Vec<tfsn_core::team::Solver>, CliError> {
    use tfsn_core::team::policies::TeamAlgorithm;
    use tfsn_core::team::Solver;
    match csv {
        None => Ok(vec![Solver::default_greedy()]),
        Some(csv) => csv
            .split(',')
            .map(|label| {
                let label = label.trim().to_ascii_uppercase();
                if label == "EXHAUSTIVE" {
                    Ok(Solver::Exhaustive)
                } else {
                    TeamAlgorithm::parse(&label)
                        .map(Solver::greedy)
                        .ok_or_else(|| {
                            usage(format!("unknown algorithm `{label}` in --algorithms"))
                        })
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_strings(args: &[&str]) -> (String, String, Result<(), String>) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let result = main_impl(&args, &mut out, &mut err).map_err(|e| match e {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        });
        (
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
            result,
        )
    }

    #[test]
    fn stats_prints_dataset_json_with_serving_plan() {
        let (out, _, result) = run_to_strings(&["stats", "--dataset", "slashdot"]);
        result.unwrap();
        assert!(out.contains("\"Slashdot\""));
        assert!(out.contains("214"));
        assert!(out.contains("\"serving\""));
        // No budget, auto mode: everything materialises.
        assert!(out.contains("\"tier\": \"matrix\""));
        assert!(out.contains("\"estimated_matrix_bytes\""));
    }

    #[test]
    fn stats_reports_rows_tier_under_tight_budget() {
        let (out, _, result) =
            run_to_strings(&["stats", "--dataset", "slashdot", "--memory-budget", "48K"]);
        result.unwrap();
        // 214 rows of 283 bytes (~59 KiB) cannot fit 48 KiB: auto mode
        // must pick row serving.
        assert!(out.contains("\"tier\": \"rows\""), "got: {out}");
        assert!(out.contains("\"memory_budget_bytes\": 49152"), "got: {out}");
    }

    #[test]
    fn stats_selects_among_named_deployments() {
        let (out, _, result) = run_to_strings(&[
            "stats",
            "--deployment",
            "sd=slashdot",
            "--deployment",
            "tiny=synthetic:nodes=70,edges=200,skills=10",
            "--select",
            "tiny",
        ]);
        result.unwrap();
        assert!(out.contains("synthetic-70n-200m"), "got: {out}");
        assert!(out.contains("\"users\": 70"), "got: {out}");
        // Unknown --select fails loudly.
        let (_, _, r) =
            run_to_strings(&["stats", "--deployment", "sd=slashdot", "--select", "prod"]);
        assert!(r.unwrap_err().contains("unknown deployment `prod`"));
        // Mixing the two deployment styles fails loudly — for every
        // dataset flag, not just --dataset (a silently ignored --scale
        // would serve the wrong data).
        let (_, _, r) = run_to_strings(&[
            "stats",
            "--deployment",
            "sd=slashdot",
            "--dataset",
            "slashdot",
        ]);
        assert!(r.unwrap_err().contains("mutually exclusive"));
        let (_, _, r) =
            run_to_strings(&["stats", "--deployment", "big=epinions", "--scale", "0.5"]);
        let err = r.unwrap_err();
        assert!(
            err.contains("--scale") && err.contains("mutually exclusive"),
            "{err}"
        );
    }

    #[test]
    fn memory_budget_suffixes_parse() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("3m").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("12XB").is_err());
        assert!(parse_bytes("-1K").is_err());
    }

    #[test]
    fn bad_serving_flags_are_usage_errors() {
        let (_, _, r) = run_to_strings(&["stats", "--serving-mode", "turbo"]);
        assert!(r.unwrap_err().contains("auto, matrix or rows"));
        let (_, _, r) = run_to_strings(&["stats", "--memory-budget", "lots"]);
        assert!(r.unwrap_err().contains("invalid value"));
        let (_, _, r) = run_to_strings(&["stats", "--deployment", "noequals"]);
        assert!(r.unwrap_err().contains("NAME=SPEC"));
        // gen takes no serving flags.
        let (_, _, r) = run_to_strings(&["gen", "--serving-mode", "rows"]);
        assert!(r.unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn serve_batch_row_mode_round_trips() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-rows-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let queries_path = dir.join("queries.jsonl");
        let answers_path = dir.join("answers.jsonl");
        let (queries_jsonl, _, result) = run_to_strings(&[
            "gen",
            "--dataset",
            "slashdot",
            "--queries",
            "6",
            "--kinds",
            "SPO,NNE",
        ]);
        result.unwrap();
        std::fs::write(&queries_path, &queries_jsonl).unwrap();
        let (_, err, result) = run_to_strings(&[
            "serve-batch",
            "--dataset",
            "slashdot",
            "--serving-mode",
            "rows",
            "--memory-budget",
            "64K",
            "--input",
            queries_path.to_str().unwrap(),
            "--output",
            answers_path.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        result.unwrap();
        assert!(err.contains("row builds"), "summary: {err}");
        assert!(err.contains("[tfsn] metrics {"), "metrics line: {err}");
        let answers = std::fs::read_to_string(&answers_path).unwrap();
        assert_eq!(answers.lines().count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_batch_streams_chunks_and_no_timing_is_stable() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-chunk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let queries_path = dir.join("queries.jsonl");
        let (queries_jsonl, _, result) =
            run_to_strings(&["gen", "--dataset", "slashdot", "--queries", "9"]);
        result.unwrap();
        std::fs::write(&queries_path, &queries_jsonl).unwrap();
        let serve = |chunk: &str| {
            let (out, err, result) = run_to_strings(&[
                "serve-batch",
                "--dataset",
                "slashdot",
                "--chunk",
                chunk,
                "--no-timing",
                "--warm",
                "--input",
                queries_path.to_str().unwrap(),
                "--threads",
                "2",
            ]);
            result.unwrap();
            (out, err)
        };
        let (answers_small, err_small) = serve("4");
        let (answers_large, err_large) = serve("1024");
        assert!(err_small.contains("3 chunk(s)"), "summary: {err_small}");
        assert!(err_large.contains("1 chunk(s)"), "summary: {err_large}");
        assert_eq!(
            answers_small, answers_large,
            "chunking must not change the JSONL stream"
        );
        assert!(answers_small.contains("\"micros\":0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_batch_objective_flag_stamps_unpinned_queries() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-obj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let queries_path = dir.join("queries.jsonl");
        // One objective-less query and one that pins min_team explicitly:
        // the flag must stamp the first and leave the second alone.
        std::fs::write(
            &queries_path,
            "{\"id\": 0, \"task\": [0, 1]}\n\
             {\"id\": 1, \"task\": [0, 1], \"objective\": \"min_team\"}\n",
        )
        .unwrap();
        let (out, _, result) = run_to_strings(&[
            "serve-batch",
            "--dataset",
            "slashdot",
            "--no-timing",
            "--objective",
            "synergy",
            "--input",
            queries_path.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        result.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].contains("\"objective\":\"synergy\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"objective\":\"min_team\""),
            "{}",
            lines[1]
        );
        // The JSON-object SPEC form parses too.
        let (out, _, result) = run_to_strings(&[
            "serve-batch",
            "--dataset",
            "slashdot",
            "--no-timing",
            "--objective",
            "{\"kind\": \"constrained\", \"max_size\": 6}",
            "--input",
            queries_path.to_str().unwrap(),
        ]);
        result.unwrap();
        assert!(out
            .lines()
            .next()
            .unwrap()
            .contains("\"objective\":\"constrained\""));
        // A bad SPEC is a usage error echoing the offending objective.
        let (_, _, r) = run_to_strings(&[
            "serve-batch",
            "--dataset",
            "slashdot",
            "--objective",
            "turbo",
            "--input",
            queries_path.to_str().unwrap(),
        ]);
        let err = r.unwrap_err();
        assert!(err.contains("unknown objective `turbo`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutate_applies_jsonl_and_emits_envelopes() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-mutate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops_path = dir.join("mutations.jsonl");
        // Remove-then-insert is deterministic regardless of whether the
        // seeded graph already had edge (0, 1); the out-of-range op is a
        // typed rejection; the comment and blank line are skipped.
        std::fs::write(
            &ops_path,
            "# a mutation log\n\
             {\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n\
             \n\
             {\"op\": \"edge_insert\", \"u\": 0, \"v\": 1, \"sign\": \"-\"}\n\
             {\"op\": \"edge_set_sign\", \"u\": 0, \"v\": 9999, \"sign\": \"+\"}\n",
        )
        .unwrap();
        let (out, err, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
        ]);
        result.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "one envelope per op: {out}");
        // The insert always lands (any pre-existing edge was removed).
        assert!(lines[1].contains("\"op\":\"mutated\""), "{}", lines[1]);
        assert!(
            lines[1].contains("\"mutation\":\"edge_insert\""),
            "{}",
            lines[1]
        );
        // The unknown node is a typed bad_request envelope, not an abort.
        assert!(
            lines[2].contains("\"code\":\"bad_request\""),
            "{}",
            lines[2]
        );
        assert!(err.contains("mutation(s) applied"), "summary: {err}");
        assert!(err.contains("rows invalidated"), "summary: {err}");
        assert!(err.contains("[tfsn] metrics {"), "metrics line: {err}");
        // Unparseable lines are numbered error envelopes too.
        std::fs::write(&ops_path, "boom\n").unwrap();
        let (out, _, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
        ]);
        result.unwrap();
        assert!(out.contains("line 1:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutate_batch_flag_groups_envelopes() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-batch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops_path = dir.join("mutations.jsonl");
        // Five parseable mutations with --batch 2 group as 2 + 2 + 1; the
        // unparseable line in the middle flushes the pending group first so
        // envelope order tracks input order.
        std::fs::write(
            &ops_path,
            "{\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n\
             {\"op\": \"edge_insert\", \"u\": 0, \"v\": 1, \"sign\": \"-\"}\n\
             {\"op\": \"edge_set_sign\", \"u\": 0, \"v\": 1, \"sign\": \"+\"}\n\
             boom\n\
             {\"op\": \"edge_set_sign\", \"u\": 0, \"v\": 9999, \"sign\": \"+\"}\n\
             {\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n",
        )
        .unwrap();
        let (out, err, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
            "--batch",
            "2",
        ]);
        result.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // [remove, insert] + [set_sign] (flushed by the bad line) + the
        // bad-line error + [set_sign-oob, remove].
        assert_eq!(lines.len(), 4, "grouped envelopes: {out}");
        assert!(
            lines[0].contains("\"op\":\"mutated_batch\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].contains("\"mutation\":\"edge_insert\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"op\":\"mutated_batch\""),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("line 4:"), "{}", lines[2]);
        assert!(
            lines[3].contains("\"op\":\"mutated_batch\""),
            "{}",
            lines[3]
        );
        // The out-of-range set_sign is a per-mutation rejection inside the
        // final group, not a whole-batch error.
        assert!(lines[3].contains("\"applied\":false"), "{}", lines[3]);
        assert!(lines[3].contains("\"applied\":true"), "{}", lines[3]);
        assert!(err.contains("4 mutation(s) applied, 2 rejected"), "{err}");
        // --batch 0 and oversized batches are usage errors.
        let (_, _, r) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
            "--batch",
            "0",
        ]);
        assert!(r.unwrap_err().contains("at least 1"));
        let (_, _, r) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
            "--batch",
            "1025",
        ]);
        assert!(r.unwrap_err().contains("at most 1024"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_emits_parseable_queries() {
        let (out, _, result) = run_to_strings(&[
            "gen",
            "--dataset",
            "slashdot",
            "--queries",
            "12",
            "--task-size",
            "3",
            "--kinds",
            "SPA,NNE",
        ]);
        result.unwrap();
        let queries = read_queries(std::io::Cursor::new(out)).unwrap();
        assert_eq!(queries.len(), 12);
        assert!(queries.iter().all(|q| q.task.len() == 3));
        assert!(queries
            .iter()
            .all(|q| matches!(q.kind, CompatibilityKind::Spa | CompatibilityKind::Nne)));
    }

    #[test]
    fn gen_crosses_kinds_with_algorithms() {
        let (out, _, result) = run_to_strings(&[
            "gen",
            "--dataset",
            "slashdot",
            "--queries",
            "8",
            "--kinds",
            "SPA,NNE",
            "--algorithms",
            "LCMD,RANDOM",
        ]);
        result.unwrap();
        let queries = read_queries(std::io::Cursor::new(out)).unwrap();
        let mut combos: Vec<(String, String)> = queries
            .iter()
            .map(|q| (q.kind.label().to_string(), q.solver.label().to_string()))
            .collect();
        combos.sort();
        combos.dedup();
        assert_eq!(
            combos.len(),
            4,
            "every (kind, algorithm) combination must appear: {combos:?}"
        );
    }

    #[test]
    fn unknown_flags_and_subcommands_are_usage_errors() {
        let (_, _, r) = run_to_strings(&["bogus"]);
        assert!(r.unwrap_err().contains("unknown subcommand"));
        let (_, _, r) = run_to_strings(&["stats", "--dataset"]);
        assert!(r.unwrap_err().contains("needs a value"));
        let (_, _, r) = run_to_strings(&["gen", "--kinds", "XYZ"]);
        assert!(r.unwrap_err().contains("XYZ"));
        // Typo'd or wrong-subcommand flags fail loudly instead of being
        // silently ignored.
        let (_, _, r) = run_to_strings(&["stats", "--thread", "8"]);
        assert!(r.unwrap_err().contains("unknown flag `--thread`"));
        let (_, _, r) = run_to_strings(&["stats", "--warm"]);
        assert!(r.unwrap_err().contains("unknown flag `--warm`"));
        let (_, _, r) = run_to_strings(&["gen", "--addr", "127.0.0.1:0"]);
        assert!(r.unwrap_err().contains("unknown flag `--addr`"));
    }

    #[test]
    fn mutate_truncated_final_record_aborts_with_byte_offset() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-trunc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops_path = dir.join("mutations.jsonl");
        // The final record is chopped mid-object with no trailing newline:
        // a partially written log, not a malformed line. The abort names
        // the byte where the partial record starts (= the resume point).
        let good = "{\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n\
                    {\"op\": \"edge_insert\", \"u\": 0, \"v\": 1, \"sign\": \"-\"}\n";
        std::fs::write(&ops_path, format!("{good}{{\"op\": \"edge_ins")).unwrap();
        let (out, _, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5",
            "--input",
            ops_path.to_str().unwrap(),
        ]);
        let err = result.unwrap_err();
        assert!(
            err.contains(&format!("truncated at byte {}", good.len())),
            "{err}"
        );
        assert!(err.contains("line 3"), "{err}");
        // The complete records before the chop were still processed (the
        // remove-then-insert pair lands regardless of the seeded graph).
        assert_eq!(out.lines().count(), 2, "{out}");
        assert!(
            out.lines().nth(1).unwrap().contains("\"op\":\"mutated\""),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_cli_inspects_truncates_and_exports_replayable_jsonl() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops_path = dir.join("mutations.jsonl");
        let wal_dir = dir.join("wal");
        std::fs::write(
            &ops_path,
            "{\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n\
             {\"op\": \"edge_insert\", \"u\": 0, \"v\": 1, \"sign\": \"-\"}\n",
        )
        .unwrap();
        let deployment = "tiny=synthetic:nodes=60,edges=180,skills=10,seed=5";
        let (_, _, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            deployment,
            "--input",
            ops_path.to_str().unwrap(),
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--wal-fsync",
            "always",
        ]);
        result.unwrap();
        let wal_file = wal_dir.join("tiny.wal");
        let wal_flag = ["--file", wal_file.to_str().unwrap()];

        // Both mutations were logged (append-before-apply logs rejected
        // ones too; replay re-fails them deterministically).
        let (out, _, result) = run_to_strings(&["wal", "inspect", wal_flag[0], wal_flag[1]]);
        result.unwrap();
        assert!(out.contains("\"records\": 2"), "{out}");
        assert!(out.contains("\"clean\": true"), "{out}");

        // Export emits exactly the JSONL `tfsn mutate` reads.
        let (export, _, result) = run_to_strings(&["wal", "export", wal_flag[0], wal_flag[1]]);
        result.unwrap();
        assert_eq!(export.lines().count(), 2, "{export}");
        assert!(export.contains("{\"op\":\"edge_insert\",\"u\":0,\"v\":1,\"sign\":\"-\"}"));
        let replay = dir.join("replay.jsonl");
        std::fs::write(&replay, &export).unwrap();
        let (_, _, result) = run_to_strings(&[
            "mutate",
            "--deployment",
            deployment,
            "--input",
            replay.to_str().unwrap(),
        ]);
        result.unwrap();

        // Chop the file mid-record: inspect reports the torn tail,
        // truncate cuts it, inspect is clean again.
        let bytes = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &bytes[..bytes.len() - 3]).unwrap();
        let (out, _, result) = run_to_strings(&["wal", "inspect", wal_flag[0], wal_flag[1]]);
        result.unwrap();
        assert!(out.contains("\"clean\": false"), "{out}");
        assert!(out.contains("\"torn_tail\""), "{out}");
        assert!(out.contains("\"records\": 1"), "{out}");
        let (out, err, result) = run_to_strings(&["wal", "truncate", wal_flag[0], wal_flag[1]]);
        result.unwrap();
        assert!(err.contains("cut"), "{err}");
        assert!(out.contains("\"torn_tail\""), "pre-cut summary: {out}");
        let (out, _, result) = run_to_strings(&["wal", "inspect", wal_flag[0], wal_flag[1]]);
        result.unwrap();
        assert!(out.contains("\"clean\": true"), "{out}");
        assert!(out.contains("\"records\": 1"), "{out}");

        // Guard rails: missing --file and dataset flags fail loudly.
        let (_, _, r) = run_to_strings(&["wal", "inspect"]);
        assert!(r.unwrap_err().contains("--file"));
        let (_, _, r) = run_to_strings(&["wal", "inspect", "--dataset", "slashdot"]);
        assert!(r.unwrap_err().contains("unknown flag"));
        let (_, _, r) = run_to_strings(&["stats", "--dataset", "slashdot", "--wal-fsync", "batch"]);
        assert!(r.unwrap_err().contains("--wal-dir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_batch_summary_counts_edges_replayed_from_the_wal() {
        let dir = std::env::temp_dir().join(format!("tfsn-cli-replay-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("wal");
        let run = |cmd: &str, input: &str| {
            let path = dir.join(format!("{cmd}.jsonl"));
            std::fs::write(&path, input).unwrap();
            let (wal, path) = (wal.to_str().unwrap(), path.to_str().unwrap());
            let args = [
                cmd,
                "--dataset",
                "slashdot",
                "--wal-dir",
                wal,
                "--input",
                path,
            ];
            let (_, err, result) = run_to_strings(&args);
            result.unwrap();
            err
        };
        run("mutate", "{\"op\": \"edge_remove\", \"u\": 0, \"v\": 1}\n");
        // Slashdot loads with 304 edges; the replayed log removed one.
        let summary = run("serve-batch", "{\"task\": [0, 3]}\n");
        assert!(summary.contains("Slashdot on 214n/303m:"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_queries_reports_line_numbers() {
        let input = "{\"task\": [1]}\n\n# comment\nnot-json\n";
        let err = read_queries(std::io::Cursor::new(input)).unwrap_err();
        assert!(err.starts_with("line 4:"), "got: {err}");
    }
}
