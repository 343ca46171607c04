//! Serving telemetry: every counter and latency distribution an engine
//! records, plus a log of the slowest queries.
//!
//! Every [`crate::Engine`] owns one [`EngineTelemetry`], its only recording
//! type. It answers both *how many* and *what is p99, and where does the
//! time go?*:
//!
//! * **per-operation** latency histograms for `query`, `batch`, `mutate`
//!   and `warm` ([`Op::ALL`]);
//! * **per-phase** histograms splitting each query into `build_wait`
//!   (a kind's fill or any wait on another query's in-flight build,
//!   including row-build waits — see the row wait accounting in
//!   `tfsn_core::compat`), `row_compute` (rows this query computed itself),
//!   `solve` (solver + lookups) and `serialize` (answer encoding, recorded
//!   per batch chunk by the service layer) ([`Phase::ALL`]);
//! * **per-kind** and **per-objective** query-latency histograms over
//!   [`CompatibilityKind::ALL`] and [`Objective::ALL_LABELS`];
//! * the counters no histogram records: queries solved, cache hits and
//!   misses, WAL appends (queries served, busy time and build time are read
//!   off the `query` op and the phase histograms);
//! * a [`SlowQueryLog`] retaining the N slowest queries with their phase
//!   breakdowns, so a tail outlier can be attributed without rerunning.
//!
//! Accounting semantics: a query is a **cache miss** iff it performed
//! relation-building work itself — it ran a kind's fill, or computed at
//! least one per-source row. A query that found everything resident, *or
//! that blocked on a build another query was already running*, is a hit.
//! So for filled kinds `cache_misses` equals the number of query-triggered
//! fills exactly, even when N cold queries race on one kind (fills run via
//! [`crate::Engine::warm`] are outside query accounting); for rows filled
//! on demand each miss covers all the rows that query built, so
//! `cache_misses <= row_builds`.
//!
//! Recording is lock-free (three relaxed atomics per histogram sample; the
//! slow log takes a lock only when a query beats the current admission
//! threshold). Snapshots are read with relaxed loads and merge exactly, so
//! the service can aggregate across deployments.
//!
//! Everything is exposed two ways: the JSON `metrics` and `telemetry`
//! protocol operations ([`MetricsSnapshot`], [`TelemetryReport`]) and the
//! Prometheus text exposition at `GET /metrics` ([`prometheus::FAMILIES`];
//! see `docs/OBSERVABILITY.md`).

pub mod histogram;
pub mod prometheus;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
// The report payload shapes are wire types and live crate-side in
// `tfsn-client` (`tfsn_client::report`), so dashboards parse telemetry
// without linking the engine; re-exported under their historical paths.
pub use tfsn_client::report::{
    AxisStats, HistogramStats, MetricsSnapshot, SlowQuery, TelemetryReport,
};

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::Objective;

/// Process-global serving counters that do not belong to any one engine.
/// They are monotonic for the life of the process and surface unlabeled in
/// the `/metrics` exposition (`tfsn_requests_shed_total`; client retries
/// are counted by `tfsn_client::client` and surface as
/// `tfsn_client_retries_total`).
pub mod globals {
    use std::sync::atomic::{AtomicU64, Ordering};

    static REQUESTS_SHED: AtomicU64 = AtomicU64::new(0);

    /// Counts one request refused with `overloaded` (admission queue full,
    /// admission wait expired, or the connection cap hit).
    pub fn note_request_shed() {
        REQUESTS_SHED.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed so far in this process.
    pub fn requests_shed() -> u64 {
        REQUESTS_SHED.load(Ordering::Relaxed)
    }
}

/// Operations with their own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One team query (each query in a batch records here too).
    Query,
    /// One whole batch run, wall time.
    Batch,
    /// One live edge mutation.
    Mutate,
    /// One warm call (pre-building relations for a set of kinds).
    Warm,
}

impl Op {
    /// Every operation, in exposition order.
    pub const ALL: [Op; 4] = [Op::Query, Op::Batch, Op::Mutate, Op::Warm];

    /// The label used in Prometheus `op=` labels and telemetry reports.
    pub fn label(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Batch => "batch",
            Op::Mutate => "mutate",
            Op::Warm => "warm",
        }
    }
}

/// Phases of a served query, each with its own duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building relation state or blocked on another query's in-flight
    /// build: the fetch slice (a fill, or a wait on it) plus row-build
    /// *waits*.
    BuildWait,
    /// Per-source rows this query computed itself.
    RowCompute,
    /// Solver plus relation lookups — total minus the other phases.
    Solve,
    /// Encoding answers to JSON (recorded per streamed batch chunk).
    Serialize,
}

impl Phase {
    /// Every phase, in exposition order.
    pub const ALL: [Phase; 4] = [
        Phase::BuildWait,
        Phase::RowCompute,
        Phase::Solve,
        Phase::Serialize,
    ];

    /// The label used in Prometheus `phase=` labels and telemetry reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BuildWait => "build_wait",
            Phase::RowCompute => "row_compute",
            Phase::Solve => "solve",
            Phase::Serialize => "serialize",
        }
    }
}

/// The labelled histogram axes, each exported under its own label name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Per-operation latency ([`Op`]).
    Op,
    /// Per-phase latency ([`Phase`]).
    Phase,
    /// Per-kind query latency ([`CompatibilityKind`]).
    Kind,
    /// Per-objective query latency ([`Objective::ALL_LABELS`]).
    Objective,
}

impl Axis {
    /// The Prometheus label name (`op=`, `phase=`, `kind=`, `objective=`).
    pub fn label(self) -> &'static str {
        match self {
            Axis::Op => "op",
            Axis::Phase => "phase",
            Axis::Kind => "kind",
            Axis::Objective => "objective",
        }
    }
}

/// Histogram bucket boundaries (in microseconds) used by the Prometheus
/// exposition. Each is the exact lower bound of an internal bucket, so the
/// cumulative `_bucket{le=...}` counts are derived without splitting any
/// bucket. `le` is emitted in the family's unit; a `+Inf` line closes each
/// series.
pub const PROM_BOUNDS_MICROS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
];

/// One query's timing facts, as fed to [`EngineTelemetry::record_query`].
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// The compatibility kind queried.
    pub kind: CompatibilityKind,
    /// Solver label (`"LCMD"`, `"EXHAUSTIVE"`, …).
    pub algorithm: String,
    /// Effective objective label (one of [`Objective::ALL_LABELS`];
    /// objective-less queries record under the default `"min_team"`).
    pub objective: &'static str,
    /// Total in-engine time, microseconds.
    pub total_micros: u64,
    /// [`Phase::BuildWait`] slice of the total.
    pub build_wait_micros: u64,
    /// [`Phase::RowCompute`] slice of the total.
    pub row_compute_micros: u64,
    /// Members in the returned team (0 when unsolved).
    pub team_size: u64,
    /// Whether the query was answered with a team.
    pub solved: bool,
}

impl QuerySample {
    /// The [`Phase::Solve`] slice: total minus build-wait and row-compute.
    pub fn solve_micros(&self) -> u64 {
        self.total_micros
            .saturating_sub(self.build_wait_micros + self.row_compute_micros)
    }
}

/// Per-engine telemetry: one histogram per operation, phase, compatibility
/// kind and objective, the counters no histogram records, and the
/// slow-query log. One instance per [`crate::Engine`], shared by all its
/// worker threads.
#[derive(Debug)]
pub struct EngineTelemetry {
    ops: [LatencyHistogram; Op::ALL.len()],
    phases: [LatencyHistogram; Phase::ALL.len()],
    kinds: [LatencyHistogram; CompatibilityKind::ALL.len()],
    objectives: [LatencyHistogram; Objective::ALL_LABELS.len()],
    /// Queries answered with a team.
    queries_solved: AtomicU64,
    /// Queries that performed no relation-building work themselves.
    cache_hits: AtomicU64,
    /// Queries that ran a fill or computed at least one row.
    cache_misses: AtomicU64,
    /// Durable WAL appends acknowledged by this engine (replay excluded —
    /// replayed records go through a WAL-less mutate).
    wal_appends: AtomicU64,
    /// Fsync latency of WAL appends that flushed (per the fsync policy).
    wal_fsync: LatencyHistogram,
    slow: SlowQueryLog,
}

impl Default for EngineTelemetry {
    fn default() -> Self {
        EngineTelemetry::new(SlowQueryLog::DEFAULT_CAPACITY)
    }
}

impl EngineTelemetry {
    /// Creates telemetry retaining up to `slow_log` slow-query entries
    /// (0 disables the log; histograms always record).
    pub fn new(slow_log: usize) -> Self {
        EngineTelemetry {
            ops: std::array::from_fn(|_| LatencyHistogram::default()),
            phases: std::array::from_fn(|_| LatencyHistogram::default()),
            kinds: std::array::from_fn(|_| LatencyHistogram::default()),
            objectives: std::array::from_fn(|_| LatencyHistogram::default()),
            queries_solved: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_fsync: LatencyHistogram::default(),
            slow: SlowQueryLog::new(slow_log),
        }
    }

    /// Records one acknowledged WAL append (and, when it flushed, its
    /// fsync latency). Fed by [`crate::Engine::mutate`]; surfaces as
    /// `tfsn_wal_appends_total` / `tfsn_wal_fsync_micros` in `/metrics`.
    pub fn record_wal_append(&self, receipt: &crate::wal::AppendReceipt) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        if receipt.fsynced {
            self.wal_fsync.record(receipt.fsync_micros);
        }
    }

    /// Durable WAL appends recorded so far.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Records whether a served query was a cache hit (see the module docs
    /// for what counts as one). [`crate::Engine::query`] calls this once per
    /// query next to [`EngineTelemetry::record_query`].
    pub fn record_cache(&self, hit: bool) {
        let counter = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served query into the query-op, per-phase, per-kind, and
    /// per-objective histograms, counts it if solved, and offers it to the
    /// slow-query log.
    pub fn record_query(&self, sample: QuerySample) {
        self.record_op(Op::Query, sample.total_micros);
        self.record_phase(Phase::BuildWait, sample.build_wait_micros);
        self.record_phase(Phase::RowCompute, sample.row_compute_micros);
        self.record_phase(Phase::Solve, sample.solve_micros());
        self.kinds[sample.kind as usize].record(sample.total_micros);
        // Unknown labels cannot arrive from the engine (the sample carries a
        // label from the closed set), but index defensively anyway.
        let idx = Objective::ALL_LABELS
            .iter()
            .position(|&l| l == sample.objective)
            .unwrap_or(0);
        self.objectives[idx].record(sample.total_micros);
        if sample.solved {
            self.queries_solved.fetch_add(1, Ordering::Relaxed);
        }
        self.slow.offer(sample);
    }

    /// Records one operation duration (used for `batch`/`mutate`/`warm`;
    /// `query` durations arrive via [`EngineTelemetry::record_query`]).
    pub fn record_op(&self, op: Op, micros: u64) {
        self.ops[op as usize].record(micros);
    }

    /// Records one phase duration outside [`EngineTelemetry::record_query`]
    /// (the service layer books [`Phase::Serialize`] this way).
    pub fn record_phase(&self, phase: Phase, micros: u64) {
        self.phases[phase as usize].record(micros);
    }

    /// A point-in-time copy of one operation's histogram.
    pub fn op_snapshot(&self, op: Op) -> HistogramSnapshot {
        self.ops[op as usize].snapshot()
    }

    /// Every labelled histogram as `(axis, label, histogram)`, in exposition
    /// order: operations, phases, kinds, then objectives. The `telemetry`
    /// report and the Prometheus exposition both walk this.
    pub fn axes(&self) -> impl Iterator<Item = (Axis, &'static str, &LatencyHistogram)> {
        let ops = Op::ALL
            .iter()
            .map(|&op| (Axis::Op, op.label(), &self.ops[op as usize]));
        let phases = Phase::ALL
            .iter()
            .map(|&phase| (Axis::Phase, phase.label(), &self.phases[phase as usize]));
        let kinds = CompatibilityKind::ALL
            .iter()
            .map(|&kind| (Axis::Kind, kind.label(), &self.kinds[kind as usize]));
        let objectives = Objective::ALL_LABELS
            .iter()
            .zip(&self.objectives)
            .map(|(&label, histogram)| (Axis::Objective, label, histogram));
        ops.chain(phases).chain(kinds).chain(objectives)
    }

    /// The query counters and latency percentiles of a [`MetricsSnapshot`].
    /// The store gauges stay zero; [`crate::Engine::metrics`] fills them.
    /// Queries served and busy time are the `query` op histogram's count
    /// and sum; build time is the `build_wait` plus `row_compute` sums.
    pub fn query_metrics(&self) -> MetricsSnapshot {
        let queries = self.op_snapshot(Op::Query);
        let phase_sum = |phase: Phase| self.phases[phase as usize].snapshot().sum;
        let mut snapshot = MetricsSnapshot {
            queries_served: queries.count(),
            queries_solved: self.queries_solved.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            busy_micros: queries.sum,
            build_wait_micros: phase_sum(Phase::BuildWait) + phase_sum(Phase::RowCompute),
            ..MetricsSnapshot::default()
        };
        set_query_latency(&mut snapshot, &queries);
        snapshot
    }

    /// The full structured report served by the `telemetry` protocol op:
    /// every axis's percentile summaries plus the slow queries, slowest
    /// first.
    pub fn report(&self) -> TelemetryReport {
        let mut report = TelemetryReport {
            ops: Vec::new(),
            phases: Vec::new(),
            kinds: Vec::new(),
            objectives: Vec::new(),
            slow_queries: self.slow.entries(),
        };
        for (axis, label, histogram) in self.axes() {
            let list = match axis {
                Axis::Op => &mut report.ops,
                Axis::Phase => &mut report.phases,
                Axis::Kind => &mut report.kinds,
                Axis::Objective => &mut report.objectives,
            };
            list.push(AxisStats {
                label: label.to_string(),
                stats: histogram_stats(&histogram.snapshot()),
            });
        }
        report
    }
}

/// Sets the `query_p50_micros` … `query_max_micros` fields of `snapshot`
/// from a `query` op histogram (one engine's, or several merged).
pub fn set_query_latency(snapshot: &mut MetricsSnapshot, queries: &HistogramSnapshot) {
    snapshot.query_p50_micros = Some(queries.quantile(0.50));
    snapshot.query_p90_micros = Some(queries.quantile(0.90));
    snapshot.query_p99_micros = Some(queries.quantile(0.99));
    snapshot.query_p999_micros = Some(queries.quantile(0.999));
    snapshot.query_max_micros = Some(queries.max);
}

/// Keeps the `capacity` slowest queries seen so far.
///
/// Despite the classic "ring buffer" name this is a bounded *min-evicting*
/// set: once full, a new query is admitted only if it is slower than the
/// current fastest retained entry, which then leaves. The admission check is
/// a single relaxed load, so the hot path takes the lock only for genuinely
/// slow queries.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    /// Admission threshold: the smallest retained total once full, else 0.
    threshold: AtomicU64,
    /// Monotonic query ordinal, bumped for every offered query.
    seq: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryLog {
    /// Entries retained when no `--slow-log` capacity is given.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// A log retaining up to `capacity` entries (0 disables retention; the
    /// sequence counter still advances so ordinals stay comparable).
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            capacity,
            threshold: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offers one query; assigns it the next monotonic sequence number and
    /// retains it if it ranks among the slowest seen.
    pub fn offer(&self, sample: QuerySample) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 || sample.total_micros < self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock();
        // Re-check under the lock: the threshold may have risen.
        if entries.len() == self.capacity {
            let (slot, fastest) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_micros)
                .map(|(i, e)| (i, e.total_micros))
                .expect("capacity > 0, so a full log is non-empty");
            if sample.total_micros <= fastest {
                return;
            }
            entries.swap_remove(slot);
        }
        let solve_micros = sample.solve_micros();
        entries.push(SlowQuery {
            seq,
            kind: sample.kind.label().to_string(),
            algorithm: sample.algorithm,
            objective: sample.objective.to_string(),
            total_micros: sample.total_micros,
            build_wait_micros: sample.build_wait_micros,
            row_compute_micros: sample.row_compute_micros,
            solve_micros,
            team_size: sample.team_size,
            solved: sample.solved,
        });
        if entries.len() == self.capacity {
            let min = entries
                .iter()
                .map(|e| e.total_micros)
                .min()
                .unwrap_or_default();
            self.threshold.store(min, Ordering::Relaxed);
        }
    }

    /// The retained entries, slowest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        let mut entries = self.entries.lock().clone();
        entries.sort_by(|a, b| b.total_micros.cmp(&a.total_micros).then(a.seq.cmp(&b.seq)));
        entries
    }
}

/// Summarizes one histogram snapshot into the wire
/// [`HistogramStats`] shape. (The struct lives in `tfsn-client`, which
/// cannot see the engine-internal [`HistogramSnapshot`], so this is a
/// free function rather than a constructor.)
pub fn histogram_stats(snapshot: &HistogramSnapshot) -> HistogramStats {
    HistogramStats {
        count: snapshot.count(),
        sum_micros: snapshot.sum,
        max_micros: snapshot.max,
        mean_micros: snapshot.mean(),
        p50_micros: snapshot.quantile(0.50),
        p90_micros: snapshot.quantile(0.90),
        p99_micros: snapshot.quantile(0.99),
        p999_micros: snapshot.quantile(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: CompatibilityKind, total: u64, wait: u64, compute: u64) -> QuerySample {
        QuerySample {
            kind,
            algorithm: "LCMD".to_string(),
            objective: "min_team",
            total_micros: total,
            build_wait_micros: wait,
            row_compute_micros: compute,
            team_size: 3,
            solved: true,
        }
    }

    #[test]
    fn query_recording_feeds_every_axis() {
        let t = EngineTelemetry::new(4);
        t.record_query(sample(CompatibilityKind::Spa, 100, 30, 20));
        t.record_query(sample(CompatibilityKind::Nne, 10, 0, 0));
        let report = t.report();
        assert_eq!(report.ops.len(), Op::ALL.len());
        assert_eq!(report.phases.len(), Phase::ALL.len());
        assert_eq!(report.kinds.len(), CompatibilityKind::ALL.len());
        assert_eq!(report.objectives.len(), Objective::ALL_LABELS.len());
        assert_eq!(report.ops[Op::Query as usize].stats.count, 2);
        let phase_sums: Vec<u64> = report.phases.iter().map(|a| a.stats.sum_micros).collect();
        assert_eq!(phase_sums, vec![30, 20, 60, 0]);
        assert_eq!(report.phases[Phase::Serialize as usize].stats.count, 0);
        let kind_counts: Vec<u64> = report.kinds.iter().map(|a| a.stats.count).collect();
        assert_eq!(kind_counts, vec![0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(report.slow_queries.len(), 2);
        assert_eq!(report.slow_queries[0].total_micros, 100);
        assert_eq!(report.slow_queries[0].solve_micros, 50);
        assert_eq!(report.slow_queries[0].objective, "min_team");
    }

    #[test]
    fn objective_axis_records_per_label() {
        let t = EngineTelemetry::new(4);
        t.record_query(sample(CompatibilityKind::Spa, 100, 0, 0));
        t.record_query(QuerySample {
            objective: "synergy",
            ..sample(CompatibilityKind::Spa, 40, 0, 0)
        });
        t.record_query(QuerySample {
            objective: "constrained",
            ..sample(CompatibilityKind::Nne, 70, 0, 0)
        });
        let report = t.report();
        let labels: Vec<&str> = report.objectives.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, Objective::ALL_LABELS.to_vec());
        let counts: Vec<u64> = report.objectives.iter().map(|a| a.stats.count).collect();
        assert_eq!(counts, vec![1, 1, 1]);
        assert_eq!(report.objectives[1].stats.sum_micros, 40);
    }

    #[test]
    fn query_metrics_read_off_the_histograms() {
        let t = EngineTelemetry::default();
        t.record_cache(false);
        t.record_query(sample(CompatibilityKind::Spa, 100, 40, 20));
        t.record_cache(true);
        t.record_query(QuerySample {
            solved: false,
            ..sample(CompatibilityKind::Spa, 50, 0, 0)
        });
        // Serialize is not a query phase, so it stays out of build time.
        t.record_phase(Phase::Serialize, 1000);
        let snap = t.query_metrics();
        assert_eq!(snap.queries_served, 2);
        assert_eq!(snap.queries_solved, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.busy_micros, 150);
        assert_eq!(snap.build_wait_micros, 60);
        assert_eq!(snap.query_max_micros, Some(100));
        assert!(snap.query_p50_micros <= snap.query_p99_micros);
        assert!((snap.mean_latency_micros() - 75.0).abs() < 1e-9);
        assert_eq!(snap.matrix_builds, 0);
    }

    #[test]
    fn slow_log_keeps_the_n_slowest() {
        let log = SlowQueryLog::new(3);
        for total in [50u64, 10, 70, 30, 90, 20, 60] {
            log.offer(sample(CompatibilityKind::Spa, total, 0, 0));
        }
        let totals: Vec<u64> = log.entries().iter().map(|e| e.total_micros).collect();
        assert_eq!(totals, vec![90, 70, 60]);
        // Sequence numbers are the query ordinals, not entry indices.
        let seqs: Vec<u64> = log.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 2, 6]);
    }

    #[test]
    fn zero_capacity_log_retains_nothing() {
        let log = SlowQueryLog::new(0);
        log.offer(sample(CompatibilityKind::Spa, 1000, 0, 0));
        assert!(log.entries().is_empty());
    }

    #[test]
    fn report_round_trips_as_json() {
        let t = EngineTelemetry::new(2);
        t.record_query(sample(CompatibilityKind::Spm, 250, 100, 50));
        t.record_op(Op::Batch, 400);
        let report = t.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
