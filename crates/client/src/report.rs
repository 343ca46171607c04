//! Observability payload schemas: the JSON shapes served by the `metrics`
//! and `telemetry` protocol operations.
//!
//! These are pure wire types — the engine-side collector
//! (`tfsn_engine::telemetry::EngineTelemetry`) populates them;
//! clients, the cluster router, and dashboards deserialize them without
//! linking the server. The engine re-exports them under their historical
//! paths (`tfsn_engine::MetricsSnapshot`,
//! `tfsn_engine::telemetry::TelemetryReport`, …).

use serde::{Deserialize, Serialize};

/// A point-in-time copy of the engine's serving counters plus the
/// relation-store gauges. Serialised as one JSON object by
/// `tfsn serve-batch` and inside the `metrics` protocol response.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Queries answered (any status).
    pub queries_served: u64,
    /// Queries answered with a team.
    pub queries_solved: u64,
    /// Queries that performed no build work (everything resident, or they
    /// only waited on another query's in-flight build).
    pub cache_hits: u64,
    /// Queries that performed build work themselves: ran a kind's fill, or
    /// computed at least one row. Filled kinds: equals the number of
    /// query-triggered fills exactly (`warm()` fills are not queries and
    /// count only in `matrix_builds`). On-demand rows: one miss may cover
    /// many row builds, so `cache_misses <= row_builds`.
    pub cache_misses: u64,
    /// Total in-engine time across queries, in microseconds. Under
    /// parallel serving this exceeds wall-clock time.
    pub busy_micros: u64,
    /// Slice of `busy_micros` spent building relation state: the fetch
    /// phase (a fill or a wait on it, row-store creation), row
    /// computations, and time blocked on another query's in-flight row
    /// build.
    pub build_wait_micros: u64,
    /// Row stores filled whole at their kind's first fetch (the `matrix`
    /// plan).
    pub matrix_builds: u64,
    /// Per-source rows computed on demand (recomputations after eviction
    /// included; filled rows excluded).
    pub row_builds: u64,
    /// Rows evicted to stay within the memory budget.
    pub row_evictions: u64,
    /// Per-source rows currently resident, filled or computed on demand.
    pub resident_rows: u64,
    /// Bytes currently held by resident rows (exact, side tables
    /// included).
    pub resident_bytes: u64,
    /// Live edge mutations applied to this deployment (no-op sign sets
    /// included; failed mutations are not).
    pub mutations_applied: u64,
    /// Resident rows invalidated by mutations: dropped by a sweep because
    /// repair could not keep them. Every invalidated row that is queried
    /// again recomputes exactly once, so after a quiesced warm scan
    /// `row_builds` grows by at most this.
    pub rows_invalidated: u64,
    /// 50th-percentile query latency in microseconds, from the engine's
    /// telemetry histogram (within one bucket — at most 12.5% — of the
    /// exact sample percentile). `None` from peers predating the telemetry
    /// subsystem; the percentile fields are `Option` so old snapshots still
    /// deserialize.
    pub query_p50_micros: Option<u64>,
    /// 90th-percentile query latency, microseconds.
    pub query_p90_micros: Option<u64>,
    /// 99th-percentile query latency, microseconds.
    pub query_p99_micros: Option<u64>,
    /// 99.9th-percentile query latency, microseconds.
    pub query_p999_micros: Option<u64>,
    /// Largest observed query latency, microseconds (exact).
    pub query_max_micros: Option<u64>,
}

impl MetricsSnapshot {
    /// Adds `other`'s counters into `self`, field-wise — the protocol's
    /// `metrics` operation reports one such sum across every loaded
    /// deployment alongside the per-deployment snapshots.
    ///
    /// Percentiles do not sum: for the `query_p*`/`query_max` fields the
    /// result is the field-wise **max** (a conservative upper bound; the
    /// service recomputes exact cross-deployment percentiles from merged
    /// histograms where it has them — see the `metrics` dispatch arm).
    ///
    /// The exhaustive destructuring below is the drift guard: adding a
    /// field to [`MetricsSnapshot`] without deciding how it aggregates
    /// fails to compile here.
    pub fn accumulate(&mut self, other: &MetricsSnapshot) {
        let MetricsSnapshot {
            queries_served,
            queries_solved,
            cache_hits,
            cache_misses,
            busy_micros,
            build_wait_micros,
            matrix_builds,
            row_builds,
            row_evictions,
            resident_rows,
            resident_bytes,
            mutations_applied,
            rows_invalidated,
            query_p50_micros,
            query_p90_micros,
            query_p99_micros,
            query_p999_micros,
            query_max_micros,
        } = other;
        self.queries_served += queries_served;
        self.queries_solved += queries_solved;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.busy_micros += busy_micros;
        self.build_wait_micros += build_wait_micros;
        self.matrix_builds += matrix_builds;
        self.row_builds += row_builds;
        self.row_evictions += row_evictions;
        self.resident_rows += resident_rows;
        self.resident_bytes += resident_bytes;
        self.mutations_applied += mutations_applied;
        self.rows_invalidated += rows_invalidated;
        self.query_p50_micros = max_opt(self.query_p50_micros, *query_p50_micros);
        self.query_p90_micros = max_opt(self.query_p90_micros, *query_p90_micros);
        self.query_p99_micros = max_opt(self.query_p99_micros, *query_p99_micros);
        self.query_p999_micros = max_opt(self.query_p999_micros, *query_p999_micros);
        self.query_max_micros = max_opt(self.query_max_micros, *query_max_micros);
    }

    /// Mean in-engine latency per query, in microseconds.
    pub fn mean_latency_micros(&self) -> f64 {
        if self.queries_served == 0 {
            0.0
        } else {
            self.busy_micros as f64 / self.queries_served as f64
        }
    }
}

/// Max of two optional values, treating `None` as absent (not zero).
fn max_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Percentile summary of one histogram, as serialized in telemetry reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_micros: u64,
    /// Largest sample, microseconds.
    pub max_micros: u64,
    /// Mean sample, microseconds.
    pub mean_micros: f64,
    /// 50th percentile, microseconds (upper edge of the crossing bucket).
    pub p50_micros: u64,
    /// 90th percentile, microseconds.
    pub p90_micros: u64,
    /// 99th percentile, microseconds.
    pub p99_micros: u64,
    /// 99.9th percentile, microseconds.
    pub p999_micros: u64,
}

/// One labelled axis entry (an op, phase, or kind) with its summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisStats {
    /// The op/phase/kind label.
    pub label: String,
    /// Its latency summary.
    pub stats: HistogramStats,
}

/// One retained slow query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQuery {
    /// Monotonic ordinal of the query in this engine's stream (0-based;
    /// timestamp-free, so entries order and correlate across axes).
    pub seq: u64,
    /// Compatibility kind label.
    pub kind: String,
    /// Solver label.
    pub algorithm: String,
    /// Objective label (one of `Objective::ALL_LABELS`).
    pub objective: String,
    /// Total in-engine time, microseconds.
    pub total_micros: u64,
    /// Build-wait phase slice, microseconds.
    pub build_wait_micros: u64,
    /// Row-compute phase slice, microseconds.
    pub row_compute_micros: u64,
    /// Solve phase slice, microseconds.
    pub solve_micros: u64,
    /// Members in the returned team (0 when unsolved).
    pub team_size: u64,
    /// Whether the query was answered with a team.
    pub solved: bool,
}

/// The per-deployment payload of the `telemetry` protocol operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Per-operation latency summaries (`query`/`batch`/`mutate`/`warm`).
    pub ops: Vec<AxisStats>,
    /// Per-phase latency summaries
    /// (`build_wait`/`row_compute`/`solve`/`serialize`).
    pub phases: Vec<AxisStats>,
    /// Per-kind query-latency summaries, `CompatibilityKind::ALL` order.
    pub kinds: Vec<AxisStats>,
    /// Per-objective query-latency summaries, `Objective::ALL_LABELS`
    /// order.
    pub objectives: Vec<AxisStats>,
    /// Slowest retained queries, slowest first.
    pub slow_queries: Vec<SlowQuery>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_as_json() {
        let snap = MetricsSnapshot {
            matrix_builds: 2,
            row_builds: 17,
            row_evictions: 5,
            resident_rows: 12,
            resident_bytes: 4096,
            query_p99_micros: Some(1234),
            ..Default::default()
        };
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"row_evictions\":5"));
        assert!(json.contains("\"query_p99_micros\":1234"));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn pre_telemetry_snapshots_still_deserialize() {
        // A peer running the pre-PR-6 schema omits the percentile fields;
        // they must come back as None, not a parse error.
        let old = r#"{"queries_served":3,"queries_solved":2,"cache_hits":1,
            "cache_misses":2,"busy_micros":500,"build_wait_micros":100,
            "matrix_builds":1,"row_builds":0,"row_evictions":0,
            "resident_rows":0,"resident_bytes":64,"mutations_applied":0,
            "rows_invalidated":0}"#;
        let snap: MetricsSnapshot = serde_json::from_str(old).unwrap();
        assert_eq!(snap.queries_served, 3);
        assert_eq!(snap.query_p50_micros, None);
        assert_eq!(snap.query_max_micros, None);
    }

    #[test]
    fn percentiles_accumulate_as_max() {
        let mut a = MetricsSnapshot {
            query_p50_micros: Some(10),
            query_max_micros: Some(100),
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            query_p50_micros: Some(30),
            query_p99_micros: Some(70),
            ..MetricsSnapshot::default()
        };
        a.accumulate(&b);
        assert_eq!(a.query_p50_micros, Some(30));
        assert_eq!(a.query_p99_micros, Some(70));
        assert_eq!(a.query_max_micros, Some(100));
    }

    #[test]
    fn telemetry_report_round_trips_as_json() {
        let report = TelemetryReport {
            ops: vec![AxisStats {
                label: "query".to_string(),
                stats: HistogramStats {
                    count: 2,
                    sum_micros: 300,
                    max_micros: 250,
                    mean_micros: 150.0,
                    p50_micros: 64,
                    p90_micros: 256,
                    p99_micros: 256,
                    p999_micros: 256,
                },
            }],
            phases: Vec::new(),
            kinds: Vec::new(),
            objectives: Vec::new(),
            slow_queries: vec![SlowQuery {
                seq: 0,
                kind: "SPM".to_string(),
                algorithm: "LCMD".to_string(),
                objective: "min_team".to_string(),
                total_micros: 250,
                build_wait_micros: 100,
                row_compute_micros: 50,
                solve_micros: 100,
                team_size: 3,
                solved: true,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
