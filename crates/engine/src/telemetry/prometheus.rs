//! Prometheus text exposition (format version 0.0.4) of the engine's
//! counters and latency histograms, rendered for `GET /metrics` scrapes.
//!
//! Every series carries a `deployment` label and the exposition is
//! **label-closed**: all operations, phases, and compatibility kinds are
//! emitted for every loaded deployment, at zero if never observed, so
//! dashboards and alerts never see series flap into existence.
//!
//! One documented deviation from the Prometheus convention: a
//! `_bucket{le="B"}` line counts samples **strictly below** `B`, not
//! `<= B`. Each exported bound in [`PROM_BOUNDS_MICROS`] is the exact
//! lower edge of an internal histogram bucket
//! ([`super::histogram::bucket_lower`]), so the cumulative counts come
//! straight off the internal buckets without splitting any — at the cost
//! of shifting samples exactly on a bound into the next bucket. With
//! microsecond-resolution latencies the distinction is below measurement
//! noise; the `+Inf` line is exact either way.

use std::fmt::Write as _;

use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::Objective;

use crate::metrics::MetricsSnapshot;

use super::histogram::{bucket_index, HistogramSnapshot};
use super::{EngineTelemetry, Op, Phase, PROM_BOUNDS_MICROS};

/// The `Content-Type` of the text exposition format, as scrapers expect.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// One loaded deployment's scrape inputs: its counter snapshot plus
/// point-in-time copies of every latency histogram.
#[derive(Debug)]
pub struct DeploymentScrape {
    /// The deployment name (becomes the `deployment` label).
    pub deployment: String,
    /// Its counter/gauge snapshot.
    pub metrics: MetricsSnapshot,
    /// Per-operation latency, indexed like [`Op::ALL`].
    pub ops: Vec<HistogramSnapshot>,
    /// Per-phase latency, indexed like [`Phase::ALL`].
    pub phases: Vec<HistogramSnapshot>,
    /// Per-kind query counts, indexed like [`CompatibilityKind::ALL`].
    pub kind_queries: Vec<u64>,
    /// Per-objective query counts, indexed like [`Objective::ALL_LABELS`].
    pub objective_queries: Vec<u64>,
    /// Durable WAL appends acknowledged by this deployment's engine.
    pub wal_appends: u64,
    /// WAL fsync latency (only appends that flushed record here).
    pub wal_fsync: HistogramSnapshot,
}

impl DeploymentScrape {
    /// Captures one deployment's scrape inputs.
    pub fn capture(
        deployment: &str,
        metrics: MetricsSnapshot,
        telemetry: &EngineTelemetry,
    ) -> Self {
        DeploymentScrape {
            deployment: deployment.to_string(),
            metrics,
            ops: Op::ALL
                .iter()
                .map(|&op| telemetry.op_snapshot(op))
                .collect(),
            phases: Phase::ALL
                .iter()
                .map(|&phase| telemetry.phase_snapshot(phase))
                .collect(),
            kind_queries: CompatibilityKind::ALL
                .iter()
                .map(|&kind| telemetry.kind_snapshot(kind).count())
                .collect(),
            objective_queries: (0..Objective::ALL_LABELS.len())
                .map(|i| telemetry.objective_snapshot(i).count())
                .collect(),
            wal_appends: telemetry.wal_appends(),
            wal_fsync: telemetry.wal_fsync_snapshot(),
        }
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds as seconds, formatted without float artifacts.
fn seconds(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// Writes one `# HELP`/`# TYPE` family header.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one counter or gauge family across all deployments.
fn scalar_family(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    scrapes: &[DeploymentScrape],
    value: impl Fn(&DeploymentScrape) -> u64,
) {
    family(out, name, kind, help);
    for scrape in scrapes {
        let _ = writeln!(
            out,
            "{name}{{deployment=\"{}\"}} {}",
            escape_label(&scrape.deployment),
            value(scrape)
        );
    }
}

/// Writes one histogram series (`_bucket` lines, `_sum`, `_count`) under
/// an already-written family header. `labels` is the pre-rendered label
/// body without the `le` pair (e.g. `deployment="sd",op="query"`).
fn histogram_series(out: &mut String, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
    for &bound in PROM_BOUNDS_MICROS.iter() {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels},le=\"{}\"}} {}",
            seconds(bound),
            snapshot.cumulative_below(bucket_index(bound))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels},le=\"+Inf\"}} {}",
        snapshot.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", seconds(snapshot.sum));
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", snapshot.count());
}

/// Like [`histogram_series`] but with `le` bounds and `_sum` in raw
/// microseconds, for families whose unit suffix is `_micros`.
fn histogram_series_micros(
    out: &mut String,
    name: &str,
    labels: &str,
    snapshot: &HistogramSnapshot,
) {
    for &bound in PROM_BOUNDS_MICROS.iter() {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels},le=\"{bound}\"}} {}",
            snapshot.cumulative_below(bucket_index(bound))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels},le=\"+Inf\"}} {}",
        snapshot.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snapshot.sum);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", snapshot.count());
}

/// Renders the full exposition for every loaded deployment, label-closed
/// over operations × phases × kinds.
pub fn render(scrapes: &[DeploymentScrape]) -> String {
    let mut out = String::new();
    scalar_family(
        &mut out,
        "tfsn_queries_served_total",
        "counter",
        "Queries answered (any status).",
        scrapes,
        |s| s.metrics.queries_served,
    );
    scalar_family(
        &mut out,
        "tfsn_queries_solved_total",
        "counter",
        "Queries answered with a team.",
        scrapes,
        |s| s.metrics.queries_solved,
    );
    scalar_family(
        &mut out,
        "tfsn_query_cache_hits_total",
        "counter",
        "Queries that performed no relation-building work.",
        scrapes,
        |s| s.metrics.cache_hits,
    );
    scalar_family(
        &mut out,
        "tfsn_query_cache_misses_total",
        "counter",
        "Queries that built the matrix or computed at least one row.",
        scrapes,
        |s| s.metrics.cache_misses,
    );
    scalar_family(
        &mut out,
        "tfsn_matrix_builds_total",
        "counter",
        "Row stores filled whole at their kind's first fetch (matrix plan).",
        scrapes,
        |s| s.metrics.matrix_builds,
    );
    scalar_family(
        &mut out,
        "tfsn_row_builds_total",
        "counter",
        "Per-source rows computed on demand (recomputations included).",
        scrapes,
        |s| s.metrics.row_builds,
    );
    scalar_family(
        &mut out,
        "tfsn_row_evictions_total",
        "counter",
        "Rows evicted to stay within the memory budget.",
        scrapes,
        |s| s.metrics.row_evictions,
    );
    scalar_family(
        &mut out,
        "tfsn_mutations_applied_total",
        "counter",
        "Live edge mutations applied.",
        scrapes,
        |s| s.metrics.mutations_applied,
    );
    scalar_family(
        &mut out,
        "tfsn_rows_invalidated_total",
        "counter",
        "Resident rows invalidated by mutations.",
        scrapes,
        |s| s.metrics.rows_invalidated,
    );
    scalar_family(
        &mut out,
        "tfsn_resident_rows",
        "gauge",
        "Per-source rows currently resident, filled or computed on demand.",
        scrapes,
        |s| s.metrics.resident_rows,
    );
    scalar_family(
        &mut out,
        "tfsn_resident_bytes",
        "gauge",
        "Bytes currently held by resident rows.",
        scrapes,
        |s| s.metrics.resident_bytes,
    );
    scalar_family(
        &mut out,
        "tfsn_wal_appends_total",
        "counter",
        "Durable write-ahead-log appends acknowledged.",
        scrapes,
        |s| s.wal_appends,
    );

    family(
        &mut out,
        "tfsn_op_latency_seconds",
        "histogram",
        "Operation latency by op (query/batch/mutate/warm).",
    );
    for scrape in scrapes {
        let deployment = escape_label(&scrape.deployment);
        for (i, op) in Op::ALL.iter().enumerate() {
            let labels = format!("deployment=\"{deployment}\",op=\"{}\"", op.label());
            histogram_series(&mut out, "tfsn_op_latency_seconds", &labels, &scrape.ops[i]);
        }
    }

    family(
        &mut out,
        "tfsn_phase_latency_seconds",
        "histogram",
        "Query-phase latency (build_wait/row_compute/solve/serialize).",
    );
    for scrape in scrapes {
        let deployment = escape_label(&scrape.deployment);
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let labels = format!("deployment=\"{deployment}\",phase=\"{}\"", phase.label());
            histogram_series(
                &mut out,
                "tfsn_phase_latency_seconds",
                &labels,
                &scrape.phases[i],
            );
        }
    }

    family(
        &mut out,
        "tfsn_kind_queries_total",
        "counter",
        "Queries served by compatibility kind.",
    );
    for scrape in scrapes {
        let deployment = escape_label(&scrape.deployment);
        for (i, kind) in CompatibilityKind::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "tfsn_kind_queries_total{{deployment=\"{deployment}\",kind=\"{}\"}} {}",
                kind.label(),
                scrape.kind_queries[i]
            );
        }
    }

    family(
        &mut out,
        "tfsn_objective_queries_total",
        "counter",
        "Queries served by team objective.",
    );
    for scrape in scrapes {
        let deployment = escape_label(&scrape.deployment);
        for (i, label) in Objective::ALL_LABELS.iter().enumerate() {
            let _ = writeln!(
                out,
                "tfsn_objective_queries_total{{deployment=\"{deployment}\",objective=\"{label}\"}} {}",
                scrape.objective_queries[i]
            );
        }
    }

    family(
        &mut out,
        "tfsn_wal_fsync_micros",
        "histogram",
        "Write-ahead-log fsync latency in microseconds.",
    );
    for scrape in scrapes {
        let labels = format!("deployment=\"{}\"", escape_label(&scrape.deployment));
        histogram_series_micros(
            &mut out,
            "tfsn_wal_fsync_micros",
            &labels,
            &scrape.wal_fsync,
        );
    }

    family(
        &mut out,
        "tfsn_requests_shed_total",
        "counter",
        "Requests refused by overload protection (process-wide).",
    );
    let _ = writeln!(
        out,
        "tfsn_requests_shed_total {}",
        super::globals::requests_shed()
    );
    family(
        &mut out,
        "tfsn_client_retries_total",
        "counter",
        "HTTP client retry attempts after overload or connect failure (process-wide).",
    );
    let _ = writeln!(
        out,
        "tfsn_client_retries_total {}",
        super::globals::client_retries()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::QuerySample;

    fn sample_scrapes() -> Vec<DeploymentScrape> {
        let telemetry = EngineTelemetry::default();
        telemetry.record_query(QuerySample {
            kind: CompatibilityKind::Spa,
            algorithm: "greedy".to_string(),
            objective: "synergy",
            total_micros: 1500,
            build_wait_micros: 300,
            row_compute_micros: 200,
            team_size: 3,
            solved: true,
        });
        telemetry.record_op(Op::Batch, 40_000);
        telemetry.record_wal_append(&crate::wal::AppendReceipt {
            bytes: 48,
            fsynced: true,
            fsync_micros: 1500,
        });
        let metrics = MetricsSnapshot {
            queries_served: 1,
            queries_solved: 1,
            ..Default::default()
        };
        vec![DeploymentScrape::capture("sd", metrics, &telemetry)]
    }

    #[test]
    fn exposition_is_label_closed_and_cumulative() {
        let text = render(&sample_scrapes());
        // Every op and phase appears even if never recorded.
        for op in Op::ALL {
            assert!(
                text.contains(&format!("op=\"{}\"", op.label())),
                "missing op {} in:\n{text}",
                op.label()
            );
        }
        for phase in Phase::ALL {
            assert!(text.contains(&format!("phase=\"{}\"", phase.label())));
        }
        for kind in CompatibilityKind::ALL {
            assert!(text.contains(&format!("kind=\"{}\"", kind.label())));
        }
        for label in Objective::ALL_LABELS {
            assert!(
                text.contains(&format!("objective=\"{label}\"")),
                "missing objective {label} in:\n{text}"
            );
        }
        // The query histogram is cumulative and closed by +Inf.
        let mut last = 0u64;
        let mut inf_seen = false;
        for line in text.lines() {
            if let Some(rest) = line
                .strip_prefix("tfsn_op_latency_seconds_bucket{deployment=\"sd\",op=\"query\",le=")
            {
                let value: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(value >= last, "buckets must be cumulative: {line}");
                last = value;
                if rest.starts_with("\"+Inf\"") {
                    inf_seen = true;
                    assert_eq!(value, 1, "+Inf bucket equals the count");
                }
            }
        }
        assert!(inf_seen, "+Inf line must close the series");
        // A 1500µs sample lands below the 4096µs bound but not below 1024µs.
        assert!(text.contains("op=\"query\",le=\"0.004096\"} 1"));
        assert!(text.contains("op=\"query\",le=\"0.001024\"} 0"));
        assert!(text.contains("tfsn_op_latency_seconds_sum{deployment=\"sd\",op=\"query\"} 0.0015"));
        assert!(text.contains("tfsn_kind_queries_total{deployment=\"sd\",kind=\"SPA\"} 1"));
        assert!(text.contains("tfsn_kind_queries_total{deployment=\"sd\",kind=\"DPE\"} 0"));
        assert!(text
            .contains("tfsn_objective_queries_total{deployment=\"sd\",objective=\"synergy\"} 1"));
        assert!(text
            .contains("tfsn_objective_queries_total{deployment=\"sd\",objective=\"min_team\"} 0"));
        assert!(text.contains("tfsn_queries_served_total{deployment=\"sd\"} 1"));
        // WAL families: the append counter, and the fsync histogram with
        // raw-microsecond bounds (1500µs < 4096, not < 1024).
        assert!(text.contains("tfsn_wal_appends_total{deployment=\"sd\"} 1"));
        assert!(text.contains("tfsn_wal_fsync_micros_bucket{deployment=\"sd\",le=\"4096\"} 1"));
        assert!(text.contains("tfsn_wal_fsync_micros_bucket{deployment=\"sd\",le=\"1024\"} 0"));
        assert!(text.contains("tfsn_wal_fsync_micros_bucket{deployment=\"sd\",le=\"+Inf\"} 1"));
        assert!(text.contains("tfsn_wal_fsync_micros_sum{deployment=\"sd\"} 1500"));
        // Process-global overload counters are present and unlabeled.
        assert!(text
            .lines()
            .any(|l| l.starts_with("tfsn_requests_shed_total ")));
        assert!(text
            .lines()
            .any(|l| l.starts_with("tfsn_client_retries_total ")));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn bounds_are_exact_bucket_lowers() {
        // The whole "cumulative without splitting buckets" story rests on
        // each exported bound being an internal bucket's lower edge.
        for &bound in PROM_BOUNDS_MICROS.iter() {
            assert_eq!(
                super::super::histogram::bucket_lower(bucket_index(bound)),
                bound,
                "bound {bound} is not a bucket lower"
            );
        }
    }
}
