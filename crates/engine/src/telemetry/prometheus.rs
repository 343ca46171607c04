//! Prometheus text exposition (format version 0.0.4) of the engine's
//! counters and latency histograms, rendered for `GET /metrics` scrapes.
//!
//! Every family is declared once, in [`FAMILIES`]; the renderer and the
//! docs-coverage test both walk that table. Every series except the
//! process-wide ones carries a `deployment` label, and the exposition is
//! **label-closed**: all operations, phases, compatibility kinds and
//! objectives are emitted for every loaded deployment, at zero if never
//! observed, so dashboards and alerts never see series flap into existence.
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

use std::fmt::{self, Write as _};

use super::histogram::{bucket_index, LatencyHistogram};
use super::{globals, Axis, EngineTelemetry, MetricsSnapshot, PROM_BOUNDS_MICROS};

/// The `Content-Type` of the text exposition format, as scrapers expect.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// One exported metric family: the registry row that both the renderer and
/// the docs-coverage test walk.
#[derive(Debug)]
pub struct Family {
    /// The metric name.
    pub name: &'static str,
    /// Its Prometheus type.
    pub kind: Type,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Where its values come from, and so which labels it carries.
    pub source: Source,
}

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    /// A monotonic count.
    Counter,
    /// A point-in-time level.
    Gauge,
    /// A latency histogram, with `le` bounds and `_sum` in this unit.
    Histogram(Unit),
}

/// The unit a latency histogram is exported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds (Prometheus convention; names end in `_seconds`).
    Seconds,
    /// Raw microseconds (names end in `_micros`).
    Micros,
}

/// Where a family's values come from.
#[derive(Debug)]
pub enum Source {
    /// One value per deployment, labelled `deployment`.
    Value(fn(&DeploymentScrape) -> u64),
    /// One histogram per deployment, labelled `deployment`.
    Histogram(fn(&EngineTelemetry) -> &LatencyHistogram),
    /// One histogram per deployment and label of the axis (from
    /// [`EngineTelemetry::axes`]), labelled `deployment` and the axis; a
    /// counter exports each histogram's sample count.
    Axis(Axis),
    /// One process-wide value, unlabelled.
    Process(fn() -> u64),
}

impl Type {
    fn label(self) -> &'static str {
        match self {
            Type::Counter => "counter",
            Type::Gauge => "gauge",
            Type::Histogram(_) => "histogram",
        }
    }
}

/// Every exported family, in exposition order.
pub const FAMILIES: [Family; 19] = [
    Family {
        name: "tfsn_queries_served_total",
        kind: Type::Counter,
        help: "Queries answered (any status).",
        source: Source::Value(|s| s.metrics.queries_served),
    },
    Family {
        name: "tfsn_queries_solved_total",
        kind: Type::Counter,
        help: "Queries answered with a team.",
        source: Source::Value(|s| s.metrics.queries_solved),
    },
    Family {
        name: "tfsn_query_cache_hits_total",
        kind: Type::Counter,
        help: "Queries that performed no relation-building work.",
        source: Source::Value(|s| s.metrics.cache_hits),
    },
    Family {
        name: "tfsn_query_cache_misses_total",
        kind: Type::Counter,
        help: "Queries that built the matrix or computed at least one row.",
        source: Source::Value(|s| s.metrics.cache_misses),
    },
    Family {
        name: "tfsn_matrix_builds_total",
        kind: Type::Counter,
        help: "Row stores filled whole at their kind's first fetch (matrix plan).",
        source: Source::Value(|s| s.metrics.matrix_builds),
    },
    Family {
        name: "tfsn_row_builds_total",
        kind: Type::Counter,
        help: "Per-source rows computed on demand (recomputations included).",
        source: Source::Value(|s| s.metrics.row_builds),
    },
    Family {
        name: "tfsn_row_evictions_total",
        kind: Type::Counter,
        help: "Rows evicted to stay within the memory budget.",
        source: Source::Value(|s| s.metrics.row_evictions),
    },
    Family {
        name: "tfsn_mutations_applied_total",
        kind: Type::Counter,
        help: "Live edge mutations applied.",
        source: Source::Value(|s| s.metrics.mutations_applied),
    },
    Family {
        name: "tfsn_rows_invalidated_total",
        kind: Type::Counter,
        help: "Resident rows invalidated by mutations.",
        source: Source::Value(|s| s.metrics.rows_invalidated),
    },
    Family {
        name: "tfsn_resident_rows",
        kind: Type::Gauge,
        help: "Per-source rows currently resident, filled or computed on demand.",
        source: Source::Value(|s| s.metrics.resident_rows),
    },
    Family {
        name: "tfsn_resident_bytes",
        kind: Type::Gauge,
        help: "Bytes currently held by resident rows.",
        source: Source::Value(|s| s.metrics.resident_bytes),
    },
    Family {
        name: "tfsn_wal_appends_total",
        kind: Type::Counter,
        help: "Durable write-ahead-log appends acknowledged.",
        source: Source::Value(|s| s.telemetry.wal_appends()),
    },
    Family {
        name: "tfsn_op_latency_seconds",
        kind: Type::Histogram(Unit::Seconds),
        help: "Operation latency by op (query/batch/mutate/warm).",
        source: Source::Axis(Axis::Op),
    },
    Family {
        name: "tfsn_phase_latency_seconds",
        kind: Type::Histogram(Unit::Seconds),
        help: "Query-phase latency (build_wait/row_compute/solve/serialize).",
        source: Source::Axis(Axis::Phase),
    },
    Family {
        name: "tfsn_kind_queries_total",
        kind: Type::Counter,
        help: "Queries served by compatibility kind.",
        source: Source::Axis(Axis::Kind),
    },
    Family {
        name: "tfsn_objective_queries_total",
        kind: Type::Counter,
        help: "Queries served by team objective.",
        source: Source::Axis(Axis::Objective),
    },
    Family {
        name: "tfsn_wal_fsync_micros",
        kind: Type::Histogram(Unit::Micros),
        help: "Write-ahead-log fsync latency in microseconds.",
        source: Source::Histogram(|t| &t.wal_fsync),
    },
    Family {
        name: "tfsn_requests_shed_total",
        kind: Type::Counter,
        help: "Requests refused by overload protection (process-wide).",
        source: Source::Process(globals::requests_shed),
    },
    Family {
        name: "tfsn_client_retries_total",
        kind: Type::Counter,
        help: "HTTP client retry attempts after overload or connect failure (process-wide).",
        source: Source::Process(tfsn_client::client::client_retries),
    },
];

/// One loaded deployment's scrape inputs: its counter snapshot plus its
/// live telemetry, whose histograms are snapshotted as they render.
#[derive(Debug)]
pub struct DeploymentScrape<'a> {
    /// The deployment name, escaped for a label value.
    deployment: String,
    /// Its counter/gauge snapshot.
    pub metrics: MetricsSnapshot,
    /// Its telemetry.
    pub telemetry: &'a EngineTelemetry,
}

impl<'a> DeploymentScrape<'a> {
    /// Captures one deployment's scrape inputs.
    pub fn capture(
        deployment: &str,
        metrics: MetricsSnapshot,
        telemetry: &'a EngineTelemetry,
    ) -> Self {
        DeploymentScrape {
            deployment: escape_label(deployment),
            metrics,
            telemetry,
        }
    }

    fn labels(&self, axis: Option<(Axis, &'static str)>) -> Labels<'_> {
        Labels {
            deployment: &self.deployment,
            axis,
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

/// The label body of one series: `deployment="…"` plus the axis label, if
/// any (without the `le` pair).
struct Labels<'a> {
    deployment: &'a str,
    axis: Option<(Axis, &'static str)>,
}

impl fmt::Display for Labels<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deployment=\"{}\"", self.deployment)?;
        match self.axis {
            Some((axis, label)) => write!(f, ",{}=\"{label}\"", axis.label()),
            None => Ok(()),
        }
    }
}

/// A microsecond value in a histogram's export unit (seconds are printed
/// as the shortest float that round-trips).
struct Scaled(Unit, u64);

impl fmt::Display for Scaled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Unit::Seconds => write!(f, "{}", self.1 as f64 / 1e6),
            Unit::Micros => write!(f, "{}", self.1),
        }
    }
}

impl Family {
    /// Writes this family's `# HELP`/`# TYPE` header and every series.
    fn render(&self, out: &mut String, scrapes: &[DeploymentScrape]) {
        let name = self.name;
        let _ = writeln!(out, "# HELP {name} {}", self.help);
        let _ = writeln!(out, "# TYPE {name} {}", self.kind.label());
        match self.source {
            Source::Process(value) => {
                let _ = writeln!(out, "{name} {}", value());
            }
            Source::Value(value) => {
                for scrape in scrapes {
                    let _ = writeln!(out, "{name}{{{}}} {}", scrape.labels(None), value(scrape));
                }
            }
            Source::Histogram(histogram) => {
                for scrape in scrapes {
                    self.series(out, &scrape.labels(None), histogram(scrape.telemetry));
                }
            }
            Source::Axis(axis) => {
                for scrape in scrapes {
                    for (_, label, histogram) in scrape.telemetry.axes().filter(|s| s.0 == axis) {
                        self.series(out, &scrape.labels(Some((axis, label))), histogram);
                    }
                }
            }
        }
    }

    /// Writes one histogram-backed series: the sample count for a counter,
    /// else the cumulative `_bucket` lines, `_sum` and `_count`.
    fn series(&self, out: &mut String, labels: &Labels, histogram: &LatencyHistogram) {
        let name = self.name;
        let snapshot = histogram.snapshot();
        let Type::Histogram(unit) = self.kind else {
            let _ = writeln!(out, "{name}{{{labels}}} {}", snapshot.count());
            return;
        };
        for &bound in PROM_BOUNDS_MICROS.iter() {
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels},le=\"{}\"}} {}",
                Scaled(unit, bound),
                snapshot.cumulative_below(bucket_index(bound))
            );
        }
        let count = snapshot.count();
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", Scaled(unit, snapshot.sum));
        let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
    }
}

/// Renders the full exposition for every loaded deployment, label-closed
/// over every axis.
pub fn render(scrapes: &[DeploymentScrape]) -> String {
    let mut out = String::new();
    for family in &FAMILIES {
        family.render(&mut out, scrapes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Op, Phase, QuerySample};
    use tfsn_core::compat::CompatibilityKind;
    use tfsn_core::team::Objective;

    fn sample_exposition() -> String {
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
        let metrics = telemetry.query_metrics();
        render(&[DeploymentScrape::capture("sd", metrics, &telemetry)])
    }

    #[test]
    fn exposition_is_label_closed_and_cumulative() {
        let text = sample_exposition();
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
