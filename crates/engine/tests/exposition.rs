//! Pins the three observability expositions byte for byte: the Prometheus
//! text of `GET /metrics`, and the `metrics` and `telemetry` JSON
//! responses, after a fixed sequence of operations on a two-deployment
//! service whose second deployment is never loaded.
//!
//! Only values that timing decides are masked: latency `_bucket` lines
//! below `+Inf`, latency `_sum` lines, JSON `*_micros` values, and the
//! order of the slow-log entries (sorted by `seq` before comparing). The
//! two process-wide families are masked too, since other tests in this
//! process move them. Family order, names, `# HELP`/`# TYPE` lines,
//! labels, counts, gauges and JSON keys must match the fixture exactly.
//!
//! After a deliberate change to an exposition, regenerate the fixture with
//! `TFSN_BLESS=1 cargo test -p tfsn-engine --test exposition` and review
//! its diff.

use std::path::PathBuf;

use serde::Value;
use tfsn_core::compat::CompatibilityKind;
use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource};
use tfsn_engine::service::{ServiceOptions, StreamOptions};
use tfsn_engine::{BatchOptions, Objective, Request, RequestBody, Response, Service, TeamQuery};

const FIXTURE: &str = "tests/fixtures/exposition.txt";
const MASK: &str = "<timing>";
const PROCESS_WIDE: [&str; 2] = ["tfsn_requests_shed_total", "tfsn_client_retries_total"];

/// One loaded deployment (`syn`) and one that stays unloaded (`cold`).
/// Batches run on one worker so every query's slow-log `seq` is fixed.
fn service() -> Service {
    let registry = DeploymentRegistry::new(vec![
        DeploymentConfig::new(
            "syn",
            DeploymentSource::parse("synthetic:nodes=80,edges=240,skills=12,seed=5").unwrap(),
        ),
        DeploymentConfig::new(
            "cold",
            DeploymentSource::parse("synthetic:nodes=40,edges=90,skills=6,seed=9").unwrap(),
        ),
    ])
    .unwrap();
    Service::with_options(
        registry,
        ServiceOptions {
            batch: BatchOptions::with_threads(1),
            chunk: 4,
            objective: None,
        },
    )
}

fn ok(response: Response) -> Response {
    assert!(response.error().is_none(), "unexpected {response:?}");
    response
}

/// The fixed sequence: warm three kinds, one query per warm kind, one
/// `synergy` query on a cold kind (the only cache miss), one streamed
/// batch over two chunks, and one `mutate_batch`.
fn drive(service: &Service) {
    let warm = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Nne,
    ];
    ok(service.handle(
        &Request::new(RequestBody::Warm {
            kinds: warm.to_vec(),
        })
        .on("syn"),
    ));
    for (i, &kind) in warm.iter().enumerate() {
        let query = TeamQuery::new([i, i + 3]).with_id(i as u64).with_kind(kind);
        ok(service.handle(
            &Request::new(RequestBody::Query {
                query,
                timing: true,
            })
            .on("syn"),
        ));
    }
    let synergy = TeamQuery::new([1, 4, 7])
        .with_kind(CompatibilityKind::Spo)
        .with_objective(Objective::Synergy);
    ok(service.handle(
        &Request::new(RequestBody::Query {
            query: synergy,
            timing: true,
        })
        .on("syn"),
    ));
    let jsonl: String = (0..6)
        .map(|i| {
            let kind = warm[i % warm.len()].label();
            format!(
                "{{\"id\": {i}, \"task\": [{}, {}], \"kind\": \"{kind}\"}}\n",
                i % 5,
                (i + 2) % 7
            )
        })
        .collect();
    let mut sink = Vec::new();
    service
        .stream_batch(
            Some("syn"),
            jsonl.as_bytes(),
            &mut sink,
            StreamOptions::timing(true),
        )
        .unwrap();
    let edges = service
        .engine(Some("syn"))
        .unwrap()
        .graph()
        .edges()
        .to_vec();
    let (a, b) = (edges[0], edges[1]);
    ok(service.handle(
        &Request::new(RequestBody::MutateBatch {
            mutations: vec![
                signed_graph::EdgeMutation::Remove { u: a.u, v: a.v },
                signed_graph::EdgeMutation::Insert {
                    u: a.u,
                    v: a.v,
                    sign: a.sign.flip(),
                },
                signed_graph::EdgeMutation::SetSign {
                    u: b.u,
                    v: b.v,
                    sign: b.sign.flip(),
                },
            ],
        })
        .on("syn"),
    ));
}

fn mask_prometheus(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let masked = match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => {
                let name = series.split('{').next().unwrap_or(series);
                let timed = (name.ends_with("_bucket") && !series.contains("le=\"+Inf\""))
                    || name.ends_with("_sum")
                    || PROCESS_WIDE.contains(&name);
                if timed {
                    format!("{series} {MASK}")
                } else {
                    line.to_string()
                }
            }
            _ => line.to_string(),
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

fn mask_json(value: Value) -> Value {
    match value {
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .map(|(key, value)| {
                    let value = if key.ends_with("_micros") && value != Value::Null {
                        Value::Str(MASK.to_string())
                    } else if key == "slow_queries" {
                        sorted_by_seq(value)
                    } else {
                        value
                    };
                    (key, mask_json(value))
                })
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.into_iter().map(mask_json).collect()),
        other => other,
    }
}

fn sorted_by_seq(value: Value) -> Value {
    let Value::Seq(mut entries) = value else {
        panic!("slow_queries is not an array: {value:?}");
    };
    entries.sort_by_key(|e| e.get("seq").and_then(Value::as_u64));
    Value::Seq(entries)
}

fn json_section(response: Response) -> String {
    let value = serde_json::parse_value(&serde_json::to_string(&ok(response)).unwrap()).unwrap();
    serde_json::to_string_pretty(&mask_json(value)).unwrap() + "\n"
}

fn exposition(service: &Service) -> String {
    let prometheus = mask_prometheus(&service.prometheus_metrics());
    let metrics = json_section(service.handle(&Request::new(RequestBody::Metrics)));
    let telemetry = json_section(service.handle(&Request::new(RequestBody::Telemetry)));
    format!("==> GET /metrics <==\n{prometheus}==> metrics <==\n{metrics}==> telemetry <==\n{telemetry}")
}

#[test]
fn expositions_match_the_fixture() {
    let service = service();
    drive(&service);
    let actual = exposition(&service);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("TFSN_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "exposition drifted from {FIXTURE} at line {}:\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}
