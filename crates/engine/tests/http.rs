//! Integration tests for the HTTP/1.1 front-end: an in-process
//! `HttpServer` on an ephemeral port serving **one `Service` with two named
//! deployments**, hammered by concurrent client threads.
//!
//! Asserted here:
//! * `/v1/batch` answers equal `Engine::batch` on the same queries, for
//!   both deployments, under concurrent clients;
//! * the CLI transport (`Service::stream_batch`, which `serve-batch`
//!   drives) and the HTTP transport produce **byte-identical JSONL** for
//!   the same warm query stream;
//! * `/v1/metrics` shows exactly-once matrix-build accounting despite the
//!   concurrency (builds == warmed kinds per deployment);
//! * keep-alive connections serve multiple requests, and error paths map
//!   to the right status codes and typed envelope errors.

use std::sync::Arc;

use tfsn_core::compat::CompatibilityKind;
use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource};
use tfsn_engine::server::{HttpServer, ServerOptions};
use tfsn_engine::service::{Service, ServiceOptions};
use tfsn_engine::{
    BatchOptions, HttpClient, Request, RequestBody, Response, ServiceError, TeamQuery,
};

const KINDS: [CompatibilityKind; 3] = [
    CompatibilityKind::Spa,
    CompatibilityKind::Spo,
    CompatibilityKind::Nne,
];

fn two_deployment_service() -> Arc<Service> {
    let registry = DeploymentRegistry::new(vec![
        DeploymentConfig::new("sd", DeploymentSource::Slashdot),
        DeploymentConfig::new(
            "tiny",
            DeploymentSource::parse("synthetic:nodes=120,edges=420,skills=16,seed=11").unwrap(),
        ),
    ])
    .unwrap();
    Arc::new(Service::with_options(
        registry,
        ServiceOptions {
            batch: BatchOptions::with_threads(2),
            chunk: 8, // force multi-chunk streaming on the 24-query batches
            objective: None,
        },
    ))
}

fn queries(n: usize) -> Vec<TeamQuery> {
    (0..n)
        .map(|i| {
            TeamQuery::new([i % 7, (i * 3 + 1) % 7])
                .with_id(i as u64)
                .with_kind(KINDS[i % KINDS.len()])
        })
        .collect()
}

fn jsonl(queries: &[TeamQuery]) -> String {
    queries
        .iter()
        .map(|q| serde_json::to_string(q).unwrap() + "\n")
        .collect()
}

/// The shared keep-alive client (`tfsn_engine::HttpClient`), with the
/// test-friendly `(status, body)` calling convention.
struct Client(HttpClient);

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        Client(HttpClient::connect(addr).expect("connect to test server"))
    }

    fn request(&mut self, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
        let reply = self
            .0
            .request(method, target, body.unwrap_or(""))
            .expect("request on test connection");
        (reply.status, reply.body)
    }
}

#[test]
fn concurrent_clients_get_engine_identical_answers_on_both_transports() {
    let service = two_deployment_service();
    let server = HttpServer::bind(
        service.clone(),
        "127.0.0.1:0",
        ServerOptions {
            threads: 4,
            keep_alive: std::time::Duration::from_secs(5),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Warm three kinds on both deployments through the envelope transport,
    // so every later query is a cache hit and answers are byte-stable.
    let mut warmer = Client::connect(addr);
    for deployment in ["sd", "tiny"] {
        let warm = serde_json::to_string(
            &Request::new(RequestBody::Warm {
                kinds: KINDS.to_vec(),
            })
            .on(deployment),
        )
        .unwrap();
        let (status, body) = warmer.request("POST", "/v1/rpc", Some(&warm));
        assert_eq!(status, 200, "warm failed: {body}");
        match Response::parse_json(&body).unwrap() {
            Response::Warmed {
                deployment: d,
                kinds,
                ..
            } => {
                assert_eq!(d, deployment);
                assert_eq!(kinds.len(), KINDS.len());
            }
            other => panic!("unexpected warm response {other:?}"),
        }
    }
    // Close the warm connection so its worker is free for the storm (an
    // idle keep-alive connection pins one worker until the timeout).
    drop(warmer);

    // 4 client threads × 2 keep-alive requests each, split across the two
    // deployments, all posting the same 24-query JSONL stream.
    let stream = jsonl(&queries(24));
    let bodies: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stream = &stream;
                scope.spawn(move || {
                    let deployment = if t % 2 == 0 { "sd" } else { "tiny" };
                    let mut client = Client::connect(addr);
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let (status, body) = client.request(
                            "POST",
                            &format!("/v1/batch?deployment={deployment}&timing=false"),
                            Some(stream),
                        );
                        assert_eq!(status, 200, "batch failed: {body}");
                        out.push((deployment.to_string(), body));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(bodies.len(), 8);

    // Exactly-once accounting *before* any direct engine use: per
    // deployment, 4 HTTP batches × 24 queries were served, all warm, and
    // matrix builds equal the 3 warmed kinds — no rebuild under the storm.
    let mut metrics_client = Client::connect(addr);
    let (status, body) = metrics_client.request("GET", "/v1/metrics", None);
    assert_eq!(status, 200);
    let Response::Metrics { deployments, total } = Response::parse_json(&body).unwrap() else {
        panic!("unexpected metrics payload: {body}");
    };
    assert_eq!(deployments.len(), 2);
    for d in &deployments {
        assert_eq!(
            d.metrics.matrix_builds,
            KINDS.len() as u64,
            "{}",
            d.deployment
        );
        assert_eq!(d.metrics.queries_served, 4 * 24, "{}", d.deployment);
        assert_eq!(
            d.metrics.cache_hits,
            4 * 24,
            "{}: warmed batches must be all-hit",
            d.deployment
        );
        assert_eq!(d.metrics.cache_misses, 0, "{}", d.deployment);
    }
    assert_eq!(total.queries_served, 2 * 4 * 24);
    assert_eq!(total.matrix_builds, 2 * KINDS.len() as u64);
    drop(metrics_client);

    // The same stream through the CLI transport (Service::stream_batch is
    // exactly what `tfsn serve-batch` drives) must be byte-identical, and
    // both must equal Engine::batch on the same queries.
    for deployment in ["sd", "tiny"] {
        let mut cli_bytes = Vec::new();
        service
            .stream_batch(
                Some(deployment),
                std::io::Cursor::new(stream.as_bytes()),
                &mut cli_bytes,
                tfsn_engine::StreamOptions::timing(false),
            )
            .unwrap();
        let cli_body = String::from_utf8(cli_bytes).unwrap();

        let engine = service.engine(Some(deployment)).unwrap();
        let mut direct = engine.batch(&queries(24), &BatchOptions::with_threads(2));
        direct.iter_mut().for_each(|a| a.strip_timing());
        let direct_body: String = direct
            .iter()
            .map(|a| serde_json::to_string(a).unwrap() + "\n")
            .collect();

        assert_eq!(
            cli_body, direct_body,
            "{deployment}: CLI transport differs from Engine::batch"
        );
        let http_runs: Vec<&String> = bodies
            .iter()
            .filter(|(d, _)| d == deployment)
            .map(|(_, b)| b)
            .collect();
        assert_eq!(http_runs.len(), 4);
        for http_body in http_runs {
            assert_eq!(
                http_body, &cli_body,
                "{deployment}: HTTP transport differs from CLI transport"
            );
        }
    }

    server.shutdown();
}

#[test]
fn endpoints_errors_and_keep_alive() {
    let service = two_deployment_service();
    let server = HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerOptions {
            keep_alive: std::time::Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // One keep-alive connection drives every check below.
    let mut client = Client::connect(addr);

    let (status, body) = client.request("GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Single query, bare answer with the id echoed.
    let (status, body) = client.request(
        "POST",
        "/v1/query?deployment=tiny&timing=0",
        Some(r#"{"id": 9, "task": [1, 2]}"#),
    );
    assert_eq!(status, 200, "{body}");
    let answer: tfsn_engine::TeamAnswer = serde_json::from_str(body.trim()).unwrap();
    assert_eq!(answer.id, Some(9));
    assert_eq!(answer.micros, 0, "timing=0 must strip latency fields");

    // Deployment listing reflects lazy loading: only tiny is loaded.
    let (status, body) = client.request("GET", "/v1/deployments", None);
    assert_eq!(status, 200);
    let Response::Deployments(infos) = Response::parse_json(&body).unwrap() else {
        panic!("unexpected listing: {body}");
    };
    assert_eq!(infos.len(), 2);
    assert!(infos[0].default && !infos[0].loaded, "sd never touched");
    assert!(infos[1].loaded, "tiny served the query above");

    // Stats for a named deployment.
    let (status, body) = client.request("GET", "/v1/stats?deployment=tiny", None);
    assert_eq!(status, 200);
    let Response::Stats(stats) = Response::parse_json(&body).unwrap() else {
        panic!("unexpected stats: {body}");
    };
    assert_eq!(stats.dataset.users, 120);

    // Error mapping: unknown deployment -> 404 typed envelope.
    let (status, body) = client.request("GET", "/v1/stats?deployment=prod", None);
    assert_eq!(status, 404, "{body}");
    match Response::parse_json(&body).unwrap().error() {
        Some(ServiceError::UnknownDeployment { name, available }) => {
            assert_eq!(name, "prod");
            assert_eq!(available, &["sd".to_string(), "tiny".to_string()]);
        }
        other => panic!("unexpected error {other:?}"),
    }

    // Unsupported version via rpc -> 400 typed envelope.
    let (status, body) =
        client.request("POST", "/v1/rpc", Some(r#"{"version": 99, "op": "stats"}"#));
    assert_eq!(status, 400);
    assert!(
        matches!(
            Response::parse_json(&body).unwrap().error(),
            Some(ServiceError::UnsupportedVersion { requested: 99, .. })
        ),
        "{body}"
    );

    // Bad batch line -> 400 with the line number.
    let (status, body) = client.request("POST", "/v1/batch", Some("{\"task\": [1]}\nnot json\n"));
    assert_eq!(status, 400);
    match Response::parse_json(&body).unwrap().error() {
        Some(ServiceError::BadRequest { detail }) => {
            assert!(detail.starts_with("line 2:"), "got: {detail}")
        }
        other => panic!("unexpected error {other:?}"),
    }

    // Unknown path -> 404; wrong method on a known path -> 405.
    let (status, _) = client.request("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/batch", None);
    assert_eq!(status, 405);

    // The connection survived all of the above (keep-alive): one more
    // healthy request on the same socket.
    let (status, body) = client.request("GET", "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Shutdown over HTTP is an opt-in; this server did not opt in.
    let (status, body) = client.request("POST", "/v1/shutdown", None);
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("--allow-shutdown"), "{body}");

    // Close before shutdown so no worker sits out the idle timeout.
    drop(client);
    server.shutdown();
}

/// Outside input must never abort the process: a body nested far deeper
/// than the JSON parser's recursion limit (deep enough to overflow an
/// uncapped recursive parser's stack) is a typed 400 on every JSON
/// endpoint, and the server keeps serving on the same connection.
#[test]
fn deeply_nested_json_is_a_bad_request_not_a_crash() {
    let server = HttpServer::bind(
        two_deployment_service(),
        "127.0.0.1:0",
        ServerOptions {
            keep_alive: std::time::Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());
    let deep = "[".repeat(20_000);
    for target in [
        "/v1/query?deployment=tiny",
        "/v1/batch?deployment=tiny",
        "/v1/rpc",
    ] {
        let (status, body) = client.request("POST", target, Some(&deep));
        assert_eq!(status, 400, "{target}: {body}");
        assert!(
            matches!(
                Response::parse_json(&body).unwrap().error(),
                Some(ServiceError::BadRequest { .. })
            ),
            "{target}: {body}"
        );
    }
    let (status, body) = client.request(
        "POST",
        "/v1/query?deployment=tiny&timing=0",
        Some(r#"{"task": [1, 2]}"#),
    );
    assert_eq!(status, 200, "{body}");
    drop(client);
    server.shutdown();
}

/// RFC 9112 §6.3 framing: a signed `Content-Length` and two different
/// `Content-Length` values are invalid framing, answered with a 400 and a
/// closed connection. A well-framed request on a fresh connection is still
/// served, and so is one that repeats the same value.
#[test]
fn ambiguous_content_length_is_a_bad_request_and_closes() {
    use std::io::{Read, Write};
    let server = HttpServer::bind(
        two_deployment_service(),
        "127.0.0.1:0",
        ServerOptions {
            keep_alive: std::time::Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    // One request per connection; the reply is read until the server
    // closes it.
    let exchange = |headers: &str, body: &str| -> String {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let request = format!(
            "POST /v1/query?deployment=tiny&timing=0 HTTP/1.1\r\nHost: test\r\n{headers}\r\n\r\n{body}"
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("the server answers and closes the connection");
        reply
    };
    for framing in [
        "Content-Length: +2",
        "Content-Length: 2\r\nContent-Length: 3",
    ] {
        let reply = exchange(framing, "");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{framing}: {reply}");
        assert!(reply.contains("\r\nConnection: close\r\n"), "{reply}");
        assert!(reply.contains("bad_request"), "{reply}");
    }
    let body = r#"{"task": [1, 2]}"#;
    let length = format!("Content-Length: {}", body.len());
    for framing in [
        format!("{length}\r\nConnection: close"),
        format!("{length}\r\n{length}\r\nConnection: close"),
    ] {
        let reply = exchange(&framing, body);
        assert!(reply.starts_with("HTTP/1.1 200 "), "{framing}: {reply}");
        assert!(reply.contains(r#""status""#), "{reply}");
    }
    server.shutdown();
}

#[test]
fn mutate_endpoint_applies_live_edge_changes() {
    let service = two_deployment_service();
    let server = HttpServer::bind(
        service.clone(),
        "127.0.0.1:0",
        ServerOptions {
            keep_alive: std::time::Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    // Mutating a never-loaded deployment is a typed 400 and must not load.
    let (status, body) = client.request(
        "POST",
        "/v1/mutate?deployment=tiny",
        Some(r#"{"op": "edge_set_sign", "u": 0, "v": 1, "sign": "-"}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not loaded"), "{body}");
    let (_, listing) = client.request("GET", "/v1/deployments", None);
    assert!(
        !listing.contains("\"loaded\":true"),
        "mutation must not force a load: {listing}"
    );

    // Load tiny with a query, then mutate it for real.
    let (status, _) = client.request(
        "POST",
        "/v1/query?deployment=tiny",
        Some(r#"{"task": [0]}"#),
    );
    assert_eq!(status, 200);
    let insert = r#"{"op": "edge_insert", "u": 0, "v": 1, "sign": "+"}"#;
    let (status, body) = client.request("POST", "/v1/mutate?deployment=tiny", Some(insert));
    if status != 200 {
        // The fixed seed may already have edge (0, 1): remove it first,
        // then the insert must succeed.
        assert!(body.contains("already exists"), "{body}");
        let (status, body) = client.request(
            "POST",
            "/v1/mutate?deployment=tiny",
            Some(r#"{"op": "edge_remove", "u": 0, "v": 1}"#),
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = client.request("POST", "/v1/mutate?deployment=tiny", Some(insert));
        assert_eq!(status, 200, "{body}");
        match Response::parse_json(&body).unwrap() {
            Response::Mutated {
                deployment,
                mutation,
                changed,
                ..
            } => {
                assert_eq!(deployment, "tiny");
                assert_eq!(mutation, "edge_insert");
                assert!(changed);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Metrics now report the applied mutations.
    let (status, body) = client.request("GET", "/v1/metrics", None);
    assert_eq!(status, 200);
    let Response::Metrics { total, .. } = Response::parse_json(&body).unwrap() else {
        panic!("unexpected metrics payload: {body}");
    };
    assert!(total.mutations_applied >= 1, "{body}");

    // Malformed mutation bodies are clean 400s, not connection drops.
    let (status, body) = client.request("POST", "/v1/mutate?deployment=tiny", Some("not json"));
    assert_eq!(status, 400, "{body}");
    let (status, body) = client.request(
        "POST",
        "/v1/mutate?deployment=tiny",
        Some(r#"{"op": "warm"}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not a mutation op"), "{body}");

    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_handle_and_endpoint_stop_a_joined_server() {
    // Handle path: a thread triggers the handle while join() blocks.
    let server = HttpServer::bind(
        two_deployment_service(),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .unwrap();
    let handle = server.shutdown_handle();
    assert!(!handle.is_shutdown());
    let trigger = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.shutdown();
    });
    server.join(); // must return once the handle fires
    trigger.join().unwrap();

    // Endpoint path: POST /v1/shutdown on an opted-in server acknowledges,
    // then join() returns — the CI smoke's replacement for kill-by-PID.
    let server = HttpServer::bind(
        two_deployment_service(),
        "127.0.0.1:0",
        ServerOptions {
            allow_shutdown: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let observer = server.shutdown_handle();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.request("POST", "/v1/shutdown", None)
    });
    server.join();
    let (status, body) = client_thread.join().unwrap();
    assert_eq!((status, body.as_str()), (200, "shutting down\n"));
    assert!(observer.is_shutdown());
}

#[test]
fn prometheus_scrape_and_telemetry_endpoint() {
    let service = two_deployment_service();
    let server = HttpServer::bind(service, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.addr());

    // Drive 24 queries through the default deployment (sd) so every
    // telemetry axis has samples.
    let (status, body) = client.request("POST", "/v1/batch", Some(&jsonl(&queries(24))));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.lines().count(), 24);

    // The Prometheus scrape: valid exposition lines, label-closed over
    // ops for the loaded deployment, cumulative buckets closed by +Inf.
    let text = client.0.metrics_text().expect("GET /metrics");
    assert!(
        text.contains("# TYPE tfsn_op_latency_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("tfsn_queries_served_total{deployment=\"sd\"} 24"));
    assert!(
        !text.contains("deployment=\"tiny\""),
        "tiny was never loaded and must not be scraped"
    );
    for op in ["query", "batch", "mutate", "warm"] {
        assert!(
            text.contains(&format!(
                "tfsn_op_latency_seconds_count{{deployment=\"sd\",op=\"{op}\"}}"
            )),
            "missing op {op} in scrape"
        );
    }
    for phase in ["build_wait", "row_compute", "solve", "serialize"] {
        assert!(
            text.contains(&format!(
                "tfsn_phase_latency_seconds_count{{deployment=\"sd\",phase=\"{phase}\"}}"
            )),
            "missing phase {phase} in scrape"
        );
    }
    let mut last = 0u64;
    let mut saw_inf = false;
    for line in text.lines() {
        let Some(rest) =
            line.strip_prefix("tfsn_op_latency_seconds_bucket{deployment=\"sd\",op=\"query\",le=")
        else {
            continue;
        };
        let value: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value >= last, "buckets must be cumulative: {line}");
        last = value;
        if rest.starts_with("\"+Inf\"") {
            saw_inf = true;
            assert_eq!(value, 24, "+Inf closes the series at the count");
        }
    }
    assert!(saw_inf, "+Inf line missing from scrape:\n{text}");
    // Every query went through one of the three exercised kinds.
    assert!(text.contains("tfsn_kind_queries_total{deployment=\"sd\",kind=\"SPA\"} 8"));
    assert!(text.contains("tfsn_kind_queries_total{deployment=\"sd\",kind=\"DPE\"} 0"));

    // The JSON telemetry endpoint agrees with the scrape.
    let (status, body) = client.request("GET", "/v1/telemetry", None);
    assert_eq!(status, 200, "{body}");
    let Response::Telemetry { deployments } = Response::parse_json(&body).unwrap() else {
        panic!("unexpected telemetry response: {body}");
    };
    assert_eq!(deployments.len(), 1);
    assert_eq!(deployments[0].deployment, "sd");
    let report = &deployments[0].telemetry;
    let query_axis = report
        .ops
        .iter()
        .find(|axis| axis.label == "query")
        .expect("query axis");
    assert_eq!(query_axis.stats.count, 24);
    assert!(query_axis.stats.p50_micros <= query_axis.stats.p999_micros);
    assert!(!report.slow_queries.is_empty());
    let slowest = &report.slow_queries[0];
    assert_eq!(
        slowest.total_micros,
        slowest.build_wait_micros + slowest.row_compute_micros + slowest.solve_micros,
        "phase breakdown must tile the total"
    );

    // Wrong method on the scrape path -> 405, not 404.
    let (status, _) = client.request("POST", "/metrics", None);
    assert_eq!(status, 405);

    drop(client);
    server.shutdown();
}
