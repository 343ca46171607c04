//! End-to-end cluster tests: a primary with a write-ahead log, two
//! followers replicating it over `GET /v1/wal`, and a `tfsn route` router
//! in front — all in-process on ephemeral ports.
//!
//! Asserted here:
//! * mutations sent through the router land on the primary, are
//!   WAL-logged, and both followers converge (`replicated_seq` reaches the
//!   primary's `end_seq`; edge sets match the primary *and* a fresh replay
//!   of its WAL);
//! * killing one of two replicas mid-stream loses **zero** reads — the
//!   router transparently retries on the surviving replica;
//! * batch answers through the router are byte-identical to the same
//!   batch served directly by the backing service;
//! * with the primary down, writes answer the typed `no_backend` 503
//!   (with `Retry-After`) while reads keep flowing to replicas.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tfsn_engine::client::RetryPolicy;
use tfsn_engine::cluster::{replica, FollowerOptions, Router, RouterOptions, Topology};
use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource, WalConfig};
use tfsn_engine::server::{HttpServer, ServerOptions};
use tfsn_engine::service::{Service, ServiceOptions, StreamOptions};
use tfsn_engine::{wal, BatchOptions, HttpClient, Response};

const DEPLOYMENT: &str = "net";
const SPEC: &str = "synthetic:nodes=80,edges=240,skills=12,seed=3";

fn service(wal_dir: Option<&std::path::Path>) -> Arc<Service> {
    let mut registry = DeploymentRegistry::new(vec![DeploymentConfig::new(
        DEPLOYMENT,
        DeploymentSource::parse(SPEC).unwrap(),
    )])
    .unwrap();
    if let Some(dir) = wal_dir {
        registry = registry.with_wal(WalConfig::new(dir));
    }
    Arc::new(Service::with_options(
        registry,
        ServiceOptions {
            batch: BatchOptions::with_threads(2),
            chunk: 4, // multi-chunk streaming on the 12-query batches
            objective: None,
        },
    ))
}

fn server(service: Arc<Service>) -> HttpServer {
    HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerOptions {
            threads: 2,
            // Short, so shutdown's drain (which waits out idle keep-alive
            // handler threads) doesn't dominate the test.
            keep_alive: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

fn connect(addr: std::net::SocketAddr) -> HttpClient {
    // No client-side retries: these tests assert on the *router's*
    // behaviour (transparent read retry, typed no_backend 503s), which a
    // retrying client would mask.
    HttpClient::connect_with(addr, RetryPolicy::none()).expect("connect")
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The follower's replication high-water mark, read over its own wire.
fn replicated_seq(replica_addr: std::net::SocketAddr) -> Option<u64> {
    let mut client = connect(replica_addr);
    let reply = client.request("GET", "/v1/stats", "").expect("stats");
    match Response::parse_json(&reply.body).expect("parse stats") {
        Response::Stats(stats) => stats.replicated_seq,
        other => panic!("unexpected `{}` response to stats", other.op()),
    }
}

#[test]
fn cluster_replicates_survives_replica_kill_and_degrades_typed() {
    let dir = std::env::temp_dir().join(format!("tfsn-cluster-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Primary: WAL-attached, deployment loaded up front (mutations never
    // force a load, same as production).
    let primary_service = service(Some(&dir));
    primary_service.engine(None).expect("load primary");
    let primary = server(primary_service.clone());
    let primary_addr = primary.addr();

    // Two log-less followers polling the primary.
    let r1_service = service(None);
    let r2_service = service(None);
    let r1 = server(r1_service.clone());
    let r2 = server(r2_service.clone());
    let poll = |svc: &Arc<Service>| {
        replica::start(
            svc.clone(),
            FollowerOptions::new(primary_addr, Duration::from_millis(25)),
        )
    };
    let f1 = poll(&r1_service);
    let f2 = poll(&r2_service);

    // The router, probing fast so ejection shows up within the test.
    let specs = [
        format!("prim={primary_addr},role=primary"),
        format!("r1={},role=replica", r1.addr()),
        format!("r2={},role=replica", r2.addr()),
    ];
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let topology = Topology::parse(&spec_refs).unwrap();
    let router = Router::bind(
        &topology,
        "127.0.0.1:0",
        RouterOptions {
            probe_interval: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("bind router");
    let mut client = connect(router.addr());

    // 20 mutations through the router. The remove-then-insert pairs are
    // deterministic regardless of the seeded graph: whichever of the pair
    // is rejected, both are WAL-logged (append-before-apply), so the log
    // ends at sequence 20 either way.
    for i in 0..10u32 {
        let (u, v) = (i, i + 1);
        for body in [
            format!(r#"{{"op": "edge_remove", "u": {u}, "v": {v}}}"#),
            format!(r#"{{"op": "edge_insert", "u": {u}, "v": {v}, "sign": "-"}}"#),
        ] {
            let reply = client.request("POST", "/v1/mutate", &body).expect("mutate");
            assert!(
                reply.status == 200 || reply.status == 400,
                "mutation neither applied nor typed-rejected: {} {}",
                reply.status,
                reply.body
            );
        }
    }

    // The WAL pull surface, through the router (primary-routed).
    let reply = client
        .request("GET", "/v1/wal?from_seq=0&max=5", "")
        .expect("wal pull");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let end_seq = match Response::parse_json(&reply.body).expect("parse wal_records") {
        Response::WalRecords {
            deployment,
            from_seq,
            next_seq,
            end_seq,
            records,
        } => {
            assert_eq!(deployment, DEPLOYMENT);
            assert_eq!(from_seq, 0);
            assert_eq!(records.len(), 5, "max caps the reply");
            assert_eq!(next_seq, 5);
            end_seq
        }
        other => panic!("unexpected `{}` response", other.op()),
    };
    assert_eq!(
        end_seq, 20,
        "every mutation (applied or rejected) is logged"
    );

    // Both followers converge to the primary's high-water mark…
    wait_until("r1 to replicate", || {
        replicated_seq(r1.addr()) == Some(end_seq)
    });
    wait_until("r2 to replicate", || {
        replicated_seq(r2.addr()) == Some(end_seq)
    });
    // …and their graphs equal the primary's, and a fresh replay of the
    // primary's WAL against the same snapshot (the convergence contract).
    let primary_edges = primary_service.engine(None).unwrap().graph().edge_count();
    let scan = wal::scan(&dir.join(format!("{DEPLOYMENT}.wal"))).unwrap();
    assert!(scan.clean(), "no torn tail on a quiesced primary");
    assert_eq!(scan.mutations.len() as u64, end_seq);
    let fresh = service(None);
    let fresh_engine = fresh.engine(None).unwrap();
    for mutation in &scan.mutations {
        let _ = fresh_engine.mutate(mutation); // rejections re-fail identically
    }
    assert_eq!(fresh_engine.graph().edge_count(), primary_edges);
    for svc in [&r1_service, &r2_service] {
        assert_eq!(
            svc.engine(None).unwrap().graph().edge_count(),
            primary_edges
        );
    }
    // Non-followers never report a replication mark.
    assert_eq!(replicated_seq(primary_addr), None);

    // Reads round-robin across the replicas.
    for _ in 0..4 {
        let reply = client
            .request("POST", "/v1/query?timing=false", r#"{"task": [0, 1]}"#)
            .expect("query");
        assert_eq!(reply.status, 200, "{}", reply.body);
    }

    // Kill replica 2 outright. The router's pooled connection to it is now
    // dead and probes haven't noticed yet — the next reads routed its way
    // must transparently retry on replica 1: zero failed lines.
    f2.stop();
    r2.shutdown();
    for i in 0..8 {
        let reply = client
            .request("POST", "/v1/query?timing=false", r#"{"task": [1, 2]}"#)
            .unwrap_or_else(|e| panic!("read {i} lost to the dead replica: {e}"));
        assert_eq!(reply.status, 200, "read {i}: {}", reply.body);
    }

    // The probe ejects it shortly after; /v1/topology says so.
    wait_until("r2 ejection to show in /v1/topology", || {
        let reply = client.request("GET", "/v1/topology", "").expect("topology");
        reply.body.contains(r#""name":"r2","#)
            && reply.body.contains(r#""role":"replica","healthy":false"#)
    });

    // With only r1 healthy, a batch through the router is byte-identical
    // to the same batch served directly by r1's service. (First run fills
    // the caches on both paths; the compared runs are all cache hits.)
    let batch: String = (0..12)
        .map(|i| {
            format!(
                "{{\"id\": {i}, \"task\": [{}, {}]}}\n",
                i % 5,
                (i * 3 + 1) % 5
            )
        })
        .collect();
    let direct = |svc: &Arc<Service>| {
        let mut out = Vec::new();
        svc.stream_batch(
            None,
            std::io::Cursor::new(batch.clone()),
            &mut out,
            StreamOptions::timing(false),
        )
        .expect("direct batch");
        String::from_utf8(out).unwrap()
    };
    direct(&r1_service);
    let _ = client
        .request("POST", "/v1/batch?timing=false", &batch)
        .expect("warm batch");
    let via_router = client
        .request("POST", "/v1/batch?timing=false", &batch)
        .expect("batch");
    assert_eq!(via_router.status, 200);
    assert_eq!(
        via_router.body,
        direct(&r1_service),
        "router must not alter the batch stream"
    );

    // Primary down: writes degrade to the typed no_backend 503 (with
    // Retry-After) while reads keep flowing to the surviving replica.
    f1.stop();
    primary.shutdown();
    let reply = client
        .request(
            "POST",
            "/v1/mutate?deployment=net",
            r#"{"op": "edge_remove", "u": 0, "v": 1}"#,
        )
        .expect("mutate against dead primary");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert!(
        reply.body.contains(r#""code":"no_backend""#),
        "{}",
        reply.body
    );
    assert!(reply.body.contains(r#""role":"primary""#), "{}", reply.body);
    assert!(
        reply.body.contains(r#""deployment":"net""#),
        "{}",
        reply.body
    );
    assert!(
        reply.retry_after_secs().is_some(),
        "no_backend must advertise Retry-After"
    );
    let reply = client
        .request("POST", "/v1/query?timing=false", r#"{"task": [0]}"#)
        .expect("read with primary down");
    assert_eq!(reply.status, 200, "{}", reply.body);

    drop(client);
    router.shutdown();
    r1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI wiring of the follower loop (`serve-http --follow`), driven
/// through `cli::run` exactly as the binary would: the follower starts
/// against a primary whose deployment is still cold (every pull answers
/// the typed "warm or query it first" error), then the primary warms and
/// mutates, and the follower must log the error streak *and keep
/// polling* until it converges. Regression test: `run()` used to hold
/// `stderr.lock()` for the life of the process, so the follower thread's
/// first error `eprintln!` deadlocked on the stdio lock — silently, with
/// replication stuck at zero forever.
#[test]
fn cli_follower_survives_error_streak_and_converges() {
    let dir = std::env::temp_dir().join(format!("tfsn-cli-follow-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Primary: WAL-attached but deliberately NOT warmed yet.
    let primary_service = service(Some(&dir));
    let primary = server(primary_service.clone());
    let primary_addr = primary.addr();

    // An ephemeral port for the CLI follower: bind-and-release, then hand
    // the freed port to `serve-http --addr`.
    let follower_addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };

    let cli = std::thread::spawn(move || {
        tfsn_engine::cli::run(
            [
                "serve-http",
                "--addr",
                &follower_addr.to_string(),
                "--deployment",
                &format!("{DEPLOYMENT}={SPEC}"),
                "--follow",
                &primary_addr.to_string(),
                "--poll-ms",
                "25",
                "--allow-shutdown",
            ]
            .into_iter()
            .map(String::from),
        )
    });
    wait_until("CLI follower to come up", || {
        HttpClient::connect_with(follower_addr, RetryPolicy::none())
            .ok()
            .and_then(|mut c| c.request("GET", "/healthz", "").ok())
            .is_some_and(|reply| reply.status == 200)
    });

    // Let the follower take a few pulls against the cold primary — each
    // one answers the typed bad_request, exercising the error branch.
    std::thread::sleep(Duration::from_millis(150));

    // Warm the primary and push mutations straight at it.
    primary_service.engine(None).expect("load primary");
    let mut client = connect(primary_addr);
    for i in 0..3u32 {
        for body in [
            format!(r#"{{"op": "edge_remove", "u": {i}, "v": {}}}"#, i + 1),
            format!(
                r#"{{"op": "edge_insert", "u": {i}, "v": {}, "sign": "-"}}"#,
                i + 1
            ),
        ] {
            let reply = client.request("POST", "/v1/mutate", &body).expect("mutate");
            assert!(
                reply.status == 200 || reply.status == 400,
                "mutation neither applied nor typed-rejected: {} {}",
                reply.status,
                reply.body
            );
        }
    }

    // The follower recovers from the error streak and converges.
    wait_until("CLI follower to replicate", || {
        replicated_seq(follower_addr) == Some(6)
    });
    let primary_edges = primary_service.engine(None).unwrap().graph().edge_count();
    let mut follower_client = connect(follower_addr);
    let reply = follower_client
        .request("GET", "/v1/stats", "")
        .expect("follower stats");
    match Response::parse_json(&reply.body).expect("parse stats") {
        Response::Stats(stats) => assert_eq!(stats.dataset.edges, primary_edges),
        other => panic!("unexpected `{}` response to stats", other.op()),
    }

    // Graceful stop through the wire; the CLI run returns cleanly.
    let reply = follower_client
        .request("POST", "/v1/shutdown", "")
        .expect("shutdown");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(cli.join().expect("join cli thread"), 0);
    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_refuses_shutdown_and_answers_health_locally() {
    // A router over a topology whose backends do not exist yet: the local
    // surface (healthz, topology, shutdown refusal) works regardless.
    let topology = Topology::parse(&["p=127.0.0.1:1,role=primary"]).unwrap();
    let router = Router::bind(
        &topology,
        "127.0.0.1:0",
        RouterOptions {
            probe_interval: Duration::from_secs(60), // stay out of the way
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = connect(router.addr());
    let reply = client.request("GET", "/healthz", "").unwrap();
    assert_eq!((reply.status, reply.body.as_str()), (200, "ok\n"));
    let reply = client.request("POST", "/v1/shutdown", "").unwrap();
    assert_eq!(reply.status, 403, "{}", reply.body);
    assert!(
        reply.body.contains("stop backends directly"),
        "{}",
        reply.body
    );
    let reply = client.request("GET", "/v1/topology", "").unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains(r#""name":"p""#), "{}", reply.body);
    drop(client);
    router.shutdown();
}

/// The router sniffs `/v1/rpc` bodies with the same JSON parser the
/// backends use. A body nested far deeper than the parser's recursion limit
/// must not take the front end down: the router forwards the unparseable
/// body to a backend, which answers the typed 400, and the router keeps
/// serving the next request on the same connection.
#[test]
fn router_answers_deeply_nested_rpc_with_400_and_keeps_serving() {
    let backend = server(service(None));
    let spec = format!("p={},role=primary", backend.addr());
    let topology = Topology::parse(&[spec.as_str()]).unwrap();
    let router = Router::bind(
        &topology,
        "127.0.0.1:0",
        RouterOptions {
            probe_interval: Duration::from_secs(60), // stay out of the way
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = connect(router.addr());
    let deep = "[".repeat(20_000);
    for target in ["/v1/rpc", "/v1/query"] {
        let reply = client.request("POST", target, &deep).unwrap();
        assert_eq!(reply.status, 400, "{target}: {}", reply.body);
        assert!(
            matches!(
                Response::parse_json(&reply.body).unwrap().error(),
                Some(tfsn_engine::ServiceError::BadRequest { .. })
            ),
            "{target}: {}",
            reply.body
        );
    }
    let reply = client
        .request(
            "POST",
            "/v1/rpc",
            r#"{"version": 1, "op": "query", "query": {"task": [0]}}"#,
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    drop(client);
    router.shutdown();
    backend.shutdown();
}

/// A body that is not UTF-8 is the client's fault, not the backend's. The
/// router answers it with the backends' own 400, byte for byte, and
/// neither retries it nor counts it against the backend.
#[test]
fn router_answers_non_utf8_bodies_with_the_backends_400() {
    use std::io::{Read, Write};
    let backend = server(service(None));
    let spec = format!("p={},role=primary", backend.addr());
    let topology = Topology::parse(&[spec.as_str()]).unwrap();
    let router = Router::bind(
        &topology,
        "127.0.0.1:0",
        RouterOptions {
            probe_interval: Duration::from_secs(60), // stay out of the way
            ..Default::default()
        },
    )
    .unwrap();
    // One request per connection, read until the peer closes it.
    let exchange = |addr: std::net::SocketAddr, target: &str| -> Vec<u8> {
        let body: &[u8] = b"{\"task\": [0, \xff]}";
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        );
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&[head.as_bytes(), body].concat()).unwrap();
        let mut reply = Vec::new();
        stream
            .read_to_end(&mut reply)
            .expect("the peer answers and closes the connection");
        reply
    };
    for target in ["/v1/query", "/v1/mutate"] {
        let routed = exchange(router.addr(), target);
        let text = String::from_utf8_lossy(&routed);
        assert!(text.starts_with("HTTP/1.1 400 "), "{target}: {text}");
        assert!(text.contains(r#""code":"bad_request""#), "{target}: {text}");
        assert_eq!(
            routed,
            exchange(backend.addr(), target),
            "{target}: the router's 400 differs from the backend's"
        );
    }
    let mut client = connect(router.addr());
    let reply = client.request("GET", "/v1/topology", "").unwrap();
    assert!(
        reply
            .body
            .contains(r#""healthy":true,"consecutive_failures":0"#),
        "{}",
        reply.body
    );
    assert!(reply.body.contains(r#""read_retries":0"#), "{}", reply.body);
    drop(client);
    router.shutdown();
    backend.shutdown();
}

/// The replication storm: 500 mutations land on the primary, and a
/// rows-mode follower replays them through batched pull windows
/// (`max_per_pull` forces several `mutate_batch` groups). It must catch up
/// — `replicated_seq` reaches the storm size — while thrashing its row
/// cache strictly less than the unbatched baseline recorded in the same
/// test: the same log folded one record at a time with a read sweep
/// between records, which is what the pre-batching follower amounted to
/// under a live read workload.
#[test]
fn follower_storm_converges_with_fewer_row_builds_than_unbatched_replay() {
    use signed_graph::{EdgeMutation, NodeId, Sign};
    use tfsn_core::compat::CompatibilityKind;
    use tfsn_engine::{Engine, EngineOptions, StorePolicy};

    const STORM: usize = 500;
    const KIND: CompatibilityKind = CompatibilityKind::Spo;
    let rows_options = || EngineOptions {
        policy: StorePolicy::rows(None),
        build_threads: 2,
        ..Default::default()
    };
    // Fills every row of KIND, building the invalidated ones.
    let sweep = |engine: &Engine| {
        let fetched = engine.store().fetch(KIND);
        let scope = fetched.scope();
        for u in 0..engine.graph().node_count() {
            let _ = scope.compat().packed_row(NodeId::new(u));
        }
    };
    // A deterministic flappy storm: edges over a small node range get
    // removed, re-inserted and re-signed repeatedly, so batched windows
    // can cancel work that record-at-a-time replay pays for.
    let mutations: Vec<EdgeMutation> = (0..STORM)
        .map(|i| {
            let u = NodeId::new(i % 17);
            let v = NodeId::new((i * 7 + 1) % 23);
            let sign = if i % 3 == 0 {
                Sign::Negative
            } else {
                Sign::Positive
            };
            match i % 4 {
                0 => EdgeMutation::Insert { u, v, sign },
                1 => EdgeMutation::Remove { u, v },
                _ => EdgeMutation::SetSign { u, v, sign },
            }
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("tfsn-storm-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let primary_service = service(Some(&dir));
    let primary_engine = primary_service.engine(None).expect("load primary");
    let primary = server(primary_service.clone());
    for m in &mutations {
        let _ = primary_engine.mutate(m); // rejections are logged too
    }

    // The follower: rows resident up front, so the storm hits live state.
    let follower_service = {
        let registry = DeploymentRegistry::new(vec![DeploymentConfig::new(
            DEPLOYMENT,
            DeploymentSource::parse(SPEC).unwrap(),
        )
        .with_options(rows_options())])
        .unwrap();
        Arc::new(Service::new(registry))
    };
    let follower_engine = follower_service.engine(None).expect("load follower");
    sweep(&follower_engine);
    let follower = replica::start(
        follower_service.clone(),
        FollowerOptions {
            primary: primary.addr(),
            poll: Duration::from_millis(10),
            max_per_pull: 128, // several batched windows, not one giant pull
        },
    );
    wait_until("follower to replay the storm", || {
        follower_engine.replicated_seq() == Some(STORM as u64)
    });
    follower.stop();
    assert_eq!(
        format!("{:?}", follower_engine.graph().edges()),
        format!("{:?}", primary_engine.graph().edges()),
        "the converged follower must serve the primary's edge list"
    );
    sweep(&follower_engine);
    let follower_builds = follower_engine.store().row_build_count();

    // The unbatched baseline, recorded here: fold the identical log one
    // record at a time with a read sweep after every record.
    let baseline = Engine::with_options(
        DeploymentSource::parse(SPEC).unwrap().load(),
        rows_options(),
    );
    sweep(&baseline);
    for m in &mutations {
        let _ = baseline.mutate(m);
        sweep(&baseline);
    }
    let baseline_builds = baseline.store().row_build_count();
    assert!(
        follower_builds < baseline_builds,
        "batched windows must rebuild fewer rows than record-at-a-time \
         replay: follower {follower_builds} vs baseline {baseline_builds}"
    );

    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
