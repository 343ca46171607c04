//! The live-mutation correctness suite: an arbitrary interleave of edge
//! mutations and team queries must answer **byte-identically** to an engine
//! rebuilt from scratch on the mutated edge list — for every compatibility
//! kind, in both the matrix and the (budgeted) row serving modes — plus the
//! accounting, fill, concurrency and typed-error edge cases.

use std::sync::Arc;

use proptest::prelude::*;
use signed_graph::{EdgeChange, EdgeMutation, GraphBuilder, NodeId, Sign};
use tfsn_core::compat::{row_affected_by_edge, Compatibility, CompatibilityKind};
use tfsn_engine::registry::{DeploymentConfig, DeploymentRegistry, DeploymentSource};
use tfsn_engine::{
    Deployment, Engine, EngineOptions, Request, RequestBody, Response, Service, ServiceError,
    StorePolicy, TeamQuery,
};

const NODES: usize = 22;

/// A small deterministic deployment: a signed ring with chords plus a
/// detached positive pair (so frontier invalidation has an unaffected
/// component to spare), and a handful of skills.
fn base_deployment() -> Deployment {
    let mut b = GraphBuilder::with_nodes(NODES);
    for i in 0..NODES - 2 {
        let sign = if i % 5 == 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        b.add_edge(NodeId::new(i), NodeId::new((i + 1) % (NODES - 2)), sign)
            .unwrap();
    }
    for i in (0..NODES - 4).step_by(4) {
        let _ = b.add_edge(NodeId::new(i), NodeId::new(i + 3), Sign::Positive);
    }
    // The detached pair (NODES-2, NODES-1).
    b.add_edge(
        NodeId::new(NODES - 2),
        NodeId::new(NODES - 1),
        Sign::Positive,
    )
    .unwrap();
    let graph = b.build();
    let mut universe = tfsn_skills::SkillUniverse::new();
    let skills: Vec<_> = (0..6).map(|i| universe.intern(&format!("s{i}"))).collect();
    let mut assignment = tfsn_skills::assignment::SkillAssignment::new(universe.len(), NODES);
    for u in 0..NODES {
        assignment.grant(u, skills[u % skills.len()]);
        assignment.grant(u, skills[(u * 3 + 1) % skills.len()]);
    }
    Deployment::new("mutation-fixture", graph, universe, assignment).unwrap()
}

/// Rebuilds a deployment whose graph is `graph_of(engine)`'s current edge
/// list, sharing the original skills — the from-scratch reference.
fn rebuild_deployment(engine: &Engine) -> Deployment {
    let live = engine.graph();
    let mut b = GraphBuilder::with_nodes(live.node_count());
    for e in live.edges() {
        b.add_edge(e.u, e.v, e.sign).unwrap();
    }
    Deployment::new(
        "rebuilt",
        b.build(),
        engine.deployment().universe().clone(),
        engine.deployment().skills().clone(),
    )
    .unwrap()
}

fn options(policy: StorePolicy) -> EngineOptions {
    EngineOptions {
        policy,
        build_threads: 2,
        ..Default::default()
    }
}

/// Normalizes an answer for cross-engine comparison: timing fields and the
/// cache attribution depend on serving history, not on the answer.
fn canonical(mut answer: tfsn_engine::TeamAnswer) -> String {
    answer.strip_timing();
    answer.cache_hit = false;
    serde_json::to_string(&answer).unwrap()
}

/// One step of the interleave.
#[derive(Debug, Clone)]
enum Step {
    Mutate(EdgeMutation),
    Query(TeamQuery),
}

fn step((sel, u, v, s, skills): (usize, usize, usize, usize, (usize, usize))) -> Step {
    let sign = if s % 2 == 0 {
        Sign::Positive
    } else {
        Sign::Negative
    };
    let (u, v) = (NodeId::new(u % NODES), NodeId::new(v % NODES));
    match sel % 6 {
        0 => Step::Mutate(EdgeMutation::Insert { u, v, sign }),
        1 => Step::Mutate(EdgeMutation::Remove { u, v }),
        2 => Step::Mutate(EdgeMutation::SetSign { u, v, sign }),
        _ => Step::Query(
            TeamQuery::new([skills.0 % 6, skills.1 % 6])
                .with_id(sel as u64)
                .with_kind(CompatibilityKind::ALL[s % CompatibilityKind::ALL.len()]),
        ),
    }
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0usize..12,
            0usize..NODES + 2, // occasionally out of range: typed error, no state change
            0usize..NODES,
            0usize..14,
            (0usize..8, 0usize..8),
        )
            .prop_map(step),
        1..10,
    )
}

/// Runs one interleave against a live engine and asserts every query
/// answers byte-identically to a from-scratch engine on the current edge
/// list, then does one final all-kinds sweep.
fn check_interleave(policy: StorePolicy, steps: &[Step]) {
    let engine = Engine::with_options(base_deployment(), options(policy));
    // Warm a couple of kinds so mutations hit resident state, not just
    // cold shards.
    engine.warm(&[CompatibilityKind::Spo, CompatibilityKind::Nne]);
    let mut mutations_applied = 0u64;
    for s in steps {
        match s {
            Step::Mutate(m) => {
                if engine.mutate(m).is_ok() {
                    mutations_applied += 1;
                }
            }
            Step::Query(q) => {
                let live = engine.query(q);
                let reference = Engine::with_options(
                    rebuild_deployment(&engine),
                    options(*engine.store().policy()),
                );
                let fresh = reference.query(q);
                prop_assert_eq!(
                    canonical(live),
                    canonical(fresh),
                    "query {:?} diverged after {} mutation(s)",
                    q,
                    mutations_applied
                );
            }
        }
    }
    // Final sweep: every kind agrees with the rebuilt engine.
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(*engine.store().policy()),
    );
    for (i, &kind) in CompatibilityKind::ALL.iter().enumerate() {
        let q = TeamQuery::new([i % 6, (i + 2) % 6])
            .with_id(1000 + i as u64)
            .with_kind(kind);
        prop_assert_eq!(
            canonical(engine.query(&q)),
            canonical(reference.query(&q)),
            "final sweep diverged for {}",
            kind
        );
    }
    prop_assert_eq!(engine.metrics().mutations_applied, mutations_applied);
}

/// Proptest case count, overridable for the nightly deep run.
fn cases() -> u32 {
    std::env::var("TFSN_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The acceptance property, matrix mode: mutations sweep filled stores
    /// (repairing, or dropping rows that recompute on demand); answers must
    /// not move.
    #[test]
    fn interleave_matches_rebuild_matrix_mode(steps in steps_strategy()) {
        check_interleave(StorePolicy::materialized(), &steps);
    }

    /// The acceptance property, row mode under a budget tight enough to
    /// force eviction interplay with invalidation.
    #[test]
    fn interleave_matches_rebuild_row_mode(steps in steps_strategy()) {
        let budget = 8 * tfsn_core::compat::estimated_row_bytes(NODES);
        check_interleave(StorePolicy::rows(Some(budget)), &steps);
    }
}

#[test]
fn frontier_invalidation_is_minimal_and_rebuilds_exactly_once() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
    let kind = CompatibilityKind::Spo;
    // Warm every row with a full pair scan.
    let fetched = engine.store().fetch(kind);
    let scope = fetched.scope();
    for u in 0..NODES {
        for v in 0..NODES {
            scope.compat().compatible(NodeId::new(u), NodeId::new(v));
        }
    }
    assert_eq!(engine.store().row_build_count(), NODES);
    // Compute the expected casualty set from the resident rows *before*
    // mutating, with the same predicate the store applies.
    let (u, v) = (NodeId::new(0), NodeId::new(3));
    let expected: usize = (0..NODES)
        .filter(|&s| {
            let row = match fetched.scope().compat().packed_row(NodeId::new(s)) {
                Some(handle) => handle.row().clone(),
                None => panic!("row tier exposes packed rows"),
            };
            row_affected_by_edge(&row, u, v)
        })
        .count();
    let report = engine
        .mutate(&EdgeMutation::Remove { u, v })
        .expect("edge (0, 3) exists in the fixture");
    assert!(matches!(report.effect.change, EdgeChange::Removed(_)));
    assert_eq!(report.rows_invalidated, expected);
    assert!(
        expected < NODES,
        "the detached pair's rows must survive a ring mutation"
    );
    assert_eq!(
        engine.store().resident_row_count(),
        NODES - expected,
        "unaffected rows stay resident"
    );
    // A full re-scan rebuilds each invalidated row exactly once.
    let fetched = engine.store().fetch(kind);
    let scope = fetched.scope();
    for s in 0..NODES {
        for t in 0..NODES {
            scope.compat().compatible(NodeId::new(s), NodeId::new(t));
        }
    }
    assert_eq!(engine.store().row_build_count(), NODES + expected);
    let m = engine.metrics();
    assert_eq!(m.mutations_applied, 1);
    assert_eq!(m.rows_invalidated, expected as u64);
}

/// Every `n`-th fixture edge, its sign flipped.
fn flips_of_every(engine: &Engine, n: usize) -> Vec<EdgeMutation> {
    engine
        .graph()
        .edges()
        .iter()
        .step_by(n)
        .map(|e| EdgeMutation::SetSign {
            u: e.u,
            v: e.v,
            sign: e.sign.flip(),
        })
        .collect()
}

#[test]
fn filled_shards_repair_sign_flips_and_keep_their_tables() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::materialized()));
    let kinds = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spo,
        CompatibilityKind::Nne,
    ];
    engine.warm(&kinds);
    assert_eq!(engine.store().build_count(), kinds.len());
    let flips = flips_of_every(&engine, 3);
    assert!(flips.len() >= 6);
    let report = engine.mutate_batch(&flips).expect("no WAL is attached");
    assert_eq!(report.applied(), flips.len());
    assert_eq!(report.kinds_downgraded, vec![], "every row stayed resident");
    assert_eq!(report.rows_invalidated, 0);
    assert!(report.rows_repaired > 0);
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::materialized()),
    );
    for kind in kinds {
        let (live, fresh) = (engine.store().fetch(kind), reference.store().fetch(kind));
        let (live, fresh) = (live.scope(), fresh.scope());
        for u in (0..NODES).map(NodeId::new) {
            let row = live.packed_row(u).expect("in range");
            assert!(row.exact(), "{kind} row {u}");
            assert_eq!(row.row(), fresh.packed_row(u).expect("in range").row());
        }
        for task in [[0usize, 1], [2, 4], [1, 5]] {
            let q = TeamQuery::new(task).with_kind(kind);
            assert_eq!(canonical(engine.query(&q)), canonical(reference.query(&q)));
        }
    }
    assert_eq!(
        engine.store().row_build_count(),
        0,
        "a resident sweep builds no row"
    );
}

#[test]
fn filled_sbph_and_sbp_serve_per_source_rows_after_a_change() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::materialized()));
    let kinds = [CompatibilityKind::Sbph, CompatibilityKind::Sbp];
    engine.warm(&kinds);
    for kind in kinds {
        let fetched = engine.store().fetch(kind);
        assert!(fetched.scope().packed_row(NodeId::new(0)).unwrap().exact());
    }
    let report = engine
        .mutate_batch(&flips_of_every(&engine, 7))
        .expect("no WAL is attached");
    assert_eq!(report.kinds_downgraded, kinds.to_vec());
    assert_eq!(report.rows_invalidated, kinds.len() * NODES);
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::materialized()),
    );
    for kind in kinds {
        let (live, fresh) = (engine.store().fetch(kind), reference.store().fetch(kind));
        let (live, fresh) = (live.scope(), fresh.scope());
        for u in (0..NODES).map(NodeId::new) {
            assert!(
                !live.packed_row(u).expect("in range").exact(),
                "{kind} row {u}: recomputed rows are per-source lower bounds"
            );
            for v in (0..NODES).map(NodeId::new) {
                assert_eq!(live.compatible(u, v), fresh.compatible(u, v), "{kind}");
                assert_eq!(live.distance(u, v), fresh.distance(u, v), "{kind}");
            }
        }
        for task in [[0usize, 1], [2, 4], [1, 5]] {
            let q = TeamQuery::new(task).with_kind(kind);
            assert_eq!(canonical(engine.query(&q)), canonical(reference.query(&q)));
        }
    }
}

#[test]
fn budgeted_matrix_evicts_to_its_budget_at_the_first_sweep() {
    // Forced matrix mode fills past the budget; the store enforces it at
    // its first sweep.
    let budget = 4 * tfsn_core::compat::estimated_row_bytes(NODES);
    let engine = Engine::with_options(
        base_deployment(),
        options(StorePolicy {
            mode: tfsn_engine::ServingMode::Matrix,
            memory_budget: Some(budget),
        }),
    );
    let kind = CompatibilityKind::Spo;
    engine.warm(&[kind]);
    assert_eq!(engine.store().resident_row_count(), NODES);
    assert!(engine.store().resident_bytes() > budget);
    let report = engine
        .mutate(&EdgeMutation::SetSign {
            u: NodeId::new(1),
            v: NodeId::new(2),
            sign: Sign::Negative,
        })
        .unwrap();
    assert_eq!(report.kinds_downgraded, vec![kind]);
    let resident = engine.store().resident_row_count();
    assert!(resident <= 4, "the budget holds at most 4 rows: {resident}");
    assert!(engine.store().resident_bytes() <= budget);
    assert_eq!(
        report.rows_invalidated + engine.store().row_eviction_count() + resident,
        NODES,
        "every row is kept, invalidated or evicted"
    );
    // Answers still match a freshly filled engine on the mutated graph.
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::materialized()),
    );
    for task in [[0usize, 1], [2, 4]] {
        let q = TeamQuery::new(task).with_kind(kind);
        assert_eq!(canonical(engine.query(&q)), canonical(reference.query(&q)));
    }
}

#[test]
fn noop_sign_set_applies_without_invalidating() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
    engine.warm(&[CompatibilityKind::Spo]);
    let fetched = engine.store().fetch(CompatibilityKind::Spo);
    let scope = fetched.scope();
    for u in 0..NODES {
        scope
            .compat()
            .compatible(NodeId::new(u), NodeId::new((u + 1) % NODES));
    }
    let resident = engine.store().resident_row_count();
    let report = engine
        .mutate(&EdgeMutation::SetSign {
            u: NodeId::new(1),
            v: NodeId::new(2),
            sign: Sign::Positive, // already positive in the fixture
        })
        .unwrap();
    assert!(matches!(report.effect.change, EdgeChange::Unchanged(_)));
    assert!(!report.effect.changed());
    assert_eq!(report.rows_invalidated, 0);
    assert_eq!(engine.store().resident_row_count(), resident);
    let m = engine.metrics();
    assert_eq!((m.mutations_applied, m.rows_invalidated), (1, 0));
}

#[test]
fn removing_the_last_edge_isolates_a_node_and_queries_survive() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
    // (NODES-2, NODES-1) is the detached pair's only edge.
    let report = engine
        .mutate(&EdgeMutation::Remove {
            u: NodeId::new(NODES - 2),
            v: NodeId::new(NODES - 1),
        })
        .unwrap();
    assert!(report.effect.changed());
    let live = engine.graph();
    assert_eq!(live.degree(NodeId::new(NODES - 1)), 0);
    assert_eq!(live.node_count(), NODES, "isolated nodes stay addressable");
    // Every kind still answers, identically to a rebuild.
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::rows(None)),
    );
    for &kind in &CompatibilityKind::ALL {
        let q = TeamQuery::new([0, 3]).with_kind(kind);
        assert_eq!(canonical(engine.query(&q)), canonical(reference.query(&q)));
    }
}

#[test]
fn concurrent_readers_see_consistent_snapshots() {
    let engine = Arc::new(Engine::with_options(
        base_deployment(),
        options(StorePolicy::rows(Some(
            6 * tfsn_core::compat::estimated_row_bytes(NODES),
        ))),
    ));
    engine.warm(&[CompatibilityKind::Spo, CompatibilityKind::Nne]);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..4 {
            let engine = engine.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let kind = if t % 2 == 0 {
                        CompatibilityKind::Spo
                    } else {
                        CompatibilityKind::Nne
                    };
                    let q = TeamQuery::new([i % 6, (i + t) % 6]).with_kind(kind);
                    let a = engine.query(&q);
                    assert_eq!(a.cardinality, a.members.len());
                    i += 1;
                }
            });
        }
        // Mutations race the readers: flip, remove, re-insert.
        for round in 0..30 {
            let sign = if round % 2 == 0 {
                Sign::Negative
            } else {
                Sign::Positive
            };
            engine
                .mutate(&EdgeMutation::SetSign {
                    u: NodeId::new(1),
                    v: NodeId::new(2),
                    sign,
                })
                .unwrap();
            if round % 3 == 0 {
                let _ = engine.mutate(&EdgeMutation::Remove {
                    u: NodeId::new(4),
                    v: NodeId::new(5),
                });
            } else if round % 3 == 1 {
                let _ = engine.mutate(&EdgeMutation::Insert {
                    u: NodeId::new(4),
                    v: NodeId::new(5),
                    sign,
                });
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    // Quiesced: the live engine agrees with a from-scratch rebuild.
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(*engine.store().policy()),
    );
    for &kind in &[CompatibilityKind::Spo, CompatibilityKind::Nne] {
        for task in [[0usize, 1], [2, 3], [4, 5]] {
            let q = TeamQuery::new(task).with_kind(kind);
            assert_eq!(
                canonical(engine.query(&q)),
                canonical(reference.query(&q)),
                "{kind} diverged after the concurrent storm"
            );
        }
    }
    assert_eq!(engine.metrics().mutations_applied, 30 + 20);
}

// ---------------------------------------------------------------------------
// Service-level typed errors and the never-force-a-load rule.
// ---------------------------------------------------------------------------

fn mutation_service() -> Service {
    let registry = DeploymentRegistry::new(vec![
        DeploymentConfig::new("live", DeploymentSource::Prebuilt(base_deployment())),
        DeploymentConfig::new(
            "cold",
            DeploymentSource::parse("synthetic:nodes=50,edges=150,skills=8,seed=3").unwrap(),
        ),
    ])
    .unwrap();
    Service::new(registry)
}

#[test]
fn service_mutations_map_graph_errors_to_bad_request() {
    let service = mutation_service();
    // Load the default deployment so mutations are admissible at all.
    service.engine(Some("live")).unwrap();
    // Unknown node: typed bad_request naming the bound.
    let response = service.handle(&Request::new(RequestBody::EdgeInsert {
        u: 0,
        v: 9999,
        sign: Sign::Positive,
    }));
    match response.error() {
        Some(ServiceError::BadRequest { detail }) => {
            assert!(detail.contains("9999"), "got: {detail}")
        }
        other => panic!("unexpected {other:?}"),
    }
    // A self-referenced pair is rejected before touching anything.
    let response = service.handle(&Request::new(RequestBody::EdgeSetSign {
        u: 7,
        v: 7,
        sign: Sign::Negative,
    }));
    match response.error() {
        Some(ServiceError::BadRequest { detail }) => {
            assert!(detail.contains("self-loop"), "got: {detail}")
        }
        other => panic!("unexpected {other:?}"),
    }
    // Removing a missing edge is typed too.
    let response = service.handle(&Request::new(RequestBody::EdgeRemove {
        u: 0,
        v: NODES - 1,
    }));
    match response.error() {
        Some(ServiceError::BadRequest { detail }) => {
            assert!(detail.contains("does not exist"), "got: {detail}")
        }
        other => panic!("unexpected {other:?}"),
    }
    // A valid mutation answers with the typed acknowledgement.
    let response = service.handle(&Request::new(RequestBody::EdgeSetSign {
        u: 1,
        v: 2,
        sign: Sign::Negative,
    }));
    match response {
        Response::Mutated {
            deployment,
            mutation,
            changed,
            edges,
            ..
        } => {
            assert_eq!(deployment, "live");
            assert_eq!(mutation, "edge_set_sign");
            assert!(changed);
            assert!(edges > 0);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn mutating_a_never_loaded_deployment_does_not_force_a_load() {
    let service = mutation_service();
    let response = service.handle(
        &Request::new(RequestBody::EdgeInsert {
            u: 0,
            v: 1,
            sign: Sign::Positive,
        })
        .on("cold"),
    );
    match response.error() {
        Some(ServiceError::BadRequest { detail }) => {
            assert!(detail.contains("not loaded"), "got: {detail}")
        }
        other => panic!("unexpected {other:?}"),
    }
    let infos = service.registry().infos();
    assert!(
        infos.iter().all(|i| !i.loaded),
        "the mutation must not have loaded anything: {infos:?}"
    );
    // Unknown deployments still map to the 404-shaped typed error.
    let response = service.handle(&Request::new(RequestBody::EdgeRemove { u: 0, v: 1 }).on("prod"));
    assert!(matches!(
        response.error(),
        Some(ServiceError::UnknownDeployment { .. })
    ));
}
