//! The differential repair harness: incremental row repair
//! (`tfsn_core::compat::repair`) and batched mutation invalidation
//! (`RelationStore::mutate_batch`) are pinned against scratch recomputes.
//!
//! Two acceptance properties, each across every compatibility kind and
//! both serving plans (filled and on-demand stores):
//!
//! * **rows**: after an arbitrary mutation batch, every row the store
//!   serves — repaired in place, kept by a no-op proof, or recomputed on
//!   fetch — compares equal (bitset words *and* packed distance lane) to
//!   the same row built from scratch on the mutated edge list;
//! * **fold**: `mutate_batch(ms)` is observably equivalent to folding
//!   `mutate` over `ms` one at a time — same per-mutation outcomes, same
//!   final graph, byte-identical canonicalized answers — while never
//!   invalidating *more* rows than the sequential fold.
//!
//! Batches mix random mutations with flips, removals and remove/re-insert
//! round trips of edges the fixture really has.
//!
//! Case count is 24 by default; the nightly CI job raises it through the
//! `TFSN_PROPTEST_CASES` environment variable.

use proptest::prelude::*;
use signed_graph::{EdgeMutation, GraphBuilder, NodeId, Sign};
use tfsn_core::compat::{Compatibility, CompatibilityKind};
use tfsn_engine::{Deployment, Engine, EngineOptions, StorePolicy, TeamQuery};

const NODES: usize = 22;

/// Proptest case count, overridable for the nightly deep run.
fn cases() -> u32 {
    std::env::var("TFSN_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// The mutation fixture: a signed ring with chords plus a detached
/// positive pair, so batches hit both on-DAG and provably-unaffected rows.
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
    Deployment::new("repair-fixture", graph, universe, assignment).unwrap()
}

/// A deployment rebuilt from the engine's *current* edge list — the
/// from-scratch reference every comparison runs against.
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

fn graph_bytes(engine: &Engine) -> String {
    format!("{:?}", engine.graph().edges())
}

fn canonical(mut answer: tfsn_engine::TeamAnswer) -> String {
    answer.strip_timing();
    answer.cache_hit = false;
    serde_json::to_string(&answer).unwrap()
}

/// Forces every row of every kind resident (filled stores already are), so
/// the subsequent batch mutates live state rather than cold shards.
fn resident_sweep(engine: &Engine, kinds: &[CompatibilityKind]) {
    for &kind in kinds {
        let fetched = engine.store().fetch(kind);
        let scope = fetched.scope();
        for u in 0..NODES {
            let _ = scope.compat().packed_row(NodeId::new(u));
        }
    }
}

fn mutation((sel, u, v, s): (usize, usize, usize, usize)) -> EdgeMutation {
    let sign = if s % 2 == 0 {
        Sign::Positive
    } else {
        Sign::Negative
    };
    // Occasionally out of range: a typed per-mutation rejection that must
    // not derail the rest of the batch.
    let (u, v) = (NodeId::new(u), NodeId::new(v % NODES));
    match sel % 3 {
        0 => EdgeMutation::Insert { u, v, sign },
        1 => EdgeMutation::Remove { u, v },
        _ => EdgeMutation::SetSign { u, v, sign },
    }
}

/// The fixture's edges, for the arm that mutates edges that exist.
fn fixture_edges() -> Vec<(NodeId, NodeId, Sign)> {
    base_deployment()
        .graph()
        .edges()
        .iter()
        .map(|e| (e.u, e.v, e.sign))
        .collect()
}

/// One existing fixture edge (picked modulo the edge count) flipped,
/// removed, or removed and re-inserted with its sign. Random endpoints name
/// an existing edge about 1 draw in 9, so without this arm real sign flips
/// would be rare.
fn edge_mutations(
    edges: &[(NodeId, NodeId, Sign)],
    (pick, op): (usize, usize),
) -> Vec<EdgeMutation> {
    let (u, v, sign) = edges[pick % edges.len()];
    match op % 3 {
        0 => vec![EdgeMutation::SetSign {
            u,
            v,
            sign: sign.flip(),
        }],
        1 => vec![EdgeMutation::Remove { u, v }],
        _ => vec![
            EdgeMutation::Remove { u, v },
            EdgeMutation::Insert { u, v, sign },
        ],
    }
}

/// Batches mixing random mutations with mutations of existing edges.
fn mutations_strategy() -> impl Strategy<Value = Vec<EdgeMutation>> {
    let edges = fixture_edges();
    prop::collection::vec(
        (
            0usize..2,
            (0usize..3, 0usize..NODES + 2, 0usize..NODES, 0usize..2),
            (0usize..64, 0usize..3),
        )
            .prop_map(move |(arm, random, existing)| match arm {
                0 => vec![mutation(random)],
                _ => edge_mutations(&edges, existing),
            }),
        1..10,
    )
    .prop_map(|groups| groups.concat())
}

/// Property one: every row the engine serves after a batch equals its
/// scratch recompute — the repaired-in-place rows are the interesting
/// cases, but the comparison sweeps all of them.
fn check_rows_match_scratch(policy: StorePolicy, mutations: &[EdgeMutation]) {
    let engine = Engine::with_options(base_deployment(), options(policy));
    resident_sweep(&engine, &CompatibilityKind::ALL);
    let report = engine.mutate_batch(mutations).expect("no WAL is attached");
    prop_assert_eq!(report.outcomes.len(), mutations.len());
    // Two scratch references: filled rows carry the symmetric closure and
    // are exact, while rows computed on demand (every row of a row-mode
    // store, and every SBPH/SBP row a sweep dropped from a filled one) are
    // per-source lower bounds that legitimately differ from closed SBPH/SBP
    // rows. Each row compares against the reference of its own exactness.
    let on_demand = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::rows(None)),
    );
    let filled = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::materialized()),
    );
    for kind in CompatibilityKind::ALL {
        let (live, on_demand, filled) = (
            engine.store().fetch(kind),
            on_demand.store().fetch(kind),
            filled.store().fetch(kind),
        );
        let (live, on_demand, filled) = (live.scope(), on_demand.scope(), filled.scope());
        for u in (0..NODES).map(NodeId::new) {
            let l = live.packed_row(u).expect("in range");
            let reference = if l.exact() { &filled } else { &on_demand };
            let r = reference.packed_row(u).expect("in range");
            prop_assert_eq!(
                l.row(),
                r.row(),
                "{} row {} diverged after {:?}",
                kind,
                u,
                mutations
            );
        }
    }
}

/// Property two: the batch is the sequential fold — same outcomes, same
/// graph, same answers, no extra invalidation.
fn check_batch_equals_fold(policy: StorePolicy, mutations: &[EdgeMutation]) {
    let batched = Engine::with_options(base_deployment(), options(policy));
    let folded = Engine::with_options(base_deployment(), options(*batched.store().policy()));
    resident_sweep(&batched, &CompatibilityKind::ALL);
    resident_sweep(&folded, &CompatibilityKind::ALL);
    let report = batched.mutate_batch(mutations).expect("no WAL is attached");
    let mut fold_outcomes = Vec::new();
    let mut fold_invalidated = 0usize;
    for m in mutations {
        match folded.mutate(m) {
            Ok(r) => {
                fold_invalidated += r.rows_invalidated;
                fold_outcomes.push(Ok(r.effect));
            }
            Err(tfsn_engine::MutateError::Graph(e)) => fold_outcomes.push(Err(e)),
            Err(e) => panic!("WAL-less engines only fail validation: {e:?}"),
        }
    }
    prop_assert_eq!(
        format!("{:?}", report.outcomes),
        format!("{fold_outcomes:?}"),
        "per-mutation outcomes must match the sequential fold"
    );
    prop_assert_eq!(graph_bytes(&batched), graph_bytes(&folded));
    prop_assert!(
        report.rows_invalidated <= fold_invalidated,
        "one merged sweep must not invalidate more than {fold_invalidated} \
         sequential sweeps did (got {})",
        report.rows_invalidated
    );
    for (i, &kind) in CompatibilityKind::ALL.iter().enumerate() {
        let q = TeamQuery::new([i % 6, (i + 2) % 6])
            .with_id(i as u64)
            .with_kind(kind);
        prop_assert_eq!(
            canonical(batched.query(&q)),
            canonical(folded.query(&q)),
            "answers diverged for {} after {:?}",
            kind,
            mutations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn repaired_rows_match_scratch_in_row_mode(mutations in mutations_strategy()) {
        check_rows_match_scratch(StorePolicy::rows(None), &mutations);
    }

    #[test]
    fn repaired_rows_match_scratch_in_matrix_mode(mutations in mutations_strategy()) {
        check_rows_match_scratch(StorePolicy::materialized(), &mutations);
    }

    #[test]
    fn repaired_rows_match_scratch_under_a_row_budget(mutations in mutations_strategy()) {
        let budget = 8 * tfsn_core::compat::estimated_row_bytes(NODES);
        check_rows_match_scratch(StorePolicy::rows(Some(budget)), &mutations);
    }

    #[test]
    fn mutate_batch_equals_sequential_fold_in_row_mode(mutations in mutations_strategy()) {
        check_batch_equals_fold(StorePolicy::rows(None), &mutations);
    }

    #[test]
    fn mutate_batch_equals_sequential_fold_in_matrix_mode(mutations in mutations_strategy()) {
        check_batch_equals_fold(StorePolicy::materialized(), &mutations);
    }
}

/// Sign flips on NNE-resident rows patch in place: no invalidation, no
/// rebuild on the next sweep, and the patched rows equal scratch rows.
#[test]
fn sign_flip_batches_repair_nne_rows_without_rebuilds() {
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
    resident_sweep(&engine, &[CompatibilityKind::Nne]);
    let builds = engine.store().row_build_count();
    assert_eq!(builds, NODES);
    let flips: Vec<EdgeMutation> = engine
        .graph()
        .edges()
        .iter()
        .take(4)
        .map(|e| EdgeMutation::SetSign {
            u: e.u,
            v: e.v,
            sign: e.sign.flip(),
        })
        .collect();
    let report = engine.mutate_batch(&flips).expect("no WAL is attached");
    assert_eq!(report.applied(), flips.len());
    assert_eq!(
        report.rows_invalidated, 0,
        "NNE sign flips always repair in place"
    );
    assert!(report.rows_repaired > 0, "endpoint rows must be patched");
    assert_eq!(engine.store().rows_repaired_count(), report.rows_repaired);
    resident_sweep(&engine, &[CompatibilityKind::Nne]);
    assert_eq!(
        engine.store().row_build_count(),
        builds,
        "repaired rows must not rebuild"
    );
    // The patched rows are exact.
    let reference = Engine::with_options(
        rebuild_deployment(&engine),
        options(StorePolicy::rows(None)),
    );
    let live = engine.store().fetch(CompatibilityKind::Nne);
    let fresh = reference.store().fetch(CompatibilityKind::Nne);
    for u in 0..NODES {
        assert_eq!(
            live.scope()
                .compat()
                .packed_row(NodeId::new(u))
                .map(|h| h.row().clone()),
            fresh
                .scope()
                .compat()
                .packed_row(NodeId::new(u))
                .map(|h| h.row().clone()),
            "row {u}"
        );
    }
}

/// Sign flips on SPA/SPO-resident rows re-derive the flipped nodes' sign
/// classes in place, filled or not: no invalidation, no rebuild on the next
/// sweep, and every row equal to its scratch rebuild.
#[test]
fn sign_flip_batches_repair_sp_rows_without_rebuilds() {
    let kinds = [CompatibilityKind::Spa, CompatibilityKind::Spo];
    for policy in [StorePolicy::rows(None), StorePolicy::materialized()] {
        let engine = Engine::with_options(base_deployment(), options(policy));
        resident_sweep(&engine, &kinds);
        let builds = engine.store().row_build_count();
        let flips: Vec<EdgeMutation> = engine
            .graph()
            .edges()
            .iter()
            .step_by(5)
            .map(|e| EdgeMutation::SetSign {
                u: e.u,
                v: e.v,
                sign: e.sign.flip(),
            })
            .collect();
        assert!(flips.len() >= 4);
        let report = engine.mutate_batch(&flips).expect("no WAL is attached");
        assert_eq!(report.applied(), flips.len());
        assert_eq!(
            report.rows_invalidated, 0,
            "{policy:?}: SPA/SPO sign flips repair in place"
        );
        assert!(
            report.rows_repaired > 0,
            "{policy:?}: flips must be repaired"
        );
        resident_sweep(&engine, &kinds);
        assert_eq!(
            engine.store().row_build_count(),
            builds,
            "{policy:?}: repaired rows must not rebuild"
        );
        let reference = Engine::with_options(
            rebuild_deployment(&engine),
            options(StorePolicy::rows(None)),
        );
        for kind in kinds {
            let live = engine.store().fetch(kind);
            let fresh = reference.store().fetch(kind);
            for u in 0..NODES {
                assert_eq!(
                    live.scope()
                        .compat()
                        .packed_row(NodeId::new(u))
                        .map(|h| h.row().clone()),
                    fresh
                        .scope()
                        .compat()
                        .packed_row(NodeId::new(u))
                        .map(|h| h.row().clone()),
                    "{policy:?}: {kind} row {u}"
                );
            }
        }
    }
}

/// A batch that removes edges and re-inserts them with their signs nets out
/// to nothing: no kind invalidates a row (SBPH/SBP included), a filled
/// store keeps every row and its closure, and the CSR still equals a
/// rebuild of the new graph.
#[test]
fn remove_and_reinsert_batches_net_out_to_nothing() {
    let round_trips: Vec<EdgeMutation> = fixture_edges()
        .into_iter()
        .step_by(4)
        .flat_map(|(u, v, sign)| {
            [
                EdgeMutation::Remove { u, v },
                EdgeMutation::Insert { u, v, sign },
            ]
        })
        .collect();
    let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
    resident_sweep(&engine, &CompatibilityKind::ALL);
    let builds = engine.store().row_build_count();
    let report = engine
        .mutate_batch(&round_trips)
        .expect("no WAL is attached");
    assert_eq!(report.changed(), round_trips.len());
    assert_eq!(report.rows_invalidated, 0);
    assert_eq!(report.rows_repaired, 0);
    assert_eq!(engine.store().graph_version(), round_trips.len());
    resident_sweep(&engine, &CompatibilityKind::ALL);
    assert_eq!(
        engine.store().row_build_count(),
        builds,
        "no resident row of any kind may rebuild"
    );
    assert_eq!(
        engine.store().csr().as_deref(),
        Some(&signed_graph::csr::CsrGraph::from_graph(&engine.graph()))
    );

    let engine = Engine::with_options(base_deployment(), options(StorePolicy::materialized()));
    engine.warm(&CompatibilityKind::ALL);
    let report = engine
        .mutate_batch(&round_trips)
        .expect("no WAL is attached");
    assert_eq!(report.rows_invalidated, 0);
    assert_eq!(report.kinds_downgraded, vec![]);
    resident_sweep(&engine, &CompatibilityKind::ALL);
    assert_eq!(
        engine.store().row_build_count(),
        0,
        "a net-empty batch must keep every filled row"
    );
    for kind in [CompatibilityKind::Sbph, CompatibilityKind::Sbp] {
        let fetched = engine.store().fetch(kind);
        assert!(
            fetched.scope().packed_row(NodeId::new(0)).unwrap().exact(),
            "{kind}: a net-empty batch must keep the fill's closure"
        );
    }
}

/// Regression pin for the hoisted no-op check, on the deployments where it
/// matters most: SBPH/SBP rows have **no** repair path, so a sign-set that
/// changes nothing must short-circuit before the per-kind sweep ever runs —
/// single mutations and all-no-op batches alike. In matrix mode the same
/// short-circuit must also keep every filled row and the row table.
#[test]
fn noop_sign_sets_never_touch_sbph_or_sbp_residents() {
    for kind in [CompatibilityKind::Sbph, CompatibilityKind::Sbp] {
        let engine = Engine::with_options(base_deployment(), options(StorePolicy::rows(None)));
        resident_sweep(&engine, &[kind]);
        let builds = engine.store().row_build_count();
        let noops: Vec<EdgeMutation> = engine
            .graph()
            .edges()
            .iter()
            .take(3)
            .map(|e| EdgeMutation::SetSign {
                u: e.u,
                v: e.v,
                sign: e.sign, // already this sign: a provable no-op
            })
            .collect();
        // Single no-op through `mutate`.
        let report = engine.mutate(&noops[0]).expect("edge exists");
        assert!(!report.effect.changed());
        assert_eq!(report.rows_invalidated, 0, "{kind}: no-op must not sweep");
        assert_eq!(report.kinds_downgraded, vec![]);
        // All-no-op batch through `mutate_batch`.
        let report = engine.mutate_batch(&noops).expect("no WAL is attached");
        assert_eq!(report.applied(), noops.len());
        assert_eq!(report.changed(), 0);
        assert_eq!(
            report.rows_invalidated, 0,
            "{kind}: no-op batch must not sweep"
        );
        assert_eq!(report.rows_repaired, 0);
        resident_sweep(&engine, &[kind]);
        assert_eq!(
            engine.store().row_build_count(),
            builds,
            "{kind}: resident rows must survive no-ops untouched"
        );

        // Matrix mode: the no-op must not withdraw the filled row table.
        let engine = Engine::with_options(base_deployment(), options(StorePolicy::materialized()));
        engine.warm(&[kind]);
        assert_eq!(engine.store().build_count(), 1);
        let report = engine.mutate_batch(&noops).expect("no WAL is attached");
        assert_eq!(report.rows_invalidated, 0);
        assert_eq!(report.kinds_downgraded, vec![]);
        resident_sweep(&engine, &[kind]);
        assert_eq!(
            engine.store().row_build_count(),
            0,
            "{kind}: an all-no-op batch must keep every filled row"
        );
    }
}
