//! Integration tests for the tiered relation store: exact hit/miss
//! accounting under concurrent cold batches (the misattribution regression),
//! row-mode vs matrix-mode answer equivalence, and serving a graph whose
//! full `O(|V|²)` matrix would blow the memory budget.

use signed_graph::csr::CsrGraph;
use tfsn_core::compat::{
    compute_row, estimated_matrix_bytes, estimated_row_bytes, row_bytes, CompatibilityKind,
    EngineConfig,
};
use tfsn_core::team::greedy::GreedyConfig;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::Solver;
use tfsn_datasets::{synthetic, DatasetSpec};
use tfsn_engine::registry::DeploymentSource;
use tfsn_engine::{
    AnswerStatus, BatchOptions, Deployment, Engine, EngineOptions, StorePolicy, TeamAnswer,
    TeamQuery, TierChoice,
};
use tfsn_skills::SkillId;

fn engine_with(policy: StorePolicy) -> Engine {
    Engine::with_options(
        Deployment::from_dataset(tfsn_datasets::slashdot()),
        EngineOptions {
            policy,
            ..Default::default()
        },
    )
}

fn normalized(mut answers: Vec<TeamAnswer>) -> Vec<TeamAnswer> {
    for a in &mut answers {
        a.micros = 0;
        a.build_micros = 0;
        a.cache_hit = false;
    }
    answers
}

/// Regression test for the cache-hit misattribution bug: `Engine::query`
/// used to read `is_cached` *before* the build, so N parallel queries
/// racing on one cold kind all recorded misses even though exactly one
/// build ran, and `cache_misses` could exceed the build count. Now a miss
/// is recorded iff the query performed the build itself.
#[test]
fn concurrent_cold_batch_records_misses_equal_to_build_events() {
    let engine = engine_with(StorePolicy::materialized());
    let queries: Vec<TeamQuery> = (0..64)
        .map(|i| {
            TeamQuery::new([i % 5])
                .with_id(i as u64)
                .with_kind(CompatibilityKind::Spa)
        })
        .collect();
    let answers = engine.batch(&queries, &BatchOptions::with_threads(8));
    let m = engine.metrics();
    assert_eq!(m.queries_served, 64);
    assert_eq!(engine.store().build_count(), 1);
    assert_eq!(
        m.cache_misses, 1,
        "exactly the build event is a miss; blocked waiters are hits"
    );
    assert_eq!(m.cache_hits, 63);
    assert_eq!(m.matrix_builds, 1);
    assert_eq!(
        answers.iter().filter(|a| !a.cache_hit).count(),
        1,
        "exactly one answer carries the miss"
    );
}

/// The same invariant in row mode: misses equal the number of queries that
/// computed at least one row themselves, and hits + misses cover the batch.
#[test]
fn row_mode_cold_batch_accounting_is_consistent() {
    let engine = engine_with(StorePolicy::rows(None));
    let queries: Vec<TeamQuery> = (0..32)
        .map(|i| {
            TeamQuery::new([i % 5, (i * 3 + 1) % 5])
                .with_id(i as u64)
                .with_kind(CompatibilityKind::Spo)
        })
        .collect();
    engine.batch(&queries, &BatchOptions::with_threads(8));
    let m = engine.metrics();
    assert_eq!(m.matrix_builds, 0, "row mode must not materialise");
    assert!(m.row_builds > 0);
    assert_eq!(m.cache_hits + m.cache_misses, 32);
    assert!(
        m.cache_misses <= m.row_builds,
        "a miss implies at least one row build: {m:?}"
    );
    // A second identical batch is fully warm (no eviction pressure).
    engine.batch(&queries, &BatchOptions::with_threads(8));
    let m2 = engine.metrics();
    assert_eq!(m2.row_builds, m.row_builds, "warm batch builds nothing");
    assert_eq!(m2.cache_hits, m.cache_hits + 32);
}

/// Row mode (even under heavy eviction pressure) must answer exactly like
/// the materialised matrix on a graph small enough to run both.
#[test]
fn row_mode_answers_match_matrix_mode_under_eviction_pressure() {
    let kinds = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spo,
        CompatibilityKind::Nne,
        CompatibilityKind::Sbph, // asymmetric: exercises the symmetric closure
    ];
    let queries: Vec<TeamQuery> = (0..40)
        .map(|i| {
            TeamQuery::new([i % 9, (i * 3 + 1) % 9, (i * 7 + 2) % 9])
                .with_id(i as u64)
                .with_kind(kinds[i % kinds.len()])
                .with_solver(Solver::greedy(TeamAlgorithm::LCMD))
        })
        .collect();
    let matrix_engine = engine_with(StorePolicy::materialized());
    let matrix_answers = normalized(matrix_engine.batch(&queries, &BatchOptions::default()));

    // ~3 KiB budget: a few rows resident at a time, constant eviction.
    let rows_engine = engine_with(StorePolicy::rows(Some(3 << 10)));
    let rows_answers = normalized(rows_engine.batch(&queries, &BatchOptions::default()));
    assert_eq!(matrix_answers, rows_answers);
    let m = rows_engine.metrics();
    assert!(
        m.row_evictions > 0,
        "the tiny budget must have caused evictions: {m:?}"
    );
    let budget_total = 4 * (3 << 10); // one 3 KiB cap per touched kind
    assert!(m.resident_bytes <= budget_total as u64);
}

/// Acceptance scenario: a 50k-node synthetic graph whose full matrix
/// (~1.75 GiB even bit-packed) can never be materialised under the budget is
/// served in row mode under a 1 MiB per-kind budget, with evictions
/// observed in the metrics.
#[test]
fn serves_50k_nodes_under_memory_budget_with_evictions() {
    let users = 50_000;
    let spec = DatasetSpec {
        name: format!("synthetic-{users}n"),
        users,
        edges: users * 5,
        negative_fraction: 0.2,
        diameter: 0,
        skills: 2_000,
        skills_per_user: 3.0,
        zipf_exponent: 1.0,
        locality: 0.8,
        preferential: 0.3,
        balance_bias: 0.8,
        camps: 4,
        seed: 1718,
    };
    let dataset = synthetic::generate(&spec, 1.0);
    assert_eq!(dataset.graph.node_count(), users);

    // 1 MiB: fits 27 bit-packed rows of 50k nodes (the unpacked layout fit
    // 2), still nowhere near 50k of them.
    let budget = 1 << 20;
    assert!(estimated_matrix_bytes(users) > budget * 1_000);

    // Tasks over rare skills keep the candidate pools (and test runtime)
    // small while still touching well over the budget's worth of rows.
    let rare: Vec<usize> = (0..dataset.skills.skill_count())
        .filter(|&s| {
            let holders = dataset.skills.users_with_skill(SkillId::new(s)).len();
            (1..=6).contains(&holders)
        })
        .take(12)
        .collect();
    assert!(rare.len() >= 4, "generator produced too few rare skills");
    let solver = Solver::Greedy {
        algorithm: TeamAlgorithm::LCMD,
        config: GreedyConfig {
            max_seeds: Some(3),
            skill_degree_cap: Some(12),
            random_seed: 7,
        },
    };
    let queries: Vec<TeamQuery> = rare
        .chunks(2)
        .enumerate()
        .map(|(i, skills)| TeamQuery {
            id: Some(i as u64),
            task: skills.to_vec(),
            kind: CompatibilityKind::Spo,
            solver: solver.clone(),
            objective: None,
        })
        .collect();

    let engine = Engine::with_options(
        Deployment::from_dataset(dataset),
        EngineOptions {
            policy: StorePolicy::auto(budget),
            ..Default::default()
        },
    );
    assert_eq!(engine.store().tier(), TierChoice::Rows);
    let answers = engine.batch(&queries, &BatchOptions::with_threads(2));
    assert_eq!(answers.len(), queries.len());
    assert!(
        answers
            .iter()
            .any(|a| matches!(a.status, AnswerStatus::Ok | AnswerStatus::NoTeam)),
        "degenerate workload: {answers:?}"
    );

    let m = engine.metrics();
    assert_eq!(m.matrix_builds, 0, "the matrix tier must never engage");
    assert!(m.row_builds >= 3, "expected several on-demand rows: {m:?}");
    assert!(
        m.row_evictions > 0,
        "a 27-row budget must evict under this workload: {m:?}"
    );
    assert!(
        m.resident_bytes <= budget as u64,
        "budget invariant violated: {m:?}"
    );
    let capacity = budget / tfsn_core::compat::estimated_row_bytes(users);
    assert!(
        capacity >= 8,
        "bit-packing must fit >=4x the unpacked layout's 2 rows per MiB, got {capacity}"
    );
    assert!(
        m.resident_rows as usize <= capacity,
        "resident rows exceed the budget's capacity: {m:?}"
    );
}

/// The lane width rule on the emulated datasets, whose diameters are 4–12
/// (`slashdot` nearest the 4-bit limit of 13). Every row of the kinds whose
/// distance is the BFS level packs 4-bit distance codes with an empty side
/// table, so each is exactly the kind-free estimate. SBPH distances are
/// balanced-path lengths, which can run past the diameter: two `slashdot`
/// SBPH rows keep one side entry each, and still pack 4-bit codes.
#[test]
fn emulated_deployment_rows_pack_four_bit_codes() {
    let cfg = EngineConfig::default();
    for spec in ["slashdot", "epinions:0.05", "epinions:0.1", "wikipedia:0.1"] {
        let deployment = DeploymentSource::parse(spec).unwrap().load();
        let graph = deployment.graph();
        let csr = CsrGraph::from_graph(graph);
        for kind in [
            CompatibilityKind::Dpe,
            CompatibilityKind::Spa,
            CompatibilityKind::Spm,
            CompatibilityKind::Spo,
            CompatibilityKind::Nne,
        ] {
            for source in graph.nodes() {
                let row = compute_row(graph, &csr, source, kind, &cfg);
                assert_eq!(
                    (row.code_bits(), row.side_table_len()),
                    (4, 0),
                    "{spec}: {kind} row {source}"
                );
                assert_eq!(row_bytes(&row), estimated_row_bytes(graph.node_count()));
            }
        }
    }
    let deployment = DeploymentSource::Slashdot.load();
    let graph = deployment.graph();
    let csr = CsrGraph::from_graph(graph);
    let side: usize = graph
        .nodes()
        .map(|source| compute_row(graph, &csr, source, CompatibilityKind::Sbph, &cfg))
        .inspect(|row| assert_eq!(row.code_bits(), 4, "SBPH row {}", row.source()))
        .map(|row| row.side_table_len())
        .sum();
    assert_eq!(side, 2);
}
