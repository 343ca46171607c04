//! Property-based tests for the TFSN core library: the compatibility axioms
//! of paper §2, the containment lattice of Proposition 3.5, and the validity
//! of every team the solvers return.

use proptest::prelude::*;
use signed_graph::builder::from_edge_triples;
use signed_graph::generators::{social_network, SocialNetworkConfig};
use signed_graph::{NodeId, Sign, SignedGraph};
use tfsn_core::compat::{Compatibility, CompatibilityKind, CompatibilityMatrix, EngineConfig};
use tfsn_core::team::baseline::rarest_first;
use tfsn_core::team::exhaustive::solve_exhaustive;
use tfsn_core::team::greedy::{solve_greedy, GreedyConfig};
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::{Team, TfsnInstance};
use tfsn_core::TfsnError;
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::task::Task;
use tfsn_skills::SkillId;

/// A random small connected signed graph.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (6usize..25, 0usize..40, 0u64..5000, 0u32..50).prop_map(|(n, extra, seed, negp)| {
        social_network(&SocialNetworkConfig {
            nodes: n,
            edges: n - 1 + extra,
            negative_fraction: f64::from(negp) / 100.0,
            seed,
            ..Default::default()
        })
    })
}

/// Whether the exact SBP search completes within its state budget on every
/// source of `g`. When it does not, SBP under-approximates the true relation
/// and the SBPH ⊆ SBP containment (and the derived pair-fraction ordering)
/// legitimately need not hold, so those assertions are skipped.
fn sbp_search_complete(g: &SignedGraph, cfg: &EngineConfig) -> bool {
    !g.nodes().any(|s| {
        tfsn_core::compat::sbp::sbp_source_with_stats(g, s, None, cfg.sbp_max_states)
            .1
            .budget_exhausted
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paper §2: reflexivity, symmetry, positive-edge compatibility and
    /// negative-edge incompatibility hold for every relation.
    #[test]
    fn compatibility_axioms(g in arb_graph()) {
        for kind in CompatibilityKind::ALL {
            let m = CompatibilityMatrix::build(&g, kind);
            for u in g.nodes() {
                prop_assert!(m.compatible(u, u));
                prop_assert_eq!(m.distance(u, u), Some(0));
            }
            for e in g.edges() {
                match e.sign {
                    Sign::Positive => prop_assert!(m.compatible(e.u, e.v), "{} +edge", kind),
                    Sign::Negative => prop_assert!(!m.compatible(e.u, e.v), "{} -edge", kind),
                }
                prop_assert_eq!(m.compatible(e.u, e.v), m.compatible(e.v, e.u));
            }
        }
    }

    /// Proposition 3.5 (the part that holds unconditionally by construction):
    /// DPE ⊆ SPA ⊆ SPM ⊆ SPO and DPE ⊆ SBPH ⊆ SBP ⊆ NNE.
    #[test]
    fn containment_lattice(g in arb_graph()) {
        // Unbounded SBP search: a path-length bound could make the exact
        // relation miss long balanced paths that the (unbounded) heuristic
        // finds, which would spuriously break SBPH ⊆ SBP.
        let cfg = EngineConfig { sbp_max_path_len: None, ..Default::default() };
        let build = |k| CompatibilityMatrix::build_with_config(&g, k, &cfg);
        let dpe = build(CompatibilityKind::Dpe);
        let spa = build(CompatibilityKind::Spa);
        let spm = build(CompatibilityKind::Spm);
        let spo = build(CompatibilityKind::Spo);
        let sbph = build(CompatibilityKind::Sbph);
        let sbp = build(CompatibilityKind::Sbp);
        let nne = build(CompatibilityKind::Nne);
        // The other containments are structural and survive budget
        // truncation (a budgeted SBP pair still has a positive balanced
        // path, so SBP ⊆ NNE always); see sbp_search_complete for why
        // SBPH ⊆ SBP is conditional.
        let sbp_complete = sbp_search_complete(&g, &cfg);
        let mut chains: Vec<(&CompatibilityMatrix, &CompatibilityMatrix, &str)> = vec![
            (&dpe, &spa, "DPE ⊆ SPA"),
            (&spa, &spm, "SPA ⊆ SPM"),
            (&spm, &spo, "SPM ⊆ SPO"),
            (&dpe, &sbph, "DPE ⊆ SBPH"),
            (&sbp, &nne, "SBP ⊆ NNE"),
        ];
        if sbp_complete {
            chains.push((&sbph, &sbp, "SBPH ⊆ SBP"));
        }
        for u in g.nodes() {
            for v in g.nodes() {
                for (smaller, larger, label) in &chains {
                    if smaller.compatible(u, v) {
                        prop_assert!(larger.compatible(u, v), "{} violated at ({}, {})", label, u, v);
                    }
                }
            }
        }
    }

    /// The pair fraction is monotone along the relaxation order the paper
    /// reports in Table 2 (SPA ≤ SPM ≤ SPO and SBPH ≤ SBP ≤ NNE).
    #[test]
    fn pair_fraction_monotone(g in arb_graph()) {
        let cfg = EngineConfig { sbp_max_path_len: None, ..Default::default() };
        let frac = |k| CompatibilityMatrix::build_with_config(&g, k, &cfg).compatible_pair_fraction();
        let spa = frac(CompatibilityKind::Spa);
        let spm = frac(CompatibilityKind::Spm);
        let spo = frac(CompatibilityKind::Spo);
        let sbph = frac(CompatibilityKind::Sbph);
        let sbp = frac(CompatibilityKind::Sbp);
        let nne = frac(CompatibilityKind::Nne);
        prop_assert!(spa <= spm + 1e-12);
        prop_assert!(spm <= spo + 1e-12);
        // SBPH ≤ SBP only holds when the budgeted exact search completed
        // (see sbp_search_complete).
        if sbp_search_complete(&g, &cfg) {
            prop_assert!(sbph <= sbp + 1e-12);
        }
        prop_assert!(sbp <= nne + 1e-12);
    }

    /// Every team returned by the greedy solver covers the task and is
    /// pairwise compatible, for every algorithm and relation.
    #[test]
    fn greedy_teams_are_always_valid(
        g in arb_graph(),
        seed in 0u64..1000,
    ) {
        let users = g.node_count();
        let mut skills = SkillAssignment::new(5, users);
        // Deterministic spread of 5 skills across users.
        for u in 0..users {
            skills.grant(u, SkillId::new(u % 5));
            if u % 3 == 0 {
                skills.grant(u, SkillId::new((u + 2) % 5));
            }
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1), SkillId::new(2)]);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Spo, CompatibilityKind::Sbph, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            for alg in TeamAlgorithm::ALL {
                let cfg = GreedyConfig { random_seed: seed, ..Default::default() };
                match solve_greedy(&inst, &comp, &task, alg, &cfg) {
                    Ok(team) => {
                        prop_assert!(team.covers(&skills, &task), "{kind}/{alg}: missing skills");
                        prop_assert!(team.is_compatible(&comp), "{kind}/{alg}: incompatible pair");
                    }
                    Err(TfsnError::NoCompatibleTeam) => {}
                    Err(e) => prop_assert!(false, "{kind}/{alg}: unexpected error {e}"),
                }
            }
        }
    }

    /// On all-positive graphs every relation collapses to "connected ⇒
    /// compatible via SP", and the greedy solver must find a team whenever
    /// the unsigned RarestFirst baseline does.
    #[test]
    fn all_positive_graph_behaves_like_unsigned_team_formation(
        n in 6usize..20,
        extra in 0usize..30,
        seed in 0u64..1000,
    ) {
        let g = social_network(&SocialNetworkConfig {
            nodes: n,
            edges: n - 1 + extra,
            negative_fraction: 0.0,
            seed,
            ..Default::default()
        });
        let mut skills = SkillAssignment::new(4, n);
        for u in 0..n {
            skills.grant(u, SkillId::new(u % 4));
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1)]);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Spo, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let team = solve_greedy(&inst, &comp, &task, TeamAlgorithm::LCMD, &GreedyConfig::default());
            prop_assert!(team.is_ok(), "{kind}: greedy failed on an all-positive graph");
        }
        let baseline = rarest_first(&g, &skills, &task);
        prop_assert!(baseline.is_ok());
    }

    /// The exhaustive solver never reports a higher-cost team than greedy and
    /// never misses a team greedy finds.
    #[test]
    fn exhaustive_dominates_greedy(seed in 0u64..300) {
        let g = social_network(&SocialNetworkConfig {
            nodes: 10,
            edges: 18,
            negative_fraction: 0.3,
            seed,
            ..Default::default()
        });
        let mut skills = SkillAssignment::new(3, 10);
        for u in 0..10 {
            skills.grant(u, SkillId::new(u % 3));
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1), SkillId::new(2)]);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spo);
        let exact = solve_exhaustive(&inst, &comp, &task);
        let greedy = solve_greedy(&inst, &comp, &task, TeamAlgorithm::LCMD, &GreedyConfig::default());
        match (exact, greedy) {
            (Ok(e), Ok(h)) => {
                prop_assert!(e.diameter(&comp).unwrap_or(u32::MAX) <= h.diameter(&comp).unwrap_or(u32::MAX));
            }
            (Err(_), Ok(_)) => prop_assert!(false, "greedy found a team the exhaustive search missed"),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The Table 3 baseline on the sign-ignored transform returns teams that
    /// cover the task (compatibility is what it may violate — that is the
    /// paper's point).
    #[test]
    fn unsigned_baseline_covers_tasks(seed in 0u64..300) {
        let g = social_network(&SocialNetworkConfig {
            nodes: 30,
            edges: 80,
            negative_fraction: 0.25,
            seed,
            ..Default::default()
        });
        let mut skills = SkillAssignment::new(6, 30);
        for u in 0..30 {
            skills.grant(u, SkillId::new(u % 6));
        }
        let task = Task::new([SkillId::new(0), SkillId::new(3), SkillId::new(5)]);
        let unsigned = signed_graph::transform::to_unsigned(&g, signed_graph::transform::UnsignedTransform::IgnoreSigns);
        let team = rarest_first(&unsigned, &skills, &task).expect("connected all-positive graph");
        prop_assert!(team.covers(&skills, &task));
    }
}

/// Regression: Figure 1(a) of the paper as a fixed example.
#[test]
fn paper_figure_1a_example() {
    let g = from_edge_triples(vec![
        (0, 1, Sign::Negative),
        (1, 5, Sign::Positive),
        (0, 2, Sign::Positive),
        (2, 1, Sign::Positive),
        (2, 3, Sign::Positive),
        (3, 4, Sign::Positive),
        (4, 5, Sign::Positive),
    ]);
    let (u, v) = (NodeId::new(0), NodeId::new(5));
    for kind in [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
    ] {
        assert!(
            !CompatibilityMatrix::build(&g, kind).compatible(u, v),
            "{kind}"
        );
    }
    for kind in [
        CompatibilityKind::Sbp,
        CompatibilityKind::Sbph,
        CompatibilityKind::Nne,
    ] {
        assert!(
            CompatibilityMatrix::build(&g, kind).compatible(u, v),
            "{kind}"
        );
    }
}

// ---------------------------------------------------------------------------
// Bit-packed rows (CompatRow) vs the legacy unpacked representation.
// ---------------------------------------------------------------------------

/// The pre-bit-packing symmetric closure over unpacked rows, kept here as
/// the reference the packed matrix must reproduce.
fn legacy_symmetrize(rows: &mut [tfsn_core::compat::SourceCompatibility]) {
    let n = rows.len();
    for u in 0..n {
        for v in (u + 1)..n {
            let c = rows[u].compatible[v] || rows[v].compatible[u];
            let d = match (rows[u].distance[v], rows[v].distance[u]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            rows[u].compatible[v] = c;
            rows[u].distance[v] = d;
            rows[v].compatible[u] = c;
            rows[v].distance[u] = d;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One packed row answers exactly like the unpacked per-source
    /// computation it was built from — compatibility bits, defined
    /// distances, and the unreachable sentinel — for every evaluated kind,
    /// and unpacks back to the identical legacy row.
    #[test]
    fn packed_row_matches_legacy_row(g in arb_graph()) {
        use signed_graph::csr::CsrGraph;
        use tfsn_core::compat::{compute_row, compute_source, CompatRow};
        let csr = CsrGraph::from_graph(&g);
        let cfg = EngineConfig::default();
        for kind in CompatibilityKind::EVALUATED {
            for source in g.nodes() {
                let legacy = compute_source(&g, &csr, source, kind, &cfg);
                let packed = CompatRow::from_source(&legacy);
                prop_assert_eq!(packed.len(), g.node_count());
                prop_assert_eq!(
                    packed.compatible_count(),
                    legacy.compatible.iter().filter(|&&c| c).count()
                );
                for v in 0..g.node_count() {
                    prop_assert_eq!(
                        packed.is_compatible(v),
                        legacy.compatible[v],
                        "{} bit({}, {})", kind, source, v
                    );
                    prop_assert_eq!(
                        packed.distance(v),
                        legacy.distance[v],
                        "{} distance({}, {})", kind, source, v
                    );
                    if legacy.distance[v].is_none() {
                        prop_assert_eq!(
                            packed.raw_distance(v),
                            tfsn_core::compat::UNREACHABLE_DISTANCE
                        );
                    }
                }
                // Out-of-range probes are incompatible/undefined, as before.
                prop_assert!(!packed.is_compatible(g.node_count()));
                prop_assert_eq!(packed.distance(g.node_count()), None);
                prop_assert_eq!(packed.to_source(), legacy.clone());
                // The direct row builders pack the same relation.
                prop_assert_eq!(
                    compute_row(&g, &csr, source, kind, &cfg).to_source(),
                    legacy
                );
            }
        }
    }

    /// The packed matrix (which symmetrises only the asymmetric kinds and
    /// stores bitset + `u16` rows) expresses exactly the relation the
    /// legacy pipeline (unpack every row, symmetrise everything) produced.
    #[test]
    fn packed_matrix_matches_legacy_closure(g in arb_graph()) {
        use signed_graph::csr::CsrGraph;
        use tfsn_core::compat::compute_source;
        let csr = CsrGraph::from_graph(&g);
        let cfg = EngineConfig::default();
        for kind in CompatibilityKind::EVALUATED {
            let matrix = CompatibilityMatrix::build_with_config(&g, kind, &cfg);
            let mut legacy: Vec<_> = g
                .nodes()
                .map(|v| compute_source(&g, &csr, v, kind, &cfg))
                .collect();
            legacy_symmetrize(&mut legacy);
            for u in g.nodes() {
                for v in g.nodes() {
                    let expected = u == v || legacy[u.index()].compatible[v.index()];
                    prop_assert_eq!(
                        matrix.compatible(u, v),
                        expected,
                        "{} compatible({}, {})", kind, u, v
                    );
                    let expected_d = if u == v {
                        Some(0)
                    } else {
                        legacy[u.index()].distance[v.index()]
                    };
                    prop_assert_eq!(
                        matrix.distance(u, v),
                        expected_d,
                        "{} distance({}, {})", kind, u, v
                    );
                }
            }
        }
    }

    /// The greedy solver returns the identical team through the
    /// word-parallel mask path and through the scalar pair-probe path
    /// (`ScalarOnly` hides the packed rows), for every algorithm — the
    /// fast path must be an optimisation, never a behaviour change.
    #[test]
    fn masked_greedy_equals_scalar_greedy(g in arb_graph(), seed in 0u64..500) {
        use tfsn_core::compat::ScalarOnly;
        let users = g.node_count();
        let mut skills = SkillAssignment::new(5, users);
        for u in 0..users {
            skills.grant(u, SkillId::new(u % 5));
            if u % 4 == 0 {
                skills.grant(u, SkillId::new((u + 1) % 5));
            }
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1), SkillId::new(3)]);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Sbph, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let scalar = ScalarOnly(&comp);
            for alg in TeamAlgorithm::ALL {
                let cfg = GreedyConfig { random_seed: seed, ..Default::default() };
                let masked = solve_greedy(&inst, &comp, &task, alg, &cfg);
                let scalar_result = solve_greedy(&inst, &scalar, &task, alg, &cfg);
                prop_assert_eq!(
                    &masked, &scalar_result,
                    "{}/{}: mask path diverged from scalar path", kind, alg
                );
                if let Ok(team) = masked {
                    prop_assert_eq!(team.diameter(&comp), team.diameter(&scalar));
                }
            }
        }
    }
}

/// `row_bytes` must account the packed row's real heap footprint (the
/// constructors allocate exact-capacity vectors: the compatible set and
/// the mixed flags, the lane at 4 or 8 bits per node, and the side table),
/// and every row must take the code width that packs it into fewer bytes:
/// `⌈n/2⌉ + 8·#{d > 13}` for 4-bit codes against `n + 8·#{d > 253}` for
/// 8-bit ones. The pre-computation estimate is exact for a 4-bit row with
/// an empty side table. The sparse graphs below (as many edges as a tree)
/// hold rows of both widths.
#[test]
fn row_bytes_matches_real_heap_footprint() {
    use tfsn_core::compat::{estimated_row_bytes, row_bytes, CompatibilityMatrix};
    let entry = std::mem::size_of::<(u32, u16)>();
    let mut widths = std::collections::BTreeSet::new();
    for nodes in [1usize, 7, 63, 64, 65, 200] {
        let g = social_network(&SocialNetworkConfig {
            nodes,
            edges: nodes.saturating_sub(1),
            negative_fraction: 0.2,
            seed: 9,
            ..Default::default()
        });
        let m = CompatibilityMatrix::build(&g, CompatibilityKind::Spo);
        for row in m.rows() {
            let bits = row.code_bits() as usize;
            widths.insert(bits);
            let heap = 2 * std::mem::size_of_val(row.words())
                + (row.len() * bits).div_ceil(8)
                + row.side_table_len() * entry;
            assert_eq!(
                row_bytes(row),
                std::mem::size_of_val(row) + heap,
                "{nodes} nodes: accounted bytes must equal struct + heap payload"
            );
            assert_eq!(row.words().len(), nodes.div_ceil(64));
            let distances = row.to_source().distance;
            let past = |inline: u32| {
                distances
                    .iter()
                    .filter(|d| d.is_some_and(|d| d > inline))
                    .count()
            };
            let nibble = nodes.div_ceil(2) + past(13) * entry;
            let byte = nodes + past(253) * entry;
            assert_eq!(bits, if nibble <= byte { 4 } else { 8 }, "{nodes} nodes");
            assert_eq!(row.side_table_len(), past(if bits == 4 { 13 } else { 253 }));
            assert_eq!(
                row_bytes(row),
                estimated_row_bytes(nodes) - nodes.div_ceil(2) + nibble.min(byte)
            );
        }
    }
    assert_eq!(widths.into_iter().collect::<Vec<_>>(), [4, 8]);
}

// ---------------------------------------------------------------------------
// DPE and NNE against their definitions (paper §3).
// ---------------------------------------------------------------------------

/// A dense random signed graph: short paths, so every row packs 4-bit
/// distance codes.
fn arb_dense_graph() -> impl Strategy<Value = SignedGraph> {
    (20usize..60, 0u64..5000, 0u32..50).prop_map(|(n, seed, negp)| {
        social_network(&SocialNetworkConfig {
            nodes: n,
            edges: 4 * n,
            negative_fraction: f64::from(negp) / 100.0,
            seed,
            ..Default::default()
        })
    })
}

/// A sparse tree-like signed graph: node `i` hangs off node `i − 1` or
/// `i − 2`, so paths run long and rows far from the middle pack 8-bit
/// distance codes.
fn arb_long_tree() -> impl Strategy<Value = SignedGraph> {
    (
        40usize..90,
        prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 90),
    )
        .prop_map(|(n, picks)| {
            let edges: Vec<_> = (1..n)
                .map(|i| {
                    let (skip, negative) = picks[i];
                    let parent = if skip && i >= 2 { i - 2 } else { i - 1 };
                    let sign = if negative {
                        Sign::Negative
                    } else {
                        Sign::Positive
                    };
                    (parent, i, sign)
                })
                .collect();
            from_edge_triples(edges)
        })
}

/// The DPE and NNE rows of `source`, transcribed from the definitions. DPE:
/// the source plus its positive neighbours, at distance 1. NNE: everyone
/// but the source's negative neighbours, at the unsigned shortest-path
/// distance, from a textbook BFS over the adjacency lists.
fn definition_rows(g: &SignedGraph, source: NodeId) -> [tfsn_core::compat::SourceCompatibility; 2] {
    let n = g.node_count();
    let s = source.index();
    let mut dpe_compatible = vec![false; n];
    let mut dpe_distance = vec![None; n];
    dpe_compatible[s] = true;
    dpe_distance[s] = Some(0);
    let mut nne_compatible = vec![true; n];
    for nb in g.neighbors(source) {
        match nb.sign {
            Sign::Positive => {
                dpe_compatible[nb.node.index()] = true;
                dpe_distance[nb.node.index()] = Some(1);
            }
            Sign::Negative => nne_compatible[nb.node.index()] = false,
        }
    }
    let mut nne_distance: Vec<Option<u32>> = vec![None; n];
    nne_distance[s] = Some(0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(x) = queue.pop_front() {
        let next = nne_distance[x.index()].map(|d| d + 1);
        for nb in g.neighbors(x) {
            if nne_distance[nb.node.index()].is_none() {
                nne_distance[nb.node.index()] = next;
                queue.push_back(nb.node);
            }
        }
    }
    [
        tfsn_core::compat::SourceCompatibility {
            source,
            kind: CompatibilityKind::Dpe,
            compatible: dpe_compatible,
            distance: dpe_distance,
        },
        tfsn_core::compat::SourceCompatibility {
            source,
            kind: CompatibilityKind::Nne,
            compatible: nne_compatible,
            distance: nne_distance,
        },
    ]
}

/// Checks every DPE and NNE row of `g` against [`definition_rows`]: the
/// direct row builders, the packed layout of the definition itself, and
/// rows fetched (and evicted) through a two-row-budget store. Returns the
/// distance code widths the rows took.
fn check_definition_oracles(g: &SignedGraph) -> std::collections::BTreeSet<u32> {
    use signed_graph::csr::CsrGraph;
    use std::sync::Arc;
    use tfsn_core::compat::{compute_row, estimated_row_bytes, CompatRow, LazyCompatibility};
    let csr = CsrGraph::from_graph(g);
    let cfg = EngineConfig::default();
    let n = g.node_count();
    let stores = [CompatibilityKind::Dpe, CompatibilityKind::Nne].map(|kind| {
        LazyCompatibility::with_budget(
            Arc::new(g.clone()),
            kind,
            EngineConfig::default(),
            Some(2 * estimated_row_bytes(n) + 16),
        )
    });
    let mut widths = std::collections::BTreeSet::new();
    for source in g.nodes() {
        for (oracle, store) in definition_rows(g, source).into_iter().zip(&stores) {
            let kind = oracle.kind;
            let row = compute_row(g, &csr, source, kind, &cfg);
            assert_eq!(row.to_source(), oracle, "{kind} row {source}");
            let packed = CompatRow::from_source(&oracle);
            assert_eq!(row.code_bits(), packed.code_bits(), "{kind} row {source}");
            assert_eq!(row, packed, "{kind} row {source}");
            assert_eq!(
                store.source(source).to_source(),
                oracle,
                "{kind} stored row {source}"
            );
            widths.insert(row.code_bits());
        }
    }
    for store in &stores {
        assert!(store.eviction_count() > 0, "a two-row budget must evict");
    }
    widths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DPE and NNE equal their definitions on both sides of the lane
    /// width choice: dense graphs, whose rows all pack 4-bit codes, and
    /// long trees, where some rows pack 8-bit codes.
    #[test]
    fn dpe_and_nne_rows_match_their_definitions(
        dense in arb_dense_graph(),
        tree in arb_long_tree(),
    ) {
        prop_assert_eq!(check_definition_oracles(&dense), [4].into());
        prop_assert!(check_definition_oracles(&tree).contains(&8));
    }
}

// ---------------------------------------------------------------------------
// SBPH against a transcription of the paper's prefix search (§3).
// ---------------------------------------------------------------------------

/// SBPH from `source`, transcribed from the paper's prefix search: a FIFO
/// of prefixes, each extended by its endpoint's neighbours in ascending id.
/// An extension is retained when the subgraph induced on its nodes is
/// balanced (Definition 3.4, a 2-colouring from scratch) and fewer than
/// `width` prefixes of its sign already end at its endpoint (the trivial
/// prefix counts as the source's first positive one). A positive prefix
/// makes its endpoint compatible at the prefix's length.
fn reference_sbph(
    g: &SignedGraph,
    source: NodeId,
    width: usize,
) -> tfsn_core::compat::SourceCompatibility {
    let n = g.node_count();
    let mut compatible = vec![false; n];
    let mut distance: Vec<Option<u32>> = vec![None; n];
    compatible[source.index()] = true;
    distance[source.index()] = Some(0);
    let mut retained = vec![[0usize; 2]; n];
    retained[source.index()][0] = 1;
    let mut queue = std::collections::VecDeque::from([vec![source]]);
    while let Some(prefix) = queue.pop_front() {
        let end = *prefix.last().expect("a prefix holds the source");
        let mut next: Vec<NodeId> = g.neighbors(end).iter().map(|nb| nb.node).collect();
        next.sort();
        for w in next {
            if prefix.contains(&w) {
                continue;
            }
            let mut path = prefix.clone();
            path.push(w);
            if !signed_graph::balance::is_structurally_balanced_path(g, &path) {
                continue;
            }
            let sign = g.path_sign(&path).expect("consecutive nodes share an edge");
            let slot = &mut retained[w.index()][usize::from(sign == Sign::Negative)];
            if *slot >= width {
                continue;
            }
            *slot += 1;
            if sign == Sign::Positive {
                let len = (path.len() - 1) as u32;
                compatible[w.index()] = true;
                distance[w.index()] = Some(distance[w.index()].map_or(len, |d| d.min(len)));
            }
            queue.push_back(path);
        }
    }
    tfsn_core::compat::SourceCompatibility {
        source,
        kind: CompatibilityKind::Sbph,
        compatible,
        distance,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// `sbph_source` returns exactly the transcription's relation, at the
    /// paper's width 1 and at width 2, on small connected graphs, dense
    /// graphs and long trees.
    #[test]
    fn sbph_matches_definition_oracle(
        g in arb_graph(),
        dense in arb_dense_graph(),
        tree in arb_long_tree(),
    ) {
        use signed_graph::csr::CsrGraph;
        use tfsn_core::compat::sbph::sbph_source;
        for graph in [&g, &dense, &tree] {
            let csr = CsrGraph::from_graph(graph);
            for width in [1, 2] {
                for source in graph.nodes() {
                    prop_assert_eq!(
                        sbph_source(graph, &csr, source, width),
                        reference_sbph(graph, source, width),
                        "source {} width {}", source, width
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fill against the per-source rows.
// ---------------------------------------------------------------------------

/// A signed graph over 1–200 nodes, half the time at a size next to a
/// multiple of the fill's batch (63, 64, 65, 128 or 129 nodes): a connected
/// social graph, or a sparse random one with several components and
/// isolated nodes.
fn arb_fill_graph() -> impl Strategy<Value = SignedGraph> {
    (
        0usize..10,
        1usize..201,
        prop::bool::ANY,
        1usize..5,
        0u64..5000,
        0u32..50,
    )
        .prop_map(|(pick, n, sparse, degree, seed, negp)| {
            let n = [63, 64, 65, 128, 129].get(pick).copied().unwrap_or(n);
            let negative_fraction = f64::from(negp) / 100.0;
            if sparse {
                // Average degree 0.5–2.
                signed_graph::generators::erdos_renyi_signed(
                    n,
                    n * degree / 4,
                    negative_fraction,
                    seed,
                )
            } else {
                social_network(&SocialNetworkConfig {
                    nodes: n,
                    edges: 2 * n,
                    negative_fraction,
                    seed,
                    ..Default::default()
                })
            }
        })
}

/// Checks every row of every kind that the fill computes over `g`, at 1 and
/// 3 threads, against `compute_row` closed under symmetry (the closure is a
/// no-op on the kinds symmetric per source): the same bits, mixed flags and
/// distances, the per-source row's code width, and the side table and
/// accounted bytes that width gives.
fn check_filled_rows(g: &SignedGraph) {
    use signed_graph::csr::CsrGraph;
    use tfsn_core::compat::{compute_row, per_source_symmetric, row_bytes, CompatRow};
    // A small exact-SBP budget keeps 200-node graphs quick; the fill and
    // the per-source rows share it.
    let cfg = EngineConfig {
        sbp_max_states: 2_000,
        ..EngineConfig::default()
    };
    let csr = CsrGraph::from_graph(g);
    let entry = std::mem::size_of::<(u32, u16)>();
    for kind in CompatibilityKind::ALL {
        let per_source: Vec<CompatRow> = g
            .nodes()
            .map(|s| compute_row(g, &csr, s, kind, &cfg))
            .collect();
        let mut closed: Vec<_> = per_source.iter().map(CompatRow::to_source).collect();
        legacy_symmetrize(&mut closed);
        for threads in [1, 3] {
            let filled = CompatibilityMatrix::build_parallel(g, kind, &cfg, threads);
            assert_eq!(filled.rows().len(), g.node_count());
            for (u, row) in filled.rows().iter().enumerate() {
                let (reference, closed) = (&per_source[u], &closed[u]);
                let at = format!("{kind} row {u} of {} at {threads} threads", g.node_count());
                if per_source_symmetric(kind) {
                    assert_eq!(row, reference, "{at}");
                }
                assert_eq!(&row.to_source(), closed, "{at}");
                assert_eq!(row.code_bits(), reference.code_bits(), "{at}");
                let inline = if row.code_bits() == 4 { 13 } else { 253 };
                let side = closed.distance.iter().flatten().filter(|&&d| d > inline);
                let side = side.count();
                assert_eq!(row.side_table_len(), side, "{at}");
                assert_eq!(
                    row_bytes(row) + reference.side_table_len() * entry,
                    row_bytes(reference) + side * entry,
                    "{at}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The fill behind `matrix` stores holds exactly the per-source rows
    /// (closed under symmetry) for all seven kinds. SPA, SPO and NNE fill a
    /// batch of sources per bit-parallel search, so the graphs straddle
    /// batch boundaries, fall apart into components, and run long enough
    /// (the trees) for rows to pack 8-bit codes.
    #[test]
    fn filled_rows_equal_per_source_rows(g in arb_fill_graph(), tree in arb_long_tree()) {
        check_filled_rows(&g);
        check_filled_rows(&tree);
    }
}

// ---------------------------------------------------------------------------
// Tiered row store (LazyCompatibility) vs the materialised matrix.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The budget-capped row store must express exactly the same relation as
    /// the fully materialised matrix — for the per-source-symmetric kinds
    /// (SPA/SPO/NNE) and the asymmetric heuristic (SBPH, which needs the
    /// symmetric closure) alike — after an arbitrary query order and under
    /// eviction pressure from a budget of only a few rows.
    #[test]
    fn row_store_matches_matrix_under_eviction(
        g in arb_graph(),
        order in prop::collection::vec((0usize..1024, 0usize..1024), 1..50),
        budget_rows in 1usize..4,
    ) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility};
        let n = g.node_count();
        let budget = budget_rows * estimated_row_bytes(n) + 16;
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spo,
            CompatibilityKind::Nne,
            CompatibilityKind::Sbph,
        ] {
            let matrix = CompatibilityMatrix::build(&g, kind);
            let lazy = LazyCompatibility::with_budget(
                Arc::new(g.clone()),
                kind,
                EngineConfig::default(),
                Some(budget),
            );
            for &(a, b) in &order {
                let (u, v) = (NodeId::new(a % n), NodeId::new(b % n));
                prop_assert_eq!(
                    lazy.compatible(u, v),
                    matrix.compatible(u, v),
                    "{} compatible({u}, {v})", kind
                );
                prop_assert_eq!(
                    lazy.distance(u, v),
                    matrix.distance(u, v),
                    "{} distance({u}, {v})", kind
                );
                prop_assert!(
                    lazy.resident_bytes() <= budget,
                    "{}: resident {} exceeds budget {}",
                    kind, lazy.resident_bytes(), budget
                );
            }
        }
    }

    /// LRU invariants under a full pairwise scan with a two-row budget:
    /// the resident bytes never exceed the budget, rows are evicted (and
    /// recomputed correctly — checked against the matrix), and the build
    /// count shows recomputation actually happened.
    #[test]
    fn row_store_lru_invariants_under_full_scan(g in arb_graph()) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility};
        let n = g.node_count();
        let kind = CompatibilityKind::Spo;
        let matrix = CompatibilityMatrix::build(&g, kind);
        let budget = 2 * estimated_row_bytes(n) + 16;
        let lazy = LazyCompatibility::with_budget(
            Arc::new(g.clone()),
            kind,
            EngineConfig::default(),
            Some(budget),
        );
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(lazy.compatible(u, v), matrix.compatible(u, v));
                prop_assert!(lazy.resident_bytes() <= budget);
                prop_assert!(lazy.cached_rows() <= 2);
            }
        }
        // 6+ nodes never fit a two-row budget: eviction and recomputation
        // must both have occurred.
        prop_assert!(lazy.eviction_count() > 0);
        prop_assert!(lazy.build_count() >= n);
    }
}

// ---------------------------------------------------------------------------
// Objective-pluggable dispatch vs the pre-objective solver paths.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refactor pin: dispatching the *default* objective through
    /// `solve_objective_with_scratch` returns exactly what the pre-objective
    /// entry points return — same team or same error — for every kind, both
    /// solver shapes, and both serving tiers (materialised matrix and
    /// budget-capped row store). The objective layer must be invisible to
    /// legacy callers.
    #[test]
    fn default_objective_dispatch_is_identical(g in arb_graph(), seed in 0u64..500) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility};
        use tfsn_core::team::{Objective, SolveScratch, Solver};
        let users = g.node_count();
        let mut skills = SkillAssignment::new(5, users);
        for u in 0..users {
            skills.grant(u, SkillId::new(u % 5));
            if u % 4 == 0 {
                skills.grant(u, SkillId::new((u + 1) % 5));
            }
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1), SkillId::new(3)]);
        let solvers = [
            Solver::default_greedy(),
            Solver::greedy(TeamAlgorithm::RFMD),
            Solver::Greedy {
                algorithm: TeamAlgorithm::RANDOM,
                config: GreedyConfig { random_seed: seed, ..Default::default() },
            },
            Solver::Exhaustive,
        ];
        let mut scratch = SolveScratch::new();
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Sbph, CompatibilityKind::Nne] {
            let matrix = CompatibilityMatrix::build(&g, kind);
            let lazy = LazyCompatibility::with_budget(
                Arc::new(g.clone()),
                kind,
                EngineConfig::default(),
                Some(2 * estimated_row_bytes(users) + 16),
            );
            for solver in &solvers {
                let legacy = solver.solve_with_scratch(&inst, &matrix, &task, &mut scratch);
                let routed = solver.solve_objective_with_scratch(
                    &inst, &matrix, &task, &Objective::MinTeam, &mut scratch,
                );
                prop_assert_eq!(
                    &legacy, &routed,
                    "{}/{}: default objective diverged on the matrix tier", kind, solver
                );
                let lazy_routed = solver.solve_objective_with_scratch(
                    &inst, &lazy, &task, &Objective::MinTeam, &mut scratch,
                );
                let lazy_legacy = solver.solve_with_scratch(&inst, &lazy, &task, &mut scratch);
                prop_assert_eq!(
                    &lazy_legacy, &lazy_routed,
                    "{}/{}: default objective diverged on the row-LRU tier", kind, solver
                );
            }
        }
    }

    /// Non-default objectives return constraint-satisfying covering
    /// compatible teams (or a clean NoCompatibleTeam) on every kind and both
    /// serving tiers, and agree between the tiers — the oracle is the same
    /// relation, so the answers must match.
    #[test]
    fn alternative_objectives_are_sound_across_tiers(g in arb_graph(), k in 2usize..6) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility};
        use tfsn_core::team::objective::team_synergy;
        use tfsn_core::team::{Objective, SolveScratch, Solver};
        let users = g.node_count();
        let mut skills = SkillAssignment::new(5, users);
        for u in 0..users {
            skills.grant(u, SkillId::new(u % 5));
        }
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1)]);
        let objectives = [
            Objective::Synergy,
            Objective::Constrained {
                include: vec![0],
                max_size: Some(k),
                max_distance: Some(4),
            },
        ];
        let mut scratch = SolveScratch::new();
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Sbph, CompatibilityKind::Nne] {
            let matrix = CompatibilityMatrix::build(&g, kind);
            let lazy = LazyCompatibility::with_budget(
                Arc::new(g.clone()),
                kind,
                EngineConfig::default(),
                Some(2 * estimated_row_bytes(users) + 16),
            );
            for objective in &objectives {
                for solver in [Solver::default_greedy(), Solver::Exhaustive] {
                    let on_matrix = solver.solve_objective_with_scratch(
                        &inst, &matrix, &task, objective, &mut scratch,
                    );
                    let on_lazy = solver.solve_objective_with_scratch(
                        &inst, &lazy, &task, objective, &mut scratch,
                    );
                    prop_assert_eq!(
                        &on_matrix, &on_lazy,
                        "{}/{}/{:?}: tiers disagreed", kind, solver, objective
                    );
                    match on_matrix {
                        Ok(team) => {
                            prop_assert!(team.covers(&skills, &task), "{kind}: missing skills");
                            prop_assert!(team.is_compatible(&matrix), "{kind}: incompatible pair");
                            prop_assert!(
                                objective.admits_team(&matrix, &team),
                                "{kind}: constraint violated"
                            );
                            // The two tiers must also score it identically.
                            prop_assert_eq!(team_synergy(&matrix, &team), team_synergy(&lazy, &team));
                        }
                        Err(TfsnError::NoCompatibleTeam) => {}
                        Err(TfsnError::SearchBudgetExceeded) => {}
                        Err(e) => prop_assert!(false, "{kind}: unexpected error {e}"),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Definition oracle: Algorithm 2 and the task-restricted skill degrees,
// transcribed from their definitions with nothing but pair probes.
// ---------------------------------------------------------------------------

/// Case count of the oracle suite: 24 by default, overridable through the
/// `TFSN_PROPTEST_CASES` environment variable for deep runs.
fn oracle_cases() -> u32 {
    std::env::var("TFSN_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// The first `cap` holders of each task skill, as the solvers see them.
fn capped_holders<'a>(
    skills: &'a SkillAssignment,
    task: &Task,
    cap: Option<usize>,
) -> Vec<&'a [u32]> {
    let cap = cap.unwrap_or(usize::MAX).max(1);
    task.skills()
        .iter()
        .map(|&s| {
            let h = skills.users_with_skill(s);
            &h[..h.len().min(cap)]
        })
        .collect()
}

/// `cd_T(s) = Σ_{s' ∈ T, s' ≠ s} cd(s, s')`, where `cd(s, s')` counts the
/// ordered compatible pairs `(u, v)` with `u` holding `s` and `v` holding
/// `s'` (a user holding both counts through the reflexive pair).
fn reference_degrees(
    comp: &dyn Compatibility,
    skills: &SkillAssignment,
    task: &Task,
    cap: Option<usize>,
) -> Vec<u64> {
    let holders = capped_holders(skills, task, cap);
    (0..holders.len())
        .map(|i| {
            let mut degree = 0u64;
            for (j, others) in holders.iter().enumerate() {
                if j == i {
                    continue;
                }
                for &u in holders[i] {
                    for &v in *others {
                        if comp.compatible(NodeId::new(u as usize), NodeId::new(v as usize)) {
                            degree += 1;
                        }
                    }
                }
            }
            degree
        })
        .collect()
}

/// Algorithm 2 as the paper states it: seed one team from every holder of
/// the first selected skill, grow each until it covers the task or gets
/// stuck, and keep the covering team of smallest diameter (the first one
/// on ties). Pair probes only, no candidate mask and no bound.
fn reference_greedy(
    instance: &TfsnInstance<'_>,
    comp: &dyn Compatibility,
    task: &Task,
    algorithm: TeamAlgorithm,
    config: &GreedyConfig,
) -> Result<Team, TfsnError> {
    use rand::{Rng, SeedableRng};
    use tfsn_core::team::policies::{SkillPolicy, UserPolicy};
    let skills = instance.skills();
    if task.is_empty() {
        return Ok(Team::new([]));
    }
    if let Some(&s) = task
        .skills()
        .iter()
        .find(|&&s| skills.skill_frequency(s) == 0)
    {
        return Err(TfsnError::UncoverableSkill(s));
    }
    let degrees = reference_degrees(comp, skills, task, config.skill_degree_cap);
    let degree = |s: SkillId| degrees[task.skills().iter().position(|&t| t == s).unwrap()];
    let select = |remaining: &[SkillId]| -> SkillId {
        let key = |s: SkillId| match algorithm.skill {
            SkillPolicy::RarestFirst => (skills.skill_frequency(s) as u64, s.index()),
            SkillPolicy::LeastCompatibleFirst => (degree(s), s.index()),
        };
        *remaining.iter().min_by_key(|&&s| key(s)).unwrap()
    };
    let distance_to_team = |c: NodeId, members: &[NodeId]| -> u64 {
        members
            .iter()
            .map(|&m| comp.distance(c, m).map_or(u64::MAX / 2, u64::from))
            .max()
            .unwrap_or(0)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.random_seed);
    let first = select(task.skills());
    let seeds = skills.users_with_skill(first);
    let mut best: Option<(Team, u64)> = None;
    for &seed in seeds.iter().take(config.max_seeds.unwrap_or(usize::MAX)) {
        let mut members = vec![NodeId::new(seed as usize)];
        let covering = loop {
            let covered = Team::new(members.clone()).covered_skills(skills);
            let remaining = task.uncovered(&covered);
            if remaining.is_empty() {
                break Some(Team::new(members));
            }
            let skill = select(&remaining);
            let candidates: Vec<NodeId> = skills
                .users_with_skill(skill)
                .iter()
                .map(|&u| NodeId::new(u as usize))
                .filter(|u| !members.contains(u) && comp.compatible_with_all(*u, &members))
                .collect();
            if candidates.is_empty() {
                break None;
            }
            let chosen = match algorithm.user {
                UserPolicy::MinDistance => *candidates
                    .iter()
                    .min_by_key(|&&c| (distance_to_team(c, &members), c.index()))
                    .unwrap(),
                UserPolicy::MostCompatible => {
                    let mut pool: Vec<u32> = remaining
                        .iter()
                        .flat_map(|&s| skills.users_with_skill(s).iter().copied())
                        .collect();
                    pool.sort_unstable();
                    pool.dedup();
                    *candidates
                        .iter()
                        .max_by_key(|&&c| {
                            let count = pool
                                .iter()
                                .map(|&p| NodeId::new(p as usize))
                                .filter(|&p| p != c && comp.compatible(c, p))
                                .count();
                            (count, std::cmp::Reverse(c.index()))
                        })
                        .unwrap()
                }
                UserPolicy::Random => candidates[rng.gen_range(0..candidates.len())],
            };
            members.push(chosen);
        };
        if let Some(team) = covering {
            let cost = team.diameter(comp).map_or(u64::MAX, u64::from);
            if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                best = Some((team, cost));
            }
        }
    }
    best.map(|(team, _)| team)
        .ok_or(TfsnError::NoCompatibleTeam)
}

/// Eight skills over the graph's users, and a task over them.
///
/// Uniform shape: bit `s` of `grants[u]` grants user `u` skill `s`, and the
/// set bits of `task_bits` pick the task (1–8 skills).
///
/// Skewed shape: every user holds skill 0 and each other skill has a single
/// holder; the task is all eight skills, less the one `task_bits` names
/// (if any). On graphs of 16 or more users this steers the degree cost
/// model to the bit-plane kernel.
fn oracle_instance(
    users: usize,
    grants: &[u8],
    skewed: bool,
    task_bits: u32,
) -> (SkillAssignment, Task) {
    let mut skills = SkillAssignment::new(8, users);
    if skewed {
        for u in 0..users {
            skills.grant(u, SkillId::new(0));
        }
        for s in 1..8 {
            skills.grant(
                usize::from(grants[s % grants.len()]) % users,
                SkillId::new(s),
            );
        }
        let dropped = task_bits as usize % 9;
        return (
            skills,
            Task::new((0..8).filter(|&s| s != dropped).map(SkillId::new)),
        );
    }
    for u in 0..users {
        let g = grants[u % grants.len()];
        for s in 0..8 {
            if g >> s & 1 == 1 {
                skills.grant(u, SkillId::new(s));
            }
        }
    }
    (
        skills,
        Task::new((0..8).filter(|s| task_bits >> s & 1 == 1).map(SkillId::new)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// `solve_greedy` (candidate mask, member-row distances, seed bound,
    /// either degree kernel) returns exactly what the definition returns —
    /// same team or same error — for every algorithm, every kind, the
    /// materialised and the budgeted lazy tier, tasks of 1–8 skills, and
    /// both the default config and a capped one. `TaskSkillDegrees` must
    /// equal the brute-force `cd_T` on both tiers as well.
    #[test]
    fn greedy_matches_definition_oracle(
        g in arb_graph(),
        grants in prop::collection::vec(0u32..256, 1..26),
        skewed in prop::bool::ANY,
        task_bits in 1u32..256,
        caps in (1usize..6, 1usize..6, 0u64..1000),
    ) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility, ScalarOnly};
        use tfsn_core::skill_compat::TaskSkillDegrees;
        let users = g.node_count();
        let grants: Vec<u8> = grants.iter().map(|&b| b as u8).collect();
        let (skills, task) = oracle_instance(users, &grants, skewed, task_bits);
        let inst = TfsnInstance::new(&g, &skills);
        let configs = [
            GreedyConfig::default(),
            GreedyConfig {
                max_seeds: Some(caps.0),
                skill_degree_cap: Some(caps.1),
                random_seed: caps.2,
            },
        ];
        for kind in CompatibilityKind::ALL {
            let matrix = CompatibilityMatrix::build(&g, kind);
            let lazy = LazyCompatibility::with_budget(
                Arc::new(g.clone()),
                kind,
                EngineConfig::default(),
                Some(2 * estimated_row_bytes(users) + 16),
            );
            let scalar = ScalarOnly(&matrix);
            let tiers: [(&str, &dyn Compatibility); 2] = [("matrix", &matrix), ("lazy", &lazy)];
            for config in &configs {
                let expected_degrees =
                    reference_degrees(&scalar, &skills, &task, config.skill_degree_cap);
                for (tier, comp) in tiers {
                    let degrees =
                        TaskSkillDegrees::compute_capped(comp, &skills, &task, config.skill_degree_cap);
                    let got: Vec<u64> = task.skills().iter().map(|&s| degrees.degree(s)).collect();
                    prop_assert_eq!(&got, &expected_degrees, "{}/{}: cd_T", kind, tier);
                }
                for alg in TeamAlgorithm::ALL {
                    let expected = reference_greedy(&inst, &scalar, &task, alg, config);
                    for (tier, comp) in tiers {
                        let got = solve_greedy(&inst, comp, &task, alg, config);
                        prop_assert_eq!(
                            &got, &expected,
                            "{}/{}/{} {:?}: greedy diverged from the definition", kind, tier, alg, config
                        );
                    }
                }
            }
        }
    }
}
