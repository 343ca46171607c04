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
use tfsn_core::team::{Objective, SolveScratch, Solver, Team, TfsnInstance};
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
        tfsn_core::compat::sbp::sbp_row(g, s, None, cfg.sbp_max_states)
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
        let exact = solve_exhaustive(&inst, &comp, &task, &Objective::MinTeam);
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
// Bit-packed rows (CompatRow) read back node by node.
// ---------------------------------------------------------------------------

/// A row as the definition oracles below give it: each node's
/// compatibility bit and distance.
type Facts = Vec<(bool, Option<u32>)>;

/// Reads a packed row back node by node.
fn unpack(row: &tfsn_core::compat::CompatRow) -> Facts {
    (0..row.len())
        .map(|v| (row.is_compatible(v), row.distance(v)))
        .collect()
}

/// The lane bytes of a row over `facts` at 4-bit and at 8-bit codes:
/// `⌈n/2⌉ + 8·#{d > 13}` against `n + 8·#{d > 253}`.
fn lane_costs(facts: &Facts) -> (usize, usize) {
    let entry = std::mem::size_of::<(u32, u16)>();
    let past = |inline: u32| {
        facts
            .iter()
            .filter(|(_, d)| d.is_some_and(|d| d > inline))
            .count()
    };
    let n = facts.len();
    (n.div_ceil(2) + past(13) * entry, n + past(253) * entry)
}

/// The code width the width rule gives a row over `facts`: the one that
/// packs it into fewer bytes, 4-bit on a tie.
fn width_rule_bits(facts: &Facts) -> u32 {
    let (nibble, byte) = lane_costs(facts);
    if nibble <= byte {
        4
    } else {
        8
    }
}

/// The pre-bit-packing symmetric closure over unpacked rows, kept here as
/// the reference the packed closure must reproduce: a pair is compatible if
/// either direction found it, at the smaller defined distance.
fn legacy_symmetrize(rows: &mut [Facts]) {
    let n = rows.len();
    for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
        let ((cu, du), (cv, dv)) = (rows[u][v], rows[v][u]);
        let d = match (du, dv) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        rows[u][v] = (cu || cv, d);
        rows[v][u] = (cu || cv, d);
    }
}

/// `source`'s row of `kind` from its definition oracle; the exact SBP
/// oracle searches without a path-length bound or a state budget.
fn oracle_row(g: &SignedGraph, source: NodeId, kind: CompatibilityKind) -> Facts {
    let [dpe, nne] = definition_rows(g, source);
    let [spa, spm, spo] = sp_definition_rows(g, source);
    match kind {
        CompatibilityKind::Dpe => dpe,
        CompatibilityKind::Spa => spa,
        CompatibilityKind::Spm => spm,
        CompatibilityKind::Spo => spo,
        CompatibilityKind::Sbph => reference_sbph(g, source, EngineConfig::default().sbph_width),
        CompatibilityKind::Sbp => tfsn_core::compat::sbp::brute_force_sbp(g, source),
        CompatibilityKind::Nne => nne,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed matrix (which symmetrises only the asymmetric kinds and
    /// stores bitset + distance-code rows) expresses exactly the relation
    /// the legacy pipeline produced: every source's definition row, with
    /// every kind symmetrised.
    #[test]
    fn packed_matrix_matches_legacy_closure(g in arb_graph()) {
        let cfg = EngineConfig::default();
        for kind in CompatibilityKind::EVALUATED {
            let matrix = CompatibilityMatrix::build_with_config(&g, kind, &cfg);
            let mut oracle: Vec<Facts> = g.nodes().map(|v| oracle_row(&g, v, kind)).collect();
            legacy_symmetrize(&mut oracle);
            for u in g.nodes() {
                for v in g.nodes() {
                    let (c, d) = oracle[u.index()][v.index()];
                    prop_assert_eq!(
                        matrix.compatible(u, v),
                        u == v || c,
                        "{} compatible({}, {})", kind, u, v
                    );
                    prop_assert_eq!(
                        matrix.distance(u, v),
                        if u == v { Some(0) } else { d },
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
            let facts = unpack(row);
            assert_eq!(row.code_bits(), width_rule_bits(&facts), "{nodes} nodes");
            let inline = if bits == 4 { 13 } else { 253 };
            let past = facts.iter().filter(|(_, d)| d.is_some_and(|d| d > inline));
            assert_eq!(row.side_table_len(), past.count());
            let (nibble, byte) = lane_costs(&facts);
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
fn definition_rows(g: &SignedGraph, source: NodeId) -> [Facts; 2] {
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
        dpe_compatible.into_iter().zip(dpe_distance).collect(),
        nne_compatible.into_iter().zip(nne_distance).collect(),
    ]
}

/// Checks every DPE and NNE row of `g` against [`definition_rows`]: the
/// direct row builders, their code widths against the width rule, and rows
/// fetched (and evicted) through a two-row-budget store. Returns the
/// distance code widths the rows took.
fn check_definition_oracles(g: &SignedGraph) -> std::collections::BTreeSet<u32> {
    use signed_graph::csr::CsrGraph;
    use std::sync::Arc;
    use tfsn_core::compat::{compute_row, estimated_row_bytes, LazyCompatibility};
    let csr = CsrGraph::from_graph(g);
    let cfg = EngineConfig::default();
    let n = g.node_count();
    let kinds = [CompatibilityKind::Dpe, CompatibilityKind::Nne];
    let stores = kinds.map(|kind| {
        LazyCompatibility::with_budget(
            Arc::new(g.clone()),
            kind,
            EngineConfig::default(),
            Some(2 * estimated_row_bytes(n) + 16),
        )
    });
    let mut widths = std::collections::BTreeSet::new();
    for source in g.nodes() {
        let oracles = kinds.into_iter().zip(definition_rows(g, source));
        for ((kind, oracle), store) in oracles.zip(&stores) {
            let row = compute_row(g, &csr, source, kind, &cfg);
            assert_eq!(unpack(&row), oracle, "{kind} row {source}");
            assert_eq!(
                row.code_bits(),
                width_rule_bits(&oracle),
                "{kind} row {source}"
            );
            assert_eq!(*store.source(source), row, "{kind} stored row {source}");
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
// SPA, SPM and SPO against the enumerated shortest paths (§3).
// ---------------------------------------------------------------------------

/// The SPA, SPM and SPO rows of `source`, from the positive and negative
/// shortest paths `sp::brute_force_shortest_path_counts` enumerates: SPA
/// iff N⁻ = 0 and N⁺ > 0, SPM iff N⁺ ≥ N⁻ and N⁺ > 0, SPO iff N⁺ > 0. A
/// reachable node, compatible or not, is at its BFS level; an unreachable
/// node is incompatible and has no distance.
fn sp_definition_rows(g: &SignedGraph, source: NodeId) -> [Facts; 3] {
    let paths = tfsn_core::compat::sp::brute_force_shortest_path_counts(g, source);
    let row = |compatible: fn(u64, u64) -> bool| -> Facts {
        paths
            .iter()
            .map(|&(pos, neg, level)| match level {
                u32::MAX => (false, None),
                _ => (compatible(pos, neg), Some(level)),
            })
            .collect()
    };
    [
        row(|pos, neg| neg == 0 && pos > 0),
        row(|pos, neg| pos >= neg && pos > 0),
        row(|pos, _| pos > 0),
    ]
}

/// Checks every SPA, SPM and SPO row of `g` against
/// [`sp_definition_rows`]: bits, distances, and the code width the width
/// rule gives those distances. Returns the code widths the rows took.
fn check_sp_definitions(g: &SignedGraph) -> std::collections::BTreeSet<u32> {
    use signed_graph::csr::CsrGraph;
    use tfsn_core::compat::compute_row;
    let csr = CsrGraph::from_graph(g);
    let cfg = EngineConfig::default();
    let kinds = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
    ];
    let mut widths = std::collections::BTreeSet::new();
    for source in g.nodes() {
        for (kind, oracle) in kinds.into_iter().zip(sp_definition_rows(g, source)) {
            let row = compute_row(g, &csr, source, kind, &cfg);
            assert_eq!(unpack(&row), oracle, "{kind} row {source}");
            assert_eq!(
                row.code_bits(),
                width_rule_bits(&oracle),
                "{kind} row {source}"
            );
            widths.insert(row.code_bits());
        }
    }
    widths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// SPA, SPM and SPO rows equal their definitions over the enumerated
    /// shortest paths, from every source of small connected graphs and of
    /// long trees, where some rows pack 8-bit codes.
    #[test]
    fn sp_rows_match_their_definitions(g in arb_graph(), tree in arb_long_tree()) {
        check_sp_definitions(&g);
        prop_assert!(check_sp_definitions(&tree).contains(&8));
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
fn reference_sbph(g: &SignedGraph, source: NodeId, width: usize) -> Facts {
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
    compatible.into_iter().zip(distance).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// SBPH rows hold exactly the transcription's relation, at the paper's
    /// width 1 and at width 2, on small connected graphs, dense graphs and
    /// long trees, each at the code width the width rule gives its
    /// distances.
    #[test]
    fn sbph_matches_definition_oracle(
        g in arb_graph(),
        dense in arb_dense_graph(),
        tree in arb_long_tree(),
    ) {
        use signed_graph::csr::CsrGraph;
        use tfsn_core::compat::compute_row;
        for graph in [&g, &dense, &tree] {
            let csr = CsrGraph::from_graph(graph);
            for width in [1, 2] {
                let cfg = EngineConfig { sbph_width: width, ..EngineConfig::default() };
                for source in graph.nodes() {
                    let row = compute_row(graph, &csr, source, CompatibilityKind::Sbph, &cfg);
                    let oracle = reference_sbph(graph, source, width);
                    prop_assert_eq!(unpack(&row), oracle.clone(), "source {} width {}", source, width);
                    prop_assert_eq!(row.code_bits(), width_rule_bits(&oracle));
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
        let mut closed: Vec<Facts> = per_source.iter().map(unpack).collect();
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
                assert_eq!(&unpack(row), closed, "{at}");
                assert_eq!(row.code_bits(), reference.code_bits(), "{at}");
                let inline = if row.code_bits() == 4 { 13 } else { 253 };
                let side = closed
                    .iter()
                    .filter_map(|&(_, d)| d)
                    .filter(|&d| d > inline);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The row store evicts in exact LRU order: a hit moves its row to the
    /// back, a build appends it, and a store over its budget evicts from the
    /// front. Dense graphs pack every row in 4-bit codes with no side entry,
    /// so each row takes exactly `estimated_row_bytes(n)` and a budget of
    /// `r` and a half rows holds `r` of them. Every fetch's `built` flag,
    /// the resident row count and the eviction count must equal a
    /// `VecDeque` model's.
    #[test]
    fn row_store_evicts_in_exact_lru_order(
        g in arb_dense_graph(),
        picks in prop::collection::vec(0usize..8, 1..64),
        base in 0usize..1024,
    ) {
        use std::collections::VecDeque;
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, row_bytes, LazyCompatibility};
        let n = g.node_count();
        let row = estimated_row_bytes(n);
        let graph = Arc::new(g);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Nne, CompatibilityKind::Dpe] {
            for r in [1usize, 2, 3, 5] {
                let lazy = LazyCompatibility::with_budget(
                    graph.clone(),
                    kind,
                    EngineConfig::default(),
                    Some(r * row + row / 2),
                );
                let mut model = VecDeque::new();
                let mut evictions = 0;
                for (step, &pick) in picks.iter().enumerate() {
                    let source = (base + 7 * pick) % n;
                    let fetch = lazy.source_tracked(NodeId::new(source));
                    prop_assert_eq!(row_bytes(&fetch.row), row, "{} row {}", kind, source);
                    let resident = model.iter().position(|&s| s == source);
                    if let Some(at) = resident {
                        model.remove(at);
                    }
                    model.push_back(source);
                    while model.len() > r {
                        model.pop_front();
                        evictions += 1;
                    }
                    prop_assert_eq!(
                        fetch.built,
                        resident.is_none(),
                        "{} r={} step {}: fetch of {}", kind, r, step, source
                    );
                }
                prop_assert_eq!(lazy.cached_rows(), model.len(), "{} r={}", kind, r);
                prop_assert_eq!(lazy.eviction_count(), evictions, "{} r={}", kind, r);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Alternative objectives across the serving tiers.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

/// Every unordered pair of `members`.
fn pairs(members: &[NodeId]) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    let tail = |i: usize| members[i + 1..].iter();
    (0..members.len()).flat_map(move |i| tail(i).map(move |&v| (members[i], v)))
}

/// The largest pair distance, `None` when some pair has none.
fn reference_diameter(comp: &dyn Compatibility, members: &[NodeId]) -> Option<u32> {
    pairs(members).try_fold(0, |d, (u, v)| Some(d.max(comp.distance(u, v)?)))
}

/// What the solvers minimise: the diameter (`u64::MAX` when undefined), or
/// under Synergy `u64::MAX` less the synergy, `SYNERGY_SCALE / d` per pair
/// at distance `d` (twice the scale at 0, nothing when undefined).
fn reference_cost(comp: &dyn Compatibility, objective: &Objective, members: &[NodeId]) -> u64 {
    use tfsn_core::team::objective::SYNERGY_SCALE;
    let synergy = |d: Option<u32>| match d {
        None => 0,
        Some(0) => 2 * SYNERGY_SCALE,
        Some(d) => SYNERGY_SCALE / u64::from(d),
    };
    match objective {
        Objective::Synergy => {
            u64::MAX
                - pairs(members)
                    .map(|(u, v)| synergy(comp.distance(u, v)))
                    .sum::<u64>()
        }
        _ => reference_diameter(comp, members).map_or(u64::MAX, u64::from),
    }
}

/// The designated members (deduplicated, ascending), size budget and
/// distance bound of the constrained objective; none for the others.
fn limits(objective: &Objective) -> (Vec<NodeId>, Option<usize>, Option<u32>) {
    let Objective::Constrained {
        include,
        max_size,
        max_distance,
    } = objective
    else {
        return (Vec::new(), None, None);
    };
    let mut base: Vec<NodeId> = include.iter().map(|&u| NodeId::new(u)).collect();
    base.sort_unstable();
    base.dedup();
    (base, *max_size, *max_distance)
}

/// Whether `members` are pairwise compatible, hold every designated
/// member, fit the size budget, and have a diameter within the distance
/// bound.
fn reference_admits(comp: &dyn Compatibility, objective: &Objective, members: &[NodeId]) -> bool {
    let (base, max_size, max_distance) = limits(objective);
    pairs(members).all(|(u, v)| comp.compatible(u, v))
        && base.iter().all(|u| members.contains(u))
        && max_size.is_none_or(|k| members.len() <= k)
        && max_distance.is_none_or(|b| reference_diameter(comp, members).is_some_and(|d| d <= b))
}

/// What both solvers settle before searching, in order: designated members
/// no qualifying team can hold (out of range, or not admitted on their own)
/// answer `NoCompatibleTeam`; an empty task with none answers the empty
/// team (`Ok(None)`); a skill nobody holds is uncoverable. Otherwise the
/// designated members.
fn reference_preamble(
    instance: &TfsnInstance<'_>,
    comp: &dyn Compatibility,
    task: &Task,
    objective: &Objective,
) -> Result<Option<Vec<NodeId>>, TfsnError> {
    let base = limits(objective).0;
    if base.iter().any(|u| u.index() >= instance.user_count())
        || !reference_admits(comp, objective, &base)
    {
        return Err(TfsnError::NoCompatibleTeam);
    }
    let skills = instance.skills();
    match task
        .skills()
        .iter()
        .find(|&&s| skills.skill_frequency(s) == 0)
    {
        _ if task.is_empty() && base.is_empty() => Ok(None),
        Some(&s) => Err(TfsnError::UncoverableSkill(s)),
        None => Ok(Some(base)),
    }
}

/// Algorithm 2 as the objective layer states it for Synergy and
/// Constrained, whatever the query's algorithm: skills rarest first; the
/// designated members as the one seed, else each holder of the first skill
/// (up to `max_seeds`); joiners within the size budget and the distance
/// bound, the closest one under Constrained and the one adding the most
/// synergy under Synergy (ties to the lower id); finished teams must meet
/// the constraints, and the least cost wins, the smaller team on equal
/// cost. Pair probes only, no candidate mask and no bound.
fn reference_objective_greedy(
    instance: &TfsnInstance<'_>,
    comp: &dyn Compatibility,
    task: &Task,
    objective: &Objective,
    config: &GreedyConfig,
) -> Result<Team, TfsnError> {
    let Some(base) = reference_preamble(instance, comp, task, objective)? else {
        return Ok(Team::new([]));
    };
    let skills = instance.skills();
    let (_, max_size, max_distance) = limits(objective);
    let rarest = |remaining: &[SkillId]| -> SkillId {
        *remaining
            .iter()
            .min_by_key(|&&s| (skills.skill_frequency(s), s.index()))
            .unwrap()
    };
    let distance_to_team = |c: NodeId, members: &[NodeId]| -> u64 {
        let d = |m: &NodeId| comp.distance(c, *m).map_or(u64::MAX / 2, u64::from);
        members.iter().map(d).max().unwrap_or(0)
    };
    let seeds: Vec<Vec<NodeId>> = match base.is_empty() {
        false => vec![base],
        true => skills
            .users_with_skill(rarest(task.skills()))
            .iter()
            .take(config.max_seeds.unwrap_or(usize::MAX))
            .map(|&u| vec![NodeId::new(u as usize)])
            .collect(),
    };
    let mut best: Option<(Team, u64)> = None;
    for mut members in seeds {
        let covering = loop {
            let remaining = task.uncovered(&Team::new(members.clone()).covered_skills(skills));
            if remaining.is_empty() {
                break Some(members);
            }
            let candidates = skills.users_with_skill(rarest(&remaining)).iter();
            let candidates = candidates.map(|&u| NodeId::new(u as usize)).filter(|&u| {
                !members.contains(&u)
                    && comp.compatible_with_all(u, &members)
                    && max_size.is_none_or(|k| members.len() < k)
                    && max_distance.is_none_or(|b| distance_to_team(u, &members) <= u64::from(b))
            });
            let chosen = match objective {
                Objective::Synergy => candidates.max_by_key(|&c| {
                    let with: Vec<NodeId> = members.iter().copied().chain([c]).collect();
                    (
                        u64::MAX - reference_cost(comp, objective, &with),
                        std::cmp::Reverse(c.index()),
                    )
                }),
                _ => candidates.min_by_key(|&c| (distance_to_team(c, &members), c.index())),
            };
            match chosen {
                Some(c) => members.push(c),
                None => break None,
            }
        };
        let Some(members) = covering.filter(|m| reference_admits(comp, objective, m)) else {
            continue;
        };
        let cost = reference_cost(comp, objective, &members);
        if best
            .as_ref()
            .is_none_or(|(b, c)| (cost, members.len()) < (*c, b.len()))
        {
            best = Some((Team::new(members), cost));
        }
    }
    best.map(|(team, _)| team)
        .ok_or(TfsnError::NoCompatibleTeam)
}

/// The least (cost, size) over the subsets of the relevant users (holders
/// of a task skill, plus the designated members) that cover the task and
/// are admitted: what the exhaustive solver must reach under every
/// objective, with its errors.
fn reference_exhaustive(
    instance: &TfsnInstance<'_>,
    comp: &dyn Compatibility,
    task: &Task,
    objective: &Objective,
) -> Result<(u64, usize), TfsnError> {
    use tfsn_core::team::exhaustive::MAX_RELEVANT_USERS;
    let Some(base) = reference_preamble(instance, comp, task, objective)? else {
        return Ok((reference_cost(comp, objective, &[]), 0));
    };
    let skills = instance.skills();
    let mut relevant = base;
    for &s in task.skills() {
        relevant.extend(
            skills
                .users_with_skill(s)
                .iter()
                .map(|&u| NodeId::new(u as usize)),
        );
    }
    relevant.sort_unstable();
    relevant.dedup();
    if relevant.len() > MAX_RELEVANT_USERS {
        return Err(TfsnError::SearchBudgetExceeded);
    }
    let subset = |mask: u32| -> Vec<NodeId> {
        (0..relevant.len())
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| relevant[i])
            .collect()
    };
    (1u32..1 << relevant.len())
        .map(subset)
        .filter(|m| reference_qualifies(skills, comp, task, objective, m))
        .map(|m| (reference_cost(comp, objective, &m), m.len()))
        .min()
        .ok_or(TfsnError::NoCompatibleTeam)
}

/// Whether `members` cover the task and are admitted.
fn reference_qualifies(
    skills: &SkillAssignment,
    comp: &dyn Compatibility,
    task: &Task,
    objective: &Objective,
    members: &[NodeId],
) -> bool {
    task.is_covered_by(&Team::new(members.to_vec()).covered_skills(skills))
        && reference_admits(comp, objective, members)
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

/// Ten skills: user `u` holds skill `u % 10`, plus one more where the top
/// two bits of its grant are set; the task is the lowest (at most three)
/// set bits of `task_bits`. Few users hold a task skill, so every subset
/// of them can be enumerated.
fn sparse_instance(users: usize, grants: &[u8], task_bits: u32) -> (SkillAssignment, Task) {
    let mut skills = SkillAssignment::new(10, users);
    for u in 0..users {
        skills.grant(u, SkillId::new(u % 10));
        let g = grants[u % grants.len()];
        if g & 0xC0 == 0xC0 {
            skills.grant(u, SkillId::new(usize::from(g) % 10));
        }
    }
    let task_skills = (0..8).filter(|s| task_bits >> s & 1 == 1).take(3);
    (skills, Task::new(task_skills.map(SkillId::new)))
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

    /// Synergy and Constrained through `Solver::solve_objective_with_scratch`
    /// return exactly what their definitions return, same team or same
    /// error: the greedy under every algorithm and both the default and a
    /// capped config, Constrained with and without designated members, size
    /// budget and distance bound; and the exhaustive solver, under these and
    /// `MinTeam`, a team of the least (cost, size) any qualifying subset
    /// reaches. Every kind, on the materialised and the budgeted lazy tier.
    #[test]
    fn objectives_match_definition_oracle(
        g in arb_graph(),
        grants in prop::collection::vec(0u32..256, 1..26),
        skewed in prop::bool::ANY,
        task_bits in 1u32..256,
        caps in (1usize..6, 1usize..6, 0u64..1000),
        synergy in prop::bool::ANY,
        include in prop::collection::vec(0usize..64, 0..3),
        size in (prop::bool::ANY, 1usize..6),
        distance in (prop::bool::ANY, 1u32..5),
    ) {
        use std::sync::Arc;
        use tfsn_core::compat::{estimated_row_bytes, LazyCompatibility, ScalarOnly};
        let users = g.node_count();
        let grants: Vec<u8> = grants.iter().map(|&b| b as u8).collect();
        let (skills, task) = oracle_instance(users, &grants, skewed, task_bits);
        let inst = TfsnInstance::new(&g, &skills);
        let (sparse_skills, sparse_task) = sparse_instance(users, &grants, task_bits);
        let sparse = TfsnInstance::new(&g, &sparse_skills);
        let configs = [
            GreedyConfig::default(),
            GreedyConfig {
                max_seeds: Some(caps.0),
                skill_degree_cap: Some(caps.1),
                random_seed: caps.2,
            },
        ];
        let objective = if synergy {
            Objective::Synergy
        } else {
            Objective::Constrained {
                // One index past the last user is out of range.
                include: include.iter().map(|&u| u % (users + 1)).collect(),
                max_size: size.0.then_some(size.1),
                max_distance: distance.0.then_some(distance.1),
            }
        };
        let mut scratch = SolveScratch::new();
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
                let expected = reference_objective_greedy(&inst, &scalar, &task, &objective, config);
                for algorithm in TeamAlgorithm::ALL {
                    let solver = Solver::Greedy { algorithm, config: config.clone() };
                    for (tier, comp) in tiers {
                        let got = solver.solve_objective_with_scratch(
                            &inst, comp, &task, &objective, &mut scratch,
                        );
                        prop_assert_eq!(
                            &got, &expected,
                            "{}/{}/{} {:?} {:?}: greedy diverged from the definition",
                            kind, tier, algorithm, objective, config
                        );
                    }
                }
            }
            for objective in [&Objective::MinTeam, &objective] {
                let expected = reference_exhaustive(&sparse, &scalar, &sparse_task, objective)
                    .map(|(cost, size)| (true, cost, size));
                for (tier, comp) in tiers {
                    let got = Solver::Exhaustive
                        .solve_objective_with_scratch(&sparse, comp, &sparse_task, objective, &mut scratch)
                        .map(|team| {
                            let m = team.members();
                            let qualifies =
                                reference_qualifies(&sparse_skills, &scalar, &sparse_task, objective, m);
                            (qualifies, reference_cost(&scalar, objective, m), m.len())
                        });
                    prop_assert_eq!(
                        &got, &expected,
                        "{}/{} {:?}: exhaustive missed the least (cost, size)", kind, tier, objective
                    );
                }
            }
        }
    }
}
