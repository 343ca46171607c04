//! `bench-report` — in-process timings of the pieces under the serving
//! path, written as one JSON report.
//!
//! Each measurement question has one home: the paper's tables and figures
//! come from the `tfsn-experiments` binaries, end-to-end serving through
//! real `tfsn serve-http` processes from perfbench (`perfbench/`), and the
//! in-process timings below from this binary. Every loop-timed group runs
//! its variants round-robin, one warm-up round and then 5 samples (11 in a
//! full run), and reports the median and the interquartile range in ns per
//! operation.
//!
//! Measured groups:
//!
//! * `figure2_greedy/<mix>/<kind>/<alg>/{masked,scalar}` — the greedy
//!   solver on a materialised relation through two paths: the
//!   word-parallel [`CandidateMask`] fast path and [`ScalarOnly`] (packed
//!   rows hidden, so scalar pair probes — the live alternative the solver
//!   falls back to). The `<mix>` is `random` (figure2-style coverable
//!   tasks) or `popular` (tasks over the most-held skills, the
//!   growth-dominated regime). The derived `speedups` list is scalar ÷
//!   masked: what the packed-row path gains over the live alternative,
//!   below 1 where it loses.
//! * `skill_degrees/<mix>/<kind>/{cold,warm}` — the least-compatible-first
//!   degree pass ([`TaskSkillDegrees`]) on `epinions:0.1` with the served
//!   default config (every holder counted), per task of the `popular` and
//!   `random` (k = 4) mixes. `cold` runs it over a [`CompatibilityMatrix`],
//!   which never memoises, so every skill pair is counted from rows;
//!   `warm` over a filled, assignment-bound row store through one
//!   [`RowTracker`] per task, as a query does, after the untimed warm-up
//!   round has filled the snapshot's pair-count memo (as far as its bound
//!   of one entry per user lets it).
//! * `algo1/signed_bfs/<n>n` — one Algorithm 1 search ([`signed_bfs`])
//!   from node 0 on a generated social network of `n` nodes and `5n`
//!   edges, 20% negative: the kernel behind on-demand rows, repair
//!   recomputes and the SPM fill. Same sizes in quick and full runs.
//! * `engine_row_mode_batch` — a batch served from a fresh row store under
//!   a 32 KiB budget per kind, the only timed eviction pressure (the
//!   `mutate_mix` reader's rows all stay resident). The `row_mode` section
//!   reports resident rows and evictions against the rows the budget holds.
//! * `mutation_interleave` — live-update throughput: windows of edge sign
//!   flips applied through `Engine::mutate_batch`, each followed by a query
//!   burst, on one long-lived engine, against rebuilding a fresh engine
//!   (and re-warming every relation) after every mutation — a server
//!   without incremental updates must stay serveable after each
//!   acknowledged write, so it cannot coalesce the window. The `speedup`
//!   is rebuild ÷ live.
//! * `repair` — what one resident `nne` row costs to patch in place under
//!   a batch of sign flips (`compat::repair`) against recomputing it from
//!   scratch.
//! * `replication_lag` — a WAL-backed primary absorbs a flappy mutation
//!   storm, a rows-resident follower replays it through batched
//!   `mutate_batch` windows, and the report carries the follower's row
//!   builds against the same log folded one record at a time with a read
//!   sweep after every record. Timed once: what it checks is the row
//!   counts.
//! * `objectives/<label>` — one warm engine serving the same query
//!   workload under every team objective (`min_team` via the default
//!   objective-less path, `synergy`, `constrained`), with each objective's
//!   solved count and a sample score.
//! * `durability/<policy>` — the slashdot mutation interleave with a
//!   write-ahead log attached under each fsync policy (`off`, `batch`,
//!   `always`), against the same interleave with no log; the section
//!   carries each policy's overhead ratio.
//! * `telemetry_overhead` — the cost of one telemetry `record()` call
//!   (three relaxed atomics), so the "histograms sit on the query hot path
//!   without a measurable cost" claim in `docs/OBSERVABILITY.md` stays a
//!   number, not an assertion.
//!
//! Usage: `bench-report [--quick] [--output PATH]` — the default output is
//! `bench-report.local.json`.
//!
//! [`CandidateMask`]: tfsn_core::team::CandidateMask
//! [`ScalarOnly`]: tfsn_core::compat::ScalarOnly
//! [`TaskSkillDegrees`]: tfsn_core::skill_compat::TaskSkillDegrees
//! [`CompatibilityMatrix`]: tfsn_core::compat::CompatibilityMatrix
//! [`RowTracker`]: tfsn_core::compat::RowTracker
//! [`signed_bfs`]: tfsn_core::compat::sp::signed_bfs

use std::io::Write;
use std::time::Instant;

use serde::Serialize;
use signed_graph::NodeId;
use tfsn_core::compat::{
    estimated_row_bytes, Compatibility, CompatibilityKind, CompatibilityMatrix, EngineConfig,
    ScalarOnly,
};
use tfsn_core::team::greedy::{solve_greedy, GreedyConfig};
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::{Solver, TfsnInstance};
use tfsn_engine::telemetry::LatencyHistogram;
use tfsn_engine::{BatchOptions, Deployment, Engine, EngineOptions, StorePolicy, TeamQuery};
use tfsn_skills::taskgen::random_coverable_tasks;

/// One measured group: the median and interquartile range, in ns per
/// operation, over `samples` timed runs of `ops_per_iter` operations each.
#[derive(Debug, Serialize)]
struct Group {
    name: String,
    median_ns_per_op: u64,
    /// `None` for a group timed once.
    iqr_ns_per_op: Option<u64>,
    ops_per_iter: u64,
    samples: usize,
}

/// One variant's timing out of [`measure_interleaved`].
#[derive(Debug, Clone, Copy)]
struct Measured {
    median_ns_per_op: u64,
    iqr_ns_per_op: u64,
    samples: usize,
}

impl Measured {
    /// The order statistics at n/2 (median), n/4 and 3n/4 of the samples.
    fn from_samples(mut ns_per_op: Vec<u64>) -> Measured {
        ns_per_op.sort_unstable();
        let n = ns_per_op.len();
        Measured {
            median_ns_per_op: ns_per_op[n / 2],
            iqr_ns_per_op: ns_per_op[3 * n / 4] - ns_per_op[n / 4],
            samples: n,
        }
    }

    fn group(self, name: String, ops_per_iter: u64) -> Group {
        Group {
            name,
            median_ns_per_op: self.median_ns_per_op,
            iqr_ns_per_op: Some(self.iqr_ns_per_op),
            ops_per_iter,
            samples: self.samples,
        }
    }
}

/// The on-demand row store's residency under a fixed byte budget, read
/// off the last sample's engine.
#[derive(Debug, Serialize)]
struct RowModeReport {
    memory_budget_bytes: u64,
    nodes: u64,
    packed_row_bytes: u64,
    /// Rows the budget holds in the packed layout (budget / packed row).
    packed_capacity_rows: u64,
    /// Rows actually resident after the batch.
    resident_rows: u64,
    row_builds: u64,
    row_evictions: u64,
}

/// The live-mutation throughput measurement (see the module docs).
#[derive(Debug, Serialize)]
struct MutationBenchReport {
    /// Deployment the interleave ran against.
    deployment: String,
    /// Relation kinds warmed and queried each round.
    kinds: Vec<String>,
    /// Rounds per sample (one window of sign flips + one query burst each).
    rounds: u64,
    /// Sign flips per window. The live engine absorbs each window as one
    /// `mutate_batch`; the rebuild baseline pays one full rebuild per flip.
    mutations_per_round: u64,
    /// Queries answered after each window.
    queries_per_round: u64,
    /// Mutations applied on the live engine, over the warm-up and every
    /// sample.
    mutations_applied: u64,
    /// Rows the live engine invalidated over the same runs.
    rows_invalidated: u64,
    /// Rows `compat::repair` patched in place instead of invalidating.
    rows_repaired: u64,
    /// Rebuild median ÷ live median, ns per operation.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    /// CPU cores visible to this run.
    host_cores: u64,
    groups: Vec<Group>,
    /// `figure2_greedy` speedup per (mix, kind, algorithm): scalar ÷ masked
    /// median ns/op.
    speedups: Vec<(String, f64)>,
    row_mode: RowModeReport,
    mutation: MutationBenchReport,
    repair: RepairBenchReport,
    replication_lag: ReplicationLagReport,
    objectives: ObjectiveBenchReport,
    durability: DurabilityBenchReport,
}

/// Timed samples per variant of every loop-timed group.
fn samples(quick: bool) -> usize {
    if quick {
        5
    } else {
        11
    }
}

/// Times the variants round-robin — one sample of each per round — so no
/// variant is measured wholesale in the cache state its predecessor left
/// behind (the matrices here are cache-sized; back-to-back blocks hand the
/// first-measured variant the cold samples). Returns the median and IQR
/// ns/op per variant.
fn measure_interleaved<const N: usize>(
    samples: usize,
    ops: u64,
    mut variants: [&mut dyn FnMut(); N],
) -> [Measured; N] {
    for v in variants.iter_mut() {
        v(); // warm-up round
    }
    let mut per_variant: [Vec<u64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (v, out) in variants.iter_mut().zip(per_variant.iter_mut()) {
            let start = Instant::now();
            v();
            out.push(start.elapsed().as_nanos() as u64 / ops.max(1));
        }
    }
    per_variant.map(Measured::from_samples)
}

/// Tasks over the most-held skills: the growth-dominated regime, where a
/// skill's holder list (the greedy candidate set) has hundreds of users and
/// the per-candidate × per-member compatibility probes dominate — exactly
/// the loop the candidate mask collapses to one bit probe.
fn popular_tasks(
    skills: &tfsn_skills::assignment::SkillAssignment,
    k: usize,
    count: u64,
) -> Vec<tfsn_skills::task::Task> {
    use tfsn_skills::SkillId;
    let mut by_freq: Vec<usize> = (0..skills.skill_count()).collect();
    by_freq.sort_unstable_by_key(|&s| std::cmp::Reverse(skills.skill_frequency(SkillId::new(s))));
    let top: Vec<usize> = by_freq.into_iter().take(40).collect();
    (0..count)
        .map(|seed| {
            tfsn_skills::task::Task::new(
                (0..k).map(|i| SkillId::new(top[(seed as usize * 7 + i * 3) % top.len()])),
            )
        })
        .collect()
}

/// Random coverable tasks solved per `figure2_greedy/random/*` sample, in
/// quick and full runs alike. A task takes 2–10 µs, so a sample of 1,000
/// lasts milliseconds, long enough for timer and scheduler noise to stay a
/// small part of it (at 10 tasks, under 0.1 ms, IQRs reached a third of the
/// median).
const RANDOM_TASKS: usize = 1_000;

fn greedy_groups(quick: bool, groups: &mut Vec<Group>, speedups: &mut Vec<(String, f64)>) {
    let dataset = tfsn_datasets::epinions(0.1);
    let instance = TfsnInstance::new(&dataset.graph, &dataset.skills);
    let engine_cfg = EngineConfig::default();
    let greedy_cfg = GreedyConfig {
        max_seeds: Some(40),
        skill_degree_cap: Some(64),
        ..Default::default()
    };
    // Two task mixes: the figure2-style random coverable tasks (k = 5), and
    // popular-skill tasks (k = 12) where candidate filtering dominates.
    let workloads: Vec<(&str, Vec<tfsn_skills::task::Task>)> = vec![
        (
            "random",
            random_coverable_tasks(&dataset.skills, 5, RANDOM_TASKS, 21),
        ),
        ("popular", popular_tasks(&dataset.skills, 12, 10)),
    ];
    let kinds: &[CompatibilityKind] = if quick {
        &[CompatibilityKind::Spa]
    } else {
        &[CompatibilityKind::Spa, CompatibilityKind::Nne]
    };
    for &kind in kinds {
        let comp = CompatibilityMatrix::build_parallel(&dataset.graph, kind, &engine_cfg, 4);
        for (mix, tasks) in &workloads {
            for alg in [TeamAlgorithm::LCMD, TeamAlgorithm::RFMD] {
                let solve_all = |comp: &dyn Compatibility| {
                    for task in tasks {
                        std::hint::black_box(
                            solve_greedy(&instance, comp, task, alg, &greedy_cfg).ok(),
                        );
                    }
                };
                let scalar_view = ScalarOnly(&comp);
                let [masked, scalar] = measure_interleaved(
                    samples(quick),
                    tasks.len() as u64,
                    [&mut || solve_all(&comp), &mut || solve_all(&scalar_view)],
                );
                let label = format!("{mix}/{}/{}", kind.label(), alg.label());
                let speedup =
                    scalar.median_ns_per_op as f64 / masked.median_ns_per_op.max(1) as f64;
                eprintln!(
                    "figure2_greedy/{label}: masked {} ns/op, scalar {} ns/op \
                     -> {speedup:.2}x vs scalar",
                    masked.median_ns_per_op, scalar.median_ns_per_op,
                );
                for (variant, m) in [("masked", masked), ("scalar", scalar)] {
                    groups.push(m.group(
                        format!("figure2_greedy/{label}/{variant}"),
                        tasks.len() as u64,
                    ));
                }
                speedups.push((label, speedup));
            }
        }
    }
}

fn skill_degree_groups(quick: bool, groups: &mut Vec<Group>) {
    use std::sync::Arc;
    use tfsn_core::compat::{LazyCompatibility, RowTracker};
    use tfsn_core::skill_compat::TaskSkillDegrees;

    let dataset = tfsn_datasets::epinions(0.1);
    let skills = Arc::new(dataset.skills.clone());
    let graph = Arc::new(dataset.graph.clone());
    let cap = GreedyConfig::default().skill_degree_cap;
    let engine_cfg = EngineConfig::default();
    let workloads = [
        ("popular", popular_tasks(&skills, 12, 10)),
        (
            "random",
            random_coverable_tasks(&skills, 4, RANDOM_TASKS, 21),
        ),
    ];
    let kinds: &[CompatibilityKind] = if quick {
        &[CompatibilityKind::Spa]
    } else {
        &[CompatibilityKind::Spa, CompatibilityKind::Nne]
    };
    for &kind in kinds {
        let matrix = CompatibilityMatrix::build_parallel(&dataset.graph, kind, &engine_cfg, 4);
        let store = LazyCompatibility::new(graph.clone(), kind, engine_cfg.clone())
            .with_skills(skills.clone())
            .filled(4);
        for (mix, tasks) in &workloads {
            let degrees = |comp: &dyn Compatibility, task| {
                std::hint::black_box(TaskSkillDegrees::compute_capped(comp, &skills, task, cap));
            };
            let [cold, warm] = measure_interleaved(
                samples(quick),
                tasks.len() as u64,
                [
                    &mut || tasks.iter().for_each(|task| degrees(&matrix, task)),
                    &mut || {
                        for task in tasks {
                            degrees(&RowTracker::new(&store), task);
                        }
                    },
                ],
            );
            let label = format!("skill_degrees/{mix}/{}", kind.label());
            eprintln!(
                "{label}: cold {} ns/task (IQR {}), warm {} ns/task (IQR {})",
                cold.median_ns_per_op,
                cold.iqr_ns_per_op,
                warm.median_ns_per_op,
                warm.iqr_ns_per_op,
            );
            for (variant, m) in [("cold", cold), ("warm", warm)] {
                groups.push(m.group(format!("{label}/{variant}"), tasks.len() as u64));
            }
        }
    }
}

fn algo1_groups(quick: bool, groups: &mut Vec<Group>) {
    use signed_graph::csr::CsrGraph;
    use signed_graph::generators::{social_network, SocialNetworkConfig};
    use tfsn_core::compat::sp::signed_bfs;

    const NODES: [usize; 3] = [1_000, 4_000, 16_000];
    let graphs = NODES.map(|nodes| {
        CsrGraph::from_graph(&social_network(&SocialNetworkConfig {
            nodes,
            edges: 5 * nodes,
            negative_fraction: 0.2,
            seed: 9,
            ..Default::default()
        }))
    });
    let mut searches = graphs.each_ref().map(|csr| {
        move || {
            std::hint::black_box(signed_bfs(csr, NodeId::new(0)));
        }
    });
    let measured = measure_interleaved(
        samples(quick),
        1,
        searches.each_mut().map(|f| f as &mut dyn FnMut()),
    );
    for (nodes, m) in NODES.into_iter().zip(measured) {
        eprintln!(
            "algo1/signed_bfs/{nodes}n: {} ns per search (IQR {} ns)",
            m.median_ns_per_op, m.iqr_ns_per_op
        );
        groups.push(m.group(format!("algo1/signed_bfs/{nodes}n"), 1));
    }
}

fn row_mode_report(quick: bool, groups: &mut Vec<Group>) -> RowModeReport {
    let deployment = Deployment::from_dataset(tfsn_datasets::epinions(0.05));
    let nodes = deployment.user_count();
    let budget = 32 << 10; // 32 KiB per kind: a few dozen packed rows
    let n_queries = if quick { 64 } else { 256 };
    // A bounded solver keeps the deliberately thrashing LRU measurable.
    let bounded = Solver::Greedy {
        algorithm: TeamAlgorithm::LCMD,
        config: GreedyConfig {
            max_seeds: Some(2),
            skill_degree_cap: Some(8),
            random_seed: 1,
        },
    };
    let queries: Vec<TeamQuery> = (0..n_queries)
        .map(|i| {
            TeamQuery::new([i % 11, (i * 3 + 1) % 11, (i * 5 + 2) % 11])
                .with_id(i as u64)
                .with_kind(CompatibilityKind::Spa)
                .with_solver(bounded.clone())
        })
        .collect();
    // Every sample serves the batch on a fresh engine, so each starts from
    // an empty store and pays the same builds and evictions.
    let mut engine = None;
    let [measured] = measure_interleaved(
        samples(quick),
        n_queries as u64,
        [&mut || {
            let fresh = Engine::with_options(
                deployment.clone(),
                EngineOptions {
                    policy: StorePolicy::rows(Some(budget)),
                    ..Default::default()
                },
            );
            std::hint::black_box(fresh.batch(&queries, &BatchOptions::default()));
            engine = Some(fresh);
        }],
    );
    groups.push(measured.group(
        "engine_row_mode_batch/SPA/32K-budget".to_string(),
        n_queries as u64,
    ));

    let m = engine.expect("the batch ran").metrics();
    let packed = estimated_row_bytes(nodes);
    let report = RowModeReport {
        memory_budget_bytes: budget as u64,
        nodes: nodes as u64,
        packed_row_bytes: packed as u64,
        packed_capacity_rows: (budget / packed) as u64,
        resident_rows: m.resident_rows,
        row_builds: m.row_builds,
        row_evictions: m.row_evictions,
    };
    eprintln!(
        "row_mode: {} ns/query; {} resident rows under {} bytes ({} packed rows fit)",
        measured.median_ns_per_op,
        report.resident_rows,
        report.memory_budget_bytes,
        report.packed_capacity_rows,
    );
    report
}

/// Measures the live-mutation interleave against the rebuild-per-mutation
/// baseline on the slashdot deployment. Both sides apply the identical
/// mutation sequence (edge sign flips, round-robin over the edge list,
/// arriving in windows of `MUTATIONS_PER_ROUND`) and answer the identical
/// query bursts; the only difference is *how* relation state reaches the
/// post-mutation truth — one `mutate_batch` per window on one long-lived
/// engine (merged invalidation, in-place repair) vs a fresh engine
/// warm-built from scratch after every single mutation (the baseline must
/// stay serveable after each acknowledged write, so it cannot coalesce).
fn mutation_report(quick: bool, groups: &mut Vec<Group>) -> MutationBenchReport {
    use signed_graph::EdgeMutation;

    // The serving warm set: every evaluated kind stays resident on a real
    // server, so the rebuild baseline must re-materialise all of them per
    // mutation, while the live engine recomputes only what queries touch.
    let kinds = CompatibilityKind::EVALUATED;
    const MUTATIONS_PER_ROUND: usize = 4;
    let rounds: usize = if quick { 4 } else { 12 };
    let queries_per_round: usize = 8;
    let dataset_deployment = || Deployment::from_dataset(tfsn_datasets::slashdot());
    // The bounded greedy config the row-mode group also measures with: the
    // per-query row working set stays small, so what this group compares is
    // the *relation maintenance* cost — lazily recomputing the rows queries
    // actually touch vs rebuilding every row of every kind per mutation.
    let bounded = Solver::Greedy {
        algorithm: TeamAlgorithm::LCMD,
        config: GreedyConfig {
            max_seeds: Some(2),
            skill_degree_cap: Some(8),
            random_seed: 1,
        },
    };
    let queries: Vec<TeamQuery> = (0..queries_per_round)
        .map(|i| {
            TeamQuery::new([i % 9, (i * 3 + 1) % 9])
                .with_id(i as u64)
                .with_kind(kinds[i % kinds.len()])
                .with_solver(bounded.clone())
        })
        .collect();
    let batch = BatchOptions::with_threads(4);
    let base_edges: Vec<(NodeId, NodeId)> = {
        let d = dataset_deployment();
        d.graph().edges().iter().map(|e| (e.u, e.v)).collect()
    };
    // The window for round `r`: flip the current sign of edges
    // `r*W .. r*W + W` (mod |E|). Each side counts its own rounds across
    // its runs, so both apply the identical flips in the identical order
    // and serve the same evolving graph.
    let flip = |graph: &signed_graph::SignedGraph, index: usize| -> EdgeMutation {
        let (u, v) = base_edges[index % base_edges.len()];
        let sign = graph
            .sign(u, v)
            .expect("flipped edges never leave the graph")
            .flip();
        EdgeMutation::SetSign { u, v, sign }
    };

    // Incremental: one live engine, each window lands as one batch.
    let live = Engine::new(dataset_deployment());
    live.warm(&kinds);
    let mut live_round = 0;
    let mut incremental = || {
        for _ in 0..rounds {
            let window: Vec<EdgeMutation> = (0..MUTATIONS_PER_ROUND)
                // Flips compose within the window (an edge flipped twice in
                // one batch must see its intermediate sign), but the
                // round-robin stride never revisits an edge inside one
                // window, so building from the pre-window graph is exact.
                .map(|j| flip(&live.graph(), live_round * MUTATIONS_PER_ROUND + j))
                .collect();
            live.mutate_batch(&window).expect("edges exist");
            std::hint::black_box(live.batch(&queries, &batch));
            live_round += 1;
        }
    };

    // Baseline: after every single mutation, rebuild a fresh engine from
    // the mutated graph and re-warm every kind the queries use (what
    // serving would have to do without incremental updates: any edge
    // change means a full relation rebuild, and each write is acknowledged
    // — and must be serveable — before the next arrives).
    let mut rebuild_deployment = dataset_deployment();
    let mut rebuild_round = 0;
    let mut rebuild = || {
        for _ in 0..rounds {
            let mut last: Option<Engine> = None;
            for j in 0..MUTATIONS_PER_ROUND {
                let graph = rebuild_deployment.graph();
                let mutation = flip(graph, rebuild_round * MUTATIONS_PER_ROUND + j);
                let mut mutated = graph.clone();
                mutated.apply_mutation(&mutation).expect("edge exists");
                rebuild_deployment = Deployment::new(
                    "slashdot-rebuilt",
                    mutated,
                    rebuild_deployment.universe().clone(),
                    rebuild_deployment.skills().clone(),
                )
                .expect("shape unchanged");
                let fresh = Engine::new(rebuild_deployment.clone());
                fresh.warm(&kinds);
                last = Some(fresh);
            }
            let engine = last.expect("at least one mutation per round");
            std::hint::black_box(engine.batch(&queries, &batch));
            rebuild_round += 1;
        }
    };

    let ops = (rounds * (queries_per_round + MUTATIONS_PER_ROUND)) as u64;
    let [incremental_m, rebuild_m] =
        measure_interleaved(samples(quick), ops, [&mut incremental, &mut rebuild]);
    groups.push(incremental_m.group("mutation_interleave/slashdot/incremental".to_string(), ops));
    groups.push(rebuild_m.group("mutation_interleave/slashdot/full-rebuild".to_string(), ops));
    let live_metrics = live.metrics();
    let report = MutationBenchReport {
        deployment: "slashdot".to_string(),
        kinds: kinds.iter().map(|k| k.label().to_string()).collect(),
        rounds: rounds as u64,
        mutations_per_round: MUTATIONS_PER_ROUND as u64,
        queries_per_round: queries_per_round as u64,
        mutations_applied: live_metrics.mutations_applied,
        rows_invalidated: live_metrics.rows_invalidated,
        rows_repaired: live.store().rows_repaired_count() as u64,
        speedup: rebuild_m.median_ns_per_op as f64 / incremental_m.median_ns_per_op.max(1) as f64,
    };
    eprintln!(
        "mutation: {} rounds x ({}-mutation window + {} queries): {} ns/op live vs \
         {} ns/op rebuild-per-mutation -> {:.2}x ({} rows invalidated, {} repaired in place)",
        report.rounds,
        report.mutations_per_round,
        report.queries_per_round,
        incremental_m.median_ns_per_op,
        rebuild_m.median_ns_per_op,
        report.speedup,
        report.rows_invalidated,
        report.rows_repaired
    );
    report
}

/// The row-repair micro-contrast (see the module docs): what one resident
/// row costs to patch in place vs to recompute from scratch. The live
/// engine's flip batches alternate each edge's sign back and forth, so the
/// graph (and therefore the per-iteration work) never drifts.
#[derive(Debug, Serialize)]
struct RepairBenchReport {
    deployment_spec: String,
    nodes: u64,
    /// Sign flips per `mutate_batch` call.
    flips_per_batch: u64,
    /// Resident rows `compat::repair` patched per batch (counter-measured).
    rows_repaired_per_batch: u64,
    /// Rows the live engine rebuilt per batch — 0 means every affected
    /// resident row was repaired, none fell back to invalidation.
    rows_rebuilt_per_batch: u64,
    repair_ns_per_row: u64,
    rebuild_ns_per_row: u64,
    /// `rebuild_ns_per_row / repair_ns_per_row` — the per-row win.
    per_row_gain: f64,
}

fn repair_report(quick: bool, groups: &mut Vec<Group>) -> RepairBenchReport {
    use signed_graph::EdgeMutation;
    use tfsn_engine::registry::DeploymentSource;

    const SPEC: &str = "synthetic:nodes=600,edges=2400,skills=32,seed=7";
    const KIND: CompatibilityKind = CompatibilityKind::Nne;
    const FLIPS: usize = 8;
    let rows_options = || EngineOptions {
        policy: StorePolicy::rows(None),
        ..Default::default()
    };
    let base = DeploymentSource::parse(SPEC)
        .expect("valid synthetic spec")
        .load();
    // Fills every row of KIND (repair only ever patches resident rows).
    let sweep = |engine: &Engine| {
        let fetched = engine.store().fetch(KIND);
        let scope = fetched.scope();
        for u in 0..engine.graph().node_count() {
            std::hint::black_box(scope.compat().packed_row(NodeId::new(u)));
        }
    };
    let live = Engine::with_options(base.clone(), rows_options());
    sweep(&live);
    let nodes = live.graph().node_count();
    // FLIPS edges spread across the edge list; every batch flips each
    // edge's current sign, so consecutive batches undo each other.
    let edges: Vec<(NodeId, NodeId)> = live.graph().edges().iter().map(|e| (e.u, e.v)).collect();
    let targets: Vec<(NodeId, NodeId)> =
        (0..FLIPS).map(|i| edges[i * edges.len() / FLIPS]).collect();
    let flip_batch = |engine: &Engine| -> Vec<EdgeMutation> {
        targets
            .iter()
            .map(|&(u, v)| EdgeMutation::SetSign {
                u,
                v,
                sign: engine
                    .graph()
                    .sign(u, v)
                    .expect("flipped edges never leave the graph")
                    .flip(),
            })
            .collect()
    };
    // The per-batch constants, measured once outside the timed loop.
    let builds_before = live.store().row_build_count();
    let repaired_before = live.store().rows_repaired_count();
    live.mutate_batch(&flip_batch(&live))
        .expect("flips on existing edges apply");
    sweep(&live);
    let rows_repaired_per_batch = (live.store().rows_repaired_count() - repaired_before) as u64;
    let rows_rebuilt_per_batch = (live.store().row_build_count() - builds_before) as u64;

    let [repair_m] = measure_interleaved(
        samples(quick),
        rows_repaired_per_batch.max(1),
        [&mut || {
            live.mutate_batch(&flip_batch(&live))
                .expect("flips on existing edges apply");
            sweep(&live); // resident rows serve patched — no rebuild work here
        }],
    );
    let [rebuild_m] = measure_interleaved(
        samples(quick),
        nodes as u64,
        [&mut || {
            let fresh = Engine::with_options(base.clone(), rows_options());
            sweep(&fresh); // every row recomputed from scratch
        }],
    );

    for (variant, m, ops) in [
        ("repair-in-place", repair_m, rows_repaired_per_batch.max(1)),
        ("rebuild-from-scratch", rebuild_m, nodes as u64),
    ] {
        groups.push(m.group(format!("repair/nne_sign_flip/{variant}"), ops));
    }
    let report = RepairBenchReport {
        deployment_spec: SPEC.to_string(),
        nodes: nodes as u64,
        flips_per_batch: FLIPS as u64,
        rows_repaired_per_batch,
        rows_rebuilt_per_batch,
        repair_ns_per_row: repair_m.median_ns_per_op,
        rebuild_ns_per_row: rebuild_m.median_ns_per_op,
        per_row_gain: rebuild_m.median_ns_per_op as f64 / repair_m.median_ns_per_op.max(1) as f64,
    };
    eprintln!(
        "repair: {} rows patched per {}-flip batch ({} rebuilt): {} ns/row \
         repaired vs {} ns/row rebuilt -> {:.2}x per row",
        report.rows_repaired_per_batch,
        report.flips_per_batch,
        report.rows_rebuilt_per_batch,
        report.repair_ns_per_row,
        report.rebuild_ns_per_row,
        report.per_row_gain,
    );
    report
}

/// The follower-side replication measurement (see the module docs).
#[derive(Debug, Serialize)]
struct ReplicationLagReport {
    deployment_spec: String,
    /// Records in the primary's log when the follower starts.
    mutations: u64,
    /// Records per pulled window (each window replays as one batch).
    max_per_pull: u64,
    /// Wall-clock from follower start until `replicated_seq == mutations`
    /// (includes poll intervals).
    catchup_seconds: f64,
    /// Row builds on the follower across the batched catch-up (rows swept
    /// resident before the storm, swept again after convergence).
    follower_row_builds: u64,
    /// Rows the follower repaired in place instead of rebuilding.
    follower_rows_repaired: u64,
    /// The identical log folded one record at a time with a read sweep
    /// after every record — the pre-batching replay cost.
    unbatched_row_builds: u64,
    /// `unbatched_row_builds / follower_row_builds` — the collapse figure.
    build_reduction: f64,
}

fn replication_lag_report(quick: bool, groups: &mut Vec<Group>) -> ReplicationLagReport {
    use signed_graph::{EdgeMutation, Sign};
    use std::sync::Arc;
    use tfsn_engine::cluster::{replica, FollowerOptions};
    use tfsn_engine::registry::{
        DeploymentConfig, DeploymentRegistry, DeploymentSource, WalConfig,
    };
    use tfsn_engine::server::{HttpServer, ServerOptions};
    use tfsn_engine::service::Service;

    const SPEC: &str = "synthetic:nodes=400,edges=1600,skills=32,seed=13";
    const DEPLOYMENT: &str = "lag";
    const KIND: CompatibilityKind = CompatibilityKind::Spo;
    const MAX_PER_PULL: usize = 64;
    let mutations_count: usize = if quick { 100 } else { 400 };
    let rows_options = || EngineOptions {
        policy: StorePolicy::rows(None),
        ..Default::default()
    };
    let sweep = |engine: &Engine| {
        let fetched = engine.store().fetch(KIND);
        let scope = fetched.scope();
        for u in 0..engine.graph().node_count() {
            std::hint::black_box(scope.compat().packed_row(NodeId::new(u)));
        }
    };
    // The same flappy storm shape the follower convergence test replays:
    // a small node range churned by inserts, removes and re-signs, so
    // batched windows can cancel work record-at-a-time replay pays for.
    let mutations: Vec<EdgeMutation> = (0..mutations_count)
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

    let dir = std::env::temp_dir().join(format!("tfsn-bench-lag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wal scratch dir");
    let primary_service = {
        let registry = DeploymentRegistry::new(vec![DeploymentConfig::new(
            DEPLOYMENT,
            DeploymentSource::parse(SPEC).expect("valid synthetic spec"),
        )])
        .expect("primary deployment")
        .with_wal(WalConfig::new(&dir));
        Arc::new(Service::new(registry))
    };
    let primary_engine = primary_service.engine(None).expect("load primary");
    let primary = HttpServer::bind(
        primary_service.clone(),
        "127.0.0.1:0",
        ServerOptions {
            threads: 2,
            ..Default::default()
        },
    )
    .expect("bind primary");
    for m in &mutations {
        let _ = primary_engine.mutate(m); // rejections are WAL-logged too
    }

    // The follower: rows resident up front, so the storm hits live state.
    let follower_service = {
        let registry = DeploymentRegistry::new(vec![DeploymentConfig::new(
            DEPLOYMENT,
            DeploymentSource::parse(SPEC).expect("valid synthetic spec"),
        )
        .with_options(rows_options())])
        .expect("follower deployment");
        Arc::new(Service::new(registry))
    };
    let follower_engine = follower_service.engine(None).expect("load follower");
    sweep(&follower_engine);
    let catchup_start = Instant::now();
    let follower = replica::start(
        follower_service.clone(),
        FollowerOptions {
            primary: primary.addr(),
            poll: std::time::Duration::from_millis(10),
            max_per_pull: MAX_PER_PULL as u64,
        },
    );
    let deadline = catchup_start + std::time::Duration::from_secs(60);
    while follower_engine.replicated_seq() != Some(mutations_count as u64) {
        assert!(
            Instant::now() < deadline,
            "follower failed to replay {mutations_count} records within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let catchup = catchup_start.elapsed().as_secs_f64();
    follower.stop();
    sweep(&follower_engine);
    let follower_row_builds = follower_engine.store().row_build_count() as u64;
    let follower_rows_repaired = follower_engine.store().rows_repaired_count() as u64;
    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // The unbatched baseline: fold the identical log one record at a time
    // with a read sweep after every record (what the pre-batching follower
    // amounted to under live reads).
    let baseline = Engine::with_options(
        DeploymentSource::parse(SPEC)
            .expect("valid synthetic spec")
            .load(),
        rows_options(),
    );
    sweep(&baseline);
    let baseline_start = Instant::now();
    for m in &mutations {
        let _ = baseline.mutate(m);
        sweep(&baseline);
    }
    let baseline_wall = baseline_start.elapsed().as_secs_f64();
    let unbatched_row_builds = baseline.store().row_build_count() as u64;
    assert_eq!(
        format!("{:?}", follower_engine.graph().edges()),
        format!("{:?}", baseline.graph().edges()),
        "batched replay must converge on the same edge list the fold does"
    );

    for (variant, wall) in [
        ("batched-follower", catchup),
        ("unbatched-fold", baseline_wall),
    ] {
        groups.push(Group {
            name: format!("replication_lag/{variant}"),
            median_ns_per_op: (wall * 1e9) as u64 / (mutations_count as u64).max(1),
            iqr_ns_per_op: None,
            ops_per_iter: mutations_count as u64,
            samples: 1,
        });
    }
    let report = ReplicationLagReport {
        deployment_spec: SPEC.to_string(),
        mutations: mutations_count as u64,
        max_per_pull: MAX_PER_PULL as u64,
        catchup_seconds: catchup,
        follower_row_builds,
        follower_rows_repaired,
        unbatched_row_builds,
        build_reduction: unbatched_row_builds as f64 / follower_row_builds.max(1) as f64,
    };
    eprintln!(
        "replication_lag: {} records replayed in {:.3}s; follower built {} \
         rows (repaired {}) vs {} unbatched -> {:.1}x fewer rebuilds",
        report.mutations,
        report.catchup_seconds,
        report.follower_row_builds,
        report.follower_rows_repaired,
        report.unbatched_row_builds,
        report.build_reduction,
    );
    report
}

/// Measures the telemetry hot path itself: one `record()` call — three
/// relaxed atomics — on values spread across the histogram's bucket range.
/// This is the cost every instrumented operation pays per sample, so it is
/// the number backing the "no measurable overhead on the query path" claim;
/// compare it against any query group's ns/op to see the margin.
fn telemetry_overhead_group(quick: bool, groups: &mut Vec<Group>) {
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let hist = LatencyHistogram::default();
    let [measured] = measure_interleaved(
        samples(quick),
        ops,
        [&mut || {
            for i in 0..ops {
                // Vary the recorded value so bucket indexing is exercised
                // across octaves, not pinned to one hot cache line.
                hist.record(std::hint::black_box(i & 0xFFFF));
            }
        }],
    );
    eprintln!(
        "telemetry_overhead: {} ns per record() (IQR {} ns)",
        measured.median_ns_per_op, measured.iqr_ns_per_op
    );
    groups.push(measured.group("telemetry_overhead".to_string(), ops));
}

/// The per-objective serving measurement: one warm engine, the same query
/// workload solved under every team objective, with each objective's
/// solved count and a sample score.
#[derive(Debug, Serialize)]
struct ObjectiveBenchReport {
    deployment: String,
    kind: String,
    queries_per_iter: u64,
    results: Vec<ObjectiveResult>,
}

/// One objective's outcome over the benchmark workload.
#[derive(Debug, Serialize)]
struct ObjectiveResult {
    objective: String,
    median_ns_per_op: u64,
    /// Queries answered `ok` out of `queries_per_iter`.
    solved: u64,
    /// The first solved answer's score (`None` for `min_team`, which
    /// optimises without scoring).
    sample_score: Option<u64>,
}

fn objectives_report(quick: bool, groups: &mut Vec<Group>) -> ObjectiveBenchReport {
    use tfsn_engine::Objective;

    let ops: u64 = if quick { 200 } else { 1000 };
    let engine = Engine::new(Deployment::from_dataset(tfsn_datasets::slashdot()));
    let kind = CompatibilityKind::Spa;
    engine.warm(&[kind]);
    let variants: [(&str, Option<Objective>); 3] = [
        // No objective on the query: the default `MinTeam` solve.
        ("min_team", None),
        ("synergy", Some(Objective::Synergy)),
        (
            "constrained",
            Some(Objective::Constrained {
                include: Vec::new(),
                max_size: Some(6),
                max_distance: Some(4),
            }),
        ),
    ];
    let queries_for = |objective: &Option<Objective>| -> Vec<TeamQuery> {
        (0..ops)
            .map(|i| {
                let i = i as usize;
                let mut q = TeamQuery::new([i % 9, (i * 3 + 1) % 9, (i * 7 + 2) % 9])
                    .with_id(i as u64)
                    .with_kind(kind);
                q.objective = objective.clone();
                q
            })
            .collect()
    };
    let workloads: Vec<Vec<TeamQuery>> = variants.iter().map(|(_, o)| queries_for(o)).collect();
    let batch = BatchOptions::with_threads(2);
    let mut run0 = || {
        std::hint::black_box(engine.batch(&workloads[0], &batch));
    };
    let mut run1 = || {
        std::hint::black_box(engine.batch(&workloads[1], &batch));
    };
    let mut run2 = || {
        std::hint::black_box(engine.batch(&workloads[2], &batch));
    };
    let measured = measure_interleaved(samples(quick), ops, [&mut run0, &mut run1, &mut run2]);

    let mut results = Vec::new();
    for ((label, _), (workload, m)) in variants.iter().zip(workloads.iter().zip(measured)) {
        let answers = engine.batch(workload, &batch);
        let solved = answers
            .iter()
            .filter(|a| a.status == tfsn_engine::AnswerStatus::Ok)
            .count() as u64;
        let sample_score = answers
            .iter()
            .find(|a| a.status == tfsn_engine::AnswerStatus::Ok)
            .and_then(|a| a.score);
        eprintln!(
            "objectives/{label}: {} ns/op, {solved}/{ops} solved",
            m.median_ns_per_op
        );
        groups.push(m.group(format!("objectives/{label}"), ops));
        results.push(ObjectiveResult {
            objective: label.to_string(),
            median_ns_per_op: m.median_ns_per_op,
            solved,
            sample_score,
        });
    }
    ObjectiveBenchReport {
        deployment: "slashdot".to_string(),
        kind: kind.label().to_string(),
        queries_per_iter: ops,
        results,
    }
}

/// The WAL durability-overhead measurement: the slashdot mutation
/// interleave run with a write-ahead log attached under each fsync policy,
/// against the same interleave with no log at all.
#[derive(Debug, Serialize)]
struct DurabilityBenchReport {
    deployment: String,
    /// Sign flips per sample, each followed by a query burst.
    rounds: u64,
    queries_per_round: u64,
    policies: Vec<DurabilityPolicyResult>,
}

/// One fsync policy's cost over the interleave.
#[derive(Debug, Serialize)]
struct DurabilityPolicyResult {
    fsync: String,
    /// Median ns/op under this policy ÷ the no-WAL median — the
    /// `batch ≤ 1.15` figure.
    overhead: f64,
    /// Records appended over the warm-up and every sample (one per flip).
    wal_appends: u64,
    /// Bytes the log grew to.
    wal_bytes: u64,
}

fn durability_report(quick: bool, groups: &mut Vec<Group>) -> DurabilityBenchReport {
    use signed_graph::EdgeMutation;
    use tfsn_engine::{FsyncPolicy, Wal};

    let kinds = CompatibilityKind::EVALUATED;
    let rounds: usize = if quick { 4 } else { 12 };
    let queries_per_round: usize = 8;
    let bounded = Solver::Greedy {
        algorithm: TeamAlgorithm::LCMD,
        config: GreedyConfig {
            max_seeds: Some(2),
            skill_degree_cap: Some(8),
            random_seed: 1,
        },
    };
    let queries: Vec<TeamQuery> = (0..queries_per_round)
        .map(|i| {
            TeamQuery::new([i % 9, (i * 3 + 1) % 9])
                .with_id(i as u64)
                .with_kind(kinds[i % kinds.len()])
                .with_solver(bounded.clone())
        })
        .collect();
    let batch = BatchOptions::with_threads(4);
    let dataset_deployment = || Deployment::from_dataset(tfsn_datasets::slashdot());
    let base_edges: Vec<(NodeId, NodeId)> = {
        let d = dataset_deployment();
        d.graph().edges().iter().map(|e| (e.u, e.v)).collect()
    };
    let dir = std::env::temp_dir().join(format!("tfsn-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wal scratch dir");
    let wal_path = |policy: FsyncPolicy| dir.join(format!("slashdot-{}.wal", policy.label()));

    // One warm engine per side, the log (if any) attached before the first
    // flip. Every run applies the side's next `rounds` sign flips, each
    // followed by a query burst — identical work on every side; the log
    // appends (and their fsyncs) are the only difference.
    let sides = [
        None,
        Some(FsyncPolicy::Always),
        Some(FsyncPolicy::Batch),
        Some(FsyncPolicy::Off),
    ];
    let engines = sides.map(|policy| {
        let engine = Engine::new(dataset_deployment());
        engine.warm(&kinds);
        if let Some(policy) = policy {
            let path = wal_path(policy);
            std::fs::remove_file(&path).ok();
            let (wal, _) = Wal::open(&path, policy).expect("open bench wal");
            engine
                .attach_wal(wal)
                .unwrap_or_else(|_| panic!("fresh engine has no wal"));
        }
        engine
    });
    let (base_edges, queries, batch) = (&base_edges, &queries, &batch);
    let mut runs = engines.each_ref().map(|engine| {
        let mut round = 0;
        move || {
            for _ in 0..rounds {
                let (u, v) = base_edges[round % base_edges.len()];
                round += 1;
                let sign = engine
                    .graph()
                    .sign(u, v)
                    .expect("flipped edges never leave the graph")
                    .flip();
                engine
                    .mutate(&EdgeMutation::SetSign { u, v, sign })
                    .expect("edge exists");
                std::hint::black_box(engine.batch(queries, batch));
            }
        }
    });
    let ops = (rounds * (queries_per_round + 1)) as u64;
    let measured = measure_interleaved(
        samples(quick),
        ops,
        runs.each_mut().map(|f| f as &mut dyn FnMut()),
    );

    let baseline = measured[0];
    let mut policies = Vec::new();
    for ((policy, engine), m) in sides.iter().zip(&engines).zip(measured) {
        let label = policy.map_or("no-wal", FsyncPolicy::label);
        groups.push(m.group(format!("durability/slashdot/{label}"), ops));
        let Some(policy) = *policy else { continue };
        let overhead = m.median_ns_per_op as f64 / baseline.median_ns_per_op.max(1) as f64;
        let wal_appends = engine.wal().map(|w| w.appends()).unwrap_or(0);
        let wal_bytes = std::fs::metadata(wal_path(policy))
            .map(|m| m.len())
            .unwrap_or(0);
        eprintln!(
            "durability/{label}: {} ns/op vs {} ns/op no-wal -> {overhead:.3}x \
             ({wal_appends} appends, {wal_bytes} bytes)",
            m.median_ns_per_op, baseline.median_ns_per_op,
        );
        policies.push(DurabilityPolicyResult {
            fsync: label.to_string(),
            overhead,
            wal_appends,
            wal_bytes,
        });
    }
    drop(engines);
    std::fs::remove_dir_all(&dir).ok();
    DurabilityBenchReport {
        deployment: "slashdot".to_string(),
        rounds: rounds as u64,
        queries_per_round: queries_per_round as u64,
        policies,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut output = String::from("bench-report.local.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--output" => {
                output = args
                    .get(i + 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --output needs a value");
                        std::process::exit(2);
                    })
                    .clone();
                i += 2;
            }
            other => {
                eprintln!(
                    "error: unknown flag `{other}`\nusage: bench-report [--quick] [--output PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut groups = Vec::new();
    let mut speedups = Vec::new();
    greedy_groups(quick, &mut groups, &mut speedups);
    skill_degree_groups(quick, &mut groups);
    algo1_groups(quick, &mut groups);
    let row_mode = row_mode_report(quick, &mut groups);
    let mutation = mutation_report(quick, &mut groups);
    let repair = repair_report(quick, &mut groups);
    let replication_lag = replication_lag_report(quick, &mut groups);
    let objectives = objectives_report(quick, &mut groups);
    let durability = durability_report(quick, &mut groups);
    telemetry_overhead_group(quick, &mut groups);
    let report = Report {
        schema: "tfsn-bench-report/v11",
        quick,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        groups,
        speedups,
        row_mode,
        mutation,
        repair,
        replication_lag,
        objectives,
        durability,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let mut file =
        std::fs::File::create(&output).unwrap_or_else(|e| panic!("cannot create {output}: {e}"));
    writeln!(file, "{json}").expect("write report");
    eprintln!("wrote {output}");
}
