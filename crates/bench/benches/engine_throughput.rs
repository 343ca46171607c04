//! Engine serving throughput: cold per-query recomputation (what the
//! one-shot experiment binaries effectively did — rebuild the compatibility
//! matrix for every query) versus warm-cache batch serving through
//! `tfsn-engine`.
//!
//! Prints an explicit cold/warm comparison per SP-family relation before the
//! criterion measurements; the acceptance bar is a ≥5× advantage for the
//! warm path, which in practice is orders of magnitude.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use tfsn_core::compat::CompatibilityKind;
use tfsn_engine::{BatchOptions, Deployment, Engine, EngineOptions, StorePolicy, TeamQuery};

/// A ~1.4k-node deployment (Epinions emulation at 5%).
fn deployment() -> Deployment {
    Deployment::from_dataset(tfsn_datasets::epinions(0.05))
}

fn queries(kind: CompatibilityKind, n: usize) -> Vec<TeamQuery> {
    (0..n)
        .map(|i| {
            TeamQuery::new([i % 11, (i * 3 + 1) % 11, (i * 5 + 2) % 11])
                .with_id(i as u64)
                .with_kind(kind)
        })
        .collect()
}

/// One query served cold: a fresh engine, so the matrix is rebuilt — the
/// per-call cost of the pre-engine architecture.
fn cold_query_seconds(deployment: &Deployment, kind: CompatibilityKind) -> f64 {
    let q = queries(kind, 1).remove(0);
    let start = Instant::now();
    let engine = Engine::new(deployment.clone());
    black_box(engine.query(&q));
    start.elapsed().as_secs_f64()
}

/// Mean per-query time of a warm batch.
fn warm_query_seconds(engine: &Engine, kind: CompatibilityKind, n: usize) -> f64 {
    let batch = queries(kind, n);
    let start = Instant::now();
    black_box(engine.batch(&batch, &BatchOptions::default()));
    start.elapsed().as_secs_f64() / n as f64
}

fn bench_engine_throughput(c: &mut Criterion) {
    let deployment = deployment();
    println!(
        "\n=== engine_throughput preamble: {} ({} users, {} edges) ===",
        deployment.name(),
        deployment.user_count(),
        deployment.graph().edge_count()
    );

    // Explicit cold vs warm comparison for the SP family.
    let engine = Engine::new(deployment.clone());
    engine.warm(&[
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
    ]);
    for kind in [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
    ] {
        let cold = cold_query_seconds(&deployment, kind);
        let warm = warm_query_seconds(&engine, kind, 256);
        println!(
            "{kind}: cold per-query {:.1} ms, warm batch {:.3} ms/query -> {:.0}x speedup",
            cold * 1e3,
            warm * 1e3,
            cold / warm.max(1e-12)
        );
        assert!(
            cold >= 5.0 * warm,
            "{kind}: warm serving must be >=5x faster than cold recomputation \
             (cold {cold:.4}s, warm {warm:.6}s)"
        );
    }

    // Criterion measurements.
    let mut group = c.benchmark_group("engine_cold_single_query");
    group.sample_size(5);
    group.bench_function(BenchmarkId::from_parameter("SPA"), |b| {
        b.iter(|| black_box(cold_query_seconds(&deployment, CompatibilityKind::Spa)))
    });
    group.finish();

    let warm_batch = queries(CompatibilityKind::Spa, 256);
    let mut group = c.benchmark_group("engine_warm_batch_256q");
    group.throughput(Throughput::Elements(warm_batch.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("SPA"), |b| {
        b.iter(|| black_box(engine.batch(&warm_batch, &BatchOptions::default())))
    });
    group.finish();

    // Thread scaling of the warm batch.
    let mut group = c.benchmark_group("engine_warm_batch_threads");
    group.throughput(Throughput::Elements(warm_batch.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(engine.batch(&warm_batch, &BatchOptions::with_threads(threads)))
                })
            },
        );
    }
    group.finish();

    // Row-mode serving: the tier that replaces the O(|V|²) matrix on huge
    // graphs. Criterion measures the steady state (rows resident under an
    // unbounded budget); the eviction-pressure case is a bounded one-shot
    // measurement below, because a thrashing LRU deliberately recomputes
    // rows every batch and would stretch a criterion group indefinitely.
    let row_engine = Engine::with_options(
        deployment.clone(),
        EngineOptions {
            policy: StorePolicy::rows(None),
            ..Default::default()
        },
    );
    row_engine.batch(&warm_batch, &BatchOptions::default()); // fill rows
    let mut group = c.benchmark_group("engine_row_mode_batch_256q");
    group.throughput(Throughput::Elements(warm_batch.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("resident"), |b| {
        b.iter(|| black_box(row_engine.batch(&warm_batch, &BatchOptions::default())))
    });
    group.finish();

    // One-shot eviction-pressure measurement: a small batch under a budget
    // of ~8 rows — the worst case (constant recomputation), printed for
    // comparison against the resident rate above. The greedy caps bound the
    // per-query candidate scan so the thrash stays measurable, not endless.
    let tight_engine = Engine::with_options(
        deployment.clone(),
        EngineOptions {
            policy: StorePolicy::rows(Some(
                8 * tfsn_core::compat::estimated_row_bytes(deployment.user_count()),
            )),
            ..Default::default()
        },
    );
    let bounded_greedy = tfsn_core::team::Solver::Greedy {
        algorithm: tfsn_core::team::policies::TeamAlgorithm::LCMD,
        config: tfsn_core::team::greedy::GreedyConfig {
            max_seeds: Some(2),
            skill_degree_cap: Some(8),
            random_seed: 1,
        },
    };
    let small_batch: Vec<TeamQuery> = queries(CompatibilityKind::Spa, 8)
        .into_iter()
        .map(|q| q.with_solver(bounded_greedy.clone()))
        .collect();
    let start = Instant::now();
    black_box(tight_engine.batch(&small_batch, &BatchOptions::default()));
    let secs = start.elapsed().as_secs_f64();
    let m = tight_engine.metrics();
    println!(
        "row-mode under an 8-row budget: {} queries in {:.3}s ({:.0} q/s), \
         {} row builds, {} evictions, {} resident rows, {} resident bytes",
        small_batch.len(),
        secs,
        small_batch.len() as f64 / secs.max(1e-9),
        m.row_builds,
        m.row_evictions,
        m.resident_rows,
        m.resident_bytes,
    );
    if m.row_evictions == 0 {
        // Informational, not an abort: the eviction invariant itself is
        // covered by tests; the bench only reports the thrash cost.
        println!("warning: the 8-row budget did not evict — workload touched too few rows");
    }
}

/// Short measurement profile so `cargo bench --workspace` finishes in
/// minutes; pass `--sample-size`/`--measurement-time` on the command line
/// for higher-precision runs.
fn short_profile() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = short_profile();
    targets = bench_engine_throughput
}
criterion_main!(benches);
