//! Project staffing on the Slashdot emulation: pick a realistic task, form
//! teams under every compatibility relation and algorithm, and compare the
//! outcomes — the scenario that motivates the paper's introduction.
//!
//! Run with: `cargo run --release --example project_staffing`

use tfsn_core::compat::{CompatibilityKind, CompatibilityMatrix, EngineConfig};
use tfsn_core::team::greedy::{solve_greedy_with_stats, GreedyConfig};
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::TfsnInstance;
use tfsn_skills::task::Task;
use tfsn_skills::taskgen::random_coverable_tasks;

fn main() {
    // The Slashdot emulation: 214 users, 304 signed edges, 1024 skills.
    let dataset = tfsn_datasets::slashdot();
    println!(
        "Pool: {} users, {} edges ({:.1}% negative), {} skills\n",
        dataset.graph.node_count(),
        dataset.graph.edge_count(),
        100.0 * dataset.graph.negative_edge_fraction(),
        dataset.universe.len()
    );

    // A project needing five different skill categories, restricted to
    // skills that at least one user actually has.
    let task: Task = random_coverable_tasks(&dataset.skills, 5, 1, 42)
        .pop()
        .expect("one task requested");
    println!(
        "Task skills: {:?}\n",
        task.skills().iter().map(|s| s.index()).collect::<Vec<_>>()
    );

    let instance = TfsnInstance::new(&dataset.graph, &dataset.skills);
    let engine = EngineConfig::default();
    let greedy_cfg = GreedyConfig::default();

    println!(
        "{:<6} {:<10} {:>8} {:>10} {:>8} {:>12}",
        "rel", "algorithm", "found", "team size", "diam", "seeds tried"
    );
    for kind in [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbph,
        CompatibilityKind::Nne,
    ] {
        let comp = CompatibilityMatrix::build_with_config(&dataset.graph, kind, &engine);
        for alg in [
            TeamAlgorithm::LCMD,
            TeamAlgorithm::LCMC,
            TeamAlgorithm::RANDOM,
        ] {
            match solve_greedy_with_stats(&instance, &comp, &task, alg, &greedy_cfg) {
                Ok((team, stats)) => println!(
                    "{:<6} {:<10} {:>8} {:>10} {:>8} {:>12}",
                    kind.label(),
                    alg.label(),
                    "yes",
                    team.len(),
                    team.diameter(&comp)
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "∞".into()),
                    stats.seeds_tried
                ),
                Err(_) => println!(
                    "{:<6} {:<10} {:>8} {:>10} {:>8} {:>12}",
                    kind.label(),
                    alg.label(),
                    "no",
                    "-",
                    "-",
                    "-"
                ),
            }
        }
    }

    // How much of the pool is even usable under the strictest relation?
    let spa =
        CompatibilityMatrix::build_with_config(&dataset.graph, CompatibilityKind::Spa, &engine);
    let nne =
        CompatibilityMatrix::build_with_config(&dataset.graph, CompatibilityKind::Nne, &engine);
    println!(
        "\nCompatible user pairs: SPA {:.1}%  vs  NNE {:.1}%",
        100.0 * spa.compatible_pair_fraction(),
        100.0 * nne.compatible_pair_fraction()
    );
}
