//! Signed vs unsigned team formation: the Table 3 story on one dataset.
//!
//! Classic team formation ignores edge signs. This example runs the Lappas
//! RarestFirst baseline on (a) the sign-ignored graph and (b) the
//! negative-edges-deleted graph, then checks how many of the returned teams
//! are actually compatible under each signed relation — and contrasts that
//! with the signed-aware greedy algorithm, which only ever returns
//! compatible teams.
//!
//! Run with: `cargo run --release --example signed_vs_unsigned`

use signed_graph::transform::UnsignedTransform;
use tfsn_core::compat::{CompatibilityKind, CompatibilityMatrix, EngineConfig};
use tfsn_core::team::baseline::unsigned_baseline_compatibility;
use tfsn_core::team::greedy::solve_greedy;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::TfsnInstance;
use tfsn_skills::taskgen::random_coverable_tasks;

fn main() {
    // A scaled Epinions emulation keeps this example snappy.
    let dataset = tfsn_datasets::epinions(0.03);
    let tasks = random_coverable_tasks(&dataset.skills, 5, 30, 7);
    println!(
        "Dataset: {} ({} users, {} edges, {:.1}% negative), {} tasks of 5 skills\n",
        dataset.name,
        dataset.graph.node_count(),
        dataset.graph.edge_count(),
        100.0 * dataset.graph.negative_edge_fraction(),
        tasks.len()
    );

    let engine = EngineConfig::default();
    let kinds = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbph,
        CompatibilityKind::Nne,
    ];

    println!(
        "{:<18} {}",
        "baseline",
        kinds.map(|k| format!("{:>8}", k.label())).join(" ")
    );
    for transform in [
        UnsignedTransform::IgnoreSigns,
        UnsignedTransform::DeleteNegative,
    ] {
        let mut row = format!("{:<18}", transform.label());
        for kind in kinds {
            let comp = CompatibilityMatrix::build_parallel(&dataset.graph, kind, &engine, 4);
            let outcome = unsigned_baseline_compatibility(
                &dataset.graph,
                &dataset.skills,
                &tasks,
                transform,
                &comp,
            );
            row.push_str(&format!(" {:>7.1}%", outcome.compatible_percentage()));
        }
        println!("{row}");
    }

    // The signed-aware algorithm by construction returns only compatible
    // teams; what varies is how often it finds one.
    println!("\nSigned-aware greedy (LCMD): % of tasks solved");
    let instance = TfsnInstance::new(&dataset.graph, &dataset.skills);
    for kind in kinds {
        let comp = CompatibilityMatrix::build_parallel(&dataset.graph, kind, &engine, 4);
        let solved = tasks
            .iter()
            .filter(|t| {
                solve_greedy(
                    &instance,
                    &comp,
                    t,
                    TeamAlgorithm::LCMD,
                    &Default::default(),
                )
                .is_ok()
            })
            .count();
        println!(
            "  {:>4}: {:>5.1}%",
            kind.label(),
            100.0 * solved as f64 / tasks.len() as f64
        );
    }
}
