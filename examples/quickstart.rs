//! Quickstart: build a small signed network, compute compatibility, and form
//! a team for a task.
//!
//! Run with: `cargo run --example quickstart`

use signed_graph::{GraphBuilder, NodeId, Sign};
use tfsn_core::compat::{Compatibility, CompatibilityKind, CompatibilityMatrix};
use tfsn_core::team::greedy::{solve_greedy, GreedyConfig};
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::TfsnInstance;
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::task::Task;
use tfsn_skills::SkillUniverse;

fn main() {
    // A small engineering org. Positive edges are past successful
    // collaborations, negative edges are documented conflicts.
    let names = ["ana", "bo", "cam", "dee", "eli", "fay"];
    let mut builder = GraphBuilder::with_nodes(names.len());
    let edge = |b: &mut GraphBuilder, u: usize, v: usize, sign: Sign| {
        b.add_edge(NodeId::new(u), NodeId::new(v), sign).unwrap();
    };
    edge(&mut builder, 0, 1, Sign::Positive); // ana – bo
    edge(&mut builder, 0, 2, Sign::Positive); // ana – cam
    edge(&mut builder, 1, 3, Sign::Negative); // bo – dee (conflict)
    edge(&mut builder, 2, 3, Sign::Positive); // cam – dee
    edge(&mut builder, 3, 4, Sign::Positive); // dee – eli
    edge(&mut builder, 1, 5, Sign::Positive); // bo – fay
    edge(&mut builder, 4, 5, Sign::Negative); // eli – fay (conflict)
    let graph = builder.build();

    // Skills.
    let mut universe = SkillUniverse::new();
    let backend = universe.intern("backend");
    let frontend = universe.intern("frontend");
    let data = universe.intern("data-eng");
    let mut skills = SkillAssignment::new(universe.len(), names.len());
    skills.grant(0, backend); // ana
    skills.grant(1, frontend); // bo
    skills.grant(2, frontend); // cam
    skills.grant(3, data); // dee
    skills.grant(4, data); // eli
    skills.grant(5, backend); // fay

    let task = Task::new([backend, frontend, data]);
    println!("Task: backend + frontend + data-eng\n");

    let instance = TfsnInstance::new(&graph, &skills);
    for kind in [
        CompatibilityKind::Spa,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbp,
        CompatibilityKind::Nne,
    ] {
        let comp = CompatibilityMatrix::build(&graph, kind);
        match solve_greedy(
            &instance,
            &comp,
            &task,
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        ) {
            Ok(team) => {
                let members: Vec<&str> = team.members().iter().map(|m| names[m.index()]).collect();
                println!(
                    "{:>4}: team {{{}}}  (diameter {})",
                    kind.label(),
                    members.join(", "),
                    team.diameter(&comp)
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "∞".into())
                );
            }
            Err(e) => println!("{:>4}: no team — {e}", kind.label()),
        }
    }

    // Pairwise compatibility of the two people in conflict, under each
    // relation, to show how the definitions differ.
    println!("\nIs bo compatible with dee?");
    for kind in CompatibilityKind::ALL {
        let comp = CompatibilityMatrix::build(&graph, kind);
        println!(
            "  {:>4}: {}",
            kind.label(),
            comp.compatible(NodeId::new(1), NodeId::new(3))
        );
    }
}
