//! The objective-pluggable solver layer: one deployment, the same task
//! solved under every team objective — the paper's min-diameter default, the
//! synergy-maximising variant, and the constrained variant with designated
//! members — in process and over the wire.
//!
//! Run with `cargo run --release --example objectives`.

use tfsn_core::compat::CompatibilityKind;
use tfsn_engine::{Deployment, Engine, Objective, TeamQuery};

fn main() {
    let engine = Engine::new(Deployment::from_dataset(tfsn_datasets::slashdot()));
    let task = [0usize, 3, 4];

    // The default: absent objective = the paper's minimum-diameter
    // compatible team. The answer stays on the legacy wire shape (no
    // objective or score fields).
    let base = TeamQuery::new(task).with_kind(CompatibilityKind::Spa);
    let default_answer = engine.query(&base);
    println!(
        "[min_team/default] status={} members={:?} diameter={:?}",
        default_answer.status.label(),
        default_answer.members,
        default_answer.diameter,
    );
    assert!(
        default_answer.objective.is_none(),
        "objective-less answers keep the legacy shape"
    );

    // Naming min_team explicitly solves identically but labels the answer.
    let labelled = engine.query(&base.clone().with_objective(Objective::MinTeam));
    assert_eq!(labelled.members, default_answer.members);
    println!(
        "[min_team/explicit] objective={:?} score={:?}",
        labelled.objective, labelled.score
    );

    // Synergy: maximise total pairwise synergy over the packed relation
    // distances — close compatible pairs score high, unreachable pairs
    // contribute nothing. The score is the scaled synergy total.
    let synergy = engine.query(&base.clone().with_objective(Objective::Synergy));
    println!(
        "[synergy] status={} members={:?} score={:?}",
        synergy.status.label(),
        synergy.members,
        synergy.score,
    );

    // Constrained: designated members forced onto the team plus a size
    // budget and a pairwise distance bound. The score is the diameter.
    let constrained = engine.query(&base.clone().with_objective(Objective::Constrained {
        include: vec![0],
        max_size: Some(5),
        max_distance: Some(4),
    }));
    println!(
        "[constrained] status={} members={:?} score={:?}",
        constrained.status.label(),
        constrained.members,
        constrained.score,
    );
    if constrained.status == tfsn_engine::AnswerStatus::Ok {
        assert!(constrained.members.contains(&0), "include is honoured");
        assert!(constrained.members.len() <= 5, "max_size is honoured");
    }

    // The same queries travel as JSONL — this is exactly what serve-batch
    // and POST /v1/batch accept (see docs/PROTOCOL.md):
    for line in [
        r#"{"id": 1, "task": [0, 3, 4], "objective": "synergy"}"#,
        r#"{"id": 2, "task": [0, 3, 4], "objective": {"kind": "constrained", "include": [0], "max_size": 5}}"#,
    ] {
        let query: TeamQuery = serde_json::from_str(line).expect("wire form parses");
        let answer = engine.query(&query);
        println!(
            "[wire] {line}\n    -> {}",
            serde_json::to_string(&answer).unwrap()
        );
    }

    // Per-objective telemetry recorded all of the above.
    let report = engine.telemetry().report();
    for axis in &report.objectives {
        println!(
            "[telemetry] objective={} queries={}",
            axis.label, axis.stats.count
        );
    }
}
