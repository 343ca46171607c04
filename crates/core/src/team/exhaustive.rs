//! Exhaustive TFSN solver for small instances.
//!
//! TFSNC is NP-hard (paper Theorem 2.2), so an exact solver can only be used
//! on tiny pools; this module exists to provide ground truth for the greedy
//! heuristics in unit and property tests, and to illustrate the exponential
//! search space the hardness proof implies.
//!
//! The solver enumerates the subsets of the *relevant* users (holders of a
//! task skill, plus the objective's designated members) in bitmask order and
//! returns the first covering compatible team the objective admits of least
//! (cost, size).

use signed_graph::NodeId;
use tfsn_skills::task::Task;

use super::objective::Objective;
use super::{Team, TfsnInstance};
use crate::compat::Compatibility;
use crate::error::TfsnError;

/// Upper bound on the number of relevant users the exhaustive solver will
/// accept; beyond this the subset enumeration is clearly intractable.
pub const MAX_RELEVANT_USERS: usize = 24;

/// Finds a least-cost compatible covering team under `objective` by
/// exhaustive search.
///
/// Returns [`TfsnError::SearchBudgetExceeded`] when more than
/// [`MAX_RELEVANT_USERS`] users are relevant,
/// [`TfsnError::UncoverableSkill`] when a skill has no holder, and
/// [`TfsnError::NoCompatibleTeam`] when no qualifying subset exists.
pub fn solve_exhaustive<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    objective: &Objective,
) -> Result<Team, TfsnError> {
    let base = objective.designated_members(instance, comp)?;
    if task.is_empty() && base.is_empty() {
        return Ok(Team::new([]));
    }
    instance.check_coverable(task)?;
    let skills = instance.skills();

    // Relevant users: holders of a required skill, and designated members.
    let mut relevant: Vec<u32> = task
        .skills()
        .iter()
        .flat_map(|&s| skills.users_with_skill(s).iter().copied())
        .chain(base.iter().map(|&u| u.index() as u32))
        .collect();
    relevant.sort_unstable();
    relevant.dedup();
    if relevant.len() > MAX_RELEVANT_USERS {
        return Err(TfsnError::SearchBudgetExceeded);
    }

    let mut best: Option<(Team, u64)> = None;
    let n = relevant.len();
    for mask in 1u32..(1u32 << n) {
        let members: Vec<NodeId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| NodeId::new(relevant[i] as usize))
            .collect();
        let team = Team::new(members);
        if !team.covers(skills, task)
            || !team.is_compatible(comp)
            || !objective.admits_team(comp, &team)
        {
            continue;
        }
        let cost = objective.team_cost(comp, &team);
        let better = match &best {
            None => true,
            Some((b, c)) => cost < *c || (cost == *c && team.len() < b.len()),
        };
        if better {
            best = Some((team, cost));
        }
    }
    best.map(|(t, _)| t).ok_or(TfsnError::NoCompatibleTeam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use crate::team::greedy::{solve_greedy, GreedyConfig};
    use crate::team::policies::TeamAlgorithm;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;
    use tfsn_skills::assignment::SkillAssignment;
    use tfsn_skills::SkillId;

    fn s(i: usize) -> SkillId {
        SkillId::new(i)
    }

    #[test]
    fn finds_the_optimal_team() {
        // 0 holds {0}; 1 holds {1} at distance 1; 2 holds {1,2} at distance 1;
        // using 2 covers two skills at once → optimal team {0, 2}.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (0, 2, Sign::Positive),
            (1, 2, Sign::Positive),
        ]);
        let mut skills = SkillAssignment::new(3, 3);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        skills.grant(2, s(1));
        skills.grant(2, s(2));
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let team = solve_exhaustive(
            &inst,
            &comp,
            &Task::new([s(0), s(1), s(2)]),
            &Objective::MinTeam,
        )
        .unwrap();
        assert_eq!(team.len(), 2);
        assert!(team.contains(NodeId::new(0)));
        assert!(team.contains(NodeId::new(2)));
    }

    #[test]
    fn exhaustive_is_never_worse_than_greedy() {
        for seed in 0..8u64 {
            let g = signed_graph::generators::erdos_renyi_signed(10, 22, 0.3, seed);
            let mut skills = SkillAssignment::new(4, 10);
            // Deterministic pseudo-random skill spread.
            for u in 0..10usize {
                skills.grant(u, s(u % 4));
                if u % 3 == 0 {
                    skills.grant(u, s((u + 1) % 4));
                }
            }
            let inst = TfsnInstance::new(&g, &skills);
            let task = Task::new([s(0), s(1), s(2)]);
            for kind in [CompatibilityKind::Spo, CompatibilityKind::Nne] {
                let comp = CompatibilityMatrix::build(&g, kind);
                let exact = solve_exhaustive(&inst, &comp, &task, &Objective::MinTeam);
                let greedy = solve_greedy(
                    &inst,
                    &comp,
                    &task,
                    TeamAlgorithm::LCMD,
                    &GreedyConfig::default(),
                );
                match (exact, greedy) {
                    (Ok(e), Ok(h)) => {
                        let ce = e.diameter(&comp).unwrap_or(u32::MAX);
                        let ch = h.diameter(&comp).unwrap_or(u32::MAX);
                        assert!(
                            ce <= ch,
                            "seed {seed} {kind}: exhaustive {ce} > greedy {ch}"
                        );
                        assert!(e.is_valid(&skills, &task, &comp));
                    }
                    (Err(_), Ok(h)) => {
                        panic!("seed {seed} {kind}: greedy found {h:?} but exhaustive found none")
                    }
                    // Greedy may fail where the exact solver succeeds — that
                    // is exactly the gap the paper's Figure 2(a) measures.
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn trivial_and_error_cases() {
        let g = from_edge_triples(vec![(0, 1, Sign::Negative)]);
        let mut skills = SkillAssignment::new(2, 2);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        assert!(
            solve_exhaustive(&inst, &comp, &Task::new([]), &Objective::MinTeam)
                .unwrap()
                .is_empty()
        );
        assert_eq!(
            solve_exhaustive(&inst, &comp, &Task::new([s(0), s(1)]), &Objective::MinTeam),
            Err(TfsnError::NoCompatibleTeam)
        );
        let mut missing = SkillAssignment::new(3, 2);
        missing.grant(0, s(0));
        let inst2 = TfsnInstance::new(&g, &missing);
        assert_eq!(
            solve_exhaustive(&inst2, &comp, &Task::new([s(2)]), &Objective::MinTeam),
            Err(TfsnError::UncoverableSkill(s(2)))
        );
    }

    #[test]
    fn budget_guard_triggers_on_large_pools() {
        let g = signed_graph::generators::erdos_renyi_signed(40, 80, 0.1, 1);
        let mut skills = SkillAssignment::new(1, 40);
        for u in 0..40 {
            skills.grant(u, s(0));
        }
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        assert_eq!(
            solve_exhaustive(&inst, &comp, &Task::new([s(0)]), &Objective::MinTeam),
            Err(TfsnError::SearchBudgetExceeded)
        );
    }
}
