//! A first-class solver dispatch: one value describing *how* a TFSN query
//! should be answered.
//!
//! Callers that serve many heterogeneous queries (the experiment harness,
//! the `tfsn-engine` serving layer) should not match on algorithm variants
//! themselves — they hold a [`Solver`] and call [`Solver::solve`]. This
//! keeps the dispatch in one place and lets new strategies (exact search,
//! future ILP/beam solvers) join without touching every consumer.

use serde::{Deserialize, Serialize};
use tfsn_skills::task::Task;

use super::exhaustive::solve_exhaustive;
use super::greedy::{solve_greedy_with_scratch, GreedyConfig};
use super::objective::Objective;
use super::policies::TeamAlgorithm;
use super::{SolveScratch, Team, TfsnInstance};
use crate::compat::Compatibility;
use crate::error::TfsnError;

/// A team-formation strategy: the paper's greedy Algorithm 2 under a policy
/// combination, or the exact exhaustive search for small instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Solver {
    /// Algorithm 2 with the given policy combination and tuning.
    Greedy {
        /// Skill- and user-selection policy combination.
        algorithm: TeamAlgorithm,
        /// Greedy tuning knobs (seed cap, degree cap, RNG seed).
        config: GreedyConfig,
    },
    /// Exact least-cost search by subset enumeration; only viable when few
    /// users hold the task's skills (returns
    /// [`TfsnError::SearchBudgetExceeded`] otherwise).
    Exhaustive,
}

impl Solver {
    /// A greedy solver with default tuning.
    pub fn greedy(algorithm: TeamAlgorithm) -> Self {
        Solver::Greedy {
            algorithm,
            config: GreedyConfig::default(),
        }
    }

    /// The paper's best algorithm (LCMD) with default tuning.
    pub fn default_greedy() -> Self {
        Solver::greedy(TeamAlgorithm::LCMD)
    }

    /// A short label for reports and serialized answers ("LCMD",
    /// "EXHAUSTIVE", …). Labels come from closed sets, so no allocation.
    pub fn label(&self) -> &'static str {
        match self {
            Solver::Greedy { algorithm, .. } => algorithm.label(),
            Solver::Exhaustive => "EXHAUSTIVE",
        }
    }

    /// Solves `task` on `instance` under the relation `comp`, for the
    /// paper's objective ([`Objective::MinTeam`]).
    pub fn solve<C: Compatibility + ?Sized>(
        &self,
        instance: &TfsnInstance<'_>,
        comp: &C,
        task: &Task,
    ) -> Result<Team, TfsnError> {
        self.solve_objective_with_scratch(
            instance,
            comp,
            task,
            &Objective::MinTeam,
            &mut SolveScratch::new(),
        )
    }

    /// Solves `task` under the team [`Objective`], reusing the caller's
    /// [`SolveScratch`] (today: the greedy candidate-mask buffer) instead
    /// of allocating per solve. The scratch carries capacity, not query
    /// state, so reusing it never changes answers.
    ///
    /// Both solver shapes take the objective: the greedy keeps its tuning
    /// (`max_seeds` and the rest), the exhaustive search its
    /// relevant-user budget.
    pub fn solve_objective_with_scratch<C: Compatibility + ?Sized>(
        &self,
        instance: &TfsnInstance<'_>,
        comp: &C,
        task: &Task,
        objective: &Objective,
        scratch: &mut SolveScratch,
    ) -> Result<Team, TfsnError> {
        match self {
            Solver::Greedy { algorithm, config } => solve_greedy_with_scratch(
                instance, comp, task, *algorithm, objective, config, scratch,
            )
            .map(|(team, _)| team),
            Solver::Exhaustive => solve_exhaustive(instance, comp, task, objective),
        }
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::default_greedy()
    }
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;
    use tfsn_skills::assignment::SkillAssignment;
    use tfsn_skills::SkillId;

    fn setup() -> (signed_graph::SignedGraph, SkillAssignment) {
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (0, 3, Sign::Negative),
        ]);
        let mut skills = SkillAssignment::new(3, 4);
        skills.grant(0, SkillId::new(0));
        skills.grant(1, SkillId::new(1));
        skills.grant(2, SkillId::new(2));
        skills.grant(3, SkillId::new(1));
        (g, skills)
    }

    #[test]
    fn greedy_and_exhaustive_dispatch_agree_on_small_instance() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let task = Task::new([SkillId::new(0), SkillId::new(1)]);
        let greedy = Solver::default_greedy().solve(&inst, &comp, &task).unwrap();
        let exact = Solver::Exhaustive.solve(&inst, &comp, &task).unwrap();
        assert!(greedy.is_valid(&skills, &task, &comp));
        assert!(exact.is_valid(&skills, &task, &comp));
        assert!(exact.diameter(&comp) <= greedy.diameter(&comp));
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Solver::default_greedy().label(), "LCMD");
        assert_eq!(Solver::Exhaustive.label(), "EXHAUSTIVE");
        assert_eq!(Solver::default().to_string(), "LCMD");
        assert_eq!(Solver::greedy(TeamAlgorithm::RFMC).label(), "RFMC");
    }

    #[test]
    fn scratch_reuse_matches_allocating_path_and_keeps_the_buffer() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([SkillId::new(0), SkillId::new(1)]);
        let solver = Solver::default_greedy();
        let mut scratch = SolveScratch::new();
        assert_eq!(scratch.mask_word_capacity(), 0);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let fresh = solver.solve(&inst, &comp, &task).unwrap();
            let reused = solver
                .solve_objective_with_scratch(
                    &inst,
                    &comp,
                    &task,
                    &Objective::MinTeam,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(
                fresh, reused,
                "{kind}: scratch path must not change answers"
            );
        }
        let words = scratch.mask_word_capacity();
        assert!(words > 0, "packed-row solve must have seeded the buffer");
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        solver
            .solve_objective_with_scratch(&inst, &comp, &task, &Objective::MinTeam, &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.mask_word_capacity(),
            words,
            "same-size solves must reuse the allocation"
        );
    }

    #[test]
    fn solver_round_trips_through_json() {
        for solver in [Solver::default_greedy(), Solver::Exhaustive] {
            let json = serde_json::to_string(&solver).unwrap();
            let back: Solver = serde_json::from_str(&json).unwrap();
            assert_eq!(back, solver);
        }
    }
}
