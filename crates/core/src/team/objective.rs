//! Pluggable team objectives: what makes one covering compatible team
//! better than another.
//!
//! The paper optimises exactly one thing — the diameter of a compatible
//! covering team ([`Objective::MinTeam`], the default). The
//! team-formation literature asks for more, and two of those workloads are
//! first-class here:
//!
//! * [`Objective::Synergy`] — maximise the team's *synergy*: the sum of
//!   pairwise affinities derived from the relation's packed distance lanes
//!   (close compatible pairs contribute a lot, distant ones little). This
//!   is the same-team affinity score of sports-lineup synergy models,
//!   transplanted onto signed-network compatibility distances.
//! * [`Objective::Constrained`] — the realistic constraints of Rangapuram
//!   et al.: designated members that must be on the team, a team-size
//!   budget `k`, and a bound on the acceptable pairwise distance. Teams are
//!   still ranked by diameter, but only constraint-satisfying teams
//!   qualify.
//!
//! Every objective composes with every [`CompatibilityKind`], with both
//! serving tiers (full matrices and row-LRU caches expose the same
//! [`Compatibility`] oracle), with the [`CandidateMask`] word-parallel
//! candidate filter, and with [`SolveScratch`] buffer reuse: an objective
//! is a parameter of the paper's solvers, not a solver of its own.
//!
//! [`CompatibilityKind`]: crate::compat::CompatibilityKind
//! [`CandidateMask`]: crate::team::CandidateMask
//! [`SolveScratch`]: crate::team::SolveScratch

use serde::{Deserialize, Serialize};
use signed_graph::NodeId;

use super::{Team, TfsnInstance};
use crate::compat::Compatibility;
use crate::error::TfsnError;

/// Scale of the integer synergy score: a pair at distance `d` contributes
/// `SYNERGY_SCALE / d` milli-units (`2 * SYNERGY_SCALE` for distance 0).
/// Integer milli-units keep the score exactly reproducible across
/// platforms — no floats anywhere in the ranking.
pub const SYNERGY_SCALE: u64 = 1000;

/// A team objective: the scoring rule (and feasibility constraints) under
/// which covering compatible teams are ranked.
///
/// Only [`Objective::MinTeam`] runs the greedy algorithm's own skill and
/// user policies. Under [`Objective::Synergy`] and
/// [`Objective::Constrained`] every greedy algorithm runs the objective's
/// rule: skills rarest first, then the joiner that adds the most synergy
/// (Synergy) or the candidate closest to the team (Constrained). So the
/// five greedy algorithms return the same team, and only
/// [`Solver::Exhaustive`] changes the search. An answer's `algorithm`
/// field still names the algorithm the query asked for.
///
/// [`Solver::Exhaustive`]: crate::team::Solver::Exhaustive
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// The paper's objective: minimise the diameter of a compatible
    /// covering team. The default.
    #[default]
    MinTeam,
    /// Maximise pairwise synergy: the sum over member pairs of
    /// `SYNERGY_SCALE / distance` (see [`team_synergy`]). Larger is better;
    /// ties prefer smaller teams.
    Synergy,
    /// Diameter minimisation under the constraints of Rangapuram et al.:
    /// designated members, a team-size budget, and a per-pair distance
    /// bound.
    Constrained {
        /// Users that must be on the team (indices into the node pool).
        include: Vec<usize>,
        /// Maximum team size (`None` = unbounded).
        max_size: Option<usize>,
        /// Maximum acceptable pairwise member distance (`None` =
        /// unbounded).
        max_distance: Option<u32>,
    },
}

impl Objective {
    /// Every objective label, in [`Objective::index`] order — the closed
    /// set used by telemetry axes and label-closed expositions.
    pub const ALL_LABELS: [&'static str; 3] = ["min_team", "synergy", "constrained"];

    /// The wire/report label of this objective.
    pub fn label(&self) -> &'static str {
        Self::ALL_LABELS[self.index()]
    }

    /// Position of this objective in [`Objective::ALL_LABELS`].
    pub fn index(&self) -> usize {
        match self {
            Objective::MinTeam => 0,
            Objective::Synergy => 1,
            Objective::Constrained { .. } => 2,
        }
    }

    /// Final feasibility: does a completed `team` satisfy this objective's
    /// constraints? (Coverage and pairwise compatibility are checked by the
    /// solvers; this adds only the objective-specific constraints.)
    pub fn admits_team<C: Compatibility + ?Sized>(&self, comp: &C, team: &Team) -> bool {
        match self {
            Objective::MinTeam | Objective::Synergy => true,
            Objective::Constrained {
                include,
                max_size,
                max_distance,
            } => {
                if include.iter().any(|&u| !team.contains(NodeId::new(u))) {
                    return false;
                }
                if max_size.is_some_and(|k| team.len() > k) {
                    return false;
                }
                match max_distance {
                    None => true,
                    Some(bound) => team.diameter(comp).is_some_and(|d| d <= *bound),
                }
            }
        }
    }

    /// The cost the solvers minimise for a covering compatible team:
    /// `u64::MAX − team_synergy` for [`Objective::Synergy`] (so larger
    /// synergy ranks first), the diameter otherwise (`u64::MAX` when some
    /// pair has no distance).
    pub(crate) fn team_cost<C: Compatibility + ?Sized>(&self, comp: &C, team: &Team) -> u64 {
        match self {
            Objective::Synergy => u64::MAX - team_synergy(comp, team),
            _ => team.diameter(comp).map_or(u64::MAX, u64::from),
        }
    }

    /// The designated members every qualifying team must hold,
    /// deduplicated in ascending order (none outside
    /// [`Objective::Constrained`]). Out-of-range members, more members
    /// than the size budget, and pairwise-incompatible or too-distant
    /// members all mean no qualifying team exists.
    pub(crate) fn designated_members<C: Compatibility + ?Sized>(
        &self,
        instance: &TfsnInstance<'_>,
        comp: &C,
    ) -> Result<Vec<NodeId>, TfsnError> {
        let Objective::Constrained {
            include,
            max_size,
            max_distance,
        } = self
        else {
            return Ok(Vec::new());
        };
        let mut base: Vec<NodeId> = include.iter().map(|&u| NodeId::new(u)).collect();
        base.sort_unstable();
        base.dedup();
        if base.iter().any(|&u| u.index() >= instance.user_count()) {
            return Err(TfsnError::NoCompatibleTeam);
        }
        if max_size.is_some_and(|k| base.len() > k) {
            return Err(TfsnError::NoCompatibleTeam);
        }
        for (i, &u) in base.iter().enumerate() {
            for &v in &base[i + 1..] {
                if !comp.compatible(u, v) {
                    return Err(TfsnError::NoCompatibleTeam);
                }
                if let Some(bound) = max_distance {
                    let within = comp.distance(u, v).is_some_and(|d| d <= *bound);
                    if !within {
                        return Err(TfsnError::NoCompatibleTeam);
                    }
                }
            }
        }
        Ok(base)
    }

    /// The score this objective reports for a team on the wire. `None` for
    /// the default objective (legacy answers carry no score field);
    /// synergy reports the total pairwise synergy in milli-units, the
    /// constrained objective reports the diameter it minimised.
    pub fn team_score<C: Compatibility + ?Sized>(&self, comp: &C, team: &Team) -> Option<u64> {
        match self {
            Objective::MinTeam => None,
            Objective::Synergy => Some(team_synergy(comp, team)),
            Objective::Constrained { .. } => team.diameter(comp).map(u64::from),
        }
    }
}

/// One pair's synergy contribution from its relation distance:
/// `SYNERGY_SCALE / d`, with distance 0 (a user paired with a structural
/// twin) worth double the distance-1 affinity. Undefined distances
/// contribute nothing.
pub fn pair_synergy(distance: Option<u32>) -> u64 {
    match distance {
        None => 0,
        Some(0) => 2 * SYNERGY_SCALE,
        Some(d) => SYNERGY_SCALE / u64::from(d),
    }
}

/// The team's total synergy: the sum of [`pair_synergy`] over all member
/// pairs, read from packed rows when the relation has them (the smaller of
/// each pair's two lanes, as in [`Team::diameter`]).
pub fn team_synergy<C: Compatibility + ?Sized>(comp: &C, team: &Team) -> u64 {
    team.pair_distances(comp).map(pair_synergy).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use crate::team::exhaustive::solve_exhaustive;
    use crate::team::{SolveScratch, Solver};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;
    use tfsn_skills::assignment::SkillAssignment;
    use tfsn_skills::task::Task;
    use tfsn_skills::SkillId;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn s(i: usize) -> SkillId {
        SkillId::new(i)
    }

    /// The default greedy (LCMD) under `objective`.
    fn greedy<C: Compatibility>(
        inst: &TfsnInstance<'_>,
        comp: &C,
        task: &Task,
        objective: &Objective,
    ) -> Result<Team, TfsnError> {
        let mut scratch = SolveScratch::new();
        Solver::default_greedy().solve_objective_with_scratch(
            inst,
            comp,
            task,
            objective,
            &mut scratch,
        )
    }

    /// Skill 0 is held by 0; skill 1 by 1, 3 and 4. User 1 is adjacent to
    /// 0 (distance 1), users 3 and 4 sit two and three hops out.
    fn setup() -> (signed_graph::SignedGraph, SkillAssignment) {
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (2, 3, Sign::Positive),
            (3, 4, Sign::Positive),
        ]);
        let mut skills = SkillAssignment::new(2, 5);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        skills.grant(3, s(1));
        skills.grant(4, s(1));
        (g, skills)
    }

    #[test]
    fn labels_index_and_default() {
        assert_eq!(Objective::default(), Objective::MinTeam);
        for (i, label) in Objective::ALL_LABELS.iter().enumerate() {
            let objective = match i {
                0 => Objective::MinTeam,
                1 => Objective::Synergy,
                _ => Objective::Constrained {
                    include: vec![],
                    max_size: None,
                    max_distance: None,
                },
            };
            assert_eq!(objective.index(), i);
            assert_eq!(objective.label(), *label);
        }
    }

    #[test]
    fn synergy_prefers_close_pairs() {
        assert_eq!(pair_synergy(Some(1)), SYNERGY_SCALE);
        assert_eq!(pair_synergy(Some(2)), SYNERGY_SCALE / 2);
        assert_eq!(pair_synergy(Some(0)), 2 * SYNERGY_SCALE);
        assert_eq!(pair_synergy(None), 0);
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let team = greedy(&inst, &comp, &Task::new([s(0), s(1)]), &Objective::Synergy).unwrap();
        // The adjacent holder of skill 1 maximises synergy.
        assert_eq!(team.members(), &[n(0), n(1)]);
        assert_eq!(team_synergy(&comp, &team), SYNERGY_SCALE);
        // The packed pair scan agrees with the scalar distance probes.
        let scalar: u64 = pair_synergy(comp.distance(n(0), n(1)));
        assert_eq!(team_synergy(&comp, &team), scalar);
    }

    #[test]
    fn constrained_honours_designated_members_and_bounds() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let task = Task::new([s(0), s(1)]);
        let constrained = |include: &[usize], max_size, max_distance| Objective::Constrained {
            include: include.to_vec(),
            max_size,
            max_distance,
        };
        // Designating user 3 forces the distant holder of skill 1.
        let team = greedy(&inst, &comp, &task, &constrained(&[3], None, None)).unwrap();
        assert!(team.contains(n(3)));
        assert!(team.covers(&skills, &task));
        // No qualifying team under a distance bound of 1 (the only skill-0
        // holder, user 0, is 3 hops from user 3), a size budget of 1 (two
        // single-holder skills), or an out-of-range designated member.
        for objective in [
            constrained(&[3], None, Some(1)),
            constrained(&[], Some(1), None),
            constrained(&[99], None, None),
        ] {
            let answer = greedy(&inst, &comp, &task, &objective);
            assert_eq!(answer, Err(TfsnError::NoCompatibleTeam), "{objective:?}");
        }
    }

    #[test]
    fn exhaustive_objectives_match_or_beat_greedy() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([s(0), s(1)]);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let greedy = greedy(&inst, &comp, &task, &Objective::Synergy).unwrap();
            let exact = solve_exhaustive(&inst, &comp, &task, &Objective::Synergy).unwrap();
            assert!(
                team_synergy(&comp, &exact) >= team_synergy(&comp, &greedy),
                "{kind}: exhaustive synergy must not lose to greedy"
            );
            let constrained = Objective::Constrained {
                include: vec![1],
                max_size: Some(3),
                max_distance: Some(2),
            };
            let exact = solve_exhaustive(&inst, &comp, &task, &constrained).unwrap();
            assert!(constrained.admits_team(&comp, &exact));
            assert!(exact.covers(&skills, &task));
        }
    }

    #[test]
    fn dispatch_covers_both_solver_shapes() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let task = Task::new([s(0), s(1)]);
        let synergy = Objective::Synergy;
        let mut scratch = SolveScratch::new();
        for solver in [Solver::default_greedy(), Solver::Exhaustive] {
            // Non-default objectives answer through both solver shapes.
            let team =
                solver.solve_objective_with_scratch(&inst, &comp, &task, &synergy, &mut scratch);
            let team = team.unwrap();
            assert!(team.covers(&skills, &task));
            assert!(team.is_compatible(&comp));
        }
    }

    #[test]
    fn objective_round_trips_through_json() {
        for objective in [
            Objective::MinTeam,
            Objective::Synergy,
            Objective::Constrained {
                include: vec![3, 9],
                max_size: Some(4),
                max_distance: Some(3),
            },
        ] {
            let json = serde_json::to_string(&objective).unwrap();
            let back: Objective = serde_json::from_str(&json).unwrap();
            assert_eq!(back, objective);
        }
    }
}
