//! Pluggable team objectives: what makes one covering compatible team
//! better than another.
//!
//! The paper optimises exactly one thing — the diameter of a compatible
//! covering team ([`Objective::MinTeam`], the default and the only
//! objective the solvers knew before this module existed). The
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
//! candidate filter, and with [`SolveScratch`] buffer reuse. Dispatch lives
//! on [`Solver::solve_objective_with_scratch`](super::Solver::solve_objective_with_scratch):
//! the default objective routes through the *unchanged* paper solvers, so
//! legacy callers are byte-identical; the new objectives get their own
//! greedy growth and exhaustive enumeration below.
//!
//! [`CompatibilityKind`]: crate::compat::CompatibilityKind
//! [`CandidateMask`]: crate::team::CandidateMask

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use signed_graph::NodeId;
use tfsn_skills::task::Task;
use tfsn_skills::SkillId;

use super::exhaustive::MAX_RELEVANT_USERS;
use super::greedy::{distance_to_team, GreedyConfig, GrowingTeam};
use super::{skills_covered_by, SolveScratch, Team, TfsnInstance};
use crate::compat::Compatibility;
use crate::error::TfsnError;

/// Scale of the integer synergy score: a pair at distance `d` contributes
/// `SYNERGY_SCALE / d` milli-units (`2 * SYNERGY_SCALE` for distance 0).
/// Integer milli-units keep the score exactly reproducible across
/// platforms — no floats anywhere in the ranking.
pub const SYNERGY_SCALE: u64 = 1000;

/// A team objective: the scoring rule (and feasibility constraints) under
/// which covering compatible teams are ranked.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// The paper's objective: minimise the diameter of a compatible
    /// covering team. The default; solvers answer it through the exact
    /// pre-objective code paths.
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

    /// `true` for the paper's default objective (parameterless `MinTeam`),
    /// which answers through the unchanged legacy solver paths.
    pub fn is_default(&self) -> bool {
        matches!(self, Objective::MinTeam)
    }

    /// Incremental candidate evaluation: may `candidate` still join a team
    /// currently consisting of `members` without violating this objective's
    /// feasibility constraints? Unconstrained objectives admit everyone;
    /// [`Objective::Constrained`] enforces the size budget and the distance
    /// bound against every current member, which is what lets its greedy
    /// growth prune candidates before the scoring step.
    pub fn admits_candidate<C: Compatibility + ?Sized>(
        &self,
        comp: &C,
        candidate: NodeId,
        members: &[NodeId],
    ) -> bool {
        self.admits_joiner(members.len(), || {
            distance_to_team(comp, candidate, members, None)
        })
    }

    /// [`Objective::admits_candidate`] for a team of `team_size` members,
    /// with the candidate's distance to the team computed only if a
    /// distance bound asks for it.
    fn admits_joiner(&self, team_size: usize, distance: impl FnOnce() -> u64) -> bool {
        match self {
            Objective::MinTeam | Objective::Synergy => true,
            Objective::Constrained {
                max_size,
                max_distance,
                ..
            } => {
                if max_size.is_some_and(|k| team_size >= k) {
                    return false;
                }
                max_distance.is_none_or(|bound| distance() <= u64::from(bound))
            }
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
/// pairs. With packed rows available each member's row is fetched once and
/// the pair scan reads the packed distance lanes directly (taking the
/// symmetric-closure minimum over both directions); relations without
/// packed rows fall back to per-pair distance probes.
pub fn team_synergy<C: Compatibility + ?Sized>(comp: &C, team: &Team) -> u64 {
    let members = team.members();
    if members.len() < 2 {
        return 0;
    }
    let rows: Option<Vec<crate::compat::RowHandle<'_>>> =
        members.iter().map(|&m| comp.packed_row(m)).collect();
    let mut total = 0u64;
    match rows {
        Some(rows) => {
            for (i, &u) in members.iter().enumerate() {
                for (j, &v) in members.iter().enumerate().skip(i + 1) {
                    let raw = rows[i]
                        .row()
                        .raw_distance(v.index())
                        .min(rows[j].row().raw_distance(u.index()));
                    let distance =
                        (raw != crate::compat::UNREACHABLE_DISTANCE).then_some(u32::from(raw));
                    total += pair_synergy(distance);
                }
            }
        }
        None => {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    total += pair_synergy(comp.distance(u, v));
                }
            }
        }
    }
    total
}

/// The candidate's incremental synergy: what it would add to the team's
/// total if it joined now.
fn incremental_synergy<C: Compatibility + ?Sized>(
    comp: &C,
    candidate: NodeId,
    members: &[NodeId],
) -> u64 {
    members
        .iter()
        .map(|&m| pair_synergy(comp.distance(candidate, m)))
        .sum()
}

/// Greedy solve under a non-default objective: the same seeding/growth
/// skeleton as the paper's Algorithm 2 (seed a candidate team from every
/// holder of the rarest required skill, grow until covered), but candidate
/// selection and seed ranking follow the objective:
///
/// * [`Objective::Synergy`] grows by maximum incremental synergy and keeps
///   the seed team with the largest total synergy (ties: smaller team).
/// * [`Objective::Constrained`] starts every team from the designated
///   members, prunes candidates through
///   [`Objective::admits_candidate`] (size budget, distance bound), grows
///   by minimum distance-to-team, and keeps the smallest-diameter team.
///
/// `config.max_seeds` bounds the seeds tried, exactly as in the default
/// greedy. The [`CandidateMask`](super::CandidateMask) word-parallel
/// filter, the member-row distances and the caller's [`SolveScratch`] are
/// reused the same way.
pub fn solve_objective_greedy<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    objective: &Objective,
    config: &GreedyConfig,
    scratch: &mut SolveScratch,
) -> Result<Team, TfsnError> {
    debug_assert!(
        !objective.is_default(),
        "default objective routes to solve_greedy"
    );
    let skills = instance.skills();
    let base = constrained_base(instance, comp, objective)?;
    if task.is_empty() && base.is_empty() {
        return Ok(Team::new([]));
    }
    instance.check_coverable(task)?;
    // The RANDOM user policy does not apply to objective-driven growth, but
    // keep the RNG plumbed so future policies can join without re-threading.
    let _rng = StdRng::seed_from_u64(config.random_seed);

    let rarest_skill = |remaining: &[SkillId]| -> SkillId {
        remaining
            .iter()
            .copied()
            .min_by_key(|&s| (skills.skill_frequency(s), s.index()))
            .expect("remaining skills is non-empty")
    };

    let seeds: Vec<Vec<NodeId>> = if base.is_empty() {
        // No designated members: seed from every holder of the rarest
        // required skill, like Algorithm 2.
        let first_skill = rarest_skill(task.skills());
        let seed_limit = config.max_seeds.unwrap_or(usize::MAX);
        skills
            .users_with_skill(first_skill)
            .iter()
            .take(seed_limit)
            .map(|&u| vec![NodeId::new(u as usize)])
            .collect()
    } else {
        // Designated members are the one seed: every qualifying team must
        // contain all of them anyway.
        vec![base]
    };

    let mut rows = Vec::new();
    let mut best: Option<(Team, u64)> = None;
    for seed in seeds {
        let Some(team) = grow_objective_team(
            instance,
            task,
            objective,
            &rarest_skill,
            GrowingTeam::new(comp, &seed, &mut scratch.mask, &mut rows),
        ) else {
            continue;
        };
        if !objective.admits_team(comp, &team) {
            continue;
        }
        // Rank: synergy maximises (stored negated so smaller-is-better
        // stays uniform), everything else minimises the diameter.
        let cost = match objective {
            Objective::Synergy => u64::MAX - team_synergy(comp, &team),
            _ => team.diameter(comp).map(u64::from).unwrap_or(u64::MAX),
        };
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

/// Validates and returns the constrained objective's designated-member
/// base team (empty for other objectives). Out-of-range members, a base
/// larger than the size budget, and pairwise-incompatible or too-distant
/// designated members all mean no qualifying team exists.
fn constrained_base<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    objective: &Objective,
) -> Result<Vec<NodeId>, TfsnError> {
    let Objective::Constrained {
        include,
        max_size,
        max_distance,
    } = objective
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

/// Grows one seeded candidate team under `objective`, returning `None` if
/// it gets stuck. Mirrors the default greedy growth through the same
/// [`GrowingTeam`]: the candidate mask answers "compatible with every
/// member?" with one bit probe; the objective's constraints then prune
/// violations; the objective's selection rule picks among survivors.
fn grow_objective_team<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    task: &Task,
    objective: &Objective,
    rarest_skill: &dyn Fn(&[SkillId]) -> SkillId,
    mut team: GrowingTeam<'_, '_, C>,
) -> Option<Team> {
    let skills = instance.skills();
    let mut covered = skills_covered_by(skills, team.members());

    loop {
        let remaining = task.uncovered(&covered);
        if remaining.is_empty() {
            return Some(team.into_team());
        }
        let next_skill = rarest_skill(&remaining);
        let mut candidates: Vec<NodeId> = Vec::new();
        for &u in skills.users_with_skill(next_skill) {
            let u = NodeId::new(u as usize);
            if team.contains(u) {
                continue;
            }
            if team.admits(u)
                && objective.admits_joiner(team.members().len(), || team.distance_to(u))
            {
                candidates.push(u);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let chosen = match objective {
            Objective::Synergy => *candidates
                .iter()
                .max_by_key(|&&c| {
                    (
                        incremental_synergy(team.comp(), c, team.members()),
                        std::cmp::Reverse(c.index()),
                    )
                })
                .expect("candidates non-empty"),
            _ => *candidates
                .iter()
                .min_by_key(|&&c| (team.distance_to(c), c.index()))
                .expect("candidates non-empty"),
        };
        covered.union_with(skills.skills_of(chosen.index()));
        team.push(chosen);
    }
}

/// Exact solve under a non-default objective by subset enumeration over the
/// relevant users (task-skill holders plus any designated members), bounded
/// by [`MAX_RELEVANT_USERS`] exactly like the default exhaustive solver.
/// Synergy keeps the highest-synergy covering compatible subset; the
/// constrained objective keeps the smallest-diameter subset among those
/// satisfying its constraints.
pub fn solve_objective_exhaustive<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    objective: &Objective,
) -> Result<Team, TfsnError> {
    debug_assert!(
        !objective.is_default(),
        "default objective routes to solve_exhaustive"
    );
    let skills = instance.skills();
    let base = constrained_base(instance, comp, objective)?;
    if task.is_empty() && base.is_empty() {
        return Ok(Team::new([]));
    }
    instance.check_coverable(task)?;

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
        if !team.covers(skills, task) || !team.is_compatible(comp) {
            continue;
        }
        if !objective.admits_team(comp, &team) {
            continue;
        }
        let cost = match objective {
            Objective::Synergy => u64::MAX - team_synergy(comp, &team),
            _ => team.diameter(comp).map(u64::from).unwrap_or(u64::MAX),
        };
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
    use crate::team::Solver;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;
    use tfsn_skills::assignment::SkillAssignment;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn s(i: usize) -> SkillId {
        SkillId::new(i)
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
        assert!(Objective::MinTeam.is_default());
        assert!(!Objective::Synergy.is_default());
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
        let mut scratch = SolveScratch::new();
        let team = solve_objective_greedy(
            &inst,
            &comp,
            &Task::new([s(0), s(1)]),
            &Objective::Synergy,
            &GreedyConfig::default(),
            &mut scratch,
        )
        .unwrap();
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
        let mut scratch = SolveScratch::new();
        // Designating user 3 forces the distant holder of skill 1.
        let objective = Objective::Constrained {
            include: vec![3],
            max_size: None,
            max_distance: None,
        };
        let team = solve_objective_greedy(
            &inst,
            &comp,
            &task,
            &objective,
            &GreedyConfig::default(),
            &mut scratch,
        )
        .unwrap();
        assert!(team.contains(n(3)));
        assert!(team.covers(&skills, &task));
        // A distance bound of 1 rules out every covering team: the only
        // skill-0 holder (user 0) is 3 hops from user 3.
        let bounded = Objective::Constrained {
            include: vec![3],
            max_size: None,
            max_distance: Some(1),
        };
        assert_eq!(
            solve_objective_greedy(
                &inst,
                &comp,
                &task,
                &bounded,
                &GreedyConfig::default(),
                &mut scratch,
            ),
            Err(TfsnError::NoCompatibleTeam)
        );
        // A size budget of 1 cannot cover two single-holder skills.
        let tiny = Objective::Constrained {
            include: vec![],
            max_size: Some(1),
            max_distance: None,
        };
        assert_eq!(
            solve_objective_greedy(
                &inst,
                &comp,
                &task,
                &tiny,
                &GreedyConfig::default(),
                &mut scratch,
            ),
            Err(TfsnError::NoCompatibleTeam)
        );
        // Out-of-range designated members mean no qualifying team.
        let bogus = Objective::Constrained {
            include: vec![99],
            max_size: None,
            max_distance: None,
        };
        assert_eq!(
            solve_objective_greedy(
                &inst,
                &comp,
                &task,
                &bogus,
                &GreedyConfig::default(),
                &mut scratch,
            ),
            Err(TfsnError::NoCompatibleTeam)
        );
    }

    #[test]
    fn exhaustive_objectives_match_or_beat_greedy() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([s(0), s(1)]);
        for kind in [CompatibilityKind::Spa, CompatibilityKind::Nne] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let mut scratch = SolveScratch::new();
            let greedy = solve_objective_greedy(
                &inst,
                &comp,
                &task,
                &Objective::Synergy,
                &GreedyConfig::default(),
                &mut scratch,
            )
            .unwrap();
            let exact =
                solve_objective_exhaustive(&inst, &comp, &task, &Objective::Synergy).unwrap();
            assert!(
                team_synergy(&comp, &exact) >= team_synergy(&comp, &greedy),
                "{kind}: exhaustive synergy must not lose to greedy"
            );
            let constrained = Objective::Constrained {
                include: vec![1],
                max_size: Some(3),
                max_distance: Some(2),
            };
            let exact = solve_objective_exhaustive(&inst, &comp, &task, &constrained).unwrap();
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
        let mut scratch = SolveScratch::new();
        for solver in [Solver::default_greedy(), Solver::Exhaustive] {
            // Default objective: identical to the legacy entry point.
            let legacy = solver.solve_with_scratch(&inst, &comp, &task, &mut scratch);
            let routed = solver.solve_objective_with_scratch(
                &inst,
                &comp,
                &task,
                &Objective::MinTeam,
                &mut scratch,
            );
            assert_eq!(legacy, routed, "{solver}: default objective must not drift");
            // Non-default objectives answer through both solver shapes.
            let team = solver
                .solve_objective_with_scratch(
                    &inst,
                    &comp,
                    &task,
                    &Objective::Synergy,
                    &mut scratch,
                )
                .unwrap();
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
