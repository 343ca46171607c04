//! The paper's Algorithm 2: greedy team formation with pluggable skill- and
//! user-selection policies.
//!
//! The algorithm incrementally builds a candidate team. It first selects a
//! skill of the task (per the skill policy) and seeds one candidate team from
//! *every* user holding that skill. Each candidate team is then grown: while
//! some task skill is uncovered, select the next skill (skill policy again)
//! and add a user holding it who is compatible with every current member
//! (user policy breaks ties among the compatible candidates). Seeds that get
//! stuck (no compatible candidate for some skill) are discarded; among the
//! candidate teams that cover the task, the one with the smallest
//! communication cost (diameter under the relation's distance) is returned.
//! The same search answers every [`Objective`] (see `Rules`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use signed_graph::NodeId;
use tfsn_skills::task::Task;
use tfsn_skills::{SkillId, SkillSet};

use super::objective::{pair_synergy, Objective};
use super::policies::{SkillPolicy, TeamAlgorithm, UserPolicy};
use super::{cover, CandidateMask, NodeSet, SolveScratch, Team, TfsnInstance};
use crate::compat::{Compatibility, RowHandle, UNREACHABLE_DISTANCE};
use crate::error::TfsnError;
use crate::skill_compat::TaskSkillDegrees;

/// Tuning parameters of the greedy solver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreedyConfig {
    /// Maximum number of seed users tried for the first skill (`None` = all
    /// holders, as in the paper's pseudocode). Capping the seeds bounds the
    /// runtime on skills held by thousands of users.
    pub max_seeds: Option<usize>,
    /// Maximum number of holders per skill considered when computing the
    /// task-restricted compatibility degrees for the least-compatible-first
    /// policy (`None` = exact, see
    /// [`crate::skill_compat::TaskSkillDegrees::compute_capped`]). The cap
    /// bounds a pass that counts its skill pairs from rows; on a served
    /// full store each pair is counted once per row snapshot and cap, and
    /// later passes read it from the snapshot's memo.
    pub skill_degree_cap: Option<usize>,
    /// Seed for the RANDOM user-selection policy (the solver is fully
    /// deterministic for a fixed config).
    pub random_seed: u64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            max_seeds: None,
            skill_degree_cap: None,
            random_seed: 0x5EED,
        }
    }
}

/// Diagnostic counters of one [`solve_greedy_with_stats`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Seed users tried, abandoned ones included.
    pub seeds_tried: usize,
    /// Seeds grown to completion: a full covering compatible team whose
    /// cost was compared against the best so far. A seed abandoned by the
    /// bound is not counted here, even if it would have covered the task.
    pub seeds_succeeded: usize,
    /// Seeds abandoned because their partial diameter reached the cost of
    /// the best team already found, so they could no longer win. Always 0
    /// under the RANDOM user policy, which is never bounded.
    pub seeds_abandoned: usize,
    /// Total user-candidate evaluations across all seeds.
    pub candidates_examined: usize,
}

/// Solves the TFSN instance for `task` under compatibility relation `comp`
/// using Algorithm 2 with the given policy combination, for the paper's
/// objective ([`Objective::MinTeam`]).
///
/// Returns [`TfsnError::UncoverableSkill`] when some required skill has no
/// holder at all, and [`TfsnError::NoCompatibleTeam`] when every seed gets
/// stuck. An empty task yields an empty team.
pub fn solve_greedy<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    algorithm: TeamAlgorithm,
    config: &GreedyConfig,
) -> Result<Team, TfsnError> {
    solve_greedy_with_stats(instance, comp, task, algorithm, config).map(|(team, _)| team)
}

/// Like [`solve_greedy`] but also returns search statistics.
pub fn solve_greedy_with_stats<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    algorithm: TeamAlgorithm,
    config: &GreedyConfig,
) -> Result<(Team, GreedyStats), TfsnError> {
    let mut scratch = SolveScratch::new();
    solve_greedy_with_scratch(
        instance,
        comp,
        task,
        algorithm,
        &Objective::MinTeam,
        config,
        &mut scratch,
    )
}

/// Algorithm 2 under any [`Objective`], reusing the caller's
/// [`SolveScratch`] instead of allocating a fresh candidate-mask buffer —
/// the entry point for serving layers answering many queries per thread.
/// The scratch carries capacity only, never query state, so results are
/// identical to the allocating path.
///
/// Under [`Objective::MinTeam`] the seeds are searched branch-and-bound:
/// under the MinDistance and MostCompatible user policies a seed is
/// abandoned as soon as its partial diameter reaches the cost of the best
/// team found so far. The partial diameter (the running max of each
/// joining member's distance to the team) only grows, and a finished seed
/// replaces the best team only when its cost is strictly smaller, so an
/// abandoned seed could never have won and the answer is the one the
/// exhaustive seed loop returns. RANDOM is never bounded: its single RNG
/// stream must see every draw.
pub fn solve_greedy_with_scratch<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    algorithm: TeamAlgorithm,
    objective: &Objective,
    config: &GreedyConfig,
    scratch: &mut SolveScratch,
) -> Result<(Team, GreedyStats), TfsnError> {
    let skills = instance.skills();
    let mut stats = GreedyStats::default();
    let base = objective.designated_members(instance, comp)?;
    if task.is_empty() && base.is_empty() {
        return Ok((Team::new([]), stats));
    }
    instance.check_coverable(task)?;
    let rules = Rules::new(algorithm, objective);

    // The least-compatible-first policy ranks skills by their task-restricted
    // compatibility degree; compute it once per (task, relation).
    let degrees = match rules.skill {
        SkillPolicy::LeastCompatibleFirst => Some(TaskSkillDegrees::compute_capped(
            comp,
            skills,
            task,
            config.skill_degree_cap,
        )),
        SkillPolicy::RarestFirst => None,
    };
    let select_skill = |remaining: &[SkillId]| -> SkillId {
        match rules.skill {
            SkillPolicy::RarestFirst => remaining
                .iter()
                .copied()
                .min_by_key(|&s| (skills.skill_frequency(s), s.index()))
                .expect("remaining skills is non-empty"),
            SkillPolicy::LeastCompatibleFirst => degrees
                .as_ref()
                .expect("degrees computed for LC policy")
                .least_compatible(remaining)
                .expect("remaining skills is non-empty"),
        }
    };

    let mut rng = StdRng::seed_from_u64(config.random_seed);

    // One mask buffer shared by every seed (re-seeded in place) — and, via
    // the caller's scratch, across solves: the word-parallel fast path
    // allocates once per worker thread, not once per query; so do the
    // members and the growth buffers. The member row handles borrow the
    // relation, so they are kept in one vector for the whole solve.
    let SolveScratch {
        mask,
        members,
        growth: buffers,
    } = scratch;
    let mut rows = Vec::new();
    let mut best: Option<(Team, u64)> = None;
    // Designated members are the one seed: every qualifying team holds all
    // of them. Otherwise each holder of the first selected skill, up to
    // `max_seeds`, seeds a team of its own.
    let (holders, seed_count) = if base.is_empty() {
        let holders = skills.users_with_skill(select_skill(task.skills()));
        let seed_limit = config.max_seeds.unwrap_or(usize::MAX);
        (holders, holders.len().min(seed_limit))
    } else {
        (&[][..], 1)
    };
    for i in 0..seed_count {
        let lone = holders.get(i).map(|&u| [NodeId::new(u as usize)]);
        let seed = lone.as_ref().map_or(&base[..], |lone| &lone[..]);
        stats.seeds_tried += 1;
        let bound = match &best {
            Some((_, cost)) if rules.bounded => *cost,
            _ => u64::MAX,
        };
        let growth = grow_team(
            instance,
            comp,
            task,
            &rules,
            &select_skill,
            &mut rng,
            &mut stats,
            GrowingTeam::new(comp, seed, mask, &mut rows, members),
            buffers,
            bound,
        );
        match growth {
            Growth::Covered(team, diameter) if objective.admits_team(comp, &team) => {
                stats.seeds_succeeded += 1;
                let cost = diameter.unwrap_or_else(|| objective.team_cost(comp, &team));
                let better = best.as_ref().is_none_or(|(b, c)| {
                    cost < *c || (rules.size_breaks_ties && cost == *c && team.len() < b.len())
                });
                if better {
                    best = Some((team, cost));
                }
            }
            Growth::Covered(..) | Growth::Stuck => {}
            Growth::Abandoned => stats.seeds_abandoned += 1,
        }
    }

    match best {
        Some((team, _)) => Ok((team, stats)),
        None => Err(TfsnError::NoCompatibleTeam),
    }
}

/// The rules one greedy solve runs by, fixed once from the query's
/// algorithm and objective. [`Objective::MinTeam`] runs the algorithm's
/// policies; Synergy and Constrained take skills rarest first whatever the
/// algorithm, Constrained adding the candidate closest to the team
/// (MinDistance) and Synergy the one adding the most synergy.
struct Rules {
    skill: SkillPolicy,
    choice: Choice,
    /// Abandon a seed once its partial diameter reaches the best cost.
    bounded: bool,
    /// On equal cost, a smaller team replaces the best one.
    size_breaks_ties: bool,
    /// Constrained's size budget: a full team admits no joiner.
    max_size: Option<usize>,
    /// Constrained's bound on a joiner's distance to the team. Constrained
    /// adds the closest candidate, so some candidate is within the bound
    /// exactly when the closest one is.
    max_distance: Option<u64>,
}

/// Which candidate joins the team.
enum Choice {
    /// The paper's user policy.
    User(UserPolicy),
    /// The largest incremental synergy (pair probes), ties to the lower id.
    Synergy,
}

impl Rules {
    fn new(algorithm: TeamAlgorithm, objective: &Objective) -> Self {
        let rarest_first = |choice, max_size, max_distance: Option<u32>| Rules {
            skill: SkillPolicy::RarestFirst,
            choice,
            bounded: false,
            size_breaks_ties: true,
            max_size,
            max_distance: max_distance.map(u64::from),
        };
        match objective {
            Objective::MinTeam => Rules {
                skill: algorithm.skill,
                choice: Choice::User(algorithm.user),
                bounded: algorithm.user != UserPolicy::Random,
                size_breaks_ties: false,
                max_size: None,
                max_distance: None,
            },
            Objective::Synergy => rarest_first(Choice::Synergy, None, None),
            Objective::Constrained {
                max_size,
                max_distance,
                ..
            } => rarest_first(
                Choice::User(UserPolicy::MinDistance),
                *max_size,
                *max_distance,
            ),
        }
    }
}

/// How one seed's growth ended.
enum Growth {
    /// The team covers the task. A bounded growth also returns the team's
    /// diameter: its partial diameter, which ended below the bound, so
    /// every pair distance was defined.
    Covered(Team, Option<u64>),
    /// Some skill had no compatible candidate the objective admits.
    Stuck,
    /// The partial diameter reached the bound: the seed cannot win.
    Abandoned,
}

/// The buffers one seed's growth refills at every step, kept in the
/// caller's [`SolveScratch`] across seeds and solves.
#[derive(Debug, Default)]
pub(crate) struct GrowthBuffers {
    /// The skills the team covers.
    covered: SkillSet,
    /// The task skills still uncovered.
    remaining: Vec<SkillId>,
    /// The step's candidates the team admits.
    candidates: Vec<NodeId>,
    /// MostCompatible's relevance pool: the holders of an uncovered skill.
    pool: Vec<NodeId>,
    /// The pool as a bitset, for the popcount path.
    pool_bits: NodeSet,
}

/// Grows one candidate team from its seed. With `bound < u64::MAX` the
/// growth stops as soon as the team's partial diameter reaches `bound`.
#[allow(clippy::too_many_arguments)]
fn grow_team<C: Compatibility + ?Sized>(
    instance: &TfsnInstance<'_>,
    comp: &C,
    task: &Task,
    rules: &Rules,
    select_skill: &impl Fn(&[SkillId]) -> SkillId,
    rng: &mut StdRng,
    stats: &mut GreedyStats,
    mut team: GrowingTeam<'_, '_, C>,
    buffers: &mut GrowthBuffers,
    bound: u64,
) -> Growth {
    // A lone seed's diameter is 0, which already reaches a zero bound.
    if bound == 0 {
        return Growth::Abandoned;
    }
    let skills = instance.skills();
    let GrowthBuffers {
        covered,
        remaining,
        candidates,
        pool,
        pool_bits,
    } = buffers;
    cover(covered, skills, team.members());
    let mut diameter = 0u64;

    loop {
        remaining.clear();
        remaining.extend(task.skills().iter().filter(|&&s| !covered.contains(s)));
        if remaining.is_empty() {
            let diameter = (bound != u64::MAX).then_some(diameter);
            return Growth::Covered(team.into_team(), diameter);
        }
        if rules.max_size.is_some_and(|k| team.members().len() >= k) {
            return Growth::Stuck;
        }
        let next_skill = select_skill(remaining);
        // Candidates: holders of the skill, outside the team, compatible with
        // every member.
        candidates.clear();
        for &u in skills.users_with_skill(next_skill) {
            let u = NodeId::new(u as usize);
            if team.contains(u) {
                // Already in the team but does not hold the uncovered skill —
                // cannot happen because covered includes the member's skills.
                continue;
            }
            stats.candidates_examined += 1;
            if team.admits(u) {
                candidates.push(u);
            }
        }
        if candidates.is_empty() {
            return Growth::Stuck;
        }
        // The chosen candidate, plus its distance to the team when the
        // policy already computed it.
        let (chosen, distance) = match rules.choice {
            Choice::User(UserPolicy::MinDistance) => {
                let (distance, chosen) = candidates
                    .iter()
                    .map(|&c| (team.distance_to(c), c))
                    .min_by_key(|&(d, c)| (d, c.index()))
                    .expect("candidates non-empty");
                if rules.max_distance.is_some_and(|bound| distance > bound) {
                    return Growth::Stuck;
                }
                (chosen, Some(distance))
            }
            Choice::User(UserPolicy::MostCompatible) => {
                // Relevance pool: holders of any still-uncovered skill.
                relevant_users(skills, remaining, pool);
                // With exact packed rows and a large enough pool, the
                // per-candidate pool scan collapses to a popcount of
                // `row(c) ∧ pool` (minus the self pair, which the scalar
                // scan excludes via `p != c`). The popcount pays one full
                // word scan plus a row fetch per candidate, so it must
                // amortise over well more scalar probes than there are
                // words — smaller pools probe scalar-wise.
                let pool_bits = (pool.len() >= 2 * crate::compat::bitset_words(comp.node_count()))
                    .then(|| {
                        pool_bits.reset(comp.node_count());
                        for &p in pool.iter() {
                            pool_bits.insert(p);
                        }
                        &*pool_bits
                    });
                let chosen = *candidates
                    .iter()
                    .max_by_key(|&&c| {
                        let fast = pool_bits.and_then(|bits| {
                            let h = comp.packed_row(c).filter(|h| h.exact())?;
                            Some(
                                h.row().intersection_count(bits.words())
                                    - usize::from(
                                        bits.contains(c) && h.row().is_compatible(c.index()),
                                    ),
                            )
                        });
                        let compat_count = fast.unwrap_or_else(|| {
                            pool.iter()
                                .filter(|&&p| p != c && comp.compatible(c, NodeId::new(p.index())))
                                .count()
                        });
                        (compat_count, std::cmp::Reverse(c.index()))
                    })
                    .expect("candidates non-empty");
                (chosen, None)
            }
            Choice::User(UserPolicy::Random) => {
                (candidates[rng.gen_range(0..candidates.len())], None)
            }
            Choice::Synergy => {
                // Pair probes, not member lanes: on a lazy SBPH/SBP store a
                // member's row is only a forward-direction bound.
                let gain = |c: NodeId| -> u64 {
                    let members = team.members().iter();
                    members.map(|&m| pair_synergy(comp.distance(c, m))).sum()
                };
                let chosen = candidates
                    .iter()
                    .max_by_key(|&&c| (gain(c), std::cmp::Reverse(c.index())));
                (*chosen.expect("candidates non-empty"), None)
            }
        };
        if bound != u64::MAX {
            diameter = diameter.max(distance.unwrap_or_else(|| team.distance_to(chosen)));
            if diameter >= bound {
                return Growth::Abandoned;
            }
        }
        covered.union_with(skills.skills_of(chosen.index()));
        team.push(chosen);
    }
}

/// A candidate team under construction.
///
/// With packed rows it keeps the [`CandidateMask`] (the AND of the member
/// rows) together with the member row handles themselves. The two
/// questions growth asks about a candidate then cost one mask bit ("is it
/// compatible with every member?") and one distance-lane load per member
/// row ("how far is it from the team?"). A relation probe would instead
/// fetch the *candidate's* row, which a store that is not full may build.
struct GrowingTeam<'s, 'c, C: ?Sized> {
    comp: &'c C,
    /// The members in joining order, in the solve's reused buffer.
    members: &'s mut Vec<NodeId>,
    /// The mask and the member rows, in member order; `None` once some
    /// member has no packed row (scalar probes from then on).
    packed: Option<(&'s mut CandidateMask, &'s mut Vec<RowHandle<'c>>)>,
}

impl<'s, 'c, C: Compatibility + ?Sized> GrowingTeam<'s, 'c, C> {
    /// A team of the (non-empty) `seed` members. `mask_buf`, `rows` and
    /// `members` are the solve's reusable buffers; their previous contents
    /// are discarded.
    fn new(
        comp: &'c C,
        seed: &[NodeId],
        mask_buf: &'s mut Option<CandidateMask>,
        rows: &'s mut Vec<RowHandle<'c>>,
        members: &'s mut Vec<NodeId>,
    ) -> Self {
        let (&first, rest) = seed.split_first().expect("a seed has members");
        rows.clear();
        members.clear();
        members.push(first);
        let packed = comp.packed_row(first).map(|handle| {
            let mask = mask_buf.get_or_insert_with(CandidateMask::default);
            mask.reseed(&handle);
            rows.push(handle);
            (mask, rows)
        });
        let mut team = GrowingTeam {
            comp,
            members,
            packed,
        };
        for &m in rest {
            team.push(m);
        }
        team
    }

    /// The current members, in joining order.
    fn members(&self) -> &[NodeId] {
        self.members
    }

    /// `true` if `u` is already a member.
    fn contains(&self, u: NodeId) -> bool {
        self.members.contains(&u)
    }

    /// `true` iff `u` is compatible with every member. A set mask bit is
    /// sound; a clear one is only authoritative when every member row was
    /// exact, otherwise the pair probes decide.
    fn admits(&self, u: NodeId) -> bool {
        match &self.packed {
            Some((mask, _)) if mask.allows(u) => true,
            Some((mask, _)) if mask.is_exact() => false,
            _ => self.comp.compatible_with_all(u, self.members),
        }
    }

    /// `u`'s distance to the team (see [`distance_to_team`]), read from the
    /// member rows when they are all exact.
    fn distance_to(&self, u: NodeId) -> u64 {
        let exact_rows = match &self.packed {
            Some((mask, rows)) if mask.is_exact() => Some(rows.as_slice()),
            _ => None,
        };
        distance_to_team(self.comp, u, self.members, exact_rows)
    }

    /// Adds `u` as a member, intersecting its row into the mask.
    fn push(&mut self, u: NodeId) {
        self.members.push(u);
        if self.packed.is_none() {
            return;
        }
        match self.comp.packed_row(u) {
            Some(handle) => {
                if let Some((mask, rows)) = &mut self.packed {
                    mask.intersect_member(&handle);
                    rows.push(handle);
                }
            }
            None => self.packed = None,
        }
    }

    /// The finished team.
    fn into_team(self) -> Team {
        Team::new(self.members.iter().copied())
    }
}

/// The candidate's distance to the team under the relation's distance:
/// its largest distance to any member (matching the diameter cost).
/// Missing distances are treated as effectively infinite.
///
/// `exact_rows`, when given, holds one exact packed row per member: the
/// distances are then read from the members' distance lanes, which for a
/// symmetric relation equal the pair probes `comp.distance(candidate, m)`.
fn distance_to_team<C: Compatibility + ?Sized>(
    comp: &C,
    candidate: NodeId,
    team: &[NodeId],
    exact_rows: Option<&[RowHandle<'_>]>,
) -> u64 {
    const MISSING: u64 = u64::MAX / 2;
    match exact_rows {
        Some(rows) => rows
            .iter()
            .map(|r| match r.row().raw_distance(candidate.index()) {
                UNREACHABLE_DISTANCE => MISSING,
                d => u64::from(d),
            })
            .max()
            .unwrap_or(0),
        None => team
            .iter()
            .map(|&m| comp.distance(candidate, m).map_or(MISSING, u64::from))
            .max()
            .unwrap_or(0),
    }
}

/// Refills `pool` with every user holding at least one of
/// `skills_wanted`, deduplicated.
fn relevant_users(
    skills: &tfsn_skills::assignment::SkillAssignment,
    skills_wanted: &[SkillId],
    pool: &mut Vec<NodeId>,
) {
    pool.clear();
    let holders = skills_wanted
        .iter()
        .flat_map(|&s| skills.users_with_skill(s));
    pool.extend(holders.map(|&u| NodeId::new(u as usize)));
    pool.sort_unstable();
    pool.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::{Sign, SignedGraph};
    use tfsn_skills::assignment::SkillAssignment;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn s(i: usize) -> SkillId {
        SkillId::new(i)
    }

    /// A small pool where the compatible choice matters:
    ///
    /// ```text
    ///   0 (+) 1     0 holds skill 0
    ///   1 (-) 2     1, 2, 3 hold skill 1
    ///   0 (+) 3     3 is farther from 0 than 1 but 2 is a foe of 1
    ///   3 (+) 4     4 holds skill 2
    /// ```
    fn setup() -> (SignedGraph, SkillAssignment) {
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Negative),
            (0, 3, Sign::Positive),
            (3, 4, Sign::Positive),
        ]);
        let mut skills = SkillAssignment::new(3, 5);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        skills.grant(2, s(1));
        skills.grant(3, s(1));
        skills.grant(4, s(2));
        (g, skills)
    }

    #[test]
    fn empty_task_yields_empty_team() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let team = solve_greedy(
            &inst,
            &comp,
            &Task::new([]),
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert!(team.is_empty());
    }

    #[test]
    fn uncoverable_skill_is_reported() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let err = solve_greedy(
            &inst,
            &comp,
            &Task::new([SkillId::new(7)]),
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        );
        // Skill 7 is outside the universe → frequency 0 → uncoverable.
        assert_eq!(err, Err(TfsnError::UncoverableSkill(SkillId::new(7))));
    }

    #[test]
    fn all_algorithms_return_valid_teams() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let task = Task::new([s(0), s(1), s(2)]);
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spo,
            CompatibilityKind::Sbph,
            CompatibilityKind::Nne,
        ] {
            let comp = CompatibilityMatrix::build(&g, kind);
            for alg in TeamAlgorithm::ALL {
                let team = solve_greedy(&inst, &comp, &task, alg, &GreedyConfig::default())
                    .unwrap_or_else(|e| panic!("{kind}/{alg}: {e}"));
                assert!(
                    team.is_valid(&skills, &task, &comp),
                    "{kind}/{alg}: invalid team"
                );
            }
        }
    }

    #[test]
    fn greedy_avoids_incompatible_members() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        // Task {0, 1}: seed 0 (skill 0), then must pick a holder of skill 1
        // compatible with 0. User 2 is SPA-incompatible with 0 (its only
        // shortest path to 0 goes through the negative edge), so the team
        // must use user 1 or 3.
        let task = Task::new([s(0), s(1)]);
        let team = solve_greedy(
            &inst,
            &comp,
            &task,
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert!(!team.contains(n(2)));
        assert!(team.contains(n(0)));
        assert_eq!(team.len(), 2);
        assert_eq!(team.diameter(&comp), Some(1));
    }

    #[test]
    fn min_distance_policy_prefers_close_candidates() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let task = Task::new([s(0), s(2)]);
        // Skill 2 is held only by user 4 at distance 2 from user 0, so every
        // algorithm returns {0, 4}; check the cost is the NNE (unsigned)
        // distance.
        let team = solve_greedy(
            &inst,
            &comp,
            &task,
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert_eq!(team.members(), &[n(0), n(4)]);
        assert_eq!(team.diameter(&comp), Some(2));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let task = Task::new([s(0), s(1), s(2)]);
        let cfg1 = GreedyConfig {
            random_seed: 7,
            ..Default::default()
        };
        let a = solve_greedy(&inst, &comp, &task, TeamAlgorithm::RANDOM, &cfg1).unwrap();
        let b = solve_greedy(&inst, &comp, &task, TeamAlgorithm::RANDOM, &cfg1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_and_seed_cap() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let task = Task::new([s(1), s(2)]);
        let (_, stats) = solve_greedy_with_stats(
            &inst,
            &comp,
            &task,
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        )
        .unwrap();
        // Skill 1 has three holders → three seeds (LC picks skill 2 or 1
        // first depending on degrees; either way seeds ≥ 1).
        assert!(stats.seeds_tried >= 1);
        assert!(stats.seeds_succeeded >= 1);
        assert!(stats.candidates_examined >= 1);
        let (_, capped) = solve_greedy_with_stats(
            &inst,
            &comp,
            &task,
            TeamAlgorithm::LCMD,
            &GreedyConfig {
                max_seeds: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(capped.seeds_tried, 1);
    }

    #[test]
    fn seeds_that_cannot_win_are_abandoned() {
        // A positive path 0 - 1 - 2 - 3. Skill 0: users 0 and 3; skill 1:
        // users 1 and 2. Seed 0 finishes {0, 1} at cost 1. Seed 3's best
        // joiner (user 2) is already at distance 1, which reaches that cost,
        // so seed 3 is abandoned under both deterministic user policies.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (2, 3, Sign::Positive),
        ]);
        let mut skills = SkillAssignment::new(2, 4);
        skills.grant(0, s(0));
        skills.grant(3, s(0));
        skills.grant(1, s(1));
        skills.grant(2, s(1));
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let task = Task::new([s(0), s(1)]);
        for alg in [TeamAlgorithm::RFMD, TeamAlgorithm::RFMC] {
            let (team, stats) =
                solve_greedy_with_stats(&inst, &comp, &task, alg, &GreedyConfig::default())
                    .unwrap();
            assert_eq!(team.members(), &[n(0), n(1)], "{alg}");
            assert_eq!(stats.seeds_tried, 2, "{alg}");
            assert_eq!(stats.seeds_succeeded, 1, "{alg}");
            assert_eq!(stats.seeds_abandoned, 1, "{alg}");
        }
        // RANDOM grows every seed to completion.
        let (_, stats) = solve_greedy_with_stats(
            &inst,
            &comp,
            &task,
            TeamAlgorithm::RANDOM,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert_eq!((stats.seeds_succeeded, stats.seeds_abandoned), (2, 0));
    }

    #[test]
    fn no_compatible_team_when_all_holders_are_foes() {
        // 0 holds skill 0; the only holders of skill 1 (users 1, 2) are foes
        // of 0 under every relation that respects negative edges.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Negative),
            (0, 2, Sign::Negative),
            (1, 2, Sign::Positive),
        ]);
        let mut skills = SkillAssignment::new(2, 3);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        skills.grant(2, s(1));
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        let err = solve_greedy(
            &inst,
            &comp,
            &Task::new([s(0), s(1)]),
            TeamAlgorithm::LCMD,
            &GreedyConfig::default(),
        );
        assert_eq!(err, Err(TfsnError::NoCompatibleTeam));
    }

    #[test]
    fn single_user_covering_whole_task() {
        let g = from_edge_triples(vec![(0, 1, Sign::Negative)]);
        let mut skills = SkillAssignment::new(2, 2);
        skills.grant(0, s(0));
        skills.grant(0, s(1));
        let inst = TfsnInstance::new(&g, &skills);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let team = solve_greedy(
            &inst,
            &comp,
            &Task::new([s(0), s(1)]),
            TeamAlgorithm::RFMD,
            &GreedyConfig::default(),
        )
        .unwrap();
        assert_eq!(team.members(), &[n(0)]);
        assert_eq!(team.diameter(&comp), Some(0));
    }
}
