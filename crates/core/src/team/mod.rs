//! The TFSN problem: teams, instances, costs and solvers (paper §2 and §4).
//!
//! * [`TfsnInstance`] bundles the signed graph with the skill assignment and
//!   validates that they describe the same pool of users.
//! * [`Team`] is a set of users with validity checks (task coverage, pairwise
//!   compatibility) and cost evaluation (diameter under the relation's
//!   distance).
//! * [`greedy`] implements the paper's Algorithm 2 with its skill- and
//!   user-selection policies; [`baseline`] the unsigned RarestFirst baseline
//!   of Table 3; [`exhaustive`] an exact solver for small instances used as
//!   ground truth in tests.
//!
//! ## Hardness
//!
//! The decision version of TFSNC (find *any* compatible covering team) is
//! NP-hard for every compatibility relation satisfying positive-edge
//! compatibility and negative-edge incompatibility (paper Theorem 2.2; the
//! reduction is from independent set: connect conflicting users with
//! negative edges so a compatible covering team is an independent set that
//! hits every skill). TFSN additionally minimises the diameter, so this
//! crate ships heuristics plus the exhaustive solver for validation.

pub mod baseline;
pub mod exhaustive;
pub mod greedy;
pub mod objective;
pub mod policies;
pub mod solver;

pub use objective::Objective;
pub use solver::Solver;

use serde::{Deserialize, Serialize};
use signed_graph::{NodeId, SignedGraph};
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::task::Task;
use tfsn_skills::SkillSet;

pub use crate::compat::NodeSet;

use crate::compat::{Compatibility, RowHandle, UNREACHABLE_DISTANCE};
use crate::error::TfsnError;

/// The word-parallel candidate filter of the greedy solver: the AND of the
/// current team members' bit-packed row bitsets
/// ([`Compatibility::packed_row`]).
///
/// Growing a team asks "is candidate `x` compatible with *every* member?"
/// once per member per candidate on the scalar path. The mask answers it
/// with a single bit probe: after intersecting each member's row (one
/// word-wise AND per added member), bit `x` is set iff every member's row
/// marks `x` compatible.
///
/// Soundness under inexact rows: a set bit always implies compatibility
/// (set bits of a forward-direction row are sound). A clear bit proves
/// incompatibility only when every intersected row was exact
/// ([`CandidateMask::is_exact`]); otherwise the caller must fall back to a
/// scalar [`Compatibility::compatible_with_all`] probe for cleared
/// candidates.
///
/// The mask takes row *handles* rather than fetching rows itself: the
/// solvers keep the member handles they fetched and read candidate
/// distances straight from them.
#[derive(Debug, Clone, Default)]
pub struct CandidateMask {
    words: Vec<u64>,
    nodes: usize,
    exact: bool,
}

impl CandidateMask {
    /// (Re-)seeds the mask from the seed member's row, in place (no
    /// reallocation) — the greedy solver tries many seeds per query and
    /// reuses one mask buffer across them.
    pub fn reseed(&mut self, seed: &RowHandle<'_>) {
        let row = seed.row();
        if self.words.len() == row.words().len() {
            self.words.copy_from_slice(row.words());
        } else {
            self.words.clear();
            self.words.extend_from_slice(row.words());
        }
        self.nodes = row.len();
        self.exact = seed.exact();
    }

    /// Intersects a new member's row into the mask (one word-wise AND).
    pub fn intersect_member(&mut self, member: &RowHandle<'_>) {
        for (w, m) in self.words.iter_mut().zip(member.row().words()) {
            *w &= m;
        }
        self.exact &= member.exact();
    }

    /// `true` iff every intersected row marked `v` compatible.
    pub fn allows(&self, v: NodeId) -> bool {
        let v = v.index();
        v < self.nodes && self.words[v / 64] >> (v % 64) & 1 == 1
    }

    /// `true` when a clear bit proves incompatibility with some member.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Words currently allocated for the bitset (a reuse test hook).
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// Reusable solver scratch space: buffers a solve needs that are worth
/// keeping warm *across* solves — today the [`CandidateMask`] word buffer,
/// which is `O(|V|/64)` and otherwise reallocated once per query.
///
/// Serving layers that answer many queries per thread (the engine's batch
/// workers) hold one `SolveScratch` per worker thread and pass it to
/// [`Solver::solve_objective_with_scratch`]; the mask buffer is then
/// reseeded in place instead of reallocated. The scratch carries no query
/// state between solves — only capacity — so reusing it never changes
/// answers, and a buffer sized for one graph resizes itself when the next
/// solve targets a differently-sized deployment.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// The candidate-mask buffer (`None` until the first packed-row solve).
    pub(crate) mask: Option<CandidateMask>,
}

impl SolveScratch {
    /// An empty scratch; buffers allocate on first use.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Words currently allocated in the mask buffer (0 before first use) —
    /// lets tests assert the allocation survives across solves.
    pub fn mask_word_capacity(&self) -> usize {
        self.mask.as_ref().map_or(0, CandidateMask::word_capacity)
    }
}

/// A TFSN problem instance: the pool of users, their relationships and their
/// skills. (Tasks vary per query and are passed to the solvers separately.)
#[derive(Debug, Clone, Copy)]
pub struct TfsnInstance<'a> {
    graph: &'a SignedGraph,
    skills: &'a SkillAssignment,
}

impl<'a> TfsnInstance<'a> {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics if the graph and skill assignment disagree on the number of
    /// users; use [`TfsnInstance::try_new`] for a fallible constructor.
    pub fn new(graph: &'a SignedGraph, skills: &'a SkillAssignment) -> Self {
        Self::try_new(graph, skills).expect("graph and skill assignment user counts must match")
    }

    /// Fallible constructor returning [`TfsnError::UserCountMismatch`] when
    /// the graph and the skill assignment describe different pools.
    pub fn try_new(graph: &'a SignedGraph, skills: &'a SkillAssignment) -> Result<Self, TfsnError> {
        if graph.node_count() != skills.user_count() {
            return Err(TfsnError::UserCountMismatch {
                graph_nodes: graph.node_count(),
                skill_users: skills.user_count(),
            });
        }
        Ok(TfsnInstance { graph, skills })
    }

    /// The signed graph.
    pub fn graph(&self) -> &'a SignedGraph {
        self.graph
    }

    /// The skill assignment.
    pub fn skills(&self) -> &'a SkillAssignment {
        self.skills
    }

    /// Number of users in the pool.
    pub fn user_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Checks that every skill of `task` is possessed by at least one user.
    pub fn check_coverable(&self, task: &Task) -> Result<(), TfsnError> {
        for &s in task.skills() {
            if self.skills.skill_frequency(s) == 0 {
                return Err(TfsnError::UncoverableSkill(s));
            }
        }
        Ok(())
    }
}

/// A team of users (sorted, duplicate-free member list).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Team {
    members: Vec<NodeId>,
}

impl Team {
    /// Creates a team from any collection of members (sorted, deduplicated).
    pub fn new<I: IntoIterator<Item = NodeId>>(members: I) -> Self {
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Team { members }
    }

    /// The members in ascending id order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for the empty team.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` if `user` is a member.
    pub fn contains(&self, user: NodeId) -> bool {
        self.members.binary_search(&user).is_ok()
    }

    /// The union of the members' skills.
    pub fn covered_skills(&self, skills: &SkillAssignment) -> SkillSet {
        skills_covered_by(skills, &self.members)
    }

    /// `true` if the team covers every skill of `task`.
    pub fn covers(&self, skills: &SkillAssignment, task: &Task) -> bool {
        task.is_covered_by(&self.covered_skills(skills))
    }

    /// `true` if every pair of members is compatible under `comp`.
    pub fn is_compatible<C: Compatibility + ?Sized>(&self, comp: &C) -> bool {
        for (i, &u) in self.members.iter().enumerate() {
            for &v in &self.members[i + 1..] {
                if !comp.compatible(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// The communication cost of the team: its diameter under the relation's
    /// distance (paper §4). Returns `None` if some pair has no defined
    /// distance (e.g. an incompatible or disconnected pair); single-member
    /// and empty teams have cost 0.
    pub fn diameter<C: Compatibility + ?Sized>(&self, comp: &C) -> Option<u32> {
        self.pair_distances(comp)
            .try_fold(0, |diameter, d| Some(diameter.max(d?)))
    }

    /// The relation's distance of every member pair (`None` where a pair
    /// has none). With packed rows available, each member's row is fetched
    /// once and a pair reads the smaller of its two lanes (the
    /// symmetric-closure distance, so sound for inexact rows too) instead
    /// of one relation probe per pair; a team of fewer than two fetches
    /// nothing.
    pub(crate) fn pair_distances<'a, C: Compatibility + ?Sized>(
        &'a self,
        comp: &'a C,
    ) -> impl Iterator<Item = Option<u32>> + 'a {
        let members = &self.members;
        let rows: Option<Vec<RowHandle<'a>>> = match members.len() {
            0 | 1 => None,
            _ => members.iter().map(|&m| comp.packed_row(m)).collect(),
        };
        let pairs =
            (0..members.len()).flat_map(move |i| (i + 1..members.len()).map(move |j| (i, j)));
        pairs.map(move |(i, j)| match &rows {
            Some(rows) => {
                let raw = rows[i].row().raw_distance(members[j].index());
                let raw = raw.min(rows[j].row().raw_distance(members[i].index()));
                (raw != UNREACHABLE_DISTANCE).then_some(u32::from(raw))
            }
            None => comp.distance(members[i], members[j]),
        })
    }

    /// Full validity check: covers the task and is pairwise compatible.
    pub fn is_valid<C: Compatibility + ?Sized>(
        &self,
        skills: &SkillAssignment,
        task: &Task,
        comp: &C,
    ) -> bool {
        self.covers(skills, task) && self.is_compatible(comp)
    }
}

impl FromIterator<NodeId> for Team {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Team::new(iter)
    }
}

/// The union of the skills of `members` (users outside the assignment hold
/// none): [`Team::covered_skills`] for a member list in any order.
pub(crate) fn skills_covered_by(skills: &SkillAssignment, members: &[NodeId]) -> SkillSet {
    let mut covered = SkillSet::new(skills.skill_count());
    for &m in members {
        if m.index() < skills.user_count() {
            covered.union_with(skills.skills_of(m.index()));
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;
    use tfsn_skills::SkillId;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn s(i: usize) -> SkillId {
        SkillId::new(i)
    }

    fn setup() -> (SignedGraph, SkillAssignment) {
        // 0 -+ 1 -+ 2, 0 -- 3
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (0, 3, Sign::Negative),
        ]);
        let mut skills = SkillAssignment::new(3, 4);
        skills.grant(0, s(0));
        skills.grant(1, s(1));
        skills.grant(2, s(2));
        skills.grant(3, s(1));
        (g, skills)
    }

    #[test]
    fn instance_validation() {
        let (g, skills) = setup();
        let inst = TfsnInstance::new(&g, &skills);
        assert_eq!(inst.user_count(), 4);
        assert!(inst.check_coverable(&Task::new([s(0), s(2)])).is_ok());
        // Create an uncoverable requirement.
        let mut bigger = SkillAssignment::new(5, 4);
        bigger.grant(0, s(0));
        let g2 = g.clone();
        let inst2 = TfsnInstance::new(&g2, &bigger);
        assert_eq!(
            inst2.check_coverable(&Task::new([SkillId::new(4)])),
            Err(TfsnError::UncoverableSkill(SkillId::new(4)))
        );
        // Mismatched user counts.
        let small_skills = SkillAssignment::new(3, 2);
        assert!(matches!(
            TfsnInstance::try_new(&g, &small_skills),
            Err(TfsnError::UserCountMismatch { .. })
        ));
    }

    #[test]
    fn team_construction_dedups() {
        let t = Team::new([n(2), n(0), n(2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.members(), &[n(0), n(2)]);
        assert!(t.contains(n(2)));
        assert!(!t.contains(n(1)));
        assert!(!t.is_empty());
        let empty: Team = std::iter::empty().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn coverage_and_compatibility() {
        let (g, skills) = setup();
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let task = Task::new([s(0), s(1)]);
        let good = Team::new([n(0), n(1)]);
        assert!(good.covers(&skills, &task));
        assert!(good.is_compatible(&comp));
        assert!(good.is_valid(&skills, &task, &comp));
        // Covers but incompatible: 0 and 3 are foes.
        let bad = Team::new([n(0), n(3)]);
        assert!(bad.covers(&skills, &task));
        assert!(!bad.is_compatible(&comp));
        assert!(!bad.is_valid(&skills, &task, &comp));
        // Compatible but does not cover.
        let partial = Team::new([n(1), n(2)]);
        assert!(!partial.covers(&skills, &task));
        assert!(partial.is_compatible(&comp));
    }

    #[test]
    fn costs() {
        let (g, _skills) = setup();
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let t = Team::new([n(0), n(1), n(2)]);
        assert_eq!(t.diameter(&comp), Some(2));
        assert_eq!(Team::new([n(0)]).diameter(&comp), Some(0));
        assert_eq!(Team::new([]).diameter(&comp), Some(0));
        // A pair with no defined SPA distance in a disconnected graph.
        let g2 = from_edge_triples(vec![(0, 1, Sign::Positive), (2, 3, Sign::Positive)]);
        let comp2 = CompatibilityMatrix::build(&g2, CompatibilityKind::Spa);
        assert_eq!(Team::new([n(0), n(2)]).diameter(&comp2), None);
    }

    #[test]
    fn covered_skills_union() {
        let (_g, skills) = setup();
        let t = Team::new([n(0), n(3)]);
        let covered = t.covered_skills(&skills);
        assert!(covered.contains(s(0)));
        assert!(covered.contains(s(1)));
        assert!(!covered.contains(s(2)));
        // Out-of-range members are ignored.
        let t = Team::new([n(99)]);
        assert!(t.covered_skills(&skills).is_empty());
    }
}
