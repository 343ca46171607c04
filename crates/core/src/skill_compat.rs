//! Skill-level compatibility: compatibility degrees `cd(s, s')` and `cd(s)`.
//!
//! The paper lifts user compatibility to skills: the *compatibility degree*
//! of two skills is the number of compatible user pairs holding them,
//!
//! ```text
//! cd(s_i, s_j) = |{(u_i, u_j) : (u_i, u_j) ∈ Comp, s_i ∈ skills(u_i), s_j ∈ skills(u_j)}| ,
//! ```
//!
//! two skills are *compatible* when `cd(s_i, s_j) > 0` (self-compatibility —
//! one user holding both skills — counts via the reflexive pair `(u, u)`),
//! and the degree of a single skill is `cd(s) = Σ_{s_j ≠ s} cd(s, s_j)`.
//! Table 2 reports the fraction of compatible skill pairs; the
//! least-compatible-skill-first selection policy of Algorithm 2 orders the
//! task's skills by `cd(s)` restricted to the task.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::task::Task;
use tfsn_skills::SkillId;

use crate::compat::{bitset_words, CompatRow, Compatibility, RowHandle};
use signed_graph::NodeId;

/// A boolean matrix over skill pairs: which pairs have at least one
/// compatible user pair. Built from per-source compatibility rows (all rows
/// for the exact figure, a sample of rows for an estimate on large graphs).
#[derive(Debug, Clone)]
pub struct SkillPairCompatibility {
    skills: usize,
    /// Row-major upper-triangular-inclusive boolean matrix.
    compatible: Vec<bool>,
}

impl SkillPairCompatibility {
    /// Marks skill pairs as compatible using the given bit-packed per-source
    /// rows.
    ///
    /// Passing every row of a [`crate::compat::CompatibilityMatrix`] yields
    /// the exact relation; passing a subset of rows yields a lower-bound
    /// estimate (pairs witnessed only by unsampled sources stay unmarked).
    pub fn from_rows(rows: &[CompatRow], skills: &SkillAssignment) -> Self {
        let s = skills.skill_count();
        let mut compatible = vec![false; s * s];
        for row in rows {
            let u = row.source().index();
            if u >= skills.user_count() {
                continue;
            }
            let u_skills = skills.skills_of(u).to_vec();
            if u_skills.is_empty() {
                continue;
            }
            for v in row.iter_compatible() {
                if v >= skills.user_count() {
                    continue;
                }
                for &si in &u_skills {
                    for sj in skills.skills_of(v).iter() {
                        compatible[si.index() * s + sj.index()] = true;
                        compatible[sj.index() * s + si.index()] = true;
                    }
                }
            }
        }
        SkillPairCompatibility {
            skills: s,
            compatible,
        }
    }

    /// Number of skills in the universe.
    pub fn skill_count(&self) -> usize {
        self.skills
    }

    /// `true` if the pair `(a, b)` has at least one compatible user pair.
    pub fn pair_compatible(&self, a: SkillId, b: SkillId) -> bool {
        if a.index() >= self.skills || b.index() >= self.skills {
            return false;
        }
        self.compatible[a.index() * self.skills + b.index()]
    }

    /// Fraction of unordered pairs of *distinct* skills that are compatible.
    /// Only skills possessed by at least one user are counted in the
    /// denominator (a skill nobody holds cannot appear in any pair), which is
    /// how the paper's Table 2 skill percentages behave.
    pub fn compatible_pair_fraction(&self, skills: &SkillAssignment) -> f64 {
        let supported: Vec<usize> = (0..self.skills)
            .filter(|&s| skills.skill_frequency(SkillId::new(s)) > 0)
            .collect();
        let k = supported.len();
        if k < 2 {
            return 0.0;
        }
        let mut compatible_pairs = 0u64;
        for (i, &a) in supported.iter().enumerate() {
            for &b in &supported[i + 1..] {
                if self.compatible[a * self.skills + b] {
                    compatible_pairs += 1;
                }
            }
        }
        compatible_pairs as f64 / (k as u64 * (k as u64 - 1) / 2) as f64
    }

    /// `true` if every pair of distinct skills in `task` is compatible — the
    /// "MAX" upper bound of Figure 2(a): a task whose skills are pairwise
    /// compatible *may* admit a compatible team, one with an incompatible
    /// skill pair certainly does not.
    pub fn task_is_skill_compatible(&self, task: &Task) -> bool {
        let skills = task.skills();
        for (i, &a) in skills.iter().enumerate() {
            for &b in &skills[i + 1..] {
                if !self.pair_compatible(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

/// Compatibility degrees of the skills of one task, restricted to the task
/// (the quantity the least-compatible-skill-first policy ranks by).
#[derive(Debug, Clone)]
pub struct TaskSkillDegrees {
    degrees: Vec<(SkillId, u64)>,
}

impl TaskSkillDegrees {
    /// Computes `cd_T(s) = Σ_{s' ∈ T, s' ≠ s} cd(s, s')` for every skill of
    /// the task, counting ordered compatible user pairs between the holders
    /// of the two skills under `comp`.
    pub fn compute<C: Compatibility + ?Sized>(
        comp: &C,
        skills: &SkillAssignment,
        task: &Task,
    ) -> Self {
        Self::compute_capped(comp, skills, task, None)
    }

    /// Like [`TaskSkillDegrees::compute`] but considering at most
    /// `holder_cap` holders per skill (the lowest-id holders, so the result
    /// is deterministic). `None` means exact.
    ///
    /// The degrees are sums of one count `cd(s, s')` per skill pair of the
    /// task. A view pinned to an exact row snapshot of a store bound to
    /// `skills` lends the snapshot's [`PairCountMemo`]: pairs it already
    /// holds under the same cap cost one lookup, and only the others are
    /// counted from rows. Counting a pair reads one row per holder of one
    /// of its skills, so a cold pass over popular skills (hundreds of
    /// holders each on the Epinions-scale networks) costs about as much as
    /// the greedy growth that follows it; capping the holders bounds it
    /// and keeps the *ranking* the policy needs.
    pub fn compute_capped<C: Compatibility + ?Sized>(
        comp: &C,
        skills: &SkillAssignment,
        task: &Task,
        holder_cap: Option<usize>,
    ) -> Self {
        let cap = holder_cap.unwrap_or(usize::MAX).max(1);
        let task_skills = task.skills();
        let k = task_skills.len();
        let mut degrees = vec![0u64; k];
        if k >= 2 {
            let holders: Vec<&[u32]> = task_skills
                .iter()
                .map(|&s| {
                    let h = skills.users_with_skill(s);
                    &h[..h.len().min(cap)]
                })
                .collect();
            // Pair slot `p` holds skills `pairs[p] = (i, j)`, `i < j`; task
            // skills are sorted, so each key names the lower id first.
            let pairs: Vec<(usize, usize)> = (0..k)
                .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
                .collect();
            let key = |p: usize| -> PairKey {
                let (i, j) = pairs[p];
                (task_skills[i], task_skills[j], cap)
            };
            let memo = comp.pair_count_memo().filter(|memo| memo.serves(skills));
            let mut counts = vec![0u64; pairs.len()];
            let misses = match memo {
                Some(memo) => memo.read((0..pairs.len()).map(key), &mut counts),
                None => (0..pairs.len()).collect(),
            };
            count_pairs(comp, &holders, &pairs, &misses, &mut counts);
            if let Some(memo) = memo.filter(|_| !misses.is_empty()) {
                memo.store(misses.iter().map(|&p| (key(p), counts[p])));
            }
            for (&(i, j), &count) in pairs.iter().zip(&counts) {
                degrees[i] += count;
                degrees[j] += count;
            }
        }
        TaskSkillDegrees {
            degrees: task_skills.iter().copied().zip(degrees).collect(),
        }
    }

    /// The degree of one skill (0 when the skill is not part of the task).
    pub fn degree(&self, skill: SkillId) -> u64 {
        self.degrees
            .iter()
            .find(|(s, _)| *s == skill)
            .map(|(_, d)| *d)
            .unwrap_or(0)
    }

    /// The task skill with the smallest degree among `candidates`
    /// (ties broken by skill id).
    pub fn least_compatible(&self, candidates: &[SkillId]) -> Option<SkillId> {
        candidates
            .iter()
            .copied()
            .min_by_key(|&s| (self.degree(s), s.index()))
    }
}

/// A memoised pair count's key: the pair's two skills, lower id first, and
/// the holder cap it was counted under (`usize::MAX` for every holder).
type PairKey = (SkillId, SkillId, usize);

/// Skill-pair counts `cd(s, s')` over one immutable snapshot of an exact
/// relation, for one skill assignment: what the degree passes of every
/// least-compatible-first solve against that snapshot share.
///
/// A full row store ([`crate::compat::LazyCompatibility`]) bound to a
/// deployment's assignment creates an empty memo with each exact row table
/// it publishes, and a query reaches it through the
/// [`Compatibility::pair_count_memo`] of the view that pinned the table: a
/// fill, the last row filling and every mutation sweep publish a new table,
/// so the counts never outlive the rows they were counted from. The keys
/// are skill ids, so the memo serves only the assignment it was made for
/// (the same allocation, not an equal one). It keeps at most `limit`
/// entries, the relation's node count, and then stores nothing more.
pub struct PairCountMemo {
    skills: Arc<SkillAssignment>,
    limit: usize,
    counts: Mutex<HashMap<PairKey, u64>>,
}

impl PairCountMemo {
    /// An empty memo for `skills` that keeps at most `limit` counts.
    pub(crate) fn new(skills: Arc<SkillAssignment>, limit: usize) -> Self {
        PairCountMemo {
            skills,
            limit,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// `true` when the counts were taken for this very assignment.
    fn serves(&self, skills: &SkillAssignment) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.skills), skills)
    }

    /// Copies the held counts of `keys` into `counts` under one lock and
    /// returns the slots it does not hold.
    fn read(&self, keys: impl Iterator<Item = PairKey>, counts: &mut [u64]) -> Vec<usize> {
        let held = self.counts.lock();
        let mut misses = Vec::new();
        for (p, key) in keys.enumerate() {
            match held.get(&key) {
                Some(&count) => counts[p] = count,
                None => misses.push(p),
            }
        }
        misses
    }

    /// Keeps `entries` under one lock, as many as the limit leaves room for.
    fn store(&self, entries: impl Iterator<Item = (PairKey, u64)>) {
        let mut held = self.counts.lock();
        for (key, count) in entries {
            if held.len() >= self.limit {
                break;
            }
            held.insert(key, count);
        }
    }
}

/// One task skill's capped holders as a bitset: its non-empty words
/// `(word index, bits)` in word order, and the whole bitset as well when
/// more than half its words are non-empty.
struct HolderSet {
    sparse: Vec<(u32, u64)>,
    dense: Option<Vec<u64>>,
}

impl HolderSet {
    /// The set of `holders` over a bitset of `words` words (every holder
    /// falls inside it).
    fn new(holders: &[u32], words: usize) -> Self {
        let mut sparse: Vec<(u32, u64)> = Vec::with_capacity(holders.len());
        for &h in holders {
            let (w, bit) = (h / 64, 1u64 << (h % 64));
            match sparse.last_mut() {
                Some((last, bits)) if *last == w => *bits |= bit,
                _ => sparse.push((w, bit)),
            }
        }
        // `users_with_skill` is sorted, but merge defensively in case it
        // ever is not.
        sparse.sort_unstable_by_key(|&(w, _)| w);
        sparse.dedup_by(|(w, bits), (kept_w, kept_bits)| {
            *w == *kept_w && {
                *kept_bits |= *bits;
                true
            }
        });
        let dense = (2 * sparse.len() > words).then(|| {
            let mut dense = vec![0u64; words];
            for &(w, bits) in &sparse {
                dense[w as usize] = bits;
            }
            dense
        });
        HolderSet { sparse, dense }
    }

    /// Words one row's count against the set reads.
    fn cost(&self) -> usize {
        self.dense.as_ref().map_or(self.sparse.len(), Vec::len)
    }

    /// `|row ∧ set|`.
    fn count(&self, row: &CompatRow) -> u64 {
        match &self.dense {
            Some(dense) => row.intersection_count(dense) as u64,
            None => {
                let words = row.words();
                let word = |w: u32| words.get(w as usize).copied().unwrap_or(0);
                let bits = self.sparse.iter().map(|&(w, bits)| word(w) & bits);
                bits.map(|b| u64::from(b.count_ones())).sum()
            }
        }
    }
}

/// The number of holders of `set` compatible with `u`, by pair probes.
fn probe_count<C: Compatibility + ?Sized>(comp: &C, u: usize, set: &[u32]) -> u64 {
    let u = NodeId::new(u);
    set.iter()
        .filter(|&&v| comp.compatible(u, NodeId::new(v as usize)))
        .count() as u64
}

/// Adds `cd(i, j)` to `counts[p]` for every pair slot `p` of `todo`, where
/// `pairs[p] = (i, j)`: the compatible ordered pairs between the holders of
/// skills `i` and `j`.
///
/// The relation is symmetric, so a pair is counted from one side only:
/// `cd(i, j) = Σ_{u ∈ H_i} |row(u) ∧ H_j|`, from whichever side's rows
/// read fewer words against the other side's holder set (`|H_i| · cost(H_j)`
/// against `|H_j| · cost(H_i)`, a set costing its non-empty words, or all
/// of them when it is dense). A row's self bit counts the reflexive pair
/// of a user holding both skills, exactly as `compatible(u, u)` does. Each
/// counting skill's holders fetch their rows once for all of that skill's
/// pairs; a holder of several counting skills fetches its row once per
/// skill, which costs less than merging the skills' holders into one id
/// order (a pinned table or a matrix hands a row out by index). A missing
/// or inexact row is probed pair by pair instead.
fn count_pairs<C: Compatibility + ?Sized>(
    comp: &C,
    holders: &[&[u32]],
    pairs: &[(usize, usize)],
    todo: &[usize],
    counts: &mut [u64],
) {
    if todo.is_empty() {
        return;
    }
    let span = holders
        .iter()
        .filter_map(|hs| hs.iter().max())
        .map(|&u| u as usize + 1)
        .fold(comp.node_count(), usize::max);
    let words = bitset_words(span);
    let sets: Vec<HolderSet> = holders.iter().map(|hs| HolderSet::new(hs, words)).collect();
    // `from[i]`: the pair slots counted from skill `i`'s rows, each with
    // the skill on the other side.
    let mut from: Vec<Vec<(usize, usize)>> = vec![Vec::new(); holders.len()];
    for &p in todo {
        let (i, j) = pairs[p];
        if holders[i].len() * sets[j].cost() <= holders[j].len() * sets[i].cost() {
            from[i].push((p, j));
        } else {
            from[j].push((p, i));
        }
    }
    for (i, from) in from.iter().enumerate() {
        if from.is_empty() {
            continue;
        }
        for &u in holders[i] {
            let u = u as usize;
            let row = comp.packed_row(NodeId::new(u)).filter(RowHandle::exact);
            for &(p, j) in from {
                counts[p] += match &row {
                    Some(h) => sets[j].count(h.row()),
                    None => probe_count(comp, u, holders[j]),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{CompatibilityKind, CompatibilityMatrix};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;

    fn s(i: usize) -> SkillId {
        SkillId::new(i)
    }

    /// 0 —+— 1, 0 —-— 2. Skills: user0 {0}, user1 {1}, user2 {2}, user0 also {3}.
    fn setup() -> (CompatibilityMatrix, SkillAssignment) {
        let g = from_edge_triples(vec![(0, 1, Sign::Positive), (0, 2, Sign::Negative)]);
        let comp = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        let mut skills = SkillAssignment::new(4, 3);
        skills.grant(0, s(0));
        skills.grant(0, s(3));
        skills.grant(1, s(1));
        skills.grant(2, s(2));
        (comp, skills)
    }

    #[test]
    fn pair_compatibility_and_self_compatibility() {
        let (comp, skills) = setup();
        let pairs = SkillPairCompatibility::from_rows(comp.rows(), &skills);
        assert_eq!(pairs.skill_count(), 4);
        // Users 0 and 1 are friends → skills 0 and 1 compatible.
        assert!(pairs.pair_compatible(s(0), s(1)));
        assert!(pairs.pair_compatible(s(1), s(0)));
        // Users 0 and 2 are foes, and no other holder exists → incompatible.
        assert!(!pairs.pair_compatible(s(0), s(2)));
        assert!(!pairs.pair_compatible(s(1), s(2)));
        // Self-compatibility: user 0 holds skills 0 and 3.
        assert!(pairs.pair_compatible(s(0), s(3)));
        // Out-of-range skills are never compatible.
        assert!(!pairs.pair_compatible(s(0), SkillId::new(99)));
    }

    #[test]
    fn fraction_counts_supported_skills_only() {
        let (comp, skills) = setup();
        let pairs = SkillPairCompatibility::from_rows(comp.rows(), &skills);
        // Supported skills: 0, 1, 2, 3 → 6 unordered pairs.
        // Compatible: (0,1), (0,3), (1,3) → 3 of 6.
        let frac = pairs.compatible_pair_fraction(&skills);
        assert!((frac - 0.5).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn task_skill_compatibility_upper_bound() {
        let (comp, skills) = setup();
        let pairs = SkillPairCompatibility::from_rows(comp.rows(), &skills);
        assert!(pairs.task_is_skill_compatible(&Task::new([s(0), s(1)])));
        assert!(pairs.task_is_skill_compatible(&Task::new([s(0), s(1), s(3)])));
        assert!(!pairs.task_is_skill_compatible(&Task::new([s(0), s(2)])));
        // Single-skill and empty tasks are trivially skill-compatible.
        assert!(pairs.task_is_skill_compatible(&Task::new([s(2)])));
        assert!(pairs.task_is_skill_compatible(&Task::new([])));
    }

    #[test]
    fn sampled_rows_give_lower_bound() {
        let (comp, skills) = setup();
        let full = SkillPairCompatibility::from_rows(comp.rows(), &skills);
        let sampled = SkillPairCompatibility::from_rows(&comp.rows()[..1], &skills);
        for a in 0..4 {
            for b in 0..4 {
                if sampled.pair_compatible(s(a), s(b)) {
                    assert!(full.pair_compatible(s(a), s(b)));
                }
            }
        }
    }

    /// The degrees `compute_capped` returns, in task order.
    fn degrees_of<C: Compatibility + ?Sized>(
        comp: &C,
        skills: &SkillAssignment,
        task: &Task,
        cap: Option<usize>,
    ) -> Vec<u64> {
        let degrees = TaskSkillDegrees::compute_capped(comp, skills, task, cap);
        task.skills().iter().map(|&t| degrees.degree(t)).collect()
    }

    /// `cd_T` from its definition: every ordered pair of capped holders of
    /// two distinct task skills, probed.
    fn definition_degrees(
        comp: &CompatibilityMatrix,
        skills: &SkillAssignment,
        task: &Task,
        cap: Option<usize>,
    ) -> Vec<u64> {
        let cap = cap.unwrap_or(usize::MAX).max(1);
        let holders = |s: SkillId| {
            let h = skills.users_with_skill(s);
            &h[..h.len().min(cap)]
        };
        let compatible =
            |(u, v): (u32, u32)| comp.compatible(NodeId::new(u as usize), NodeId::new(v as usize));
        let t = task.skills();
        t.iter()
            .map(|&a| {
                let others = t.iter().filter(|&&b| b != a);
                let pairs = others.flat_map(|&b| {
                    let with = move |&u: &u32| holders(b).iter().map(move |&v| (u, v));
                    holders(a).iter().flat_map(with)
                });
                pairs.filter(|&pair| compatible(pair)).count() as u64
            })
            .collect()
    }

    #[test]
    fn pair_kernel_counts_what_probes_count() {
        use crate::compat::{LazyCompatibility, RowTracker, ScalarOnly};
        use signed_graph::generators::{social_network, SocialNetworkConfig};
        use std::sync::Arc;
        // 150 nodes span three bitset words; skill s is held by every
        // (s + 2)-th user plus a few extras, so holders overlap, some users
        // hold several task skills, and the holder sets range from dense
        // (skill 0) to sparse.
        let g = social_network(&SocialNetworkConfig {
            nodes: 150,
            edges: 450,
            negative_fraction: 0.3,
            seed: 4,
            ..Default::default()
        });
        let mut skills = SkillAssignment::new(9, 150);
        for u in 0..150 {
            for sk in 0..9 {
                if u % (sk + 2) == 0 || (u * 7 + sk) % 23 == 0 {
                    skills.grant(u, s(sk));
                }
            }
        }
        let skills = Arc::new(skills);
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Nne,
            CompatibilityKind::Sbph,
        ] {
            let comp = CompatibilityMatrix::build(&g, kind);
            let filled = LazyCompatibility::new(Arc::new(g.clone()), kind, Default::default())
                .with_skills(skills.clone())
                .filled(2);
            // Rows built on demand: SBPH's are inexact, so probed.
            let lazy = LazyCompatibility::new(Arc::new(g.clone()), kind, Default::default());
            for task in [
                Task::new([s(0), s(1)]),
                Task::new([s(0), s(3), s(5), s(8)]),
                Task::new((0..9).map(s)),
                // The first skill is the most-held: every pair is counted
                // from the later skill's rows.
                Task::new([s(1), s(6), s(8)]),
            ] {
                for cap in [None, Some(7)] {
                    let expected = definition_degrees(&comp, &skills, &task, cap);
                    let label = format!("{kind} {:?} cap {cap:?}", task.skills());
                    let probed = degrees_of(&ScalarOnly(&comp), &skills, &task, cap);
                    assert_eq!(probed, expected, "{label}");
                    assert_eq!(degrees_of(&comp, &skills, &task, cap), expected, "{label}");
                    assert_eq!(degrees_of(&lazy, &skills, &task, cap), expected, "{label}");
                    // Cold, then warm from the snapshot's memo.
                    for _ in 0..2 {
                        let tracker = RowTracker::new(&filled);
                        assert!(tracker.pair_count_memo().is_some(), "{label}");
                        assert_eq!(
                            degrees_of(&tracker, &skills, &task, cap),
                            expected,
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    /// An 8-user ring, every third edge negative, under SPA, filled and
    /// bound to `skills`, plus the matrix to probe for the reference.
    fn bound_ring(
        skills: &std::sync::Arc<SkillAssignment>,
    ) -> (crate::compat::LazyCompatibility, CompatibilityMatrix) {
        let edges = (0..8).map(|i| {
            let sign = if i % 3 == 0 {
                Sign::Negative
            } else {
                Sign::Positive
            };
            (i, (i + 1) % 8, sign)
        });
        let g = from_edge_triples(edges.collect::<Vec<_>>());
        let kind = CompatibilityKind::Spa;
        let matrix = CompatibilityMatrix::build(&g, kind);
        let filled =
            crate::compat::LazyCompatibility::new(std::sync::Arc::new(g), kind, Default::default())
                .with_skills(skills.clone())
                .filled(1);
        (filled, matrix)
    }

    /// Ten skills over eight users: user `u` holds skill `(u * step + i) %
    /// 10` for `i` in `0..3`.
    fn spread_skills(step: usize) -> std::sync::Arc<SkillAssignment> {
        let mut skills = SkillAssignment::new(10, 8);
        for u in 0..8 {
            for i in 0..3 {
                skills.grant(u, s((u * step + i) % 10));
            }
        }
        std::sync::Arc::new(skills)
    }

    #[test]
    fn memo_stops_growing_at_node_count_and_stays_exact() {
        use crate::compat::RowTracker;
        let skills = spread_skills(3);
        let (filled, matrix) = bound_ring(&skills);
        // 45 skill pairs against a limit of 8 entries.
        let task = Task::new((0..10).map(s));
        let expected = definition_degrees(&matrix, &skills, &task, None);
        for pass in 0..3 {
            let tracker = RowTracker::new(&filled);
            assert_eq!(
                degrees_of(&tracker, &skills, &task, None),
                expected,
                "pass {pass}"
            );
            let memo = tracker
                .pair_count_memo()
                .expect("a bound exact table has a memo");
            assert_eq!(
                memo.counts.lock().len(),
                8,
                "pass {pass}: the memo holds node_count entries"
            );
        }
        // A capped pass finds no entry of its own and stores none.
        let capped = definition_degrees(&matrix, &skills, &task, Some(1));
        let tracker = RowTracker::new(&filled);
        assert_eq!(degrees_of(&tracker, &skills, &task, Some(1)), capped);
        assert_eq!(
            tracker.pair_count_memo().map(|m| m.counts.lock().len()),
            Some(8)
        );
    }

    #[test]
    fn memo_serves_only_the_assignment_it_is_bound_to() {
        use crate::compat::RowTracker;
        let bound = spread_skills(3);
        // Same shape, other holders; and an equal copy in its own
        // allocation.
        let other = spread_skills(7);
        let copy = SkillAssignment::clone(&bound);
        let (filled, matrix) = bound_ring(&bound);
        let task = Task::new([s(0), s(2), s(5), s(9)]);
        let tracker = RowTracker::new(&filled);
        for (label, skills) in [
            ("bound", &*bound),
            ("other", &*other),
            ("copy", &copy),
            ("bound again", &*bound),
        ] {
            let expected = definition_degrees(&matrix, skills, &task, None);
            assert_eq!(
                degrees_of(&tracker, skills, &task, None),
                expected,
                "{label}"
            );
        }
        assert_ne!(
            degrees_of(&matrix, &bound, &task, None),
            degrees_of(&matrix, &other, &task, None),
            "the fixture must tell the assignments apart"
        );
        assert_eq!(
            tracker.pair_count_memo().map(|m| m.counts.lock().len()),
            Some(6)
        );
    }

    #[test]
    fn task_degrees_rank_skills() {
        let (comp, skills) = setup();
        let task = Task::new([s(0), s(1), s(2)]);
        let degrees = TaskSkillDegrees::compute(&comp, &skills, &task);
        // cd(0) counts pairs with skills 1 and 2: (u0,u1) compatible → 1.
        assert_eq!(degrees.degree(s(0)), 1);
        assert_eq!(degrees.degree(s(1)), 1);
        // Skill 2's only holder (user 2) is compatible with nobody relevant.
        assert_eq!(degrees.degree(s(2)), 0);
        assert_eq!(degrees.degree(s(3)), 0); // not in the task
        assert_eq!(
            degrees.least_compatible(task.skills()),
            Some(s(2)),
            "the isolated skill is the least compatible"
        );
        assert_eq!(degrees.least_compatible(&[]), None);
    }
}
