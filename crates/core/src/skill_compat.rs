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
    /// is deterministic). Popular skills on the Epinions-scale networks can
    /// have hundreds of holders, making the exact quadratic pair count the
    /// dominant cost of Algorithm 2; capping it preserves the *ranking* the
    /// policy needs while bounding the work. `None` means exact.
    pub fn compute_capped<C: Compatibility + ?Sized>(
        comp: &C,
        skills: &SkillAssignment,
        task: &Task,
        holder_cap: Option<usize>,
    ) -> Self {
        let cap = holder_cap.unwrap_or(usize::MAX).max(1);
        let task_skills = task.skills();
        let holders: Vec<&[u32]> = task_skills
            .iter()
            .map(|&s| {
                let h = skills.users_with_skill(s);
                &h[..h.len().min(cap)]
            })
            .collect();
        let k = task_skills.len();
        let words = bitset_words(comp.node_count());
        let mut degrees = vec![0u64; k];
        if k >= 2 {
            let sparse: Vec<Vec<(u32, u64)>> =
                holders.iter().map(|hs| sparse_words(hs, words)).collect();
            // Rows are fetched for the holders of skills 0..k-2 only: both
            // kernels read the last skill's degree off the other skills'
            // rows, so fetching (and, in row-serving mode, building) its
            // holders' rows would be wasted. The first of those fetches
            // doubles as the exactness probe that picks the kernel, so an
            // inexact relation never fetches a row twice.
            let mut first = holders[..k - 1]
                .iter()
                .find_map(|hs| hs.first())
                .and_then(|&u| comp.packed_row(NodeId::new(u as usize)));
            let exact = first.as_ref().is_some_and(RowHandle::exact);
            let mut fetch = |u: u32| {
                first
                    .take()
                    .or_else(|| comp.packed_row(NodeId::new(u as usize)))
                    .filter(RowHandle::exact)
            };
            // Word operations per kernel. The pairwise pass intersects each
            // row with the non-empty words of every later skill's holder
            // set. The bit-plane pass intersects it with whole bitsets: the
            // non-empty planes and the last skill's holders
            // (`SkillCounts::row_cost`), so at least two, a floor that
            // spares small tasks building the planes.
            let rows: usize = holders[..k - 1].iter().map(|hs| hs.len()).sum();
            let pairwise_cost: usize = (0..k - 1)
                .map(|i| holders[i].len() * sparse[i + 1..].iter().map(Vec::len).sum::<usize>())
                .sum();
            let counts = (exact && 2 * rows * words < pairwise_cost)
                .then(|| SkillCounts::new(&sparse, words))
                .filter(|counts| rows * counts.row_cost() < pairwise_cost);
            match counts {
                Some(counts) => {
                    bit_plane_degrees(comp, &holders, &sparse, &counts, &mut fetch, &mut degrees)
                }
                None => pairwise_degrees(comp, &holders, &sparse, &mut fetch, &mut degrees),
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

/// A holder list as its non-empty bitset words `(word index, bits)`, in
/// word order. Holders past `words` (outside the relation) are dropped.
fn sparse_words(holders: &[u32], words: usize) -> Vec<(u32, u64)> {
    let mut nz: Vec<(u32, u64)> = Vec::with_capacity(holders.len());
    for &h in holders {
        let h = h as usize;
        if h / 64 >= words {
            continue;
        }
        let (wi, bit) = ((h / 64) as u32, 1u64 << (h % 64));
        match nz.last_mut() {
            Some((last, bits)) if *last == wi => *bits |= bit,
            _ => nz.push((wi, bit)),
        }
    }
    // `users_with_skill` is sorted, but merge defensively in case it ever
    // is not.
    nz.sort_unstable_by_key(|&(wi, _)| wi);
    nz.dedup_by(|(wi, bits), (kept_wi, kept_bits)| {
        *wi == *kept_wi && {
            *kept_bits |= *bits;
            true
        }
    });
    nz
}

/// A [`sparse_words`] set back as a full bitset of `words` words.
fn dense_words(set: &[(u32, u64)], words: usize) -> Vec<u64> {
    let mut dense = vec![0u64; words];
    for &(w, bits) in set {
        dense[w as usize] = bits;
    }
    dense
}

/// `|row ∧ set|` for a set in [`sparse_words`] form.
fn sparse_count(row: &[u64], set: &[(u32, u64)]) -> u64 {
    set.iter()
        .map(|&(wi, bits)| {
            u64::from((row.get(wi as usize).copied().unwrap_or(0) & bits).count_ones())
        })
        .sum()
}

/// The number of holders of `set` compatible with `u`, by pair probes.
fn probe_count<C: Compatibility + ?Sized>(comp: &C, u: u32, set: &[u32]) -> u64 {
    let u = NodeId::new(u as usize);
    set.iter()
        .filter(|&&v| comp.compatible(u, NodeId::new(v as usize)))
        .count() as u64
}

/// The pairwise kernel: for every holder `u` of skill `i < k-1` and every
/// later skill `j`, `cd(i, j) += |row(u) ∧ H_j|` — a popcount over `H_j`'s
/// non-empty words. The count is credited to both skills, since the
/// relation is symmetric. A row's self bit counts the reflexive pair of a
/// user holding both skills, exactly as `compatible(u, u)` does. Inexact
/// or missing rows are probed pair by pair.
fn pairwise_degrees<'c, C: Compatibility + ?Sized>(
    comp: &C,
    holders: &[&[u32]],
    sparse: &[Vec<(u32, u64)>],
    fetch: &mut impl FnMut(u32) -> Option<RowHandle<'c>>,
    degrees: &mut [u64],
) {
    let k = holders.len();
    for i in 0..k - 1 {
        for &u in holders[i] {
            let row = fetch(u);
            for j in (i + 1)..k {
                let count = match &row {
                    Some(h) => sparse_count(h.row().words(), &sparse[j]),
                    None => probe_count(comp, u, holders[j]),
                };
                degrees[i] += count;
                degrees[j] += count;
            }
        }
    }
}

/// The bit-plane kernel. With `c(v)` the number of task skills `v` holds,
/// symmetry gives
///
/// ```text
/// deg(i) = Σ_{u ∈ H_i} Σ_{j ≠ i} |row(u) ∧ H_j|
///        = Σ_{u ∈ H_i} (Σ_b 2^b · |row(u) ∧ P_b| − |row(u) ∧ H_i|)
///        = Σ_{u ∈ H_i} Σ_b 2^b · |row(u) ∧ P_b^i|
/// ```
///
/// where `P_b` is bit plane `b` of `c` and `P_b^i` bit plane `b` of
/// `c − [v ∈ H_i]`, the count of the *other* task skills. Each holder's row
/// is intersected once per non-empty plane, whatever `k`. The last
/// skill's holders fetch no rows; `deg(k-1) = Σ_{i < k-1} Σ_{u ∈ H_i}
/// |row(u) ∧ H_{k-1}|` accumulates from the same rows instead. Needs exact
/// rows; an inexact or missing one is probed pair by pair.
fn bit_plane_degrees<'c, C: Compatibility + ?Sized>(
    comp: &C,
    holders: &[&[u32]],
    sparse: &[Vec<(u32, u64)>],
    counts: &SkillCounts,
    fetch: &mut impl FnMut(u32) -> Option<RowHandle<'c>>,
    degrees: &mut [u64],
) {
    let k = holders.len();
    let last = dense_words(&sparse[k - 1], counts.words);
    let mut others = Vec::new();
    for i in 0..k - 1 {
        counts.without(&sparse[i], &mut others);
        let planes: Vec<(usize, &[u64])> = others
            .chunks_exact(counts.words)
            .enumerate()
            .filter(|(_, plane)| plane.iter().any(|&w| w != 0))
            .collect();
        for &u in holders[i] {
            match fetch(u) {
                Some(h) => {
                    let row = h.row();
                    degrees[i] += planes
                        .iter()
                        .map(|&(b, plane)| (row.intersection_count(plane) as u64) << b)
                        .sum::<u64>();
                    degrees[k - 1] += row.intersection_count(&last) as u64;
                }
                None => {
                    for (j, set) in holders.iter().enumerate() {
                        if j != i {
                            let count = probe_count(comp, u, set);
                            degrees[i] += count;
                            if j == k - 1 {
                                degrees[j] += count;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `c`, the number of task skills each node holds, bit-sliced: plane `b`
/// is `plane[b * words..(b + 1) * words]`.
struct SkillCounts {
    plane: Vec<u64>,
    words: usize,
}

impl SkillCounts {
    /// Sums the holder sets: one ripple-carry add per non-empty word.
    fn new(sparse: &[Vec<(u32, u64)>], words: usize) -> Self {
        let planes = (usize::BITS - sparse.len().leading_zeros()) as usize;
        let mut plane = vec![0u64; planes * words];
        for set in sparse {
            for &(w, bits) in set {
                let mut carry = bits;
                for slot in plane[w as usize..].iter_mut().step_by(words) {
                    let next = *slot & carry;
                    *slot ^= carry;
                    carry = next;
                }
            }
        }
        SkillCounts { plane, words }
    }

    /// Writes the planes of `c − [v ∈ own]` (`own` a subset of the summed
    /// sets) into `out`: one ripple-borrow subtract per non-empty word.
    fn without(&self, own: &[(u32, u64)], out: &mut Vec<u64>) {
        out.clone_from(&self.plane);
        for &(w, bits) in own {
            let mut borrow = bits;
            for slot in out[w as usize..].iter_mut().step_by(self.words) {
                let next = !*slot & borrow;
                *slot ^= borrow;
                borrow = next;
            }
        }
    }

    /// Words one row's pass of [`bit_plane_degrees`] touches: a whole
    /// bitset per non-empty plane, plus one for the last skill's holders.
    /// Priced from these task-wide planes; a skill's own planes differ
    /// from them only on its holders' words.
    fn row_cost(&self) -> usize {
        let planes = self
            .plane
            .chunks_exact(self.words)
            .filter(|plane| plane.iter().any(|&w| w != 0))
            .count();
        (planes + 1) * self.words
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

    /// Runs one degree kernel directly, fetching rows from `comp`.
    fn kernel_degrees<C: Compatibility + ?Sized>(
        comp: &C,
        skills: &SkillAssignment,
        task: &Task,
        bit_plane: bool,
    ) -> Vec<u64> {
        let holders: Vec<&[u32]> = task
            .skills()
            .iter()
            .map(|&s| skills.users_with_skill(s))
            .collect();
        let k = holders.len();
        let words = bitset_words(comp.node_count());
        let sparse: Vec<_> = holders.iter().map(|hs| sparse_words(hs, words)).collect();
        let mut fetch = |u: u32| {
            comp.packed_row(NodeId::new(u as usize))
                .filter(RowHandle::exact)
        };
        let mut degrees = vec![0u64; k];
        if bit_plane {
            let counts = SkillCounts::new(&sparse, words);
            bit_plane_degrees(comp, &holders, &sparse, &counts, &mut fetch, &mut degrees);
        } else {
            pairwise_degrees(comp, &holders, &sparse, &mut fetch, &mut degrees);
        }
        degrees
    }

    #[test]
    fn both_degree_kernels_count_the_same_pairs() {
        use crate::compat::ScalarOnly;
        use signed_graph::generators::{social_network, SocialNetworkConfig};
        // 150 nodes span three bitset words; skill s is held by every
        // (s + 2)-th user plus a few extras, so holders overlap and some
        // users hold several task skills.
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
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Nne,
            CompatibilityKind::Sbph,
        ] {
            let comp = CompatibilityMatrix::build(&g, kind);
            for task in [
                Task::new([s(0), s(1)]),
                Task::new([s(0), s(3), s(5), s(8)]),
                Task::new((0..9).map(s)),
            ] {
                let expected = TaskSkillDegrees::compute(&ScalarOnly(&comp), &skills, &task);
                let expected: Vec<u64> =
                    task.skills().iter().map(|&t| expected.degree(t)).collect();
                for bit_plane in [false, true] {
                    assert_eq!(
                        kernel_degrees(&comp, &skills, &task, bit_plane),
                        expected,
                        "{kind} {:?} bit_plane={bit_plane}",
                        task.skills()
                    );
                    // Without packed rows both kernels fall back to probes.
                    assert_eq!(
                        kernel_degrees(&ScalarOnly(&comp), &skills, &task, bit_plane),
                        expected
                    );
                }
            }
        }
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
