//! Seeded input generation. Every query and mutation a run sends derives
//! from `--seed` through the repository's own generators; the server only
//! ever sees the resulting bytes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use signed_graph::{EdgeMutation, SignedGraph};
use tfsn_core::compat::CompatibilityKind;
use tfsn_core::team::greedy::GreedyConfig;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::Solver;
use tfsn_engine::TeamQuery;
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::taskgen::random_coverable_tasks;
use tfsn_skills::SkillId;

/// Skills in a random task.
pub const RANDOM_K: usize = 4;
/// Skills in a popular task, drawn from the [`POPULAR_TOP`] most-held
/// skills: the `bench-report` popular mix.
pub const POPULAR_K: usize = 12;
/// How many of the most-held skills popular tasks draw from.
pub const POPULAR_TOP: usize = 40;

/// Independent streams derived from one run seed, so adding a stream never
/// shifts the others.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn greedy(algorithm: TeamAlgorithm) -> Solver {
    Solver::Greedy {
        algorithm,
        config: GreedyConfig::default(),
    }
}

/// `count` random coverable tasks of [`RANDOM_K`] skills, one query each,
/// with kinds round-robin and the algorithm advancing once per kind cycle.
pub fn random_queries(
    skills: &SkillAssignment,
    seed: u64,
    count: usize,
    kinds: &[CompatibilityKind],
    algorithms: &[TeamAlgorithm],
) -> Vec<TeamQuery> {
    random_coverable_tasks(skills, RANDOM_K, count, seed)
        .iter()
        .enumerate()
        .map(|(i, task)| {
            TeamQuery::new(task.skills().iter().map(|s| s.index()))
                .with_id(i as u64)
                .with_kind(kinds[i % kinds.len()])
                .with_solver(greedy(algorithms[(i / kinds.len()) % algorithms.len()]))
        })
        .collect()
}

/// [`random_queries`] drawn from the fixed content seed, then put in an
/// order (and given ids) by `seed`: every seed reads the same mix, which a
/// uniform reader samples in a seed-specific sequence.
pub fn fixed_pool_queries(
    skills: &SkillAssignment,
    seed: u64,
    count: usize,
    kinds: &[CompatibilityKind],
    algorithms: &[TeamAlgorithm],
) -> Vec<TeamQuery> {
    let mut pool = random_queries(skills, FIXED_CONTENT_SEED, count, kinds, algorithms);
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool.into_iter()
        .enumerate()
        .map(|(i, q)| q.with_id(i as u64))
        .collect()
}

/// The [`POPULAR_TOP`] most-held skills, most-held first (ties by id).
fn popular_skills(skills: &SkillAssignment) -> Vec<usize> {
    let mut by_freq: Vec<usize> = (0..skills.skill_count()).collect();
    by_freq.sort_by_key(|&s| {
        (
            std::cmp::Reverse(skills.skill_frequency(SkillId::new(s))),
            s,
        )
    });
    by_freq.truncate(POPULAR_TOP);
    by_freq
}

/// One popular task: [`POPULAR_K`] distinct skills among the most-held.
fn popular_task(top: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut pool = top.to_vec();
    pool.shuffle(rng);
    pool.truncate(POPULAR_K);
    pool
}

/// `count` popular-task queries, kinds and algorithms round-robin.
pub fn popular_queries(
    skills: &SkillAssignment,
    seed: u64,
    count: usize,
    kinds: &[CompatibilityKind],
    algorithms: &[TeamAlgorithm],
) -> Vec<TeamQuery> {
    let top = popular_skills(skills);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            TeamQuery::new(popular_task(&top, &mut rng))
                .with_id(i as u64)
                .with_kind(kinds[i % kinds.len()])
                .with_solver(greedy(algorithms[(i / kinds.len()) % algorithms.len()]))
        })
        .collect()
}

/// `bodies` batch bodies of `per_body` queries each. Every
/// `popular_every`-th query is a popular task, the rest random ones, so
/// each body carries the same mix; the (kind, algorithm) pair cycles
/// through every combination for both task types. Ids are unique across
/// bodies.
pub fn batch_bodies(
    skills: &SkillAssignment,
    seed: u64,
    bodies: usize,
    per_body: usize,
    popular_every: usize,
    kinds: &[CompatibilityKind],
    algorithms: &[TeamAlgorithm],
) -> Vec<Vec<TeamQuery>> {
    let top = popular_skills(skills);
    let mut random = random_coverable_tasks(skills, RANDOM_K, bodies * per_body, seed)
        .into_iter()
        .map(|t| t.skills().iter().map(|s| s.index()).collect::<Vec<_>>());
    let combos = kinds.len() * algorithms.len();
    // Offsetting by the popular slot index rotates popular tasks through
    // every combination too.
    let combo_of = |b: usize, j: usize| (b + j + j / popular_every) % combos;
    let is_popular_slot = |j: usize| j % popular_every == popular_every - 1;
    // The popular tasks are one fixed set per combination, as in
    // `bench-report`; the seed only decides where each lands within its
    // combination. A task's solve cost depends on its kind and algorithm
    // and spans an order of magnitude, so a per-seed draw or pairing would
    // move a run's mean by itself.
    let mut slots = vec![0; combos];
    for b in 0..bodies {
        for j in (0..per_body).filter(|&j| is_popular_slot(j)) {
            slots[combo_of(b, j)] += 1;
        }
    }
    let mut fixed = StdRng::seed_from_u64(FIXED_CONTENT_SEED);
    let mut order = StdRng::seed_from_u64(stream_seed(seed, 1));
    let mut popular: Vec<std::vec::IntoIter<Vec<usize>>> = slots
        .iter()
        .map(|&n| {
            let mut tasks: Vec<Vec<usize>> =
                (0..n).map(|_| popular_task(&top, &mut fixed)).collect();
            tasks.shuffle(&mut order);
            tasks.into_iter()
        })
        .collect();
    (0..bodies)
        .map(|b| {
            (0..per_body)
                .map(|j| {
                    let id = (b * per_body + j) as u64;
                    let random_task = random.next().expect("one random task per query");
                    let combo = combo_of(b, j);
                    let task = if is_popular_slot(j) {
                        popular[combo].next().expect("one popular task per slot")
                    } else {
                        random_task
                    };
                    TeamQuery::new(task)
                        .with_id(id)
                        .with_kind(kinds[combo % kinds.len()])
                        .with_solver(greedy(algorithms[combo / kinds.len()]))
                })
                .collect()
        })
        .collect()
}

/// Whether a generated query is a popular-mix task.
pub fn is_popular(query: &TeamQuery) -> bool {
    query.task.len() == POPULAR_K
}

/// Seeds the content that stays fixed across runs (see [`batch_bodies`]
/// and [`mutation_windows`]).
const FIXED_CONTENT_SEED: u64 = 0x7F5B_2020;

/// `windows` mutation windows over existing edges of `graph`: each window
/// flips the sign of `flips` edges and removes then re-inserts `pairs`
/// edges. Which edges each window touches is one fixed set (how many rows
/// an edge invalidates varies widely, and a per-seed draw would move a
/// run's cost by itself); the seed orders the windows. Edge signs are
/// tracked in that order, so every flip changes the sign and every
/// mutation is valid when applied in order.
pub fn mutation_windows(
    graph: &SignedGraph,
    seed: u64,
    windows: usize,
    flips: usize,
    pairs: usize,
) -> Vec<Vec<EdgeMutation>> {
    let mut edges: Vec<_> = graph.edges().to_vec();
    assert!(
        !edges.is_empty(),
        "mutation windows need a graph with edges"
    );
    let mut fixed = StdRng::seed_from_u64(FIXED_CONTENT_SEED);
    let mut picks: Vec<(Vec<usize>, Vec<usize>)> = (0..windows)
        .map(|_| {
            let flipped = (0..flips)
                .map(|_| fixed.gen_range(0..edges.len()))
                .collect();
            let cycled = (0..pairs)
                .map(|_| fixed.gen_range(0..edges.len()))
                .collect();
            (flipped, cycled)
        })
        .collect();
    picks.shuffle(&mut StdRng::seed_from_u64(seed));
    picks
        .into_iter()
        .map(|(flipped, cycled)| {
            let mut window = Vec::with_capacity(flips + 2 * pairs);
            for i in flipped {
                let edge = &mut edges[i];
                edge.sign = edge.sign.flip();
                window.push(EdgeMutation::SetSign {
                    u: edge.u,
                    v: edge.v,
                    sign: edge.sign,
                });
            }
            for i in cycled {
                let edge = edges[i];
                window.push(EdgeMutation::Remove {
                    u: edge.u,
                    v: edge.v,
                });
                window.push(EdgeMutation::Insert {
                    u: edge.u,
                    v: edge.v,
                    sign: edge.sign,
                });
            }
            window
        })
        .collect()
}

/// A seeded stream of uniform indices into `0..len`.
pub fn uniform_picks(seed: u64, len: usize) -> impl FnMut() -> usize {
    assert!(len > 0, "cannot pick from an empty pool");
    let mut rng = StdRng::seed_from_u64(seed);
    move || rng.gen_range(0..len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsn_engine::registry::DeploymentSource;

    fn tiny() -> tfsn_engine::Deployment {
        DeploymentSource::parse("synthetic:nodes=200,edges=800,skills=30")
            .unwrap()
            .load()
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let d = tiny();
        let kinds = [CompatibilityKind::Spa, CompatibilityKind::Nne];
        let algs = [TeamAlgorithm::LCMD, TeamAlgorithm::RFMD];
        let a = batch_bodies(d.skills(), 5, 3, 8, 4, &kinds, &algs);
        assert_eq!(a, batch_bodies(d.skills(), 5, 3, 8, 4, &kinds, &algs));
        assert_ne!(a, batch_bodies(d.skills(), 6, 3, 8, 4, &kinds, &algs));
        let ids: Vec<u64> = a.iter().flatten().map(|q| q.id.unwrap()).collect();
        assert_eq!(ids, (0..24).collect::<Vec<u64>>());
        // Two popular tasks per body of eight, each under its own combo.
        for body in &a {
            let popular: Vec<_> = body.iter().filter(|q| is_popular(q)).collect();
            assert_eq!(popular.len(), 2);
            assert_ne!(
                (popular[0].kind, popular[0].solver.label()),
                (popular[1].kind, popular[1].solver.label())
            );
        }
        let w = mutation_windows(d.graph(), 9, 4, 2, 1);
        assert_eq!(w, mutation_windows(d.graph(), 9, 4, 2, 1));
    }

    #[test]
    fn mutation_windows_apply_cleanly_in_order() {
        let d = tiny();
        let engine = tfsn_engine::Engine::new(d.clone());
        let before = engine.graph().edge_count();
        for window in mutation_windows(d.graph(), 3, 20, 4, 2) {
            assert_eq!(window.len(), 8);
            let report = engine.mutate_batch(&window).unwrap();
            assert!(report.outcomes.iter().all(|o| o.is_ok()));
        }
        assert_eq!(engine.graph().edge_count(), before);
    }

    #[test]
    fn popular_tasks_draw_from_the_most_held_skills() {
        let d = tiny();
        let top = popular_skills(d.skills());
        let qs = popular_queries(
            d.skills(),
            1,
            5,
            &[CompatibilityKind::Spa],
            &[TeamAlgorithm::LCMD],
        );
        for q in &qs {
            assert!(is_popular(q));
            assert!(q.task.iter().all(|s| top.contains(s)));
        }
    }

    #[test]
    fn uniform_picks_stay_in_range_and_repeat_per_seed() {
        let draws: Vec<usize> = std::iter::repeat_with(uniform_picks(1, 100))
            .take(1000)
            .collect();
        assert!(draws.iter().all(|&i| i < 100));
        let again: Vec<usize> = std::iter::repeat_with(uniform_picks(1, 100))
            .take(1000)
            .collect();
        assert_eq!(draws, again);
    }
}
