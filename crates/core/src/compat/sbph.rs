//! Heuristic Structurally Balanced Path (SBPH) compatibility.
//!
//! The exact SBP relation requires enumerating simple paths because shortest
//! structurally balanced paths do not satisfy the prefix property (paper
//! Figure 1(b)). The paper therefore also evaluates a heuristic, SBPH, that
//! *"counts only paths having the prefix property"*: a breadth-first search
//! in which every node retains only a bounded number of balanced path
//! prefixes, and longer paths are built exclusively by extending retained
//! prefixes.
//!
//! This implementation keeps, for every node and for each path sign
//! (positive / negative), up to `width` balanced prefixes discovered in BFS
//! order (so the retained prefixes are shortest-first). `width = 1` is the
//! paper's heuristic; larger widths increase recall towards exact SBP at a
//! proportional cost — the `sbph_width` bench quantifies the trade-off.

use std::collections::VecDeque;

use signed_graph::csr::CsrGraph;
use signed_graph::{NodeId, Sign, SignedGraph};

use super::row::NodeSet;
use super::{CompatibilityKind, SourceCompatibility};

/// One retained balanced prefix: a range of the search's prefix pool
/// holding the path's nodes with their two-colouring camp, relative to the
/// source being in camp `false` (the last entry is the endpoint; its camp is
/// `false` iff the path is positive). Prefixes live back to back in one
/// pool, so extending one appends a copy instead of allocating; the pool
/// holds every prefix one source's search retains (at most `2 · width` per
/// node) and is dropped with the search. Besides saving an allocation per
/// prefix, this keeps the search's speed independent of how fragmented the
/// allocator is (matrix builds run SBPH after other kinds). The `O(1)`
/// membership/camp probes the innermost neighbour loop needs come from a
/// scratch [`NodeSet`] pair that the search marks while a state is being
/// expanded and unmarks afterwards — not from per-state bitsets, which
/// would cost `O(|V|)` memory and clone work per retained prefix.
#[derive(Debug, Clone, Copy)]
struct PrefixState {
    start: usize,
    end: usize,
}

impl PrefixState {
    fn path<'p>(&self, pool: &'p [(NodeId, bool)]) -> &'p [(NodeId, bool)] {
        &pool[self.start..self.end]
    }

    fn endpoint(&self, pool: &[(NodeId, bool)]) -> NodeId {
        self.path(pool).last().expect("non-empty prefix").0
    }

    fn len(&self) -> u32 {
        (self.end - self.start - 1) as u32
    }

    /// Marks this prefix in the scratch sets (`O(path length)`).
    fn mark(&self, pool: &[(NodeId, bool)], on_path: &mut NodeSet, camps: &mut NodeSet) {
        for &(p, camp) in self.path(pool) {
            on_path.insert(p);
            if camp {
                camps.insert(p);
            }
        }
    }

    /// Clears this prefix's marks (`O(path length)`).
    fn unmark(&self, pool: &[(NodeId, bool)], on_path: &mut NodeSet, camps: &mut NodeSet) {
        for &(p, _) in self.path(pool) {
            on_path.remove(p);
            camps.remove(p);
        }
    }
}

/// Computes SBPH compatibility from `source` to every node, retaining at most
/// `width` balanced prefixes per node and per path sign.
pub fn sbph_source(
    graph: &SignedGraph,
    csr: &CsrGraph,
    source: NodeId,
    width: usize,
) -> SourceCompatibility {
    let n = graph.node_count();
    let width = width.max(1);
    let mut compatible = vec![false; n];
    let mut distance: Vec<Option<u32>> = vec![None; n];
    compatible[source.index()] = true;
    distance[source.index()] = Some(0);

    // stored[v][sign as usize] = number of prefixes retained at v with that sign.
    let mut stored = vec![[0usize; 2]; n];

    stored[source.index()][0] = 1;
    let mut queue: VecDeque<PrefixState> = VecDeque::new();
    let mut pool: Vec<(NodeId, bool)> = vec![(source, false)];
    queue.push_back(PrefixState { start: 0, end: 1 });
    // Scratch marks for the state currently being expanded: `O(1)` probes
    // in the neighbour loops, repopulated per popped state.
    let mut on_path = NodeSet::new(n);
    let mut camps = NodeSet::new(n);

    while let Some(state) = queue.pop_front() {
        state.mark(&pool, &mut on_path, &mut camps);
        for (w, _sign) in csr.neighbors(state.endpoint(&pool)) {
            if on_path.contains(w) {
                continue;
            }
            // Force w's camp from every edge between w and the prefix's
            // nodes; a disagreement means the induced subgraph of the
            // extended prefix is unbalanced (prefix property check).
            let mut forced: Option<bool> = None;
            let mut consistent = true;
            for nb in graph.neighbors(w) {
                if on_path.contains(nb.node) {
                    let expected = match nb.sign {
                        Sign::Positive => camps.contains(nb.node),
                        Sign::Negative => !camps.contains(nb.node),
                    };
                    match forced {
                        None => forced = Some(expected),
                        Some(f) if f != expected => {
                            consistent = false;
                            break;
                        }
                        Some(_) => {}
                    }
                }
            }
            if !consistent {
                continue;
            }
            let w_camp = forced.expect("w is adjacent to the prefix endpoint");
            let sign_slot = usize::from(w_camp);
            if stored[w.index()][sign_slot] >= width {
                continue;
            }
            stored[w.index()][sign_slot] += 1;

            let start = pool.len();
            pool.extend_from_within(state.start..state.end);
            pool.push((w, w_camp));
            let next = PrefixState {
                start,
                end: pool.len(),
            };
            if !w_camp {
                // Positive balanced path found.
                compatible[w.index()] = true;
                let len = next.len();
                distance[w.index()] = Some(match distance[w.index()] {
                    Some(existing) => existing.min(len),
                    None => len,
                });
            }
            queue.push_back(next);
        }
        state.unmark(&pool, &mut on_path, &mut camps);
    }

    SourceCompatibility {
        source,
        kind: CompatibilityKind::Sbph,
        compatible,
        distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::sbp::sbp_source;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::generators::erdos_renyi_signed;

    fn csr(g: &SignedGraph) -> CsrGraph {
        CsrGraph::from_graph(g)
    }

    fn figure_1a() -> SignedGraph {
        from_edge_triples(vec![
            (0, 1, Sign::Negative),
            (1, 5, Sign::Positive),
            (0, 2, Sign::Positive),
            (2, 1, Sign::Positive),
            (2, 3, Sign::Positive),
            (3, 4, Sign::Positive),
            (4, 5, Sign::Positive),
        ])
    }

    #[test]
    fn heuristic_finds_the_figure_1a_balanced_path() {
        let g = figure_1a();
        let sc = sbph_source(&g, &csr(&g), NodeId::new(0), 1);
        assert!(sc.compatible[5]);
        assert_eq!(sc.distance[5], Some(4));
        assert!(!sc.compatible[1]);
        assert_eq!(sc.kind, CompatibilityKind::Sbph);
    }

    #[test]
    fn heuristic_is_a_subset_of_exact_sbp() {
        for seed in 0..10 {
            let g = erdos_renyi_signed(12, 28, 0.35, seed);
            let c = csr(&g);
            for source in g.nodes() {
                let exact = sbp_source(&g, source, None, 1_000_000);
                for width in [1usize, 2, 4] {
                    let heur = sbph_source(&g, &c, source, width);
                    for v in g.nodes() {
                        if heur.compatible[v.index()] {
                            assert!(
                                exact.compatible[v.index()],
                                "seed {seed} source {source} node {v} width {width}: \
                                 heuristic claims compatibility the exact relation denies"
                            );
                            // Heuristic distance can never beat the exact one.
                            assert!(
                                heur.distance[v.index()] >= exact.distance[v.index()],
                                "heuristic found a shorter balanced path than exact"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wider_beams_never_lose_compatibility() {
        for seed in 0..6 {
            let g = erdos_renyi_signed(14, 35, 0.3, seed);
            let c = csr(&g);
            for source in g.nodes().take(5) {
                let narrow = sbph_source(&g, &c, source, 1);
                let wide = sbph_source(&g, &c, source, 4);
                for v in g.nodes() {
                    if narrow.compatible[v.index()] {
                        assert!(
                            wide.compatible[v.index()],
                            "widening lost a compatible pair"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn positive_neighbors_always_compatible_and_foes_never() {
        for seed in 0..5 {
            let g = erdos_renyi_signed(15, 40, 0.4, seed);
            let c = csr(&g);
            for source in g.nodes() {
                let sc = sbph_source(&g, &c, source, 1);
                for nb in g.neighbors(source) {
                    match nb.sign {
                        Sign::Positive => assert!(sc.compatible[nb.node.index()]),
                        Sign::Negative => assert!(!sc.compatible[nb.node.index()]),
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_property_can_miss_paths_the_exact_search_finds() {
        // Paper Figure 1(b): u=0, x1=1, x2=2, x3=3, x4=4, x5=5, v=6.
        // Edges: (u,x1)+, (x1,x2)+, (x2,x4)+, (u,x3)+, (x3,x4)-, (x4,x5)+, (x5,v)+
        // The shortest balanced path u→x4 is (u,x3,x4) (negative), while the
        // balanced positive path to v must go through (u,x1,x2,x4,x5,v).
        // With width 1 per sign the heuristic still finds it, but the example
        // demonstrates that prefixes stored at x4 matter; with a pathological
        // width-0-like restriction it could be missed. We simply verify the
        // heuristic agrees with exact SBP here and remains a subset.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (2, 4, Sign::Positive),
            (0, 3, Sign::Positive),
            (3, 4, Sign::Negative),
            (4, 5, Sign::Positive),
            (5, 6, Sign::Positive),
        ]);
        let exact = sbp_source(&g, NodeId::new(0), None, 100_000);
        assert!(exact.compatible[6]);
        let heur = sbph_source(&g, &csr(&g), NodeId::new(0), 1);
        for v in g.nodes() {
            if heur.compatible[v.index()] {
                assert!(exact.compatible[v.index()]);
            }
        }
    }
}
