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
//! proportional cost — `Table2Report::sbph_width_sweep` in
//! `crates/experiments/src/table2.rs` quantifies the trade-off.
//!
//! The row is packed while the search runs (`RowPacker`). The search is
//! FIFO, so prefixes leave the queue in order of length, and the first
//! positive prefix retained at a node is its shortest: each compatible node
//! is reached once, at its distance.
//!
//! **The saturation cut.** An extension to a neighbour `w` is retained only
//! if it is balanced *and* `w` still has room in the slot of the extension's
//! sign. When both of `w`'s slots are full, the extension is rejected
//! whatever the balance check says, and the check has no side effect, so the
//! search skips `w` before checking: the result is the same for every width.
//! On the `epinions:0.05` emulation 88% of (prefix, neighbour) pairs end
//! there. The check that remains probes each prefix node in `w`'s sorted
//! adjacency (`O(ℓ log deg w)` for a prefix of `ℓ` nodes) instead of
//! scanning all of `w`'s edges; whether `w`'s edges to the prefix agree on a
//! camp does not depend on the order they are read in.

use std::collections::VecDeque;

use signed_graph::csr::CsrGraph;
use signed_graph::graph::Neighbor;
use signed_graph::{NodeId, Sign, SignedGraph};

use super::row::RowPacker;
use super::{CompatRow, CompatibilityKind};

/// One retained balanced prefix: a range of the search's prefix pool
/// holding the path's nodes with their two-colouring camp, relative to the
/// source being in camp `false` (the last entry is the endpoint; its camp is
/// `false` iff the path is positive). Prefixes live back to back in one
/// pool, so extending one appends a copy instead of allocating; the pool
/// holds every prefix one source's search retains (at most `2 · width` per
/// node) and is dropped with the search. Besides saving an allocation per
/// prefix, this keeps the search's speed independent of how fragmented the
/// allocator is (matrix builds run SBPH after other kinds).
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
}

/// The camp `w` must take to extend the balanced prefix `path`: forced by
/// each of `w`'s edges to the prefix (`adjacency` is `w`'s, sorted by
/// neighbour id, so each prefix node is one binary search). `None` when `w`
/// is on the path or two of its edges force different camps, i.e. the
/// subgraph induced on the extended prefix is unbalanced.
fn extension_camp(adjacency: &[Neighbor], path: &[(NodeId, bool)], w: NodeId) -> Option<bool> {
    let mut forced = None;
    for &(p, camp) in path {
        if p == w {
            return None;
        }
        let Ok(i) = adjacency.binary_search_by_key(&p, |nb| nb.node) else {
            continue;
        };
        let expected = camp ^ (adjacency[i].sign == Sign::Negative);
        match forced {
            None => forced = Some(expected),
            Some(f) if f != expected => return None,
            Some(_) => {}
        }
    }
    forced
}

/// The SBPH row of `source`, retaining at most `width` balanced prefixes
/// per node and per path sign.
pub(crate) fn sbph_row(
    graph: &SignedGraph,
    csr: &CsrGraph,
    source: NodeId,
    width: usize,
) -> CompatRow {
    let n = graph.node_count();
    let width = width.max(1);
    let mut row = RowPacker::new(source, CompatibilityKind::Sbph, n, false);
    row.reach(source.index(), true, 0, false);

    // stored[v][sign as usize] = number of prefixes retained at v with that sign.
    let mut stored = vec![[0usize; 2]; n];

    stored[source.index()][0] = 1;
    let mut queue: VecDeque<PrefixState> = VecDeque::new();
    let mut pool: Vec<(NodeId, bool)> = vec![(source, false)];
    queue.push_back(PrefixState { start: 0, end: 1 });

    while let Some(state) = queue.pop_front() {
        for (w, _sign) in csr.neighbors(state.endpoint(&pool)) {
            // The saturation cut (module docs): with both slots full, no
            // extension to w can be retained.
            if stored[w.index()].iter().all(|&s| s >= width) {
                continue;
            }
            let Some(w_camp) = extension_camp(graph.neighbors(w), state.path(&pool), w) else {
                continue;
            };
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
            if !w_camp && stored[w.index()][0] == 1 {
                // w's first positive balanced prefix, and so its shortest.
                row.reach(w.index(), true, next.len(), false);
            }
            queue.push_back(next);
        }
    }
    row.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::sbp::sbp_row;
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
        let row = sbph_row(&g, &csr(&g), NodeId::new(0), 1);
        assert!(row.is_compatible(5));
        assert_eq!(row.distance(5), Some(4));
        assert!(!row.is_compatible(1));
        assert_eq!(row.kind(), CompatibilityKind::Sbph);
        assert!(
            (0..row.len()).all(|v| !row.is_mixed(v)),
            "only SP rows mark mixed nodes"
        );
    }

    #[test]
    fn heuristic_is_a_subset_of_exact_sbp() {
        for seed in 0..10 {
            let g = erdos_renyi_signed(12, 28, 0.35, seed);
            let c = csr(&g);
            for source in g.nodes() {
                let (exact, _) = sbp_row(&g, source, None, 1_000_000);
                for width in [1usize, 2, 4] {
                    let heur = sbph_row(&g, &c, source, width);
                    for v in 0..g.node_count() {
                        if heur.is_compatible(v) {
                            assert!(
                                exact.is_compatible(v),
                                "seed {seed} source {source} node {v} width {width}: \
                                 heuristic claims compatibility the exact relation denies"
                            );
                            // Heuristic distance can never beat the exact one.
                            assert!(
                                heur.distance(v) >= exact.distance(v),
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
                let narrow = sbph_row(&g, &c, source, 1);
                let wide = sbph_row(&g, &c, source, 4);
                for v in narrow.iter_compatible() {
                    assert!(wide.is_compatible(v), "widening lost a compatible pair");
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
                let row = sbph_row(&g, &c, source, 1);
                for nb in g.neighbors(source) {
                    match nb.sign {
                        Sign::Positive => assert!(row.is_compatible(nb.node.index())),
                        Sign::Negative => assert!(!row.is_compatible(nb.node.index())),
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
        let (exact, _) = sbp_row(&g, NodeId::new(0), None, 100_000);
        assert!(exact.is_compatible(6));
        let heur = sbph_row(&g, &csr(&g), NodeId::new(0), 1);
        for v in heur.iter_compatible() {
            assert!(exact.is_compatible(v));
        }
    }
}
