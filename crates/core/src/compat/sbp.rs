//! Exact Structurally Balanced Path (SBP) compatibility.
//!
//! `(u, v) ∈ Comp_SBP` iff there is a *positive* path `P` from `u` to `v`
//! whose induced subgraph `G[P]` is structurally balanced (Definition 3.4).
//! The paper notes that shortest structurally balanced paths do not satisfy
//! the prefix property (Figure 1(b)), so the exact relation requires
//! enumerating simple paths — exponential in the worst case. The paper
//! therefore computes exact SBP only on the small Slashdot network; this
//! implementation mirrors that by bounding the search with a maximum path
//! length and a state budget (see [`crate::compat::EngineConfig`]).
//!
//! The search maintains, along the current simple path, the unique (up to
//! global flip) two-colouring of its balanced induced subgraph. Extending the
//! path by a node `w` adds all edges between `w` and the path's nodes; `w`'s
//! camp is forced by each such edge and any disagreement proves an odd
//! negative cycle, so the extension can be pruned immediately. Balance is
//! hereditary (an induced subgraph of a balanced graph is balanced), which
//! makes this pruning sound: an unbalanced prefix can never grow into a
//! balanced path.

use signed_graph::{NodeId, Sign, SignedGraph};

use super::row::LaneWidth;
use super::{CompatRow, CompatibilityKind};

/// Outcome of one exact-SBP source computation, including search diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SbpSearchStats {
    /// DFS states (path extensions) expanded.
    pub states_expanded: usize,
    /// Whether the state budget was exhausted before the search completed.
    pub budget_exhausted: bool,
}

/// The exact SBP row of `source`, and the search's statistics.
///
/// `max_path_len` bounds the number of edges of explored paths (`None` means
/// `|V| - 1`, i.e. unbounded simple paths); `max_states` bounds the total
/// number of DFS expansions. The search reaches a node once per balanced
/// path, in depth-first order, so the row is packed once it is over.
pub fn sbp_row(
    graph: &SignedGraph,
    source: NodeId,
    max_path_len: Option<usize>,
    max_states: usize,
) -> (CompatRow, SbpSearchStats) {
    let n = graph.node_count();
    let max_len = max_path_len.unwrap_or(n.saturating_sub(1));
    // best_len[v]: the shortest positive balanced path found to v; a node
    // is compatible exactly when it has one.
    let mut best_len: Vec<Option<u32>> = vec![None; n];
    best_len[source.index()] = Some(0);

    // DFS state.
    let mut in_path = vec![false; n];
    // camp[v] is meaningful only while v is on the current path;
    // camp[source] = false by convention.
    let mut camp = vec![false; n];
    let mut path: Vec<NodeId> = Vec::with_capacity(max_len + 1);
    let mut stats = SbpSearchStats {
        states_expanded: 0,
        budget_exhausted: false,
    };

    in_path[source.index()] = true;
    camp[source.index()] = false;
    path.push(source);
    dfs(
        graph,
        &mut path,
        &mut in_path,
        &mut camp,
        &mut best_len,
        max_len,
        max_states,
        &mut stats,
    );
    let width = LaneWidth::fitting(n, best_len.iter().flatten().copied());
    let row = CompatRow::pack(source, CompatibilityKind::Sbp, width, n, |v| {
        (best_len[v].is_some(), best_len[v], false)
    });
    (row, stats)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    graph: &SignedGraph,
    path: &mut Vec<NodeId>,
    in_path: &mut [bool],
    camp: &mut [bool],
    best_len: &mut [Option<u32>],
    max_len: usize,
    max_states: usize,
    stats: &mut SbpSearchStats,
) {
    if path.len() > max_len {
        return;
    }
    if stats.states_expanded >= max_states {
        stats.budget_exhausted = true;
        return;
    }
    let last = *path.last().expect("path is never empty");
    for w in graph.neighbors(last).iter().map(|nb| nb.node) {
        if in_path[w.index()] {
            continue;
        }
        stats.states_expanded += 1;
        if stats.states_expanded >= max_states {
            stats.budget_exhausted = true;
            return;
        }
        // Determine w's forced camp from every edge to the current path.
        // Any disagreement means G[P ∪ {w}] contains an odd negative cycle.
        let mut forced: Option<bool> = None;
        let mut consistent = true;
        for nb in graph.neighbors(w) {
            if !in_path[nb.node.index()] {
                continue;
            }
            let expected = match nb.sign {
                Sign::Positive => camp[nb.node.index()],
                Sign::Negative => !camp[nb.node.index()],
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
        if !consistent {
            continue;
        }
        let w_camp = forced.expect("w is adjacent to the path's last node");
        // A positive path places w in the source's camp (false).
        let len = path.len() as u32;
        if !w_camp {
            best_len[w.index()] = Some(match best_len[w.index()] {
                Some(existing) => existing.min(len),
                None => len,
            });
        }
        // Recurse.
        in_path[w.index()] = true;
        camp[w.index()] = w_camp;
        path.push(w);
        dfs(
            graph, path, in_path, camp, best_len, max_len, max_states, stats,
        );
        path.pop();
        in_path[w.index()] = false;
        if stats.budget_exhausted {
            return;
        }
    }
}

/// Brute-force SBP reference: enumerates *all* simple paths (no pruning other
/// than simplicity) and checks positivity and induced-subgraph balance with
/// the `signed-graph` balance checker. Exponential; tests only.
pub fn brute_force_sbp(graph: &SignedGraph, source: NodeId) -> Vec<(bool, Option<u32>)> {
    let n = graph.node_count();
    let mut out: Vec<(bool, Option<u32>)> = vec![(false, None); n];
    out[source.index()] = (true, Some(0));
    let mut path = vec![source];
    let mut in_path = vec![false; n];
    in_path[source.index()] = true;
    fn recurse(
        g: &SignedGraph,
        path: &mut Vec<NodeId>,
        in_path: &mut [bool],
        out: &mut [(bool, Option<u32>)],
    ) {
        let last = *path.last().unwrap();
        let neighbors: Vec<NodeId> = g.neighbors(last).iter().map(|nb| nb.node).collect();
        for w in neighbors {
            if in_path[w.index()] {
                continue;
            }
            path.push(w);
            in_path[w.index()] = true;
            let positive = g.path_sign(path).unwrap() == Sign::Positive;
            let balanced = signed_graph::balance::is_balanced_induced(g, path);
            if positive && balanced {
                let len = (path.len() - 1) as u32;
                let entry = &mut out[w.index()];
                entry.0 = true;
                entry.1 = Some(entry.1.map_or(len, |e| e.min(len)));
            }
            if balanced {
                // Unbalanced prefixes can never become balanced again, so the
                // reference may skip them too (keeps the reference tractable
                // while remaining exact).
                recurse(g, path, in_path, out);
            }
            in_path[w.index()] = false;
            path.pop();
        }
    }
    recurse(graph, &mut path, &mut in_path, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::generators::erdos_renyi_signed;

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
    fn figure_1a_u_v_are_sbp_compatible_at_distance_4() {
        let g = figure_1a();
        let (row, _) = sbp_row(&g, NodeId::new(0), None, 1_000_000);
        assert!(row.is_compatible(5));
        assert_eq!(row.distance(5), Some(4));
        // x1 (node 1) is a foe of u on every positive path's induced graph:
        // the only paths to it are via the negative edge or via x2 whose
        // induced subgraph contains the unbalanced triangle → incompatible.
        assert!(!row.is_compatible(1));
        assert_eq!(row.kind(), CompatibilityKind::Sbp);
        assert!(
            (0..row.len()).all(|v| !row.is_mixed(v)),
            "only SP rows mark mixed nodes"
        );
    }

    #[test]
    fn direct_negative_edge_is_incompatible_even_with_positive_detour() {
        // Triangle: 0-1 negative, 0-2 positive, 2-1 positive. The detour
        // (0,2,1) is positive but its induced subgraph contains the negative
        // chord (0,1), an odd negative cycle → not SBP compatible.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Negative),
            (0, 2, Sign::Positive),
            (2, 1, Sign::Positive),
        ]);
        let (row, _) = sbp_row(&g, NodeId::new(0), None, 10_000);
        assert!(!row.is_compatible(1));
        assert!(row.is_compatible(2));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = erdos_renyi_signed(9, 16, 0.35, seed);
            for source in g.nodes() {
                let (fast, _) = sbp_row(&g, source, None, 10_000_000);
                let brute = brute_force_sbp(&g, source);
                for (v, &expected) in brute.iter().enumerate() {
                    assert_eq!(
                        (fast.is_compatible(v), fast.distance(v)),
                        expected,
                        "seed {seed} source {source} node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn path_length_bound_limits_reach() {
        // A long positive path 0-1-2-3-4.
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Positive),
            (2, 3, Sign::Positive),
            (3, 4, Sign::Positive),
        ]);
        let (row, _) = sbp_row(&g, NodeId::new(0), Some(2), 10_000);
        assert!(row.is_compatible(2));
        assert!(!row.is_compatible(3));
        assert_eq!(row.distance(3), None);
    }

    #[test]
    fn state_budget_is_reported() {
        let g = erdos_renyi_signed(20, 80, 0.2, 3);
        let (_, stats) = sbp_row(&g, NodeId::new(0), None, 10);
        assert!(stats.budget_exhausted);
        assert!(stats.states_expanded <= 11);
        let (_, stats) = sbp_row(&g, NodeId::new(0), Some(3), 1_000_000);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn sbp_never_includes_direct_foes() {
        for seed in 0..5 {
            let g = erdos_renyi_signed(12, 30, 0.5, seed);
            for source in g.nodes() {
                let (row, _) = sbp_row(&g, source, None, 1_000_000);
                for nb in g.neighbors(source) {
                    assert_eq!(
                        row.is_compatible(nb.node.index()),
                        nb.sign == Sign::Positive
                    );
                }
            }
        }
    }
}
