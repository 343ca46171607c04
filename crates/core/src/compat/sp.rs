//! Shortest-path compatibility (SPA / SPM / SPO) via the paper's Algorithm 1.
//!
//! Algorithm 1 is a modified breadth-first search from the query node `q`
//! that maintains, for every node `x`, the number of positive (`N⁺(x)`) and
//! negative (`N⁻(x)`) shortest paths from `q` to `x` and the shortest-path
//! length `L(x)`. When an edge `(u, x)` on a shortest path is positive the
//! counts propagate unchanged; when it is negative they swap (a negative
//! edge flips the sign of every path through it). Each edge is examined a
//! constant number of times, so one source costs `O(|V| + |E|)`.
//!
//! Path counts can grow exponentially with the graph size, so the counters
//! saturate at `u64::MAX`; the derived relations only ever compare the two
//! counters, and the comparison outcome is unaffected by simultaneous
//! saturation in all but adversarial cases far beyond the paper's datasets.
//!
//! This module runs Algorithm 1 one source at a time: for every SPM row,
//! and for the SPA and SPO rows a store computes on demand (row-mode
//! misses, repair recomputes). A saturated counter never returns to 0, so
//! SPA and SPO only ask whether `N⁺ > 0` and whether `N⁻ > 0`. The fill
//! that computes every row of a kind at once (`compat/batch.rs`) therefore
//! carries one existence bit per sign instead of the counts, and runs the
//! same recurrence for 32 sources per pass; it packs the same rows.

use signed_graph::csr::CsrGraph;
use signed_graph::{NodeId, Sign};
use std::collections::VecDeque;

use super::row::LaneWidth;
use super::{CompatRow, CompatibilityKind, SourceCompatibility};

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// The per-node output of Algorithm 1 for one query node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBfsCounts {
    /// The query node.
    pub source: NodeId,
    /// `L(x)`: shortest-path length from the source ([`UNREACHABLE`] if none).
    pub dist: Vec<u32>,
    /// `N⁺(x)`: number of positive shortest paths (saturating).
    pub positive: Vec<u64>,
    /// `N⁻(x)`: number of negative shortest paths (saturating).
    pub negative: Vec<u64>,
}

impl SignedBfsCounts {
    /// Total number of shortest paths to `v` (saturating).
    pub fn total(&self, v: NodeId) -> u64 {
        self.positive[v.index()].saturating_add(self.negative[v.index()])
    }
}

/// Runs Algorithm 1 from `source`, counting positive and negative shortest
/// paths to every node.
pub fn signed_bfs(csr: &CsrGraph, source: NodeId) -> SignedBfsCounts {
    let n = csr.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut positive = vec![0u64; n];
    let mut negative = vec![0u64; n];
    let mut queue = VecDeque::new();

    dist[source.index()] = 0;
    positive[source.index()] = 1;
    queue.push_back(source);

    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        let (pu, nu) = (positive[u.index()], negative[u.index()]);
        for (x, sign) in csr.neighbors(u) {
            let xi = x.index();
            if dist[xi] == UNREACHABLE {
                dist[xi] = du + 1;
                queue.push_back(x);
            }
            if dist[xi] == du + 1 {
                // Extending shortest paths from u to x: positive edges keep
                // the path sign, negative edges flip it.
                match sign {
                    Sign::Positive => {
                        positive[xi] = positive[xi].saturating_add(pu);
                        negative[xi] = negative[xi].saturating_add(nu);
                    }
                    Sign::Negative => {
                        positive[xi] = positive[xi].saturating_add(nu);
                        negative[xi] = negative[xi].saturating_add(pu);
                    }
                }
            }
        }
    }

    SignedBfsCounts {
        source,
        dist,
        positive,
        negative,
    }
}

/// Derives an SP-family [`SourceCompatibility`] from Algorithm 1 counts.
///
/// * SPA: every shortest path is positive (`N⁻ = 0`, `N⁺ > 0`).
/// * SPM: at least as many positive as negative shortest paths.
/// * SPO: at least one positive shortest path.
///
/// Nodes unreachable from the source are incompatible (the paper assumes a
/// connected graph, so this only matters for defensive completeness).
/// The relation distance is the shortest-path length `L(x)`.
pub fn source_from_counts(
    source: NodeId,
    kind: CompatibilityKind,
    counts: &SignedBfsCounts,
) -> SourceCompatibility {
    debug_assert!(matches!(
        kind,
        CompatibilityKind::Spa | CompatibilityKind::Spm | CompatibilityKind::Spo
    ));
    let n = counts.dist.len();
    let mut compatible = vec![false; n];
    let mut distance = vec![None; n];
    for v in 0..n {
        let d = counts.dist[v];
        if d == UNREACHABLE {
            continue;
        }
        distance[v] = Some(d);
        if v == source.index() {
            compatible[v] = true;
            continue;
        }
        compatible[v] = sp_compatible(kind, counts.positive[v], counts.negative[v]);
    }
    SourceCompatibility {
        source,
        kind,
        compatible,
        distance,
    }
}

/// Packs Algorithm 1 counts straight into an SP-family [`CompatRow`], with
/// the same bits and distances as [`source_from_counts`] plus each node's
/// mixed flag (both `N⁺ > 0` and `N⁻ > 0`). The flag and the compatibility
/// bit together give the node's sign class, which SPA/SPO repair re-derives
/// after a sign flip (see [`super::repair`]).
pub(crate) fn row_from_counts(
    source: NodeId,
    kind: CompatibilityKind,
    counts: &SignedBfsCounts,
) -> CompatRow {
    debug_assert!(matches!(
        kind,
        CompatibilityKind::Spa | CompatibilityKind::Spm | CompatibilityKind::Spo
    ));
    let reached = counts.dist.iter().copied().filter(|&d| d != UNREACHABLE);
    let width = LaneWidth::fitting(counts.dist.len(), reached);
    CompatRow::pack(source, kind, width, counts.dist.len(), |v| {
        let d = counts.dist[v];
        if d == UNREACHABLE {
            return (false, None, false);
        }
        if v == source.index() {
            return (true, Some(0), false);
        }
        let (pos, neg) = (counts.positive[v], counts.negative[v]);
        (sp_compatible(kind, pos, neg), Some(d), pos > 0 && neg > 0)
    })
}

/// The SP relations' verdict for a node reached by `pos` positive and
/// `neg` negative shortest paths.
fn sp_compatible(kind: CompatibilityKind, pos: u64, neg: u64) -> bool {
    match kind {
        CompatibilityKind::Spa => neg == 0 && pos > 0,
        CompatibilityKind::Spm => pos >= neg && pos > 0,
        CompatibilityKind::Spo => pos > 0,
        _ => unreachable!("non-SP kind"),
    }
}

/// Brute-force enumeration of all shortest paths between `source` and every
/// node, returning `(positive, negative, length)` triples. Exponential; used
/// only by tests to validate [`signed_bfs`] on small graphs.
pub fn brute_force_shortest_path_counts(
    g: &signed_graph::SignedGraph,
    source: NodeId,
) -> Vec<(u64, u64, u32)> {
    use signed_graph::traversal::{bfs_distances, UNREACHABLE as UNR};
    let dist = bfs_distances(g, source);
    let n = g.node_count();
    let mut out = vec![(0u64, 0u64, UNREACHABLE); n];
    for v in 0..n {
        if dist[v] == UNR {
            continue;
        }
        out[v].2 = dist[v];
    }
    // DFS over shortest-path DAG edges (dist increases by exactly one).
    fn dfs(
        g: &signed_graph::SignedGraph,
        dist: &[u32],
        node: NodeId,
        sign: Sign,
        out: &mut Vec<(u64, u64, u32)>,
    ) {
        match sign {
            Sign::Positive => out[node.index()].0 += 1,
            Sign::Negative => out[node.index()].1 += 1,
        }
        for nb in g.neighbors(node) {
            if dist[nb.node.index()] == dist[node.index()] + 1 {
                dfs(g, dist, nb.node, sign * nb.sign, out);
            }
        }
    }
    // Count the trivial path to the source once, then explore.
    let mut counts = vec![(0u64, 0u64, UNREACHABLE); n];
    for (i, c) in counts.iter_mut().enumerate() {
        c.2 = out[i].2;
    }
    dfs(g, &dist, source, Sign::Positive, &mut counts);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::csr::CsrGraph;
    use signed_graph::generators::erdos_renyi_signed;
    use signed_graph::SignedGraph;

    fn csr(g: &SignedGraph) -> CsrGraph {
        CsrGraph::from_graph(g)
    }

    /// Square with two parallel shortest paths of different signs:
    /// 0-1-3 (positive, positive) and 0-2-3 (positive, negative).
    fn two_path_square() -> SignedGraph {
        from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 3, Sign::Positive),
            (0, 2, Sign::Positive),
            (2, 3, Sign::Negative),
        ])
    }

    #[test]
    fn counts_on_two_path_square() {
        let g = two_path_square();
        let c = signed_bfs(&csr(&g), NodeId::new(0));
        assert_eq!(c.dist, vec![0, 1, 1, 2]);
        assert_eq!(c.positive[3], 1);
        assert_eq!(c.negative[3], 1);
        assert_eq!(c.total(NodeId::new(3)), 2);
        // Source has exactly one (trivial, positive) path.
        assert_eq!(c.positive[0], 1);
        assert_eq!(c.negative[0], 0);
    }

    #[test]
    fn relations_disagree_exactly_as_defined() {
        let g = two_path_square();
        let counts = signed_bfs(&csr(&g), NodeId::new(0));
        let spa = source_from_counts(NodeId::new(0), CompatibilityKind::Spa, &counts);
        let spm = source_from_counts(NodeId::new(0), CompatibilityKind::Spm, &counts);
        let spo = source_from_counts(NodeId::new(0), CompatibilityKind::Spo, &counts);
        // Node 3: one positive and one negative shortest path.
        assert!(!spa.compatible[3]);
        assert!(spm.compatible[3]); // tie counts as majority (≥)
        assert!(spo.compatible[3]);
        // Distances are the BFS level.
        assert_eq!(spa.distance[3], Some(2));
        assert_eq!(spo.distance[1], Some(1));
    }

    #[test]
    fn unreachable_nodes_are_incompatible() {
        let g = from_edge_triples(vec![(0, 1, Sign::Positive), (2, 3, Sign::Positive)]);
        let counts = signed_bfs(&csr(&g), NodeId::new(0));
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spm,
            CompatibilityKind::Spo,
        ] {
            let sc = source_from_counts(NodeId::new(0), kind, &counts);
            assert!(!sc.compatible[2]);
            assert!(!sc.compatible[3]);
            assert_eq!(sc.distance[2], None);
        }
    }

    #[test]
    fn negative_direct_edge_is_never_sp_compatible() {
        let g = from_edge_triples(vec![(0, 1, Sign::Negative)]);
        let counts = signed_bfs(&csr(&g), NodeId::new(0));
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spm,
            CompatibilityKind::Spo,
        ] {
            let sc = source_from_counts(NodeId::new(0), kind, &counts);
            assert!(!sc.compatible[1], "{kind}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..6 {
            let g = erdos_renyi_signed(12, 26, 0.4, seed);
            let c = csr(&g);
            for source in g.nodes() {
                let fast = signed_bfs(&c, source);
                let brute = brute_force_shortest_path_counts(&g, source);
                for v in g.nodes() {
                    let vi = v.index();
                    assert_eq!(
                        (fast.positive[vi], fast.negative[vi]),
                        (brute[vi].0, brute[vi].1),
                        "seed {seed}, source {source}, node {v}"
                    );
                    assert_eq!(fast.dist[vi], brute[vi].2);
                }
            }
        }
    }

    #[test]
    fn mean_compatible_distance_helper() {
        let g = two_path_square();
        let counts = signed_bfs(&csr(&g), NodeId::new(0));
        let spo = source_from_counts(NodeId::new(0), CompatibilityKind::Spo, &counts);
        // Compatible: 1 (d=1), 2 (d=1), 3 (d=2) → mean 4/3.
        assert_eq!(spo.compatible_count(), 4); // includes the source
        let mean = spo.mean_compatible_distance().unwrap();
        assert!((mean - 4.0 / 3.0).abs() < 1e-9);
    }
}
