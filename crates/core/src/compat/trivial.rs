//! The two boundary relations: Direct Positive Edge (DPE) and No Negative
//! Edge (NNE).
//!
//! DPE is the strictest relation satisfying positive-edge compatibility
//! (only directly connected friends are compatible); NNE is the most relaxed
//! relation satisfying negative-edge incompatibility (everyone is compatible
//! except declared foes). Their per-source computations are linear in the
//! degree of the source (plus one BFS for NNE distances).

use signed_graph::csr::CsrGraph;
use signed_graph::traversal::{bfs_distances_csr, UNREACHABLE};
use signed_graph::{NodeId, Sign, SignedGraph};

use super::row::LaneWidth;
use super::{CompatRow, CompatibilityKind, SourceCompatibility};
use crate::distance;

/// Direct Positive Edge compatibility from one source: compatible with the
/// source's positive neighbours only; the distance of a compatible pair is 1.
pub fn dpe_source(graph: &SignedGraph, source: NodeId) -> SourceCompatibility {
    let n = graph.node_count();
    let mut compatible = vec![false; n];
    let mut dist = vec![None; n];
    compatible[source.index()] = true;
    dist[source.index()] = Some(0);
    for nb in graph.neighbors(source) {
        if nb.sign == Sign::Positive {
            compatible[nb.node.index()] = true;
            dist[nb.node.index()] = Some(1);
        }
    }
    SourceCompatibility {
        source,
        kind: CompatibilityKind::Dpe,
        compatible,
        distance: dist,
    }
}

/// No Negative Edge compatibility from one source: compatible with every
/// node except the source's negative neighbours. The distance is the
/// unsigned shortest-path length (the paper's NNE distance definition).
pub fn nne_source(graph: &SignedGraph, csr: &CsrGraph, source: NodeId) -> SourceCompatibility {
    let n = graph.node_count();
    let mut compatible = vec![true; n];
    for nb in graph.neighbors(source) {
        if nb.sign == Sign::Negative {
            compatible[nb.node.index()] = false;
        }
    }
    let dist = distance::unsigned_distances_csr(csr, source);
    SourceCompatibility {
        source,
        kind: CompatibilityKind::Nne,
        compatible,
        distance: dist,
    }
}

/// The DPE row of `source`, packed straight from its adjacency.
pub(crate) fn dpe_row(graph: &SignedGraph, source: NodeId) -> CompatRow {
    let s = source.index();
    // Distances 0 and 1 always fit 4-bit codes.
    let n = graph.node_count();
    let mut row = CompatRow::pack(source, CompatibilityKind::Dpe, LaneWidth::NIBBLE, n, |v| {
        (v == s, (v == s).then_some(0), false)
    });
    for nb in graph.neighbors(source) {
        if nb.sign == Sign::Positive {
            row.set(nb.node.index(), true, 1);
        }
    }
    row
}

/// The NNE row of `source`, packed straight from one unsigned BFS and the
/// source's negative edges.
pub(crate) fn nne_row(graph: &SignedGraph, csr: &CsrGraph, source: NodeId) -> CompatRow {
    let dist = bfs_distances_csr(csr, source);
    let reached = dist.iter().copied().filter(|&d| d != UNREACHABLE);
    let width = LaneWidth::fitting(dist.len(), reached);
    let mut row = CompatRow::pack(source, CompatibilityKind::Nne, width, dist.len(), |v| {
        (true, (dist[v] != UNREACHABLE).then_some(dist[v]), false)
    });
    for nb in graph.neighbors(source) {
        if nb.sign == Sign::Negative {
            row.set_compatible(nb.node.index(), false);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::csr::CsrGraph;

    fn star() -> SignedGraph {
        // 0 is the hub: +1 to 1, -1 to 2; 1-3 positive.
        from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (0, 2, Sign::Negative),
            (1, 3, Sign::Positive),
        ])
    }

    #[test]
    fn dpe_only_positive_neighbors() {
        let g = star();
        let sc = dpe_source(&g, NodeId::new(0));
        assert_eq!(sc.kind, CompatibilityKind::Dpe);
        assert_eq!(sc.compatible, vec![true, true, false, false]);
        assert_eq!(sc.distance, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn nne_excludes_only_foes() {
        let g = star();
        let csr = CsrGraph::from_graph(&g);
        let sc = nne_source(&g, &csr, NodeId::new(0));
        assert_eq!(sc.kind, CompatibilityKind::Nne);
        assert_eq!(sc.compatible, vec![true, true, false, true]);
        // NNE distance ignores signs.
        assert_eq!(sc.distance, vec![Some(0), Some(1), Some(1), Some(2)]);
    }

    #[test]
    fn nne_from_leaf_sees_everyone() {
        let g = star();
        let csr = CsrGraph::from_graph(&g);
        let sc = nne_source(&g, &csr, NodeId::new(3));
        assert!(sc.compatible.iter().all(|&c| c));
        assert_eq!(sc.distance[2], Some(3));
    }
}
