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
use super::{CompatRow, CompatibilityKind};

/// The DPE row of `source`, packed straight from its adjacency: compatible
/// with the source's positive neighbours only, at distance 1.
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
/// source's negative edges: compatible with every node except the source's
/// negative neighbours, at the unsigned shortest-path length (the paper's
/// NNE distance).
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

    /// The row's compatibility bits and distances, node by node.
    fn unpack(row: &CompatRow) -> (Vec<bool>, Vec<Option<u32>>) {
        (0..row.len())
            .map(|v| (row.is_compatible(v), row.distance(v)))
            .unzip()
    }

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
        let row = dpe_row(&g, NodeId::new(0));
        assert_eq!(row.kind(), CompatibilityKind::Dpe);
        assert!(
            (0..row.len()).all(|v| !row.is_mixed(v)),
            "only SP rows mark mixed nodes"
        );
        assert_eq!(
            unpack(&row),
            (
                vec![true, true, false, false],
                vec![Some(0), Some(1), None, None]
            )
        );
    }

    #[test]
    fn nne_excludes_only_foes() {
        let g = star();
        let csr = CsrGraph::from_graph(&g);
        let row = nne_row(&g, &csr, NodeId::new(0));
        assert_eq!(row.kind(), CompatibilityKind::Nne);
        assert!(
            (0..row.len()).all(|v| !row.is_mixed(v)),
            "only SP rows mark mixed nodes"
        );
        // NNE distance ignores signs.
        assert_eq!(
            unpack(&row),
            (
                vec![true, true, false, true],
                vec![Some(0), Some(1), Some(1), Some(2)]
            )
        );
    }

    #[test]
    fn nne_from_leaf_sees_everyone() {
        let g = star();
        let csr = CsrGraph::from_graph(&g);
        let row = nne_row(&g, &csr, NodeId::new(3));
        assert_eq!(row.compatible_count(), 4);
        assert_eq!(row.distance(2), Some(3));
    }
}
