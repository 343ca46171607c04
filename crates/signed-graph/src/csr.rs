//! Compressed-sparse-row (CSR) view of a [`SignedGraph`].
//!
//! The compatibility oracle runs one signed BFS per source node over the
//! whole graph; a CSR layout keeps the neighbour scan cache-friendly and
//! avoids the per-node `Vec` indirection of the adjacency-list
//! representation. The CSR view is cheap to share across the worker threads
//! used by the parallel oracle builders, and read-only with one exception:
//! a live **sign flip** ([`CsrGraph::set_sign`]) patches the sign lane in
//! place — the `offsets`/`targets` structure is untouched, so the delta
//! layer ([`crate::delta`]) can propagate `edge_set_sign` mutations without
//! rebuilding the CSR. Edge inserts and removals restructure the offsets
//! and need a rebuild ([`CsrGraph::from_graph`]).

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::graph::{NodeId, SignedGraph};
use crate::sign::Sign;

/// A CSR copy of a signed graph (read-only except for in-place sign
/// patching).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` / `signs` for node `v`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    signs: Vec<Sign>,
    edge_count: usize,
}

impl CsrGraph {
    /// Builds the CSR view from an adjacency-list graph.
    pub fn from_graph(g: &SignedGraph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.degree_sum());
        let mut signs = Vec::with_capacity(g.degree_sum());
        offsets.push(0u32);
        for v in g.nodes() {
            for nb in g.neighbors(v) {
                targets.push(nb.node.index() as u32);
                signs.push(nb.sign);
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            signs,
            edge_count: g.edge_count(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates over `(neighbor, sign)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Sign)> + '_ {
        let i = v.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.signs[lo..hi])
            .map(|(&t, &s)| (NodeId::new(t as usize), s))
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Patches the sign of the existing edge `(u, v)` in place — both
    /// directed entries — without touching the `offsets`/`targets`
    /// structure. This is how an `edge_set_sign` mutation propagates to CSR
    /// views without the `O(|V| + |E|)` rebuild that inserts and removals
    /// need. Returns [`GraphError::MissingEdge`] when `(u, v)` is not an
    /// edge of this view (the view would silently drift from its graph
    /// otherwise) and [`GraphError::NodeOutOfBounds`] for ids outside the
    /// node set.
    pub fn set_sign(&mut self, u: NodeId, v: NodeId, sign: Sign) -> Result<(), GraphError> {
        for node in [u, v] {
            if node.index() >= self.node_count() {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: self.node_count(),
                });
            }
        }
        for (a, b) in [(u, v), (v, u)] {
            let lo = self.offsets[a.index()] as usize;
            let hi = self.offsets[a.index() + 1] as usize;
            // Neighbour targets are sorted (the builder sorts adjacency).
            let pos = self.targets[lo..hi]
                .binary_search(&(b.index() as u32))
                .map_err(|_| GraphError::MissingEdge(u, v))?;
            self.signs[lo + pos] = sign;
        }
        Ok(())
    }
}

impl From<&SignedGraph> for CsrGraph {
    fn from(g: &SignedGraph) -> Self {
        CsrGraph::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edge_triples;

    #[test]
    fn csr_matches_adjacency() {
        let g = from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Negative),
            (2, 3, Sign::Positive),
            (0, 3, Sign::Negative),
            (1, 3, Sign::Positive),
        ]);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(csr.degree(v), g.degree(v));
            let from_csr: Vec<(usize, Sign)> =
                csr.neighbors(v).map(|(n, s)| (n.index(), s)).collect();
            let from_adj: Vec<(usize, Sign)> = g
                .neighbors(v)
                .iter()
                .map(|n| (n.node.index(), n.sign))
                .collect();
            assert_eq!(from_csr, from_adj);
        }
    }

    #[test]
    fn empty_graph() {
        let g = crate::builder::GraphBuilder::with_nodes(0).build();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let g = crate::builder::GraphBuilder::with_nodes(3).build();
        let csr: CsrGraph = (&g).into();
        for v in csr.nodes() {
            assert_eq!(csr.degree(v), 0);
            assert_eq!(csr.neighbors(v).count(), 0);
        }
    }
}
