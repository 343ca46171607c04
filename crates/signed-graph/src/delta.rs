//! Live edge mutations over a built [`crate::SignedGraph`]: the delta
//! layer the serving engine's incremental-update path is built on.
//!
//! The paper frames team formation as an online problem over an *evolving*
//! signed network, but [`crate::SignedGraph`] is deliberately immutable
//! once built (every algorithm is read-only over it). This module is the
//! bridge: an [`EdgeMutation`] names one edge-level change — insert,
//! remove, or sign flip — and [`crate::SignedGraph::apply_mutation`]
//! patches an owned graph in
//! place: adjacency lists keep their sorted order via binary-search
//! insertion/removal, the edge index and sign counters are updated, and no
//! derived state is recomputed. A sign flip additionally patches a
//! [`crate::csr::CsrGraph`] in place through [`crate::csr::CsrGraph::set_sign`]
//! (the CSR's `offsets`/`targets` lanes are untouched — only the sign lane
//! changes); inserts and removals restructure the CSR and need a rebuild.
//!
//! Mutations never grow or shrink the node set: an id outside
//! `0..node_count` is a typed [`crate::GraphError::NodeOutOfBounds`], which serving
//! layers surface as a `bad_request` instead of silently allocating users.
//! Removing the last edge of a node simply isolates it — the node stays
//! addressable and its compatibility rows stay well-defined (everything
//! unreachable).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, SignedGraph};
use crate::sign::Sign;

/// One edge-level change to a signed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeMutation {
    /// Add the (previously absent) undirected edge `(u, v)` with `sign`.
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The label of the new edge.
        sign: Sign,
    },
    /// Remove the existing edge `(u, v)` (either sign).
    Remove {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Set the sign of the existing edge `(u, v)`. Setting the sign it
    /// already has is a no-op ([`EdgeChange::Unchanged`]), not an error.
    SetSign {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The label the edge should have.
        sign: Sign,
    },
}

impl EdgeMutation {
    /// The wire label of this mutation (`edge_insert` / `edge_remove` /
    /// `edge_set_sign`), matching the service protocol's `op` labels.
    pub fn op(&self) -> &'static str {
        match self {
            EdgeMutation::Insert { .. } => "edge_insert",
            EdgeMutation::Remove { .. } => "edge_remove",
            EdgeMutation::SetSign { .. } => "edge_set_sign",
        }
    }

    /// The edge endpoints the mutation touches.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeMutation::Insert { u, v, .. }
            | EdgeMutation::Remove { u, v }
            | EdgeMutation::SetSign { u, v, .. } => (u, v),
        }
    }
}

/// What [`SignedGraph::apply_mutation`] actually did.
///
/// [`SignedGraph::apply_mutation`]: crate::SignedGraph::apply_mutation
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationEffect {
    /// One touched endpoint (canonical order: `u <= v`).
    pub u: NodeId,
    /// The other touched endpoint.
    pub v: NodeId,
    /// The structural change.
    pub change: EdgeChange,
}

/// The structural change of one applied mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeChange {
    /// The edge was inserted with this sign.
    Inserted(Sign),
    /// The edge (with this sign) was removed.
    Removed(Sign),
    /// The edge's sign flipped.
    SignChanged {
        /// The sign before the mutation.
        old: Sign,
        /// The sign after the mutation.
        new: Sign,
    },
    /// A [`EdgeMutation::SetSign`] to the sign the edge already had.
    Unchanged(Sign),
}

impl MutationEffect {
    /// `true` when the graph actually changed (everything except
    /// [`EdgeChange::Unchanged`]) — the gate for cache invalidation: a no-op
    /// set-sign must not evict a single row.
    pub fn changed(&self) -> bool {
        !matches!(self.change, EdgeChange::Unchanged(_))
    }

    /// `true` when only an existing edge's sign changed — the case where a
    /// CSR view can be patched in place ([`crate::csr::CsrGraph::set_sign`])
    /// instead of rebuilt.
    pub fn is_sign_only(&self) -> bool {
        matches!(self.change, EdgeChange::SignChanged { .. })
    }

    /// The sign the edge has after the mutation (`None` once removed).
    pub fn sign_after(&self) -> Option<Sign> {
        match self.change {
            EdgeChange::Inserted(s) | EdgeChange::Unchanged(s) => Some(s),
            EdgeChange::SignChanged { new, .. } => Some(new),
            EdgeChange::Removed(_) => None,
        }
    }
}

/// Reduces a batch's per-mutation `effects` to one net effect per touched
/// edge, by comparing the edge's sign in `before` (the graph the batch was
/// applied to) with its sign in `after` (absent, `+` or `-`). A removal
/// plus a re-insert with the same sign cancels out; every other difference
/// becomes [`EdgeChange::Inserted`], [`EdgeChange::Removed`] or
/// [`EdgeChange::SignChanged`]. Nets keep the order in which their edges
/// were first touched, and each is a valid single mutation of `before`, so
/// any order of them rebuilds `after`'s edge set.
pub fn net_effects(
    before: &SignedGraph,
    after: &SignedGraph,
    effects: &[MutationEffect],
) -> Vec<MutationEffect> {
    let mut seen = HashSet::new();
    effects
        .iter()
        .filter(|e| e.changed() && seen.insert((e.u, e.v)))
        .filter_map(|e| {
            let change = match (before.sign(e.u, e.v), after.sign(e.u, e.v)) {
                (None, Some(sign)) => EdgeChange::Inserted(sign),
                (Some(sign), None) => EdgeChange::Removed(sign),
                (Some(old), Some(new)) if old != new => EdgeChange::SignChanged { old, new },
                _ => return None,
            };
            Some(MutationEffect {
                u: e.u,
                v: e.v,
                change,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edge_triples;
    use crate::csr::CsrGraph;
    use crate::error::GraphError;
    use crate::SignedGraph;

    fn base() -> SignedGraph {
        from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Negative),
            (0, 2, Sign::Positive),
            (2, 3, Sign::Positive),
        ])
    }

    /// Rebuilds a graph from `g`'s current edge list — the reference every
    /// patched graph must equal, shape-wise.
    fn rebuilt(g: &SignedGraph) -> SignedGraph {
        from_edge_triples(
            g.edges()
                .iter()
                .map(|e| (e.u.index(), e.v.index(), e.sign))
                .chain(std::iter::once((
                    g.node_count() - 1,
                    g.node_count() - 1,
                    Sign::Positive, // self-loop: ignored, pins the node count
                )))
                .collect::<Vec<_>>(),
        )
    }

    fn assert_same_shape(a: &SignedGraph, b: &SignedGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.positive_edge_count(), b.positive_edge_count());
        assert_eq!(a.negative_edge_count(), b.negative_edge_count());
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u), "adjacency of {u}");
        }
        let mut ae: Vec<_> = a.edges().to_vec();
        let mut be: Vec<_> = b.edges().to_vec();
        ae.sort_by_key(|e| (e.u, e.v));
        be.sort_by_key(|e| (e.u, e.v));
        assert_eq!(ae, be);
    }

    #[test]
    fn insert_patches_adjacency_in_sorted_order() {
        let mut g = base();
        let effect = g
            .apply_mutation(&EdgeMutation::Insert {
                u: NodeId::new(3),
                v: NodeId::new(0),
                sign: Sign::Negative,
            })
            .unwrap();
        assert_eq!(effect.change, EdgeChange::Inserted(Sign::Negative));
        assert_eq!((effect.u, effect.v), (NodeId::new(0), NodeId::new(3)));
        assert!(effect.changed());
        assert_eq!(g.sign(NodeId::new(0), NodeId::new(3)), Some(Sign::Negative));
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.negative_edge_count(), 2);
        // Neighbour lists stay sorted (the traversal-determinism invariant).
        for u in g.nodes() {
            let order: Vec<usize> = g.neighbors(u).iter().map(|n| n.node.index()).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "adjacency of {u} must stay sorted");
        }
        assert_same_shape(&g, &rebuilt(&g));
    }

    #[test]
    fn remove_updates_index_and_counts() {
        let mut g = base();
        let effect = g
            .apply_mutation(&EdgeMutation::Remove {
                u: NodeId::new(2),
                v: NodeId::new(1),
            })
            .unwrap();
        assert_eq!(effect.change, EdgeChange::Removed(Sign::Negative));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.negative_edge_count(), 0);
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(2)));
        // The swap-removed edge's index entry still resolves.
        for e in g.edges() {
            assert_eq!(g.sign(e.u, e.v), Some(e.sign));
        }
        assert_same_shape(&g, &rebuilt(&g));
    }

    #[test]
    fn removing_the_last_edge_isolates_a_node() {
        let mut g = base();
        g.apply_mutation(&EdgeMutation::Remove {
            u: NodeId::new(2),
            v: NodeId::new(3),
        })
        .unwrap();
        assert_eq!(g.node_count(), 4, "isolated nodes stay in the graph");
        assert_eq!(g.degree(NodeId::new(3)), 0);
        assert_same_shape(&g, &rebuilt(&g));
    }

    #[test]
    fn set_sign_flips_everywhere_and_is_idempotent() {
        let mut g = base();
        let effect = g
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(1),
                v: NodeId::new(0),
                sign: Sign::Negative,
            })
            .unwrap();
        assert_eq!(
            effect.change,
            EdgeChange::SignChanged {
                old: Sign::Positive,
                new: Sign::Negative
            }
        );
        assert!(effect.is_sign_only());
        assert_eq!(g.sign(NodeId::new(0), NodeId::new(1)), Some(Sign::Negative));
        assert_eq!(g.negative_edge_count(), 2);
        // Both adjacency entries agree.
        assert!(g
            .neighbors(NodeId::new(0))
            .iter()
            .any(|n| n.node == NodeId::new(1) && n.sign == Sign::Negative));
        assert!(g
            .neighbors(NodeId::new(1))
            .iter()
            .any(|n| n.node == NodeId::new(0) && n.sign == Sign::Negative));
        // Same sign again: a no-op, not an error.
        let again = g
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            })
            .unwrap();
        assert_eq!(again.change, EdgeChange::Unchanged(Sign::Negative));
        assert!(!again.changed());
        assert_same_shape(&g, &rebuilt(&g));
    }

    #[test]
    fn typed_errors_for_bad_mutations() {
        let mut g = base();
        let unknown = NodeId::new(99);
        for m in [
            EdgeMutation::Insert {
                u: NodeId::new(0),
                v: unknown,
                sign: Sign::Positive,
            },
            EdgeMutation::Remove {
                u: unknown,
                v: NodeId::new(0),
            },
            EdgeMutation::SetSign {
                u: unknown,
                v: NodeId::new(0),
                sign: Sign::Positive,
            },
        ] {
            assert!(matches!(
                g.apply_mutation(&m),
                Err(GraphError::NodeOutOfBounds { .. })
            ));
        }
        assert!(matches!(
            g.apply_mutation(&EdgeMutation::Insert {
                u: NodeId::new(2),
                v: NodeId::new(2),
                sign: Sign::Positive,
            }),
            Err(GraphError::SelfLoop(_))
        ));
        assert!(matches!(
            g.apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(1),
                v: NodeId::new(1),
                sign: Sign::Positive,
            }),
            Err(GraphError::SelfLoop(_))
        ));
        assert!(matches!(
            g.apply_mutation(&EdgeMutation::Insert {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            }),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            g.apply_mutation(&EdgeMutation::Remove {
                u: NodeId::new(0),
                v: NodeId::new(3),
            }),
            Err(GraphError::MissingEdge(_, _))
        ));
        // Failed mutations leave the graph untouched.
        assert_eq!(g.edge_count(), 4);
        assert_same_shape(&g, &rebuilt(&g));
    }

    #[test]
    fn net_effects_cancel_round_trips_and_fold_repeats() {
        let before = base();
        let mut after = before.clone();
        let (n0, n1, n2, n3) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        );
        let batch = [
            // Remove and re-insert (0, 1) with its sign: cancels out.
            EdgeMutation::Remove { u: n1, v: n0 },
            EdgeMutation::Insert {
                u: n0,
                v: n1,
                sign: Sign::Positive,
            },
            // Flip (2, 3) twice: cancels out.
            EdgeMutation::SetSign {
                u: n2,
                v: n3,
                sign: Sign::Negative,
            },
            EdgeMutation::SetSign {
                u: n3,
                v: n2,
                sign: Sign::Positive,
            },
            // Insert (0, 3) then flip it: one insert with the final sign.
            EdgeMutation::Insert {
                u: n3,
                v: n0,
                sign: Sign::Positive,
            },
            EdgeMutation::SetSign {
                u: n0,
                v: n3,
                sign: Sign::Negative,
            },
            // Remove (1, 2) and re-insert it with the other sign: a flip.
            EdgeMutation::Remove { u: n1, v: n2 },
            EdgeMutation::Insert {
                u: n1,
                v: n2,
                sign: Sign::Positive,
            },
            // Flip (0, 2), then remove it: one removal of the old sign.
            EdgeMutation::SetSign {
                u: n0,
                v: n2,
                sign: Sign::Negative,
            },
            EdgeMutation::Remove { u: n0, v: n2 },
        ];
        let effects: Vec<_> = batch
            .iter()
            .map(|m| after.apply_mutation(m).unwrap())
            .collect();
        let effect = |u: NodeId, v: NodeId, change| MutationEffect { u, v, change };
        assert_eq!(
            net_effects(&before, &after, &effects),
            vec![
                effect(n0, n3, EdgeChange::Inserted(Sign::Negative)),
                effect(
                    n1,
                    n2,
                    EdgeChange::SignChanged {
                        old: Sign::Negative,
                        new: Sign::Positive,
                    }
                ),
                effect(n0, n2, EdgeChange::Removed(Sign::Positive)),
            ]
        );
        assert_eq!(net_effects(&before, &after, &effects[..4]), vec![]);
    }

    #[test]
    fn csr_sign_patch_matches_rebuild() {
        let mut g = base();
        let mut csr = CsrGraph::from_graph(&g);
        g.apply_mutation(&EdgeMutation::SetSign {
            u: NodeId::new(2),
            v: NodeId::new(3),
            sign: Sign::Negative,
        })
        .unwrap();
        csr.set_sign(NodeId::new(2), NodeId::new(3), Sign::Negative)
            .unwrap();
        let rebuilt = CsrGraph::from_graph(&g);
        for v in g.nodes() {
            let patched: Vec<_> = csr.neighbors(v).collect();
            let fresh: Vec<_> = rebuilt.neighbors(v).collect();
            assert_eq!(patched, fresh, "CSR row of {v}");
        }
        assert!(csr
            .set_sign(NodeId::new(0), NodeId::new(3), Sign::Positive)
            .is_err());
    }

    #[test]
    fn random_mutation_sequences_match_rebuild() {
        // A deterministic pseudo-random interleave of inserts, removals and
        // sign flips; after every step the patched graph must equal a graph
        // rebuilt from its own edge list.
        let mut g = from_edge_triples(
            (0..12)
                .map(|i| (i, (i + 1) % 12, Sign::Positive))
                .collect::<Vec<_>>(),
        );
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut applied = 0;
        for _ in 0..200 {
            let u = NodeId::new(next() % 12);
            let v = NodeId::new(next() % 12);
            let sign = if next() % 2 == 0 {
                Sign::Positive
            } else {
                Sign::Negative
            };
            let m = match next() % 3 {
                0 => EdgeMutation::Insert { u, v, sign },
                1 => EdgeMutation::Remove { u, v },
                _ => EdgeMutation::SetSign { u, v, sign },
            };
            if g.apply_mutation(&m).is_ok() {
                applied += 1;
            }
            assert_same_shape(&g, &rebuilt(&g));
        }
        assert!(applied > 50, "the interleave must exercise real mutations");
    }
}
