//! The bit-parallel fill: one breadth-first search over a batch of sources
//! for SPA, SPO and NNE (a multi-source BFS in the manner of Then et al.,
//! "The More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB
//! 8(4), 2014).
//!
//! Every node keeps a few masks with one bit per source of the batch:
//! `seen` (reached at the current level or before), `frontier` (reached at
//! exactly the current level) and `next` (reached at the level being
//! built). The search advances one level at a time for every source at
//! once: a frontier node passes its frontier bits across each edge to the
//! neighbours those sources have not seen, so a level costs one word
//! operation per edge for the whole batch instead of one per source.
//!
//! SPA and SPO ask only *whether* a positive or a negative shortest path
//! exists, never how many, so the search carries two more masks per node:
//! `pos` and `neg`, set for a source when some shortest path from it is
//! positive, or negative. They follow Algorithm 1's recurrence with
//! existence bits in place of counts: a node's bits are the OR of its
//! predecessors' bits across the edges that reach it, and a negative edge
//! swaps `pos` and `neg`. Algorithm 1's saturating counters never return to
//! 0, so `N⁺ > 0` exactly when `pos` is set and `N⁻ > 0` exactly when `neg`
//! is: SPA is `pos ∧ ¬neg`, SPO is `pos` and the mixed flag is `pos ∧ neg`,
//! the very rows [`super::sp`] packs from the counts. SPM compares the
//! counts and keeps its per-source search.
//!
//! Each source's row is packed in place ([`RowPacker`]) as a level
//! completes, so the search builds no distance buffer: a worker's scratch is
//! five 32-bit masks, 20 bytes per node, no more than the scalar kernels'
//! `u32` distance and two `u64` path counts. (64-bit masks halve the number
//! of searches but double the scratch and the rows in flight; they raised
//! the peak resident set of the `batch_solve` benchmark workload.)
//!
//! A single row through a 32-wide search costs about one diameter's worth of
//! passes over the edges, more than one scalar BFS, so on-demand rows (row
//! mode misses, repair recomputes) keep the per-source kernels.

use signed_graph::csr::CsrGraph;
use signed_graph::{NodeId, Sign, SignedGraph};

use super::row::RowPacker;
use super::{CompatRow, CompatibilityKind};

/// One bit per source of a batch.
type Mask = u32;

/// Sources per batch: one per mask bit.
pub(crate) const BATCH: usize = Mask::BITS as usize;

/// Whether the fill computes `kind` a batch of sources at a time.
pub(crate) fn batched(kind: CompatibilityKind) -> bool {
    matches!(
        kind,
        CompatibilityKind::Spa | CompatibilityKind::Spo | CompatibilityKind::Nne
    )
}

/// One node's search state: bit `j` of each mask stands for the batch's
/// `j`-th source.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeMasks {
    /// Reached at the current level or before.
    seen: Mask,
    /// Reached at exactly the current level.
    frontier: Mask,
    /// Reached at the level being built.
    next: Mask,
    /// Some shortest path from the source is positive.
    pos: Mask,
    /// Some shortest path from the source is negative.
    neg: Mask,
}

/// The rows of `kind` (SPA, SPO or NNE) for sources `first..` — up to
/// [`BATCH`] of them, fewer at the end of the node range — from one
/// bit-parallel search, in source order. `scratch` is the worker's per-node
/// state, reused across batches.
pub(crate) fn fill_batch<'g>(
    graph: &'g SignedGraph,
    csr: &CsrGraph,
    kind: CompatibilityKind,
    first: usize,
    scratch: &mut Vec<NodeMasks>,
) -> impl Iterator<Item = CompatRow> + 'g {
    debug_assert!(batched(kind));
    let n = csr.node_count();
    let sources = first..n.min(first + BATCH);
    scratch.clear();
    scratch.resize(n, NodeMasks::default());
    // NNE rows start all-compatible: unreached nodes are compatible with
    // no distance. SP rows start empty: unreached nodes are incompatible.
    let nne = kind == CompatibilityKind::Nne;
    let mut rows: Vec<RowPacker> = sources
        .clone()
        .map(|s| RowPacker::new(NodeId::new(s), kind, n, nne))
        .collect();
    // Level 0: each source reaches itself along the empty, positive path.
    for (j, s) in sources.clone().enumerate() {
        scratch[s].next = 1 << j;
        scratch[s].pos = 1 << j;
    }
    let mut level = 0u32;
    while advance(kind, scratch, &mut rows, level) {
        expand(csr, scratch);
        level += 1;
    }
    sources.zip(rows).map(move |(s, row)| {
        let mut row = row.finish();
        if nne {
            for nb in graph.neighbors(NodeId::new(s)) {
                if nb.sign == Sign::Negative {
                    row.set_compatible(nb.node.index(), false);
                }
            }
        }
        row
    })
}

/// Makes the level just built the frontier and packs its nodes into the
/// rows of the sources that reached them, at distance `level`. Returns
/// `false` when no source reached any node (the search is over).
fn advance(
    kind: CompatibilityKind,
    scratch: &mut [NodeMasks],
    rows: &mut [RowPacker],
    level: u32,
) -> bool {
    let mut reached = false;
    for (x, m) in scratch.iter_mut().enumerate() {
        m.frontier = m.next;
        if m.next == 0 {
            continue;
        }
        m.seen |= m.next;
        m.next = 0;
        reached = true;
        let (compatible, mixed) = match kind {
            CompatibilityKind::Spa => (m.pos & !m.neg, m.pos & m.neg),
            CompatibilityKind::Spo => (m.pos, m.pos & m.neg),
            // NNE: reached or not, a node stays compatible; no mixed flags.
            _ => (Mask::MAX, 0),
        };
        let mut bits = m.frontier;
        while bits != 0 {
            let j = bits.trailing_zeros();
            bits &= bits - 1;
            rows[j as usize].reach(x, compatible >> j & 1 == 1, level, mixed >> j & 1 == 1);
        }
    }
    reached
}

/// Builds the next level: every frontier node passes its frontier bits to
/// the neighbours those sources have not seen, with its path-sign bits,
/// swapped across a negative edge.
fn expand(csr: &CsrGraph, scratch: &mut [NodeMasks]) {
    for u in 0..scratch.len() {
        let m = scratch[u];
        if m.frontier == 0 {
            continue;
        }
        for (x, sign) in csr.neighbors(NodeId::new(u)) {
            let t = &mut scratch[x.index()];
            let new = m.frontier & !t.seen;
            if new == 0 {
                continue;
            }
            t.next |= new;
            let (pos, neg) = match sign {
                Sign::Positive => (m.pos, m.neg),
                Sign::Negative => (m.neg, m.pos),
            };
            t.pos |= pos & new;
            t.neg |= neg & new;
        }
    }
}
