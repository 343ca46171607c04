//! Incremental row repair: patch a resident [`CompatRow`] after a batch of
//! edge mutations instead of recomputing it from scratch.
//!
//! The paper's relations are all products of distance-bounded BFS from the
//! row's source, so a single edge change perturbs a resident row only along
//! frontiers through the touched endpoints — the classic incremental-SSSP
//! observation. [`repair_row`] exploits that per kind:
//!
//! * **`DPE`** rows depend only on the source's direct neighbourhood, so an
//!   endpoint mutation is an O(1) patch of the other endpoint's entry —
//!   always repairable.
//! * **`SPA`/`SPO`** rows only ask which of a node's positive/negative
//!   shortest-path counts are non-zero: its *sign class* (positive only,
//!   negative only, or both), which the row keeps as the compatibility bit
//!   plus the lane's mixed flag. A sign flip changes no BFS level. Off the
//!   shortest-path DAG (levels not adjacent) it is a provable no-op; on it
//!   (levels ℓ and ℓ+1) it can change only the class of the deeper
//!   endpoint, which is the OR of its level-ℓ neighbours' classes with
//!   positive and negative swapped across a negative edge. Repair
//!   re-derives that class over the final CSR and, where it changed, queues
//!   the node's level-(ℓ+2) neighbours — level by level, each node once,
//!   stopping wherever a class is unchanged. Inserts and removals must
//!   prove themselves no-ops (an edge between equal BFS levels is on no
//!   shortest-path DAG), or the row recomputes.
//! * **`SPM`** rows need the counts themselves (a majority), so they only
//!   keep the provable no-ops: same-level inserts, and removals or flips of
//!   off-DAG edges. Anything else falls back to
//!   [`RepairOutcome::MustRecompute`].
//! * **`NNE`** lanes are plain unsigned BFS distances, which inserts can
//!   only decrease: a bounded multi-seed relaxation from the inserted
//!   endpoints over the *final* adjacency restores the exact lane, and the
//!   bitset (compatible = not a direct foe of the source) is an O(1) patch
//!   per endpoint mutation. Removals reuse the SP no-op proof; one that
//!   follows an insert in the batch is proved against the lane of the
//!   graph it applies to (the final adjacency rewound past the later
//!   effects), so a batch keeps every row a one-by-one fold would keep.
//! * **`SBPH`/`SBP`** rows are balanced-path products with no usable
//!   residual structure; they always report [`RepairOutcome::MustRecompute`]
//!   (their whole-kind invalidation scope drops them before repair is even
//!   consulted).
//!
//! Soundness is a type, not a convention: the only way to keep a resident
//! row across a mutation is a [`RepairOutcome`] that proves it exact.
//! Repaired rows are bit-for-bit equal to a scratch recompute — the
//! differential harness in `crates/engine/tests/repair.rs` pins exactly
//! that, for every kind, across arbitrary mutation sequences. A row is
//! copied on its first change only; unchanged rows are kept as they are.
//!
//! Distances saturate at [`MAX_PACKED_DISTANCE`] ([`UNREACHABLE_DISTANCE`]
//! is the sentinel). Capping is a min-plus homomorphism
//! (`cap(min(a,b)) = min(cap a, cap b)` and `cap(a+1) = cap(cap(a)+1)`), so
//! the NNE relaxation computed in capped space equals the capped exact
//! distances. The SP level proofs are not exact at the cap — two saturated
//! endpoints may hide a real level gap — so any proof or propagation step
//! that needs a saturated level conservatively reports
//! [`RepairOutcome::MustRecompute`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use signed_graph::csr::CsrGraph;
use signed_graph::delta::{EdgeChange, MutationEffect};
use signed_graph::{NodeId, Sign};

use super::row::{CompatRow, MAX_PACKED_DISTANCE, UNREACHABLE_DISTANCE};
use super::CompatibilityKind;

/// The raw distance at which a row's distances saturate.
const SATURATED: u16 = MAX_PACKED_DISTANCE as u16;

/// The verdict of [`repair_row`] for one resident row against a batch of
/// mutation effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The row is provably unaffected by every effect — keep it as-is.
    Unchanged,
    /// The row was patched in place of a recompute; the payload is exact
    /// (bit-for-bit equal to a scratch rebuild on the mutated graph).
    Repaired(CompatRow),
    /// No sound patch exists; the caller must drop the row and recompute
    /// it from scratch on next touch.
    MustRecompute,
}

/// Working memory for the SPA/SPO sign-class propagation, reused across
/// every row of one sweep: a level-ordered queue and per-node queued marks
/// that are cleared in O(1) per row.
#[derive(Debug, Default)]
pub struct RepairScratch {
    queue: BinaryHeap<Reverse<(u16, u32)>>,
    queued: Vec<u32>,
    stamp: u32,
}

impl RepairScratch {
    /// Starts one row: empties the queue and forgets every queued mark.
    fn begin(&mut self, nodes: usize) {
        self.queue.clear();
        if self.queued.len() != nodes {
            self.queued = vec![0; nodes];
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.queued.fill(0);
            self.stamp = 1;
        }
    }

    /// Queues `v` (at BFS level `level`) unless this row already queued it.
    fn push(&mut self, v: NodeId, level: u16) {
        let mark = &mut self.queued[v.index()];
        if *mark != self.stamp {
            *mark = self.stamp;
            self.queue.push(Reverse((level, v.index() as u32)));
        }
    }
}

/// Repairs one resident row against a batch of mutation `effects`, given
/// the **final** CSR view (after every effect is applied). `scratch` is
/// reused across the rows of one sweep. The effects must be **net**: at
/// most one per edge, each a valid mutation of the pre-batch graph (what
/// [`signed_graph::delta::net_effects`] returns).
///
/// Effects are composed sequentially: a proven no-op leaves the lane exact
/// for the next proof, O(1) patches commute with everything, and inserts
/// defer their lane relaxation to one multi-seed pass (inserts only
/// decrease BFS distances, so relaxing from every inserted endpoint
/// restores the exact fixpoint), run at the end or just before a removal
/// whose proof needs the exact lane. SP sign flips defer to one class
/// propagation at the end, which is sound because every other effect it
/// accepts preserves every BFS level. Any effect that cannot be proven or
/// patched aborts with [`RepairOutcome::MustRecompute`].
pub fn repair_row(
    row: &CompatRow,
    effects: &[MutationEffect],
    csr: &CsrGraph,
    scratch: &mut RepairScratch,
) -> RepairOutcome {
    match row.kind() {
        CompatibilityKind::Dpe => repair_dpe(row, effects),
        CompatibilityKind::Spa | CompatibilityKind::Spm | CompatibilityKind::Spo => {
            repair_sp(row, effects, csr, scratch)
        }
        CompatibilityKind::Nne => repair_nne(row, effects, csr),
        CompatibilityKind::Sbph | CompatibilityKind::Sbp => RepairOutcome::MustRecompute,
    }
}

/// The endpoint opposite `source`, when `source` is an endpoint at all.
fn other_endpoint(source: NodeId, u: NodeId, v: NodeId) -> Option<NodeId> {
    if source == u {
        Some(v)
    } else if source == v {
        Some(u)
    } else {
        None
    }
}

/// DPE: the row is exactly `{source} ∪ positive neighbours of source`, so
/// only effects touching the source matter, and each is an O(1) overwrite
/// of the other endpoint's entry.
fn repair_dpe(row: &CompatRow, effects: &[MutationEffect]) -> RepairOutcome {
    let source = row.source();
    let mut patched: Option<CompatRow> = None;
    for effect in effects {
        let Some(other) = other_endpoint(source, effect.u, effect.v) else {
            continue;
        };
        let entry = match effect.change {
            EdgeChange::Unchanged(_) => continue,
            EdgeChange::Inserted(sign) => Some(sign),
            EdgeChange::SignChanged { new, .. } => Some(new),
            EdgeChange::Removed(_) => None,
        };
        let row = patched.get_or_insert_with(|| row.clone());
        match entry {
            Some(sign) if sign.is_positive() => row.set(other.index(), true, 1),
            _ => row.set(other.index(), false, UNREACHABLE_DISTANCE),
        }
    }
    match patched {
        None => RepairOutcome::Unchanged,
        Some(row) => RepairOutcome::Repaired(row),
    }
}

/// Where an existing edge `(u, v)` sits relative to a row's BFS levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Span {
    /// Both endpoints unreachable, or on the same level: the edge lies on
    /// no shortest path.
    OffDag,
    /// Levels `level - 1` and `level`: the edge lies on the shortest-path
    /// DAG, and `deeper` is its endpoint at `level`.
    OnDag { deeper: NodeId, level: u16 },
    /// The lane cannot tell: a saturated endpoint, or exactly one
    /// reachable endpoint (which contradicts an exact lane).
    Unknown,
}

fn edge_span(row: &CompatRow, u: NodeId, v: NodeId) -> Span {
    let (du, dv) = (row.raw_distance(u.index()), row.raw_distance(v.index()));
    match (du == UNREACHABLE_DISTANCE, dv == UNREACHABLE_DISTANCE) {
        (true, true) => return Span::OffDag,
        (true, false) | (false, true) => return Span::Unknown,
        (false, false) => {}
    }
    if du >= SATURATED || dv >= SATURATED {
        return Span::Unknown;
    }
    match du.abs_diff(dv) {
        1 if du > dv => Span::OnDag {
            deeper: u,
            level: du,
        },
        1 => Span::OnDag {
            deeper: v,
            level: dv,
        },
        _ => Span::OffDag,
    }
}

/// `true` when the lane proves removing (or re-signing) edge `(u, v)`
/// changes neither this row's distances nor its shortest-path counts.
fn off_dag_is_noop(row: &CompatRow, u: NodeId, v: NodeId) -> bool {
    edge_span(row, u, v) == Span::OffDag
}

/// `true` when a new edge `(u, v)` leaves the row alone: it joins equal
/// BFS levels (no shortcut, no new shortest path) or two unreachable nodes.
fn insert_is_noop(row: &CompatRow, u: NodeId, v: NodeId) -> bool {
    let (du, dv) = (row.raw_distance(u.index()), row.raw_distance(v.index()));
    du == dv && (du == UNREACHABLE_DISTANCE || du < SATURATED)
}

/// Sign class bit: the node has a positive shortest path from the source.
const POSITIVE: u8 = 0b01;
/// Sign class bit: the node has a negative shortest path from the source.
const NEGATIVE: u8 = 0b10;

/// The sign class of reachable node `v`, as the row stores it: the mixed
/// flag marks both signs, otherwise the compatibility bit tells positive
/// (SPA and SPO alike) from negative.
fn class_of(row: &CompatRow, v: usize) -> u8 {
    if row.is_mixed(v) {
        POSITIVE | NEGATIVE
    } else if row.is_compatible(v) {
        POSITIVE
    } else {
        NEGATIVE
    }
}

/// The class a path gains by crossing an edge of `sign`: a negative edge
/// swaps positive and negative.
fn across(class: u8, sign: Sign) -> u8 {
    match sign {
        Sign::Positive => class,
        Sign::Negative => (class << 1 | class >> 1) & (POSITIVE | NEGATIVE),
    }
}

/// Stores `class` for `v`: the SPA bit is "positive only", the SPO bit is
/// "includes positive", and the mixed flag is "both".
fn set_class(row: &mut CompatRow, v: usize, class: u8) {
    let compatible = match row.kind() {
        CompatibilityKind::Spa => class == POSITIVE,
        _ => class & POSITIVE != 0,
    };
    row.set_compatible(v, compatible);
    row.set_mixed(v, class == POSITIVE | NEGATIVE);
}

/// SP kinds: inserts and removals keep the level-preserving no-op proofs;
/// off-DAG sign flips are no-ops too, and on-DAG flips seed the SPA/SPO
/// class propagation (SPM cannot re-derive a majority and recomputes).
fn repair_sp(
    row: &CompatRow,
    effects: &[MutationEffect],
    csr: &CsrGraph,
    scratch: &mut RepairScratch,
) -> RepairOutcome {
    let flips_repairable = row.kind() != CompatibilityKind::Spm;
    scratch.begin(row.len());
    for effect in effects {
        let (u, v) = (effect.u, effect.v);
        let proven = match effect.change {
            EdgeChange::Unchanged(_) => true,
            EdgeChange::Removed(_) => off_dag_is_noop(row, u, v),
            EdgeChange::Inserted(_) => insert_is_noop(row, u, v),
            EdgeChange::SignChanged { .. } => match edge_span(row, u, v) {
                Span::OffDag => true,
                Span::OnDag { deeper, level } if flips_repairable => {
                    scratch.push(deeper, level);
                    true
                }
                _ => false,
            },
        };
        if !proven {
            return RepairOutcome::MustRecompute;
        }
    }
    propagate_classes(row, csr, scratch)
}

/// Re-derives the sign class of every queued node, shallowest level first,
/// from its parents (neighbours one level up) over the final CSR; a changed
/// class queues the node's children. Every accepted effect preserved the
/// BFS levels, so the row's lane still names each node's parents and
/// children, and a node's parents are final before it is processed.
fn propagate_classes(
    row: &CompatRow,
    csr: &CsrGraph,
    scratch: &mut RepairScratch,
) -> RepairOutcome {
    let mut patched: Option<CompatRow> = None;
    while let Some(Reverse((level, x))) = scratch.queue.pop() {
        let x = NodeId::new(x as usize);
        let current = patched.as_ref().unwrap_or(row);
        let class = csr
            .neighbors(x)
            .filter(|(z, _)| current.raw_distance(z.index()) == level - 1)
            .fold(0, |class, (z, sign)| {
                class | across(class_of(current, z.index()), sign)
            });
        if class == class_of(current, x.index()) {
            continue;
        }
        // A node with no parent, or children past the saturation cap,
        // means the lane cannot be trusted here.
        if class == 0 || level + 1 >= SATURATED {
            return RepairOutcome::MustRecompute;
        }
        let current = patched.get_or_insert_with(|| row.clone());
        set_class(current, x.index(), class);
        for (y, _) in csr.neighbors(x) {
            if current.raw_distance(y.index()) == level + 1 {
                scratch.push(y, level + 1);
            }
        }
    }
    match patched {
        None => RepairOutcome::Unchanged,
        Some(row) => RepairOutcome::Repaired(row),
    }
}

/// NNE: bits are "not a direct foe of the source" (endpoint-local), the
/// lane is a plain unsigned BFS — inserts relax it, removals must prove
/// themselves off-DAG, sign flips only touch endpoint bits.
fn repair_nne(row: &CompatRow, effects: &[MutationEffect], csr: &CsrGraph) -> RepairOutcome {
    let source = row.source();
    let mut patched: Option<CompatRow> = None;
    // Endpoints of inserted edges whose relaxation is still pending: one
    // multi-seed pass at the end, or earlier when a removal needs the lane
    // exact for its proof.
    let mut pending: Vec<(NodeId, NodeId)> = Vec::new();
    for (i, effect) in effects.iter().enumerate() {
        match effect.change {
            EdgeChange::Unchanged(_) => {}
            EdgeChange::SignChanged { new, .. } => {
                if let Some(other) = other_endpoint(source, effect.u, effect.v) {
                    patched
                        .get_or_insert_with(|| row.clone())
                        .set_compatible(other.index(), new.is_positive());
                }
            }
            EdgeChange::Inserted(sign) => {
                if let Some(other) = other_endpoint(source, effect.u, effect.v) {
                    patched
                        .get_or_insert_with(|| row.clone())
                        .set_compatible(other.index(), sign.is_positive());
                }
                pending.push((effect.u, effect.v));
            }
            EdgeChange::Removed(_) => {
                if !pending.is_empty() {
                    // Relax over the graph this removal applies to: the
                    // final adjacency without the edges inserted later, and
                    // with the edges removed from here on.
                    let row = patched.get_or_insert_with(|| row.clone());
                    relax_inserts(row, &pending, csr, &effects[i..]);
                    pending.clear();
                }
                let current = patched.as_ref().unwrap_or(row);
                if !off_dag_is_noop(current, effect.u, effect.v) {
                    // Covers endpoint rows too: an existing edge at the
                    // source always spans levels 0 and 1, so their bit
                    // flip rides the recompute.
                    return RepairOutcome::MustRecompute;
                }
            }
        }
    }
    if !pending.is_empty() {
        let row = patched.get_or_insert_with(|| row.clone());
        relax_inserts(row, &pending, csr, &[]);
    }
    match patched {
        None => RepairOutcome::Unchanged,
        Some(row) => RepairOutcome::Repaired(row),
    }
}

/// Multi-seed bounded relaxation: distances only decrease under insertion,
/// so label-correcting BFS from the inserted endpoints converges on the
/// exact post-insert lane. It runs over the final adjacency rewound past
/// the `later` net effects (their inserted edges skipped, their removed
/// edges still present). Arithmetic saturates at [`MAX_PACKED_DISTANCE`];
/// capping commutes with min-plus, so the capped fixpoint equals the capped
/// exact distances.
fn relax_inserts(
    row: &mut CompatRow,
    edges: &[(NodeId, NodeId)],
    csr: &CsrGraph,
    later: &[MutationEffect],
) {
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let lower = |row: &mut CompatRow, queue: &mut VecDeque<NodeId>, from: NodeId, to: NodeId| {
        let df = row.raw_distance(from.index());
        if df == UNREACHABLE_DISTANCE {
            return;
        }
        let candidate = df.saturating_add(1).min(SATURATED);
        if candidate < row.raw_distance(to.index()) {
            row.set_distance(to.index(), candidate);
            queue.push_back(to);
        }
    };
    for &(u, v) in edges {
        lower(row, &mut queue, u, v);
        lower(row, &mut queue, v, u);
    }
    let inserted_later = |x: NodeId, y: NodeId| {
        later.iter().any(|e| {
            matches!(e.change, EdgeChange::Inserted(_)) && other_endpoint(x, e.u, e.v) == Some(y)
        })
    };
    let removed_later = |x: NodeId| {
        later
            .iter()
            .filter(|e| matches!(e.change, EdgeChange::Removed(_)))
            .filter_map(move |e| other_endpoint(x, e.u, e.v))
    };
    while let Some(x) = queue.pop_front() {
        let neighbors = csr
            .neighbors(x)
            .map(|(y, _)| y)
            .filter(|&y| !inserted_later(x, y))
            .chain(removed_later(x));
        for y in neighbors {
            lower(row, &mut queue, x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{compute_row, EngineConfig};
    use signed_graph::builder::from_edge_triples;
    use signed_graph::{EdgeMutation, Sign, SignedGraph};

    fn ring_with_chords() -> SignedGraph {
        let n = 14usize;
        let mut triples = Vec::new();
        for i in 0..n {
            let sign = if i % 3 == 0 {
                Sign::Negative
            } else {
                Sign::Positive
            };
            triples.push((i, (i + 1) % n, sign));
        }
        triples.push((0, 5, Sign::Positive));
        triples.push((2, 9, Sign::Negative));
        // A detached positive pair, unreachable from the ring.
        triples.push((n, n + 1, Sign::Positive));
        from_edge_triples(triples)
    }

    fn scratch_row(graph: &SignedGraph, source: usize, kind: CompatibilityKind) -> CompatRow {
        let csr = CsrGraph::from_graph(graph);
        let cfg = EngineConfig::default();
        compute_row(graph, &csr, NodeId::new(source), kind, &cfg)
    }

    /// Applies `mutations` to a clone of `graph`, then checks `repair_row`
    /// against a scratch recompute for every source × kind: a `Repaired` or
    /// `Unchanged` verdict must be bit-for-bit exact.
    fn check_all_rows(graph: &SignedGraph, mutations: &[EdgeMutation]) {
        let mut mutated = graph.clone();
        let mut effects = Vec::new();
        for m in mutations {
            effects.push(mutated.apply_mutation(m).expect("test mutation applies"));
        }
        let csr = CsrGraph::from_graph(&mutated);
        for kind in CompatibilityKind::ALL {
            for source in 0..graph.node_count() {
                let before = scratch_row(graph, source, kind);
                let after = scratch_row(&mutated, source, kind);
                match repair_row(&before, &effects, &csr, &mut RepairScratch::default()) {
                    RepairOutcome::Unchanged => {
                        assert_eq!(
                            before, after,
                            "{kind:?} row {source}: claimed unchanged but differs"
                        );
                    }
                    RepairOutcome::Repaired(repaired) => {
                        assert_eq!(
                            repaired, after,
                            "{kind:?} row {source}: repaired row is not exact"
                        );
                    }
                    RepairOutcome::MustRecompute => {}
                }
            }
        }
    }

    #[test]
    fn dpe_rows_always_repair_exactly() {
        let graph = ring_with_chords();
        let csr_sees = |g: &SignedGraph, m: &EdgeMutation| {
            let mut g = g.clone();
            let effect = g.apply_mutation(m).unwrap();
            (g, effect)
        };
        for mutation in [
            EdgeMutation::Insert {
                u: NodeId::new(0),
                v: NodeId::new(7),
                sign: Sign::Positive,
            },
            EdgeMutation::Insert {
                u: NodeId::new(0),
                v: NodeId::new(7),
                sign: Sign::Negative,
            },
            EdgeMutation::Remove {
                u: NodeId::new(0),
                v: NodeId::new(1),
            },
            EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            },
        ] {
            let (mutated, effect) = csr_sees(&graph, &mutation);
            let csr = CsrGraph::from_graph(&mutated);
            for source in [0usize, 1, 7] {
                let before = scratch_row(&graph, source, CompatibilityKind::Dpe);
                let after = scratch_row(&mutated, source, CompatibilityKind::Dpe);
                match repair_row(&before, &[effect], &csr, &mut RepairScratch::default()) {
                    RepairOutcome::Unchanged => assert_eq!(before, after, "source {source}"),
                    RepairOutcome::Repaired(row) => assert_eq!(row, after, "source {source}"),
                    RepairOutcome::MustRecompute => {
                        panic!("DPE endpoint mutations are always patchable (source {source})")
                    }
                }
            }
        }
    }

    #[test]
    fn nne_insert_relaxes_to_the_exact_lane() {
        let graph = ring_with_chords();
        // A long-range chord that shortens many distances, plus an edge
        // into the detached component.
        check_all_rows(
            &graph,
            &[EdgeMutation::Insert {
                u: NodeId::new(1),
                v: NodeId::new(8),
                sign: Sign::Negative,
            }],
        );
        check_all_rows(
            &graph,
            &[EdgeMutation::Insert {
                u: NodeId::new(3),
                v: NodeId::new(14),
                sign: Sign::Positive,
            }],
        );
    }

    #[test]
    fn nne_rows_never_recompute_on_insert_or_flip() {
        let graph = ring_with_chords();
        let mut mutated = graph.clone();
        let effects = vec![
            mutated
                .apply_mutation(&EdgeMutation::Insert {
                    u: NodeId::new(1),
                    v: NodeId::new(8),
                    sign: Sign::Negative,
                })
                .unwrap(),
            mutated
                .apply_mutation(&EdgeMutation::SetSign {
                    u: NodeId::new(0),
                    v: NodeId::new(1),
                    sign: Sign::Positive,
                })
                .unwrap(),
        ];
        let csr = CsrGraph::from_graph(&mutated);
        for source in 0..graph.node_count() {
            let before = scratch_row(&graph, source, CompatibilityKind::Nne);
            let after = scratch_row(&mutated, source, CompatibilityKind::Nne);
            match repair_row(&before, &effects, &csr, &mut RepairScratch::default()) {
                RepairOutcome::MustRecompute => {
                    panic!("NNE inserts and sign flips always repair (source {source})")
                }
                RepairOutcome::Unchanged => assert_eq!(before, after, "source {source}"),
                RepairOutcome::Repaired(row) => assert_eq!(row, after, "source {source}"),
            }
        }
    }

    #[test]
    fn sp_proofs_are_sound_across_batches() {
        let graph = ring_with_chords();
        // Same-level insert, off-DAG removal, distant sign flip: a mix of
        // provable no-ops and forced recomputes — the check only demands
        // that every non-recompute verdict is exact.
        check_all_rows(
            &graph,
            &[
                EdgeMutation::Insert {
                    u: NodeId::new(2),
                    v: NodeId::new(12),
                    sign: Sign::Positive,
                },
                EdgeMutation::SetSign {
                    u: NodeId::new(5),
                    v: NodeId::new(6),
                    sign: Sign::Negative,
                },
                EdgeMutation::Remove {
                    u: NodeId::new(2),
                    v: NodeId::new(9),
                },
            ],
        );
    }

    /// Every single-edge flip and a few multi-flip batches: SPA and SPO
    /// rows never recompute, and each repaired row equals its scratch
    /// rebuild. One scratch serves every row, as in a store sweep.
    #[test]
    fn spa_spo_sign_flips_always_repair_exactly() {
        let graph = ring_with_chords();
        let edges: Vec<_> = graph.edges().to_vec();
        let mut batches: Vec<Vec<EdgeMutation>> = edges
            .iter()
            .map(|e| {
                vec![EdgeMutation::SetSign {
                    u: e.u,
                    v: e.v,
                    sign: e.sign.flip(),
                }]
            })
            .collect();
        for stride in [2usize, 3, 5] {
            batches.push(
                edges
                    .iter()
                    .step_by(stride)
                    .map(|e| EdgeMutation::SetSign {
                        u: e.u,
                        v: e.v,
                        sign: e.sign.flip(),
                    })
                    .collect(),
            );
        }
        let mut scratch = RepairScratch::default();
        let mut repaired = 0;
        for batch in &batches {
            let mut mutated = graph.clone();
            let effects: Vec<_> = batch
                .iter()
                .map(|m| mutated.apply_mutation(m).unwrap())
                .collect();
            let csr = CsrGraph::from_graph(&mutated);
            for kind in [CompatibilityKind::Spa, CompatibilityKind::Spo] {
                for source in 0..graph.node_count() {
                    let before = scratch_row(&graph, source, kind);
                    let after = scratch_row(&mutated, source, kind);
                    match repair_row(&before, &effects, &csr, &mut scratch) {
                        RepairOutcome::Unchanged => assert_eq!(before, after),
                        RepairOutcome::Repaired(row) => {
                            repaired += 1;
                            assert_eq!(row, after, "{kind:?} row {source} after {batch:?}");
                        }
                        RepairOutcome::MustRecompute => {
                            panic!("{kind:?} row {source}: sign flips always repair")
                        }
                    }
                }
            }
        }
        assert!(repaired > 0, "some flips must change a sign class");
    }

    #[test]
    fn spm_on_dag_flips_still_recompute() {
        let graph = ring_with_chords();
        let mut mutated = graph.clone();
        // (0, 1) joins levels 0 and 1 of row 0.
        let effects = vec![mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Positive,
            })
            .unwrap()];
        let csr = CsrGraph::from_graph(&mutated);
        let row = scratch_row(&graph, 0, CompatibilityKind::Spm);
        assert_eq!(
            repair_row(&row, &effects, &csr, &mut RepairScratch::default()),
            RepairOutcome::MustRecompute
        );
    }

    #[test]
    fn detached_component_mutations_leave_ring_rows_unchanged() {
        let graph = ring_with_chords();
        let mut mutated = graph.clone();
        let effects = vec![mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(14),
                v: NodeId::new(15),
                sign: Sign::Negative,
            })
            .unwrap()];
        let csr = CsrGraph::from_graph(&mutated);
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spm,
            CompatibilityKind::Spo,
        ] {
            let row = scratch_row(&graph, 0, kind);
            assert_eq!(
                repair_row(&row, &effects, &csr, &mut RepairScratch::default()),
                RepairOutcome::Unchanged,
                "{kind:?}: a sign flip in an unreachable component is a provable no-op"
            );
        }
    }

    #[test]
    fn sbp_kinds_always_fall_back() {
        let graph = ring_with_chords();
        let mut mutated = graph.clone();
        let effects = vec![mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(14),
                v: NodeId::new(15),
                sign: Sign::Negative,
            })
            .unwrap()];
        let csr = CsrGraph::from_graph(&mutated);
        for kind in [CompatibilityKind::Sbph, CompatibilityKind::Sbp] {
            let row = scratch_row(&graph, 0, kind);
            assert_eq!(
                repair_row(&row, &effects, &csr, &mut RepairScratch::default()),
                RepairOutcome::MustRecompute,
                "{kind:?} has no repair path"
            );
        }
    }
}
