//! User-compatibility relations over signed networks (paper §3).
//!
//! Every relation is exposed through two complementary APIs:
//!
//! * **Per-source computation** — [`compute_source`] runs the relation's
//!   algorithm from one query node and returns a [`SourceCompatibility`]
//!   (who is compatible with the query node and at what distance). This is
//!   the paper's Algorithm 1 view and the right tool for large graphs where
//!   the full `|V|²` relation cannot be materialised.
//! * **Materialised relations** — [`CompatibilityMatrix`] precomputes every
//!   source (optionally in parallel) and [`LazyCompatibility`] computes and
//!   caches sources on demand, or fills all of them at once (the serving
//!   engine's one store). Both implement the [`Compatibility`] trait
//!   consumed by the team-formation algorithms.
//!
//! Resident rows — matrix rows and cached lazy rows alike — use the
//! bit-packed [`CompatRow`] layout (1 bit per node each for the compatible
//! set and the SP mixed flag, a 4-bit distance code per node, ~0.75 bytes
//! per node in all; rows with many distances past 13 take 8-bit codes),
//! built straight from each relation's scan by [`compute_row`]: ~12×
//! smaller than the unpacked [`SourceCompatibility`] and word-parallel for
//! the solver's [`crate::team::CandidateMask`] fast path, exposed through
//! [`Compatibility::packed_row`].

mod batch;
pub mod repair;
pub mod row;
pub mod sbp;
pub mod sbph;
pub mod sp;
pub mod trivial;

pub use row::{
    bitset_words, CompatRow, NodeSet, RowHandle, ScalarOnly, MAX_PACKED_DISTANCE,
    UNREACHABLE_DISTANCE,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use signed_graph::csr::CsrGraph;
use signed_graph::{MutationEffect, NodeId, SignedGraph};

use crate::distance;

/// The seven compatibility relations defined by the paper, ordered from the
/// strictest (DPE) to the most relaxed (NNE) as in Proposition 3.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompatibilityKind {
    /// Direct Positive Edge: only users joined by a positive edge.
    Dpe,
    /// All Shortest Paths positive.
    Spa,
    /// Majority of Shortest Paths positive.
    Spm,
    /// At least One Shortest Path positive.
    Spo,
    /// Heuristic Structurally Balanced Path (prefix-property search).
    Sbph,
    /// Exact Structurally Balanced Path (exhaustive search).
    Sbp,
    /// No Negative Edge between the two users.
    Nne,
}

impl CompatibilityKind {
    /// All relation kinds, strictest first.
    pub const ALL: [CompatibilityKind; 7] = [
        CompatibilityKind::Dpe,
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbph,
        CompatibilityKind::Sbp,
        CompatibilityKind::Nne,
    ];

    /// The kinds evaluated in the paper's Table 2 / Figure 2 (DPE is
    /// excluded there because requiring direct positive edges amounts to
    /// clique finding; SBP is included only where it is computable).
    pub const EVALUATED: [CompatibilityKind; 5] = [
        CompatibilityKind::Spa,
        CompatibilityKind::Spm,
        CompatibilityKind::Spo,
        CompatibilityKind::Sbph,
        CompatibilityKind::Nne,
    ];

    /// The short label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            CompatibilityKind::Dpe => "DPE",
            CompatibilityKind::Spa => "SPA",
            CompatibilityKind::Spm => "SPM",
            CompatibilityKind::Spo => "SPO",
            CompatibilityKind::Sbph => "SBPH",
            CompatibilityKind::Sbp => "SBP",
            CompatibilityKind::Nne => "NNE",
        }
    }

    /// Parses a label (case-insensitive). Returns `None` for unknown names.
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_ascii_uppercase().as_str() {
            "DPE" => Some(CompatibilityKind::Dpe),
            "SPA" => Some(CompatibilityKind::Spa),
            "SPM" => Some(CompatibilityKind::Spm),
            "SPO" => Some(CompatibilityKind::Spo),
            "SBPH" => Some(CompatibilityKind::Sbph),
            "SBP" => Some(CompatibilityKind::Sbp),
            "NNE" => Some(CompatibilityKind::Nne),
            _ => None,
        }
    }
}

impl std::fmt::Display for CompatibilityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning knobs for the relation algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Exact-SBP search: maximum path length explored (`None` = no bound,
    /// which is only sensible on very small graphs).
    pub sbp_max_path_len: Option<usize>,
    /// Exact-SBP search: maximum number of DFS states expanded per source
    /// before the search gives up on the remaining targets (they stay
    /// incompatible). Keeps the exponential search bounded, as the paper
    /// does by restricting exact SBP to the small Slashdot network.
    pub sbp_max_states: usize,
    /// Heuristic-SBP: number of balanced path prefixes retained per node and
    /// per path sign. Width 1 reproduces the paper's single-prefix
    /// heuristic; larger widths trade time for recall (see the `sbph_width`
    /// ablation bench).
    pub sbph_width: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sbp_max_path_len: Some(12),
            sbp_max_states: 2_000_000,
            sbph_width: 1,
        }
    }
}

/// The result of running a compatibility algorithm from one query node:
/// for every node of the graph, whether it is compatible with the source and
/// the relation-specific distance (see [`crate::distance`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceCompatibility {
    /// The query node.
    pub source: NodeId,
    /// The relation kind that produced this view.
    pub kind: CompatibilityKind,
    /// `compatible[v]` — is `(source, v)` in the relation?
    pub compatible: Vec<bool>,
    /// `distance[v]` — the relation's distance from `source` to `v`
    /// (`None` when undefined/unreachable). Defined for compatible pairs;
    /// may also be populated for incompatible ones when cheap.
    pub distance: Vec<Option<u32>>,
}

impl SourceCompatibility {
    /// Number of nodes compatible with the source (including the source
    /// itself, which is always compatible by reflexivity).
    pub fn compatible_count(&self) -> usize {
        self.compatible.iter().filter(|&&c| c).count()
    }

    /// Mean distance over compatible nodes other than the source itself,
    /// ignoring pairs with undefined distance.
    pub fn mean_compatible_distance(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut count = 0u64;
        for (v, (&c, &d)) in self.compatible.iter().zip(&self.distance).enumerate() {
            if c && v != self.source.index() {
                if let Some(d) = d {
                    total += d as u64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            None
        } else {
            Some(total as f64 / count as f64)
        }
    }
}

/// Computes the compatibility of every node with `source` under `kind`.
pub fn compute_source(
    graph: &SignedGraph,
    csr: &CsrGraph,
    source: NodeId,
    kind: CompatibilityKind,
    cfg: &EngineConfig,
) -> SourceCompatibility {
    match kind {
        CompatibilityKind::Dpe => trivial::dpe_source(graph, source),
        CompatibilityKind::Nne => trivial::nne_source(graph, csr, source),
        CompatibilityKind::Spa | CompatibilityKind::Spm | CompatibilityKind::Spo => {
            let counts = sp::signed_bfs(csr, source);
            sp::source_from_counts(source, kind, &counts)
        }
        CompatibilityKind::Sbph => sbph::sbph_source(graph, csr, source, cfg.sbph_width),
        CompatibilityKind::Sbp => {
            sbp::sbp_source(graph, source, cfg.sbp_max_path_len, cfg.sbp_max_states)
        }
    }
}

/// Computes `source`'s bit-packed row of `kind` straight from the
/// relation's scan: SP rows from Algorithm 1's counts (mixed flags
/// included), DPE and NNE rows from the source's adjacency and one BFS.
/// Only the SBPH/SBP searches, which produce per-node vectors anyway, pack
/// through a [`SourceCompatibility`]. Equal to
/// `CompatRow::from_source(&compute_source(..))` up to the SP mixed flags,
/// which only this path sets.
pub fn compute_row(
    graph: &SignedGraph,
    csr: &CsrGraph,
    source: NodeId,
    kind: CompatibilityKind,
    cfg: &EngineConfig,
) -> CompatRow {
    match kind {
        CompatibilityKind::Dpe => trivial::dpe_row(graph, source),
        CompatibilityKind::Nne => trivial::nne_row(graph, csr, source),
        CompatibilityKind::Spa | CompatibilityKind::Spm | CompatibilityKind::Spo => {
            sp::row_from_counts(source, kind, &sp::signed_bfs(csr, source))
        }
        CompatibilityKind::Sbph | CompatibilityKind::Sbp => {
            CompatRow::from_source(&compute_source(graph, csr, source, kind, cfg))
        }
    }
}

/// A materialised or on-demand compatibility relation: the interface the
/// team-formation algorithms consume.
///
/// Implementations must be reflexive and symmetric, satisfy positive-edge
/// compatibility and negative-edge incompatibility (paper §2), and report a
/// distance for every compatible pair whenever one is defined by the
/// relation (see [`crate::distance`]).
pub trait Compatibility: Sync {
    /// The relation kind.
    fn kind(&self) -> CompatibilityKind;
    /// Number of users covered by the relation.
    fn node_count(&self) -> usize;
    /// `true` iff `(u, v)` is in the relation.
    fn compatible(&self, u: NodeId, v: NodeId) -> bool;
    /// The relation's distance between `u` and `v`, if defined.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32>;

    /// Convenience: `true` iff `u` is compatible with every member of `team`.
    fn compatible_with_all(&self, u: NodeId, team: &[NodeId]) -> bool {
        team.iter().all(|&x| self.compatible(u, x))
    }

    /// The bit-packed row for `u`, when the implementation can expose one —
    /// the hook behind the word-parallel candidate-masking fast path (see
    /// [`crate::team::CandidateMask`]). The handle says whether the single
    /// row is *exact* (its clear bits prove incompatibility) or a
    /// forward-direction lower bound (set bits remain sound; clear bits may
    /// still be compatible through the reverse direction — the asymmetric
    /// SBPH/SBP rows of a lazy store). The default (`None`) keeps scalar
    /// pair probes as the universal fallback.
    fn packed_row(&self, u: NodeId) -> Option<RowHandle<'_>> {
        let _ = u;
        None
    }
}

/// A fully materialised compatibility relation: one bit-packed
/// [`CompatRow`] per node, with the symmetric closure already applied.
///
/// Memory is `O(|V|²)` bits-plus-nibbles (~0.75 bytes per cell); intended for
/// the scaled dataset emulations and the experiment harness. Use
/// [`LazyCompatibility`] when only a few sources will ever be queried.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompatibilityMatrix {
    kind: CompatibilityKind,
    rows: Vec<CompatRow>,
}

impl CompatibilityMatrix {
    /// Builds the full relation sequentially with default tuning.
    pub fn build(graph: &SignedGraph, kind: CompatibilityKind) -> Self {
        Self::build_with_config(graph, kind, &EngineConfig::default())
    }

    /// Builds the full relation sequentially.
    pub fn build_with_config(
        graph: &SignedGraph,
        kind: CompatibilityKind,
        cfg: &EngineConfig,
    ) -> Self {
        Self::build_parallel(graph, kind, cfg, 1)
    }

    /// Builds the full relation using `threads` worker threads; workers
    /// claim the next batch of sources (SPA, SPO, NNE) or the next source
    /// (the other kinds) as they free up, so expensive SBP/SBPH rows balance
    /// across them.
    pub fn build_parallel(
        graph: &SignedGraph,
        kind: CompatibilityKind,
        cfg: &EngineConfig,
        threads: usize,
    ) -> Self {
        let csr = CsrGraph::from_graph(graph);
        CompatibilityMatrix {
            kind,
            rows: fill_rows(graph, &csr, kind, cfg, threads),
        }
    }

    /// Access to the per-source rows (e.g. for Table 2 statistics).
    pub fn rows(&self) -> &[CompatRow] {
        &self.rows
    }

    /// The fraction of *ordered* node pairs `(u, v)`, `u != v`, that are
    /// compatible. Because the relation is symmetric this equals the
    /// unordered-pair fraction reported in the paper's Table 2. One
    /// popcount pass over the row bitsets.
    pub fn compatible_pair_fraction(&self) -> f64 {
        let n = self.rows.len();
        if n < 2 {
            return 0.0;
        }
        let compatible: u64 = self
            .rows
            .iter()
            .enumerate()
            .map(|(u, row)| (row.compatible_count() - usize::from(row.is_compatible(u))) as u64)
            .sum();
        compatible as f64 / (n as u64 * (n as u64 - 1)) as f64
    }

    /// Mean relation distance over compatible pairs (excluding self-pairs and
    /// pairs with undefined distance).
    pub fn mean_compatible_distance(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut count = 0u64;
        for (u, row) in self.rows.iter().enumerate() {
            for v in row.iter_compatible() {
                if v != u {
                    if let Some(d) = row.distance(v) {
                        total += d as u64;
                        count += 1;
                    }
                }
            }
        }
        if count == 0 {
            None
        } else {
            Some(total as f64 / count as f64)
        }
    }
}

impl Compatibility for CompatibilityMatrix {
    fn kind(&self) -> CompatibilityKind {
        self.kind
    }

    fn node_count(&self) -> usize {
        self.rows.len()
    }

    fn compatible(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        self.rows
            .get(u.index())
            .map(|r| r.is_compatible(v.index()))
            .unwrap_or(false)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        self.rows.get(u.index()).and_then(|r| r.distance(v.index()))
    }

    fn packed_row(&self, u: NodeId) -> Option<RowHandle<'_>> {
        // Matrix rows carry the symmetric closure, so a single row is exact
        // for every kind, asymmetric heuristics included.
        self.rows
            .get(u.index())
            .map(|r| RowHandle::borrowed(r, true))
    }
}

/// Whether one per-source computation of `kind` already yields a symmetric
/// relation. The SP family, DPE and NNE are symmetric by construction; the
/// SBP search (when budget-limited) and the SBPH heuristic are per-source
/// approximations whose two directions can disagree, so consumers must take
/// the union of the two directions (the canonical symmetric closure used by
/// [`CompatibilityMatrix`] and [`LazyCompatibility`]).
pub fn per_source_symmetric(kind: CompatibilityKind) -> bool {
    !matches!(kind, CompatibilityKind::Sbp | CompatibilityKind::Sbph)
}

/// Symmetric closure of a full set of bit-packed per-source rows: a pair is
/// compatible if either direction found it, and its distance is the smaller
/// of the two directions' raw distances (the [`UNREACHABLE_DISTANCE`]
/// sentinel is `u16::MAX`, so a plain `min` implements the closure).
///
/// The SP family, DPE and NNE are symmetric per source already
/// ([`per_source_symmetric`]), so the `O(|V|²)` transpose pass only runs
/// for the asymmetric heuristics (SBPH and budget-limited SBP).
fn symmetrize_rows(kind: CompatibilityKind, rows: &mut [CompatRow]) {
    if per_source_symmetric(kind) {
        return;
    }
    let n = rows.len();
    for u in 0..n {
        for v in (u + 1)..n {
            let c = rows[u].is_compatible(v) || rows[v].is_compatible(u);
            let d = rows[u].raw_distance(v).min(rows[v].raw_distance(u));
            rows[u].set(v, c, d);
            rows[v].set(u, c, d);
        }
    }
}

/// Computes every source's row of `kind` with `threads` workers and applies
/// the symmetric closure — the fill behind both [`CompatibilityMatrix`] and
/// [`LazyCompatibility::filled`]. SPA, SPO and NNE rows come a batch of
/// sources at a time from one bit-parallel search ([`batch`]); the other
/// kinds run their per-source kernel ([`compute_row`]). Workers claim the
/// next batch (or source) and its run of output slots under one lock, so
/// expensive SBP/SBPH rows balance across them, and write each row straight
/// into its slot: no worker buffers rows for a stitch after the joins.
fn fill_rows(
    graph: &SignedGraph,
    csr: &CsrGraph,
    kind: CompatibilityKind,
    cfg: &EngineConfig,
    threads: usize,
) -> Vec<CompatRow> {
    let n = graph.node_count();
    let batched = batch::batched(kind);
    let step = if batched { batch::BATCH } else { 1 };
    let mut rows: Vec<Option<CompatRow>> = vec![None; n];
    let tasks = Mutex::new(rows.chunks_mut(step).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.div_ceil(step).max(1)) {
            scope.spawn(|| {
                let mut scratch = Vec::new();
                loop {
                    let Some((task, slots)) = tasks.lock().next() else {
                        break;
                    };
                    let first = task * step;
                    if batched {
                        let built = batch::fill_batch(graph, csr, kind, first, &mut scratch);
                        for (slot, row) in slots.iter_mut().zip(built) {
                            *slot = Some(row);
                        }
                    } else {
                        let source = NodeId::new(first);
                        slots[0] = Some(compute_row(graph, csr, source, kind, cfg));
                    }
                }
            });
        }
    });
    let mut rows: Vec<CompatRow> = rows
        .into_iter()
        .map(|r| r.expect("every source computed"))
        .collect();
    symmetrize_rows(kind, &mut rows);
    rows
}

/// Heap footprint of one cached [`CompatRow`], in bytes. This is what the
/// row store's memory budget accounts in: 2 bits per node for the
/// compatible set and the mixed flags, the lane (half a byte per node at
/// 4-bit codes, a byte at 8-bit), and 8 bytes per side-table entry
/// (distances past the lane's inline range), against the 9 bytes per node
/// of the unpacked [`SourceCompatibility`] — ~12× more resident rows for
/// the same budget.
pub fn row_bytes(row: &CompatRow) -> usize {
    std::mem::size_of::<CompatRow>()
        + 2 * std::mem::size_of_val(row.words())
        + row.lane_bytes()
        + row.side_table_len() * std::mem::size_of::<row::SideEntry>()
}

/// Estimated footprint of one bit-packed row over a graph with `nodes`
/// users, before computing it (used by budget policies to choose a serving
/// tier). Every kind has this one size: it equals [`row_bytes`] exactly for
/// a row of 4-bit codes with no side-table entries (the row constructors
/// allocate exact-capacity vectors), which is every row whose distances
/// stay within 13 — every DPE, SP-family and NNE row of the benchmark
/// deployments. A row that
/// packs 8-bit codes or holds side entries is larger, and the store
/// accounts it at its real size.
pub fn estimated_row_bytes(nodes: usize) -> usize {
    std::mem::size_of::<CompatRow>()
        + 2 * bitset_words(nodes) * std::mem::size_of::<u64>()
        + nodes.div_ceil(2)
}

/// Estimated footprint of a fully materialised [`CompatibilityMatrix`] over
/// a graph with `nodes` users: `O(|V|²)` and still quickly infeasible —
/// ~1.75 GiB at 50k nodes, ~12.2 GiB for the full 132k-node Epinions
/// network (the pre-bit-packing layout needed ~21 GiB and ~146 GiB
/// respectively).
pub fn estimated_matrix_bytes(nodes: usize) -> usize {
    nodes.saturating_mul(estimated_row_bytes(nodes))
}

/// How a mutation of one edge `(u, v)` invalidates the resident rows of a
/// relation kind — the rule set behind the serving engine's incremental
/// graph updates (documented per kind in `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationScope {
    /// Only the endpoint rows can change. DPE depends solely on the
    /// source's direct adjacency, so a mutation of `(u, v)` touches exactly
    /// rows `u` and `v`.
    Endpoints,
    /// Rows whose BFS frontier can cross the touched edge: sources that
    /// reach `u` or `v`. The SP family's and NNE's row distance arrays
    /// record the BFS level of *every* reachable node (compatible or not),
    /// so reachability is read straight off the resident row — a source in
    /// a different component keeps its row verbatim. Sound for inserts too:
    /// a new edge `(u, v)` only creates paths from sources that already
    /// reached `u` or `v`.
    Frontier,
    /// No per-row bound is sound: SBPH retains a bounded set of path
    /// prefixes and budget-limited SBP truncates its search, so a remote
    /// edge change can flip which prefixes/paths were explored. The whole
    /// kind is invalidated (epoch bump; rows recompute on next fetch).
    WholeKind,
}

impl InvalidationScope {
    /// The invalidation rule for `kind`.
    pub fn of(kind: CompatibilityKind) -> Self {
        match kind {
            CompatibilityKind::Dpe => InvalidationScope::Endpoints,
            CompatibilityKind::Spa
            | CompatibilityKind::Spm
            | CompatibilityKind::Spo
            | CompatibilityKind::Nne => InvalidationScope::Frontier,
            CompatibilityKind::Sbph | CompatibilityKind::Sbp => InvalidationScope::WholeKind,
        }
    }
}

/// `true` when a mutation of edge `(u, v)` can change the content of `row`
/// (computed on the pre-mutation graph) — the per-row invalidation
/// predicate. `false` is a proof: recomputing the row on the mutated graph
/// would reproduce it bit-for-bit, so it stays resident.
pub fn row_affected_by_edge(row: &CompatRow, u: NodeId, v: NodeId) -> bool {
    let source = row.source().index();
    if source == u.index() || source == v.index() {
        return true;
    }
    match InvalidationScope::of(row.kind()) {
        InvalidationScope::Endpoints => false,
        InvalidationScope::WholeKind => true,
        InvalidationScope::Frontier => {
            row.raw_distance(u.index()) != UNREACHABLE_DISTANCE
                || row.raw_distance(v.index()) != UNREACHABLE_DISTANCE
        }
    }
}

/// Per-slot state of the row store: either nothing, a claimed in-flight
/// computation other callers can wait on, or a resident row.
enum Slot {
    Empty,
    /// The slot is claimed: exactly one thread runs the per-source
    /// computation inside the `OnceLock`; concurrent callers for the same
    /// row block on it instead of computing a duplicate.
    Building(Arc<OnceLock<Arc<CompatRow>>>),
    Ready {
        row: Arc<CompatRow>,
        bytes: usize,
        tick: u64,
    },
}

/// Slots plus LRU bookkeeping, all behind one short-hold mutex. The mutex
/// only guards pointer-sized bookkeeping — row computations run outside it.
struct RowCacheState {
    slots: Vec<Slot>,
    /// `tick -> source` ordered oldest-first; ticks are unique, so this is
    /// an exact LRU queue with `O(log n)` touch and evict.
    lru: BTreeMap<u64, usize>,
    next_tick: u64,
    resident_bytes: usize,
    /// Slots holding a resident row; the store is *full* when this equals
    /// its node count.
    resident: usize,
    /// The resident rows carry the symmetric closure. Set by
    /// [`LazyCompatibility::filled`] for SBPH and SBP, and cleared by any
    /// sweep that drops a row: rows computed later are per-source lower
    /// bounds again.
    closed: bool,
    /// Mutation epoch: bumped by [`LazyCompatibility::apply_mutations`]. A
    /// row computation that straddles a bump must not be retained — its
    /// content may describe the pre-mutation graph — so builders record the
    /// epoch they claimed under and publish only if it still matches.
    epoch: u64,
}

/// Every row of a full store as one immutable snapshot: published when the
/// last empty slot fills (or by a fill, or a sweep that drops nothing) and
/// withdrawn when any slot empties. A query pins it once
/// ([`RowTracker::new`]) and then indexes it with no lock and no refcount
/// per row.
#[derive(Clone)]
struct RowTable {
    rows: Arc<[Arc<CompatRow>]>,
    /// One row answers a pair on its own: the kind is per-source symmetric
    /// or the rows carry the symmetric closure.
    exact: bool,
}

impl RowTable {
    /// The table of a full store.
    fn of(st: &RowCacheState, kind: CompatibilityKind) -> Self {
        let rows = st
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Ready { row, .. } => row.clone(),
                _ => unreachable!("a full store has a resident row in every slot"),
            })
            .collect();
        RowTable {
            rows,
            exact: st.closed || per_source_symmetric(kind),
        }
    }
}

/// The (graph, CSR) pair rows are computed from, swapped atomically (one
/// lock) by [`LazyCompatibility::apply_mutations`] so no row computation can
/// ever pair a new graph with a stale CSR view or vice versa.
struct GraphView {
    graph: Arc<SignedGraph>,
    csr: Arc<CsrGraph>,
}

/// The result of fetching one row from [`LazyCompatibility`]: the row, plus
/// whether *this call* performed the computation (exactly one caller per
/// cache fill sees `built == true`) and how long that computation took.
#[derive(Debug, Clone)]
pub struct RowFetch {
    /// The per-source row, in the bit-packed resident layout.
    pub row: Arc<CompatRow>,
    /// `true` iff this call ran the per-source computation. Concurrent
    /// callers that blocked on the same fill see `false`.
    pub built: bool,
    /// Time spent computing the row, in microseconds (0 unless `built`).
    pub build_micros: u64,
    /// Time spent blocked on *another* caller's in-flight computation of
    /// this row, in microseconds (0 when `built`, and 0 on a resident hit).
    /// Serving layers book this as build-wait rather than solver time.
    pub wait_micros: u64,
}

/// What one [`LazyCompatibility::apply_mutations`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// Resident rows dropped; they recompute on next fetch.
    pub invalidated: usize,
    /// Resident rows the repair pass kept (proved unchanged or patched in
    /// place) that the coarse [`row_affected_by_edge`] predicate alone
    /// would have dropped.
    pub repaired: usize,
    /// The store was full before the sweep and is not after it, so its row
    /// table was withdrawn.
    pub table_withdrawn: bool,
}

/// A memory-budgeted relation served one per-source row at a time: rows are
/// computed on first use (or all at once by [`Self::filled`]), cached up to
/// an optional byte budget, and evicted LRU-first when the budget is
/// exceeded.
///
/// This is the one serving store for every deployment. On graphs where the
/// `O(|V|²)` relation is infeasible (full-size Epinions/Wikipedia) team
/// formation touches only the users holding the task's skills, so only
/// that working set is resident; on small graphs a fill makes every row
/// resident up front. The store is owned (`Arc<SignedGraph>`) and `Sync`,
/// so a serving engine can share it across query threads.
///
/// Guarantees:
///
/// * **Exactly-once rows** — concurrent misses on one row claim the slot
///   and block on a single computation; no duplicate work is discarded.
/// * **Budget invariant** — `resident_bytes() <= budget` whenever no call
///   is in flight and no fill has run since the last sweep or build; a row
///   larger than the whole budget is computed, served, and immediately
///   dropped rather than retained.
/// * **Symmetric closure** — for the asymmetric heuristic kinds (SBPH and
///   budget-limited SBP) a pair is compatible if either direction's row
///   says so, matching [`CompatibilityMatrix`]'s closure exactly. Filled
///   rows carry the closure themselves until a sweep drops one of them.
/// * **Full-store snapshots** — while every row is resident the store
///   publishes them as one immutable table, and a [`RowTracker`] created
///   then reads all its rows from it: one snapshot per query, no locks.
pub struct LazyCompatibility {
    view: RwLock<GraphView>,
    /// Node count, fixed for the store's lifetime (edge mutations never
    /// grow or shrink the node set).
    nodes: usize,
    kind: CompatibilityKind,
    cfg: EngineConfig,
    budget_bytes: Option<usize>,
    state: Mutex<RowCacheState>,
    /// `Some` exactly while the store is full (updated under `state`).
    table: RwLock<Option<RowTable>>,
    builds: AtomicUsize,
    evictions: AtomicUsize,
}

impl LazyCompatibility {
    /// Creates an unbounded row store over `graph` for relation `kind`.
    pub fn new(graph: Arc<SignedGraph>, kind: CompatibilityKind, cfg: EngineConfig) -> Self {
        Self::with_budget(graph, kind, cfg, None)
    }

    /// Creates a row store whose resident rows are capped at `budget_bytes`
    /// (`None` = unbounded). The cap counts row payloads via [`row_bytes`].
    pub fn with_budget(
        graph: Arc<SignedGraph>,
        kind: CompatibilityKind,
        cfg: EngineConfig,
        budget_bytes: Option<usize>,
    ) -> Self {
        let csr = Arc::new(CsrGraph::from_graph(&graph));
        Self::with_shared_csr(graph, csr, kind, cfg, budget_bytes)
    }

    /// Like [`Self::with_budget`], reusing an existing CSR view of `graph`.
    /// A store per relation kind over one graph should share one CSR — it is
    /// `O(|V| + |E|)` and identical for every kind.
    pub fn with_shared_csr(
        graph: Arc<SignedGraph>,
        csr: Arc<CsrGraph>,
        kind: CompatibilityKind,
        cfg: EngineConfig,
        budget_bytes: Option<usize>,
    ) -> Self {
        let n = graph.node_count();
        LazyCompatibility {
            view: RwLock::new(GraphView { graph, csr }),
            nodes: n,
            kind,
            cfg,
            budget_bytes,
            state: Mutex::new(RowCacheState {
                slots: (0..n).map(|_| Slot::Empty).collect(),
                lru: BTreeMap::new(),
                next_tick: 0,
                resident_bytes: 0,
                resident: 0,
                closed: false,
                epoch: 0,
            }),
            table: RwLock::new(None),
            builds: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Fills every row of a fresh store with `threads` workers — what the
    /// `matrix` serving preset does at a kind's first fetch. The rows are
    /// computed over the store's CSR, closed under symmetry (the SBPH/SBP
    /// rows become exact), moved into their slots and published as the row
    /// table. A fill counts as no row build, and it fills past the budget;
    /// the next sweep or build enforces it.
    pub fn filled(mut self, threads: usize) -> Self {
        let view = self.view.get_mut();
        let rows = fill_rows(&view.graph, &view.csr, self.kind, &self.cfg, threads);
        let bounded = self.budget_bytes.is_some();
        let st = self.state.get_mut();
        debug_assert_eq!(st.resident, 0, "only a fresh store is filled");
        for (source, row) in rows.into_iter().enumerate() {
            let bytes = row_bytes(&row);
            st.next_tick += 1;
            let tick = st.next_tick;
            st.slots[source] = Slot::Ready {
                row: Arc::new(row),
                bytes,
                tick,
            };
            st.resident_bytes += bytes;
            if bounded {
                st.lru.insert(tick, source);
            }
        }
        st.resident = self.nodes;
        st.closed = !per_source_symmetric(self.kind);
        *self.table.get_mut() = Some(RowTable::of(st, self.kind));
        self
    }

    /// The graph the relation is currently defined over (a snapshot — live
    /// mutations swap the store's view via [`Self::apply_mutations`]).
    pub fn graph(&self) -> Arc<SignedGraph> {
        self.view.read().graph.clone()
    }

    /// The configured resident-byte budget (`None` = unbounded).
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Returns (computing if necessary) the row for `source`.
    pub fn source(&self, source: NodeId) -> Arc<CompatRow> {
        self.source_tracked(source).row
    }

    /// Like [`Self::source`], reporting whether this call performed the
    /// computation — the hook serving layers use to attribute cache misses
    /// to the caller that actually built (not every caller that raced).
    pub fn source_tracked(&self, source: NodeId) -> RowFetch {
        let bounded = self.budget_bytes.is_some();
        let (cell, claim_epoch) = {
            let mut st = self.state.lock();
            st.next_tick += 1;
            let tick = st.next_tick;
            let epoch = st.epoch;
            match &mut st.slots[source.index()] {
                Slot::Ready { row, tick: t, .. } => {
                    let row = row.clone();
                    // LRU order only matters when eviction can happen;
                    // unbounded stores skip the BTreeMap churn on the hot
                    // resident path.
                    if bounded {
                        let old = *t;
                        *t = tick;
                        st.lru.remove(&old);
                        st.lru.insert(tick, source.index());
                    }
                    return RowFetch {
                        row,
                        built: false,
                        build_micros: 0,
                        wait_micros: 0,
                    };
                }
                Slot::Building(cell) => (cell.clone(), epoch),
                slot @ Slot::Empty => {
                    let cell = Arc::new(OnceLock::new());
                    *slot = Slot::Building(cell.clone());
                    (cell, epoch)
                }
            }
        };
        let mut built = false;
        let mut build_micros = 0u64;
        let entered = Instant::now();
        let row = cell
            .get_or_init(|| {
                let start = Instant::now();
                // One lock read clones the (graph, CSR) snapshot; the
                // computation runs outside every lock.
                let (graph, csr) = {
                    let view = self.view.read();
                    (view.graph.clone(), view.csr.clone())
                };
                let row = Arc::new(compute_row(&graph, &csr, source, self.kind, &self.cfg));
                build_micros = start.elapsed().as_micros() as u64;
                built = true;
                self.builds.fetch_add(1, Ordering::Relaxed);
                row
            })
            .clone();
        // When this call did not run the computation, the time spent inside
        // `get_or_init` was a block on another caller's in-flight build.
        let wait_micros = if built {
            0
        } else {
            entered.elapsed().as_micros() as u64
        };
        if built {
            // Only the builder publishes the slot and enforces the budget;
            // waiters already share the row through the cell.
            let bytes = row_bytes(&row);
            let mut st = self.state.lock();
            if st.epoch != claim_epoch {
                // A mutation landed while this row was in flight: the slot
                // has been reset (and possibly re-claimed for the new
                // graph), and this row may describe the old one. Serve it
                // to the caller — the query raced the mutation and is
                // ordered before it — but do not retain it.
                return RowFetch {
                    row,
                    built,
                    build_micros,
                    wait_micros,
                };
            }
            st.next_tick += 1;
            let tick = st.next_tick;
            st.slots[source.index()] = Slot::Ready {
                row: row.clone(),
                bytes,
                tick,
            };
            st.resident_bytes += bytes;
            st.resident += 1;
            if bounded {
                st.lru.insert(tick, source.index());
            }
            self.enforce_budget(&mut st);
            if st.resident == self.nodes {
                // The last empty slot filled.
                *self.table.write() = Some(RowTable::of(&st, self.kind));
            }
        }
        RowFetch {
            row,
            built,
            build_micros,
            wait_micros,
        }
    }

    /// Evicts LRU-first until the resident bytes fit the budget. Caller
    /// holds the state lock and keeps the row table in step.
    fn enforce_budget(&self, st: &mut RowCacheState) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while st.resident_bytes > budget {
            let Some((&oldest, &victim)) = st.lru.iter().next() else {
                break;
            };
            st.lru.remove(&oldest);
            if let Slot::Ready { bytes, .. } = &st.slots[victim] {
                st.resident_bytes -= *bytes;
                st.resident -= 1;
                st.slots[victim] = Slot::Empty;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Applies a batch of edge mutations in one sweep: swaps the (graph,
    /// CSR) view once, bumps the mutation epoch once, and walks resident
    /// rows exactly once. Rows no effect can touch stay resident verbatim;
    /// affected rows are handed to [`repair::repair_row`] (one
    /// [`repair::RepairScratch`] serves the whole sweep), which either
    /// proves them unchanged, patches them in place (the repaired row is
    /// republished under the same LRU tick, re-accounted if its side table
    /// changed size, and the budget re-enforced after the sweep), or
    /// demands a scratch recompute, in which case the slot is dropped.
    ///
    /// A full store whose sweep drops nothing republishes its row table
    /// with the repaired rows; one that drops a row (here or to the budget)
    /// withdraws it and loses the symmetric closure of a fill.
    ///
    /// Soundness of the per-row skip: if every effect in the batch leaves a
    /// row unaffected under the *pre-batch* lane, no composition of the
    /// effects can change it — an effect can only extend reachability if
    /// one of its endpoints is already reachable, which the predicate
    /// reports as affected. Affected rows see the *full* effect list, so
    /// cross-effect interactions are resolved inside `repair_row`.
    pub fn apply_mutations(
        &self,
        graph: Arc<SignedGraph>,
        csr: Arc<CsrGraph>,
        effects: &[MutationEffect],
    ) -> Sweep {
        debug_assert_eq!(graph.node_count(), self.nodes);
        let repair_csr = Arc::clone(&csr);
        *self.view.write() = GraphView { graph, csr };
        let mut st = self.state.lock();
        let was_full = st.resident == self.nodes;
        st.epoch += 1;
        let mut invalidated = 0;
        let mut repaired = 0;
        let mut scratch = repair::RepairScratch::default();
        for idx in 0..st.slots.len() {
            match std::mem::replace(&mut st.slots[idx], Slot::Empty) {
                Slot::Empty => {}
                // In-flight claims are dropped: their builder will see the
                // epoch bump and skip publication; the next fetch re-claims
                // against the new view.
                Slot::Building(_) => {}
                Slot::Ready { row, bytes, tick } => {
                    let affected = effects
                        .iter()
                        .any(|e| e.changed() && row_affected_by_edge(&row, e.u, e.v));
                    if !affected {
                        st.slots[idx] = Slot::Ready { row, bytes, tick };
                        continue;
                    }
                    match repair::repair_row(&row, effects, &repair_csr, &mut scratch) {
                        repair::RepairOutcome::Unchanged => {
                            st.slots[idx] = Slot::Ready { row, bytes, tick };
                            repaired += 1;
                        }
                        repair::RepairOutcome::Repaired(patched) => {
                            let patched_bytes = row_bytes(&patched);
                            st.resident_bytes = st.resident_bytes - bytes + patched_bytes;
                            st.slots[idx] = Slot::Ready {
                                row: Arc::new(patched),
                                bytes: patched_bytes,
                                tick,
                            };
                            repaired += 1;
                        }
                        repair::RepairOutcome::MustRecompute => {
                            st.resident_bytes -= bytes;
                            st.resident -= 1;
                            st.lru.remove(&tick);
                            invalidated += 1;
                        }
                    }
                }
            }
        }
        // A repaired row whose side table grew, or a fill past the budget,
        // can leave the store over its budget.
        self.enforce_budget(&mut st);
        let full = st.resident == self.nodes;
        if full {
            *self.table.write() = Some(RowTable::of(&st, self.kind));
        } else {
            st.closed = false;
            if was_full {
                *self.table.write() = None;
            }
        }
        Sweep {
            invalidated,
            repaired,
            table_withdrawn: was_full && !full,
        }
    }

    /// Number of resident rows (for diagnostics and tests).
    pub fn cached_rows(&self) -> usize {
        self.state.lock().resident
    }

    /// Bytes currently held by resident rows.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().resident_bytes
    }

    /// Total per-source computations performed (recomputations after
    /// eviction included; a fill counts none). Without eviction this equals
    /// the number of distinct sources ever fetched — the exactly-once test
    /// hook.
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Rows evicted to stay within the budget.
    pub fn eviction_count(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LazyCompatibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyCompatibility")
            .field("kind", &self.kind)
            .field("nodes", &self.nodes)
            .field("budget_bytes", &self.budget_bytes)
            .field("resident_bytes", &self.resident_bytes())
            .field("builds", &self.build_count())
            .field("evictions", &self.eviction_count())
            .finish()
    }
}

/// Pair compatibility through a row-fetch closure: a bit probe on the
/// forward row first, then — unless one row is `exact` — the symmetric
/// closure via the reverse row, matching [`CompatibilityMatrix`].
fn pair_compatible<R, F>(exact: bool, mut fetch: F, u: NodeId, v: NodeId) -> bool
where
    R: std::ops::Deref<Target = CompatRow>,
    F: FnMut(NodeId) -> R,
{
    if u == v {
        return true;
    }
    let forward = fetch(u).is_compatible(v.index());
    if forward || exact {
        return forward;
    }
    fetch(v).is_compatible(u.index())
}

/// Pair distance through a row-fetch closure (minimum over both directions
/// unless one row is `exact`, as in [`CompatibilityMatrix`]'s closure — the
/// sentinel is `u16::MAX`, so the raw-distance `min` is the closure).
fn pair_distance<R, F>(exact: bool, mut fetch: F, u: NodeId, v: NodeId) -> Option<u32>
where
    R: std::ops::Deref<Target = CompatRow>,
    F: FnMut(NodeId) -> R,
{
    if u == v {
        return Some(0);
    }
    if exact {
        return fetch(u).distance(v.index());
    }
    let raw = fetch(u)
        .raw_distance(v.index())
        .min(fetch(v).raw_distance(u.index()));
    (raw != UNREACHABLE_DISTANCE).then_some(u32::from(raw))
}

impl Compatibility for LazyCompatibility {
    fn kind(&self) -> CompatibilityKind {
        self.kind
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn compatible(&self, u: NodeId, v: NodeId) -> bool {
        pair_compatible(per_source_symmetric(self.kind), |s| self.source(s), u, v)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        pair_distance(per_source_symmetric(self.kind), |s| self.source(s), u, v)
    }

    fn packed_row(&self, u: NodeId) -> Option<RowHandle<'_>> {
        // A single lazily computed row is the whole relation restricted to
        // its source only for the per-source-symmetric kinds; an SBPH/SBP
        // row is a forward-direction lower bound (clear bits may still be
        // compatible through the reverse row).
        (u.index() < self.node_count())
            .then(|| RowHandle::shared(self.source(u), per_source_symmetric(self.kind)))
    }
}

/// One memo entry of a [`RowTracker`]: a recently fetched row and its source.
type MemoSlot = Option<(NodeId, Arc<CompatRow>)>;

/// A per-query view over a shared [`LazyCompatibility`] that counts only the
/// row computations *this* view performed. Serving layers wrap each query in
/// one tracker so hit/miss accounting stays exact under concurrency: when N
/// queries race on a cold row, exactly one tracker records the build.
///
/// A tracker created while the store is full pins its row table and reads
/// every row from that one snapshot, as a matrix lookup would. Otherwise it
/// fetches through the store's lock and keeps a tiny private memo of the
/// rows it fetched last: solvers probe the same source against many targets
/// back to back, and the memo answers those repeats without touching the
/// shared store's lock (or, under a tight budget, re-triggering an evicted
/// row's recomputation mid-query).
pub struct RowTracker<'a> {
    rows: &'a LazyCompatibility,
    /// The pinned rows of a full store.
    table: Option<Arc<[Arc<CompatRow>]>>,
    /// One row answers a pair on its own.
    exact: bool,
    built: AtomicUsize,
    build_micros: AtomicU64,
    wait_micros: AtomicU64,
    memo: Mutex<[MemoSlot; 2]>,
}

impl<'a> RowTracker<'a> {
    /// Creates a tracker over `rows` with zeroed counters, pinning the
    /// store's row table if it is full.
    pub fn new(rows: &'a LazyCompatibility) -> Self {
        let (table, exact) = match rows.table.read().clone() {
            Some(table) => (Some(table.rows), table.exact),
            None => (None, per_source_symmetric(rows.kind)),
        };
        RowTracker {
            rows,
            table,
            exact,
            built: AtomicUsize::new(0),
            build_micros: AtomicU64::new(0),
            wait_micros: AtomicU64::new(0),
            memo: Mutex::new([None, None]),
        }
    }

    /// The tracker as the compatibility oracle to solve against.
    pub fn compat(&self) -> &dyn Compatibility {
        self
    }

    /// Row computations performed through this tracker.
    pub fn rows_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Time this tracker spent computing rows, in microseconds.
    pub fn build_micros(&self) -> u64 {
        self.build_micros.load(Ordering::Relaxed)
    }

    /// Time this tracker spent blocked on *other* callers' in-flight row
    /// computations, in microseconds.
    pub fn wait_micros(&self) -> u64 {
        self.wait_micros.load(Ordering::Relaxed)
    }

    fn fetch(&self, source: NodeId) -> Arc<CompatRow> {
        {
            let mut memo = self.memo.lock();
            if let Some((s, row)) = &memo[0] {
                if *s == source {
                    return row.clone();
                }
            }
            if let Some((s, _)) = &memo[1] {
                if *s == source {
                    memo.swap(0, 1);
                    return memo[0].as_ref().expect("just swapped in").1.clone();
                }
            }
        }
        let fetch = self.rows.source_tracked(source);
        if fetch.built {
            self.built.fetch_add(1, Ordering::Relaxed);
            self.build_micros
                .fetch_add(fetch.build_micros, Ordering::Relaxed);
        } else if fetch.wait_micros != 0 {
            self.wait_micros
                .fetch_add(fetch.wait_micros, Ordering::Relaxed);
        }
        let mut memo = self.memo.lock();
        memo.swap(0, 1);
        memo[0] = Some((source, fetch.row.clone()));
        fetch.row
    }
}

impl Compatibility for RowTracker<'_> {
    fn kind(&self) -> CompatibilityKind {
        self.rows.kind
    }

    fn node_count(&self) -> usize {
        self.rows.nodes
    }

    fn compatible(&self, u: NodeId, v: NodeId) -> bool {
        match &self.table {
            Some(table) => pair_compatible(self.exact, |s| &*table[s.index()], u, v),
            None => pair_compatible(self.exact, |s| self.fetch(s), u, v),
        }
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        match &self.table {
            Some(table) => pair_distance(self.exact, |s| &*table[s.index()], u, v),
            None => pair_distance(self.exact, |s| self.fetch(s), u, v),
        }
    }

    fn packed_row(&self, u: NodeId) -> Option<RowHandle<'_>> {
        match &self.table {
            Some(table) => table
                .get(u.index())
                .map(|row| RowHandle::borrowed(row, self.exact)),
            None => (u.index() < self.node_count())
                .then(|| RowHandle::shared(self.fetch(u), self.exact)),
        }
    }
}

/// A relation restricted to "always compatible, distance = unsigned shortest
/// path" — the classic unsigned team-formation setting. Used by the Table 3
/// baseline so that the same greedy machinery can run on unsigned graphs.
#[derive(Debug, Clone)]
pub struct UnsignedCompatibility {
    node_count: usize,
    distances: Vec<Vec<Option<u32>>>,
}

impl UnsignedCompatibility {
    /// Precomputes all-pairs unsigned BFS distances over `graph`.
    pub fn build(graph: &SignedGraph) -> Self {
        let distances = graph
            .nodes()
            .map(|v| distance::unsigned_distances(graph, v))
            .collect();
        UnsignedCompatibility {
            node_count: graph.node_count(),
            distances,
        }
    }
}

impl Compatibility for UnsignedCompatibility {
    fn kind(&self) -> CompatibilityKind {
        // The closest analogue: every pair is "compatible"; distances ignore
        // signs, as in NNE.
        CompatibilityKind::Nne
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn compatible(&self, _u: NodeId, _v: NodeId) -> bool {
        true
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        self.distances
            .get(u.index())
            .and_then(|row| row.get(v.index()).copied().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::Sign;

    fn paper_figure_1a() -> SignedGraph {
        // u=0, x1=1, x2=2, x3=3, x4=4, v=5 (see balance.rs tests).
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
    fn kind_labels_round_trip() {
        for kind in CompatibilityKind::ALL {
            assert_eq!(CompatibilityKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(
            CompatibilityKind::parse("spa"),
            Some(CompatibilityKind::Spa)
        );
        assert_eq!(CompatibilityKind::parse("bogus"), None);
        assert_eq!(CompatibilityKind::EVALUATED.len(), 5);
    }

    #[test]
    fn matrix_is_reflexive_and_symmetric() {
        let g = paper_figure_1a();
        for kind in CompatibilityKind::ALL {
            let m = CompatibilityMatrix::build(&g, kind);
            for u in g.nodes() {
                assert!(m.compatible(u, u), "{kind}: reflexivity violated at {u}");
                assert_eq!(m.distance(u, u), Some(0));
                for v in g.nodes() {
                    assert_eq!(
                        m.compatible(u, v),
                        m.compatible(v, u),
                        "{kind}: symmetry violated at ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_satisfies_edge_axioms() {
        let g = paper_figure_1a();
        for kind in CompatibilityKind::ALL {
            let m = CompatibilityMatrix::build(&g, kind);
            for e in g.edges() {
                match e.sign {
                    Sign::Positive => assert!(
                        m.compatible(e.u, e.v),
                        "{kind}: positive edge ({}, {}) must be compatible",
                        e.u,
                        e.v
                    ),
                    Sign::Negative => assert!(
                        !m.compatible(e.u, e.v),
                        "{kind}: negative edge ({}, {}) must be incompatible",
                        e.u,
                        e.v
                    ),
                }
            }
        }
    }

    #[test]
    fn figure_1a_sbp_but_not_sp() {
        let g = paper_figure_1a();
        let (u, v) = (NodeId::new(0), NodeId::new(5));
        let spo = CompatibilityMatrix::build(&g, CompatibilityKind::Spo);
        let sbp = CompatibilityMatrix::build(&g, CompatibilityKind::Sbp);
        // The only shortest path (u,x1,v) is negative → not even SPO.
        assert!(!spo.compatible(u, v));
        // But the positive structurally balanced path (u,x2,x3,x4,v) exists.
        assert!(sbp.compatible(u, v));
        assert_eq!(sbp.distance(u, v), Some(4));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = signed_graph::generators::social_network(
            &signed_graph::generators::SocialNetworkConfig {
                nodes: 120,
                edges: 400,
                negative_fraction: 0.2,
                seed: 5,
                ..Default::default()
            },
        );
        let cfg = EngineConfig::default();
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spo,
            CompatibilityKind::Sbph,
        ] {
            let seq = CompatibilityMatrix::build_with_config(&g, kind, &cfg);
            let par = CompatibilityMatrix::build_parallel(&g, kind, &cfg, 4);
            assert_eq!(
                seq.rows(),
                par.rows(),
                "{kind}: parallel and sequential differ"
            );
        }
    }

    #[test]
    fn fills_of_empty_and_single_node_graphs() {
        let cfg = EngineConfig::default();
        for nodes in [0, 1] {
            let g = signed_graph::GraphBuilder::with_nodes(nodes).build();
            for kind in CompatibilityKind::ALL {
                let m = CompatibilityMatrix::build_parallel(&g, kind, &cfg, 2);
                assert_eq!(m.rows().len(), nodes, "{kind}");
                if let Some(row) = m.rows().first() {
                    assert!(row.is_compatible(0), "{kind}");
                    assert_eq!(row.distance(0), Some(0), "{kind}");
                }
            }
        }
    }

    #[test]
    fn lazy_matches_matrix_and_caches() {
        let g = paper_figure_1a();
        let kind = CompatibilityKind::Spm;
        let lazy = LazyCompatibility::new(Arc::new(g.clone()), kind, EngineConfig::default());
        let matrix = CompatibilityMatrix::build(&g, kind);
        assert_eq!(lazy.cached_rows(), 0);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(lazy.compatible(u, v), matrix.compatible(u, v));
                assert_eq!(lazy.distance(u, v), matrix.distance(u, v));
            }
        }
        assert_eq!(lazy.cached_rows(), g.node_count());
        assert_eq!(lazy.build_count(), g.node_count());
        assert_eq!(lazy.eviction_count(), 0);
        assert_eq!(lazy.kind(), kind);
        assert_eq!(lazy.node_count(), g.node_count());
    }

    #[test]
    fn filled_store_serves_the_matrix_from_its_row_table() {
        let g = signed_graph::generators::social_network(
            &signed_graph::generators::SocialNetworkConfig {
                nodes: 60,
                edges: 200,
                negative_fraction: 0.3,
                seed: 9,
                ..Default::default()
            },
        );
        let cfg = EngineConfig::default();
        // SBP shares SBPH's closure path and is too slow for a unit test.
        for kind in CompatibilityKind::ALL
            .into_iter()
            .filter(|&k| k != CompatibilityKind::Sbp)
        {
            let matrix = CompatibilityMatrix::build_with_config(&g, kind, &cfg);
            let filled = LazyCompatibility::new(Arc::new(g.clone()), kind, cfg.clone()).filled(3);
            assert_eq!(filled.build_count(), 0, "{kind}: a fill is no row build");
            assert_eq!(filled.cached_rows(), g.node_count());
            let tracker = RowTracker::new(&filled);
            let mut closed_rows = 0;
            for u in g.nodes() {
                let handle = tracker.packed_row(u).expect("in range");
                assert!(handle.exact(), "{kind}: filled rows are exact");
                assert_eq!(handle.row(), &matrix.rows()[u.index()], "{kind} row {u}");
                closed_rows += usize::from(
                    *handle.row() != compute_row(&g, &CsrGraph::from_graph(&g), u, kind, &cfg),
                );
                for v in g.nodes() {
                    assert_eq!(tracker.compatible(u, v), matrix.compatible(u, v));
                    assert_eq!(tracker.distance(u, v), matrix.distance(u, v));
                }
            }
            assert_eq!(tracker.rows_built(), 0);
            if kind == CompatibilityKind::Sbph {
                assert!(closed_rows > 0, "the fixture must exercise the closure");
            }
        }
    }

    #[test]
    fn full_store_serves_each_query_one_snapshot() {
        use signed_graph::EdgeMutation;
        let g = ring_graph(12);
        let n = g.node_count();
        let kind = CompatibilityKind::Sbph;
        let filled =
            LazyCompatibility::new(Arc::new(g.clone()), kind, EngineConfig::default()).filled(2);
        let pinned = RowTracker::new(&filled);
        let before: Vec<CompatRow> = g
            .nodes()
            .map(|u| pinned.packed_row(u).expect("in range").row().clone())
            .collect();
        let mut mutated = g.clone();
        let flip = mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Positive,
            })
            .unwrap();
        let mutated = Arc::new(mutated);
        let csr = Arc::new(CsrGraph::from_graph(&mutated));
        let sweep = filled.apply_mutations(mutated.clone(), csr.clone(), &[flip]);
        assert_eq!((sweep.invalidated, sweep.table_withdrawn), (n, true));
        // A query that pinned the table before the sweep keeps reading it.
        for u in g.nodes() {
            let handle = pinned.packed_row(u).expect("in range");
            assert!(handle.exact());
            assert_eq!(*handle.row(), before[u.index()]);
        }
        // A later query reads recomputed rows: per-source lower bounds.
        let fresh = RowTracker::new(&filled);
        let handle = fresh.packed_row(NodeId::new(0)).expect("in range");
        assert!(!handle.exact(), "the sweep cleared the fill's closure");
        let cfg = EngineConfig::default();
        assert_eq!(
            *handle.row(),
            compute_row(&mutated, &csr, NodeId::new(0), kind, &cfg)
        );
        for u in mutated.nodes() {
            fresh.packed_row(u);
        }
        assert_eq!(fresh.rows_built(), n);
        // The last row to fill republished the table, still without the
        // closure: pair probes take it through the reverse row.
        let reference = CompatibilityMatrix::build(&mutated, kind);
        let warm = RowTracker::new(&filled);
        assert!(!warm.packed_row(NodeId::new(0)).expect("in range").exact());
        for u in mutated.nodes() {
            for v in mutated.nodes() {
                assert_eq!(
                    warm.compatible(u, v),
                    reference.compatible(u, v),
                    "({u},{v})"
                );
                assert_eq!(warm.distance(u, v), reference.distance(u, v), "({u},{v})");
            }
        }
        assert_eq!(warm.rows_built(), 0);
        // ... and `warm` pinned it: a second sweep does not reach it.
        let unflip = mutated
            .as_ref()
            .clone()
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            })
            .unwrap();
        let sweep = filled.apply_mutations(
            Arc::new(g.clone()),
            Arc::new(CsrGraph::from_graph(&g)),
            &[unflip],
        );
        assert!(sweep.table_withdrawn);
        for u in mutated.nodes() {
            assert_eq!(
                *warm.packed_row(u).expect("in range").row(),
                compute_row(&mutated, &csr, u, kind, &cfg)
            );
        }
    }

    /// A ring graph large enough that per-source work is nontrivial.
    fn ring_graph(n: usize) -> SignedGraph {
        from_edge_triples(
            (0..n)
                .map(|i| {
                    (
                        i,
                        (i + 1) % n,
                        if i % 5 == 0 {
                            Sign::Negative
                        } else {
                            Sign::Positive
                        },
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn concurrent_row_misses_compute_exactly_once() {
        // Mirrors the engine's `concurrent_same_kind_builds_once`, one layer
        // down: 8 threads race on the same cold rows; each row must be
        // computed exactly once and exactly one caller per row observes
        // `built == true`.
        let g = Arc::new(ring_graph(64));
        let lazy =
            LazyCompatibility::new(g.clone(), CompatibilityKind::Sbph, EngineConfig::default());
        let sources = [NodeId::new(0), NodeId::new(7), NodeId::new(21)];
        let observed_builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10 {
                        for &src in &sources {
                            if lazy.source_tracked(src).built {
                                observed_builds.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(lazy.build_count(), sources.len());
        assert_eq!(observed_builds.load(Ordering::Relaxed), sources.len());
    }

    #[test]
    fn budget_evicts_lru_and_recomputes_correctly() {
        let g = Arc::new(ring_graph(40));
        let kind = CompatibilityKind::Spo;
        let matrix = CompatibilityMatrix::build(&g, kind);
        // A budget that fits roughly two rows.
        let budget = 2 * estimated_row_bytes(g.node_count()) + 16;
        let lazy =
            LazyCompatibility::with_budget(g.clone(), kind, EngineConfig::default(), Some(budget));
        for u in 0..6 {
            lazy.source(NodeId::new(u));
            assert!(
                lazy.resident_bytes() <= budget,
                "resident {} exceeds budget {budget}",
                lazy.resident_bytes()
            );
        }
        assert!(lazy.eviction_count() > 0, "tiny budget must evict");
        assert!(lazy.cached_rows() <= 2);
        // Evicted rows recompute to the same values.
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(lazy.compatible(u, v), matrix.compatible(u, v));
                assert_eq!(lazy.distance(u, v), matrix.distance(u, v));
            }
        }
        assert!(
            lazy.build_count() > g.node_count(),
            "eviction pressure must force recomputation"
        );
    }

    #[test]
    fn oversized_row_is_served_but_not_retained() {
        let g = Arc::new(ring_graph(30));
        // Budget smaller than a single row: every row is computed, served,
        // and immediately dropped — the invariant holds at resident == 0.
        let lazy = LazyCompatibility::with_budget(
            g.clone(),
            CompatibilityKind::Nne,
            EngineConfig::default(),
            Some(8),
        );
        let row = lazy.source(NodeId::new(3));
        assert!(row.is_compatible(3));
        assert_eq!(lazy.resident_bytes(), 0);
        assert_eq!(lazy.cached_rows(), 0);
        assert_eq!(lazy.eviction_count(), 1);
        // Still correct on re-fetch.
        let again = lazy.source(NodeId::new(3));
        assert_eq!(*again, *row);
        assert_eq!(lazy.build_count(), 2);
    }

    #[test]
    fn tracker_attributes_builds_to_the_performing_query() {
        let g = Arc::new(ring_graph(24));
        let lazy = LazyCompatibility::new(g, CompatibilityKind::Spa, EngineConfig::default());
        let first = RowTracker::new(&lazy);
        assert!(first.compatible(NodeId::new(1), NodeId::new(2)));
        assert_eq!(first.rows_built(), 1, "cold row: this tracker built it");
        let second = RowTracker::new(&lazy);
        let _ = second.compatible(NodeId::new(1), NodeId::new(3));
        assert_eq!(second.rows_built(), 0, "warm row: no build attributed");
        assert_eq!(second.kind(), CompatibilityKind::Spa);
        assert_eq!(second.node_count(), 24);
    }

    #[test]
    fn apply_mutation_invalidates_only_affected_rows() {
        use signed_graph::{EdgeMutation, Sign};
        // Two components: a ring 0..8 and a positive pair (20, 21).
        let mut edges: Vec<(usize, usize, Sign)> =
            (0..8).map(|i| (i, (i + 1) % 8, Sign::Positive)).collect();
        edges.push((20, 21, Sign::Positive));
        let g = from_edge_triples(edges);
        let n = g.node_count();
        // SPM keeps only no-op proofs, and the even ring puts every ring
        // edge on every ring source's shortest-path DAG: a flip there must
        // recompute.
        let kind = CompatibilityKind::Spm;
        let lazy = LazyCompatibility::new(Arc::new(g.clone()), kind, EngineConfig::default());
        // Warm every row.
        for u in g.nodes() {
            lazy.source(u);
        }
        assert_eq!(lazy.cached_rows(), n);
        let pair_rows = [lazy.source(NodeId::new(20)), lazy.source(NodeId::new(21))];
        let mut mutated = g.clone();
        let flip = mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            })
            .unwrap();
        let mutated = Arc::new(mutated);
        let csr = Arc::new(CsrGraph::from_graph(&mutated));
        let sweep = lazy.apply_mutations(mutated.clone(), csr, &[flip]);
        assert_eq!(
            (sweep.invalidated, sweep.repaired),
            (8, 0),
            "exactly the ring component's rows"
        );
        assert!(sweep.table_withdrawn, "the full store lost a row");
        assert_eq!(lazy.cached_rows(), n - 8);
        // The other component's rows stay verbatim.
        for (row, u) in pair_rows.iter().zip([20, 21]) {
            assert!(Arc::ptr_eq(row, &lazy.source(NodeId::new(u))));
        }
        // Every pair answer now matches a matrix built from the mutated
        // graph — surviving rows included.
        let reference = CompatibilityMatrix::build(&mutated, kind);
        for u in mutated.nodes() {
            for v in mutated.nodes() {
                assert_eq!(
                    lazy.compatible(u, v),
                    reference.compatible(u, v),
                    "({u},{v})"
                );
                assert_eq!(lazy.distance(u, v), reference.distance(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn apply_mutations_repairs_rows_in_place() {
        use signed_graph::{EdgeMutation, Sign};
        // Two components: a ring 0..8 and a positive pair (20, 21).
        let mut edges: Vec<(usize, usize, Sign)> =
            (0..8).map(|i| (i, (i + 1) % 8, Sign::Positive)).collect();
        edges.push((20, 21, Sign::Positive));
        let g = from_edge_triples(edges);
        let n = g.node_count();
        let kind = CompatibilityKind::Nne;
        let lazy = LazyCompatibility::new(Arc::new(g.clone()), kind, EngineConfig::default());
        for u in g.nodes() {
            lazy.source(u);
        }
        assert_eq!(lazy.cached_rows(), n);
        // Batch 1: a sign flip inside the ring. NNE rows are patchable
        // (endpoint rows get a bit flip, the rest are provably unchanged),
        // so nothing is dropped from the cache.
        let mut mutated = g.clone();
        let flip = mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Negative,
            })
            .unwrap();
        let graph = Arc::new(mutated.clone());
        let csr = Arc::new(CsrGraph::from_graph(&graph));
        let sweep = lazy.apply_mutations(graph, csr, &[flip]);
        assert_eq!(sweep.invalidated, 0, "NNE sign flips repair in place");
        assert!(
            sweep.repaired >= 2,
            "at least the endpoint rows were patched"
        );
        assert_eq!(lazy.cached_rows(), n, "no slot was dropped");
        let builds_before = lazy.build_count();
        // Batch 2: an insert bridging the components plus a flip back —
        // composed in one sweep; the insert relaxes the distance lane.
        let e1 = mutated
            .apply_mutation(&EdgeMutation::Insert {
                u: NodeId::new(3),
                v: NodeId::new(20),
                sign: Sign::Positive,
            })
            .unwrap();
        let e2 = mutated
            .apply_mutation(&EdgeMutation::SetSign {
                u: NodeId::new(0),
                v: NodeId::new(1),
                sign: Sign::Positive,
            })
            .unwrap();
        let graph = Arc::new(mutated.clone());
        let csr = Arc::new(CsrGraph::from_graph(&graph));
        let sweep = lazy.apply_mutations(graph, csr, &[e1, e2]);
        assert_eq!(sweep.invalidated, 0, "NNE inserts relax in place");
        // Every pair answer matches a scratch matrix — without rebuilding
        // a single row.
        let reference = CompatibilityMatrix::build(&mutated, kind);
        for u in mutated.nodes() {
            for v in mutated.nodes() {
                assert_eq!(
                    lazy.compatible(u, v),
                    reference.compatible(u, v),
                    "({u},{v})"
                );
                assert_eq!(lazy.distance(u, v), reference.distance(u, v), "({u},{v})");
            }
        }
        assert_eq!(lazy.build_count(), builds_before, "repair avoided rebuilds");
    }

    #[test]
    fn invalidation_scopes_per_kind() {
        assert_eq!(
            InvalidationScope::of(CompatibilityKind::Dpe),
            InvalidationScope::Endpoints
        );
        for kind in [
            CompatibilityKind::Spa,
            CompatibilityKind::Spm,
            CompatibilityKind::Spo,
            CompatibilityKind::Nne,
        ] {
            assert_eq!(InvalidationScope::of(kind), InvalidationScope::Frontier);
        }
        for kind in [CompatibilityKind::Sbph, CompatibilityKind::Sbp] {
            assert_eq!(InvalidationScope::of(kind), InvalidationScope::WholeKind);
        }
    }

    #[test]
    fn byte_estimates_are_consistent() {
        // A 27-ring's distances top out at 13: 4-bit codes and no side
        // entry, so the estimate is exact.
        let g = ring_graph(27);
        let m = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        for row in m.rows() {
            assert_eq!(row.code_bits(), 4);
            assert_eq!(row_bytes(row), estimated_row_bytes(27));
        }
        assert_eq!(estimated_matrix_bytes(27), 27 * estimated_row_bytes(27));
        // A 50-ring's run to 25: 4-bit codes would spill 23 nodes into the
        // side table, so its rows pack 8-bit codes, a byte per node.
        let g = ring_graph(50);
        let m = CompatibilityMatrix::build(&g, CompatibilityKind::Nne);
        for row in m.rows() {
            assert_eq!(row.code_bits(), 8);
            assert_eq!(row_bytes(row), estimated_row_bytes(50) + 25);
        }
    }

    /// A ring whose distances run past the 8-bit inline range (up to 270;
    /// 33 nodes past 253 from any source).
    const LONG_RING: usize = 540;

    /// A ring whose farthest node sits one step past the 4-bit inline
    /// range (distance 14), which its rows keep in the side table.
    const SHORT_RING: usize = 28;

    #[test]
    fn distances_past_the_inline_range_round_trip_exactly() {
        for (nodes, bits) in [(SHORT_RING, 4u32), (LONG_RING, 8)] {
            let g = ring_graph(nodes);
            let csr = CsrGraph::from_graph(&g);
            let cfg = EngineConfig::default();
            for kind in CompatibilityKind::ALL {
                if kind == CompatibilityKind::Sbp {
                    continue; // exponential search; its cap is 12 anyway
                }
                let source = NodeId::new(7);
                let row = compute_row(&g, &csr, source, kind, &cfg);
                let legacy = compute_source(&g, &csr, source, kind, &cfg);
                assert_eq!(row.to_source(), legacy, "{kind}");
                let max_inline = (1u32 << row.code_bits()) - 3;
                let long = legacy
                    .distance
                    .iter()
                    .filter(|d| d.is_some_and(|d| d > max_inline))
                    .count();
                assert_eq!(row.side_table_len(), long, "{kind}");
                let byte_lane = if row.code_bits() == 8 { nodes / 2 } else { 0 };
                assert_eq!(
                    row_bytes(&row),
                    estimated_row_bytes(nodes)
                        + byte_lane
                        + long * std::mem::size_of::<row::SideEntry>(),
                    "{kind}: row_bytes counts the lane and side-table entries"
                );
                if matches!(
                    kind,
                    CompatibilityKind::Spa | CompatibilityKind::Spo | CompatibilityKind::Nne
                ) {
                    assert_eq!(row.code_bits(), bits, "{kind} on a {nodes}-ring");
                    assert!(long > 0, "{kind}: the ring must reach past {max_inline}");
                }
            }
        }
    }

    /// No row outgrows the one-byte-lane layout (7-bit codes, 0..=125
    /// inline, the mixed flag in bit 7, side entries past 125) by more than
    /// its mixed bitset plus one Vec header, at either code width.
    #[test]
    fn rows_outgrow_one_byte_lanes_by_at_most_the_mixed_bitset() {
        #[allow(dead_code)]
        struct ByteLaneRow {
            source: NodeId,
            kind: CompatibilityKind,
            nodes: usize,
            bits: Vec<u64>,
            lane: Vec<u8>,
            side: Vec<row::SideEntry>,
        }
        let vec_header = std::mem::size_of::<Vec<u64>>();
        assert_eq!(
            std::mem::size_of::<CompatRow>(),
            std::mem::size_of::<ByteLaneRow>() + vec_header,
            "the code width rides in the header's padding"
        );
        if cfg!(target_pointer_width = "64") {
            assert_eq!(estimated_row_bytes(1443), 1202, "the documented figure");
        }
        let cfg = EngineConfig::default();
        for g in [
            paper_figure_1a(),
            ring_graph(SHORT_RING),
            ring_graph(50),
            ring_graph(LONG_RING),
        ] {
            let csr = CsrGraph::from_graph(&g);
            let n = g.node_count();
            let bitset = bitset_words(n) * std::mem::size_of::<u64>();
            for kind in CompatibilityKind::ALL {
                if kind == CompatibilityKind::Sbp {
                    continue;
                }
                for source in g.nodes().step_by(n.div_ceil(16)) {
                    let row = compute_row(&g, &csr, source, kind, &cfg);
                    let past_125 = row
                        .to_source()
                        .distance
                        .iter()
                        .filter(|d| d.is_some_and(|d| d > 125))
                        .count();
                    let byte_lane = std::mem::size_of::<ByteLaneRow>()
                        + bitset
                        + n
                        + past_125 * std::mem::size_of::<row::SideEntry>();
                    assert!(
                        row_bytes(&row) <= byte_lane + bitset + vec_header,
                        "{kind} row {source} of {n}: {} > {byte_lane} + {bitset} + {vec_header}",
                        row_bytes(&row)
                    );
                }
            }
        }
    }

    #[test]
    fn repairs_across_the_inline_boundary_equal_scratch_rows() {
        use repair::{repair_row, RepairOutcome, RepairScratch};
        use signed_graph::EdgeMutation;
        let cfg = EngineConfig::default();
        let row_of = |g: &SignedGraph, source: usize, kind| {
            compute_row(g, &CsrGraph::from_graph(g), NodeId::new(source), kind, &cfg)
        };
        // A chord pulls distances from past the inline range back inline
        // (NNE relaxation): 254..=270 on the long ring's 8-bit rows, 14 on
        // the short ring's 4-bit rows. A flip next to the sources changes
        // sign classes on both sides of the boundary (SP propagation).
        for (nodes, chord, sources) in [
            (LONG_RING, (10, 160), [0usize, 1, 3, 150]),
            (SHORT_RING, (3, 17), [0, 1, 3, 15]),
        ] {
            let g = ring_graph(nodes);
            for (mutation, kinds) in [
                (
                    EdgeMutation::Insert {
                        u: NodeId::new(chord.0),
                        v: NodeId::new(chord.1),
                        sign: Sign::Positive,
                    },
                    vec![CompatibilityKind::Nne],
                ),
                (
                    EdgeMutation::SetSign {
                        u: NodeId::new(1),
                        v: NodeId::new(2),
                        sign: Sign::Negative,
                    },
                    vec![CompatibilityKind::Spa, CompatibilityKind::Spo],
                ),
            ] {
                let mut mutated = g.clone();
                let effects = vec![mutated.apply_mutation(&mutation).unwrap()];
                let csr = CsrGraph::from_graph(&mutated);
                let mut scratch = RepairScratch::default();
                for kind in kinds {
                    for source in sources {
                        let before = row_of(&g, source, kind);
                        assert!(before.side_table_len() > 0, "{kind} row {source}");
                        let after = row_of(&mutated, source, kind);
                        match repair_row(&before, &effects, &csr, &mut scratch) {
                            RepairOutcome::Repaired(row) => {
                                assert_eq!(row.code_bits(), before.code_bits());
                                assert_eq!(row, after, "{kind} row {source} after {mutation:?}")
                            }
                            other => {
                                panic!("{kind} row {source}: expected a repair, got {other:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apply_mutations_reaccounts_rows_whose_side_table_shrinks() {
        use signed_graph::EdgeMutation;
        let g = ring_graph(LONG_RING);
        let lazy = LazyCompatibility::with_budget(
            Arc::new(g.clone()),
            CompatibilityKind::Nne,
            EngineConfig::default(),
            // Room for the three 8-bit rows and their side tables.
            Some(4 * (estimated_row_bytes(LONG_RING) + LONG_RING / 2) + 1024),
        );
        for u in [0usize, 40, 80] {
            lazy.source(NodeId::new(u));
        }
        let resident = |lazy: &LazyCompatibility| -> usize {
            [0usize, 40, 80]
                .iter()
                .map(|&u| row_bytes(&lazy.source(NodeId::new(u))))
                .sum()
        };
        let before = lazy.resident_bytes();
        assert_eq!(before, resident(&lazy));
        let mut mutated = g.clone();
        let effect = mutated
            .apply_mutation(&EdgeMutation::Insert {
                u: NodeId::new(0),
                v: NodeId::new(150),
                sign: Sign::Positive,
            })
            .unwrap();
        let mutated = Arc::new(mutated);
        let csr = Arc::new(CsrGraph::from_graph(&mutated));
        let sweep = lazy.apply_mutations(mutated, csr, &[effect]);
        assert_eq!((sweep.invalidated, sweep.repaired), (0, 3));
        assert_eq!(lazy.build_count(), 3, "repaired rows are not rebuilt");
        assert!(
            lazy.resident_bytes() < before,
            "the chord shrinks side tables"
        );
        assert_eq!(lazy.resident_bytes(), resident(&lazy));
    }

    #[test]
    fn unsigned_compatibility_is_all_pairs() {
        let g = paper_figure_1a();
        let u = UnsignedCompatibility::build(&g);
        assert_eq!(u.node_count(), g.node_count());
        assert!(u.compatible(NodeId::new(0), NodeId::new(5)));
        assert_eq!(u.distance(NodeId::new(0), NodeId::new(5)), Some(2));
        assert_eq!(u.distance(NodeId::new(3), NodeId::new(3)), Some(0));
        assert!(u.compatible_with_all(NodeId::new(0), &[NodeId::new(1), NodeId::new(2)]));
    }

    #[test]
    fn pair_fraction_and_mean_distance() {
        // Two nodes joined by a positive edge: 100% compatible at distance 1.
        let g = from_edge_triples(vec![(0, 1, Sign::Positive)]);
        let m = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        assert!((m.compatible_pair_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(m.mean_compatible_distance(), Some(1.0));
        // Two nodes joined by a negative edge: 0%.
        let g = from_edge_triples(vec![(0, 1, Sign::Negative)]);
        let m = CompatibilityMatrix::build(&g, CompatibilityKind::Spa);
        assert_eq!(m.compatible_pair_fraction(), 0.0);
        assert_eq!(m.mean_compatible_distance(), None);
    }
}
