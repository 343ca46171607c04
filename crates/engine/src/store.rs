//! The relation store: one memory-budgeted row store
//! ([`LazyCompatibility`]) per [`CompatibilityKind`], created at the kind's
//! first fetch and either left to fill row by row on demand or filled whole
//! at once, as chosen per kind by an explicit [`StorePolicy`].
//!
//! Computing a relation is the dominant cost of serving a cold query
//! (`O(|V| · BFS)` for the SP family, worse for SBP), and holding all of it
//! is `O(|V|²)` — infeasible beyond a few tens of thousands of users. The
//! store serves both regimes with one structure. On the `matrix` plan the
//! first query of a kind pays a parallel fill of every row, and the full
//! store then answers from an immutable row table each query pins once, at
//! the cost of a matrix lookup. On the `rows` plan only the rows team
//! formation touches are computed, and they stay within an explicit byte
//! budget via LRU eviction.
//!
//! Accounting is exact under concurrency: [`RelationStore::fetch`] reports
//! whether *this call* ran the fill (concurrent callers block on one fill
//! and see `false`), and queries attribute row computations through a
//! per-query [`RowTracker`].
//!
//! ## Live mutations
//!
//! [`RelationStore::mutate_batch`] applies edge mutations to the deployment
//! without a reload: the graph is patched (see [`signed_graph::delta`]),
//! the shared CSR view is sign-patched in place for flips (rebuilt for
//! inserts/removals), and every resident kind takes one sweep
//! ([`LazyCompatibility::apply_mutations`]) at the finest sound granularity
//! per kind ([`tfsn_core::compat::InvalidationScope`]): rows whose BFS
//! frontier can cross a touched edge go to [`tfsn_core::compat::repair`],
//! and only the rows it can neither prove unchanged nor patch are dropped
//! (they recompute on next fetch). SBPH/SBP have no sound per-row bound and
//! drop every resident row. A full store that loses a row withdraws its row
//! table; one that loses none republishes it with the repaired rows.
//!
//! Mutations are serialized against each other; queries keep running
//! concurrently. A query on a full store reads every row from the one table
//! it pinned, so it sees one snapshot, from before or after a concurrent
//! mutation. On a store that is not full the consistency granularity is the
//! **row**: a query that overlaps a mutation observes each row it touches
//! from either side of the mutation (a multi-row read — the SBPH/SBP
//! symmetric closure, a pair-distance min — may therefore mix the two for
//! that instant). Once `mutate` returns, every later query sees
//! post-mutation state exactly (the property the mutation proptests pin).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use signed_graph::csr::CsrGraph;
use signed_graph::delta::net_effects;
use signed_graph::{EdgeMutation, GraphError, MutationEffect, SignedGraph};
use tfsn_core::compat::{
    estimated_matrix_bytes, CompatibilityKind, EngineConfig, LazyCompatibility, RowTracker,
};
use tfsn_skills::assignment::SkillAssignment;

/// Index of a kind in the shard array (kinds are a small closed set).
fn shard_index(kind: CompatibilityKind) -> usize {
    CompatibilityKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// How the store fills each relation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingMode {
    /// Per kind: fill every row at first fetch when the full relation fits
    /// the memory budget, fill rows on demand otherwise. Without a budget
    /// this always fills.
    #[default]
    Auto,
    /// Always fill every row at first fetch, past the budget if need be
    /// (the store enforces it at its next sweep).
    Matrix,
    /// Always fill rows on demand under the budget, even on small graphs.
    Rows,
}

impl ServingMode {
    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            ServingMode::Auto => "auto",
            ServingMode::Matrix => "matrix",
            ServingMode::Rows => "rows",
        }
    }

    /// Parses a CLI label (case-insensitive).
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "auto" => Some(ServingMode::Auto),
            "matrix" => Some(ServingMode::Matrix),
            "rows" => Some(ServingMode::Rows),
            _ => None,
        }
    }
}

/// The explicit memory-budget policy of a [`RelationStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorePolicy {
    /// Fill strategy.
    pub mode: ServingMode,
    /// Resident-byte cap **per relation kind** (`None` = unbounded) on the
    /// LRU row cache. In `Auto` mode it also decides whether a kind fills.
    pub memory_budget: Option<usize>,
}

impl StorePolicy {
    /// Every kind filled at first fetch, no budget.
    pub fn materialized() -> Self {
        StorePolicy {
            mode: ServingMode::Matrix,
            memory_budget: None,
        }
    }

    /// On-demand rows for every kind under `memory_budget` bytes.
    pub fn rows(memory_budget: Option<usize>) -> Self {
        StorePolicy {
            mode: ServingMode::Rows,
            memory_budget,
        }
    }

    /// Auto planning under a budget: fill the kinds whose full relation
    /// fits, fill the rest on demand.
    pub fn auto(memory_budget: usize) -> Self {
        StorePolicy {
            mode: ServingMode::Auto,
            memory_budget: Some(memory_budget),
        }
    }

    /// The plan this policy assigns to a relation over `nodes` users.
    pub fn tier_for(&self, nodes: usize) -> TierChoice {
        match self.mode {
            ServingMode::Matrix => TierChoice::Matrix,
            ServingMode::Rows => TierChoice::Rows,
            ServingMode::Auto => match self.memory_budget {
                None => TierChoice::Matrix,
                Some(budget) if estimated_matrix_bytes(nodes) <= budget => TierChoice::Matrix,
                Some(_) => TierChoice::Rows,
            },
        }
    }
}

/// The serving plan of a kind: whether its first fetch fills every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierChoice {
    /// Every row filled at first fetch (`O(|V|²)` resident).
    Matrix,
    /// Rows filled on demand into the budget-capped LRU row cache.
    Rows,
}

impl TierChoice {
    /// The label used in `stats` output.
    pub fn label(self) -> &'static str {
        match self {
            TierChoice::Matrix => "matrix",
            TierChoice::Rows => "rows",
        }
    }
}

/// The graph snapshot shards are built from: the current (possibly
/// mutated) graph plus the lazily-built CSR view shared by every shard.
/// One lock holds both so a build can never pair a new graph with a stale
/// CSR.
#[derive(Debug)]
struct GraphState {
    graph: Arc<SignedGraph>,
    /// Built on the first shard and shared by all of them — it is
    /// identical per kind and `O(|V|+|E|)` each, so per-shard copies would
    /// silently multiply the footprint the memory budget is supposed to
    /// bound.
    csr: Option<Arc<CsrGraph>>,
}

/// The outcome of one [`RelationStore::mutate`] call.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// What structurally changed (canonical endpoints included).
    pub effect: MutationEffect,
    /// Resident rows dropped across all shards.
    pub rows_invalidated: usize,
    /// Resident rows the repair pass kept (proved unchanged or patched in
    /// place) that the coarse frontier predicate alone would have dropped.
    pub rows_repaired: usize,
    /// Kinds whose full row table this mutation withdrew: the store had
    /// every row resident and lost one.
    pub kinds_downgraded: Vec<CompatibilityKind>,
}

/// The outcome of one [`RelationStore::mutate_batch`] call: per-mutation
/// results plus one merged invalidation accounting for the whole sweep.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per input mutation, in order: the effect it had on the
    /// graph, or the typed [`GraphError`] that rejected it (later mutations
    /// still apply — the batch is equivalent to a sequential fold of
    /// [`RelationStore::mutate`]).
    pub outcomes: Vec<Result<MutationEffect, GraphError>>,
    /// Resident rows dropped across all shards by the merged sweep.
    pub rows_invalidated: usize,
    /// Resident rows kept by repair that the coarse predicate would drop.
    pub rows_repaired: usize,
    /// Kinds whose full row table the merged sweep withdrew.
    pub kinds_downgraded: Vec<CompatibilityKind>,
}

impl BatchReport {
    /// Mutations that applied (errors excluded; no-op sign sets included).
    pub fn applied(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Mutations that structurally changed the graph.
    pub fn changed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|e| e.changed()))
            .count()
    }
}

/// The build-once relation store: one row store per kind.
#[derive(Debug)]
pub struct RelationStore {
    state: RwLock<GraphState>,
    /// Node count, fixed for the store's lifetime (mutations are edge-level).
    nodes: usize,
    cfg: EngineConfig,
    build_threads: usize,
    policy: StorePolicy,
    shards: [RwLock<Option<Arc<LazyCompatibility>>>; CompatibilityKind::ALL.len()],
    /// Serializes [`RelationStore::mutate`] calls against each other (reads
    /// stay concurrent; a query overlapping a mutation sees either
    /// snapshot).
    mutation_lock: Mutex<()>,
    matrix_builds: AtomicUsize,
    mutations: AtomicUsize,
    /// Bumped only by mutations that actually changed the graph — the
    /// cache key for derived state (deployment statistics) that a no-op
    /// sign set must not invalidate.
    graph_version: AtomicUsize,
    rows_invalidated: AtomicUsize,
    rows_repaired: AtomicUsize,
    /// The deployment's skill assignment, which every row store is bound
    /// to for its skill-pair counts.
    skills: Option<Arc<SkillAssignment>>,
}

impl RelationStore {
    /// Creates an empty store over `graph` that builds relations with `cfg`,
    /// fills them with `build_threads` worker threads (0 = available
    /// parallelism) and plans each kind according to `policy`.
    pub fn new(
        graph: Arc<SignedGraph>,
        cfg: EngineConfig,
        build_threads: usize,
        policy: StorePolicy,
    ) -> Self {
        let build_threads = if build_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            build_threads
        };
        let nodes = graph.node_count();
        RelationStore {
            state: RwLock::new(GraphState { graph, csr: None }),
            nodes,
            cfg,
            build_threads,
            policy,
            shards: std::array::from_fn(|_| RwLock::new(None)),
            mutation_lock: Mutex::new(()),
            matrix_builds: AtomicUsize::new(0),
            mutations: AtomicUsize::new(0),
            graph_version: AtomicUsize::new(0),
            rows_invalidated: AtomicUsize::new(0),
            rows_repaired: AtomicUsize::new(0),
            skills: None,
        }
    }

    /// Binds the store to the deployment's skill assignment: the full row
    /// stores of every kind then memoise skill-pair counts for it
    /// ([`LazyCompatibility::with_skills`]). Queries solving with any other
    /// assignment count without the memo.
    pub(crate) fn with_skills(mut self, skills: Arc<SkillAssignment>) -> Self {
        self.skills = Some(skills);
        self
    }

    /// The relation tuning used for builds.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The memory-budget policy.
    pub fn policy(&self) -> &StorePolicy {
        &self.policy
    }

    /// The graph currently being served — the post-mutation truth once
    /// [`RelationStore::mutate`] has run (the deployment's own handle keeps
    /// the load-time snapshot).
    pub fn graph(&self) -> Arc<SignedGraph> {
        self.state.read().graph.clone()
    }

    /// The plan this store's policy assigns to every kind: whether a
    /// kind's first fetch fills every row. One node count gives one plan,
    /// since a row's size does not depend on the kind.
    pub fn tier(&self) -> TierChoice {
        self.policy.tier_for(self.nodes)
    }

    /// The shared CSR view of the served graph, once a shard (or a
    /// mutation sweep) has built it.
    pub fn csr(&self) -> Option<Arc<CsrGraph>> {
        self.state.read().csr.clone()
    }

    /// The current (graph, CSR) snapshot, building the shared CSR on first
    /// use.
    fn graph_and_csr(&self) -> (Arc<SignedGraph>, Arc<CsrGraph>) {
        {
            let st = self.state.read();
            if let Some(csr) = &st.csr {
                return (st.graph.clone(), csr.clone());
            }
        }
        let mut st = self.state.write();
        if st.csr.is_none() {
            st.csr = Some(Arc::new(CsrGraph::from_graph(&st.graph)));
        }
        (st.graph.clone(), st.csr.clone().expect("just initialised"))
    }

    /// Returns the row store for `kind`, creating it on first use — and
    /// filling every row when the kind's plan is [`TierChoice::Matrix`].
    /// Concurrent callers for the same kind block on one initialisation;
    /// exactly one of them observes [`FetchedRelation::built_matrix`] — the
    /// hook that keeps hit/miss accounting exact when N cold queries race
    /// on one kind.
    pub fn fetch(&self, kind: CompatibilityKind) -> FetchedRelation {
        let shard = &self.shards[shard_index(kind)];
        if let Some(rows) = shard.read().clone() {
            return FetchedRelation {
                rows,
                built_matrix: false,
            };
        }
        let mut guard = shard.write();
        if let Some(rows) = guard.clone() {
            // Raced another initialiser: it built, we reuse.
            return FetchedRelation {
                rows,
                built_matrix: false,
            };
        }
        let (graph, csr) = self.graph_and_csr();
        let mut rows = LazyCompatibility::with_shared_csr(
            graph,
            csr,
            kind,
            self.cfg.clone(),
            self.policy.memory_budget,
        );
        if let Some(skills) = &self.skills {
            rows = rows.with_skills(skills.clone());
        }
        let built_matrix = self.tier() == TierChoice::Matrix;
        if built_matrix {
            self.matrix_builds.fetch_add(1, Ordering::Relaxed);
            rows = rows.filled(self.build_threads);
        }
        let rows = Arc::new(rows);
        *guard = Some(rows.clone());
        FetchedRelation { rows, built_matrix }
    }

    /// Applies one edge mutation to the live deployment: patches the graph,
    /// refreshes the shared CSR (in-place sign patch for flips, rebuild for
    /// inserts/removals), and sweeps every resident kind (see the module
    /// docs). Mutations serialize against each other; concurrent queries
    /// keep answering from either side of the mutation (see the module
    /// docs for the granularity).
    ///
    /// Failed mutations (unknown node, duplicate/missing edge, self-loop)
    /// are typed [`GraphError`]s and leave every layer untouched. A
    /// `SetSign` to the sign the edge already has counts as applied but
    /// invalidates nothing.
    pub fn mutate(&self, m: &EdgeMutation) -> Result<MutationReport, GraphError> {
        let BatchReport {
            mut outcomes,
            rows_invalidated,
            rows_repaired,
            kinds_downgraded,
        } = self.mutate_batch(std::slice::from_ref(m));
        let effect = outcomes.pop().expect("one outcome per mutation")?;
        Ok(MutationReport {
            effect,
            rows_invalidated,
            rows_repaired,
            kinds_downgraded,
        })
    }

    /// Applies `k` mutations under **one** mutation-lock acquisition, one
    /// graph clone, one CSR refresh, one snapshot publication, and one
    /// merged invalidation sweep per shard — the batch is answer-equivalent
    /// to a sequential fold of [`RelationStore::mutate`] (a rejected
    /// mutation does not stop later ones), but resident rows are walked
    /// once per *batch* instead of once per mutation, and rows the combined
    /// delta proves patchable are repaired in place
    /// ([`tfsn_core::compat::repair`]) instead of dropped.
    ///
    /// Rows only ever see the batch as a whole, so the CSR refresh and the
    /// sweep run on its **net** effects
    /// ([`signed_graph::delta::net_effects`]): one per touched edge, with a
    /// remove plus same-sign re-insert cancelled out. A batch whose nets
    /// are empty still publishes the new graph, but keeps the CSR and every
    /// resident row — SBPH/SBP rows and row tables included. Outcomes and
    /// counters stay per mutation.
    pub fn mutate_batch(&self, ms: &[EdgeMutation]) -> BatchReport {
        let _serial = self.mutation_lock.lock();
        let (old_graph, old_csr) = {
            let st = self.state.read();
            (st.graph.clone(), st.csr.clone())
        };
        // A `SetSign` to the sign the edge already has is detectable with
        // one O(1) index probe — replayed mutation logs must not pay an
        // O(|V|+|E|) graph clone (under the mutation lock, no less) to
        // discover a no-op. Every error case falls through to
        // `apply_mutation`, which reports it with the exact same typing.
        let noop_sign_set = |g: &SignedGraph, m: &EdgeMutation| -> Option<MutationEffect> {
            if let EdgeMutation::SetSign { u, v, sign } = *m {
                if u != v && g.contains_node(u) && g.contains_node(v) && g.sign(u, v) == Some(sign)
                {
                    let (u, v) = if u <= v { (u, v) } else { (v, u) };
                    return Some(MutationEffect {
                        u,
                        v,
                        change: signed_graph::EdgeChange::Unchanged(sign),
                    });
                }
            }
            None
        };
        // All-no-op batches skip the clone, the CSR refresh, and the
        // per-kind sweep entirely — resident SBPH/SBP shards included.
        if !ms.is_empty() {
            if let Some(outcomes) = ms
                .iter()
                .map(|m| noop_sign_set(&old_graph, m).map(Ok))
                .collect::<Option<Vec<_>>>()
            {
                self.mutations.fetch_add(ms.len(), Ordering::Relaxed);
                return BatchReport {
                    outcomes,
                    rows_invalidated: 0,
                    rows_repaired: 0,
                    kinds_downgraded: Vec::new(),
                };
            }
        }
        let mut new_graph = (*old_graph).clone();
        let mut outcomes: Vec<Result<MutationEffect, GraphError>> = Vec::with_capacity(ms.len());
        let mut effects: Vec<MutationEffect> = Vec::new();
        let mut applied = 0usize;
        for m in ms {
            // No-op detection runs against the *evolving* graph: a sign set
            // matching an earlier mutation's outcome is still a no-op.
            if let Some(effect) = noop_sign_set(&new_graph, m) {
                applied += 1;
                outcomes.push(Ok(effect));
                continue;
            }
            match new_graph.apply_mutation(m) {
                Ok(effect) => {
                    debug_assert!(effect.changed(), "no-op sign sets short-circuit above");
                    applied += 1;
                    effects.push(effect);
                    outcomes.push(Ok(effect));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }
        if effects.is_empty() {
            // Nothing changed (errors and no-ops only): layers stay
            // untouched, exactly like the sequential fold.
            self.mutations.fetch_add(applied, Ordering::Relaxed);
            return BatchReport {
                outcomes,
                rows_invalidated: 0,
                rows_repaired: 0,
                kinds_downgraded: Vec::new(),
            };
        }
        let nets = net_effects(&old_graph, &new_graph, &effects);
        let new_graph = Arc::new(new_graph);
        if nets.is_empty() {
            // Every change cancelled out: the new graph has the old one's
            // adjacency (only its edge-list order can differ), so the CSR
            // and every resident row stay exact. Row stores keep their
            // content-identical view until the next sweep replaces it.
            self.state.write().graph = new_graph;
            self.mutations.fetch_add(applied, Ordering::Relaxed);
            self.graph_version
                .fetch_add(effects.len(), Ordering::Relaxed);
            return BatchReport {
                outcomes,
                rows_invalidated: 0,
                rows_repaired: 0,
                kinds_downgraded: Vec::new(),
            };
        }
        // A CSR is needed by every resident shard. The scan is only a hint:
        // a shard can be initialised concurrently between it and the sweep
        // loop below, so the loop builds the CSR on demand if the hint was
        // stale.
        let need_csr = self.shards.iter().any(|s| s.read().is_some());
        let all_sign_only = nets.iter().all(|e| e.is_sign_only());
        let mut new_csr: Option<Arc<CsrGraph>> = if need_csr {
            let patched = match (&old_csr, all_sign_only) {
                // Sign flips keep the CSR structure: patch the sign lane of
                // the existing view instead of re-walking the graph.
                (Some(csr), true) => {
                    let mut patched = (**csr).clone();
                    for effect in &nets {
                        patched
                            .set_sign(
                                effect.u,
                                effect.v,
                                effect.sign_after().expect("sign-only effect has a sign"),
                            )
                            .expect("flipped edge exists in the CSR view");
                    }
                    patched
                }
                _ => CsrGraph::from_graph(&new_graph),
            };
            Some(Arc::new(patched))
        } else {
            None
        };
        // Publish the new snapshot first: shards initialised from here on
        // already see the mutated graph.
        {
            let mut st = self.state.write();
            st.graph = new_graph.clone();
            st.csr = new_csr.clone();
        }
        let mut invalidated = 0usize;
        let mut repaired = 0usize;
        let mut kinds_downgraded = Vec::new();
        for (i, &kind) in CompatibilityKind::ALL.iter().enumerate() {
            let Some(rows) = self.shards[i].read().clone() else {
                continue;
            };
            // Covers shards that raced into existence after the hint scan.
            let csr = new_csr
                .get_or_insert_with(|| Arc::new(CsrGraph::from_graph(&new_graph)))
                .clone();
            let sweep = rows.apply_mutations(new_graph.clone(), csr, &nets);
            invalidated += sweep.invalidated;
            repaired += sweep.repaired;
            if sweep.table_withdrawn {
                kinds_downgraded.push(kind);
            }
        }
        self.mutations.fetch_add(applied, Ordering::Relaxed);
        self.graph_version
            .fetch_add(effects.len(), Ordering::Relaxed);
        self.rows_invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
        self.rows_repaired.fetch_add(repaired, Ordering::Relaxed);
        BatchReport {
            outcomes,
            rows_invalidated: invalidated,
            rows_repaired: repaired,
            kinds_downgraded,
        }
    }

    /// Mutations successfully applied (no-op sign sets included).
    pub fn mutation_count(&self) -> usize {
        self.mutations.load(Ordering::Relaxed)
    }

    /// Version of the served graph: bumped only by mutations that changed
    /// it (unlike [`RelationStore::mutation_count`], which also counts
    /// no-op sign sets). The cache key for graph-derived state.
    pub fn graph_version(&self) -> usize {
        self.graph_version.load(Ordering::Relaxed)
    }

    /// Resident rows invalidated across all mutations.
    pub fn rows_invalidated_count(&self) -> usize {
        self.rows_invalidated.load(Ordering::Relaxed)
    }

    /// Resident rows kept by the repair pass across all mutations — rows
    /// the coarse frontier predicate would have dropped that were instead
    /// proved unchanged or patched in place.
    pub fn rows_repaired_count(&self) -> usize {
        self.rows_repaired.load(Ordering::Relaxed)
    }

    /// `true` when the shard for `kind` is initialised (its row store
    /// created, and filled if its plan says so).
    pub fn is_resident(&self, kind: CompatibilityKind) -> bool {
        self.shards[shard_index(kind)].read().is_some()
    }

    /// The kinds whose shards are initialised.
    pub fn cached_kinds(&self) -> Vec<CompatibilityKind> {
        CompatibilityKind::ALL
            .into_iter()
            .filter(|&k| self.is_resident(k))
            .collect()
    }

    /// Total fills performed — the exactly-once test hook: after any number
    /// of concurrent queries over `k` distinct kinds planned
    /// [`TierChoice::Matrix`] this must equal `k`.
    pub fn build_count(&self) -> usize {
        self.matrix_builds.load(Ordering::Relaxed)
    }

    /// Total per-source row computations across all shards (recomputations
    /// after eviction included; fills excluded).
    pub fn row_build_count(&self) -> usize {
        self.sum_rows(LazyCompatibility::build_count)
    }

    /// Total rows evicted across all shards.
    pub fn row_eviction_count(&self) -> usize {
        self.sum_rows(LazyCompatibility::eviction_count)
    }

    /// Rows currently resident across all shards.
    pub fn resident_row_count(&self) -> usize {
        self.sum_rows(LazyCompatibility::cached_rows)
    }

    /// Bytes currently held by resident rows across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.sum_rows(LazyCompatibility::resident_bytes)
    }

    fn sum_rows(&self, f: impl Fn(&LazyCompatibility) -> usize) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.read().as_deref().map(&f))
            .sum()
    }
}

/// One fetched relation: the kind's row store plus whether *this* fetch
/// ran its fill.
#[derive(Debug, Clone)]
pub struct FetchedRelation {
    rows: Arc<LazyCompatibility>,
    built_matrix: bool,
}

impl FetchedRelation {
    /// `true` iff this fetch ran the fill (callers that blocked on a
    /// concurrent fill see `false`).
    pub fn built_matrix(&self) -> bool {
        self.built_matrix
    }

    /// A per-query accounting scope: solve against [`RowTracker::compat`]
    /// and read back exactly the row builds this query performed.
    pub fn scope(&self) -> RowTracker<'_> {
        RowTracker::new(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signed_graph::builder::from_edge_triples;
    use signed_graph::{NodeId, Sign};
    use tfsn_core::compat::estimated_row_bytes;

    fn tiny_graph() -> Arc<SignedGraph> {
        Arc::new(from_edge_triples(vec![
            (0, 1, Sign::Positive),
            (1, 2, Sign::Negative),
            (0, 2, Sign::Positive),
        ]))
    }

    fn ring(n: usize) -> Arc<SignedGraph> {
        Arc::new(from_edge_triples(
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
        ))
    }

    #[test]
    fn matrix_tier_builds_are_memoized_per_kind() {
        let store = RelationStore::new(
            tiny_graph(),
            EngineConfig::default(),
            1,
            StorePolicy::materialized(),
        );
        assert_eq!(store.build_count(), 0);
        assert!(!store.is_resident(CompatibilityKind::Spa));
        let a = store.fetch(CompatibilityKind::Spa);
        assert!(a.built_matrix(), "first fetch performs the build");
        let b = store.fetch(CompatibilityKind::Spa);
        assert!(!b.built_matrix(), "second fetch reuses the matrix");
        assert_eq!(store.build_count(), 1);
        store.fetch(CompatibilityKind::Nne);
        assert_eq!(store.build_count(), 2);
        assert_eq!(
            store.cached_kinds(),
            vec![CompatibilityKind::Spa, CompatibilityKind::Nne]
        );
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn concurrent_same_kind_builds_once_and_one_caller_owns_it() {
        let store = RelationStore::new(
            ring(60),
            EngineConfig::default(),
            1,
            StorePolicy::materialized(),
        );
        let built_by = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10 {
                        if store.fetch(CompatibilityKind::Spo).built_matrix() {
                            built_by.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(store.build_count(), 1);
        assert_eq!(
            built_by.load(Ordering::Relaxed),
            1,
            "exactly one fetch across all 80 must report having built"
        );
    }

    #[test]
    fn auto_policy_tiers_by_budget() {
        let g = ring(60);
        let matrix_bytes = estimated_matrix_bytes(g.node_count());
        let generous = RelationStore::new(
            g.clone(),
            EngineConfig::default(),
            1,
            StorePolicy::auto(matrix_bytes),
        );
        assert_eq!(generous.tier(), TierChoice::Matrix);
        let tight = RelationStore::new(
            g.clone(),
            EngineConfig::default(),
            1,
            StorePolicy::auto(matrix_bytes - 1),
        );
        assert_eq!(tight.tier(), TierChoice::Rows);
        assert!(generous.fetch(CompatibilityKind::Spa).built_matrix());
        assert_eq!(generous.resident_row_count(), g.node_count());
        assert_eq!(generous.row_build_count(), 0, "a fill is no row build");
        let fetched = tight.fetch(CompatibilityKind::Spa);
        assert!(!fetched.built_matrix());
        assert_eq!(tight.build_count(), 0);
        assert_eq!(tight.resident_row_count(), 0, "rows fill on demand");
    }

    #[test]
    fn rows_tier_scope_attributes_builds_and_respects_budget() {
        let g = ring(40);
        let budget = 2 * estimated_row_bytes(g.node_count()) + 16;
        let store = RelationStore::new(
            g,
            EngineConfig::default(),
            1,
            StorePolicy::rows(Some(budget)),
        );
        let fetched = store.fetch(CompatibilityKind::Spo);
        let scope = fetched.scope();
        for u in 0..6 {
            scope
                .compat()
                .compatible(NodeId::new(u), NodeId::new((u + 3) % 40));
        }
        assert_eq!(scope.rows_built(), 6);
        assert!(store.row_build_count() >= 6);
        assert!(store.row_eviction_count() > 0, "tiny budget must evict");
        assert!(store.resident_bytes() <= budget);
        // A second scope over warm rows attributes nothing.
        let warm = fetched.scope();
        let hot = store.cached_kinds();
        assert_eq!(hot, vec![CompatibilityKind::Spo]);
        warm.compat().compatible(NodeId::new(5), NodeId::new(8));
        assert_eq!(warm.rows_built(), 0);
    }

    #[test]
    fn serving_mode_labels_round_trip() {
        for mode in [ServingMode::Auto, ServingMode::Matrix, ServingMode::Rows] {
            assert_eq!(ServingMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(ServingMode::parse("bogus"), None);
    }
}
