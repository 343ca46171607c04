//! The tiered relation store: per-[`CompatibilityKind`] shards, each served
//! either as a fully materialised [`CompatibilityMatrix`] (small graphs /
//! hot kinds) or as a memory-budgeted, row-level LRU cache of per-source
//! rows computed on demand ([`LazyCompatibility`]), chosen per kind by an
//! explicit [`StorePolicy`].
//!
//! Matrix construction is the dominant cost of serving a cold query
//! (`O(|V| · BFS)` for the SP family, worse for SBP) and matrix *residency*
//! is `O(|V|²)` — infeasible beyond a few tens of thousands of users. The
//! tiered store is what lets one engine serve both regimes: the first query
//! of a materialised kind pays the build and every later query is a lookup,
//! while row-mode kinds compute only the rows team formation touches and
//! stay within an explicit byte budget via LRU eviction.
//!
//! Accounting is exact under concurrency: [`RelationStore::fetch`] reports
//! whether *this call* performed the matrix build (concurrent callers block
//! on one build and see `false`), and row-mode queries attribute row
//! computations through a per-query [`RowTracker`] scope.
//!
//! ## Live mutations
//!
//! [`RelationStore::mutate`] applies one [`EdgeMutation`] to the deployment
//! without a reload: the graph is patched (see [`signed_graph::delta`]),
//! the shared CSR view is sign-patched in place for flips (rebuilt for
//! inserts/removals), and resident relation state is invalidated at the
//! finest sound granularity per kind
//! ([`tfsn_core::compat::InvalidationScope`]):
//!
//! * **row-tier shards** hand the rows whose BFS frontier can cross the
//!   touched edge to [`tfsn_core::compat::repair`], and drop only the rows
//!   it can neither prove unchanged nor patch (dirty-epoch per shard;
//!   cleared rows recompute on next fetch);
//! * **matrix-tier shards downgrade to the row tier** — the matrix's
//!   unaffected rows are migrated into a fresh row store and only the
//!   affected ones recompute lazily, instead of eagerly rebuilding an
//!   `O(|V|²)` matrix per mutation;
//! * SBPH/SBP have no sound per-row bound and fall back to a kind-level
//!   epoch bump (every resident row dropped).
//!
//! Mutations are serialized against each other; queries keep running
//! concurrently. Consistency granularity is the **row**: a query that
//! overlaps a mutation observes each row it touches from either side of
//! the mutation (a multi-row read — the SBPH/SBP symmetric closure, a
//! pair-distance min — may therefore mix the two for that instant), and
//! once `mutate` returns, every later query sees post-mutation state
//! exactly (the property the mutation proptests pin).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use signed_graph::csr::CsrGraph;
use signed_graph::delta::net_effects;
use signed_graph::{EdgeMutation, GraphError, MutationEffect, SignedGraph};
use tfsn_core::compat::repair::{repair_row, RepairOutcome, RepairScratch};
use tfsn_core::compat::{
    estimated_matrix_bytes, row_affected_by_edge, Compatibility, CompatibilityKind,
    CompatibilityMatrix, EngineConfig, InvalidationScope, LazyCompatibility, RowTracker,
};

/// Index of a kind in the shard array (kinds are a small closed set).
fn shard_index(kind: CompatibilityKind) -> usize {
    CompatibilityKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// How the store picks a serving tier for each relation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingMode {
    /// Per kind: materialise the full matrix when it fits the memory
    /// budget, fall back to row-mode otherwise. Without a budget this
    /// always materialises (the pre-tiered behaviour).
    #[default]
    Auto,
    /// Always materialise the full matrix, ignoring the budget.
    Matrix,
    /// Always serve budget-capped LRU rows, even on small graphs.
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
    /// Tier selection strategy.
    pub mode: ServingMode,
    /// Resident-byte cap **per relation kind** (`None` = unbounded). In
    /// `Auto` mode this decides materialise-vs-rows; in `Rows` mode it caps
    /// the LRU row cache.
    pub memory_budget: Option<usize>,
}

impl StorePolicy {
    /// The pre-tiered behaviour: every kind fully materialised, no budget.
    pub fn materialized() -> Self {
        StorePolicy {
            mode: ServingMode::Matrix,
            memory_budget: None,
        }
    }

    /// Row-mode serving for every kind under `memory_budget` bytes.
    pub fn rows(memory_budget: Option<usize>) -> Self {
        StorePolicy {
            mode: ServingMode::Rows,
            memory_budget,
        }
    }

    /// Auto tiering under a budget: materialise what fits, row-serve what
    /// does not.
    pub fn auto(memory_budget: usize) -> Self {
        StorePolicy {
            mode: ServingMode::Auto,
            memory_budget: Some(memory_budget),
        }
    }

    /// The tier this policy assigns to a relation over `nodes` users.
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

/// The serving tier a kind is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierChoice {
    /// Fully materialised `O(|V|²)` matrix.
    Matrix,
    /// Budget-capped LRU row cache.
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

/// One shard's resident state.
#[derive(Debug, Clone)]
enum Tier {
    Matrix(Arc<CompatibilityMatrix>),
    Rows(Arc<LazyCompatibility>),
}

/// The graph snapshot shards are built from: the current (possibly
/// mutated) graph plus the lazily-built CSR view shared by every row-tier
/// shard. One lock holds both so a build can never pair a new graph with a
/// stale CSR.
#[derive(Debug)]
struct GraphState {
    graph: Arc<SignedGraph>,
    /// Built on the first row-tier shard and shared by all of them — it is
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
    /// Resident rows dropped across all shards (matrix rows not migrated
    /// by a downgrade included).
    pub rows_invalidated: usize,
    /// Resident rows the repair pass kept (proved unchanged or patched in
    /// place) that the coarse frontier predicate alone would have dropped.
    pub rows_repaired: usize,
    /// Matrix-tier kinds downgraded to the row tier by this mutation.
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
    /// Matrix-tier kinds downgraded to the row tier by this batch.
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

/// The tiered, build-once relation store.
#[derive(Debug)]
pub struct RelationStore {
    state: RwLock<GraphState>,
    /// Node count, fixed for the store's lifetime (mutations are edge-level).
    nodes: usize,
    cfg: EngineConfig,
    build_threads: usize,
    policy: StorePolicy,
    shards: [RwLock<Option<Tier>>; CompatibilityKind::ALL.len()],
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
}

impl RelationStore {
    /// Creates an empty store over `graph` that builds relations with `cfg`
    /// using `build_threads` worker threads (0 = available parallelism) and
    /// assigns tiers according to `policy`.
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
        }
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

    /// The tier this store's *policy* assigns to `kind` — the serving plan.
    /// A mutation can downgrade an already-resident matrix shard to the row
    /// tier at runtime; [`RelationStore::resident_tier`] reports the live
    /// state.
    pub fn tier_for(&self, _kind: CompatibilityKind) -> TierChoice {
        self.policy.tier_for(self.nodes)
    }

    /// The tier `kind` is actually resident in right now, if initialised.
    pub fn resident_tier(&self, kind: CompatibilityKind) -> Option<TierChoice> {
        self.shards[shard_index(kind)]
            .read()
            .as_ref()
            .map(|tier| match tier {
                Tier::Matrix(_) => TierChoice::Matrix,
                Tier::Rows(_) => TierChoice::Rows,
            })
    }

    /// The shared CSR view of the served graph, once a row-tier shard (or
    /// a mutation sweep) has built it.
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

    /// Returns the relation for `kind`, building (matrix tier) or creating
    /// (rows tier) it on first use. Concurrent callers for the same kind
    /// block on one initialisation; exactly one of them observes
    /// [`FetchedRelation::built_matrix`] — the hook that keeps hit/miss
    /// accounting exact when N cold queries race on one kind.
    pub fn fetch(&self, kind: CompatibilityKind) -> FetchedRelation {
        let shard = &self.shards[shard_index(kind)];
        if let Some(tier) = shard.read().clone() {
            return FetchedRelation {
                tier,
                built_matrix: false,
            };
        }
        let mut guard = shard.write();
        if let Some(tier) = guard.clone() {
            // Raced another initialiser: it built, we reuse.
            return FetchedRelation {
                tier,
                built_matrix: false,
            };
        }
        let mut built_matrix = false;
        let tier = match self.tier_for(kind) {
            TierChoice::Matrix => {
                let graph = self.graph();
                built_matrix = true;
                self.matrix_builds.fetch_add(1, Ordering::Relaxed);
                Tier::Matrix(Arc::new(CompatibilityMatrix::build_parallel(
                    &graph,
                    kind,
                    &self.cfg,
                    self.build_threads,
                )))
            }
            TierChoice::Rows => {
                let (graph, csr) = self.graph_and_csr();
                Tier::Rows(Arc::new(LazyCompatibility::with_shared_csr(
                    graph,
                    csr,
                    kind,
                    self.cfg.clone(),
                    self.policy.memory_budget,
                )))
            }
        };
        *guard = Some(tier.clone());
        FetchedRelation { tier, built_matrix }
    }

    /// Applies one edge mutation to the live deployment: patches the graph,
    /// refreshes the shared CSR (in-place sign patch for flips, rebuild for
    /// inserts/removals), and invalidates resident relation state per kind
    /// (see the module docs). Mutations serialize against each other;
    /// concurrent queries keep answering, observing each row they touch
    /// from either side of the mutation (row-granular consistency — see
    /// the module docs).
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
    /// Rows only ever see the batch as a whole, so the CSR refresh, the
    /// sweep and the matrix downgrade run on its **net** effects
    /// ([`signed_graph::delta::net_effects`]): one per touched edge, with a
    /// remove plus same-sign re-insert cancelled out. A batch whose nets
    /// are empty still publishes the new graph, but keeps the CSR and every
    /// resident shard — SBPH/SBP rows and matrix tiers included. Outcomes
    /// and counters stay per mutation.
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
        // A CSR is needed by every shard that is — or is about to become —
        // row-served. The scan is only a hint: a shard can be initialised
        // concurrently between it and the invalidation loop below, so the
        // loop builds the CSR on demand if the hint was stale.
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
        let mut scratch = RepairScratch::default();
        for (i, &kind) in CompatibilityKind::ALL.iter().enumerate() {
            let mut guard = self.shards[i].write();
            let Some(tier) = guard.clone() else {
                continue;
            };
            // Covers shards that raced into existence after the hint scan.
            let csr = new_csr
                .get_or_insert_with(|| Arc::new(CsrGraph::from_graph(&new_graph)))
                .clone();
            match tier {
                Tier::Rows(rows) => {
                    let (inv, rep) = rows.apply_mutations(new_graph.clone(), csr, &nets);
                    invalidated += inv;
                    repaired += rep;
                }
                Tier::Matrix(matrix) => {
                    // Downgrade instead of rebuilding O(|V|²) eagerly: the
                    // matrix's unaffected rows migrate into a fresh row
                    // store (they are per-source-exact for every kind whose
                    // scope is not WholeKind), affected-but-patchable rows
                    // migrate *repaired*, and only rows repair rejects
                    // recompute lazily on next fetch.
                    let lazy = LazyCompatibility::with_shared_csr(
                        new_graph.clone(),
                        csr.clone(),
                        kind,
                        self.cfg.clone(),
                        self.policy.memory_budget,
                    );
                    if InvalidationScope::of(kind) != InvalidationScope::WholeKind {
                        for row in matrix.rows() {
                            // Stop once the budget is full: seeding past it
                            // would only evict earlier seeds (O(N) churn for
                            // a migration that can retain nothing more).
                            // Reachable when forced Matrix mode ignored a
                            // budget smaller than the matrix at build time.
                            if self.policy.memory_budget.is_some_and(|budget| {
                                lazy.resident_bytes() + tfsn_core::compat::row_bytes(row) > budget
                            }) {
                                break;
                            }
                            let affected = nets.iter().any(|e| row_affected_by_edge(row, e.u, e.v));
                            if !affected {
                                lazy.seed_row(Arc::new(row.clone()));
                                continue;
                            }
                            match repair_row(row, &nets, &csr, &mut scratch) {
                                RepairOutcome::Unchanged => {
                                    if lazy.seed_row(Arc::new(row.clone())) {
                                        repaired += 1;
                                    }
                                }
                                RepairOutcome::Repaired(patched) => {
                                    if lazy.seed_row(Arc::new(patched)) {
                                        repaired += 1;
                                    }
                                }
                                RepairOutcome::MustRecompute => {}
                            }
                        }
                    }
                    // Count what actually survived migration, not what was
                    // offered — seeds can evict earlier seeds under a tight
                    // budget, and every non-resident row must recompute.
                    invalidated += matrix.node_count() - lazy.cached_rows();
                    kinds_downgraded.push(kind);
                    *guard = Some(Tier::Rows(Arc::new(lazy)));
                }
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

    /// `true` when the shard for `kind` is initialised (matrix built, or
    /// row store created).
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

    /// Total full-matrix builds performed — the exactly-once test hook:
    /// after any number of concurrent matrix-tier queries over `k` distinct
    /// kinds this must equal `k`.
    pub fn build_count(&self) -> usize {
        self.matrix_builds.load(Ordering::Relaxed)
    }

    /// Total per-source row computations across all row-tier shards
    /// (recomputations after eviction included).
    pub fn row_build_count(&self) -> usize {
        self.fold_rows(0, |acc, rows| acc + rows.build_count())
    }

    /// Total rows evicted across all row-tier shards.
    pub fn row_eviction_count(&self) -> usize {
        self.fold_rows(0, |acc, rows| acc + rows.eviction_count())
    }

    /// Rows currently resident across all row-tier shards — the gauge the
    /// bit-packed row layout moves: the same `--memory-budget` holds ~8×
    /// more rows than the unpacked 9-bytes-per-node layout did.
    pub fn resident_row_count(&self) -> usize {
        self.fold_rows(0, |acc, rows| acc + rows.cached_rows())
    }

    /// Bytes currently resident across all shards: estimated footprint of
    /// materialised matrices plus exact resident row bytes.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match &*s.read() {
                Some(Tier::Matrix(m)) => estimated_matrix_bytes(m.node_count()),
                Some(Tier::Rows(rows)) => rows.resident_bytes(),
                None => 0,
            })
            .sum()
    }

    fn fold_rows<T>(&self, init: T, f: impl Fn(T, &LazyCompatibility) -> T) -> T {
        self.shards.iter().fold(init, |acc, s| match &*s.read() {
            Some(Tier::Rows(rows)) => f(acc, rows),
            _ => acc,
        })
    }
}

/// One fetched relation: the tier handle plus whether *this* fetch
/// performed the matrix build.
#[derive(Debug, Clone)]
pub struct FetchedRelation {
    tier: Tier,
    built_matrix: bool,
}

impl FetchedRelation {
    /// `true` iff this fetch ran the matrix build (matrix tier only;
    /// callers that blocked on a concurrent build see `false`).
    pub fn built_matrix(&self) -> bool {
        self.built_matrix
    }

    /// `true` when the relation is served from the row tier.
    pub fn is_rows(&self) -> bool {
        matches!(self.tier, Tier::Rows(_))
    }

    /// A per-query accounting scope: solve against [`RelationScope::compat`]
    /// and read back exactly the row builds this query performed.
    pub fn scope(&self) -> RelationScope<'_> {
        match &self.tier {
            Tier::Matrix(m) => RelationScope::Matrix(m),
            Tier::Rows(rows) => RelationScope::Rows(RowTracker::new(rows)),
        }
    }
}

/// The per-query compatibility view handed to the solver.
pub enum RelationScope<'a> {
    /// Materialised matrix: plain lookups.
    Matrix(&'a CompatibilityMatrix),
    /// Row tier: a tracker that counts the row builds this query performs.
    Rows(RowTracker<'a>),
}

impl RelationScope<'_> {
    /// The compatibility oracle to solve against.
    pub fn compat(&self) -> &dyn Compatibility {
        match self {
            RelationScope::Matrix(m) => *m,
            RelationScope::Rows(tracker) => tracker,
        }
    }

    /// Row computations performed through this scope (0 for matrix tier).
    pub fn rows_built(&self) -> usize {
        match self {
            RelationScope::Matrix(_) => 0,
            RelationScope::Rows(tracker) => tracker.rows_built(),
        }
    }

    /// Time this scope spent computing rows, in microseconds.
    pub fn row_build_micros(&self) -> u64 {
        match self {
            RelationScope::Matrix(_) => 0,
            RelationScope::Rows(tracker) => tracker.build_micros(),
        }
    }

    /// Time this scope spent blocked on *other* queries' in-flight row
    /// builds, in microseconds (0 for matrix tier). Booked as build-wait
    /// phase time, not solver time.
    pub fn row_wait_micros(&self) -> u64 {
        match self {
            RelationScope::Matrix(_) => 0,
            RelationScope::Rows(tracker) => tracker.wait_micros(),
        }
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
        assert_eq!(
            generous.tier_for(CompatibilityKind::Spa),
            TierChoice::Matrix
        );
        let tight = RelationStore::new(
            g.clone(),
            EngineConfig::default(),
            1,
            StorePolicy::auto(matrix_bytes - 1),
        );
        assert_eq!(tight.tier_for(CompatibilityKind::Spa), TierChoice::Rows);
        let fetched = tight.fetch(CompatibilityKind::Spa);
        assert!(fetched.is_rows());
        assert!(!fetched.built_matrix());
        assert_eq!(tight.build_count(), 0);
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
