//! # tfsn-core
//!
//! The core library of the *Forming Compatible Teams in Signed Networks*
//! (Kouvatis, Semertzidis, Zerva, Pitoura, Tsaparas — EDBT 2020)
//! reproduction: user-compatibility relations over signed networks and
//! team-formation algorithms that respect them.
//!
//! ## The problem (paper §2)
//!
//! Given an undirected signed graph `G = (V, E)` (edges labelled `+1` /
//! `-1`), a skill function `skill(u) ⊆ S` and a task `T ⊆ S`, the **Team
//! Formation in Signed Networks (TFSN)** problem asks for a team `X ⊆ V`
//! such that
//!
//! 1. the team covers the task: `⋃_{u ∈ X} skill(u) ⊇ T`,
//! 2. every pair of members is *compatible*: `(u, v) ∈ Comp` for all
//!    `u, v ∈ X`, and
//! 3. the communication cost (the team diameter under a compatibility-aware
//!    distance) is minimised.
//!
//! TFSN is NP-hard: it contains the classic team-formation problem
//! (Lappas et al., KDD 2009) as the special case of an all-positive graph,
//! and the paper's Theorem 2.2 shows that even finding *any* compatible
//! covering team (TFSNC, dropping requirement 3) is NP-hard for every
//! compatibility relation that satisfies positive-edge compatibility and
//! negative-edge incompatibility. Consequently this crate provides greedy
//! heuristics (paper Algorithm 2) plus an exhaustive solver for small
//! instances used as ground truth in tests.
//!
//! ## Compatibility relations (paper §3)
//!
//! | Kind | Definition |
//! |------|------------|
//! | [`CompatibilityKind::Dpe`]  | direct positive edge |
//! | [`CompatibilityKind::Spa`]  | **all** shortest paths positive |
//! | [`CompatibilityKind::Spm`]  | **majority** of shortest paths positive |
//! | [`CompatibilityKind::Spo`]  | **at least one** shortest path positive |
//! | [`CompatibilityKind::Sbph`] | heuristic structurally-balanced positive path (prefix property) |
//! | [`CompatibilityKind::Sbp`]  | exact: some positive path whose induced subgraph is balanced |
//! | [`CompatibilityKind::Nne`]  | no direct negative edge |
//!
//! The SP-family is computed with the paper's **Algorithm 1** (a signed BFS
//! that counts positive and negative shortest paths), implemented in
//! [`compat::sp`]. The exact SBP relation and its heuristic live in
//! [`compat::sbp`] and [`compat::sbph`].
//!
//! ## Quick start
//!
//! ```
//! use signed_graph::{GraphBuilder, Sign, NodeId};
//! use tfsn_skills::{SkillUniverse, assignment::SkillAssignment, task::Task};
//! use tfsn_core::compat::{CompatibilityKind, CompatibilityMatrix};
//! use tfsn_core::team::{TfsnInstance, greedy::{GreedyConfig, solve_greedy}};
//! use tfsn_core::team::policies::TeamAlgorithm;
//!
//! // A tiny signed network: 0-1 friends, 1-2 foes, 0-2 friends, 2-3 friends.
//! let mut b = GraphBuilder::with_nodes(4);
//! b.add_edge(NodeId::new(0), NodeId::new(1), Sign::Positive).unwrap();
//! b.add_edge(NodeId::new(1), NodeId::new(2), Sign::Negative).unwrap();
//! b.add_edge(NodeId::new(0), NodeId::new(2), Sign::Positive).unwrap();
//! b.add_edge(NodeId::new(2), NodeId::new(3), Sign::Positive).unwrap();
//! let graph = b.build();
//!
//! // Skills.
//! let mut universe = SkillUniverse::new();
//! let db = universe.intern("databases");
//! let ml = universe.intern("ml");
//! let mut skills = SkillAssignment::new(universe.len(), 4);
//! skills.grant(0, db);
//! skills.grant(1, ml);
//! skills.grant(3, ml);
//!
//! // Compatibility under SPA and a greedy team for the task {db, ml}.
//! let comp = CompatibilityMatrix::build(&graph, CompatibilityKind::Spa);
//! let instance = TfsnInstance::new(&graph, &skills);
//! let task = Task::new([db, ml]);
//! let team = solve_greedy(&instance, &comp, &task,
//!                         TeamAlgorithm::LCMD, &GreedyConfig::default())
//!     .expect("a compatible team exists");
//! assert!(team.members().contains(&NodeId::new(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compat;
pub mod error;
pub mod skill_compat;
pub mod team;

pub use compat::{Compatibility, CompatibilityKind, CompatibilityMatrix};
pub use error::TfsnError;
pub use team::{Objective, Solver, Team, TfsnInstance};
