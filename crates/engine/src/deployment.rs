//! An immutable, query-ready deployment: the signed network plus the skill
//! assignment, loaded once and shared (behind `Arc` inside [`crate::Engine`])
//! by every concurrent query.

use std::sync::Arc;

use signed_graph::SignedGraph;
use tfsn_core::team::TfsnInstance;
use tfsn_core::TfsnError;
use tfsn_datasets::Dataset;
use tfsn_skills::assignment::SkillAssignment;
use tfsn_skills::SkillUniverse;

/// The static data a query engine serves: one signed network, one skill
/// universe, one per-user skill assignment. Immutable after construction —
/// compatibility state derived from it can be cached indefinitely. The
/// graph and the assignment are held behind `Arc` so the relation store
/// (its row caches, and the skill-pair counts keyed by the assignment) can
/// own a handle without borrowing the deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    name: String,
    graph: Arc<SignedGraph>,
    universe: SkillUniverse,
    skills: Arc<SkillAssignment>,
}

impl Deployment {
    /// Creates a deployment, validating that the graph and the skill
    /// assignment describe the same pool of users.
    pub fn new(
        name: impl Into<String>,
        graph: SignedGraph,
        universe: SkillUniverse,
        skills: SkillAssignment,
    ) -> Result<Self, TfsnError> {
        // Reuse the core validation (user-count agreement).
        TfsnInstance::try_new(&graph, &skills)?;
        Ok(Deployment {
            name: name.into(),
            graph: Arc::new(graph),
            universe,
            skills: Arc::new(skills),
        })
    }

    /// Wraps a dataset (synthetic emulation or loaded dump) as a deployment.
    pub fn from_dataset(dataset: Dataset) -> Self {
        Deployment {
            name: dataset.name,
            graph: Arc::new(dataset.graph),
            universe: dataset.universe,
            skills: Arc::new(dataset.skills),
        }
    }

    /// The deployment name (dataset name or custom).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signed network.
    pub fn graph(&self) -> &SignedGraph {
        &self.graph
    }

    /// A shared handle to the signed network, for owned relation stores.
    pub fn graph_arc(&self) -> Arc<SignedGraph> {
        self.graph.clone()
    }

    /// The skill universe.
    pub fn universe(&self) -> &SkillUniverse {
        &self.universe
    }

    /// The per-user skill assignment.
    pub fn skills(&self) -> &SkillAssignment {
        &self.skills
    }

    /// A shared handle to the skill assignment, for the relation store's
    /// skill-pair counts.
    pub(crate) fn skills_arc(&self) -> Arc<SkillAssignment> {
        self.skills.clone()
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of distinct skills.
    pub fn skill_count(&self) -> usize {
        self.skills.skill_count()
    }

    /// A borrowed TFSN problem instance over this deployment.
    pub fn instance(&self) -> TfsnInstance<'_> {
        TfsnInstance::new(&self.graph, &self.skills)
    }

    /// Table-1 style statistics of this deployment (exact diameter on small
    /// graphs, double-sweep estimate on large ones) — the dataset section of
    /// the protocol's `stats` operation.
    pub fn stats(&self) -> tfsn_datasets::DatasetStats {
        tfsn_datasets::DatasetStats::compute_parts(
            &self.name,
            &self.graph,
            &self.universe,
            &self.skills,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dataset_preserves_shape() {
        let d = tfsn_datasets::slashdot();
        let (nodes, skills) = (d.graph.node_count(), d.skills.skill_count());
        let dep = Deployment::from_dataset(d);
        assert_eq!(dep.name(), "Slashdot");
        assert_eq!(dep.user_count(), nodes);
        assert_eq!(dep.skill_count(), skills);
        assert_eq!(dep.instance().user_count(), nodes);
    }

    #[test]
    fn mismatched_parts_are_rejected() {
        let d = tfsn_datasets::slashdot();
        let wrong = SkillAssignment::new(d.skills.skill_count(), d.graph.node_count() + 1);
        assert!(Deployment::new("broken", d.graph, d.universe, wrong).is_err());
    }
}
