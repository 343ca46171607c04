//! Figure 2 — team-formation experiments.
//!
//! * **Panel (a)** — percentage of tasks (k = 5) for which each algorithm
//!   (LCMD, LCMC, RANDOM) finds a compatible team, per compatibility
//!   relation, together with the MAX upper bound (tasks whose skills are
//!   pairwise compatible).
//! * **Panel (b)** — average diameter (communication cost) of the teams each
//!   algorithm finds.
//! * **Panels (c) / (d)** — the same two metrics for LCMD while sweeping the
//!   task size k.
//! * **Policy ablation** (extension, [`Figure2Report::policy_ablation`]) — all four
//!   skill × user policy combinations plus RANDOM, quantifying how much the
//!   skill-selection policy matters relative to the user-selection policy.

use serde::{Deserialize, Serialize};
use tfsn_core::compat::{CompatibilityKind, CompatibilityMatrix, EngineConfig};
use tfsn_core::skill_compat::SkillPairCompatibility;
use tfsn_core::team::policies::TeamAlgorithm;
use tfsn_core::team::solver::Solver;
use tfsn_core::team::TfsnInstance;
use tfsn_datasets::Dataset;
use tfsn_skills::task::Task;
use tfsn_skills::taskgen::random_coverable_tasks;

use crate::config::ExperimentConfig;
use crate::report::{fmt_float, fmt_pct, TextTable};

/// Aggregate outcome of one (relation, algorithm, task-size) workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeamFormationOutcome {
    /// Compatibility relation.
    pub kind: CompatibilityKind,
    /// Team-formation algorithm label ("LCMD", "LCMC", "RANDOM", …).
    pub algorithm: String,
    /// Task size k.
    pub task_size: usize,
    /// Number of tasks attempted.
    pub tasks: usize,
    /// Number of tasks for which a compatible team was found.
    pub solved: usize,
    /// Percentage of tasks solved (0–100).
    pub solved_pct: f64,
    /// Mean diameter of the found teams (NaN when none was found).
    pub mean_diameter: f64,
    /// Mean team size of the found teams (NaN when none was found).
    pub mean_team_size: f64,
}

/// The MAX upper bound of Figure 2(a): tasks whose skills are pairwise
/// compatible under the relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxBound {
    /// Compatibility relation.
    pub kind: CompatibilityKind,
    /// Percentage of tasks that are skill-compatible (0–100).
    pub skill_compatible_pct: f64,
}

/// The regenerated Figure 2 (all four panels) plus the policy ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure2Report {
    /// Dataset the experiment ran on (Epinions in the paper).
    pub dataset: String,
    /// Panel (a)/(b): per relation × algorithm outcomes at the default k.
    pub by_algorithm: Vec<TeamFormationOutcome>,
    /// Panel (a): the MAX upper bound per relation.
    pub max_bounds: Vec<MaxBound>,
    /// Panels (c)/(d): LCMD outcomes per relation × task size.
    pub by_task_size: Vec<TeamFormationOutcome>,
    /// Ablation: all policy combinations at the default k.
    pub policy_ablation: Vec<TeamFormationOutcome>,
}

impl Figure2Report {
    /// Looks up a panel (a)/(b) outcome.
    pub fn algorithm_outcome(
        &self,
        kind: CompatibilityKind,
        algorithm: &str,
    ) -> Option<&TeamFormationOutcome> {
        self.by_algorithm
            .iter()
            .find(|o| o.kind == kind && o.algorithm == algorithm)
    }

    /// Looks up a panel (c)/(d) outcome.
    pub fn task_size_outcome(
        &self,
        kind: CompatibilityKind,
        task_size: usize,
    ) -> Option<&TeamFormationOutcome> {
        self.by_task_size
            .iter()
            .find(|o| o.kind == kind && o.task_size == task_size)
    }

    /// Renders all panels as text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Dataset: {}\n\n", self.dataset));

        out.push_str("Figure 2(a) — % of tasks with a compatible team\n");
        let mut algorithms: Vec<String> = Vec::new();
        for o in &self.by_algorithm {
            if !algorithms.contains(&o.algorithm) {
                algorithms.push(o.algorithm.clone());
            }
        }
        let kinds = self.kinds(&self.by_algorithm);
        let mut header = vec!["relation".to_string()];
        header.extend(algorithms.iter().cloned());
        header.push("MAX".to_string());
        let mut ta = TextTable::new(header.clone());
        let mut tb = TextTable::new({
            let mut h = vec!["relation".to_string()];
            h.extend(algorithms.iter().cloned());
            h
        });
        for &kind in &kinds {
            let mut row_a = vec![kind.label().to_string()];
            let mut row_b = vec![kind.label().to_string()];
            for alg in &algorithms {
                match self.algorithm_outcome(kind, alg) {
                    Some(o) => {
                        row_a.push(fmt_pct(o.solved_pct));
                        row_b.push(fmt_float(o.mean_diameter, 2));
                    }
                    None => {
                        row_a.push("–".into());
                        row_b.push("–".into());
                    }
                }
            }
            let max = self
                .max_bounds
                .iter()
                .find(|m| m.kind == kind)
                .map(|m| fmt_pct(m.skill_compatible_pct))
                .unwrap_or_else(|| "–".into());
            row_a.push(max);
            ta.row(row_a);
            tb.row(row_b);
        }
        out.push_str(&ta.render());
        out.push_str("\nFigure 2(b) — average team diameter\n");
        out.push_str(&tb.render());

        out.push_str("\nFigure 2(c) — % solved vs task size (LCMD)\n");
        let sizes = self.task_sizes();
        let mut header = vec!["relation".to_string()];
        header.extend(sizes.iter().map(|s| format!("k={s}")));
        let mut tc = TextTable::new(header.clone());
        let mut td = TextTable::new(header);
        for &kind in &self.kinds(&self.by_task_size) {
            let mut row_c = vec![kind.label().to_string()];
            let mut row_d = vec![kind.label().to_string()];
            for &size in &sizes {
                match self.task_size_outcome(kind, size) {
                    Some(o) => {
                        row_c.push(fmt_pct(o.solved_pct));
                        row_d.push(fmt_float(o.mean_diameter, 2));
                    }
                    None => {
                        row_c.push("–".into());
                        row_d.push("–".into());
                    }
                }
            }
            tc.row(row_c);
            td.row(row_d);
        }
        out.push_str(&tc.render());
        out.push_str("\nFigure 2(d) — average diameter vs task size (LCMD)\n");
        out.push_str(&td.render());

        if !self.policy_ablation.is_empty() {
            out.push_str("\nPolicy ablation — % solved / diameter per policy combination\n");
            let mut t = TextTable::new(["relation", "algorithm", "% solved", "diameter"]);
            for o in &self.policy_ablation {
                t.row([
                    o.kind.label().to_string(),
                    o.algorithm.clone(),
                    fmt_pct(o.solved_pct),
                    fmt_float(o.mean_diameter, 2),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }

    fn kinds(&self, outcomes: &[TeamFormationOutcome]) -> Vec<CompatibilityKind> {
        let mut kinds = Vec::new();
        for o in outcomes {
            if !kinds.contains(&o.kind) {
                kinds.push(o.kind);
            }
        }
        kinds
    }

    fn task_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = Vec::new();
        for o in &self.by_task_size {
            if !sizes.contains(&o.task_size) {
                sizes.push(o.task_size);
            }
        }
        sizes.sort_unstable();
        sizes
    }
}

/// Runs one (relation, algorithm) workload over a list of tasks.
pub fn run_workload(
    dataset: &Dataset,
    comp: &CompatibilityMatrix,
    tasks: &[Task],
    algorithm: TeamAlgorithm,
    config: &ExperimentConfig,
) -> TeamFormationOutcome {
    use tfsn_core::compat::Compatibility;
    let instance = TfsnInstance::new(&dataset.graph, &dataset.skills);
    // Route through the Solver dispatch — the same entry point the
    // tfsn-engine serving layer uses — instead of calling solve_greedy
    // directly.
    let solver = Solver::Greedy {
        algorithm,
        config: config.greedy(),
    };
    let mut solved = 0usize;
    let mut diameter_sum = 0u64;
    let mut size_sum = 0u64;
    for task in tasks {
        if let Ok(team) = solver.solve(&instance, comp, task) {
            solved += 1;
            diameter_sum += u64::from(team.diameter(comp).unwrap_or(0));
            size_sum += team.len() as u64;
        }
    }
    let task_size = tasks.first().map(Task::len).unwrap_or(0);
    TeamFormationOutcome {
        kind: comp.kind(),
        algorithm: algorithm.label().to_string(),
        task_size,
        tasks: tasks.len(),
        solved,
        solved_pct: if tasks.is_empty() {
            0.0
        } else {
            100.0 * solved as f64 / tasks.len() as f64
        },
        mean_diameter: if solved == 0 {
            f64::NAN
        } else {
            diameter_sum as f64 / solved as f64
        },
        mean_team_size: if solved == 0 {
            f64::NAN
        } else {
            size_sum as f64 / solved as f64
        },
    }
}

/// Runs the full Figure 2 experiment on a given dataset.
pub fn run_on(dataset: &Dataset, config: &ExperimentConfig) -> Figure2Report {
    let engine = EngineConfig::default();
    let kinds = config.evaluated_kinds();

    // Build one matrix per relation (shared by all panels).
    let matrices: Vec<CompatibilityMatrix> = kinds
        .iter()
        .map(|&k| CompatibilityMatrix::build_parallel(&dataset.graph, k, &engine, config.threads))
        .collect();

    // Panel (a)/(b) workload: default task size.
    let default_tasks = random_coverable_tasks(
        &dataset.skills,
        config.default_task_size,
        config.tasks_per_size,
        config.seed ^ 0xF16_2AB,
    );

    let mut by_algorithm = Vec::new();
    let mut policy_ablation = Vec::new();
    let mut max_bounds = Vec::new();
    for comp in &matrices {
        for alg in TeamAlgorithm::FIGURE2 {
            by_algorithm.push(run_workload(dataset, comp, &default_tasks, alg, config));
        }
        for alg in TeamAlgorithm::ALL {
            policy_ablation.push(run_workload(dataset, comp, &default_tasks, alg, config));
        }
        let pairs = SkillPairCompatibility::from_rows(comp.rows(), &dataset.skills);
        let compatible_tasks = default_tasks
            .iter()
            .filter(|t| pairs.task_is_skill_compatible(t))
            .count();
        max_bounds.push(MaxBound {
            kind: {
                use tfsn_core::compat::Compatibility;
                comp.kind()
            },
            skill_compatible_pct: if default_tasks.is_empty() {
                0.0
            } else {
                100.0 * compatible_tasks as f64 / default_tasks.len() as f64
            },
        });
    }

    // Panels (c)/(d): task-size sweep with LCMD.
    let mut by_task_size = Vec::new();
    for &size in &config.task_sizes {
        let tasks = random_coverable_tasks(
            &dataset.skills,
            size,
            config.tasks_per_size,
            config.seed ^ (0xC0FFEE + size as u64),
        );
        for comp in &matrices {
            by_task_size.push(run_workload(
                dataset,
                comp,
                &tasks,
                TeamAlgorithm::LCMD,
                config,
            ));
        }
    }

    Figure2Report {
        dataset: dataset.name.clone(),
        by_algorithm,
        max_bounds,
        by_task_size,
        policy_ablation,
    }
}

/// Runs Figure 2 on the Epinions emulation (as in the paper).
pub fn run(config: &ExperimentConfig) -> Figure2Report {
    let dataset = tfsn_datasets::epinions(config.epinions_scale);
    run_on(&dataset, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape() {
        let cfg = ExperimentConfig::quick();
        let report = run(&cfg);
        let kinds = cfg.evaluated_kinds().len();
        assert_eq!(
            report.by_algorithm.len(),
            kinds * TeamAlgorithm::FIGURE2.len()
        );
        assert_eq!(
            report.policy_ablation.len(),
            kinds * TeamAlgorithm::ALL.len()
        );
        assert_eq!(report.max_bounds.len(), kinds);
        assert_eq!(report.by_task_size.len(), kinds * cfg.task_sizes.len());
        for o in report.by_algorithm.iter().chain(&report.by_task_size) {
            assert!(o.solved <= o.tasks);
            assert!(o.solved_pct >= 0.0 && o.solved_pct <= 100.0);
            if o.solved > 0 {
                assert!(o.mean_diameter >= 0.0);
                assert!(o.mean_team_size >= 1.0);
            }
        }
        // The MAX bound is monotone in the relation relaxation: every task
        // whose skills are pairwise SPA-compatible is also pairwise
        // NNE-compatible (a guaranteed consequence of the containment
        // lattice, unlike the greedy solve rates which are heuristic).
        let spa_max = report
            .max_bounds
            .iter()
            .find(|m| m.kind == CompatibilityKind::Spa)
            .unwrap()
            .skill_compatible_pct;
        let nne_max = report
            .max_bounds
            .iter()
            .find(|m| m.kind == CompatibilityKind::Nne)
            .unwrap()
            .skill_compatible_pct;
        assert!(
            spa_max <= nne_max + 1e-9,
            "SPA MAX {spa_max}% > NNE MAX {nne_max}%"
        );
        let rendered = report.render();
        assert!(rendered.contains("Figure 2(a)"));
        assert!(rendered.contains("Figure 2(d)"));
        assert!(rendered.contains("Policy ablation"));
    }
}
