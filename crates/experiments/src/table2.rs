//! Table 2 — comparison of the compatibility relations.
//!
//! For every dataset and relation the paper reports (a) the percentage of
//! compatible user pairs, (b) the percentage of compatible skill pairs and
//! (c) the average distance between compatible users. The exact SBP relation
//! is computed only on Slashdot (as in the paper), alongside the SBP-vs-SBPH
//! agreement figure quoted in the text (~2.5 % difference) and, as an
//! extension, the same figure for wider SBPH beams ([`SBPH_WIDTHS`]).

use serde::{Deserialize, Serialize};
use tfsn_core::compat::{CompatibilityKind, CompatibilityMatrix, EngineConfig};
use tfsn_core::skill_compat::SkillPairCompatibility;
use tfsn_datasets::Dataset;

use crate::config::ExperimentConfig;
use crate::report::{fmt_float, fmt_pct, TextTable};
use crate::table1::datasets;

/// One cell group of Table 2: a dataset × relation measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Entry {
    /// Dataset name.
    pub dataset: String,
    /// Compatibility relation.
    pub kind: CompatibilityKind,
    /// Percentage of compatible user pairs (0–100).
    pub compatible_users_pct: f64,
    /// Percentage of compatible skill pairs (0–100).
    pub compatible_skills_pct: f64,
    /// Average relation distance between compatible users.
    pub avg_distance: f64,
}

/// The SBPH beam widths swept against exact SBP on Slashdot. Width 1 is
/// the paper's single-prefix heuristic, the SBPH of [`Table2Entry`].
pub const SBPH_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// SBPH at one beam width on Slashdot, against exact SBP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SbphWidthEntry {
    /// Balanced path prefixes kept per node and path sign
    /// (`EngineConfig::sbph_width`).
    pub width: usize,
    /// Percentage of compatible user pairs (0–100).
    pub compatible_users_pct: f64,
    /// [`disagreement_pct`] against the exact-SBP relation (0–100).
    pub disagreement_pct: f64,
}

/// The regenerated Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Report {
    /// All dataset × relation entries.
    pub entries: Vec<Table2Entry>,
    /// Fraction (0–100) of node pairs on which exact SBP and heuristic SBPH
    /// disagree on Slashdot (the paper reports ≈ 2.5 %). `None` when the
    /// exact relation was not computed.
    pub sbp_sbph_disagreement_pct: Option<f64>,
    /// One entry per [`SBPH_WIDTHS`] width on Slashdot; empty when the
    /// exact relation was not computed.
    pub sbph_width_sweep: Vec<SbphWidthEntry>,
}

impl Table2Report {
    /// The entry for a given dataset and relation, if present.
    pub fn entry(&self, dataset: &str, kind: CompatibilityKind) -> Option<&Table2Entry> {
        self.entries
            .iter()
            .find(|e| e.dataset == dataset && e.kind == kind)
    }

    /// Renders the report as an aligned text table (one row per dataset and
    /// metric, one column per relation — the paper's layout).
    pub fn render(&self) -> String {
        let kinds: Vec<CompatibilityKind> = {
            let mut k = vec![
                CompatibilityKind::Spa,
                CompatibilityKind::Spm,
                CompatibilityKind::Spo,
                CompatibilityKind::Sbph,
            ];
            if self
                .entries
                .iter()
                .any(|e| e.kind == CompatibilityKind::Sbp)
            {
                k.push(CompatibilityKind::Sbp);
            }
            k.push(CompatibilityKind::Nne);
            k
        };
        let mut header = vec!["dataset".to_string(), "metric".to_string()];
        header.extend(kinds.iter().map(|k| k.label().to_string()));
        let mut t = TextTable::new(header);
        let datasets: Vec<String> = {
            let mut names = Vec::new();
            for e in &self.entries {
                if !names.contains(&e.dataset) {
                    names.push(e.dataset.clone());
                }
            }
            names
        };
        for dataset in &datasets {
            for (metric, f) in [
                ("comp. users %", 0usize),
                ("comp. skills %", 1),
                ("avg distance", 2),
            ] {
                let mut row = vec![dataset.clone(), metric.to_string()];
                for &kind in &kinds {
                    let cell = match self.entry(dataset, kind) {
                        Some(e) => match f {
                            0 => fmt_pct(e.compatible_users_pct),
                            1 => fmt_pct(e.compatible_skills_pct),
                            _ => fmt_float(e.avg_distance, 2),
                        },
                        None => "–".to_string(),
                    };
                    row.push(cell);
                }
                t.row(row);
            }
        }
        let mut out = t.render();
        if let Some(diff) = self.sbp_sbph_disagreement_pct {
            out.push_str(&format!(
                "\nSBP vs SBPH disagreement on Slashdot: {:.2}% of node pairs\n",
                diff
            ));
        }
        if !self.sbph_width_sweep.is_empty() {
            out.push_str("\nSBPH width sweep on Slashdot, against exact SBP\n");
            let mut t = TextTable::new(["width", "comp. users %", "disagreement %"]);
            for w in &self.sbph_width_sweep {
                t.row([
                    w.width.to_string(),
                    fmt_pct(w.compatible_users_pct),
                    fmt_float(w.disagreement_pct, 3),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

fn entry_from_matrix(
    dataset: &Dataset,
    kind: CompatibilityKind,
    matrix: &CompatibilityMatrix,
) -> Table2Entry {
    let pairs = SkillPairCompatibility::from_rows(matrix.rows(), &dataset.skills);
    Table2Entry {
        dataset: dataset.name.clone(),
        kind,
        compatible_users_pct: 100.0 * matrix.compatible_pair_fraction(),
        compatible_skills_pct: 100.0 * pairs.compatible_pair_fraction(&dataset.skills),
        avg_distance: matrix.mean_compatible_distance().unwrap_or(f64::NAN),
    }
}

/// Runs the Table 2 experiment over all three dataset emulations.
pub fn run(config: &ExperimentConfig) -> Table2Report {
    let engine = EngineConfig::default();
    let mut entries = Vec::new();
    let mut sweep = Vec::new();

    for dataset in datasets(config) {
        let build = |kind, engine: &EngineConfig| {
            CompatibilityMatrix::build_parallel(&dataset.graph, kind, engine, config.threads)
        };
        // Exact SBP (and the SBPH comparison against it) on Slashdot only.
        let sbp = (dataset.name == "Slashdot" && config.sbp_exact_on_slashdot)
            .then(|| build(CompatibilityKind::Sbp, &engine));
        for kind in config.evaluated_kinds() {
            let matrix = build(kind, &engine);
            entries.push(entry_from_matrix(&dataset, kind, &matrix));
            if let (CompatibilityKind::Sbph, Some(sbp)) = (kind, &sbp) {
                for width in SBPH_WIDTHS {
                    let wider;
                    let sbph = if width == engine.sbph_width {
                        &matrix
                    } else {
                        wider = build(
                            kind,
                            &EngineConfig {
                                sbph_width: width,
                                ..engine.clone()
                            },
                        );
                        &wider
                    };
                    sweep.push(SbphWidthEntry {
                        width,
                        compatible_users_pct: 100.0 * sbph.compatible_pair_fraction(),
                        disagreement_pct: disagreement_pct(sbp, sbph),
                    });
                }
            }
        }
        if let Some(sbp) = &sbp {
            entries.push(entry_from_matrix(&dataset, CompatibilityKind::Sbp, sbp));
        }
    }

    Table2Report {
        entries,
        sbp_sbph_disagreement_pct: sweep
            .iter()
            .find(|w| w.width == engine.sbph_width)
            .map(|w| w.disagreement_pct),
        sbph_width_sweep: sweep,
    }
}

/// Percentage of distinct node pairs on which the two relations disagree.
pub fn disagreement_pct(a: &CompatibilityMatrix, b: &CompatibilityMatrix) -> f64 {
    use tfsn_core::compat::Compatibility;
    let n = a.node_count().min(b.node_count());
    if n < 2 {
        return 0.0;
    }
    let mut disagreements = 0u64;
    let mut total = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            let (u, v) = (signed_graph::NodeId::new(u), signed_graph::NodeId::new(v));
            total += 1;
            if a.compatible(u, v) != b.compatible(u, v) {
                disagreements += 1;
            }
        }
    }
    100.0 * disagreements as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape() {
        let mut cfg = ExperimentConfig::quick();
        cfg.threads = 2;
        let report = run(&cfg);
        // 3 datasets × 5 evaluated kinds + the Slashdot SBP row.
        assert_eq!(report.entries.len(), 3 * 5 + 1);
        let disagreement = report.sbp_sbph_disagreement_pct.unwrap();
        let widths: Vec<usize> = report.sbph_width_sweep.iter().map(|w| w.width).collect();
        assert_eq!(widths, SBPH_WIDTHS);
        assert_eq!(report.sbph_width_sweep[0].disagreement_pct, disagreement);
        for w in &report.sbph_width_sweep {
            for pct in [w.compatible_users_pct, w.disagreement_pct] {
                assert!((0.0..=100.0).contains(&pct), "width {}: {pct}", w.width);
            }
        }
        let slashdot_spa = report.entry("Slashdot", CompatibilityKind::Spa).unwrap();
        let slashdot_nne = report.entry("Slashdot", CompatibilityKind::Nne).unwrap();
        // Relaxing the relation can only increase the compatible fraction.
        assert!(slashdot_spa.compatible_users_pct <= slashdot_nne.compatible_users_pct + 1e-9);
        assert!(slashdot_spa.compatible_users_pct >= 0.0);
        assert!(slashdot_nne.compatible_users_pct <= 100.0);
        let rendered = report.render();
        assert!(rendered.contains("SPA"));
        assert!(rendered.contains("comp. users %"));
        assert!(rendered.contains("SBP vs SBPH"));
        assert!(rendered.contains("SBPH width sweep"));
    }

    #[test]
    fn disagreement_of_identical_matrices_is_zero() {
        let d = tfsn_datasets::slashdot();
        let engine = EngineConfig::default();
        let m = CompatibilityMatrix::build_parallel(&d.graph, CompatibilityKind::Spo, &engine, 2);
        assert_eq!(disagreement_pct(&m, &m), 0.0);
    }
}
