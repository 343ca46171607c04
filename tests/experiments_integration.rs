//! Integration tests for the experiment harness: every table and figure can
//! be regenerated end-to-end (at smoke-test scale) and serialised to JSON.

use tfsn_experiments::{figure2, report, table1, table2, table3, ExperimentConfig};

/// A configuration even smaller than `quick()` so the whole harness runs in
/// seconds in debug builds; exact SBP is exercised by the unit tests.
fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        epinions_scale: 0.01,
        wikipedia_scale: 0.02,
        tasks_per_size: 5,
        default_task_size: 3,
        task_sizes: vec![2, 4],
        threads: 2,
        sbp_exact_on_slashdot: false,
        max_seeds: Some(8),
        skill_degree_cap: Some(16),
        seed: 123,
    }
}

#[test]
fn table1_reports_all_datasets_and_serialises() {
    let report_t1 = table1::run(&smoke_config());
    assert_eq!(report_t1.rows.len(), 3);
    for row in &report_t1.rows {
        assert!(row.users >= 8);
        assert!(row.edges >= row.users - 1);
        assert!(row.negative_percentage > 0.0 && row.negative_percentage < 100.0);
        assert!(row.skills > 0);
    }
    let dir = tempdir("table1");
    let path = report::write_json(&dir, "table1", &report_t1).unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.contains("Slashdot"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn table2_monotone_in_relation_relaxation() {
    use tfsn_core::compat::CompatibilityKind;
    let report_t2 = table2::run(&smoke_config());
    // Without exact SBP: 3 datasets × 5 relations.
    assert_eq!(report_t2.entries.len(), 15);
    assert!(report_t2.sbp_sbph_disagreement_pct.is_none());
    assert!(report_t2.sbph_width_sweep.is_empty());
    for dataset in ["Slashdot", "Epinions", "Wikipedia"] {
        let pct = |k| report_t2.entry(dataset, k).unwrap().compatible_users_pct;
        // The guaranteed chain SPA ⊆ SPM ⊆ SPO.
        assert!(
            pct(CompatibilityKind::Spa) <= pct(CompatibilityKind::Spm) + 1e-9,
            "{dataset}"
        );
        assert!(
            pct(CompatibilityKind::Spm) <= pct(CompatibilityKind::Spo) + 1e-9,
            "{dataset}"
        );
        // Skill-pair compatibility follows the same order.
        let spct = |k| report_t2.entry(dataset, k).unwrap().compatible_skills_pct;
        assert!(
            spct(CompatibilityKind::Spa) <= spct(CompatibilityKind::Spo) + 1e-9,
            "{dataset}"
        );
        // Distances are positive whenever pairs exist.
        for kind in smoke_config().evaluated_kinds() {
            let e = report_t2.entry(dataset, kind).unwrap();
            if e.compatible_users_pct > 0.0 {
                assert!(
                    e.avg_distance >= 1.0,
                    "{dataset}/{kind}: distance {}",
                    e.avg_distance
                );
            }
        }
    }
}

#[test]
fn table3_percentages_are_bounded_and_monotone() {
    use signed_graph::transform::UnsignedTransform;
    use tfsn_core::compat::CompatibilityKind;
    let report_t3 = table3::run(&smoke_config());
    assert_eq!(report_t3.entries.len(), 10);
    for transform in [
        UnsignedTransform::IgnoreSigns,
        UnsignedTransform::DeleteNegative,
    ] {
        let pct = |k| report_t3.entry(transform, k).unwrap().compatible_teams_pct;
        assert!(pct(CompatibilityKind::Spa) <= pct(CompatibilityKind::Spm) + 1e-9);
        assert!(pct(CompatibilityKind::Spm) <= pct(CompatibilityKind::Spo) + 1e-9);
        assert!(pct(CompatibilityKind::Sbph) <= pct(CompatibilityKind::Nne) + 1e-9);
        for kind in smoke_config().evaluated_kinds() {
            let e = report_t3.entry(transform, kind).unwrap();
            assert!(e.compatible_teams_pct >= 0.0 && e.compatible_teams_pct <= 100.0);
        }
    }
}

#[test]
fn figure2_solved_rate_never_exceeds_the_max_bound() {
    let cfg = smoke_config();
    let report_f2 = figure2::run(&cfg);
    for outcome in &report_f2.by_algorithm {
        let max = report_f2
            .max_bounds
            .iter()
            .find(|m| m.kind == outcome.kind)
            .unwrap()
            .skill_compatible_pct;
        assert!(
            outcome.solved_pct <= max + 1e-9,
            "{}/{}: solved {}% exceeds MAX {}%",
            outcome.kind,
            outcome.algorithm,
            outcome.solved_pct,
            max
        );
    }
    // Panel (c)/(d) outcomes exist for every configured task size.
    for &size in &cfg.task_sizes {
        assert!(report_f2.by_task_size.iter().any(|o| o.task_size == size));
    }
    // Rendering mentions every panel.
    let rendered = report_f2.render();
    for panel in ["Figure 2(a)", "Figure 2(b)", "Figure 2(c)", "Figure 2(d)"] {
        assert!(rendered.contains(panel), "missing {panel}");
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tfsn_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
