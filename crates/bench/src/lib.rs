//! # tfsn-bench
//!
//! Criterion benchmarks for the TFSN reproduction. Each bench target
//! corresponds to one artefact of the paper's evaluation (see `DESIGN.md`'s
//! per-experiment index) and, before measuring, prints the regenerated
//! rows/series at smoke scale so `cargo bench` output doubles as a compact
//! reproduction log:
//!
//! * `table1_stats` — Table 1 (dataset statistics).
//! * `table2_compat` — Table 2 (compatibility relation comparison).
//! * `table3_baseline` — Table 3 (unsigned team-formation baseline).
//! * `figure2_team` — Figure 2(a)–(d) (team-formation algorithms).
//! * `algo1_scaling` — ablation: Algorithm 1 (signed BFS) scaling.
//! * `sbph_width` — ablation: SBPH beam-width sensitivity.
//! * `policy_ablation` — ablation: skill × user policy combinations.

/// Shared helpers for the bench targets.
pub mod util {
    use tfsn_experiments::ExperimentConfig;

    /// The configuration used for the "print the regenerated artefact"
    /// preamble of each bench: the quick config, without the exact-SBP pass
    /// (benchmarked separately) so the preamble stays in the seconds range.
    pub fn preamble_config() -> ExperimentConfig {
        ExperimentConfig {
            sbp_exact_on_slashdot: false,
            ..ExperimentConfig::quick()
        }
    }
}
