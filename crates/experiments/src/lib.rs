//! # tfsn-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (§5):
//!
//! | Module / binary | Paper artefact |
//! |-----------------|----------------|
//! | [`table1`] / `cargo run -p tfsn-experiments --bin table1` | Table 1 — dataset statistics |
//! | [`table2`] / `--bin table2` | Table 2 — comparison of compatibility relations (incl. SBP vs SBPH on Slashdot and the SBPH width sweep) |
//! | [`table3`] / `--bin table3` | Table 3 — comparison with unsigned team formation |
//! | [`figure2`] / `--bin figure2` | Figure 2(a)–(d) — team-formation algorithms and task-size sweeps, plus the policy ablation |
//! | `--bin run-all` | everything above, writing JSON result files |
//!
//! Every binary takes `[--quick] [--out DIR]` (`table2` also `--no-sbp`),
//! parsed by [`config::Args`].
//!
//! Absolute numbers differ from the paper because the datasets are synthetic
//! emulations matched to the published statistics (see `DESIGN.md`); the
//! qualitative shape — which relation admits more compatible pairs, which
//! algorithm wins, how solutions decay with task size — is what the harness
//! reproduces and what `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod figure2;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;

pub use config::{Args, ExperimentConfig};
