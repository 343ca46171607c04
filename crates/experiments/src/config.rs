//! Configuration shared by all experiments, and the command line that
//! selects it.

use std::ffi::OsString;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use tfsn_core::compat::CompatibilityKind;

/// Knobs controlling dataset scale and workload size for the whole harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Scale factor for the Epinions emulation (1.0 = 28,854 users as in the
    /// paper). The default keeps the full experiment suite in the minutes
    /// range on a laptop.
    pub epinions_scale: f64,
    /// Scale factor for the Wikipedia emulation (1.0 = 7,066 users).
    pub wikipedia_scale: f64,
    /// Number of random tasks generated per task size (the paper uses 50).
    pub tasks_per_size: usize,
    /// Task size used by Table 3 and Figure 2(a)/(b) (the paper uses 5).
    pub default_task_size: usize,
    /// Task sizes swept by Figure 2(c)/(d) (the paper sweeps up to 20).
    pub task_sizes: Vec<usize>,
    /// Worker threads for building compatibility matrices.
    pub threads: usize,
    /// Whether to also run the exact SBP relation on Slashdot (Table 2's
    /// SBP column and the SBP-vs-SBPH comparison).
    pub sbp_exact_on_slashdot: bool,
    /// Cap on greedy seeds per task (the paper seeds from every holder of the
    /// first skill; a cap bounds the runtime on popular skills — `None`
    /// reproduces the paper exactly).
    pub max_seeds: Option<usize>,
    /// Holder cap for the least-compatible-skill degree computation.
    pub skill_degree_cap: Option<usize>,
    /// Base seed for task generation and the RANDOM policy.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            epinions_scale: 0.10,
            wikipedia_scale: 0.25,
            tasks_per_size: 50,
            default_task_size: 5,
            task_sizes: vec![2, 5, 10, 15, 20],
            threads: default_threads(),
            sbp_exact_on_slashdot: true,
            max_seeds: Some(40),
            skill_degree_cap: Some(64),
            seed: 0xEDB7_2020,
        }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for CI smoke tests and debug builds:
    /// tiny dataset scales and a handful of tasks.
    pub fn quick() -> Self {
        ExperimentConfig {
            epinions_scale: 0.015,
            wikipedia_scale: 0.04,
            tasks_per_size: 8,
            default_task_size: 4,
            task_sizes: vec![2, 4, 6],
            threads: 2,
            sbp_exact_on_slashdot: true,
            max_seeds: Some(10),
            skill_degree_cap: Some(32),
            seed: 0xEDB7_2020,
        }
    }

    /// The compatibility relations evaluated by Table 2, Table 3 and
    /// Figure 2 (the paper omits DPE as degenerate and exact SBP where it is
    /// not computable).
    pub fn evaluated_kinds(&self) -> Vec<CompatibilityKind> {
        CompatibilityKind::EVALUATED.to_vec()
    }

    /// The greedy-solver configuration derived from this experiment config.
    pub fn greedy(&self) -> tfsn_core::team::greedy::GreedyConfig {
        tfsn_core::team::greedy::GreedyConfig {
            max_seeds: self.max_seeds,
            skill_degree_cap: self.skill_degree_cap,
            random_seed: self.seed ^ 0xA1B2,
        }
    }
}

/// The command line every experiment binary takes: `[--quick] [--out DIR]`,
/// plus `--no-sbp` for the binaries that accept it (`table2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// [`ExperimentConfig::quick`] under `--quick`, else the default, with
    /// exact SBP switched off under `--no-sbp`.
    pub config: ExperimentConfig,
    /// Directory the JSON artefacts are written to (`--out`, default
    /// `results`).
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `args` (the program name excluded). `no_sbp` says whether
    /// `--no-sbp` is accepted. An unknown argument, or an `--out` without a
    /// directory after it, is an error naming the problem.
    pub fn parse<I: IntoIterator<Item = OsString>>(args: I, no_sbp: bool) -> Result<Args, String> {
        let mut quick = false;
        let mut skip_sbp = false;
        let mut out_dir = PathBuf::from("results");
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.to_str() {
                Some("--quick") => quick = true,
                Some("--no-sbp") if no_sbp => skip_sbp = true,
                Some("--out") => match args.next() {
                    Some(dir) if !dir.is_empty() && !dir.to_string_lossy().starts_with("--") => {
                        out_dir = dir.into()
                    }
                    _ => return Err("`--out` needs a directory".to_string()),
                },
                _ => return Err(format!("unknown argument `{}`", arg.to_string_lossy())),
            }
        }
        let mut config = if quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::default()
        };
        config.sbp_exact_on_slashdot &= !skip_sbp;
        Ok(Args { config, out_dir })
    }

    /// Parses the process arguments of the binary `bin`. On an error it
    /// prints the error and the usage line to stderr and exits with
    /// status 2.
    pub fn from_env(bin: &str, no_sbp: bool) -> Args {
        Args::parse(std::env::args_os().skip(1), no_sbp).unwrap_or_else(|e| {
            let sbp = if no_sbp { " [--no-sbp]" } else { "" };
            eprintln!("{bin}: {e}\nusage: {bin} [--quick]{sbp} [--out DIR]");
            std::process::exit(2);
        })
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.epinions_scale > 0.0 && cfg.epinions_scale <= 1.0);
        assert_eq!(cfg.tasks_per_size, 50);
        assert_eq!(cfg.default_task_size, 5);
        assert!(cfg.task_sizes.contains(&20));
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.evaluated_kinds().len(), 5);
        let greedy = cfg.greedy();
        assert_eq!(greedy.max_seeds, cfg.max_seeds);
    }

    #[test]
    fn quick_config_is_smaller() {
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::default();
        assert!(quick.epinions_scale < full.epinions_scale);
        assert!(quick.tasks_per_size < full.tasks_per_size);
        assert!(quick.task_sizes.len() <= full.task_sizes.len());
    }

    fn parse(args: &[&str], no_sbp: bool) -> Result<Args, String> {
        Args::parse(args.iter().map(OsString::from), no_sbp)
    }

    #[test]
    fn args_default_to_the_full_config_and_results_dir() {
        let args = parse(&[], true).unwrap();
        assert_eq!(args.config, ExperimentConfig::default());
        assert_eq!(args.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn args_parse_each_flag() {
        assert_eq!(
            parse(&["--quick"], false).unwrap().config,
            ExperimentConfig::quick()
        );
        assert_eq!(
            parse(&["--out", "/tmp/r"], false).unwrap().out_dir,
            PathBuf::from("/tmp/r")
        );
        let args = parse(&["--no-sbp", "--quick", "--out", "r2"], true).unwrap();
        assert!(!args.config.sbp_exact_on_slashdot);
        assert_eq!(
            args.config.tasks_per_size,
            ExperimentConfig::quick().tasks_per_size
        );
        assert_eq!(args.out_dir, PathBuf::from("r2"));
    }

    #[test]
    fn args_reject_typos_and_flags_the_binary_does_not_take() {
        for (args, no_sbp) in [
            (&["--quik"][..], true),
            (&["--quick", "results"][..], true),
            (&["--no-sbp"][..], false),
        ] {
            let err = parse(args, no_sbp).unwrap_err();
            assert!(err.contains("unknown argument"), "{args:?}: {err}");
        }
    }

    #[test]
    fn args_reject_out_without_a_directory() {
        for args in [
            &["--quick", "--out"][..],
            &["--out", "--quick"],
            &["--out", ""],
        ] {
            let err = parse(args, true).unwrap_err();
            assert!(err.contains("`--out` needs a directory"), "{args:?}: {err}");
        }
    }
}
