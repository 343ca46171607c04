//! Regenerates Figure 2 (team-formation experiments, all four panels) and
//! the policy ablation.
//!
//! Usage: `cargo run --release -p tfsn-experiments --bin figure2 -- [--quick] [--out DIR]`

use tfsn_experiments::{figure2, report, Args};

fn main() {
    let Args { config, out_dir } = Args::from_env("figure2", false);

    eprintln!(
        "[figure2] running team formation on the Epinions emulation (scale {}, {} tasks/size)…",
        config.epinions_scale, config.tasks_per_size
    );
    let result = figure2::run(&config);
    println!("Figure 2: Team formation");
    println!("{}", result.render());

    match report::write_json(&out_dir, "figure2", &result) {
        Ok(path) => eprintln!("[figure2] wrote {}", path.display()),
        Err(e) => eprintln!("[figure2] could not write results: {e}"),
    }
}
