//! Regenerates Table 3 (comparison with unsigned team formation).
//!
//! Usage: `cargo run --release -p tfsn-experiments --bin table3 -- [--quick] [--out DIR]`

use tfsn_experiments::{report, table3, Args};

fn main() {
    let Args { config, out_dir } = Args::from_env("table3", false);

    eprintln!(
        "[table3] running unsigned baselines on the Epinions emulation (scale {})…",
        config.epinions_scale
    );
    let result = table3::run(&config);
    println!("Table 3: Percentage of unsigned-baseline teams that are compatible");
    println!("{}", result.render());

    match report::write_json(&out_dir, "table3", &result) {
        Ok(path) => eprintln!("[table3] wrote {}", path.display()),
        Err(e) => eprintln!("[table3] could not write results: {e}"),
    }
}
