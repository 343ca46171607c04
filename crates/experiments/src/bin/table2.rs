//! Regenerates Table 2 (comparison of compatibility relations).
//!
//! Usage: `cargo run --release -p tfsn-experiments --bin table2 -- [--quick] [--no-sbp] [--out DIR]`

use tfsn_experiments::{report, table2, Args};

fn main() {
    let Args { config, out_dir } = Args::from_env("table2", true);

    eprintln!(
        "[table2] building compatibility relations (epinions scale {}, wikipedia scale {})…",
        config.epinions_scale, config.wikipedia_scale
    );
    let result = table2::run(&config);
    println!("Table 2: Comparison of compatibility relations");
    println!("{}", result.render());

    match report::write_json(&out_dir, "table2", &result) {
        Ok(path) => eprintln!("[table2] wrote {}", path.display()),
        Err(e) => eprintln!("[table2] could not write results: {e}"),
    }
}
