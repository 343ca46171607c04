//! Regenerates Table 1 (dataset statistics).
//!
//! Usage: `cargo run --release -p tfsn-experiments --bin table1 -- [--quick] [--out DIR]`

use tfsn_experiments::{report, table1, Args};

fn main() {
    let Args { config, out_dir } = Args::from_env("table1", false);

    eprintln!("[table1] generating dataset emulations…");
    let result = table1::run(&config);
    println!("Table 1: Dataset Statistics");
    println!("{}", result.render());

    match report::write_json(&out_dir, "table1", &result) {
        Ok(path) => eprintln!("[table1] wrote {}", path.display()),
        Err(e) => eprintln!("[table1] could not write results: {e}"),
    }
}
