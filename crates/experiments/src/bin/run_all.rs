//! Runs the whole experiment suite (Tables 1–3 and Figure 2) and writes one
//! JSON file per artefact, plus the configuration used.
//!
//! Usage: `cargo run --release -p tfsn-experiments --bin run-all -- [--quick] [--out DIR]`

use std::time::Instant;

use tfsn_experiments::{figure2, report, table1, table2, table3, Args};

fn main() {
    let Args { config, out_dir } = Args::from_env("run-all", false);

    let started = Instant::now();

    let t1 = table1::run(&config);
    println!("Table 1: Dataset Statistics\n{}", t1.render());
    write(&out_dir, "table1", &t1);

    let t2 = table2::run(&config);
    println!(
        "Table 2: Comparison of compatibility relations\n{}",
        t2.render()
    );
    write(&out_dir, "table2", &t2);

    let t3 = table3::run(&config);
    println!("Table 3: Unsigned team-formation baseline\n{}", t3.render());
    write(&out_dir, "table3", &t3);

    let f2 = figure2::run(&config);
    println!("Figure 2: Team formation\n{}", f2.render());
    write(&out_dir, "figure2", &f2);

    write(&out_dir, "config", &config);
    eprintln!(
        "[run-all] finished in {:.1}s; results in {}",
        started.elapsed().as_secs_f64(),
        out_dir.display()
    );
}

fn write<T: serde::Serialize>(dir: &std::path::Path, name: &str, value: &T) {
    match report::write_json(dir, name, value) {
        Ok(path) => eprintln!("[run-all] wrote {}", path.display()),
        Err(e) => eprintln!("[run-all] could not write {name}: {e}"),
    }
}
