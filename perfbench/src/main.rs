//! The repository's serving benchmark: drives real `tfsn serve-http` and
//! `tfsn route` processes with seeded traffic and reports end-to-end and
//! per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --tfsn PATH --tmp DIR
//! ```
//!
//! Human-readable lines go first; the last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod gen;
mod proc;
mod replica;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use workloads::{Ctx, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tfsn: PathBuf,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} VALUE"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
        },
        tfsn: PathBuf::from(get("--tfsn")?),
        tmp: PathBuf::from(get("--tmp")?),
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit; `git` is asked only when the working directory
/// is itself a repository, so a plain source checkout never reports the
/// commit of some enclosing directory.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// FNV-1a over the path and bytes of every source file the build reads,
/// so results from a checkout without git still name the code measured.
fn source_fingerprint() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                return;
            }
            if let Ok(entries) = std::fs::read_dir(path) {
                for entry in entries.flatten() {
                    walk(&entry.path(), files);
                }
            }
        } else {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string())).expect("strings serialize")
}

fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not a finite number"))
    }
}

fn print_report(args: &Args, ctx: &Ctx, report: &Report) -> Result<(), String> {
    let mut facts = vec![
        ("nproc".to_string(), ctx.threads.to_string()),
        ("cpu".to_string(), cpu_model()),
        ("commit".to_string(), git_commit()),
        ("source_fingerprint".to_string(), source_fingerprint()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "build_profile".to_string(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("setups_per_run".to_string(), workloads::SETUPS.to_string()),
    ];
    facts.extend(report.facts.iter().cloned());
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    println!("# facts {{{}}}", facts.join(","));
    for m in report.metrics.iter().chain(&report.extra) {
        println!("# metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "# check correct={} attempted={} failed={}",
        report.correct, report.attempted, report.failed
    );
    for failure in &report.failures {
        eprintln!("perfbench: failed: {failure}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(&m.name, m.value)?,
                json_string(m.unit)
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = workloads::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let tmp = args.tmp.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let _scratch = ScratchDir(tmp.clone());
    let ctx = Ctx {
        tfsn: args.tfsn.clone(),
        tmp,
        seed: args.seed,
        seconds: args.seconds,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let report = if args.trace {
        workloads::run_traced(&ctx, &workload)?
    } else {
        workloads::run_e2e(&ctx, &workload)?
    };
    print_report(&args, &ctx, &report)
}

fn main() {
    std::process::exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    });
}
