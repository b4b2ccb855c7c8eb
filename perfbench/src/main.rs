//! Runs one workload of the pinned A-QED benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search|encode|serve-warm|reverify> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run it from the repository root. The next-to-last line of standard
//! output stamps the result with the configuration it came from; the
//! last line is the result: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use aqed_obs::json::Json;
use perfbench::{run, RunConfig};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// The commit the sources came from, marked `-dirty` when the working
/// tree has uncommitted changes, where the checkout is a git repository;
/// else a digest of the sources the benchmark builds, so results from
/// different code never share a stamp.
fn source_rev() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(Path::new(dir), &mut files);
    }
    files.sort();
    // FNV-1a 64 over every path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args.workload, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let samples = result
        .samples
        .iter()
        .map(|&(k, v)| (k, Json::num(v)))
        .collect();
    let stamp = Json::obj(vec![
        ("rev", Json::from(source_rev())),
        ("nproc", Json::num(nproc)),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::num(args.cfg.seed)),
        ("seconds", Json::num(args.cfg.seconds.as_secs())),
        ("trace", Json::Bool(args.cfg.trace)),
        ("samples", Json::obj(samples)),
    ]);
    println!("{}", Json::obj(vec![("stamp", stamp)]));
    println!("{}", result.to_json(args.cfg.trace));
    ExitCode::SUCCESS
}
