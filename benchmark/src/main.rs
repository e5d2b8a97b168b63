//! The repository benchmark: three workloads, every end-to-end metric
//! by name and unit, a separate traced run for per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload helr-boot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it carries host metadata and
//! the facts behind the metrics (tail percentile, sample counts,
//! checks). See `README.md` in this directory for the workloads and
//! the layer → end-to-end map.

mod helr;
mod ks;
mod layers;
mod local;
mod openloop;
mod report;
mod serve;
mod span;
mod stats;

use report::{quoted, Outcome};
use std::time::Instant;

/// Seed of every engine's key chain and encryption randomness. Keys
/// belong to the deployment, not to the inputs: `--seed` drives the
/// data and the arrival schedule, so key-dependent noise does not
/// spread the error metric across seeds.
pub const KEY_SEED: u64 = 0x4152_4b42_454e_4348; // "ARKBENCH"

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["helr-boot", "ks-n15", "serve-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans: the cargo target directory
/// (`CARGO_TARGET_DIR`, else `benchmark/target`).
fn spans_dir() -> std::path::PathBuf {
    let base: std::path::PathBuf = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || concat!(env!("CARGO_MANIFEST_DIR"), "/target").into(),
        Into::into,
    );
    base.join("spans")
}

/// Writes the recorded spans as JSON lines once the run has ended.
pub fn write_spans(args: &Args, rec: &span::Recorder) {
    let dir = spans_dir();
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => eprintln!("benchmark: spans written to {}", path.display()),
        Err(e) => eprintln!("benchmark: spans not written ({e})"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("helr-boot", false) => local::run(&helr::spec(args.seed), args),
        ("helr-boot", true) => local::run_traced(&helr::spec(args.seed), args),
        ("ks-n15", false) => local::run(&ks::spec(args.seed), args),
        ("ks-n15", true) => local::run_traced(&ks::spec(args.seed), args),
        ("serve-mix", traced) => serve::run(args, traced),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let nproc = ark_math::par::available_parallelism();
    out.note("workload", quoted(&args.workload));
    out.note("seed", format!("{}", args.seed));
    out.note("seconds", format!("{}", args.seconds));
    out.note("trace", format!("{}", args.trace));
    out.note("host.nproc", format!("{nproc}"));
    out.note("host.cpu", quoted(&cpu_model()));
    out.note("wall_s", format!("{}", started.elapsed().as_secs_f64()));
    out.note("problems", format!("{}", out.problems.len()));
    let line = match out.result_line(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", out.detail_line());
    println!("{line}");
}
