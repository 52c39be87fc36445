//! `sofbench` — the repository's benchmark.
//!
//! One process runs one named workload from a workload seed and prints a
//! human report, a host stamp, and (last line) one JSON object with the
//! metrics. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that records a span around every call the
//! benchmark makes into a layer's public functions and reports per-layer
//! metrics. Everything is measured from outside the crates.
//!
//! ```text
//! cargo run --release --manifest-path sofbench/Cargo.toml -- \
//!     --workload paper-solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `sofbench/README.md` for the workloads, the metric tables and the
//! layer-to-end-to-end map.

mod churn;
mod daemon;
mod paper;
mod report;
mod solve;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper-solve", "churn-failures", "daemon-mix"];

/// How much input a workload generates. `Tiny` is the self-test's size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured time per run.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    pub size: Size,
    /// The pinned `SOF_THREADS` value (the host's available parallelism).
    pub threads: usize,
}

/// SplitMix64 finaliser: derives independent sub-seeds from the workload
/// seed, so adding an input never shifts the draws of another.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `workload` and returns its outcome.
///
/// # Panics
///
/// On an unknown workload name (the argument parser rejects those first).
pub fn run_workload(workload: &str, run: &Run) -> Outcome {
    sof_par::set_threads(run.threads);
    let started = Instant::now();
    let mut out = match workload {
        "paper-solve" => paper::run(run),
        "churn-failures" => churn::run(run),
        "daemon-mix" => daemon::run(run),
        other => panic!("unknown workload '{other}'"),
    };
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    let lines = out.metric_lines(run.trace);
    out.lines.extend(lines);
    out.lines.push(format!(
        "run took {:.2} s in all",
        started.elapsed().as_secs_f64()
    ));
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag '{flag}' is missing its value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid value '{v}' for '{flag}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

const USAGE: &str =
    "usage: sofbench --workload <paper-solve|churn-failures|daemon-mix> --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sofbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        size: Size::Full,
        threads,
    };
    sof_par::set_threads(threads);
    println!("{}", report::stamp(&args.workload, &run));
    let out = run_workload(&args.workload, &run);
    for line in &out.lines {
        println!("{line}");
    }
    if let Some(tracer) = &out.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let file = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&file) {
            Ok(n) => println!("{n} spans written to {}", file.display()),
            Err(e) => eprintln!("sofbench: writing spans: {e}"),
        }
    }
    for p in &out.problems {
        eprintln!("sofbench: CHECK FAILED: {p}");
    }
    println!("{}", out.result_json(args.trace));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
