//! Closed-loop benchmark of the gfomc service.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload eval_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` serves the workload from an in-process `gfomc-serve` on
//! loopback to one closed-loop client and reports the end-to-end metrics;
//! `--trace 1` replays the same inputs in-process, timing each crate's
//! public calls from outside, and reports the per-layer metrics. Every
//! answer is checked against an in-process reference; the last line of
//! standard output is the JSON result. `NOTES.md` explains the workloads
//! and metrics.

mod inputs;
mod load;
mod traced;

use gfomc_pool::WorkerPool;
use inputs::Workload;
use std::process::ExitCode;
use std::sync::Arc;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable report lines printed before the JSON result.
    pub report: Vec<String>,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: gfomc-loadbench --workload <eval_hot|eval_mixed|session_stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("every flag is required and --seconds must be positive".into()),
    }
}

/// Aggregate CPU ticks from the first line of `/proc/stat`: (steal, total).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|w| w.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of all CPU ticks since `start` that the hypervisor stole.
pub fn steal_frac_since(start: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    steal.saturating_sub(start.0) as f64 / total.saturating_sub(start.1).max(1) as f64
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The JSON result line. Values print in Rust's shortest round-trip form.
fn json_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("gfomc-loadbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = cpu_ticks();
    // One single-worker pool shared by every engine: no request fans out.
    let pool = Arc::new(WorkerPool::new(1));
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &pool, ticks)
    } else {
        load::run(args.workload, args.seed, args.seconds, &pool)
    };
    let out = match result {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("gfomc-loadbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host cpus {} steal_frac {:.5} seed {}",
        host_cpus(),
        steal_frac_since(ticks),
        args.seed
    );
    for line in &out.report {
        println!("{line}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", json_line(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "gfomc-loadbench: {} of {} requests failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
