//! `lambench`: one seeded, verified benchmark of the lam serving stack
//! over four traffic mixes, with an outside-in per-layer ledger.
//!
//! ```text
//! lambench [run] [--workload W]... [--seed S] [--seconds T]   end-to-end metrics
//! lambench trace [--workload W]... [--seed S] [--seconds T]   per-layer metrics
//! lambench --workload W --seed S --seconds T --trace 0|1      either, by flag
//! lambench compare PARENT.json... -- CHANGE.json...           verdict per metric
//! ```
//!
//! `run` writes `results/lambench.json`, `trace` writes
//! `results/lambench-trace.json`; both end standard output with one JSON
//! line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Without
//! `--workload` every workload runs. See `README.md` in this directory.

mod child;
mod client;
mod compare;
mod gen;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Host, RunFile, WorkloadReport};
use std::path::PathBuf;
use workloads::{Inputs, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]).map(|()| 0),
        Some("compare") => compare::main(&args[1..]),
        _ => bench(&args),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("lambench: {e}");
            std::process::exit(2);
        }
    }
}

/// Parsed `run`/`trace` arguments.
struct Args {
    trace: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        trace: false,
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
    };
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            it.next();
            parsed.trace = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workloads.push(Workload::parse(value)?),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!("--seconds {} outside (0, 600]", parsed.seconds));
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// Removes the scratch directory of model stores when the run ends,
/// however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(args: &[String]) -> Result<i32, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let args = parse_args(args)?;
    let mode = if args.trace { "trace" } else { "run" };
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    let work = WorkDir(PathBuf::from(format!(
        "results/lambench-work-{}",
        std::process::id()
    )));
    let inputs = Inputs::new(args.seed, args.seconds, work.0.clone())?;
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for &w in &args.workloads {
        let report = if args.trace {
            let (report, detail) = trace::run(w, &inputs)?;
            traces.push(detail);
            report
        } else {
            workloads::run(w, &inputs)?
        };
        print_report(&report);
        reports.push(report);
    }
    let file = RunFile {
        host: Host::current(mode, args.seed, args.seconds),
        workloads: reports.clone(),
    };
    let (path, json) = if args.trace {
        (
            "results/lambench-trace.json",
            trace::file_json(file, traces)?,
        )
    } else {
        (
            "results/lambench.json",
            serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?,
        )
    };
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    drop(work);
    println!("{}", report::summary_line(&reports));
    Ok(if reports.iter().all(|r| r.correct) {
        0
    } else {
        1
    })
}

/// Human-readable lines for one workload.
fn print_report(r: &WorkloadReport) {
    println!(
        "== {} ({}; attempted {}, failed {})",
        r.workload,
        if r.correct { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed
    );
    for p in &r.phases {
        println!(
            "   phase {:<10} {:>8.3} s  attempted {:>8} ok {:>8} failed {} shed {}",
            p.name, p.seconds, p.attempted, p.ok, p.failed, p.shed
        );
    }
    for c in &r.checks {
        println!(
            "   check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (label, list) in [("metric", &r.metrics), ("diag  ", &r.diagnostics)] {
        for m in list {
            println!(
                "   {label} {:<32} {:>14.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}
