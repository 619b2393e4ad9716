//! Result records: what one invocation writes to `results/` (and reads
//! back in `compare`), its run metadata, and the one-line JSON summary
//! that ends standard output.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

impl Metric {
    /// A metric from `samples` samples.
    pub fn new(name: &str, unit: &str, value: f64, samples: u64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// One phase of a workload run: how long it took and what it sent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Phase {
    /// `setup`, `warmup`, `timed`, `open-loop`, `verify`, …
    pub name: String,
    /// Wall-clock duration.
    pub seconds: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Answered `200`.
    pub ok: u64,
    /// Failed (other status or connection error).
    pub failed: u64,
    /// Refused with `503`.
    pub shed: u64,
}

/// One output-verification check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch.
    pub detail: String,
}

/// Everything one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Every check held and no operation failed.
    pub correct: bool,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Failed + shed operations plus wrong answers.
    pub failed: u64,
    /// Per-phase durations and counts.
    pub phases: Vec<Phase>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The gated metrics: end-to-end ones from `run`, per-layer ones
    /// from `trace`.
    pub metrics: Vec<Metric>,
    /// Printed and recorded, never gated.
    pub diagnostics: Vec<Metric>,
}

/// Run metadata.
#[derive(Debug, Serialize, Deserialize)]
pub struct Host {
    /// `run` or `trace`.
    pub mode: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Build profile (always `release`: debug builds refuse to run).
    pub profile: String,
    /// Commit of the checkout, or `unknown`.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase length, seconds.
    pub seconds: f64,
}

impl Host {
    /// Metadata of this process.
    pub fn current(mode: &str, seed: u64, seconds: f64) -> Self {
        Self {
            mode: mode.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            git_rev: git_rev(Path::new(".git")),
            seed,
            seconds,
        }
    }
}

/// A result file.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunFile {
    /// Run metadata.
    pub host: Host,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadReport>,
}

/// `HEAD`'s commit from the `.git` directory at `git`, read directly (no
/// `git` process, and no looking outside the checkout); `unknown` when the
/// checkout is not a repository.
fn git_rev(git: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(name))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, r) = line.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The summary line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`,
/// metric names prefixed with `<workload>/` when more than one workload ran.
pub fn summary_line(reports: &[WorkloadReport]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = if prefix {
                format!("{}/{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            // A metric that could not be measured is `null` (and its
            // report is incorrect): `NaN` is not JSON.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        reports.iter().all(|r| r.correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_follows_refs_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("lambench_git_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(git_rev(&dir), "unknown");
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir), "def456");
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_line_is_the_documented_shape() {
        let report = WorkloadReport {
            workload: "hot-b1".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            phases: vec![],
            checks: vec![],
            metrics: vec![Metric::new("p50_ms", "ms", 0.125, 10)],
            diagnostics: vec![],
        };
        let line = summary_line(std::slice::from_ref(&report));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":0.125,"unit":"ms"}}}"#
        );
        let parsed: serde::Value = serde_json::from_str(&line).unwrap();
        assert!(parsed.get("metrics").is_some());
        let two = summary_line(&[report.clone(), report.clone()]);
        assert!(two.contains("\"hot-b1/p50_ms\""));
        let unmeasured = WorkloadReport {
            metrics: vec![Metric::new("tail_ms", "ms", f64::NAN, 3)],
            ..report
        };
        let line = summary_line(&[unmeasured]);
        assert!(line.contains(r#""tail_ms":{"value":null,"unit":"ms"}"#));
        assert!(serde_json::from_str::<serde::Value>(&line).is_ok());
    }
}
