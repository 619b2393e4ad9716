//! `lambench compare PARENT.json… -- CHANGE.json…`: judge a change
//! against its parent, one verdict per (end-to-end metric, workload), with
//! the bounds `BENCHMARK.json` fixes.
//!
//! * **gain** — at least 10 runs on each side taken as alternating pairs,
//!   the change wins at least 9 in 10 pairs (ties count for neither), and
//!   the medians differ by more than the parent's interquartile range;
//! * **flat** — the change's median is no worse than the parent's by more
//!   than the bound;
//! * **unresolved** — the run-to-run spread is wider than the bound, so
//!   "no worse" cannot be told from noise (unless every change run beats
//!   every parent run);
//! * **regression** — worse by more than the bound with the spread inside
//!   it. Any regression makes the command exit 1.

use crate::report::RunFile;
use crate::stats;

/// A comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairs rule.
    Gain,
    /// Within the bound.
    Flat,
    /// Spread wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Flat => "flat",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Runs on each side, paired in order, needed to claim a gain.
const MIN_PAIRS: usize = 10;

/// Judge `change` runs against `parent` runs of one metric.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let (q1, q3) = stats::quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Gain;
    }
    let worse = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    let spread = stats::relative_iqr(parent).max(stats::relative_iqr(change));
    let every_change_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > bound && !every_change_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Flat
    }
}

/// One gated metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or(format!("{path} has no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let better = m.get("better").and_then(|b| b.as_str());
            let bound = match m.get("bound") {
                Some(serde::Value::Number(n)) => Some(n.as_f64()),
                _ => None,
            };
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

fn load(paths: &[String]) -> Result<Vec<RunFile>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Values of `metric` on `workload`, one per file that has it.
fn values(files: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| &f.workloads)
        .filter(|w| w.workload == workload)
        .flat_map(|w| &w.metrics)
        .filter(|m| m.name == metric)
        .map(|m| m.value)
        .collect()
}

/// Entry point of `lambench compare`.
pub fn main(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: lambench compare PARENT.json... -- CHANGE.json...")?;
    let (parent, change) = (load(&args[..split])?, load(&args[split + 1..])?);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs result files on both sides of --".to_string());
    }
    let bounds = bounds("BENCHMARK.json")?;
    let mut workloads: Vec<&str> = Vec::new();
    for w in parent.iter().flat_map(|f| &f.workloads) {
        if !workloads.contains(&w.workload.as_str()) {
            workloads.push(&w.workload);
        }
    }
    println!(
        "{:<12} {:<12} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins"
    );
    let mut regressions = 0;
    for w in workloads {
        for b in &bounds {
            let (p, c) = (values(&parent, w, &b.name), values(&change, w, &b.name));
            if p.is_empty() || c.is_empty() {
                println!("{w:<12} {:<12} missing on one side", b.name);
                continue;
            }
            let verdict = judge(&p, &c, b.lower_is_better, b.bound);
            regressions += usize::from(verdict == Verdict::Regression);
            let side = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{:.5} [{q1:.5}, {q3:.5}]", stats::median(v))
            };
            let (mp, mc) = (stats::median(&p), stats::median(&c));
            let wins = p
                .iter()
                .zip(&c)
                .filter(|&(&pv, &cv)| if b.lower_is_better { cv < pv } else { cv > pv })
                .count();
            println!(
                "{w:<12} {:<12} {:>30} {:>30} {:>+7.2}% {:>3}/{:<2}  {} (bound {}%)",
                b.name,
                side(&p),
                side(&c),
                100.0 * (mc - mp) / mp.abs(),
                wins,
                p.len().min(c.len()),
                verdict.label(),
                100.0 * b.bound
            );
        }
    }
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn clear_improvement_is_a_gain() {
        // Throughput up 20% with 1% jitter: every pair wins.
        let parent = runs(100.0, 1.0);
        let change = runs(120.0, 1.0);
        assert_eq!(judge(&parent, &change, false, 0.1), Verdict::Gain);
        // The same numbers as latencies are a regression.
        assert_eq!(judge(&parent, &change, true, 0.1), Verdict::Regression);
    }

    #[test]
    fn gains_need_ten_pairs() {
        let parent = runs(100.0, 1.0)[..5].to_vec();
        let change = runs(120.0, 1.0)[..5].to_vec();
        assert_eq!(judge(&parent, &change, false, 0.1), Verdict::Flat);
    }

    #[test]
    fn small_moves_within_the_bound_are_flat() {
        let parent = runs(100.0, 1.0);
        let change = runs(103.0, 1.0);
        assert_eq!(judge(&parent, &change, true, 0.1), Verdict::Flat);
        // As throughput the same 3% is a gain: 10/10 pairs win and the
        // medians differ by more than the parent's IQR (2.5).
        assert_eq!(judge(&parent, &change, false, 0.1), Verdict::Gain);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = runs(100.0, 10.0);
        let change = runs(115.0, 10.0);
        assert_eq!(judge(&parent, &change, true, 0.1), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let change = runs(30.0, 1.0);
        assert_eq!(judge(&parent, &change, true, 0.1), Verdict::Gain);
        assert_eq!(judge(&parent[..4], &change[..4], true, 0.1), Verdict::Flat);
    }

    #[test]
    fn ties_do_not_count_as_wins() {
        let parent = vec![1.0; 10];
        let change = vec![1.0; 10];
        assert_eq!(judge(&parent, &change, true, 0.1), Verdict::Flat);
    }
}
