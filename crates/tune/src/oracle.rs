//! Measurement-budget accounting: every oracle evaluation a strategy
//! spends goes through [`BudgetedOracle`], which memoizes per-index
//! measurements (re-measuring a configuration is free — the oracle is
//! deterministic, so a repeat buys no information), enforces the budget,
//! and records the incumbent trajectory the regret-vs-budget curves are
//! plotted from.

use crate::report::TrajectoryPoint;
use lam_core::catalog::DynWorkload;
use lam_obs::{Counter, Histogram};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A budgeted, memoizing view of one workload's oracle.
pub struct BudgetedOracle<'a> {
    workload: &'a dyn DynWorkload,
    budget: usize,
    measured: BTreeMap<usize, f64>,
    trajectory: Vec<TrajectoryPoint>,
    incumbent: Option<(usize, f64)>,
    evaluations: Arc<Counter>,
    measure_ns: Arc<Histogram>,
}

impl<'a> BudgetedOracle<'a> {
    /// Budget `budget` oracle evaluations against `workload`.
    pub fn new(workload: &'a dyn DynWorkload, budget: usize) -> Self {
        // Tuning telemetry is per workload: evaluations actually spent
        // (memo hits are free and not counted) and how long one oracle
        // measurement takes. Interned once per tuning run, not per
        // measurement.
        let labels = [("workload", workload.name())];
        Self {
            workload,
            budget,
            measured: BTreeMap::new(),
            trajectory: Vec::new(),
            incumbent: None,
            evaluations: lam_obs::global().counter(
                "lam_tune_evaluations_total",
                "Oracle evaluations spent by tuning strategies.",
                &labels,
            ),
            measure_ns: lam_obs::global().histogram(
                "lam_tune_measure_duration_ns",
                "Duration of one oracle measurement, nanoseconds.",
                &labels,
            ),
        }
    }

    /// Measure configuration `index`. Returns the memoized value for an
    /// already-measured index without spending budget; returns `None`
    /// when the index is unmeasured and the budget is exhausted.
    pub fn measure(&mut self, index: usize) -> Option<f64> {
        if let Some(&t) = self.measured.get(&index) {
            return Some(t);
        }
        if self.measured.len() >= self.budget {
            return None;
        }
        let started = lam_obs::enabled().then(Instant::now);
        let t = self.workload.measure(index);
        self.evaluations.inc();
        if let Some(started) = started {
            self.measure_ns.record(started.elapsed().as_nanos() as u64);
        }
        self.measured.insert(index, t);
        // Ties keep the earlier incumbent: strictly-better only.
        if self.incumbent.is_none_or(|(_, best)| t < best) {
            self.incumbent = Some((index, t));
        }
        let (incumbent, best_oracle) = self.incumbent.expect("set above");
        self.trajectory.push(TrajectoryPoint {
            evaluations: self.measured.len(),
            incumbent,
            best_oracle,
        });
        Some(t)
    }

    /// Evaluations spent so far.
    pub fn spent(&self) -> usize {
        self.measured.len()
    }

    /// Evaluations left in the budget.
    pub fn remaining(&self) -> usize {
        self.budget - self.measured.len()
    }

    /// The budget this oracle was created with.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// All measurements taken, keyed by space index (sorted order).
    pub fn measurements(&self) -> &BTreeMap<usize, f64> {
        &self.measured
    }

    /// Measured time of `index`, if it has been measured.
    pub fn measured(&self, index: usize) -> Option<f64> {
        self.measured.get(&index).copied()
    }

    /// Best measured configuration so far, `(index, time)`.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.incumbent
    }

    /// The incumbent trajectory, one point per evaluation spent.
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// Consume the oracle, returning the trajectory.
    pub fn into_trajectory(self) -> Vec<TrajectoryPoint> {
        self.trajectory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lam_analytical::traits::{AnalyticalModel, ConstantModel};
    use lam_core::workload::Workload;

    /// A ten-point toy space; the field is its name, which is also the
    /// `workload` label its evaluations are counted under.
    struct Toy(&'static str);
    impl Workload for Toy {
        type Config = u64;
        fn name(&self) -> &str {
            self.0
        }
        fn feature_names(&self) -> Vec<String> {
            vec!["n".to_string()]
        }
        fn param_space(&self) -> &[u64] {
            // Decreasing time with index so index 9 is the optimum.
            const SPACE: [u64; 10] = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1];
            &SPACE
        }
        fn features(&self, cfg: &u64) -> Vec<f64> {
            vec![*cfg as f64]
        }
        fn execution_time(&self, cfg: &u64) -> f64 {
            *cfg as f64
        }
        fn problem_size(&self, cfg: &u64) -> f64 {
            *cfg as f64
        }
        fn analytical_model(&self) -> Box<dyn AnalyticalModel> {
            Box::new(ConstantModel(1.0))
        }
    }

    #[test]
    fn budget_is_enforced_and_memo_is_free() {
        let toy = Toy("toy");
        let mut oracle = BudgetedOracle::new(&toy, 2);
        assert_eq!(oracle.measure(0), Some(10.0));
        assert_eq!(oracle.measure(3), Some(7.0));
        assert_eq!(oracle.spent(), 2);
        assert_eq!(oracle.remaining(), 0);
        // Unmeasured index past the budget: refused.
        assert_eq!(oracle.measure(5), None);
        // Re-measuring a memoized index costs nothing and still answers.
        assert_eq!(oracle.measure(0), Some(10.0));
        assert_eq!(oracle.spent(), 2);
        assert_eq!(oracle.best(), Some((3, 7.0)));
    }

    #[test]
    fn evaluations_feed_the_metrics_registry() {
        // A name of its own: sibling tests in this binary measure the
        // `"toy"` workload concurrently, which would move these counters.
        let toy = Toy("toy-metrics");
        let labels = [("workload", "toy-metrics")];
        let evals = lam_obs::global().counter(
            "lam_tune_evaluations_total",
            "Oracle evaluations spent by tuning strategies.",
            &labels,
        );
        let durations = lam_obs::global().histogram(
            "lam_tune_measure_duration_ns",
            "Duration of one oracle measurement, nanoseconds.",
            &labels,
        );
        // Other tests in this binary share the global registry, so
        // assert on deltas, not absolute values.
        let evals_before = evals.get();
        let count_before = durations.snapshot().count();
        let mut oracle = BudgetedOracle::new(&toy, 3);
        oracle.measure(0);
        oracle.measure(1);
        oracle.measure(0); // memo hit: free, not counted
        assert_eq!(evals.get() - evals_before, 2);
        assert_eq!(durations.snapshot().count() - count_before, 2);
    }

    #[test]
    fn trajectory_tracks_the_incumbent() {
        let toy = Toy("toy");
        let mut oracle = BudgetedOracle::new(&toy, 4);
        for i in [2, 8, 5] {
            oracle.measure(i);
        }
        let t = oracle.trajectory();
        assert_eq!(t.len(), 3);
        assert_eq!((t[0].incumbent, t[0].best_oracle), (2, 8.0));
        assert_eq!((t[1].incumbent, t[1].best_oracle), (8, 2.0));
        // A worse measurement keeps the incumbent.
        assert_eq!((t[2].incumbent, t[2].best_oracle), (8, 2.0));
        assert_eq!(t[2].evaluations, 3);
    }
}
