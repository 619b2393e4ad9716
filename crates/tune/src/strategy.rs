//! The [`Tuner`] trait and the four deterministic search strategies.
//!
//! All four share the same contract: given an erased workload, a trained
//! model, and a [`TuneRequest`] (oracle-evaluation budget, result size,
//! seed), spend at most `budget` oracle evaluations and recommend the
//! best *measured* configuration. They differ in how the model guides
//! which configurations get measured:
//!
//! * [`ExhaustiveRank`] — model-score the whole space in micro-batches
//!   through the shared executor, measure the top `budget` predictions.
//! * [`RandomSearch`] — the model-free baseline: measure a seeded uniform
//!   sample of the space.
//! * [`LocalSearch`] — hill-climb on the parameter lattice
//!   ([`crate::lattice::ParamLattice`]), probing each neighborhood in
//!   model-predicted order and restarting from a fresh seeded point at
//!   local optima.
//! * [`SuccessiveHalving`] — a candidate pool shrinks by `eta` each rung
//!   while the measurement quota concentrates on the survivors, so the
//!   per-candidate measurement budget grows as the pool narrows. (The
//!   oracle here is deterministic, so "more budget per candidate" is
//!   realized as "certainty of being measured at all" rather than
//!   repeated noisy probes.)
//!
//! Every strategy is deterministic under a fixed seed: identical
//! [`TuneReport`]s, byte for byte.

use crate::oracle::BudgetedOracle;
use crate::report::{RankedConfig, TuneReport};
use crate::TuneError;
use lam_core::batch::BatchEngine;
use lam_core::catalog::DynWorkload;
use lam_core::predict::PredictRow;
use lam_ml::rng::Xoshiro256;
use std::collections::BTreeMap;

/// What a tuning run is allowed to spend and what it must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneRequest {
    /// Oracle evaluations the strategy may spend (≥ 1).
    pub budget: usize,
    /// Ranked configurations to return (≥ 1).
    pub top_k: usize,
    /// Seed; the whole run is a pure function of (workload, model, request).
    pub seed: u64,
}

impl Default for TuneRequest {
    fn default() -> Self {
        Self {
            budget: 32,
            top_k: 5,
            seed: 0,
        }
    }
}

impl TuneRequest {
    fn validate(&self, workload: &dyn DynWorkload) -> Result<(), TuneError> {
        if workload.space_size() == 0 {
            return Err(TuneError::EmptySpace(workload.name().to_string()));
        }
        if self.budget == 0 {
            return Err(TuneError::InvalidRequest("budget must be >= 1".into()));
        }
        if self.top_k == 0 {
            return Err(TuneError::InvalidRequest("top_k must be >= 1".into()));
        }
        Ok(())
    }
}

/// A model-guided autotuning strategy over any catalog workload.
pub trait Tuner: Send + Sync {
    /// Stable strategy name (used in reports, HTTP requests, CLI flags).
    fn name(&self) -> &'static str;

    /// Tune `workload` under `request`, guided by `model` (a trained
    /// predictor over the workload's raw feature rows).
    fn tune(
        &self,
        workload: &dyn DynWorkload,
        model: &dyn PredictRow,
        request: &TuneRequest,
    ) -> Result<TuneReport, TuneError>;
}

/// Resolve a strategy by its stable name.
pub fn by_name(name: &str) -> Option<Box<dyn Tuner>> {
    match name {
        "exhaustive" => Some(Box::new(ExhaustiveRank::default())),
        "random" => Some(Box::new(RandomSearch)),
        "local" => Some(Box::new(LocalSearch)),
        "halving" => Some(Box::new(SuccessiveHalving::default())),
        _ => None,
    }
}

/// All four strategies, in canonical order.
pub fn all_strategies() -> Vec<Box<dyn Tuner>> {
    vec![
        Box::new(ExhaustiveRank::default()),
        Box::new(RandomSearch),
        Box::new(LocalSearch),
        Box::new(SuccessiveHalving::default()),
    ]
}

/// The stable names [`by_name`] resolves, in canonical order.
pub const STRATEGY_NAMES: [&str; 4] = ["exhaustive", "random", "local", "halving"];

/// Model-score `rows`. Sets larger than one micro-batch go through a
/// plain executor (no space table: the guide is scored, never looked
/// up) for the parallel fan-out; small sets (a local-search frontier, a
/// random sample) skip even that and call the model's own batch entry
/// point, so arena-compiled guides evaluate the frontier block-wise
/// instead of row at a time.
pub(crate) fn score_rows(model: &dyn PredictRow, rows: &[Vec<f64>]) -> Vec<f64> {
    if rows.len() <= lam_core::batch::DEFAULT_MICRO_BATCH {
        model.predict_rows(rows)
    } else {
        BatchEngine::default().predict(model, rows).predictions
    }
}

/// Indices `0..scores.len()` sorted by ascending score, ties by index —
/// the deterministic ranking every strategy uses.
fn rank_ascending(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    order
}

/// Assemble the report: recommendation = best measured configuration;
/// `top` = measured configurations by oracle time, then scored-but-
/// unmeasured ones by predicted time, truncated to `top_k`. Shared by
/// every strategy *and* the active learner, so the ranking and tie-break
/// contract lives in exactly one place.
pub(crate) fn finalize(
    workload: &dyn DynWorkload,
    strategy: &'static str,
    request: &TuneRequest,
    rows: &[Vec<f64>],
    scored: &BTreeMap<usize, f64>,
    oracle: BudgetedOracle<'_>,
) -> Result<TuneReport, TuneError> {
    let (best_index, _) = oracle.best().ok_or(TuneError::NoMeasurements)?;
    let ranked = |index: usize| RankedConfig {
        index,
        features: rows[index].clone(),
        predicted: scored.get(&index).copied().unwrap_or(f64::NAN),
        oracle: oracle.measured(index),
    };

    let mut measured: Vec<(usize, f64)> = oracle
        .measurements()
        .iter()
        .map(|(&i, &t)| (i, t))
        .collect();
    measured.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut unmeasured: Vec<(usize, f64)> = scored
        .iter()
        .filter(|(i, _)| oracle.measured(**i).is_none())
        .map(|(&i, &p)| (i, p))
        .collect();
    unmeasured.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let top: Vec<RankedConfig> = measured
        .iter()
        .chain(&unmeasured)
        .take(request.top_k)
        .map(|&(i, _)| ranked(i))
        .collect();
    let best = ranked(best_index);

    Ok(TuneReport {
        workload: workload.name().to_string(),
        strategy: strategy.to_string(),
        space_size: rows.len(),
        budget: request.budget,
        evaluations: oracle.spent(),
        best,
        top,
        true_best: None,
        regret: None,
        trajectory: oracle.into_trajectory(),
    })
}

/// Model-score the **whole space** in micro-batches, then spend the
/// entire budget measuring the top-predicted configurations.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveRank {
    /// Micro-batch size for space scoring.
    pub micro_batch: usize,
}

impl Default for ExhaustiveRank {
    fn default() -> Self {
        Self {
            micro_batch: lam_core::batch::DEFAULT_MICRO_BATCH,
        }
    }
}

impl Tuner for ExhaustiveRank {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn tune(
        &self,
        workload: &dyn DynWorkload,
        model: &dyn PredictRow,
        request: &TuneRequest,
    ) -> Result<TuneReport, TuneError> {
        request.validate(workload)?;
        let rows = workload.feature_rows();
        let engine = BatchEngine::new(self.micro_batch);
        let predictions = engine.predict(model, &rows).predictions;
        let scored: BTreeMap<usize, f64> = predictions.iter().copied().enumerate().collect();
        let mut oracle = BudgetedOracle::new(workload, request.budget);
        for index in rank_ascending(&predictions) {
            if oracle.measure(index).is_none() {
                break;
            }
        }
        finalize(workload, self.name(), request, &rows, &scored, oracle)
    }
}

/// The model-free baseline: measure a seeded uniform sample (without
/// replacement) of the space. The model is only consulted to report
/// predicted times alongside the measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl Tuner for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn tune(
        &self,
        workload: &dyn DynWorkload,
        model: &dyn PredictRow,
        request: &TuneRequest,
    ) -> Result<TuneReport, TuneError> {
        request.validate(workload)?;
        let rows = workload.feature_rows();
        let mut rng = Xoshiro256::seeded(request.seed);
        let sample = rng.sample_indices(rows.len(), request.budget.min(rows.len()));
        let sample_rows: Vec<Vec<f64>> = sample.iter().map(|&i| rows[i].clone()).collect();
        let predictions = score_rows(model, &sample_rows);
        let scored: BTreeMap<usize, f64> = sample
            .iter()
            .copied()
            .zip(predictions.iter().copied())
            .collect();
        let mut oracle = BudgetedOracle::new(workload, request.budget);
        for &index in &sample {
            if oracle.measure(index).is_none() {
                break;
            }
        }
        finalize(workload, self.name(), request, &rows, &scored, oracle)
    }
}

/// Neighborhood hill-climb on the parameter lattice: from a seeded start,
/// score the current point's lattice neighbors with the model and measure
/// them most-promising-first; move to the first measured improvement. At
/// a local optimum, restart from a fresh seeded unmeasured point until
/// the budget runs out.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearch;

impl Tuner for LocalSearch {
    fn name(&self) -> &'static str {
        "local"
    }

    fn tune(
        &self,
        workload: &dyn DynWorkload,
        model: &dyn PredictRow,
        request: &TuneRequest,
    ) -> Result<TuneReport, TuneError> {
        request.validate(workload)?;
        let lattice = crate::lattice::ParamLattice::new(workload.feature_rows());
        let n = lattice.len();
        let mut rng = Xoshiro256::seeded(request.seed);
        let mut scored: BTreeMap<usize, f64> = BTreeMap::new();
        let mut oracle = BudgetedOracle::new(workload, request.budget);

        'restarts: while oracle.remaining() > 0 && oracle.spent() < n {
            // Fresh start: a seeded draw over the unmeasured indices.
            let unmeasured: Vec<usize> = (0..n).filter(|&i| oracle.measured(i).is_none()).collect();
            let mut current = unmeasured[rng.next_below(unmeasured.len())];
            scored
                .entry(current)
                .or_insert_with(|| model.predict_row(&lattice.rows()[current]));
            let Some(mut current_time) = oracle.measure(current) else {
                break;
            };

            loop {
                let frontier: Vec<usize> = lattice
                    .neighbors(current)
                    .into_iter()
                    .filter(|&i| oracle.measured(i).is_none())
                    .collect();
                if frontier.is_empty() {
                    continue 'restarts; // exhausted neighborhood
                }
                // Score through the memo: a candidate seen from an earlier
                // neighborhood is never re-predicted.
                let preds: Vec<f64> = frontier
                    .iter()
                    .map(|&i| {
                        *scored
                            .entry(i)
                            .or_insert_with(|| model.predict_row(&lattice.rows()[i]))
                    })
                    .collect();
                // Probe most-promising-first; move on first improvement.
                let mut moved = false;
                for pos in rank_ascending(&preds) {
                    let candidate = frontier[pos];
                    let Some(t) = oracle.measure(candidate) else {
                        break 'restarts;
                    };
                    if t < current_time {
                        current = candidate;
                        current_time = t;
                        moved = true;
                        break;
                    }
                }
                if !moved {
                    continue 'restarts; // local optimum
                }
            }
        }
        finalize(
            workload,
            self.name(),
            request,
            lattice.rows(),
            &scored,
            oracle,
        )
    }
}

/// Successive halving: build a candidate pool of up to
/// `pool_factor × budget` configurations — half *exploit* (the model's
/// top predictions over the whole space) and half *explore* (a seeded
/// random draw from the rest, hedging against model error) — then
/// repeatedly measure the most promising unmeasured candidates under a
/// per-rung quota, re-rank by best available information (oracle beats
/// model), and keep the top `1/eta` of the pool.
#[derive(Debug, Clone, Copy)]
pub struct SuccessiveHalving {
    /// Pool shrink factor per rung (≥ 2).
    pub eta: usize,
    /// Initial pool size as a multiple of the budget.
    pub pool_factor: usize,
}

impl Default for SuccessiveHalving {
    fn default() -> Self {
        Self {
            eta: 2,
            pool_factor: 2,
        }
    }
}

impl Tuner for SuccessiveHalving {
    fn name(&self) -> &'static str {
        "halving"
    }

    fn tune(
        &self,
        workload: &dyn DynWorkload,
        model: &dyn PredictRow,
        request: &TuneRequest,
    ) -> Result<TuneReport, TuneError> {
        request.validate(workload)?;
        let eta = self.eta.max(2);
        let rows = workload.feature_rows();
        let mut rng = Xoshiro256::seeded(request.seed);
        let pool_size = rows
            .len()
            .min(request.budget.saturating_mul(self.pool_factor.max(1)));

        // Model scoring costs no oracle budget, so score the whole space
        // once; the exploit half of the pool is its top predictions.
        let predictions = score_rows(model, &rows);
        let scored: BTreeMap<usize, f64> = predictions.iter().copied().enumerate().collect();
        let rank = rank_ascending(&predictions);
        let exploit_n = pool_size.div_ceil(2);
        let mut pool: Vec<usize> = rank[..exploit_n].to_vec();
        // The explore half: a seeded draw from the remaining indices.
        let rest = &rank[exploit_n..];
        let explore_n = (pool_size - exploit_n).min(rest.len());
        pool.extend(
            rng.sample_indices(rest.len(), explore_n)
                .iter()
                .map(|&p| rest[p]),
        );

        let mut oracle = BudgetedOracle::new(workload, request.budget);
        // Rank the pool by predicted time before the first rung.
        pool.sort_by(|&a, &b| scored[&a].total_cmp(&scored[&b]).then(a.cmp(&b)));

        while pool.len() > 1 && oracle.remaining() > 0 {
            // Spread the remaining budget over the rungs still ahead, so
            // the per-candidate quota grows as the pool halves.
            let rungs_left = pool.len().ilog2().max(1) as usize;
            let quota = oracle.remaining().div_ceil(rungs_left).max(1);
            let mut spent_this_rung = 0;
            for &index in pool.iter() {
                if spent_this_rung >= quota {
                    break;
                }
                if oracle.measured(index).is_some() {
                    continue;
                }
                if oracle.measure(index).is_none() {
                    break;
                }
                spent_this_rung += 1;
            }
            // Re-rank: measured candidates by oracle time first, then
            // unmeasured by model prediction; keep the top 1/eta.
            pool.sort_by(|&a, &b| {
                let key = |i: usize| match oracle.measured(i) {
                    Some(t) => (0u8, t),
                    None => (1u8, scored[&i]),
                };
                let (ka, ta) = key(a);
                let (kb, tb) = key(b);
                ka.cmp(&kb).then(ta.total_cmp(&tb)).then(a.cmp(&b))
            });
            pool.truncate(pool.len().div_ceil(eta));
        }
        // A degenerate pool (budget 1, pool 1) may exit without measuring.
        if oracle.best().is_none() {
            if let Some(&index) = pool.first() {
                oracle.measure(index);
            }
        }
        finalize(workload, self.name(), request, &rows, &scored, oracle)
    }
}
