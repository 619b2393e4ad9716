//! # lam-core
//!
//! The paper's contribution: a **hybrid performance model** that couples an
//! analytical model with a machine-learning regressor using the two
//! ensemble mechanisms of Fig 4:
//!
//! 1. **Stacking** — the analytical model's prediction is appended to the
//!    feature vector of the ML model ("the analytical model predictions are
//!    regarded as additional features for the machine learning model");
//! 2. **Bagging-style aggregation** (optional) — the analytical and
//!    stacked-model predictions are aggregated into the final prediction.
//!    This step is "supplementary and its benefits depend on how
//!    representative the analytical models are" — it is disabled for the
//!    Fig 7 study, where the analytical model does not capture parallelism.
//!
//! [`evaluate`] provides the experiment protocol of §VII: uniformly sample
//! a training window, fit pure-ML and hybrid models, score MAPE on the
//! held-out remainder, repeat over trials.

//!
//! [`workload`] abstracts one application scenario (configuration space,
//! feature projection, oracle, analytical model) behind a single trait so
//! the whole pipeline — dataset generation, evaluation, figure binaries —
//! is generic over scenarios. [`catalog`] erases that trait's associated
//! `Config` type behind the object-safe [`catalog::DynWorkload`] and keeps
//! a process-wide [`catalog::WorkloadCatalog`] of named scenario
//! descriptors with memoized datasets — the layer that lets serving code
//! pick up new scenarios from one registration call instead of an enum
//! edit. [`predict`] exposes the object-safe read-only [`PredictRow`]
//! surface serving layers share across threads, and [`batch`] the
//! immutable per-model space table + order-preserving micro-batch
//! executor that both the serving layer and the autotuner score models
//! through.

pub mod batch;
pub mod catalog;
pub mod evaluate;
pub mod hybrid;
pub mod predict;
pub mod workload;
pub mod wrap;

pub use batch::{BatchEngine, BatchOutcome, SpaceTable};
pub use catalog::{CatalogError, DynWorkload, WorkloadCatalog, WorkloadEntry};
pub use evaluate::{
    evaluate_model, evaluate_workload, EvaluationConfig, SeriesPoint, TrialOutcome,
};
pub use hybrid::{HybridConfig, HybridModel};
pub use predict::PredictRow;
pub use workload::Workload;
pub use wrap::AnalyticalRegressor;
