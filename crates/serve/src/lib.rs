//! # lam-serve
//!
//! Turns trained hybrid performance models from one-shot experiment
//! artifacts into durable, servable assets:
//!
//! * [`persist`] — save/load every trained model family (CART trees,
//!   forests, extra trees, boosting, k-NN, linear, and the hybrid) as
//!   compact binary `.lamb` artifacts under `results/models/`, with
//!   bit-exact prediction round-trips;
//! * [`workload`] — [`workload::WorkloadId`], a validated interned-name
//!   handle into the process-wide [`lam_core::catalog::WorkloadCatalog`],
//!   so a saved model can rebuild its analytical component from first
//!   principles on load — and so a scenario registered at runtime is
//!   trained, persisted, and served with zero edits to this crate;
//! * [`registry`] — a [`registry::ModelRegistry`] keyed by
//!   `(workload, kind, version)` that trains on miss, persists the result,
//!   and memoizes loaded models behind `Arc`;
//! * [`batch`] — request-row validation in front of the shared
//!   [`lam_core::batch`] prediction cache + micro-batch executor;
//! * [`http`] — an event-driven HTTP/JSON server (epoll reactor, vendored
//!   shim, no external async stack) with `/predict`, `/tune` (a thin shim
//!   over the `lam-tune` autotuner), `/models`, `/workloads`, and
//!   `/healthz`; `/predict` answers all-cached rows straight from the
//!   prediction cache, small requests with a cache miss coalesce into
//!   cross-connection micro-batches, and both the dispatch queue and the
//!   batch queue shed with `503` + `retry-after` under overload;
//! * [`proto`] — the incremental HTTP/1.1 request parser and response
//!   encoder shared by the reactor's per-connection state machines;
//! * [`loadgen`] — a load generator (closed-loop, pipelined, or open-loop)
//!   reporting throughput and p50/p90/p95/p99 latency against a running
//!   server.
//!
//! Binaries: `serve` (train-or-load + HTTP), `loadgen`, and `tune`
//! (autotune a workload from the command line).
//!
//! ## Quick example
//!
//! ```no_run
//! use lam_serve::registry::{ModelKey, ModelRegistry};
//! use lam_serve::persist::ModelKind;
//! use lam_serve::workload::WorkloadId;
//!
//! let registry = ModelRegistry::new("results/models");
//! // Trains, persists, and memoizes on first call; loads from disk after
//! // a restart; pure memo hit afterwards.
//! let fmm_small = WorkloadId::get("fmm-small").unwrap();
//! let model = registry
//!     .get(ModelKey::new(fmm_small, ModelKind::Hybrid, 1))
//!     .unwrap();
//! let y = model.predict(&[vec![2.0, 8192.0, 64.0, 4.0]]).predictions[0];
//! assert!(y > 0.0);
//! ```

pub mod batch;
pub mod cluster;
pub mod http;
pub mod loadgen;
pub mod persist;
pub mod proto;
pub(crate) mod reactor;
pub mod registry;
pub mod route;
pub mod tuning;
pub mod workload;

use std::fmt;

/// Errors produced across the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// Unknown workload name in a request or CLI flag.
    UnknownWorkload(String),
    /// Unknown model kind in a request or CLI flag.
    UnknownKind(String),
    /// Unknown tuning strategy in a request or CLI flag.
    UnknownStrategy(String),
    /// The autotuner failed (see [`lam_tune::TuneError`]).
    Tune(lam_tune::TuneError),
    /// A request row had the wrong number of features.
    FeatureCount {
        /// Features the model expects.
        expected: usize,
        /// Features the offending row carried.
        actual: usize,
        /// Index of the offending row within the request.
        row: usize,
    },
    /// A request row carried a NaN or infinite feature value. Rejected up
    /// front: non-finite values would poison the prediction cache's key
    /// space and panic distance sorts in k-NN and metric code.
    NonFiniteFeature {
        /// Index of the offending row within the request.
        row: usize,
        /// Column of the offending value within the row.
        col: usize,
    },
    /// Training failed.
    Fit(lam_ml::model::FitError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(String),
    /// Malformed HTTP traffic.
    Http(String),
    /// A persisted model could not be lowered into its servable form
    /// (e.g. an artifact with an unfitted tree — see
    /// [`lam_ml::compile::CompileError`]).
    Model(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            ServeError::UnknownKind(k) => write!(f, "unknown model kind `{k}`"),
            ServeError::UnknownStrategy(s) => write!(
                f,
                "unknown strategy `{s}`: use one of {:?} or `{}`",
                lam_tune::STRATEGY_NAMES,
                lam_tune::ACTIVE_STRATEGY
            ),
            ServeError::Tune(e) => write!(f, "tuning failed: {e}"),
            ServeError::FeatureCount {
                expected,
                actual,
                row,
            } => write!(
                f,
                "row {row} has {actual} features, model expects {expected}"
            ),
            ServeError::NonFiniteFeature { row, col } => {
                write!(f, "row {row} feature {col} is not finite")
            }
            ServeError::Fit(e) => write!(f, "training failed: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Json(m) => write!(f, "json error: {m}"),
            ServeError::Http(m) => write!(f, "http error: {m}"),
            ServeError::Model(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<lam_ml::model::FitError> for ServeError {
    fn from(e: lam_ml::model::FitError) -> Self {
        ServeError::Fit(e)
    }
}

impl From<lam_tune::TuneError> for ServeError {
    fn from(e: lam_tune::TuneError) -> Self {
        ServeError::Tune(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Json(e.to_string())
    }
}

impl From<lam_ml::compile::CompileError> for ServeError {
    fn from(e: lam_ml::compile::CompileError) -> Self {
        ServeError::Model(e.to_string())
    }
}

impl From<lam_data::io::IoError> for ServeError {
    fn from(e: lam_data::io::IoError) -> Self {
        match e {
            lam_data::io::IoError::Io(io) => ServeError::Io(io),
            other => ServeError::Json(other.to_string()),
        }
    }
}
