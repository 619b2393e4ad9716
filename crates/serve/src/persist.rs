//! Trained-model persistence: every model family the workspace trains can
//! be saved and loaded back with *bit-identical* predictions.
//!
//! The trained state of each family is a plain serializable struct
//! ([`lam_ml`] derives the vendored serde traits on all of them); this
//! module adds the closed [`TrainedMl`] sum over those families plus the
//! [`SavedModel`] envelope carrying the metadata a later process needs to
//! serve the model: the scenario ([`WorkloadId`]), the model kind, a
//! version, the feature schema, and — for hybrids — the
//! [`HybridConfig`] whose analytical component is rebuilt from the
//! workload id at load time (analytical models are closed-form and carry
//! no trained state, so persisting their name is persisting the model).
//!
//! ## Artifact format
//!
//! Every artifact is **compact binary** (`.lamb`, see
//! [`lam_data::binio`]): `f64` bit patterns are written verbatim in
//! little-endian order behind a versioned magic header, so loading a
//! forest is a bounds-checked byte walk with no float parsing.
//! [`SavedModel::save`] writes it, [`SavedModel::load`] and
//! [`SavedModel::from_lamb_bytes`] read it back (from disk or from a
//! peer) and check the same invariants. A JSON dump for inspection is one
//! `serde_json::to_string_pretty` call away; nothing loads one.
//!
//! Loading also *compiles*: [`SavedModel::into_predictor`] lowers tree
//! ensembles into the [`lam_ml::compile`] SoA arena, so everything
//! downstream of a load (the registry, the batch engine, the tuning
//! strategies) serves from the blocked, branchless fast path while
//! staying bit-identical to the interpreted model.

use crate::workload::WorkloadId;
use crate::ServeError;
use lam_core::hybrid::HybridConfig;
use lam_core::hybrid::{HybridModel, HybridPredictor};
use lam_core::predict::{Compiled, PredictRow};
use lam_ml::compile::CompileError;
use lam_ml::ensemble::GradientBoostingRegressor;
use lam_ml::forest::{ExtraTreesRegressor, RandomForestRegressor};
use lam_ml::knn::KnnRegressor;
use lam_ml::linear::LinearRegressor;
use lam_ml::model::Regressor;
use lam_ml::tree::DecisionTreeRegressor;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Version tag written into every model file; bump on breaking layout
/// changes so stale artifacts fail loudly instead of deserializing wrong.
pub const FORMAT_VERSION: u32 = 1;

/// The servable model families, by stable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Single CART regression tree.
    Cart,
    /// Random forest (bootstrap + best splits).
    RandomForest,
    /// Extremely randomized trees — the paper's best pure-ML model.
    ExtraTrees,
    /// Gradient-boosted trees.
    Boosting,
    /// Distance-weighted k-nearest neighbours.
    Knn,
    /// Ridge-regularized linear regression.
    Linear,
    /// The paper's hybrid: analytical model stacked under extra trees.
    Hybrid,
}

impl ModelKind {
    /// Every servable kind, in canonical order.
    pub fn all() -> [ModelKind; 7] {
        [
            ModelKind::Cart,
            ModelKind::RandomForest,
            ModelKind::ExtraTrees,
            ModelKind::Boosting,
            ModelKind::Knn,
            ModelKind::Linear,
            ModelKind::Hybrid,
        ]
    }

    /// Stable name used in URLs, file names, and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Cart => "cart",
            ModelKind::RandomForest => "random-forest",
            ModelKind::ExtraTrees => "extra-trees",
            ModelKind::Boosting => "boosting",
            ModelKind::Knn => "knn",
            ModelKind::Linear => "linear",
            ModelKind::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelKind {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ServeError::UnknownKind(s.to_string()))
    }
}

impl Serialize for ModelKind {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for ModelKind {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = value
            .as_str()
            .ok_or_else(|| DeError::expected("string", "ModelKind", value))?;
        s.parse()
            .map_err(|_| DeError::custom(format!("unknown model kind `{s}`")))
    }
}

/// The trained state of one ML model, as a closed serializable sum.
///
/// For [`ModelKind::Hybrid`] this is the *stacked* component — the
/// regressor fitted on rows augmented with the analytical prediction; the
/// analytical side lives in the enclosing [`SavedModel`] as a
/// [`WorkloadId`] + [`HybridConfig`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TrainedMl {
    /// A fitted CART tree.
    Cart(DecisionTreeRegressor),
    /// A fitted random forest.
    RandomForest(RandomForestRegressor),
    /// A fitted extra-trees forest.
    ExtraTrees(ExtraTreesRegressor),
    /// A fitted boosting ensemble.
    Boosting(GradientBoostingRegressor),
    /// A fitted k-NN model (stores its training set).
    Knn(KnnRegressor),
    /// A fitted linear model.
    Linear(LinearRegressor),
}

impl TrainedMl {
    /// Move the trained model into a boxed [`Regressor`].
    pub fn into_regressor(self) -> Box<dyn Regressor> {
        match self {
            TrainedMl::Cart(m) => Box::new(m),
            TrainedMl::RandomForest(m) => Box::new(m),
            TrainedMl::ExtraTrees(m) => Box::new(m),
            TrainedMl::Boosting(m) => Box::new(m),
            TrainedMl::Knn(m) => Box::new(m),
            TrainedMl::Linear(m) => Box::new(m),
        }
    }

    /// Lower the trained model into its fastest [`PredictRow`] form: tree
    /// families are arena-compiled ([`lam_ml::compile`], bit-identical
    /// predictions, blocked batch evaluation); k-NN and linear models are
    /// boxed directly (no tree structure to compile).
    ///
    /// An artifact carrying an unfitted tree surfaces here as a typed
    /// [`CompileError::NotFitted`] — once per load, not per prediction.
    pub fn into_fast_predictor(self) -> Result<Box<dyn PredictRow>, CompileError> {
        Ok(match self {
            TrainedMl::Cart(m) => Box::new(Compiled(m.compile()?)),
            TrainedMl::RandomForest(m) => Box::new(Compiled(m.compile()?)),
            TrainedMl::ExtraTrees(m) => Box::new(Compiled(m.compile()?)),
            TrainedMl::Boosting(m) => Box::new(Compiled(m.compile()?)),
            TrainedMl::Knn(m) => Box::new(m),
            TrainedMl::Linear(m) => Box::new(m),
        })
    }
}

/// A persisted trained model: metadata + trained state, the unit written
/// to and read from `results/models/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// File-format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Scenario the model was trained for.
    pub workload: WorkloadId,
    /// Model family.
    pub kind: ModelKind,
    /// Artifact version within `(workload, kind)`.
    pub version: u32,
    /// Feature-column names of *request* rows (pre-augmentation).
    pub feature_names: Vec<String>,
    /// Number of training rows used.
    pub trained_rows: usize,
    /// Hybrid configuration; `Some` exactly when `kind` is
    /// [`ModelKind::Hybrid`].
    pub hybrid: Option<HybridConfig>,
    /// The trained (stacked, for hybrids) regressor.
    pub ml: TrainedMl,
}

impl SavedModel {
    /// Canonical (binary) file name of this artifact:
    /// `{workload}__{kind}__v{n}.lamb`.
    pub fn file_name(workload: WorkloadId, kind: ModelKind, version: u32) -> String {
        format!("{workload}__{kind}__v{version}.lamb")
    }

    /// Parse an artifact file name back into its key parts; `None` for
    /// foreign files.
    pub fn parse_file_name(name: &str) -> Option<(WorkloadId, ModelKind, u32)> {
        let stem = name.strip_suffix(".lamb")?;
        let mut parts = stem.split("__");
        let workload = parts.next()?.parse().ok()?;
        let kind = parts.next()?.parse().ok()?;
        let version = parts.next()?.strip_prefix('v')?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((workload, kind, version))
    }

    /// Atomically publish artifact `bytes` as `dir/name` (write to a temp
    /// file, then rename): registries in other processes polling
    /// `path.is_file()` never observe a truncated artifact. The temp name
    /// carries the pid *and* a process-wide counter so concurrent
    /// train-on-miss saves of the same key (the registry deliberately lets
    /// racers both train) never collide on the temp path. The registry
    /// publishes a peer's bytes verbatim through this, once they compiled.
    pub(crate) fn publish(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, ServeError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let tmp = dir.join(format!(
            ".{name}.tmp-{}-{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Encode the model in the canonical compact binary format — the
    /// bytes [`SavedModel::save`] publishes and the
    /// `GET /models/{workload}/{kind}/artifact` endpoint serves to peers.
    pub fn to_lamb_bytes(&self) -> Result<Vec<u8>, ServeError> {
        Ok(lam_data::binio::to_bytes(self)?)
    }

    /// Decode and validate binary artifact bytes. A peer-fetched artifact
    /// is untrusted input exactly like a file on disk, so the same
    /// invariants apply: format version, hybrid-config consistency, and
    /// stacked-weight range. `source` labels errors (a path or peer URL).
    pub fn from_lamb_bytes(bytes: &[u8], source: &str) -> Result<Self, ServeError> {
        let model: SavedModel = lam_data::binio::from_bytes(bytes)?;
        model.validate(source)?;
        Ok(model)
    }

    /// Write the model in the canonical compact binary format under
    /// `dir`, creating the directory if needed. Publication is atomic.
    /// Returns the path written.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ServeError> {
        let name = Self::file_name(self.workload, self.kind, self.version);
        let bytes = self.to_lamb_bytes()?;
        Self::publish(dir, &name, &bytes)
    }

    /// Load a model written by [`SavedModel::save`], with the checks of
    /// [`SavedModel::from_lamb_bytes`].
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        Self::from_lamb_bytes(&std::fs::read(path)?, &path.display().to_string())
    }

    /// The invariants every artifact must satisfy before it may serve,
    /// wherever its bytes came from (disk or a peer).
    fn validate(&self, source: &str) -> Result<(), ServeError> {
        if self.format_version != FORMAT_VERSION {
            return Err(ServeError::Json(format!(
                "model artifact {source} has format version {}, this build reads {}",
                self.format_version, FORMAT_VERSION
            )));
        }
        // A hybrid without its config (or vice versa) would silently serve
        // the stacked model on unaugmented rows — and the stacked forest
        // splits on the augmentation column, so predictions would index
        // out of bounds. Refuse the artifact instead.
        if (self.kind == ModelKind::Hybrid) != self.hybrid.is_some() {
            return Err(ServeError::Json(format!(
                "model artifact {source} is inconsistent: kind `{}` with hybrid config {}",
                self.kind,
                if self.hybrid.is_some() {
                    "present"
                } else {
                    "absent"
                }
            )));
        }
        // Training validates stacked_weight ∈ [0, 1]; a hand-edited or
        // corrupted config must not bypass that and serve extrapolated
        // aggregations (e.g. negative runtimes).
        if let Some(config) = &self.hybrid {
            if !(0.0..=1.0).contains(&config.stacked_weight) {
                return Err(ServeError::Json(format!(
                    "model artifact {source} has stacked_weight {} outside [0, 1]",
                    config.stacked_weight
                )));
            }
        }
        Ok(())
    }

    /// Assemble the servable predictor, arena-compiling every tree
    /// ensemble on the way ([`TrainedMl::into_fast_predictor`]): pure-ML
    /// kinds serve the compiled model directly; hybrids become a
    /// [`HybridPredictor`] over the compiled stacked model, the persisted
    /// configuration, and the workload's analytical model. Predictions are
    /// bit-identical to the interpreted assembly
    /// ([`SavedModel::into_interpreted_predictor`]).
    pub fn into_predictor(self) -> Result<Box<dyn PredictRow>, ServeError> {
        match self.hybrid {
            Some(config) => Ok(Box::new(HybridPredictor::new(
                self.workload.analytical_model(),
                self.ml.into_fast_predictor()?,
                config,
            ))),
            None => Ok(self.ml.into_fast_predictor()?),
        }
    }

    /// Assemble the predictor *without* arena compilation: the plain
    /// regressor for pure-ML kinds, or a [`HybridModel`] reassembled from
    /// fitted parts for hybrids. This is the pre-compilation serving path,
    /// kept as the reference implementation that equivalence tests and
    /// benchmarks compare [`SavedModel::into_predictor`] against.
    pub fn into_interpreted_predictor(self) -> Box<dyn PredictRow> {
        match self.hybrid {
            Some(config) => Box::new(HybridModel::from_fitted_parts(
                self.workload.analytical_model(),
                self.ml.into_regressor(),
                config,
            )),
            None => {
                let boxed: Box<dyn Regressor> = self.ml.into_regressor();
                Box::new(boxed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmm_small() -> WorkloadId {
        WorkloadId::get("fmm-small").expect("builtin workload")
    }

    #[test]
    fn kind_names_round_trip() {
        for k in ModelKind::all() {
            assert_eq!(k.name().parse::<ModelKind>().unwrap(), k);
        }
        assert!("gbm".parse::<ModelKind>().is_err());
    }

    #[test]
    fn file_names_round_trip() {
        for w in WorkloadId::all() {
            for k in ModelKind::all() {
                let name = SavedModel::file_name(w, k, 3);
                assert!(name.ends_with(".lamb"));
                assert_eq!(SavedModel::parse_file_name(&name), Some((w, k, 3)));
            }
        }
        assert_eq!(SavedModel::parse_file_name("notes.txt"), None);
        assert_eq!(SavedModel::parse_file_name("a__b__v1.lamb"), None);
        assert_eq!(
            SavedModel::parse_file_name("fmm-small__cart__v1.json"),
            None
        );
        assert_eq!(
            SavedModel::parse_file_name("fmm-small__cart__v1__extra.lamb"),
            None
        );
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        use lam_ml::model::Regressor as _;
        let data = fmm_small().dataset();
        let mut tree = DecisionTreeRegressor::new(lam_ml::tree::TreeParams::default(), 7);
        tree.fit(&data).unwrap();
        let saved = SavedModel {
            format_version: FORMAT_VERSION,
            workload: fmm_small(),
            kind: ModelKind::Cart,
            version: 1,
            feature_names: fmm_small().feature_names(),
            trained_rows: data.len(),
            hybrid: None,
            ml: TrainedMl::Cart(tree.clone()),
        };
        let dir = std::env::temp_dir().join("lam_serve_persist_test");
        let path = saved.save(&dir).unwrap();
        let back = SavedModel::load(&path).unwrap();
        assert_eq!(back.version, 1);
        assert_eq!(back.kind, ModelKind::Cart);
        let predictor = back.into_predictor().unwrap();
        for i in 0..data.len() {
            assert_eq!(
                lam_ml::model::Regressor::predict_row(&tree, data.row(i)).to_bits(),
                predictor.predict_row(data.row(i)).to_bits()
            );
        }
    }

    /// A fitted one-feature linear model, wrapped as an artifact of
    /// `kind`/`version` with the given hybrid config (consistent or not).
    fn linear_artifact(kind: ModelKind, version: u32, hybrid: Option<HybridConfig>) -> SavedModel {
        use lam_ml::model::Regressor as _;
        let d = lam_data::Dataset::new(vec!["x".into()], vec![1.0, 2.0], vec![1.0, 2.0]).unwrap();
        let mut lin = LinearRegressor::new(0.0);
        lin.fit(&d).unwrap();
        SavedModel {
            format_version: FORMAT_VERSION,
            workload: fmm_small(),
            kind,
            version,
            feature_names: vec!["x".into()],
            trained_rows: 2,
            hybrid,
            ml: TrainedMl::Linear(lin),
        }
    }

    /// `save` writes any artifact; `load` must refuse it.
    fn assert_load_rejects(model: &SavedModel, tag: &str) {
        let dir = std::env::temp_dir().join(format!("lam_serve_persist_{tag}"));
        let path = model.save(&dir).unwrap();
        assert!(
            matches!(SavedModel::load(&path), Err(ServeError::Json(_))),
            "{tag}"
        );
    }

    #[test]
    fn hybrid_config_invariant_enforced_on_load() {
        // Claims to be a hybrid but carries no hybrid config.
        assert_load_rejects(&linear_artifact(ModelKind::Hybrid, 3, None), "badhybrid");
        // A hybrid config on a pure-ML kind.
        let config = fmm_small().hybrid_config();
        assert_load_rejects(
            &linear_artifact(ModelKind::Linear, 3, Some(config)),
            "strayconfig",
        );
        // A stacked weight outside [0, 1] would extrapolate aggregations.
        let config = HybridConfig {
            stacked_weight: 1.5,
            ..config
        };
        assert_load_rejects(
            &linear_artifact(ModelKind::Hybrid, 4, Some(config)),
            "badweight",
        );
    }

    #[test]
    fn format_version_mismatch_rejected() {
        let mut bad = linear_artifact(ModelKind::Linear, 9, None);
        bad.format_version = FORMAT_VERSION + 1;
        assert_load_rejects(&bad, "badver");
    }
}
