//! The model registry: `(workload, kind, version)` → a loaded, servable
//! model.
//!
//! Resolution order on [`ModelRegistry::get`]:
//!
//! 1. **memo** — models already loaded this process, shared behind `Arc`;
//! 2. **artifact** — a `.lamb` file under the registry root written by
//!    an earlier process (the only model format; any other file there,
//!    such as a `.json` left by an older build, is ignored);
//! 3. **peer fetch** — when the registry was built with
//!    [`ModelRegistry::with_peers`], ask each peer's
//!    `GET /models/{workload}/{kind}/artifact` for its artifact; a hit
//!    that decodes, carries the requested key, and compiles is persisted
//!    locally byte for byte and memoized — a cold replica pulls an
//!    already-trained model instead of re-training it;
//! 4. **train** — generate the workload dataset, fit the requested model
//!    family deterministically (seed derived from the key), persist the
//!    artifact, then memoize it.
//!
//! Loading arena-compiles tree ensembles ([`SavedModel::into_predictor`]),
//! so every served prediction runs the blocked, branchless fast path.
//!
//! Training happens *outside* the registry lock, so a cold miss on one
//! model never blocks serving traffic on already-loaded ones; if two
//! threads race on the same cold key, the first insert wins and the loser
//! adopts the winner's `Arc` (training is deterministic, so both built
//! the same model).

use crate::batch::{BatchEngine, BatchOutcome};
use crate::persist::{ModelKind, SavedModel, TrainedMl, FORMAT_VERSION};
use crate::workload::WorkloadId;
use crate::ServeError;
use lam_core::predict::PredictRow;
use lam_ml::ensemble::GradientBoostingRegressor;
use lam_ml::forest::{ExtraTreesRegressor, RandomForestRegressor};
use lam_ml::knn::KnnRegressor;
use lam_ml::linear::LinearRegressor;
use lam_ml::model::Regressor;
use lam_ml::sampling::train_test_split_fraction;
use lam_ml::tree::{DecisionTreeRegressor, TreeParams};
use lam_obs::recorder::SpanStatus;
use lam_obs::{Counter, SpanRecord};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fraction of the workload dataset used to train servable models (the
/// rest is the serving surface the paper's protocol predicts onto).
pub const TRAIN_FRACTION: f64 = 0.35;

/// Trees per servable forest (smaller than the figure experiments' 100:
/// serving favours latency, and accuracy saturates well before this).
pub const N_TREES: usize = 50;

/// Identity of one servable model artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Scenario the model serves.
    pub workload: WorkloadId,
    /// Model family.
    pub kind: ModelKind,
    /// Artifact version within `(workload, kind)`.
    pub version: u32,
}

impl ModelKey {
    /// Assemble a key.
    pub fn new(workload: WorkloadId, kind: ModelKind, version: u32) -> Self {
        Self {
            workload,
            kind,
            version,
        }
    }

    /// Deterministic training seed: stable across processes so a retrain
    /// of the same key reproduces the same artifact bit for bit.
    fn train_seed(&self) -> u64 {
        let kind_ix = ModelKind::all()
            .iter()
            .position(|k| *k == self.kind)
            .expect("kind in canonical list") as u64;
        0x5E_ED_1A_A1 ^ (kind_ix << 32) ^ u64::from(self.version)
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/v{}", self.workload, self.kind, self.version)
    }
}

/// A loaded model ready to serve: metadata, the immutable predictor, and
/// its private batched-inference engine (the cache is keyed by feature
/// vector, so sharing one across models would alias their entries).
pub struct LoadedModel {
    /// The model's identity.
    pub key: ModelKey,
    /// Feature schema requests must match.
    pub feature_names: Vec<String>,
    /// Training rows used when the artifact was built.
    pub trained_rows: usize,
    predictor: Box<dyn PredictRow>,
    engine: BatchEngine,
}

impl LoadedModel {
    fn from_saved(key: ModelKey, saved: SavedModel) -> Result<Self, ServeError> {
        // Per-model metric scope (`workload/kind`): cache hit rates and
        // batch-size distributions are only actionable per model. Label
        // interning happens here, at load time — never per prediction.
        let scope = format!("{}/{}", key.workload, key.kind);
        Ok(Self {
            key,
            feature_names: saved.feature_names.clone(),
            trained_rows: saved.trained_rows,
            predictor: saved.into_predictor()?,
            engine: BatchEngine::scoped(
                lam_core::batch::DEFAULT_MICRO_BATCH,
                lam_core::batch::DEFAULT_MICRO_BATCH,
                &scope,
            ),
        })
    }

    /// Validate feature counts and finiteness, then predict the batch
    /// through the cache and micro-batch executor. Response order matches
    /// request order.
    pub fn predict_checked(&self, rows: &[Vec<f64>]) -> Result<BatchOutcome, ServeError> {
        crate::batch::validate_rows(self.feature_names.len(), rows)?;
        Ok(self.engine.predict(&*self.predictor, rows))
    }

    /// Predict a batch, panicking on schema mismatch (test/bench helper).
    pub fn predict(&self, rows: &[Vec<f64>]) -> BatchOutcome {
        self.predict_checked(rows).expect("feature count matches")
    }

    /// Direct, cache-bypassing single-row prediction.
    pub fn predict_row_uncached(&self, row: &[f64]) -> f64 {
        self.predictor.predict_row(row)
    }

    /// The model's batched-inference engine.
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }
}

// A loaded model is a coalescing target for the cross-connection
// `BatchScheduler`: rows gathered from many concurrent requests run as
// one batch through this model's own cache + executor, and the per-row
// hit mask lets the scheduler hand each request back its exact
// `cache_hits` share.
impl lam_core::batch::BatchTarget for LoadedModel {
    fn run_batch(&self, rows: &[Vec<f64>]) -> lam_core::batch::MaskedOutcome {
        self.engine.predict_masked(&*self.predictor, rows)
    }
}

// A loaded model is directly usable wherever an object-safe predictor is
// expected — e.g. as the guiding model of a `lam-tune` strategy. Batch
// prediction routes through the model's own cache + executor.
impl PredictRow for LoadedModel {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.predictor.predict_row(x)
    }

    fn predict_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.engine.predict(&*self.predictor, rows).predictions
    }
}

/// One row of the registry's catalog (the `/models` endpoint).
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The artifact's identity.
    pub key: ModelKey,
    /// Artifact path under the registry root.
    pub path: PathBuf,
    /// `true` when the model is memoized in this process.
    pub loaded: bool,
}

/// Resolution-path counters of one registry, interned at construction:
/// how a `get` was satisfied. The ratio of `memo` to the disk/train
/// paths is the cold-start picture of a serving process.
struct ResolutionCounters {
    memo: Arc<Counter>,
    disk_lamb: Arc<Counter>,
    peer: Arc<Counter>,
    train: Arc<Counter>,
}

impl ResolutionCounters {
    fn new() -> Self {
        let counter = |path: &str| {
            lam_obs::global().counter(
                "lam_registry_resolutions_total",
                "Model-registry resolutions, by resolution path.",
                &[("path", path)],
            )
        };
        Self {
            memo: counter("memo"),
            disk_lamb: counter("disk-lamb"),
            peer: counter("peer"),
            train: counter("train"),
        }
    }
}

/// Train-on-miss, persist, memoize model registry.
pub struct ModelRegistry {
    root: PathBuf,
    memo: Mutex<HashMap<ModelKey, Arc<LoadedModel>>>,
    resolutions: ResolutionCounters,
    /// Peer backends (`host:port`) asked for artifacts before training.
    peers: Vec<String>,
}

impl ModelRegistry {
    /// Registry rooted at `root` (conventionally `results/models`). The
    /// directory is created lazily on first persist.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            memo: Mutex::new(HashMap::new()),
            resolutions: ResolutionCounters::new(),
            peers: Vec::new(),
        }
    }

    /// Registry that asks `peers` (`host:port` addresses of other
    /// lam-serve processes) for missing artifacts before falling back to
    /// training them itself.
    pub fn with_peers(root: impl Into<PathBuf>, peers: Vec<String>) -> Self {
        let mut reg = Self::new(root);
        reg.peers = peers;
        reg
    }

    /// The conventional on-disk root.
    pub fn default_root() -> PathBuf {
        PathBuf::from("results/models")
    }

    /// Artifact path for a key.
    pub fn path_for(&self, key: ModelKey) -> PathBuf {
        self.root.join(artifact_name(key))
    }

    /// Registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of models memoized in this process.
    pub fn loaded_count(&self) -> usize {
        self.memo.lock().expect("registry poisoned").len()
    }

    /// Resolve a key: memo, then disk, then peers, then train + persist
    /// (see module docs for the concurrency contract).
    pub fn get(&self, key: ModelKey) -> Result<Arc<LoadedModel>, ServeError> {
        if let Some(hit) = self.memo.lock().expect("registry poisoned").get(&key) {
            self.resolutions.memo.inc();
            return Ok(Arc::clone(hit));
        }
        // Every non-memo path is slow (disk read, peer fetch, or a full
        // training run), so it earns a `registry.resolve` span hung off
        // the requesting handler's thread-local trace context.
        let resolve_started = Instant::now();
        let path = self.path_for(key);
        let (loaded, resolved_via) = if path.is_file() {
            self.resolutions.disk_lamb.inc();
            let saved = SavedModel::load(&path)?;
            expect_key(&saved, key, &path.display())?;
            (LoadedModel::from_saved(key, saved)?, "disk-lamb")
        } else if let Some(loaded) = self.fetch_from_peers(key) {
            (loaded, "peer")
        } else {
            self.resolutions.train.inc();
            // Train duration is a cold-path metric: interning the
            // (workload, kind) labels here costs nothing that matters
            // next to the training run itself.
            let timer = lam_obs::enabled().then(Instant::now);
            let trained = train(key)?;
            if let Some(t) = timer {
                lam_obs::global()
                    .histogram(
                        "lam_train_duration_ns",
                        "Train-on-miss model training time, nanoseconds.",
                        &[
                            ("workload", &key.workload.to_string()),
                            ("kind", key.kind.name()),
                        ],
                    )
                    .record(t.elapsed().as_nanos() as u64);
            }
            trained.save(&self.root)?;
            (LoadedModel::from_saved(key, trained)?, "train")
        };
        let loaded = Arc::new(loaded);
        if let Some(parent) = lam_obs::trace::current() {
            lam_obs::recorder::global().record(
                SpanRecord::finish(
                    &parent.child(crate::http::CHILD_RESOLVE),
                    parent.span_id,
                    "registry.resolve",
                    resolve_started,
                    SpanStatus::Ok,
                )
                .annotate("path", resolved_via)
                .annotate("model", key.to_string()),
            );
        }
        let mut memo = self.memo.lock().expect("registry poisoned");
        // First insert wins; a racing trainer built the identical model.
        Ok(Arc::clone(memo.entry(key).or_insert(loaded)))
    }

    /// Ask each configured peer for the artifact, first usable answer
    /// wins. A fetched artifact must decode, carry the requested key, and
    /// compile before anything keeps it; only then are its bytes
    /// persisted locally, verbatim, so the *next* cold start resolves
    /// from disk. Any per-peer failure — connect refused, non-200, bytes
    /// that do not decode or compile — moves on to the next peer; `None`
    /// falls the caller through to training.
    fn fetch_from_peers(&self, key: ModelKey) -> Option<LoadedModel> {
        self.peers.iter().find_map(|peer| {
            let bytes = crate::cluster::fetch_artifact(peer, key).ok()?;
            let source = format!("peer {peer}");
            let saved = SavedModel::from_lamb_bytes(&bytes, &source).ok()?;
            expect_key(&saved, key, &source).ok()?;
            let loaded = LoadedModel::from_saved(key, saved).ok()?;
            self.resolutions.peer.inc();
            // Best-effort local persist: a full disk degrades the next
            // cold start back to peer-fetch, it does not fail this one.
            let _ = SavedModel::publish(&self.root, &artifact_name(key), &bytes);
            Some(loaded)
        })
    }

    /// The artifact bytes for a key, *without ever training*: the `.lamb`
    /// file's bytes when present, else `None` (the artifact endpoint's
    /// 404). Peers poll each other through this, so a miss must stay
    /// cheap.
    pub fn artifact_bytes(&self, key: ModelKey) -> Result<Option<Vec<u8>>, ServeError> {
        let path = self.path_for(key);
        if !path.is_file() {
            return Ok(None);
        }
        // Validate before serving: replicating a corrupt or renamed
        // artifact across the cluster would be worse than a 404.
        let bytes = std::fs::read(&path)?;
        let source = path.display().to_string();
        expect_key(&SavedModel::from_lamb_bytes(&bytes, &source)?, key, &source)?;
        Ok(Some(bytes))
    }

    /// Everything the registry can serve without training: artifacts on
    /// disk plus models memoized in this process, sorted by name.
    pub fn catalog(&self) -> Result<Vec<CatalogEntry>, ServeError> {
        let memo = self.memo.lock().expect("registry poisoned");
        let mut entries: HashMap<ModelKey, CatalogEntry> = memo
            .keys()
            .map(|&key| {
                (
                    key,
                    CatalogEntry {
                        key,
                        path: self.path_for(key),
                        loaded: true,
                    },
                )
            })
            .collect();
        drop(memo);
        if self.root.is_dir() {
            for entry in std::fs::read_dir(&self.root)? {
                let name = entry?.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some((workload, kind, version)) = SavedModel::parse_file_name(name) else {
                    continue;
                };
                let key = ModelKey::new(workload, kind, version);
                entries.entry(key).or_insert_with(|| CatalogEntry {
                    key,
                    path: self.root.join(name),
                    loaded: false,
                });
            }
        }
        let mut list: Vec<CatalogEntry> = entries.into_values().collect();
        list.sort_by_key(|e| e.key.to_string());
        Ok(list)
    }
}

/// File name of a key's artifact under a registry root.
fn artifact_name(key: ModelKey) -> String {
    SavedModel::file_name(key.workload, key.kind, key.version)
}

/// Refuse an artifact whose embedded identity is not `key`: a renamed or
/// tampered artifact must not be served under the requested identity
/// (wrong schema, silently wrong answers).
fn expect_key(
    saved: &SavedModel,
    key: ModelKey,
    source: &dyn fmt::Display,
) -> Result<(), ServeError> {
    let embedded = ModelKey::new(saved.workload, saved.kind, saved.version);
    if embedded != key {
        return Err(ServeError::Json(format!(
            "artifact {source} embeds key {embedded}, expected {key}"
        )));
    }
    Ok(())
}

/// Train the model a key names, deterministically. The workload dataset
/// comes from the catalog entry's memo, so training all model kinds for
/// one workload pays exactly one oracle sweep.
pub fn train(key: ModelKey) -> Result<SavedModel, ServeError> {
    let data = key.workload.dataset();
    let seed = key.train_seed();
    let (train, _) = train_test_split_fraction(&data, TRAIN_FRACTION, seed);
    let params = TreeParams::default();

    let (hybrid, ml) = match key.kind {
        ModelKind::Cart => {
            let mut m = DecisionTreeRegressor::new(params, seed);
            m.fit(&train)?;
            (None, TrainedMl::Cart(m))
        }
        ModelKind::RandomForest => {
            let mut m = RandomForestRegressor::with_params(N_TREES, params, seed);
            m.fit(&train)?;
            (None, TrainedMl::RandomForest(m))
        }
        ModelKind::ExtraTrees => {
            let mut m = ExtraTreesRegressor::with_params(N_TREES, params, seed);
            m.fit(&train)?;
            (None, TrainedMl::ExtraTrees(m))
        }
        ModelKind::Boosting => {
            let mut m = GradientBoostingRegressor::new(200, 0.1, seed);
            m.fit(&train)?;
            (None, TrainedMl::Boosting(m))
        }
        ModelKind::Knn => {
            let mut m = KnnRegressor::new(5).weighted();
            m.fit(&train)?;
            (None, TrainedMl::Knn(m))
        }
        ModelKind::Linear => {
            let mut m = LinearRegressor::new(1e-9);
            m.fit(&train)?;
            (None, TrainedMl::Linear(m))
        }
        ModelKind::Hybrid => {
            // Augment exactly as HybridModel::fit would, fit the stacked
            // extra trees on the augmented rows, and persist the parts the
            // hybrid is reassembled from at load time.
            let config = key.workload.hybrid_config();
            let am = key.workload.analytical_model();
            let am_feature: Vec<f64> = (0..train.len())
                .map(|i| config.stacked_feature(am.predict(train.row(i))))
                .collect();
            let augmented = train
                .with_column(lam_core::hybrid::AM_FEATURE, &am_feature)
                .expect("augmentation length matches dataset");
            let mut m = ExtraTreesRegressor::with_params(N_TREES, params, seed);
            m.fit(&augmented)?;
            (Some(config), TrainedMl::ExtraTrees(m))
        }
    };

    Ok(SavedModel {
        format_version: FORMAT_VERSION,
        workload: key.workload,
        kind: key.kind,
        version: key.version,
        feature_names: key.workload.feature_names(),
        trained_rows: train.len(),
        hybrid,
        ml,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir = std::env::temp_dir().join(format!("lam_serve_registry_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ModelRegistry::new(dir)
    }

    fn fmm_small() -> WorkloadId {
        WorkloadId::get("fmm-small").expect("builtin workload")
    }

    #[test]
    fn get_trains_persists_and_memoizes() {
        let reg = temp_registry("basic");
        let key = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        assert!(!reg.path_for(key).exists());
        let a = reg.get(key).unwrap();
        assert!(reg.path_for(key).is_file(), "artifact persisted");
        assert_eq!(reg.loaded_count(), 1);
        // Second get is a pure memo hit: the same Arc.
        let b = reg.get(key).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn restart_loads_from_disk_with_identical_predictions() {
        let reg = temp_registry("restart");
        let key = ModelKey::new(fmm_small(), ModelKind::Hybrid, 2);
        let first = reg.get(key).unwrap();
        let rows = fmm_small().sample_rows(32);
        let before = first.predict(&rows).predictions;

        // A fresh registry over the same root simulates a process restart.
        let reg2 = ModelRegistry::new(reg.root().to_path_buf());
        let second = reg2.get(key).unwrap();
        let after = second.predict(&rows).predictions;
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn training_is_deterministic_per_key() {
        let key = ModelKey::new(fmm_small(), ModelKind::ExtraTrees, 7);
        let a = train(key).unwrap();
        let b = train(key).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn versions_are_distinct_artifacts() {
        let reg = temp_registry("versions");
        let v1 = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        let v2 = ModelKey::new(fmm_small(), ModelKind::Cart, 2);
        reg.get(v1).unwrap();
        reg.get(v2).unwrap();
        assert_ne!(reg.path_for(v1), reg.path_for(v2));
        assert!(reg.path_for(v1).is_file() && reg.path_for(v2).is_file());
        assert_eq!(reg.loaded_count(), 2);
    }

    #[test]
    fn resolution_paths_feed_the_metrics_registry() {
        let path_counter = |path: &str| {
            lam_obs::global()
                .counter("lam_registry_resolutions_total", "", &[("path", path)])
                .get()
        };
        let (memo0, lamb0, train0) = (
            path_counter("memo"),
            path_counter("disk-lamb"),
            path_counter("train"),
        );
        let reg = temp_registry("obs_paths");
        let key = ModelKey::new(fmm_small(), ModelKind::Linear, 9);
        reg.get(key).unwrap(); // cold: train
        reg.get(key).unwrap(); // memo hit
        let reg2 = ModelRegistry::new(reg.root().to_path_buf());
        reg2.get(key).unwrap(); // artifact from disk

        // Other tests in this binary bump the same global series
        // concurrently, so assert growth, not exact values.
        assert!(path_counter("train") > train0);
        assert!(path_counter("memo") > memo0);
        assert!(path_counter("disk-lamb") > lamb0);
    }

    #[test]
    fn catalog_merges_disk_and_memo() {
        let reg = temp_registry("catalog");
        let key = ModelKey::new(fmm_small(), ModelKind::Linear, 1);
        reg.get(key).unwrap();
        // A foreign file in the root is ignored.
        std::fs::write(reg.root().join("README.txt"), "not a model").unwrap();
        let catalog = reg.catalog().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].key, key);
        assert!(catalog[0].loaded);

        // A fresh registry sees the artifact on disk, unloaded.
        let reg2 = ModelRegistry::new(reg.root().to_path_buf());
        let catalog2 = reg2.catalog().unwrap();
        assert_eq!(catalog2.len(), 1);
        assert!(!catalog2[0].loaded);
    }

    #[test]
    fn stray_json_artifacts_are_neither_read_nor_catalogued() {
        let reg = temp_registry("stray_json");
        let key = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        // What a pre-binary build left behind: a JSON artifact under the
        // old name. Corrupt, so reading it at all would fail the get.
        std::fs::create_dir_all(reg.root()).unwrap();
        let json = reg.root().join("fmm-small__cart__v1.json");
        std::fs::write(&json, "{ not json").unwrap();
        assert!(reg.catalog().unwrap().is_empty());
        let model = reg.get(key).unwrap();
        assert_eq!(model.key, key);
        // The key trained: its artifact is the deterministic retrain.
        assert_eq!(
            std::fs::read(reg.path_for(key)).unwrap(),
            train(key).unwrap().to_lamb_bytes().unwrap()
        );
        let catalog = reg.catalog().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].path, reg.path_for(key));
        assert_eq!(std::fs::read(&json).unwrap(), b"{ not json");
    }

    #[test]
    fn binary_artifact_preferred_over_json() {
        let reg = temp_registry("binary_first");
        let key = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        train(key).unwrap().save(reg.root()).unwrap();
        // A corrupt JSON sibling left by a pre-binary build must never be
        // read when the binary artifact exists.
        let json = reg.path_for(key).with_extension("json");
        std::fs::write(json, "{ not json").unwrap();
        assert!(reg.get(key).is_ok());
    }

    #[test]
    fn catalog_lists_dual_format_artifacts_once() {
        let reg = temp_registry("dual_catalog");
        let key = ModelKey::new(fmm_small(), ModelKind::Linear, 1);
        let trained = train(key).unwrap();
        trained.save(reg.root()).unwrap();
        // A JSON dump of the same model beside its artifact is not listed.
        let dump = serde_json::to_string_pretty(&trained).unwrap();
        std::fs::write(reg.path_for(key).with_extension("json"), dump).unwrap();
        let catalog = reg.catalog().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].path, reg.path_for(key), "canonical binary path");
    }

    /// Point the first split found in `value` at a feature column far past
    /// any schema. The artifact still decodes and passes
    /// [`SavedModel::from_lamb_bytes`]; only compiling it fails.
    fn tamper_first_split(value: &mut serde::Value) -> bool {
        match value {
            serde::Value::Object(fields) => fields.iter_mut().any(|(name, v)| {
                if name == "feature" {
                    *v = serde::Value::Number(serde::Number::PosInt(1_000_000));
                    true
                } else {
                    tamper_first_split(v)
                }
            }),
            serde::Value::Array(items) => items.iter_mut().any(tamper_first_split),
            _ => false,
        }
    }

    #[test]
    fn peer_artifact_that_fails_to_compile_is_neither_kept_nor_served() {
        use serde::{Deserialize as _, Serialize as _};
        let key = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        let mut value = train(key).unwrap().to_value();
        assert!(tamper_first_split(&mut value));
        let tampered = SavedModel::from_value(&value).unwrap();
        // The peer's own disk holds the tampered artifact and serves it.
        let peer_reg = temp_registry("tampered_peer");
        tampered.save(peer_reg.root()).unwrap();
        let tampered_bytes = std::fs::read(peer_reg.path_for(key)).unwrap();
        assert_eq!(
            peer_reg.artifact_bytes(key).unwrap().as_deref(),
            Some(&tampered_bytes[..])
        );
        let opts = crate::http::ServerOptions {
            workers: 1,
            ..Default::default()
        };
        let peer = crate::http::start(Arc::new(peer_reg), opts).unwrap();

        let peers_before = lam_obs::global()
            .counter("lam_registry_resolutions_total", "", &[("path", "peer")])
            .get();
        let mut cold = temp_registry("tampered_cold");
        cold.peers = vec![peer.local_addr().to_string()];
        let model = cold.get(key).unwrap();
        peer.stop();
        // No other test in this binary resolves through a peer.
        let peers_after = lam_obs::global()
            .counter("lam_registry_resolutions_total", "", &[("path", "peer")])
            .get();
        assert_eq!(peers_after, peers_before, "no peer resolution recorded");
        let fresh = train(key).unwrap();
        assert_eq!(
            std::fs::read(cold.path_for(key)).unwrap(),
            fresh.to_lamb_bytes().unwrap(),
            "the kept artifact is the freshly trained one"
        );
        let reference = fresh.into_predictor().unwrap();
        for row in fmm_small().sample_rows(64) {
            assert_eq!(
                model.predict_row_uncached(&row).to_bits(),
                reference.predict_row(&row).to_bits()
            );
        }
    }

    #[test]
    fn renamed_artifact_rejected() {
        let reg = temp_registry("renamed");
        let key = ModelKey::new(fmm_small(), ModelKind::Cart, 1);
        reg.get(key).unwrap();
        // An artifact copied under another key's filename must not be
        // served as that key.
        let other = ModelKey::new(fmm_small(), ModelKind::Cart, 2);
        std::fs::copy(reg.path_for(key), reg.path_for(other)).unwrap();
        let fresh = ModelRegistry::new(reg.root().to_path_buf());
        assert!(matches!(fresh.get(other), Err(ServeError::Json(_))));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let reg = temp_registry("schema");
        let key = ModelKey::new(fmm_small(), ModelKind::Linear, 1);
        let model = reg.get(key).unwrap();
        let bad = vec![vec![1.0, 2.0]]; // fmm rows have 4 features
        assert!(matches!(
            model.predict_checked(&bad),
            Err(ServeError::FeatureCount {
                expected: 4,
                actual: 2,
                row: 0
            })
        ));
    }
}
