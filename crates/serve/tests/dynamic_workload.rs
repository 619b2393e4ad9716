//! The extensibility proof the `DynWorkload` refactor exists for: a
//! brand-new scenario is registered **at runtime** with one catalog call
//! and then trained, persisted, reloaded, and served over real HTTP —
//! without touching a single line of `lam-serve` source. Alongside it:
//! the dataset-memoization guarantee (training every model family for
//! one workload runs exactly one oracle sweep, counted by a probe
//! workload) and the catalog-lookup error paths (unknown names in
//! `/predict`, in `FromStr`, and in saved-model envelopes).

use lam_analytical::traits::{AnalyticalModel, ConstantModel};
use lam_core::catalog::{CatalogError, DynWorkload, WorkloadCatalog};
use lam_core::hybrid::HybridConfig;
use lam_core::workload::Workload;
use lam_data::Dataset;
use lam_serve::http::{
    self, PredictRequest, PredictResponse, ServerOptions, WorkloadInfo, WorkloadsResponse,
};
use lam_serve::loadgen::HttpClient;
use lam_serve::persist::{ModelKind, SavedModel};
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use lam_serve::ServeError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_dynamic_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scenario `lam-serve` has never heard of: a synthetic "pipelined
/// reduction" with a `(size, lanes)` tuning space, implemented as a plain
/// generic [`Workload`] — the catalog's blanket adapter erases it.
struct ReductionWorkload {
    configs: Vec<(u64, u64)>,
}

impl ReductionWorkload {
    fn new() -> Self {
        let mut configs = Vec::new();
        for size in [256u64, 512, 1024, 2048, 4096] {
            for lanes in 1..=8u64 {
                configs.push((size, lanes));
            }
        }
        Self { configs }
    }
}

impl Workload for ReductionWorkload {
    type Config = (u64, u64);

    fn name(&self) -> &str {
        "reduction-demo"
    }

    fn feature_names(&self) -> Vec<String> {
        vec!["size".to_string(), "lanes".to_string()]
    }

    fn param_space(&self) -> &[(u64, u64)] {
        &self.configs
    }

    fn features(&self, cfg: &(u64, u64)) -> Vec<f64> {
        vec![cfg.0 as f64, cfg.1 as f64]
    }

    fn execution_time(&self, cfg: &(u64, u64)) -> f64 {
        // Deterministic, positive, non-trivial: linear in size, saturating
        // speedup in lanes, plus keyed pseudo-noise.
        let (size, lanes) = (cfg.0 as f64, cfg.1 as f64);
        let jitter = 1.0 + 0.05 * (((cfg.0.wrapping_mul(2654435761) ^ cfg.1) % 89) as f64 / 89.0);
        1e-6 * size / lanes.sqrt() * jitter
    }

    fn problem_size(&self, cfg: &(u64, u64)) -> f64 {
        cfg.0 as f64
    }

    fn analytical_model(&self) -> Box<dyn AnalyticalModel> {
        Box::new(ConstantModel(1e-3))
    }
}

#[test]
fn runtime_registered_workload_trains_persists_and_serves_over_http() {
    // One registration call; zero lam-serve edits.
    WorkloadCatalog::global()
        .register_workload("reduction-demo", ReductionWorkload::new())
        .expect("fresh name registers");

    // The serving layer resolves it like any built-in.
    let id = WorkloadId::get("reduction-demo").expect("registered name resolves");
    assert_eq!(id.n_features(), 2);
    assert_eq!(id.space_size(), 40);
    assert_eq!("reduction-demo".parse::<WorkloadId>().unwrap(), id);
    assert!(WorkloadId::all().contains(&id));

    // Train + persist every model family, then "restart" and reload from
    // disk with bit-identical predictions — the persistence round trip a
    // dynamically registered workload must survive.
    let root = temp_root("e2e");
    let rows = id.sample_rows(16);
    let mut before = Vec::new();
    {
        let registry = ModelRegistry::new(root.clone());
        for kind in ModelKind::all() {
            let key = ModelKey::new(id, kind, 1);
            let model = registry.get(key).expect("train-on-miss");
            assert!(registry.path_for(key).is_file(), "{kind} persisted");
            before.push(model.predict(&rows).predictions);
        }
    }
    let registry = Arc::new(ModelRegistry::new(root));
    for (kind, expected) in ModelKind::all().into_iter().zip(&before) {
        let reloaded = registry
            .get(ModelKey::new(id, kind, 1))
            .expect("loads from disk");
        let after = reloaded.predict(&rows).predictions;
        for (a, b) in expected.iter().zip(&after) {
            assert_eq!(a.to_bits(), b.to_bits(), "{kind} diverged after reload");
        }
    }

    // Serve it over a real socket.
    let handle = http::start(
        Arc::clone(&registry),
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");

    // /workloads discovers the runtime registration.
    let (status, body) = client.get("/workloads").unwrap();
    assert_eq!(status, 200);
    let listed: WorkloadsResponse = serde_json::from_str(&body).unwrap();
    let entry = listed
        .workloads
        .iter()
        .find(|w| w.name == "reduction-demo")
        .expect("runtime workload listed");
    assert_eq!(entry.feature_names, vec!["size", "lanes"]);
    assert_eq!(entry.n_features, 2);
    assert_eq!(entry.space_size, 40);
    let (status, body) = client.get("/workloads/reduction-demo").unwrap();
    assert_eq!(status, 200);
    let detail: WorkloadInfo = serde_json::from_str(&body).unwrap();
    assert_eq!(detail.name, "reduction-demo");

    // /predict answers with the served model's own predictions.
    let request = PredictRequest {
        workload: "reduction-demo".to_string(),
        kind: "hybrid".to_string(),
        version: Some(1),
        rows: rows.clone(),
    };
    let (status, body) = client
        .post("/predict", &serde_json::to_string(&request).unwrap())
        .unwrap();
    assert_eq!(status, 200, "body: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.model, "reduction-demo/hybrid/v1");
    let hybrid_ix = ModelKind::all()
        .iter()
        .position(|k| *k == ModelKind::Hybrid)
        .unwrap();
    for (a, b) in response.predictions.iter().zip(&before[hybrid_ix]) {
        assert_eq!(a.to_bits(), b.to_bits(), "served != trained");
    }

    handle.stop();
}

/// A hand-rolled [`DynWorkload`] (no generic `Workload` behind it) that
/// counts oracle sweeps, proving the catalog memo pays exactly one.
struct ProbeWorkload;

static PROBE_SWEEPS: AtomicUsize = AtomicUsize::new(0);

impl DynWorkload for ProbeWorkload {
    fn name(&self) -> &str {
        "memo-probe"
    }

    fn feature_names(&self) -> Vec<String> {
        vec!["x".to_string(), "x2".to_string()]
    }

    fn space_size(&self) -> usize {
        48
    }

    fn feature_rows(&self) -> Vec<Vec<f64>> {
        (1..=48).map(|i| vec![i as f64, (i * i) as f64]).collect()
    }

    fn measure(&self, index: usize) -> f64 {
        // One point, not a sweep: must not bump the sweep counter.
        let row = &self.feature_rows()[index];
        1e-3 * row[0] + 1e-6 * row[1]
    }

    fn generate_dataset(&self) -> Dataset {
        PROBE_SWEEPS.fetch_add(1, Ordering::SeqCst);
        let mut data = Dataset::empty(self.feature_names());
        for row in self.feature_rows() {
            data.push(&row, 1e-3 * row[0] + 1e-6 * row[1]);
        }
        data
    }

    fn analytical_model(&self) -> Box<dyn AnalyticalModel> {
        Box::new(ConstantModel(1e-3))
    }

    fn hybrid_config(&self) -> HybridConfig {
        HybridConfig::default()
    }
}

#[test]
fn training_all_model_kinds_generates_the_dataset_exactly_once() {
    WorkloadCatalog::global()
        .register("memo-probe", Box::new(ProbeWorkload))
        .expect("fresh name registers");
    let id = WorkloadId::get("memo-probe").unwrap();

    assert_eq!(PROBE_SWEEPS.load(Ordering::SeqCst), 0, "no eager sweep");
    let registry = ModelRegistry::new(temp_root("memo"));
    for kind in ModelKind::all() {
        registry
            .get(ModelKey::new(id, kind, 1))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
    assert_eq!(
        PROBE_SWEEPS.load(Ordering::SeqCst),
        1,
        "training all {} model kinds must run exactly one oracle sweep",
        ModelKind::all().len()
    );
}

#[test]
fn catalog_lookup_error_paths() {
    // Unknown name: typed error from the handle lookup and from FromStr.
    assert!(matches!(
        WorkloadId::get("never-registered"),
        Err(ServeError::UnknownWorkload(n)) if n == "never-registered"
    ));
    assert!("never-registered".parse::<WorkloadId>().is_err());

    // Unknown name inside a saved-model envelope: the artifact must fail
    // to load, not produce an unservable id.
    let dir = temp_root("envelope");
    std::fs::create_dir_all(&dir).unwrap();
    let fmm_small = WorkloadId::get("fmm-small").unwrap();
    let trained = lam_serve::registry::train(ModelKey::new(fmm_small, ModelKind::Linear, 1))
        .expect("training succeeds");
    let mut envelope = serde::Serialize::to_value(&trained);
    let serde::Value::Object(fields) = &mut envelope else {
        panic!("a saved model serializes as an object");
    };
    let (_, workload) = fields
        .iter_mut()
        .find(|(name, _)| name == "workload")
        .expect("envelope must embed the workload name");
    *workload = serde::Value::String("never-registered".to_string());
    let path = dir.join("never-registered__linear__v1.lamb");
    std::fs::write(&path, lam_data::binio::to_bytes(&envelope).unwrap()).unwrap();
    let err = SavedModel::load(&path).expect_err("unknown workload must not load");
    assert!(
        err.to_string().contains("unknown workload"),
        "unexpected error: {err}"
    );

    // Registration rejects duplicate and malformed names with typed
    // errors, leaving the original entries intact.
    assert!(matches!(
        WorkloadCatalog::global().register("fmm-small", Box::new(ProbeWorkload)),
        Err(CatalogError::Duplicate(_))
    ));
    assert!(matches!(
        WorkloadCatalog::global().register("Not_Kebab", Box::new(ProbeWorkload)),
        Err(CatalogError::InvalidName(_))
    ));
    assert_eq!(WorkloadId::get("fmm-small").unwrap().n_features(), 4);
}
