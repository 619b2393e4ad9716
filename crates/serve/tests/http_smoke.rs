//! End-to-end serving smoke test, fully in-process and offline: train and
//! persist a hybrid model, serve it over a real TCP socket on a random
//! port, drive it with the load generator, and check the acceptance
//! properties — order-preserving batched responses that match direct
//! model predictions, grid rows answered from the space table from the
//! first request on, a catalog that survives "restart", and clean
//! shutdown.

use lam_serve::http::{
    self, HealthResponse, ModelsResponse, PredictRequest, PredictResponse, ServerOptions,
};
use lam_serve::loadgen::{self, HttpClient, LoadgenOptions};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_http_smoke_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

fn start_server(registry: Arc<ModelRegistry>) -> http::ServerHandle {
    http::start(
        registry,
        ServerOptions {
            addr: "127.0.0.1:0".to_string(), // random free port
            workers: 4,
            ..ServerOptions::default()
        },
    )
    .expect("server binds")
}

#[test]
fn serve_restart_predict_and_loadgen_end_to_end() {
    let root = temp_root("e2e");
    let key = ModelKey::new(wid("fmm-small"), ModelKind::Hybrid, 1);

    // Phase 1: train + persist, then drop the registry (process "exit").
    {
        let registry = ModelRegistry::new(root.clone());
        registry.get(key).expect("train-on-miss");
        assert!(registry.path_for(key).is_file());
    }

    // Phase 2: a fresh registry ("restart") serves the artifact from disk.
    let registry = Arc::new(ModelRegistry::new(root));
    let model = registry.get(key).expect("loads from disk");
    let handle = start_server(Arc::clone(&registry));
    let addr = handle.local_addr().to_string();

    let mut client = HttpClient::connect(&addr).expect("connects");

    // /healthz
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(health.status, "ok");
    assert!(health.models_loaded >= 1);

    // /models lists the persisted artifact.
    let (status, body) = client.get("/models").unwrap();
    assert_eq!(status, 200);
    let models: ModelsResponse = serde_json::from_str(&body).unwrap();
    assert!(models
        .models
        .iter()
        .any(|m| m.workload == "fmm-small" && m.kind == "hybrid" && m.version == 1));

    // /predict answers in request order with the model's own predictions;
    // grid rows come from the space table on their first request.
    let rows = wid("fmm-small").sample_rows(96);
    let request = PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "hybrid".to_string(),
        version: Some(1),
        rows: rows.clone(),
    };
    let (status, body) = client
        .post("/predict", &serde_json::to_string(&request).unwrap())
        .unwrap();
    assert_eq!(status, 200, "body: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.predictions.len(), rows.len());
    assert_eq!(response.cache_hits, rows.len() as u64);
    for (i, row) in rows.iter().enumerate() {
        let expected = model.predict_row_uncached(row);
        assert_eq!(
            response.predictions[i].to_bits(),
            expected.to_bits(),
            "row {i} out of order or corrupted"
        );
    }

    // A second identical request is answered from the table again.
    let (_, body) = client
        .post("/predict", &serde_json::to_string(&request).unwrap())
        .unwrap();
    let warm: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(warm.cache_hits, rows.len() as u64);
    assert_eq!(warm.predictions, response.predictions);

    // Off-grid rows (fractional particle counts) are computed, in order.
    let off_grid: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut row = row.clone();
            row[1] += 0.25 + i as f64;
            row
        })
        .collect();
    let (status, body) = client
        .post(
            "/predict",
            &serde_json::to_string(&PredictRequest {
                rows: off_grid.clone(),
                ..request.clone()
            })
            .unwrap(),
        )
        .unwrap();
    assert_eq!(status, 200, "body: {body}");
    let cold: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(cold.cache_hits, 0);
    for (i, row) in off_grid.iter().enumerate() {
        assert_eq!(
            cold.predictions[i].to_bits(),
            model.predict_row_uncached(row).to_bits(),
            "off-grid row {i} out of order or corrupted"
        );
    }

    // Bad requests are 4xx, not hangs.
    let (status, _) = client.post("/predict", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .post(
            "/predict",
            r#"{"workload":"fmm-small","kind":"hybrid","rows":[[1.0]]}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "feature-count mismatch is a client error");
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);

    // Loadgen sustains real throughput against the cached model.
    let report = loadgen::run(&LoadgenOptions {
        addrs: vec![addr.clone()],
        workload: wid("fmm-small"),
        kind: ModelKind::Hybrid,
        version: 1,
        seconds: 1.0,
        connections: 3,
        batch: 64,
        pool: 192,
        mode: loadgen::LoadMode::Closed,
    })
    .expect("loadgen runs");
    assert_eq!(report.errors, 0);
    assert!(report.requests > 0);
    assert!(
        report.throughput > 0.0,
        "throughput {} not positive",
        report.throughput
    );
    assert!(report.p99_us >= report.p50_us);
    assert!(report.cache_hit_fraction > 0.5, "pool rows are grid rows");

    // Clean shutdown: stop() joins all workers without hanging.
    handle.stop();
    // The port no longer accepts new work.
    assert!(
        HttpClient::connect(&addr).is_err() || {
            // Accepted by OS backlog but nobody serves: a request must fail.
            let mut c = HttpClient::connect(&addr).unwrap();
            c.get("/healthz").is_err()
        }
    );
}

#[test]
fn spmv_small_served_for_all_model_kinds() {
    // The third scenario must be a first-class citizen of the serving
    // path: every model family trains, persists, and answers `/predict`
    // for `spmv-small` exactly like the paper's scenarios.
    let root = temp_root("spmv_kinds");
    let registry = Arc::new(ModelRegistry::new(root));
    let handle = start_server(Arc::clone(&registry));
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");

    let rows = wid("spmv-small").sample_rows(8);
    for kind in ModelKind::all() {
        let request = PredictRequest {
            workload: "spmv-small".to_string(),
            kind: kind.to_string(),
            version: Some(1),
            rows: rows.clone(),
        };
        let (status, body) = client
            .post("/predict", &serde_json::to_string(&request).unwrap())
            .unwrap();
        assert_eq!(status, 200, "kind {kind}: {body}");
        let response: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(response.model, format!("spmv-small/{kind}/v1"));
        assert_eq!(response.predictions.len(), rows.len());
        assert!(
            response.predictions.iter().all(|p| p.is_finite()),
            "kind {kind}: predictions must be finite: {:?}",
            response.predictions
        );
        // Tree-based families average training responses, so they stay
        // positive; the unconstrained linear family is exempt.
        if kind != ModelKind::Linear {
            assert!(
                response.predictions.iter().all(|p| *p > 0.0),
                "kind {kind}: predictions must be positive times: {:?}",
                response.predictions
            );
        }
        let key = ModelKey::new(wid("spmv-small"), kind, 1);
        assert!(registry.path_for(key).is_file(), "kind {kind} persisted");
    }
    handle.stop();
}

#[test]
fn predict_trains_on_miss_over_http() {
    let root = temp_root("miss");
    let registry = Arc::new(ModelRegistry::new(root));
    let handle = start_server(Arc::clone(&registry));
    let addr = handle.local_addr().to_string();

    // No artifact exists; the first request trains, persists, and serves.
    let key = ModelKey::new(wid("fmm-small"), ModelKind::Linear, 1);
    assert!(!registry.path_for(key).is_file());
    let request = PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "linear".to_string(),
        version: None, // defaults to v1
        rows: wid("fmm-small").sample_rows(4),
    };
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, body) = client
        .post("/predict", &serde_json::to_string(&request).unwrap())
        .unwrap();
    assert_eq!(status, 200, "body: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.model, "fmm-small/linear/v1");
    assert_eq!(response.predictions.len(), 4);
    assert!(registry.path_for(key).is_file(), "artifact persisted");

    handle.stop();
}
