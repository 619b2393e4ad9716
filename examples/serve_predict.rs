//! Serving quickstart: persist a trained hybrid model, serve it over
//! HTTP on a random port, and query it — all offline, in one process.
//!
//! Run: `cargo run --release --example serve_predict`

use lam::serve::http::{self, PredictRequest, PredictResponse, ServerOptions};
use lam::serve::loadgen::HttpClient;
use lam::serve::persist::ModelKind;
use lam::serve::registry::{ModelKey, ModelRegistry};
use lam::serve::workload::WorkloadId;
use std::sync::Arc;

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

fn main() {
    // 1. Resolve the model through the registry: trains + persists under
    //    results/models/ on first run, loads the `.lamb` artifact afterwards.
    let registry = Arc::new(ModelRegistry::new(ModelRegistry::default_root()));
    let key = ModelKey::new(wid("fmm-small"), ModelKind::Hybrid, 1);
    let model = registry.get(key).expect("train or load hybrid model");
    println!(
        "model {key}: {} features, artifact at {}",
        model.feature_names.len(),
        registry.path_for(key).display()
    );

    // 2. Serve it. Port 0 binds a random free port.
    let handle = http::start(
        Arc::clone(&registry),
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServerOptions::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    println!("serving on http://{addr}");

    // 3. Query it over real HTTP: batched rows, answered in order.
    let rows = wid("fmm-small").sample_rows(8);
    let request = PredictRequest {
        workload: key.workload.to_string(),
        kind: key.kind.to_string(),
        version: Some(key.version),
        rows: rows.clone(),
    };
    let mut client = HttpClient::connect(&addr).expect("client connects");
    let body = serde_json::to_string(&request).expect("request serializes");
    let (status, response) = client.post("/predict", &body).expect("request round-trips");
    assert_eq!(status, 200, "{response}");
    let response: PredictResponse = serde_json::from_str(&response).expect("response parses");
    for (row, prediction) in rows.iter().zip(&response.predictions) {
        println!("  (t, N, q, k) = {row:?}  ->  {prediction:.6} s");
    }

    // 4. The same batch again is pure cache hits.
    let (_, warm) = client.post("/predict", &body).expect("second request");
    let warm: PredictResponse = serde_json::from_str(&warm).expect("response parses");
    println!(
        "second call: {}/{} rows from the prediction cache in {}us",
        warm.cache_hits,
        rows.len(),
        warm.micros
    );

    handle.stop();
    println!("server stopped cleanly.");
}
