//! HTTP robustness suite: hostile or broken `/predict` traffic must come
//! back as 4xx client errors without killing worker threads or the
//! server, and — the PR-3 regression — non-finite feature values must be
//! rejected *before* model dispatch instead of panicking k-NN's distance
//! sort inside the handler.
//!
//! Every scenario drives a real server over a real socket and then proves
//! the same connection (or a fresh one, where the protocol demands a
//! close) still serves a valid request.

use lam_serve::http::{
    self, PredictRequest, PredictResponse, ServerOptions, WorkloadInfo, WorkloadsResponse,
};
use lam_serve::loadgen::HttpClient;
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_http_robustness_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

/// Server over a fresh registry with a k-NN model for the small SpMV
/// space pre-trained (k-NN is the family whose distance sort the original
/// NaN panic reached).
fn start(tag: &str, max_body: usize) -> (http::ServerHandle, Arc<ModelRegistry>, String) {
    let registry = Arc::new(ModelRegistry::new(temp_root(tag)));
    registry
        .get(ModelKey::new(wid("spmv-small"), ModelKind::Knn, 1))
        .expect("train k-NN on spmv-small");
    let handle = http::start(
        Arc::clone(&registry),
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_body,
        },
    )
    .expect("server binds");
    let addr = handle.local_addr().to_string();
    (handle, registry, addr)
}

fn valid_body() -> String {
    serde_json::to_string(&PredictRequest {
        workload: "spmv-small".to_string(),
        kind: "knn".to_string(),
        version: Some(1),
        rows: wid("spmv-small").sample_rows(2),
    })
    .expect("serializes")
}

/// Prove `client`'s connection still works by completing a valid predict.
fn assert_connection_usable(client: &mut HttpClient) {
    let (status, body) = client.post("/predict", &valid_body()).expect("round-trip");
    assert_eq!(status, 200, "body: {body}");
    let parsed: PredictResponse = serde_json::from_str(&body).expect("parses");
    assert_eq!(parsed.predictions.len(), 2);
    assert!(parsed.predictions.iter().all(|p| p.is_finite()));
}

#[test]
fn non_finite_feature_rows_return_400_and_connection_survives() {
    let (handle, _registry, addr) = start("nonfinite", 1 << 20);
    let mut client = HttpClient::connect(&addr).expect("connects");

    // `1e999` parses to +inf — the non-finite value JSON can actually
    // smuggle in. Before the fix this reached the k-NN distance sort and
    // panicked the worker; now it must be a clean 400.
    let rows = wid("spmv-small").sample_rows(1);
    let inf_body = format!(
        r#"{{"workload":"spmv-small","kind":"knn","rows":[[1e999,{},{},{}]]}}"#,
        rows[0][1], rows[0][2], rows[0][3]
    );
    let (status, body) = client.post("/predict", &inf_body).expect("round-trip");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("not finite"), "body: {body}");

    // A literal NaN token is not JSON at all: also 400, never a panic.
    let nan_body = r#"{"workload":"spmv-small","kind":"knn","rows":[[NaN,1,64,1]]}"#;
    let (status, _) = client.post("/predict", nan_body).expect("round-trip");
    assert_eq!(status, 400);

    // The same keep-alive connection still serves valid traffic.
    assert_connection_usable(&mut client);
    handle.stop();
}

#[test]
fn bad_rows_never_trigger_train_on_miss() {
    let (handle, registry, addr) = start("notrain", 1 << 20);
    let mut client = HttpClient::connect(&addr).expect("connects");

    // A request for an untrained key with invalid rows must be rejected
    // before the registry resolves (and would otherwise train) the model.
    let untrained = ModelKey::new(wid("spmv-small"), ModelKind::Cart, 1);
    assert!(!registry.path_for(untrained).exists());
    let body = r#"{"workload":"spmv-small","kind":"cart","rows":[[1e999,3,64,1]]}"#;
    let (status, _) = client.post("/predict", body).expect("round-trip");
    assert_eq!(status, 400);
    let body = r#"{"workload":"spmv-small","kind":"cart","rows":[[1,2]]}"#;
    let (status, _) = client.post("/predict", body).expect("round-trip");
    assert_eq!(status, 400);
    assert!(
        !registry.path_for(untrained).exists(),
        "invalid rows must not cost a training run"
    );
    handle.stop();
}

#[test]
fn wrong_arity_rows_return_400_and_connection_survives() {
    let (handle, _registry, addr) = start("arity", 1 << 20);
    let mut client = HttpClient::connect(&addr).expect("connects");
    for rows in ["[[1.0]]", "[[1,2,3,4,5]]", "[[]]", "[[1,2,3,4],[1,2]]"] {
        let body = format!(r#"{{"workload":"spmv-small","kind":"knn","rows":{rows}}}"#);
        let (status, body) = client.post("/predict", &body).expect("round-trip");
        assert_eq!(status, 400, "rows {rows}: {body}");
        assert!(body.contains("features"), "rows {rows}: {body}");
    }
    assert_connection_usable(&mut client);
    handle.stop();
}

#[test]
fn malformed_json_returns_400_and_connection_survives() {
    let (handle, _registry, addr) = start("json", 1 << 20);
    let mut client = HttpClient::connect(&addr).expect("connects");
    // `rows` nested 20,000 deep in 40 KB: a parser that recursed once per
    // level would overflow the handler thread's stack and abort the
    // server.
    let deep = format!(
        r#"{{"workload":"spmv-small","kind":"knn","rows":{}{}}}"#,
        "[".repeat(20_000),
        "]".repeat(20_000)
    );
    for body in [
        "{not json",
        "",
        "null",
        r#"{"workload":"spmv-small"}"#,
        r#"{"workload":"no-such","kind":"knn","rows":[[1,2,3,4]]}"#,
        r#"{"workload":"spmv-small","kind":"no-such","rows":[[1,2,3,4]]}"#,
        &deep,
    ] {
        let (status, _) = client.post("/predict", body).expect("round-trip");
        assert_eq!(status, 400, "body `{body:.80}`");
    }
    assert_connection_usable(&mut client);
    handle.stop();
}

#[test]
fn workloads_endpoint_lists_catalog_and_unknown_name_is_404() {
    let (handle, _registry, addr) = start("workloads", 1 << 20);
    let mut client = HttpClient::connect(&addr).expect("connects");

    // /workloads lists every servable scenario with its schema.
    let (status, body) = client.get("/workloads").expect("round-trip");
    assert_eq!(status, 200, "body: {body}");
    let parsed: WorkloadsResponse = serde_json::from_str(&body).expect("parses");
    for expected in ["stencil-grid", "fmm", "fmm-small", "spmv-small"] {
        assert!(
            parsed.workloads.iter().any(|w| w.name == expected),
            "{expected} missing from /workloads: {body}"
        );
    }
    for w in &parsed.workloads {
        assert_eq!(w.n_features, w.feature_names.len(), "{}", w.name);
        assert!(w.space_size > 0, "{}", w.name);
    }

    // /workloads/{name} answers one scenario's schema.
    let (status, body) = client.get("/workloads/spmv-small").expect("round-trip");
    assert_eq!(status, 200, "body: {body}");
    let detail: WorkloadInfo = serde_json::from_str(&body).expect("parses");
    assert_eq!(detail.name, "spmv-small");
    assert_eq!(detail.n_features, 4);
    assert!(detail.space_size >= 96);

    // An unknown name is a clean 404, and the connection survives.
    let (status, body) = client
        .get("/workloads/no-such-workload")
        .expect("round-trip");
    assert_eq!(status, 404, "body: {body}");
    assert!(body.contains("unknown workload"), "body: {body}");
    assert_connection_usable(&mut client);
    handle.stop();
}

#[test]
fn oversized_body_rejected_without_killing_the_server() {
    let (handle, _registry, addr) = start("oversized", 4096);
    let mut client = HttpClient::connect(&addr).expect("connects");
    let huge = format!(
        r#"{{"workload":"spmv-small","kind":"knn","rows":[[{}]]}}"#,
        "1.0,".repeat(4000) + "1.0"
    );
    assert!(huge.len() > 4096);
    let (status, body) = client.post("/predict", &huge).expect("round-trip");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("exceeds limit"), "body: {body}");

    // The protocol closes the connection after an over-limit body (it
    // cannot resynchronize), but the server itself must keep serving.
    let mut fresh = HttpClient::connect(&addr).expect("reconnects");
    assert_connection_usable(&mut fresh);
    handle.stop();
}
