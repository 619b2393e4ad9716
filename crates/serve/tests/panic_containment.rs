//! A request that panics must not take a serving thread with it. The
//! scenario here is registered at runtime (as in `dynamic_workload.rs`)
//! with an analytical model that panics on one off-grid sentinel value,
//! so its hybrid panics on exactly the requests that carry that value:
//! on a handler thread for a 64-row request, on a scheduler worker for a
//! 1-row one. Each such request is answered 500 and counted as a 5xx,
//! and more of them than there are handlers or workers leave the server
//! answering normally.

use lam_analytical::traits::AnalyticalModel;
use lam_core::catalog::WorkloadCatalog;
use lam_core::workload::Workload;
use lam_serve::http::{self, PredictRequest, ServerOptions};
use lam_serve::loadgen::{HttpClient, MetricsScrape};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A `size` no configuration has: the analytical model panics on it.
const SENTINEL: f64 = 3.5;

/// Panics on [`SENTINEL`]; a constant elsewhere.
struct SentinelModel;

impl AnalyticalModel for SentinelModel {
    fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            x[0] != SENTINEL,
            "sentinel row reached the analytical model"
        );
        1e-3
    }
}

/// A `(size, lanes)` scenario whose analytical model is [`SentinelModel`].
struct SentinelWorkload {
    configs: Vec<(u64, u64)>,
}

impl Workload for SentinelWorkload {
    type Config = (u64, u64);

    fn name(&self) -> &str {
        "panic-sentinel"
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
        1e-6 * cfg.0 as f64 / (cfg.1 as f64).sqrt()
    }

    fn problem_size(&self, cfg: &(u64, u64)) -> f64 {
        cfg.0 as f64
    }

    fn analytical_model(&self) -> Box<dyn AnalyticalModel> {
        Box::new(SentinelModel)
    }
}

/// POST `rows` to `/predict` on a fresh connection and return the status.
/// The read timeout turns a request nobody answers into a test failure,
/// not a hang.
fn predict_status(addr: &str, rows: Vec<Vec<f64>>) -> u16 {
    let body = serde_json::to_string(&PredictRequest {
        workload: "panic-sentinel".to_string(),
        kind: "hybrid".to_string(),
        version: Some(1),
        rows,
    })
    .unwrap();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("answered before the read timeout");
    response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn predict_5xx(addr: &str) -> i64 {
    let mut client = HttpClient::connect(addr).expect("connects");
    let scrape = MetricsScrape::fetch(&mut client).expect("scrapes");
    scrape
        .counters
        .iter()
        .filter(|c| c.name == "lam_requests_total")
        .filter(|c| c.labels.get("endpoint").is_some_and(|v| v == "predict"))
        .filter(|c| c.labels.get("status").is_some_and(|v| v == "5xx"))
        .map(|c| c.value)
        .sum()
}

#[test]
fn panicking_requests_answer_500_and_leave_every_thread_serving() {
    let configs = [64u64, 128, 256, 512]
        .iter()
        .flat_map(|&size| (1..=8u64).map(move |lanes| (size, lanes)))
        .collect();
    WorkloadCatalog::global()
        .register_workload("panic-sentinel", SentinelWorkload { configs })
        .expect("fresh name registers");
    let id = WorkloadId::get("panic-sentinel").unwrap();
    let root = std::env::temp_dir().join("lam_serve_panic_containment");
    let _ = std::fs::remove_dir_all(&root);
    let registry = Arc::new(ModelRegistry::new(root));
    // Loading predicts the whole grid, which never holds the sentinel.
    registry
        .get(ModelKey::new(id, ModelKind::Hybrid, 1))
        .expect("trains");
    // Default options: 4 handler threads, 2 scheduler workers.
    let handle = http::start(Arc::clone(&registry), ServerOptions::default()).expect("binds");
    let addr = handle.local_addr().to_string();
    let grid = id.sample_rows(64);
    let before = predict_5xx(&addr);

    // 64 rows run on a handler thread: one more panic than handlers.
    let mut poisoned = grid.clone();
    poisoned[17] = vec![SENTINEL, 2.0];
    for i in 0..5 {
        assert_eq!(
            predict_status(&addr, poisoned.clone()),
            500,
            "64-row request {i}"
        );
    }
    // One row misses the table and runs on a scheduler worker: one more
    // panic than workers.
    for i in 0..3 {
        assert_eq!(
            predict_status(&addr, vec![vec![SENTINEL, 1.0]]),
            500,
            "1-row request {i}"
        );
    }
    assert_eq!(predict_5xx(&addr) - before, 8, "each panic is a 5xx");

    // Both paths still answer.
    assert_eq!(predict_status(&addr, grid), 200);
    assert_eq!(predict_status(&addr, vec![vec![100.0, 3.0]]), 200);
    handle.stop();
}
