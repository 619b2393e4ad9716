//! End-to-end observability test: serve a model, drive traffic (including
//! a syntactically invalid request), and check that `/metrics` speaks
//! valid Prometheus text covering the request/cache/batch/registry
//! families, `/metrics.json` parses into the loadgen scraper's types, and
//! `/healthz` carries the new birth-timestamp and totals fields.

use lam_serve::http::{self, HealthResponse, PredictRequest, ServerOptions};
use lam_serve::loadgen::{HttpClient, MetricsScrape};
use lam_serve::registry::ModelRegistry;
use lam_serve::workload::WorkloadId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_metrics_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write raw bytes to a fresh connection and read the whole response
/// (the server closes non-keep-alive connections after answering).
fn raw_request(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(bytes).expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    response
}

/// Find one counter series by name + one distinguishing label.
fn counter_value(scrape: &MetricsScrape, name: &str, label: (&str, &str)) -> i64 {
    scrape
        .counters
        .iter()
        .filter(|c| c.name == name)
        .filter(|c| c.labels.get(label.0).is_some_and(|v| v == label.1))
        .map(|c| c.value)
        .sum()
}

#[test]
fn metrics_cover_the_serving_stack_end_to_end() {
    let root = temp_root("e2e");
    let registry = Arc::new(ModelRegistry::new(root));
    let handle = http::start(
        registry,
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");

    // Drive traffic: a train-on-miss predict of off-grid rows (table
    // misses), a predict of grid rows (table hits), a 4xx.
    let grid = WorkloadId::get("fmm-small").unwrap().sample_rows(16);
    let off_grid = grid
        .iter()
        .map(|row| {
            let mut row = row.clone();
            row[1] += 0.25;
            row
        })
        .collect();
    for rows in [off_grid, grid] {
        let request = PredictRequest {
            workload: "fmm-small".to_string(),
            kind: "linear".to_string(),
            version: Some(1),
            rows,
        };
        let (status, _) = client
            .post("/predict", &serde_json::to_string(&request).unwrap())
            .unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = client.post("/predict", "{not json").unwrap();
    assert_eq!(status, 400);

    // /metrics: Prometheus text with HELP/TYPE lines and every family
    // the instrumentation promises.
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("# TYPE lam_requests_total counter"), "{text}");
    assert!(
        text.contains(
            "# HELP lam_request_duration_ns Server-side request handling time, nanoseconds."
        ),
        "{text}"
    );
    assert!(text.contains("# TYPE lam_request_duration_ns histogram"));
    assert!(text.contains("# TYPE lam_requests_in_flight gauge"));
    assert!(text.contains(r#"lam_requests_total{endpoint="predict",status="2xx"} 2"#));
    assert!(text.contains(r#"lam_requests_total{endpoint="predict",status="4xx"} 1"#));
    assert!(text.contains(r#"lam_request_duration_ns_bucket{endpoint="predict",le="+Inf"} 3"#));
    // Batch + registry + phase families, fed by the predict traffic.
    assert!(text.contains("lam_cache_hits_total{scope=\"fmm-small/linear\"}"));
    assert!(text.contains("lam_cache_misses_total{scope=\"fmm-small/linear\"}"));
    assert!(text.contains("lam_batch_rows"));
    assert!(text.contains("lam_batch_queue_wait_ns"));
    assert!(text.contains(r#"lam_registry_resolutions_total{path="train"} 1"#));
    assert!(text.contains("lam_train_duration_ns"));
    assert!(text.contains(r#"lam_phase_duration_ns_bucket{endpoint="predict",phase="predict","#));
    // Every family has exactly one HELP and one TYPE line (no duplicate
    // family emission), and buckets are well-formed.
    for family in ["lam_requests_total", "lam_request_duration_ns"] {
        assert_eq!(
            text.matches(&format!("# HELP {family} ")).count(),
            1,
            "{family}"
        );
        assert_eq!(
            text.matches(&format!("# TYPE {family} ")).count(),
            1,
            "{family}"
        );
    }

    // /metrics.json parses into the scraper types loadgen uses.
    let scrape = MetricsScrape::fetch(&mut client).expect("scrapes");
    assert_eq!(
        counter_value(&scrape, "lam_requests_total", ("endpoint", "predict")),
        3
    );
    assert!(scrape.counter_total("lam_cache_hits_total") >= 16);
    let (count, sum) = scrape.histogram_totals("lam_phase_duration_ns", Some(("phase", "parse")));
    assert!(count >= 2 && sum > 0, "parse phase recorded");

    // A request whose bytes never parse still lands in the accounting,
    // under its own endpoint label with a 4xx status class.
    let malformed_before = counter_value(&scrape, "lam_requests_total", ("endpoint", "malformed"));
    let response = raw_request(&addr, b"NONSENSE\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let scrape = MetricsScrape::fetch(&mut client).expect("scrapes again");
    assert_eq!(
        counter_value(&scrape, "lam_requests_total", ("endpoint", "malformed")) - malformed_before,
        1
    );
    assert_eq!(
        counter_value(&scrape, "lam_requests_total", ("status", "4xx")),
        2,
        "bad JSON + malformed bytes are both 4xx"
    );

    // /metrics itself serves the Prometheus content type, fast.
    let started = std::time::Instant::now();
    let response = raw_request(&addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(started.elapsed().as_millis() < 50, "metrics render quickly");
    assert!(
        response.contains("content-type: text/plain; version=0.0.4"),
        "{}",
        response.lines().take(5).collect::<Vec<_>>().join("\n")
    );

    // /healthz: birth timestamp plus top-level totals.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert!(
        health.started_at.ends_with('Z') && health.started_at.contains('T'),
        "RFC 3339: {}",
        health.started_at
    );
    assert!(health.requests_total >= 6, "{}", health.requests_total);
    assert!(
        health.cache_hit_ratio > 0.0 && health.cache_hit_ratio <= 1.0,
        "{}",
        health.cache_hit_ratio
    );

    handle.stop();
}
