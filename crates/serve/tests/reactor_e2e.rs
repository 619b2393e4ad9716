//! End-to-end tests for the event-driven serve core: pipelining with
//! strict response ordering, graceful drain, load shedding under
//! overload, slowloris/oversized-head defenses, idle reaping,
//! cross-connection micro-batch formation, and table-first dispatch —
//! all over real sockets against a real server.

use lam_obs::trace::TraceContext;
use lam_serve::http::{self, PredictRequest, PredictResponse, ServeConfig, ServerOptions};
use lam_serve::loadgen::{HttpClient, MetricsScrape};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `lam_batch_occupancy` is process-global, so the tests whose requests
/// can reach a `BatchScheduler` take this lock: a test asserting on
/// occupancy deltas must not overlap another test's scheduler traffic.
static SCHEDULER_TRAFFIC: Mutex<()> = Mutex::new(());

fn scheduler_traffic() -> MutexGuard<'static, ()> {
    SCHEDULER_TRAFFIC
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_reactor_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

fn base_config(workers: usize) -> ServeConfig {
    ServeConfig::new(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerOptions::default()
    })
}

/// One parsed raw response: status, headers (lowercased names), body.
struct RawResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl RawResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read exactly `n` pipelined responses off a raw socket.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<RawResponse> {
    let mut bytes = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while out.len() < n {
        // Parse as many complete responses as the buffer holds.
        while out.len() < n {
            let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
                break;
            };
            let head = String::from_utf8(bytes[..head_end].to_vec()).expect("ascii head");
            let mut lines = head.split("\r\n");
            let status: u16 = lines
                .next()
                .expect("status line")
                .split_whitespace()
                .nth(1)
                .expect("status code")
                .parse()
                .expect("numeric status");
            let headers: Vec<(String, String)> = lines
                .filter_map(|l| l.split_once(':'))
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
                .collect();
            let content_length: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .map(|(_, v)| v.parse().expect("numeric content-length"))
                .unwrap_or(0);
            if bytes.len() < head_end + 4 + content_length {
                break;
            }
            let body =
                String::from_utf8(bytes[head_end + 4..head_end + 4 + content_length].to_vec())
                    .expect("utf-8 body");
            bytes.drain(..head_end + 4 + content_length);
            out.push(RawResponse {
                status,
                headers,
                body,
            });
        }
        if out.len() >= n {
            break;
        }
        assert!(Instant::now() < deadline, "timed out awaiting responses");
        match stream.read(&mut chunk) {
            Ok(0) => panic!(
                "server closed after {} of {n} expected responses",
                out.len()
            ),
            Ok(read) => bytes.extend_from_slice(&chunk[..read]),
            Err(e) => panic!("read failed after {} responses: {e}", out.len()),
        }
    }
    out
}

fn raw_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read until EOF, returning everything received (for close-after-error
/// paths where the response count is exactly one).
fn read_to_eof(stream: &mut TcpStream) -> String {
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

#[test]
fn pipelined_requests_answer_strictly_in_order() {
    let _serial = scheduler_traffic();
    let registry = Arc::new(ModelRegistry::new(temp_root("pipeline")));
    // Train ahead of time so pipelined /predict answers are fast.
    registry
        .get(ModelKey::new(wid("fmm-small"), ModelKind::Linear, 1))
        .expect("trains");
    let handle = http::start_with(Arc::clone(&registry), base_config(2)).expect("binds");
    let addr = handle.local_addr();

    let rows = wid("fmm-small").sample_rows(1);
    let predict_body = serde_json::to_string(&PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "linear".to_string(),
        version: Some(1),
        rows,
    })
    .unwrap();
    // A mixed pipeline: sync routes and predicts interleaved. The first
    // predict misses the cache and completes from a scheduler worker;
    // later ones may hit and answer on a handler thread. Responses must
    // come back in exactly this order either way.
    let plan: Vec<(&str, &str, &str, &str)> = vec![
        ("GET", "/healthz", "", "\"uptime_ms\""),
        ("POST", "/predict", &predict_body, "\"predictions\""),
        ("GET", "/workloads/fmm-small", "", "\"fmm-small\""),
        ("POST", "/predict", &predict_body, "\"predictions\""),
        ("GET", "/workloads/spmv-small", "", "\"spmv-small\""),
        ("POST", "/predict", &predict_body, "\"predictions\""),
        ("GET", "/healthz", "", "\"uptime_ms\""),
    ];
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut wire = String::new();
    for (method, path, body, _) in &plan {
        wire.push_str(&raw_request(method, path, body));
    }
    stream.write_all(wire.as_bytes()).expect("writes pipeline");

    let responses = read_responses(&mut stream, plan.len());
    for (i, (resp, (method, path, _, marker))) in responses.iter().zip(&plan).enumerate() {
        assert_eq!(resp.status, 200, "request {i} ({method} {path})");
        assert!(
            resp.body.contains(marker),
            "response {i} out of order: expected {method} {path} (marker {marker}), got {}",
            resp.body
        );
    }
    handle.stop();
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let registry = Arc::new(ModelRegistry::new(temp_root("drain")));
    registry
        .get(ModelKey::new(wid("fmm-small"), ModelKind::Linear, 1))
        .expect("trains");
    let mut cfg = base_config(2);
    // The in-flight request must win over the drain deadline, not race it.
    cfg.drain_deadline = Duration::from_secs(30);
    let handle = http::start_with(Arc::clone(&registry), cfg).expect("binds");
    let addr = handle.local_addr();

    // A /tune request does real server-side work (model-guided search over
    // the configuration space), so it is still in flight when shutdown
    // begins.
    let tune_body = r#"{"workload":"fmm-small","strategy":"random","kind":"linear","budget":48,"top_k":3,"seed":7}"#;
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .write_all(raw_request("POST", "/tune", tune_body).as_bytes())
        .expect("writes");
    std::thread::sleep(Duration::from_millis(30));

    let reader = std::thread::spawn(move || read_responses(&mut stream, 1));
    handle.stop(); // must wait for the in-flight tune, not abandon it
    let responses = reader.join().expect("reader thread");
    assert_eq!(responses[0].status, 200, "body: {}", responses[0].body);
    assert!(responses[0].body.contains("\"report\""));

    // The server is gone: new connections are refused or dead.
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut c = HttpClient::connect(&addr.to_string()).unwrap();
            c.get("/healthz").is_err()
        }
    );
}

#[test]
fn overload_sheds_503_with_retry_after_and_survives() {
    let _serial = scheduler_traffic();
    let registry = Arc::new(ModelRegistry::new(temp_root("overload")));
    registry
        .get(ModelKey::new(wid("fmm-small"), ModelKind::Linear, 1))
        .expect("trains");
    // One handler thread and a single-slot dispatch queue: a deep
    // pipeline must overflow it.
    let mut cfg = base_config(1);
    cfg.dispatch_queue = 1;
    cfg.pipeline_depth = 64;
    let handle = http::start_with(Arc::clone(&registry), cfg).expect("binds");
    let addr = handle.local_addr();

    let rows = wid("fmm-small").sample_rows(2);
    let body = serde_json::to_string(&PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "linear".to_string(),
        version: Some(1),
        rows,
    })
    .unwrap();
    let total = 60;
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut wire = String::new();
    for _ in 0..total {
        wire.push_str(&raw_request("POST", "/predict", &body));
    }
    stream.write_all(wire.as_bytes()).expect("writes burst");

    let responses = read_responses(&mut stream, total);
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed: Vec<&RawResponse> = responses.iter().filter(|r| r.status == 503).collect();
    let other = responses
        .iter()
        .filter(|r| r.status != 200 && r.status != 503)
        .count();
    assert!(ok >= 1, "some requests must be served ({ok} of {total})");
    assert!(
        !shed.is_empty(),
        "a 1-deep dispatch queue under a {total}-request burst must shed"
    );
    assert_eq!(other, 0, "only 200s and 503s are acceptable");
    for r in &shed {
        assert_eq!(
            r.header("retry-after"),
            Some("1"),
            "every shed response tells the client when to return"
        );
    }

    // Shedding is survival, not failure: the same connection and fresh
    // connections keep working, and the shed counter says why.
    stream
        .write_all(raw_request("GET", "/healthz", "").as_bytes())
        .expect("same connection still works");
    let after = read_responses(&mut stream, 1);
    assert_eq!(after[0].status, 200);

    let mut client = HttpClient::connect(&addr.to_string()).expect("fresh connection");
    let scrape = MetricsScrape::fetch(&mut client).expect("scrapes");
    assert!(
        scrape.counter_with_label("lam_requests_shed_total", ("reason", "dispatch-queue"))
            >= shed.len() as u64,
        "shed responses must be attributed to the dispatch queue"
    );
    handle.stop();
}

#[test]
fn slowloris_connections_get_408_within_the_header_timeout() {
    let registry = Arc::new(ModelRegistry::new(temp_root("slowloris")));
    let mut cfg = base_config(1);
    cfg.header_timeout = Duration::from_millis(150);
    let handle = http::start_with(registry, cfg).expect("binds");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Trickle a partial request and stall mid-header, holding the
    // connection hostage the way a slowloris client would.
    stream
        .write_all(b"POST /predict HTTP/1.1\r\ncontent-le")
        .expect("partial write");
    let started = Instant::now();
    let text = read_to_eof(&mut stream);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "stalled request must get 408, got: {text:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "408 must arrive promptly, not at some long idle cutoff"
    );
    handle.stop();
}

#[test]
fn oversized_request_heads_are_rejected_not_buffered() {
    let registry = Arc::new(ModelRegistry::new(temp_root("bighead")));
    let handle = http::start_with(registry, base_config(1)).expect("binds");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // Headers forever, no terminating blank line; the server must cut
    // this off at its head cap instead of buffering without bound.
    let filler = format!("x-filler: {}\r\n", "y".repeat(120));
    for _ in 0..((16 << 10) / filler.len() + 4) {
        if stream.write_all(filler.as_bytes()).is_err() {
            break; // server already closed on us — also acceptable
        }
    }
    let text = read_to_eof(&mut stream);
    assert!(
        text.starts_with("HTTP/1.1 400 "),
        "oversized head must get 400, got: {text:?}"
    );
    assert!(text.contains("exceed"), "diagnostic names the cap: {text}");
    handle.stop();
}

#[test]
fn idle_connections_are_reaped() {
    let registry = Arc::new(ModelRegistry::new(temp_root("idle")));
    let mut cfg = base_config(1);
    cfg.idle_timeout = Duration::from_millis(150);
    let handle = http::start_with(registry, cfg).expect("binds");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A completed request keeps the connection alive...
    stream
        .write_all(raw_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let first = read_responses(&mut stream, 1);
    assert_eq!(first[0].status, 200);
    // ...but going quiet past the idle timeout gets it closed (EOF, no
    // error response — an idle keep-alive is not a protocol violation).
    let text = read_to_eof(&mut stream);
    assert_eq!(text, "", "idle close is silent");
    handle.stop();
}

#[test]
fn connection_cap_sheds_new_connections_with_503() {
    let registry = Arc::new(ModelRegistry::new(temp_root("conncap")));
    let mut cfg = base_config(1);
    cfg.max_connections = 1;
    let handle = http::start_with(registry, cfg).expect("binds");
    let addr = handle.local_addr();

    // First connection occupies the only slot.
    let mut first = TcpStream::connect(addr).expect("connects");
    first
        .write_all(raw_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_responses(&mut first, 1)[0].status, 200);

    // The second is told to come back, then closed.
    let mut second = TcpStream::connect(addr).expect("tcp accept still happens");
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let text = read_to_eof(&mut second);
    assert!(
        text.starts_with("HTTP/1.1 503 "),
        "over-cap connection must get 503, got: {text:?}"
    );
    assert!(text.contains("retry-after: 1"), "{text}");

    // The first connection is unaffected.
    first
        .write_all(raw_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_responses(&mut first, 1)[0].status, 200);
    handle.stop();
}

fn scrape(addr: &str) -> MetricsScrape {
    let mut c = HttpClient::connect(addr).expect("scrape conn");
    MetricsScrape::fetch(&mut c).expect("scrapes")
}

fn predict_body(kind: &str, rows: Vec<Vec<f64>>) -> String {
    serde_json::to_string(&PredictRequest {
        workload: "fmm-small".to_string(),
        kind: kind.to_string(),
        version: Some(1),
        rows,
    })
    .unwrap()
}

/// `n` distinct fmm-small rows off the configuration grid (a fractional
/// particle count), numbered from `first`: they are not in the model's
/// space table, so every request for them computes them.
fn off_grid_rows(first: usize, n: usize) -> Vec<Vec<f64>> {
    let base = wid("fmm-small").sample_rows(1).remove(0);
    (first..first + n)
        .map(|i| {
            let mut row = base.clone();
            row[1] += 0.25 + i as f64;
            row
        })
        .collect()
}

/// POST every body to `/predict`, split over `connections` concurrent
/// connections with `depth` requests in flight on each; returns the
/// responses in body order.
fn pipelined_predicts(
    addr: &str,
    bodies: &[String],
    connections: usize,
    depth: usize,
) -> Vec<PredictResponse> {
    let per_conn = bodies.len().div_ceil(connections);
    std::thread::scope(|scope| {
        let workers: Vec<_> = bodies
            .chunks(per_conn)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connects");
                    let mut out = Vec::with_capacity(chunk.len());
                    for window in chunk.chunks(depth) {
                        for body in window {
                            client.send("POST", "/predict", body).expect("sends");
                        }
                        for _ in window {
                            let (status, body) = client.recv().expect("response");
                            assert_eq!(status, 200, "{body}");
                            out.push(serde_json::from_str(&body).expect("predict response"));
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

fn bits(predictions: &[f64]) -> Vec<u64> {
    predictions.iter().map(|y| y.to_bits()).collect()
}

#[test]
fn concurrent_single_row_traffic_forms_cross_connection_batches() {
    let _serial = scheduler_traffic();
    let registry = Arc::new(ModelRegistry::new(temp_root("occupancy")));
    let model = registry
        .get(ModelKey::new(wid("fmm-small"), ModelKind::Linear, 1))
        .expect("trains");
    let mut cfg = base_config(4);
    // A slightly longer coalescing window makes batch formation robust on
    // a single-core CI box; correctness does not depend on it.
    cfg.batch.flush_deadline = Duration::from_millis(1);
    let handle = http::start_with(Arc::clone(&registry), cfg).expect("binds");
    let addr = handle.local_addr().to_string();

    // Every row is off the grid, so every single-row request misses the
    // space table and goes through the scheduler: any batching must come
    // from coalescing across the 4 pipelined connections.
    let off_grid = off_grid_rows(0, 512);
    let bodies: Vec<String> = off_grid
        .iter()
        .map(|row| predict_body("linear", vec![row.clone()]))
        .collect();
    let before = scrape(&addr);
    let cold = pipelined_predicts(&addr, &bodies, 4, 8);
    let after = scrape(&addr);
    assert!(
        cold.iter().all(|r| r.cache_hits == 0),
        "rows missed the table"
    );
    let (c0, s0) = before.histogram_totals("lam_batch_occupancy", None);
    let (c1, s1) = after.histogram_totals("lam_batch_occupancy", None);
    let (flushes, submissions) = (c1 - c0, s1 - s0);
    assert_eq!(
        submissions,
        bodies.len() as u64,
        "every cold request is a scheduler submission"
    );
    let occupancy = submissions as f64 / flushes as f64;
    assert!(
        occupancy > 1.0,
        "single-row requests from 4 pipelined connections must coalesce \
         (mean occupancy {occupancy:.3} over {flushes} flushes)"
    );
    assert!(
        after.gauge_total("lam_connections_open") >= 1,
        "the scrape's own connection is registered with the reactor"
    );

    // Twin: the same traffic shape over grid rows, which are in the space
    // table from the model's load on, so they are answered on the handler
    // threads. Hits move; the scheduler sees nothing.
    let hits = |s: &MetricsScrape| {
        s.counter_with_label("lam_cache_hits_total", ("scope", "fmm-small/linear"))
    };
    let grid = wid("fmm-small").sample_rows(bodies.len());
    let grid_bodies: Vec<String> = grid
        .iter()
        .map(|row| predict_body("linear", vec![row.clone()]))
        .collect();
    let warm = pipelined_predicts(&addr, &grid_bodies, 4, 8);
    let after_warm = scrape(&addr);
    assert!(
        warm.iter().all(|r| r.cache_hits == 1),
        "grid rows hit the table"
    );
    assert!(hits(&after_warm) - hits(&after) >= grid_bodies.len() as u64);
    assert_eq!(
        after_warm.histogram_totals("lam_batch_occupancy", None).0,
        c1,
        "table-hit single-row traffic must not reach the scheduler"
    );
    // Both paths answer exactly what the model computes.
    for (responses, rows) in [(&cold, &off_grid), (&warm, &grid)] {
        for (r, row) in responses.iter().zip(rows) {
            assert_eq!(
                bits(&r.predictions),
                bits(&[model.predict_row_uncached(row)])
            );
        }
    }
    handle.stop();
}

/// Names of the spans one forced trace left on `addr`.
fn trace_span_names(addr: &str, ctx: &TraceContext) -> Vec<String> {
    let mut client = HttpClient::connect(addr).expect("connects");
    let (status, body) = client
        .get(&format!("/traces/{:032x}", ctx.trace_id))
        .expect("trace fetch");
    assert_eq!(status, 200, "forced trace not retained: {body}");
    let doc: serde::Value = serde_json::from_str(&body).expect("trace json");
    doc.get("spans")
        .and_then(|s| s.as_array())
        .expect("spans array")
        .iter()
        .filter_map(|span| span.get("name").and_then(|n| n.as_str()))
        .map(str::to_string)
        .collect()
}

#[test]
fn warm_requests_answer_on_the_handler_bit_identically_to_cold_ones() {
    let _serial = scheduler_traffic();
    let registry = Arc::new(ModelRegistry::new(temp_root("cache_first")));
    let model = registry
        .get(ModelKey::new(wid("fmm-small"), ModelKind::Cart, 1))
        .expect("trains");
    let direct = |rows: &[Vec<f64>]| {
        let ys: Vec<f64> = rows.iter().map(|r| model.predict_row_uncached(r)).collect();
        bits(&ys)
    };
    let handle = http::start_with(Arc::clone(&registry), base_config(2)).expect("binds");
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");
    let mut traced = |path: &str, body: &str| {
        let ctx = TraceContext::root().with_force();
        client
            .send_traced("POST", path, body, Some(&ctx.header_value()))
            .expect("sends");
        let (status, resp) = client.recv().expect("response");
        assert_eq!(status, 200, "{resp}");
        let resp: PredictResponse = serde_json::from_str(&resp).expect("predict response");
        (resp, trace_span_names(&addr, &ctx))
    };

    // Cold: off-grid rows, computed through the scheduler. Warm: grid
    // rows, answered from the space table on the handler.
    for (off_grid, grid) in [
        (off_grid_rows(1000, 1), wid("fmm-small").sample_rows(1)),
        (off_grid_rows(2000, 32), wid("fmm-small").sample_rows(32)),
    ] {
        let n = grid.len();
        let (cold, cold_spans) = traced("/predict", &predict_body("cart", off_grid.clone()));
        assert_eq!(cold.cache_hits, 0, "{n} rows were cold");
        assert!(
            cold_spans.iter().any(|s| s == "serve.queue"),
            "a cold {n}-row request is coalesced: {cold_spans:?}"
        );
        let body = predict_body("cart", grid.clone());
        let (warm, warm_spans) = traced("/predict", &body);
        assert_eq!(warm.cache_hits, n as u64, "{n} rows were warm");
        assert_eq!(
            bits(&cold.predictions),
            direct(&off_grid),
            "cold {n}-row answer differs from the model's"
        );
        assert_eq!(
            bits(&warm.predictions),
            direct(&grid),
            "warm {n}-row answer differs from the model's"
        );
        assert!(
            warm_spans.iter().any(|s| s == "serve.predict")
                && !warm_spans.iter().any(|s| s == "serve.queue"),
            "a warm {n}-row request is answered on the handler: {warm_spans:?}"
        );
        // A query string does not change the endpoint: same path, same
        // spans, same answer.
        let (probe, probe_spans) = traced("/predict?probe=1", &body);
        assert_eq!(bits(&probe.predictions), bits(&warm.predictions));
        assert!(
            ["serve.request", "serve.predict"]
                .iter()
                .all(|name| probe_spans.iter().any(|s| s == name)),
            "/predict?probe=1 is served like /predict: {probe_spans:?}"
        );
    }
    handle.stop();
}
