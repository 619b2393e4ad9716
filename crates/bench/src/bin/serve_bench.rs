//! Serving-stack A/B: the retired blocking thread-per-connection server
//! (`lam_serve::reference`) versus the event-driven reactor with
//! cross-connection micro-batching, measured with the in-crate load
//! generator and written to `results/BENCH_serve.json`.
//!
//! Three measurements, all on concurrent single-row traffic (4 keep-alive
//! connections, batch 1 — the workload the reactor was built for):
//!
//! 1. **threaded baseline** — closed-loop loadgen against the blocking
//!    reference server. One row per wire round-trip, no cross-request
//!    batching possible.
//! 2. **reactor** — pipelined loadgen (8 in flight per connection)
//!    against the event-driven server. The rows are warm (the baseline
//!    run cached them in the shared registry), so the reactor answers
//!    them cache-first on its handler threads; cross-connection
//!    coalescing of cold rows is gated by the `reactor_e2e` test
//!    `concurrent_single_row_traffic_forms_cross_connection_batches`.
//! 3. **overload** — open-loop loadgen at well past capacity against a
//!    deliberately small dispatch queue: the point is that the server
//!    sheds with fast 503s (`shed > 0`) instead of queueing until
//!    clients time out (`errors == 0`).
//!
//! Run: `cargo run --release -p lam-bench --bin serve_bench`
//! Flags: `--seconds N` (default 3) `--out PATH`

use lam_serve::http::{self, ServeConfig, ServerOptions};
use lam_serve::loadgen::{self, LoadMode, LoadReport, LoadgenOptions};
use lam_serve::persist::ModelKind;
use lam_serve::reference;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

const CONNECTIONS: usize = 4;
const PIPELINE: usize = 8;
const POOL: usize = 256;

/// One measured server configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeCell {
    server: String,
    mode: String,
    requests: u64,
    predictions: u64,
    errors: u64,
    shed: u64,
    throughput_preds_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p95_us: f64,
    p99_us: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeReport {
    workload: String,
    kind: String,
    connections: usize,
    batch_rows: usize,
    seconds: f64,
    /// Cores available to client + server + scheduler combined. The
    /// reactor's win over the threaded seed scales with this: on one
    /// core every run is bound by per-request CPU (JSON, routing,
    /// accounting) shared between both sides of the socket, so syscall
    /// amortization and cross-connection batching bound the ratio well
    /// below what concurrent hardware shows.
    cores: usize,
    threaded_baseline: ServeCell,
    reactor: ServeCell,
    overload: ServeCell,
    speedup: f64,
}

fn cell(server: &str, report: &LoadReport) -> ServeCell {
    ServeCell {
        server: server.to_string(),
        mode: report.mode.clone(),
        requests: report.requests,
        predictions: report.predictions,
        errors: report.errors,
        shed: report.shed,
        throughput_preds_per_s: report.throughput,
        p50_us: report.p50_us,
        p90_us: report.p90_us,
        p95_us: report.p95_us,
        p99_us: report.p99_us,
    }
}

/// Drive one loadgen run of 1-row requests against `addr`.
fn drive(addr: &str, mode: LoadMode, seconds: f64) -> LoadReport {
    loadgen::run(&LoadgenOptions {
        addrs: vec![addr.to_string()],
        workload: WorkloadId::get("fmm-small").expect("builtin"),
        kind: ModelKind::Hybrid,
        version: 1,
        seconds,
        connections: CONNECTIONS,
        batch: 1,
        pool: POOL,
        mode,
    })
    .expect("loadgen run")
}

fn print_cell(c: &ServeCell) {
    println!(
        "  {:>18} {:>14} | {:>12.0} preds/s  p50 {:>6.0}us  p99 {:>7.0}us  shed {:>5}",
        c.server, c.mode, c.throughput_preds_per_s, c.p50_us, c.p99_us, c.shed
    );
}

fn main() {
    let mut seconds = 3.0;
    let mut out = "results/BENCH_serve.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds requires a number")
            }
            "--out" => out = it.next().expect("--out requires a path"),
            other => panic!("unknown flag `{other}`"),
        }
    }

    let workload = WorkloadId::get("fmm-small").expect("builtin workload");
    let key = ModelKey::new(workload, ModelKind::Hybrid, 1);
    let registry = Arc::new(ModelRegistry::new(
        std::env::temp_dir().join("lam_serve_bench_models"),
    ));
    println!("training {key}...");
    registry.get(key).expect("model trains");

    // 1. Threaded baseline: the seed's blocking server, closed loop.
    println!("\nserving A/B: {CONNECTIONS} connections, 1-row requests, {seconds:.0}s per run\n");
    let opts = ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServerOptions::default()
    };
    let threaded = {
        let handle = reference::start_reference(Arc::clone(&registry), opts.clone())
            .expect("reference server binds");
        let addr = handle.local_addr().to_string();
        let report = drive(&addr, LoadMode::Closed, seconds);
        handle.stop();
        cell("threaded (seed)", &report)
    };
    print_cell(&threaded);

    // 2. Reactor: event-driven server, pipelined client so the wire is
    //    never the bottleneck.
    let reactor = {
        let handle = http::start_with(Arc::clone(&registry), ServeConfig::new(opts.clone()))
            .expect("reactor binds");
        let addr = handle.local_addr().to_string();
        let report = drive(&addr, LoadMode::Pipeline(PIPELINE), seconds);
        handle.stop();
        cell("reactor", &report)
    };
    print_cell(&reactor);

    // 3. Overload: a small dispatch queue under an open-loop flood. The
    //    healthy outcome is nonzero sheds and zero client errors.
    let overload = {
        let mut cfg = ServeConfig::new(opts);
        cfg.dispatch_queue = 8;
        let handle = http::start_with(Arc::clone(&registry), cfg).expect("reactor binds");
        let addr = handle.local_addr().to_string();
        let offered = (reactor.throughput_preds_per_s * 3.0).max(10_000.0);
        let report = drive(&addr, LoadMode::OpenLoop { rps: offered }, seconds);
        handle.stop();
        cell("reactor (overload)", &report)
    };
    print_cell(&overload);

    let speedup = reactor.throughput_preds_per_s / threaded.throughput_preds_per_s.max(1e-9);
    println!("\n  reactor vs threaded: {speedup:.2}x throughput on concurrent 1-row traffic");
    assert!(
        overload.shed > 0,
        "overload run must shed (got {} errors instead)",
        overload.errors
    );
    assert_eq!(
        overload.errors, 0,
        "overload must produce 503s, not client-visible failures"
    );

    let report = ServeReport {
        workload: workload.to_string(),
        kind: ModelKind::Hybrid.to_string(),
        connections: CONNECTIONS,
        batch_rows: 1,
        seconds,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threaded_baseline: threaded,
        reactor,
        overload,
        speedup,
    };
    if let Some(parent) = Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("results dir");
    }
    std::fs::write(&out, serde_json::to_string_pretty(&report).expect("json")).expect("write");
    println!("  report written to {out}");
}
