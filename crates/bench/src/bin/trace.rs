//! Distributed-tracing overhead report: traced vs untraced table-hit
//! `/predict` round-trips (batch 1 / 64 / 256) through a real in-process
//! HTTP server, written to `results/BENCH_trace.json`.
//!
//! "Traced" is `lam_obs::set_enabled(true)` plus an `x-lam-trace` header
//! on every request, so the server parses the context, derives child
//! spans, and runs the tail-sampling decision per span. "Untraced" is
//! `lam_obs::set_enabled(false)` and no header — every trace call site
//! degrades to one relaxed atomic load. Headers for the traced side are
//! pre-generated outside the timed loops so the comparison charges the
//! server's tracing work, not the client's string formatting.
//!
//! Measurements interleave the two sides and keep the per-side minimum
//! across trials, so a background scheduler blip cannot charge its noise
//! to one side. The acceptance budget is <3% overhead at batch 256.
//!
//! Run: `cargo run --release -p lam-bench --bin trace`

use lam_obs::trace::TraceContext;
use lam_serve::http::{self, PredictRequest, ServerOptions};
use lam_serve::loadgen::HttpClient;
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: [usize; 3] = [1, 64, 256];
const TRIALS: usize = 25;
const BLOCK_ITERS: usize = 60;
const HEADER_POOL: usize = 1024;

/// Overhead at one batch size, ns/row through the table-hit HTTP path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverheadCell {
    batch: usize,
    traced_ns_per_row: f64,
    untraced_ns_per_row: f64,
    overhead_pct: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceReport {
    workload: String,
    kind: String,
    cells: Vec<OverheadCell>,
    sample_every: u64,
    spans_recorded: u64,
    spans_sampled_out: u64,
    budget_pct: f64,
    within_budget: bool,
}

/// Compare two round-trip closures on a noisy machine: time every
/// round trip individually, interleaving [`TRIALS`] blocks of
/// [`BLOCK_ITERS`] per side, and keep each side's single-round-trip
/// minimum. Scheduler noise and queueing only ever *add* latency, so
/// each minimum is a tight floor; the floors differ by exactly the code
/// the traced side always executes — the overhead being measured.
fn min_ns_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    for _ in 0..BLOCK_ITERS {
        a();
        b();
    }
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..TRIALS {
        for _ in 0..BLOCK_ITERS {
            let start = Instant::now();
            a();
            best_a = best_a.min(start.elapsed().as_nanos() as f64);
        }
        for _ in 0..BLOCK_ITERS {
            let start = Instant::now();
            b();
            best_b = best_b.min(start.elapsed().as_nanos() as f64);
        }
    }
    (best_a, best_b)
}

fn main() {
    let workload = WorkloadId::get("fmm-small").expect("builtin workload");
    let kind = ModelKind::Hybrid;
    let root = std::env::temp_dir().join("lam_bench_trace_models");
    let registry = Arc::new(ModelRegistry::new(root));
    registry
        .get(ModelKey::new(workload, kind, 1))
        .expect("train or load");
    let server = http::start(
        registry,
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr().to_string();

    // Distinct bulk (unforced) trace ids, pre-formatted: the traced side
    // exercises the real per-request mix of sampled-in and sampled-out
    // traces at the default rate.
    let headers: Vec<String> = (0..HEADER_POOL)
        .map(|_| TraceContext::root().header_value())
        .collect();

    println!("tracing overhead: table-hit HTTP /predict, {workload}/{kind}\n");
    println!(
        "  {:>6} | {:>12} {:>14} {:>9}",
        "batch", "traced/row", "untraced/row", "overhead"
    );
    println!("  {}", "-".repeat(48));

    // One keep-alive connection per side: the interleaved closures both
    // need exclusive use of theirs, and symmetric connections keep the
    // comparison fair.
    let mut traced_client = HttpClient::connect(&addr).expect("bench connection");
    let mut untraced_client = HttpClient::connect(&addr).expect("bench connection");
    let mut cells = Vec::new();
    for batch in BATCHES {
        let rows = workload.sample_rows(batch);
        let body = serde_json::to_string(&PredictRequest {
            workload: workload.to_string(),
            kind: kind.to_string(),
            version: Some(1),
            rows,
        })
        .expect("request serializes");
        // Warm both connections (grid rows are table hits already).
        let (status, resp) = traced_client.post("/predict", &body).expect("warm predict");
        assert_eq!(status, 200, "warm predict failed: {resp}");
        let (status, _) = untraced_client
            .post("/predict", &body)
            .expect("warm predict");
        assert_eq!(status, 200);
        let mut next = 0usize;
        let (traced, untraced) = min_ns_pair(
            || {
                lam_obs::set_enabled(true);
                let header = &headers[next % HEADER_POOL];
                next += 1;
                traced_client
                    .send_traced("POST", "/predict", &body, Some(header))
                    .expect("send");
                let (status, _) = traced_client.recv().expect("recv");
                assert_eq!(status, 200);
            },
            || {
                lam_obs::set_enabled(false);
                let (status, _) = untraced_client.post("/predict", &body).expect("predict");
                assert_eq!(status, 200);
            },
        );
        lam_obs::set_enabled(true);
        let traced_row = traced / batch as f64;
        let untraced_row = untraced / batch as f64;
        let overhead_pct = 100.0 * (traced_row - untraced_row) / untraced_row;
        println!(
            "  {batch:>6} | {traced_row:>9.1} ns {untraced_row:>11.1} ns {overhead_pct:>8.2}%"
        );
        cells.push(OverheadCell {
            batch,
            traced_ns_per_row: traced_row,
            untraced_ns_per_row: untraced_row,
            overhead_pct,
        });
    }
    server.stop();

    let (spans_recorded, spans_sampled_out, _) = lam_obs::recorder::global().stats();
    let budget_pct = 3.0;
    let within_budget = cells
        .iter()
        .find(|c| c.batch == 256)
        .is_some_and(|c| c.overhead_pct < budget_pct);
    println!(
        "\nspans recorded: {spans_recorded}, sampled out: {spans_sampled_out} (1 in {} kept)",
        lam_obs::recorder::global().sample_every()
    );
    println!(
        "batch-256 overhead within {budget_pct}% budget: {}",
        if within_budget { "yes" } else { "NO" }
    );

    let report = TraceReport {
        workload: workload.to_string(),
        kind: kind.to_string(),
        cells,
        sample_every: lam_obs::recorder::global().sample_every(),
        spans_recorded,
        spans_sampled_out,
        budget_pct,
        within_budget,
    };
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("results dir");
    let path = dir.join("BENCH_trace.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");
    println!("wrote {}", path.display());
    if !within_budget {
        std::process::exit(1);
    }
}
