//! Inference fast-path report: arena-compiled vs interpreted per-row
//! latency (batch 1 / 64 / 256, every tree-backed family), written to
//! `results/BENCH_infer.json` with the core count it was measured on.
//!
//! The Criterion twin (`cargo bench -p lam-bench --bench infer`) gives
//! statistically rigorous numbers; this binary is the quick, CI-friendly
//! record: one adaptive wall-clock measurement per cell, a printed table,
//! and a JSON artifact checked into the repo so the README can cite
//! exact figures.
//!
//! Run: `cargo run --release -p lam-bench --bin infer`

use lam_serve::persist::ModelKind;
use lam_serve::registry::{train, ModelKey};
use lam_serve::workload::WorkloadId;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

const BATCHES: [usize; 3] = [1, 64, 256];
const TREE_KINDS: [ModelKind; 4] = [
    ModelKind::Cart,
    ModelKind::RandomForest,
    ModelKind::ExtraTrees,
    ModelKind::Boosting,
];

/// One (kind, batch) cell: ns/row through each evaluation path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BatchCell {
    kind: String,
    batch: usize,
    interpreted_ns_per_row: f64,
    compiled_ns_per_row: f64,
    speedup: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct InferReport {
    workload: String,
    cores: usize,
    cells: Vec<BatchCell>,
}

/// Wall-clock a closure: warm up, then run enough iterations to fill a
/// ~40ms window and return mean ns per call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_nanos().max(1);
    let iters = (40_000_000 / per_iter).clamp(1, 1_000_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let workload = WorkloadId::get("fmm-small").expect("builtin workload");
    let mut cells = Vec::new();

    println!("inference: arena-compiled vs interpreted ({workload})\n");
    println!(
        "  {:>14} {:>6} | {:>16} {:>14} {:>8}",
        "kind", "batch", "interpreted/row", "compiled/row", "speedup"
    );
    println!("  {}", "-".repeat(66));
    for kind in TREE_KINDS {
        let saved = train(ModelKey::new(workload, kind, 1)).expect("training succeeds");
        let interpreted = saved.clone().into_interpreted_predictor();
        let compiled = saved.into_predictor().expect("compiles");
        for batch in BATCHES {
            let rows = workload.sample_rows(batch);
            let a = time_ns(|| {
                std::hint::black_box(interpreted.predict_rows(std::hint::black_box(&rows)));
            }) / batch as f64;
            let b = time_ns(|| {
                std::hint::black_box(compiled.predict_rows(std::hint::black_box(&rows)));
            }) / batch as f64;
            let speedup = a / b;
            println!(
                "  {:>14} {:>6} | {:>13.1} ns {:>11.1} ns {:>7.1}x",
                kind.name(),
                batch,
                a,
                b,
                speedup
            );
            cells.push(BatchCell {
                kind: kind.name().to_string(),
                batch,
                interpreted_ns_per_row: a,
                compiled_ns_per_row: b,
                speedup,
            });
        }
    }

    let report = InferReport {
        workload: workload.to_string(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cells,
    };
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("results dir");
    let path = dir.join("BENCH_infer.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());
}
