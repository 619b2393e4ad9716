//! Serving-path prediction latency per model kind: single-row and
//! 256-row batched, cold (table-bypassing model walk) vs. hit (grid rows,
//! answered from the model's space table through the engine).
//!
//! Run: `cargo bench -p lam-bench --bench serve_predict`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;

const BATCH: usize = 256;

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

fn bench_serve_predict(c: &mut Criterion) {
    let root = std::env::temp_dir().join("lam_serve_bench_models");
    let registry = ModelRegistry::new(root);
    let workload = wid("fmm-small");
    let rows = workload.sample_rows(BATCH);
    let row = rows[0].clone();

    let mut single = c.benchmark_group("serve_predict_single");
    for kind in ModelKind::all() {
        let model = registry
            .get(ModelKey::new(workload, kind, 1))
            .expect("train or load");
        single.bench_with_input(BenchmarkId::new("cold", kind), &row, |b, row| {
            b.iter(|| model.predict_row_uncached(row))
        });
        // A grid row: the hit path (table lookup + engine).
        let warm = vec![row.clone()];
        single.bench_with_input(BenchmarkId::new("hit", kind), &warm, |b, warm| {
            b.iter(|| model.predict(warm).predictions[0])
        });
    }
    single.finish();

    let mut batched = c.benchmark_group("serve_predict_batch");
    batched.throughput(Throughput::Elements(BATCH as u64));
    for kind in ModelKind::all() {
        let model = registry
            .get(ModelKey::new(workload, kind, 1))
            .expect("train or load");
        // Cold per element: walk the model for every row, no table.
        batched.bench_with_input(BenchmarkId::new("cold", kind), &rows, |b, rows| {
            b.iter(|| {
                rows.iter()
                    .map(|r| model.predict_row_uncached(r))
                    .sum::<f64>()
            })
        });
        batched.bench_with_input(BenchmarkId::new("hit", kind), &rows, |b, rows| {
            b.iter(|| model.predict(rows).predictions.len())
        });
    }
    batched.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve_predict
}
criterion_main!(benches);
