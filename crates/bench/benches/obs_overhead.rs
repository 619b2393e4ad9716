//! Instrumentation overhead on the table-hit predict hot path: the same
//! batched predict of grid rows, with metric recording enabled vs disabled
//! (`lam_obs::set_enabled`). The disabled side is the uninstrumented
//! baseline — every call site reduces to one relaxed atomic load — so
//! the pair bounds what the counters/histograms/span timers cost.
//!
//! Budget: the instrumented batch-256 path must stay within 2% of the
//! baseline (tracked by `results/BENCH_obs.json`, emitted by the `obs`
//! bin; this Criterion twin is the statistically rigorous check).
//!
//! Run: `cargo bench -p lam-bench --bench obs_overhead`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;

const BATCHES: [usize; 3] = [1, 64, 256];

fn bench_obs_overhead(c: &mut Criterion) {
    let root = std::env::temp_dir().join("lam_obs_bench_models");
    let registry = ModelRegistry::new(root);
    let workload = WorkloadId::get("fmm-small").expect("builtin workload");
    let model = registry
        .get(ModelKey::new(workload, ModelKind::Hybrid, 1))
        .expect("train or load");

    let mut group = c.benchmark_group("obs_overhead_cached_predict");
    for batch in BATCHES {
        let rows = workload.sample_rows(batch);
        group.throughput(Throughput::Elements(batch as u64));
        lam_obs::set_enabled(true);
        group.bench_with_input(BenchmarkId::new("instrumented", batch), &rows, |b, rows| {
            b.iter(|| model.predict(rows).predictions.len())
        });
        lam_obs::set_enabled(false);
        group.bench_with_input(
            BenchmarkId::new("uninstrumented", batch),
            &rows,
            |b, rows| b.iter(|| model.predict(rows).predictions.len()),
        );
        lam_obs::set_enabled(true);
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs_overhead
}
criterion_main!(benches);
