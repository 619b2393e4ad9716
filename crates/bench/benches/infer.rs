//! Arena-compiled vs interpreted tree inference, and artifact loading.
//!
//! The compiled arena ([`lam_ml::compile`]) serves the same predictions
//! bit for bit; these benchmarks quantify what the layout change buys:
//! per-row latency at batch sizes 1 / 64 / 256 for every tree-backed
//! model family, and registry cold-start (artifact load) time.
//!
//! Run: `cargo bench -p lam-bench --bench infer`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lam_serve::persist::{ModelKind, SavedModel};
use lam_serve::registry::{train, ModelKey};
use lam_serve::workload::WorkloadId;

const TREE_KINDS: [ModelKind; 4] = [
    ModelKind::Cart,
    ModelKind::RandomForest,
    ModelKind::ExtraTrees,
    ModelKind::Boosting,
];

fn wid() -> WorkloadId {
    WorkloadId::get("fmm-small").expect("builtin workload")
}

fn bench_infer(c: &mut Criterion) {
    for batch in [1usize, 64, 256] {
        let mut group = c.benchmark_group(format!("infer_batch_{batch}"));
        group.throughput(Throughput::Elements(batch as u64));
        let rows = wid().sample_rows(batch);
        for kind in TREE_KINDS {
            let saved = train(ModelKey::new(wid(), kind, 1)).expect("training succeeds");
            let interpreted = saved.clone().into_interpreted_predictor();
            let compiled = saved.into_predictor().expect("compiles");
            group.bench_with_input(BenchmarkId::new("interpreted", kind), &rows, |b, rows| {
                b.iter(|| interpreted.predict_rows(rows))
            });
            group.bench_with_input(BenchmarkId::new("compiled", kind), &rows, |b, rows| {
                b.iter(|| compiled.predict_rows(rows))
            });
        }
        group.finish();
    }

    // Cold start: decode an extra-trees artifact (the biggest and the
    // paper's best pure-ML model).
    let mut load = c.benchmark_group("artifact_load");
    let dir = std::env::temp_dir().join("lam_bench_infer_load");
    let saved = train(ModelKey::new(wid(), ModelKind::ExtraTrees, 1)).expect("training succeeds");
    let path = saved.save(&dir).expect("save");
    load.bench_function("binary", |b| {
        b.iter(|| SavedModel::load(&path).expect("loads"))
    });
    load.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_infer
}
criterion_main!(benches);
