//! The space table behind every loaded model: each configuration of the
//! workload's space is predicted once at load, so a grid row is a hit on
//! its first request, bit-identical to the model's own answer; any other
//! row is computed every time and never stored; a lookup allocates
//! nothing per row; and the hash spreads every built-in space evenly.

use lam_core::batch::SpaceTable;
use lam_core::predict::PredictRow;
use lam_serve::persist::ModelKind;
use lam_serve::registry::{LoadedModel, ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the calling thread's heap allocations, so tests running in
/// parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps a thread-local
// integer, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir = std::env::temp_dir().join(format!("lam_serve_space_table_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    ModelRegistry::new(dir)
}

fn fmm_small() -> WorkloadId {
    WorkloadId::get("fmm-small").expect("builtin workload")
}

fn bits(ys: &[f64]) -> Vec<u64> {
    ys.iter().map(|y| y.to_bits()).collect()
}

/// Every row of `model`'s space is a hit on this, its first request, and
/// answers exactly what the model computes for it.
fn assert_grid_answers_from_the_table(model: &LoadedModel, rows: &[Vec<f64>]) {
    let out = model.predict(rows);
    assert_eq!(out.cache_hits, rows.len() as u64, "{}", model.key);
    let direct: Vec<f64> = rows.iter().map(|r| model.predict_row_uncached(r)).collect();
    assert_eq!(bits(&out.predictions), bits(&direct), "{}", model.key);
}

#[test]
fn every_grid_row_hits_on_its_first_request_bit_identically() {
    let registry = temp_registry("grid");
    for workload in WorkloadId::all() {
        let rows = workload.feature_rows();
        for kind in [ModelKind::Hybrid, ModelKind::Cart] {
            let model = registry
                .get(ModelKey::new(workload, kind, 1))
                .expect("trains");
            assert_grid_answers_from_the_table(&model, &rows);
        }
    }
    // A model loaded from disk (a restart) has its table too.
    let restarted = ModelRegistry::new(registry.root().to_path_buf());
    let model = restarted
        .get(ModelKey::new(fmm_small(), ModelKind::Hybrid, 1))
        .expect("loads");
    assert_grid_answers_from_the_table(&model, &fmm_small().feature_rows());
}

#[test]
fn an_off_grid_row_misses_every_time_and_is_never_stored() {
    let registry = temp_registry("off_grid");
    let model = registry
        .get(ModelKey::new(fmm_small(), ModelKind::Linear, 1))
        .expect("trains");
    let mut row = fmm_small().sample_rows(1).remove(0);
    row[1] += 0.25; // a fractional particle count: not a configuration
    let expected = model.predict_row_uncached(&row).to_bits();
    for send in 1..=2 {
        let out = model.predict(std::slice::from_ref(&row));
        assert_eq!(out.cache_hits, 0, "send {send} is a miss");
        assert_eq!(out.predictions[0].to_bits(), expected);
    }
    assert_eq!(
        model.engine().predict_if_cached(&[row]),
        None,
        "nothing was stored"
    );
}

#[test]
fn table_lookups_allocate_only_the_output_vector() {
    let registry = temp_registry("alloc");
    let model: Arc<LoadedModel> = registry
        .get(ModelKey::new(fmm_small(), ModelKind::Linear, 1))
        .expect("trains");
    let rows = fmm_small().feature_rows();
    // Answers every row through the engine once before counting.
    model.predict(&rows);
    for n in [1, 16, 64, rows.len()] {
        let (out, allocations) =
            allocations_during(|| model.engine().predict_if_cached(&rows[..n]));
        assert_eq!(out.map(|o| o.cache_hits), Some(n as u64));
        assert_eq!(allocations, 1, "{n} rows: only the output vector");
    }
}

/// A stand-in model: probe lengths depend on the keys alone.
struct Zero;
impl PredictRow for Zero {
    fn predict_row(&self, _: &[f64]) -> f64 {
        0.0
    }
}

#[test]
fn every_builtin_space_probes_at_most_two_slots_on_average() {
    for workload in WorkloadId::all() {
        let rows = workload.feature_rows();
        let table = SpaceTable::build(&Zero, &rows);
        assert!(!table.is_empty(), "{workload}");
        let mean = table.mean_probe_length();
        eprintln!(
            "{workload}: {} rows, mean probe length {mean:.3}",
            table.len()
        );
        assert!(mean <= 2.0, "{workload}: mean probe length {mean:.3}");
    }
}
