//! Property tests for model persistence: for every model kind, training
//! on a drawn key, saving, and loading back yields *bit-identical*
//! predictions over the **full** configuration space of both
//! applications — the stencil and FMM parameter spaces the paper
//! enumerates.
//!
//! The proptest strategy draws the model family and artifact version;
//! the scenario is exercised exhaustively (every row of the space), so a
//! pass means no float in any persisted tree threshold, leaf, forest
//! member, k-NN training row, or linear coefficient drifted through the
//! `.lamb` round trip. Each comparison also pits the arena-compiled
//! serving predictor against the interpreted reference assembly, so a
//! pass certifies the whole chain:
//! train → persist → load → compile ≡ train → interpret.

use lam_serve::persist::{ModelKind, SavedModel};
use lam_serve::registry::{train, ModelKey};
use lam_serve::workload::WorkloadId;
use proptest::prelude::*;

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

/// Train → save → load → compare over every row of the workload space.
fn assert_roundtrip_bit_identical(
    workload: WorkloadId,
    kind: ModelKind,
    version: u32,
) -> Result<(), TestCaseError> {
    let key = ModelKey::new(workload, kind, version);
    let trained = train(key).expect("training succeeds");
    let dir =
        std::env::temp_dir().join(format!("lam_serve_roundtrip_{workload}_{kind}_v{version}"));
    let path = trained.save(&dir).expect("save succeeds");
    let reloaded = SavedModel::load(&path).expect("load succeeds");

    // The interpreted assembly of the in-memory model is the reference;
    // the reload serves through the compiled fast path.
    let reference = trained.into_interpreted_predictor();
    let compiled = reloaded.into_predictor().expect("compiles");
    let data = workload.dataset();
    for i in 0..data.len() {
        let row = data.row(i);
        let a = reference.predict_row(row);
        let b = compiled.predict_row(row);
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{}: row {} diverged after reload: interpreted {} vs compiled {}",
            key,
            i,
            a,
            b
        );
    }
    Ok(())
}

/// Strategy over every servable model family.
fn any_kind() -> impl Strategy<Value = ModelKind> {
    (0..ModelKind::all().len()).prop_map(|i| ModelKind::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stencil_roundtrip_bit_identical(kind in any_kind(), version in 1u32..4) {
        assert_roundtrip_bit_identical(wid("stencil-grid"), kind, version)?;
    }

    #[test]
    fn fmm_roundtrip_bit_identical(kind in any_kind(), version in 1u32..4) {
        assert_roundtrip_bit_identical(wid("fmm-small"), kind, version)?;
    }

    #[test]
    fn spmv_roundtrip_bit_identical(kind in any_kind(), version in 1u32..4) {
        assert_roundtrip_bit_identical(wid("spmv-small"), kind, version)?;
    }
}

#[test]
fn every_kind_roundtrips_on_fmm() {
    // Deterministic exhaustive sweep alongside the drawn cases: every
    // family at version 1 on the quick FMM space.
    for kind in ModelKind::all() {
        assert_roundtrip_bit_identical(wid("fmm-small"), kind, 1).unwrap();
    }
}
