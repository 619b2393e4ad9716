//! Serving-side batched inference: request-row validation in front of the
//! shared micro-batch executor.
//!
//! The space table and executor themselves live in [`lam_core::batch`]
//! (they have a second consumer in `lam-tune`'s model-guided search).
//! This module holds the serving-specific piece: [`validate_rows`], the
//! input firewall that turns malformed client rows into typed
//! [`ServeError`]s before any model dispatch.

use crate::ServeError;

/// Validate request rows before any model dispatch: every row must carry
/// exactly `expected` features and every value must be finite.
///
/// This is the serving path's input firewall. A NaN or infinity that
/// slipped through would reach the model and panic the first non-total
/// comparison downstream (k-NN's distance `partial_cmp`, metric sorts),
/// failing the request with a 500 — so reject with a client error
/// instead.
pub fn validate_rows(expected: usize, rows: &[Vec<f64>]) -> Result<(), ServeError> {
    for (i, row) in rows.iter().enumerate() {
        if row.len() != expected {
            return Err(ServeError::FeatureCount {
                expected,
                actual: row.len(),
                row: i,
            });
        }
        if let Some(col) = row.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteFeature { row: i, col });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rows_rejects_bad_input() {
        use crate::ServeError;
        assert!(validate_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]).is_ok());
        assert!(validate_rows(0, &[]).is_ok());
        assert!(matches!(
            validate_rows(2, &[vec![1.0]]),
            Err(ServeError::FeatureCount {
                expected: 2,
                actual: 1,
                row: 0
            })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                validate_rows(2, &[vec![1.0, 2.0], vec![1.0, bad]]),
                Err(ServeError::NonFiniteFeature { row: 1, col: 1 })
            ));
        }
    }
}
