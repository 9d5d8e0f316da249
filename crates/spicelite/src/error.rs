//! Error types shared by the simulation substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the `spicelite` simulation substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// A linear system could not be solved because the matrix is singular.
    SingularMatrix {
        /// Index of the pivot where factorisation broke down.
        pivot: usize,
    },
    /// A matrix or vector did not have the expected dimension.
    DimensionMismatch {
        /// The expected dimension.
        expected: usize,
        /// The dimension actually supplied.
        got: usize,
    },
    /// A Cholesky factorisation was requested for a matrix that is not
    /// symmetric positive definite.
    NotPositiveDefinite {
        /// The row at which the factorisation failed.
        row: usize,
    },
    /// A bias-point search did not converge: the target drain current of
    /// [`crate::mosfet::vgs_for_currents`] lies beyond its gate-voltage range.
    DcNoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// A circuit element was constructed with a non-physical value
    /// (e.g. a negative resistance where it is not allowed).
    InvalidElement {
        /// Human-readable reason.
        reason: String,
    },
    /// The AC analysis could not extract the requested figure of merit
    /// (e.g. no unity-gain crossing within the swept frequency range).
    AcExtraction {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::SingularMatrix { pivot } => {
                write!(f, "singular matrix at pivot {pivot}")
            }
            SpiceError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SpiceError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite at row {row}")
            }
            SpiceError::DcNoConvergence { iterations, residual } => write!(
                f,
                "dc operating point did not converge after {iterations} iterations (residual {residual:e})"
            ),
            SpiceError::InvalidElement { reason } => write!(f, "invalid element: {reason}"),
            SpiceError::AcExtraction { reason } => write!(f, "ac extraction failed: {reason}"),
        }
    }
}

impl Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(SpiceError, &str)> = vec![
            (SpiceError::SingularMatrix { pivot: 3 }, "pivot 3"),
            (
                SpiceError::DimensionMismatch {
                    expected: 2,
                    got: 5,
                },
                "expected 2",
            ),
            (SpiceError::NotPositiveDefinite { row: 1 }, "row 1"),
            (
                SpiceError::DcNoConvergence {
                    iterations: 50,
                    residual: 1e-3,
                },
                "50 iterations",
            ),
            (
                SpiceError::InvalidElement {
                    reason: "negative capacitance".into(),
                },
                "negative capacitance",
            ),
            (
                SpiceError::AcExtraction {
                    reason: "no unity-gain crossing".into(),
                },
                "unity-gain",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should contain {needle}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<SpiceError>();
    }
}
