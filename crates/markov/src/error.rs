use std::error::Error;
use std::fmt;

use dpm_linalg::LinalgError;

/// Errors produced while constructing or analyzing Markov chains.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// A transition-matrix row does not sum to one (within tolerance).
    RowNotStochastic {
        /// Index of the offending row.
        row: usize,
        /// The actual row sum.
        sum: f64,
    },
    /// A probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// A sparse row repeats a column or lists its columns out of order.
    UnsortedRow {
        /// Index of the offending row.
        row: usize,
    },
    /// A transition matrix is not square.
    NotSquare {
        /// The shape that was supplied.
        shape: (usize, usize),
    },
    /// Two chains/matrices that must agree in dimension do not.
    DimensionMismatch {
        /// What the caller supplied.
        found: usize,
        /// What the operation required.
        expected: usize,
    },
    /// A controlled chain was built with no actions.
    NoActions,
    /// A decision distribution over actions was invalid.
    InvalidDecision {
        /// Why the decision was rejected.
        reason: String,
    },
    /// The stationary distribution is not unique or could not be computed
    /// (reducible or periodic chain, or numerical failure).
    StationaryFailure {
        /// Underlying description.
        reason: String,
    },
    /// A state index was out of range.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of states.
        num_states: usize,
    },
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::RowNotStochastic { row, sum } => {
                write!(f, "row {row} sums to {sum}, expected 1")
            }
            MarkovError::InvalidProbability { row, col, value } => {
                write!(f, "entry ({row}, {col}) = {value} is not a probability")
            }
            MarkovError::UnsortedRow { row } => {
                write!(
                    f,
                    "row {row} repeats a column or lists its columns out of order"
                )
            }
            MarkovError::NotSquare { shape } => {
                write!(
                    f,
                    "transition matrix is {}x{}, expected square",
                    shape.0, shape.1
                )
            }
            MarkovError::DimensionMismatch { found, expected } => {
                write!(f, "dimension mismatch: found {found}, expected {expected}")
            }
            MarkovError::NoActions => write!(f, "controlled chain needs at least one action"),
            MarkovError::InvalidDecision { reason } => write!(f, "invalid decision: {reason}"),
            MarkovError::StationaryFailure { reason } => {
                write!(f, "stationary distribution failure: {reason}")
            }
            MarkovError::StateOutOfRange { index, num_states } => {
                write!(
                    f,
                    "state {index} out of range (chain has {num_states} states)"
                )
            }
        }
    }
}

impl Error for MarkovError {}

impl From<LinalgError> for MarkovError {
    fn from(e: LinalgError) -> Self {
        MarkovError::StationaryFailure {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_row_and_sum() {
        let e = MarkovError::RowNotStochastic { row: 2, sum: 0.9 };
        assert!(e.to_string().contains("row 2"));
        assert!(e.to_string().contains("0.9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MarkovError>();
    }
}
