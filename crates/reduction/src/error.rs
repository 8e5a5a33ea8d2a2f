//! Error types for `emd-reduction`.

use std::fmt;

/// Errors reported by `emd-reduction`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReductionError {
    /// An assignment entry points at a reduced dimension that does not
    /// exist.
    AssignmentOutOfRange {
        /// The original dimension with the bad assignment.
        original: usize,
        /// The out-of-range target it was assigned to.
        target: usize,
        /// The declared reduced dimensionality.
        reduced_dim: usize,
    },
    /// A reduced dimension has no original dimensions assigned — violates
    /// restriction (8) of Definition 3.
    EmptyReducedDimension(usize),
    /// The reduction would be trivial or impossible (e.g. `d' = 0` or
    /// `d' > d`).
    InvalidTargetDimension {
        /// Original dimensionality `d`.
        original_dim: usize,
        /// Requested reduced dimensionality `d'`.
        reduced_dim: usize,
    },
    /// An input's dimensionality does not match the reduction.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Actual dimensionality.
        got: usize,
    },
    /// A sample for the flow-based reduction is too small to produce any
    /// histogram pair.
    SampleTooSmall(usize),
    /// Error propagated from `emd-core`.
    Core(emd_core::CoreError),
}

impl fmt::Display for ReductionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionError::AssignmentOutOfRange {
                original,
                target,
                reduced_dim,
            } => write!(
                f,
                "original dimension {original} assigned to {target}, \
                 but only {reduced_dim} reduced dimensions exist"
            ),
            ReductionError::EmptyReducedDimension(i) => {
                write!(
                    f,
                    "reduced dimension {i} has no assigned original dimensions"
                )
            }
            ReductionError::InvalidTargetDimension {
                original_dim,
                reduced_dim,
            } => write!(
                f,
                "cannot reduce {original_dim} dimensions to {reduced_dim}"
            ),
            ReductionError::DimensionMismatch { expected, got } => {
                write!(f, "expected dimensionality {expected}, got {got}")
            }
            ReductionError::SampleTooSmall(n) => {
                write!(f, "flow sample needs at least 2 histograms, got {n}")
            }
            ReductionError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReductionError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emd_core::CoreError> for ReductionError {
    fn from(e: emd_core::CoreError) -> Self {
        ReductionError::Core(e)
    }
}
