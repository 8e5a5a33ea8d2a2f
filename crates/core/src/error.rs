//! Error types for `emd-core`: the public [`CoreError`] and the
//! simplex's own [`TransportError`], which [`crate::context`] maps onto
//! it. Bad operands never reach the solver: [`crate::Histogram`] and
//! [`crate::CostMatrix`] reject them when they are built.

use crate::budget::BudgetReason;
use std::fmt;

/// Errors reported by `emd-core`.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A histogram entry is negative or non-finite.
    InvalidMass {
        /// Index of the offending bin.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The histogram is empty.
    EmptyHistogram,
    /// Total mass differs from 1 by more than [`crate::MASS_EPS`]
    /// and normalization was not requested.
    NotNormalized {
        /// The actual total mass.
        total: f64,
    },
    /// Total mass is zero (or negative), so the histogram cannot be
    /// normalized.
    ZeroMass,
    /// Operand dimensionalities do not match the cost matrix shape.
    DimensionMismatch {
        /// Rows of the cost matrix (first-operand dimensionality).
        expected_rows: usize,
        /// Columns of the cost matrix (second-operand dimensionality).
        expected_cols: usize,
        /// Dimensionality of the first operand.
        got_rows: usize,
        /// Dimensionality of the second operand.
        got_cols: usize,
    },
    /// A cost entry is negative or non-finite.
    InvalidCost {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// A square cost is required.
    NotSquare {
        /// Rows of the cost.
        rows: usize,
        /// Columns of the cost.
        cols: usize,
    },
    /// The cost is not a metric: entry `(row, col)` breaks a triangle.
    NotMetric {
        /// Row of the entry.
        row: usize,
        /// Column of the entry.
        col: usize,
    },
    /// A bin position has another number of coordinates than the first.
    PointDimension {
        /// Index of the offending point.
        index: usize,
        /// Its number of coordinates.
        len: usize,
        /// The first point's number of coordinates.
        first: usize,
    },
    /// Cost matrix buffer length does not factor into the declared shape.
    CostShape {
        /// Declared rows.
        rows: usize,
        /// Declared columns.
        cols: usize,
        /// Actual buffer length.
        len: usize,
    },
    /// The underlying LP solver failed (numerical pathology).
    Solver(String),
    /// The execution budget (deadline, pivot cap, or cancellation) was
    /// exhausted mid-computation. Kept typed (not folded into
    /// [`Solver`](Self::Solver)) so query layers can degrade gracefully.
    BudgetExhausted(BudgetReason),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidMass { index, value } => {
                write!(f, "invalid histogram mass at {index}: {value}")
            }
            CoreError::EmptyHistogram => write!(f, "histogram has no bins"),
            CoreError::NotNormalized { total } => {
                write!(f, "histogram total mass {total} != 1")
            }
            CoreError::ZeroMass => write!(f, "histogram has zero total mass"),
            CoreError::DimensionMismatch {
                expected_rows,
                expected_cols,
                got_rows,
                got_cols,
            } => write!(
                f,
                "dimension mismatch: cost is {expected_rows}x{expected_cols}, \
                 operands are {got_rows} and {got_cols}"
            ),
            CoreError::InvalidCost { row, col, value } => {
                write!(f, "invalid cost at ({row}, {col}): {value}")
            }
            CoreError::NotSquare { rows, cols } => {
                write!(f, "a square cost is required, not {rows}x{cols}")
            }
            CoreError::NotMetric { row, col } => write!(f, "not a metric at ({row}, {col})"),
            CoreError::PointDimension { index, len, first } => {
                write!(f, "point {index} has {len} coordinates, the first {first}")
            }
            CoreError::CostShape { rows, cols, len } => {
                write!(f, "cost buffer of {len} entries cannot be {rows}x{cols}")
            }
            CoreError::Solver(msg) => write!(f, "LP solver failure: {msg}"),
            CoreError::BudgetExhausted(reason) => {
                write!(f, "execution budget exhausted: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// What the simplex itself raises.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TransportError {
    /// The simplex failed to converge within its iteration budget.
    /// This indicates a numerical pathology and should never occur for
    /// well-scaled inputs.
    IterationLimit {
        /// The exhausted iteration budget.
        iterations: usize,
    },
    /// An internal solver invariant was violated. Indicates a bug in the
    /// solver (or memory corruption), never bad input; reported as an
    /// error instead of a panic so library callers stay panic-free.
    Internal {
        /// Description of the violated invariant.
        detail: &'static str,
    },
    /// The execution budget (deadline, pivot cap, or cancellation) was
    /// exhausted before the solve converged. Unlike
    /// [`IterationLimit`](Self::IterationLimit) this is not a pathology:
    /// callers use it to degrade gracefully to already-computed bounds.
    BudgetExhausted {
        /// Which limit stopped the solve.
        reason: BudgetReason,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::IterationLimit { iterations } => {
                write!(f, "simplex did not converge within {iterations} iterations")
            }
            TransportError::Internal { detail } => {
                write!(f, "internal solver invariant violated: {detail}")
            }
            TransportError::BudgetExhausted { reason } => {
                write!(f, "execution budget exhausted: {reason}")
            }
        }
    }
}

impl std::error::Error for TransportError {}
