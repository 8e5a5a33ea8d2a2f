//! Error types for `emd-core`: the public [`CoreError`] and the
//! solver's own [`TransportError`], which [`crate::context`] maps onto it.

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

/// Errors reported by the transportation solver.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TransportError {
    /// A supply or demand entry is negative.
    NegativeMass {
        /// Which side of the tableau the bad entry is on.
        side: Side,
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Total supply and total demand differ by more than the balance
    /// tolerance.
    Unbalanced {
        /// Sum of the supply vector.
        total_supply: f64,
        /// Sum of the demand vector.
        total_demand: f64,
    },
    /// The supply or demand vector is empty.
    EmptySide(Side),
    /// Cost matrix dimensions do not match the supply/demand vectors.
    CostShape {
        /// Expected number of rows (sources).
        expected_rows: usize,
        /// Expected number of columns (targets).
        expected_cols: usize,
        /// Actual buffer length.
        len: usize,
    },
    /// A cost entry is NaN or infinite.
    NonFiniteCost {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
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

/// Which side of the tableau an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The supply (source/row) side.
    Supply,
    /// The demand (target/column) side.
    Demand,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Supply => write!(f, "supply"),
            Side::Demand => write!(f, "demand"),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NegativeMass { side, index, value } => {
                write!(f, "negative {side} mass at index {index}: {value}")
            }
            TransportError::Unbalanced {
                total_supply,
                total_demand,
            } => write!(
                f,
                "unbalanced problem: total supply {total_supply} != total demand {total_demand}"
            ),
            TransportError::EmptySide(side) => write!(f, "empty {side} vector"),
            TransportError::CostShape {
                expected_rows,
                expected_cols,
                len,
            } => write!(
                f,
                "cost matrix has {len} entries, expected {expected_rows} x {expected_cols}"
            ),
            TransportError::NonFiniteCost { row, col } => {
                write!(f, "non-finite cost at ({row}, {col})")
            }
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
