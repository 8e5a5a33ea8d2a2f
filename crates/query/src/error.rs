//! Error types for `emd-query`.

use std::fmt;

/// Errors reported by `emd-query`.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Error from the EMD core (dimension mismatch, solver failure, ...).
    Core(emd_core::CoreError),
    /// Error from the reduction layer.
    Reduction(String),
    /// The database is empty but a query was issued.
    EmptyDatabase,
    /// `k = 0` requested.
    ZeroK,
    /// A range query with a negative or non-finite epsilon.
    InvalidEpsilon(f64),
    /// An object id outside the indexed database was evaluated.
    UnknownObject(usize),
    /// The execution budget (deadline, pivot cap, or cancellation) fired
    /// mid-query. The executor converts this into a degraded
    /// [`QueryOutcome`](crate::QueryOutcome) wherever partial results
    /// exist; it only surfaces as an error from unbudgeted entry points.
    BudgetExhausted(emd_core::BudgetReason),
    /// The query panicked inside
    /// [`Executor::run_isolated`](crate::Executor::run_isolated). Only
    /// that query receives this error; the executor keeps answering.
    WorkerPanicked {
        /// The caller-chosen ordinal the query ran under.
        worker: usize,
        /// Panic payload rendered to text (best effort).
        detail: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Core(e) => write!(f, "core error: {e}"),
            QueryError::Reduction(msg) => write!(f, "reduction error: {msg}"),
            QueryError::EmptyDatabase => write!(f, "query against an empty database"),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
            QueryError::InvalidEpsilon(epsilon) => {
                write!(
                    f,
                    "range epsilon must be finite and non-negative, got {epsilon}"
                )
            }
            QueryError::UnknownObject(id) => {
                write!(f, "object id {id} is outside the indexed database")
            }
            QueryError::BudgetExhausted(reason) => {
                write!(f, "execution budget exhausted: {reason}")
            }
            QueryError::WorkerPanicked { worker, detail } => {
                write!(f, "worker {worker} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emd_core::CoreError> for QueryError {
    fn from(e: emd_core::CoreError) -> Self {
        match e {
            // Keep budget exhaustion typed all the way up: the degradation
            // logic must distinguish it from genuine solver failures.
            emd_core::CoreError::BudgetExhausted(reason) => QueryError::BudgetExhausted(reason),
            other => QueryError::Core(other),
        }
    }
}

impl From<emd_reduction::ReductionError> for QueryError {
    fn from(e: emd_reduction::ReductionError) -> Self {
        match e {
            emd_reduction::ReductionError::Core(emd_core::CoreError::BudgetExhausted(reason)) => {
                QueryError::BudgetExhausted(reason)
            }
            other => QueryError::Reduction(other.to_string()),
        }
    }
}
