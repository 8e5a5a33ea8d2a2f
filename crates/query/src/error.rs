//! Error types for `emd-query`: [`QueryError`] for the engine, and
//! [`DurableError`] for an index directory — the engine's errors plus
//! every way the files on disk can fail.

use std::fmt;
use std::io;
use std::path::PathBuf;

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

/// Failures of an index directory: every way its files can be missing or
/// damaged, each its own variant, plus the engine's [`QueryError`].
///
/// Corruption never surfaces as a wrong query answer: truncation, bit
/// flips, version skew, a checkpoint naming a missing segment, payloads
/// that decode but violate the engine's invariants — each maps to a
/// distinct variant raised on the open path.
#[derive(Debug)]
pub enum DurableError {
    /// The engine rejected data (shape mismatch, reduction failure, …).
    Query(QueryError),
    /// Filesystem failure, with the offending path.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The file does not start with the segment magic — not an index file.
    BadMagic {
        /// The file that was opened.
        path: PathBuf,
    },
    /// The file's format version is not one this build can read.
    VersionSkew {
        /// The file that was opened.
        path: PathBuf,
        /// Major version found in the header.
        major: u16,
        /// Minor version found in the header.
        minor: u16,
    },
    /// The file ended before a section's declared payload (or a header
    /// field) could be read in full.
    Truncated {
        /// The file that was opened.
        path: PathBuf,
        /// What was being read when the bytes ran out.
        what: String,
        /// Bytes the format required at this point.
        expected: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// A section's payload (or a WAL record) does not match its stored
    /// CRC32 checksum.
    ChecksumMismatch {
        /// The file that was opened.
        path: PathBuf,
        /// Name of the damaged section.
        section: String,
        /// Checksum recorded in the section header.
        expected: u32,
        /// Checksum computed over the payload as read.
        got: u32,
    },
    /// A section header (or WAL record) carries a kind tag this build
    /// does not know.
    UnknownSection {
        /// The file that was opened.
        path: PathBuf,
        /// The unrecognized kind tag.
        kind: u32,
    },
    /// A required section is absent from the segment.
    MissingSection {
        /// The file that was opened.
        path: PathBuf,
        /// Name of the expected section.
        section: String,
    },
    /// A section decoded structurally but its payload violates an
    /// engine invariant (mass normalization, cost-matrix shape,
    /// reduction well-formedness, shape agreement across sections).
    Invalid {
        /// The file that was opened.
        path: PathBuf,
        /// Name of the offending section.
        section: String,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// The directory's checkpoint (`CURRENT`) is missing its canonical
    /// `flexemd-durable/v1 <epoch>` line, or the directory holds an index
    /// of a format this build no longer reads.
    Checkpoint {
        /// The checkpoint (or retired manifest) file.
        path: PathBuf,
        /// What went wrong while reading it.
        reason: String,
    },
    /// Another live process holds the advisory lock on the index
    /// directory. The lock dies with its owner, so this never reports a
    /// stale lock left by a crash — only a genuinely concurrent owner.
    Locked {
        /// The lock file that could not be acquired.
        path: PathBuf,
    },
}

impl DurableError {
    /// Wrap an [`io::Error`] with the path it occurred on.
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        DurableError::Io {
            path: path.into(),
            source,
        }
    }

    /// The error of a fault injected at `what` (`"read"`, `"wal"`,
    /// `"compaction"`) on `path`: an [`DurableError::Io`], deliberately
    /// indistinguishable in type from a real filesystem failure, so the
    /// injection harness exercises the exact production error path.
    pub(crate) fn injected(path: impl Into<PathBuf>, what: &str) -> Self {
        Self::io(path, io::Error::other(format!("injected {what} fault")))
    }

    /// An invariant violation inside `section` of `path`.
    pub(crate) fn invalid(
        path: impl Into<PathBuf>,
        section: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        DurableError::Invalid {
            path: path.into(),
            section: section.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Query(e) => write!(f, "query error: {e}"),
            DurableError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            DurableError::BadMagic { path } => {
                write!(f, "{} is not a flexemd store segment", path.display())
            }
            DurableError::VersionSkew { path, major, minor } => write!(
                f,
                "{} has segment format v{major}.{minor}; this build reads v{}.x up to minor v{}",
                path.display(),
                crate::durable::VERSION_MAJOR,
                crate::durable::VERSION_MINOR,
            ),
            DurableError::Truncated {
                path,
                what,
                expected,
                got,
            } => write!(
                f,
                "{} is truncated reading {what}: need {expected} bytes, {got} available",
                path.display()
            ),
            DurableError::ChecksumMismatch {
                path,
                section,
                expected,
                got,
            } => write!(
                f,
                "checksum mismatch in section `{section}` of {}: header says {expected:#010x}, \
                 payload hashes to {got:#010x}",
                path.display()
            ),
            DurableError::UnknownSection { path, kind } => {
                write!(f, "unknown section kind {kind} in {}", path.display())
            }
            DurableError::MissingSection { path, section } => {
                write!(f, "{} lacks required section `{section}`", path.display())
            }
            DurableError::Invalid {
                path,
                section,
                reason,
            } => write!(
                f,
                "invalid section `{section}` in {}: {reason}",
                path.display()
            ),
            DurableError::Checkpoint { path, reason } => {
                write!(f, "bad index checkpoint {}: {reason}", path.display())
            }
            DurableError::Locked { path } => write!(
                f,
                "index directory is locked by another running process (lock file {})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Query(e) => Some(e),
            DurableError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        DurableError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path_and_context() {
        let e = DurableError::ChecksumMismatch {
            path: PathBuf::from("/tmp/x.seg"),
            section: "cost".into(),
            expected: 0xdead_beef,
            got: 0x1234_5678,
        };
        let text = e.to_string();
        assert!(text.contains("/tmp/x.seg"));
        assert!(text.contains("cost"));
        assert!(text.contains("0xdeadbeef"));
    }

    #[test]
    fn io_variant_exposes_source() {
        use std::error::Error;
        let e = DurableError::io("/nope", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/nope"));
    }
}
