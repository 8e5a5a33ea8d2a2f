//! Typed failure modes of the persistent index store.
//!
//! The contract of this crate is that **corruption never surfaces as a
//! wrong query answer**: every way an on-disk artifact can be damaged —
//! truncation, bit flips, version skew, a checkpoint naming a missing
//! segment, payloads that decode but violate the engine's invariants —
//! maps to a distinct [`StoreError`] variant raised on the open path.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors reported by `emd-store`.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the offending path.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The file does not start with the segment magic — not a store file.
    BadMagic {
        /// The file that was opened.
        path: PathBuf,
    },
    /// The segment's format version is not one this build can read.
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
    /// A section's payload does not match its stored CRC32 checksum.
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
    /// A section header carries a kind tag this build does not know.
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

impl StoreError {
    /// Wrap an [`io::Error`] with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }

    /// Helper: the [`io::Error`] standing in for a fault-injected read —
    /// deliberately indistinguishable in type from a real filesystem
    /// failure, so the injection harness exercises the exact production
    /// error path.
    pub(crate) fn injected_read_fault() -> io::Error {
        io::Error::other("injected read fault")
    }

    /// Helper: the [`io::Error`] standing in for a fault injected at a
    /// WAL append or sync point; same contract as
    /// [`StoreError::injected_read_fault`].
    pub(crate) fn injected_wal_fault() -> io::Error {
        io::Error::other("injected wal fault")
    }

    /// An invariant violation inside `section` of `path`.
    pub fn invalid(
        path: impl Into<PathBuf>,
        section: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        StoreError::Invalid {
            path: path.into(),
            section: section.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{} is not a flexemd store segment", path.display())
            }
            StoreError::VersionSkew { path, major, minor } => write!(
                f,
                "{} has segment format v{major}.{minor}; this build reads v{}.x up to minor v{}",
                path.display(),
                crate::segment::VERSION_MAJOR,
                crate::segment::VERSION_MINOR,
            ),
            StoreError::Truncated {
                path,
                what,
                expected,
                got,
            } => write!(
                f,
                "{} is truncated reading {what}: need {expected} bytes, {got} available",
                path.display()
            ),
            StoreError::ChecksumMismatch {
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
            StoreError::UnknownSection { path, kind } => {
                write!(f, "unknown section kind {kind} in {}", path.display())
            }
            StoreError::MissingSection { path, section } => {
                write!(f, "{} lacks required section `{section}`", path.display())
            }
            StoreError::Invalid {
                path,
                section,
                reason,
            } => write!(
                f,
                "invalid section `{section}` in {}: {reason}",
                path.display()
            ),
            StoreError::Checkpoint { path, reason } => {
                write!(f, "bad index checkpoint {}: {reason}", path.display())
            }
            StoreError::Locked { path } => write!(
                f,
                "index directory is locked by another running process (lock file {})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path_and_context() {
        let e = StoreError::ChecksumMismatch {
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
        let e = StoreError::io("/nope", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/nope"));
    }
}
