//! Dataset (de)serialization.
//!
//! Corpora and workloads are stored as JSON so experiment runs are
//! reproducible and individual artifacts can be inspected by hand.

use crate::dataset::{Dataset, ValidateError};
use crate::workload::Workload;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// IO/parse error wrapper. Every variant names the file it failed on —
/// a bare "No such file or directory" from a pipeline that touches a
/// dataset, a workload and an index is useless without the path.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io {
        /// The file the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// JSON (de)serialization failure.
    Json {
        /// The file being (de)serialized.
        path: PathBuf,
        /// The underlying parse/serialize error.
        source: serde_json::Error,
    },
    /// The payload parsed but is internally inconsistent.
    Invalid(ValidateError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            IoError::Json { path, source } => {
                write!(f, "json error in {}: {source}", path.display())
            }
            IoError::Invalid(source) => write!(f, "invalid dataset: {source}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io { source, .. } => Some(source),
            IoError::Json { source, .. } => Some(source),
            IoError::Invalid(source) => Some(source),
        }
    }
}

impl IoError {
    fn io(path: &Path, source: io::Error) -> Self {
        IoError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    fn json(path: &Path, source: serde_json::Error) -> Self {
        IoError::Json {
            path: path.to_path_buf(),
            source,
        }
    }
}

/// Save a dataset as JSON.
///
/// # Errors
///
/// Returns [`IoError`] when serialization fails or the file cannot be
/// written.
pub fn save(dataset: &Dataset, path: &Path) -> Result<(), IoError> {
    let bytes = serde_json::to_vec(dataset).map_err(|e| IoError::json(path, e))?;
    fs::write(path, bytes).map_err(|e| IoError::io(path, e))
}

/// Load and validate a dataset from JSON.
///
/// # Errors
///
/// Returns [`IoError`] when the file cannot be read, is not valid JSON, or
/// fails [`Dataset::validate`].
pub fn load(path: &Path) -> Result<Dataset, IoError> {
    let bytes = fs::read(path).map_err(|e| IoError::io(path, e))?;
    let dataset: Dataset = serde_json::from_slice(&bytes).map_err(|e| IoError::json(path, e))?;
    dataset.validate().map_err(IoError::Invalid)?;
    Ok(dataset)
}

/// Save a workload as JSON.
///
/// # Errors
///
/// Returns [`IoError`] when serialization fails or the file cannot be
/// written.
pub fn save_workload(workload: &Workload, path: &Path) -> Result<(), IoError> {
    let bytes = serde_json::to_vec(workload).map_err(|e| IoError::json(path, e))?;
    fs::write(path, bytes).map_err(|e| IoError::io(path, e))
}

/// Load a workload from JSON.
///
/// # Errors
///
/// Returns [`IoError`] when the file cannot be read or is not valid JSON.
pub fn load_workload(path: &Path) -> Result<Workload, IoError> {
    let bytes = fs::read(path).map_err(|e| IoError::io(path, e))?;
    serde_json::from_slice(&bytes).map_err(|e| IoError::json(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{self, GaussianParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// This process's scratch directory; every test uses its own file in it.
    fn test_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flexemd-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dataset_roundtrip() {
        let params = GaussianParams {
            dim: 8,
            num_classes: 2,
            per_class: 3,
            ..GaussianParams::default()
        };
        let dataset = gaussian::generate(&params, &mut StdRng::seed_from_u64(0));
        let dir = test_dir();
        let path = dir.join("dataset.json");
        save(&dataset, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(dataset.histograms, loaded.histograms);
        assert_eq!(dataset.labels, loaded.labels);
        assert_eq!(dataset.cost, loaded.cost);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage_and_names_the_file() {
        let dir = test_dir();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, IoError::Json { .. }));
        assert!(err.to_string().contains("garbage.json"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_names_the_path() {
        let path = test_dir().join("nope.json");
        let err = load(&path).unwrap_err();
        assert!(matches!(err, IoError::Io { .. }));
        assert!(err.to_string().contains("nope.json"), "{err}");
    }

    #[test]
    fn error_source_is_exposed() {
        use std::error::Error;
        let path = test_dir().join("nope.json");
        let err = load(&path).unwrap_err();
        assert!(err.source().is_some());
    }
}
