//! Dataset files.
//!
//! Corpora are stored as JSON so experiment runs are reproducible and
//! individual artifacts can be inspected by hand.

use crate::dataset::Dataset;
use emd_json::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// IO/parse error wrapper. Every variant names the file it failed on —
/// a bare "No such file or directory" from a pipeline that touches a
/// dataset, a reduction and an index is useless without the path.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io {
        /// The file the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The file is not JSON, or not the JSON of a valid dataset.
    Json {
        /// The file being decoded.
        path: PathBuf,
        /// What the parser or the decoder refused.
        source: String,
    },
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
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io { source, .. } => Some(source),
            IoError::Json { .. } => None,
        }
    }
}

fn io_error(path: &Path) -> impl FnOnce(io::Error) -> IoError + '_ {
    move |source| IoError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Read `path`, parse it and hand the value to `decode`.
fn read_file<T>(
    path: &Path,
    decode: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, IoError> {
    let text = fs::read_to_string(path).map_err(io_error(path))?;
    emd_json::parse(&text)
        .and_then(|value| decode(&value))
        .map_err(|source| IoError::Json {
            path: path.to_path_buf(),
            source,
        })
}

/// Save a dataset as JSON.
///
/// # Errors
///
/// Returns [`IoError::Io`] when the file cannot be written.
pub fn save(dataset: &Dataset, path: &Path) -> Result<(), IoError> {
    let mut text = String::new();
    dataset.to_json(&mut text);
    fs::write(path, text).map_err(io_error(path))
}

/// Load and validate a dataset from JSON.
///
/// # Errors
///
/// Returns [`IoError`] when the file cannot be read, is not valid JSON, or
/// is refused by [`Dataset::from_json`].
pub fn load(path: &Path) -> Result<Dataset, IoError> {
    read_file(path, Dataset::from_json)
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
