//! The index manifest: a small JSON document tying segments into a
//! named index.
//!
//! An index directory looks like
//!
//! ```text
//! <dir>/index.json          the manifest (this module)
//! <dir>/database.seg        histogram arena + original cost matrix
//! <dir>/reduction-0.seg     R1, R2, C', precomputed reduced arena
//! <dir>/reduction-1.seg     ... one segment per reduction ...
//! ```
//!
//! The manifest records the `flexemd-store/v1` schema tag, the index
//! name, and the relative segment file names. Segment file names are
//! required to be plain file names (no path separators) so a corrupted
//! or malicious manifest cannot point the reader outside its directory.

use std::path::Path;

use crate::error::StoreError;
use emd_json as json;

/// Schema tag identifying the on-disk format family and major revision.
pub const SCHEMA: &str = "flexemd-store/v1";

/// Manifest file name inside an index directory.
pub const MANIFEST_FILE: &str = "index.json";

/// One reduction entry in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestReduction {
    /// Reduction name (e.g. `kmed:6`), also the stage-name seed.
    pub name: String,
    /// Segment file name, relative to the index directory.
    pub segment: String,
}

/// The parsed index manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Index name (defaults to the dataset name at build time).
    pub name: String,
    /// Database segment file name, relative to the index directory.
    pub database: String,
    /// Reduction entries, in pipeline order.
    pub reductions: Vec<ManifestReduction>,
}

impl Manifest {
    /// Render the manifest as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        json::write_escaped(&mut out, SCHEMA);
        out.push_str(",\n  \"name\": ");
        json::write_escaped(&mut out, &self.name);
        out.push_str(",\n  \"database\": ");
        json::write_escaped(&mut out, &self.database);
        out.push_str(",\n  \"reductions\": [");
        for (index, reduction) in self.reductions.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_escaped(&mut out, &reduction.name);
            out.push_str(", \"segment\": ");
            json::write_escaped(&mut out, &reduction.segment);
            out.push('}');
        }
        if self.reductions.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parse and validate a manifest document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Manifest`] when `text` is not valid JSON,
    /// the schema tag is missing or foreign, a required field is absent
    /// or mistyped, or a segment file name contains a path separator.
    pub fn parse(path: &Path, text: &str) -> Result<Self, StoreError> {
        let fail = |reason: String| StoreError::Manifest {
            path: path.to_path_buf(),
            reason,
        };
        let value = json::parse(text).map_err(fail)?;
        let object = value
            .as_object()
            .ok_or_else(|| fail("top-level value is not an object".into()))?;
        let field = |key: &str| -> Result<&str, StoreError> {
            object
                .get(key)
                .and_then(json::Value::as_str)
                .ok_or_else(|| fail(format!("missing or non-string field `{key}`")))
        };
        let schema = field("schema")?;
        if schema != SCHEMA {
            return Err(fail(format!(
                "schema is `{schema}`, this build reads `{SCHEMA}`"
            )));
        }
        let name = field("name")?.to_owned();
        let database = field("database")?.to_owned();
        check_file_name(path, "database", &database)?;
        let reduction_values = object
            .get("reductions")
            .and_then(json::Value::as_array)
            .ok_or_else(|| fail("missing or non-array field `reductions`".into()))?;
        let mut reductions = Vec::with_capacity(reduction_values.len());
        for (index, entry) in reduction_values.iter().enumerate() {
            let entry = entry
                .as_object()
                .ok_or_else(|| fail(format!("reductions[{index}] is not an object")))?;
            let get = |key: &str| -> Result<String, StoreError> {
                entry
                    .get(key)
                    .and_then(json::Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| {
                        fail(format!("reductions[{index}] lacks a string field `{key}`"))
                    })
            };
            let reduction = ManifestReduction {
                name: get("name")?,
                segment: get("segment")?,
            };
            check_file_name(
                path,
                &format!("reductions[{index}].segment"),
                &reduction.segment,
            )?;
            reductions.push(reduction);
        }
        Ok(Manifest {
            name,
            database,
            reductions,
        })
    }
}

/// Reject segment references that are not plain file names.
fn check_file_name(path: &Path, field: &str, value: &str) -> Result<(), StoreError> {
    if value.is_empty() || value.contains('/') || value.contains('\\') || value == ".." {
        return Err(StoreError::Manifest {
            path: path.to_path_buf(),
            reason: format!("field `{field}` must be a plain file name, got `{value}`"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn path() -> PathBuf {
        PathBuf::from("/idx/index.json")
    }

    fn sample() -> Manifest {
        Manifest {
            name: "demo".into(),
            database: "database.seg".into(),
            reductions: vec![
                ManifestReduction {
                    name: "kmed:6".into(),
                    segment: "reduction-0.seg".into(),
                },
                ManifestReduction {
                    name: "fb-all:12".into(),
                    segment: "reduction-1.seg".into(),
                },
            ],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let manifest = sample();
        let back = Manifest::parse(&path(), &manifest.render()).unwrap();
        assert_eq!(back, manifest);

        let empty = Manifest {
            reductions: Vec::new(),
            ..sample()
        };
        assert_eq!(Manifest::parse(&path(), &empty.render()).unwrap(), empty);
    }

    #[test]
    fn rejects_foreign_schema() {
        let text = sample()
            .render()
            .replace("flexemd-store/v1", "flexemd-store/v9");
        assert!(matches!(
            Manifest::parse(&path(), &text),
            Err(StoreError::Manifest { .. })
        ));
    }

    #[test]
    fn rejects_path_traversal() {
        let text = sample().render().replace("database.seg", "../escape.seg");
        let err = Manifest::parse(&path(), &text).unwrap_err();
        assert!(err.to_string().contains("plain file name"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_json() {
        assert!(Manifest::parse(&path(), "{}").is_err());
        assert!(Manifest::parse(&path(), "not json").is_err());
        assert!(Manifest::parse(&path(), "[1, 2]").is_err());
        let text = sample().render().replace("\"reductions\"", "\"reducts\"");
        assert!(Manifest::parse(&path(), &text).is_err());
    }
}
