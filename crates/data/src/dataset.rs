//! The bundled corpus type shared by every generator: histograms,
//! labels, ground-distance matrix and optional bin positions.

use emd_core::{CostMatrix, Histogram};
use emd_json::{write_array, write_number, Value};
use std::fmt::Write as _;

/// A bundled retrieval corpus: feature histograms, their class labels, the
/// ground-distance cost matrix and (when the feature space has an explicit
/// geometry) the bin positions.
///
/// Every generator in this crate returns a `Dataset`; the query engine and
/// the experiment harness consume them uniformly.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name, e.g. `"tiling-12x8"`.
    pub name: String,
    /// Feature histograms, all of one dimensionality.
    pub histograms: Vec<Histogram>,
    /// Class label of each histogram (same length as `histograms`).
    pub labels: Vec<u32>,
    /// Ground distance between bins.
    pub cost: CostMatrix,
    /// Bin positions in feature space, when meaningful (enables the
    /// centroid lower bound).
    pub positions: Option<Vec<Vec<f64>>>,
}

/// The first internal inconsistency found by [`Dataset::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// `histograms` and `labels` have different lengths.
    LabelCountMismatch {
        /// Number of histograms in the corpus.
        histograms: usize,
        /// Number of labels in the corpus.
        labels: usize,
    },
    /// The ground-distance matrix is not square.
    CostNotSquare,
    /// A histogram's dimensionality disagrees with the cost matrix.
    DimMismatch {
        /// Index of the offending histogram.
        index: usize,
        /// Its dimensionality.
        found: usize,
        /// The corpus dimensionality implied by the cost matrix.
        expected: usize,
    },
    /// `positions` is present but does not have one entry per bin.
    PositionCountMismatch {
        /// Number of positions supplied.
        positions: usize,
        /// Number of bins in the corpus.
        bins: usize,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::LabelCountMismatch { histograms, labels } => {
                write!(f, "{histograms} histograms but {labels} labels")
            }
            ValidateError::CostNotSquare => write!(f, "cost matrix must be square"),
            ValidateError::DimMismatch {
                index,
                found,
                expected,
            } => {
                write!(
                    f,
                    "histogram {index} has dimensionality {found} != {expected}"
                )
            }
            ValidateError::PositionCountMismatch { positions, bins } => {
                write!(f, "{positions} positions for {bins} bins")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Dataset {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.cost.rows()
    }

    /// Check internal consistency; generators uphold this by construction,
    /// decoded corpora are checked by [`Dataset::from_json`].
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found as a [`ValidateError`]:
    /// a shape mismatch, a non-square cost matrix, or a position/bin
    /// count disagreement.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.histograms.len() != self.labels.len() {
            return Err(ValidateError::LabelCountMismatch {
                histograms: self.histograms.len(),
                labels: self.labels.len(),
            });
        }
        if !self.cost.is_square() {
            return Err(ValidateError::CostNotSquare);
        }
        let dim = self.cost.rows();
        if let Some(bad) = self.histograms.iter().position(|h| h.dim() != dim) {
            return Err(ValidateError::DimMismatch {
                index: bad,
                found: self.histograms[bad].dim(),
                expected: dim,
            });
        }
        if let Some(positions) = &self.positions {
            if positions.len() != dim {
                return Err(ValidateError::PositionCountMismatch {
                    positions: positions.len(),
                    bins: dim,
                });
            }
        }
        Ok(())
    }

    /// Append the JSON form: an object with `name`, `histograms`,
    /// `labels`, `cost` and `positions` (`null` when absent), compact.
    pub fn to_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        emd_json::write_escaped(out, &self.name);
        out.push_str(",\"histograms\":");
        write_array(out, &self.histograms, |out, h| h.to_json(out));
        out.push_str(",\"labels\":");
        write_array(out, &self.labels, |out, label| {
            let _ = write!(out, "{label}");
        });
        out.push_str(",\"cost\":");
        self.cost.to_json(out);
        out.push_str(",\"positions\":");
        match &self.positions {
            Some(positions) => write_array(out, positions, |out, point| {
                write_array(out, point, |out, &x| write_number(out, x));
            }),
            None => out.push_str("null"),
        }
        out.push('}');
    }

    /// Decode the JSON form: histograms and cost matrix through their own
    /// validating decoders, then the whole corpus through
    /// [`Dataset::validate`]. `positions` may be `null` or absent.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is missing or of the wrong shape
    /// (a label must be an integer in `0..=u32::MAX`), a histogram or the
    /// cost matrix is invalid, or the corpus is inconsistent.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("dataset lacks `{name}`"))
        };
        let name = field("name")?
            .as_str()
            .ok_or("dataset `name` must be a string")?;
        let histograms = field("histograms")?
            .as_array()
            .ok_or("dataset `histograms` must be an array")?
            .iter()
            .map(Histogram::from_json)
            .collect::<Result<_, _>>()?;
        let label = |item: &Value| u32::try_from(item.as_u64()?).ok();
        let labels = field("labels")?
            .as_array()
            .and_then(|items| items.iter().map(label).collect())
            .ok_or("dataset `labels` must be an array of 32-bit non-negative integers")?;
        let point = |item: &Value| item.as_array()?.iter().map(Value::as_f64).collect();
        let positions = match value.get("positions") {
            None | Some(Value::Null) => None,
            Some(points) => Some(
                points
                    .as_array()
                    .and_then(|items| items.iter().map(point).collect())
                    .ok_or("dataset `positions` must be an array of number arrays")?,
            ),
        };
        let dataset = Dataset {
            name: name.to_owned(),
            histograms,
            labels,
            cost: CostMatrix::from_json(field("cost")?)?,
            positions,
        };
        dataset.validate().map_err(|e| e.to_string())?;
        Ok(dataset)
    }

    /// Split off the last `count` objects as a disjoint query set. Used by
    /// workload builders so queries are drawn from the same distribution
    /// but are not database members.
    pub fn split_queries(mut self, count: usize) -> (Dataset, Vec<Histogram>) {
        let count = count.min(self.histograms.len());
        let keep = self.histograms.len() - count;
        let queries = self.histograms.split_off(keep);
        self.labels.truncate(keep);
        (self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            histograms: vec![
                Histogram::new(vec![0.5, 0.5, 0.0]).unwrap(),
                Histogram::new(vec![0.0, 0.5, 0.5]).unwrap(),
                Histogram::new(vec![1.0, 0.0, 0.0]).unwrap(),
            ],
            labels: vec![0, 1, 0],
            cost: ground::linear(3).unwrap(),
            positions: Some(ground::linear_positions(3)),
        }
    }

    #[test]
    fn validate_accepts_consistent() {
        assert!(tiny().validate().is_ok());
        assert_eq!(tiny().len(), 3);
        assert_eq!(tiny().dim(), 3);
    }

    #[test]
    fn validate_rejects_mismatches() {
        let mut bad = tiny();
        bad.labels.pop();
        assert!(bad.validate().is_err());

        let mut bad = tiny();
        bad.histograms[0] = Histogram::new(vec![0.5, 0.5]).unwrap();
        assert!(bad.validate().is_err());

        let mut bad = tiny();
        bad.positions = Some(vec![vec![0.0]]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn split_queries_is_disjoint() {
        let (database, queries) = tiny().split_queries(1);
        assert_eq!(database.len(), 2);
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].bins(), &[1.0, 0.0, 0.0]);
        assert_eq!(database.labels.len(), 2);
    }

    #[test]
    fn split_queries_caps_at_len() {
        let (database, queries) = tiny().split_queries(10);
        assert_eq!(database.len(), 0);
        assert_eq!(queries.len(), 3);
    }
}
