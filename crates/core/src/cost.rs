//! The ground-distance cost matrix `C = [c_ij]` of Definition 1,
//! including the rectangular case the reduced EMD needs.

use crate::error::CoreError;
use emd_json::Value;
use std::fmt::Write as _;

/// The ground-distance matrix `C = [c_ij]` of Definition 1.
///
/// `c_ij` is the cost of moving one unit of mass from bin `i` of the first
/// operand to bin `j` of the second. The matrix may be rectangular
/// (`rows != cols`), which the paper's reduced EMD needs when query and
/// database histograms are reduced to different dimensionalities
/// (`R1 != R2` in Definition 4).
///
/// Invariants: all entries finite and non-negative.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    entries: Box<[f64]>,
}

impl CostMatrix {
    /// Build a cost matrix from a row-major entry buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CostShape`] when `entries` is empty or not
    /// `rows * cols` long, [`CoreError::InvalidCost`] at a negative or non-finite cost.
    pub fn new(rows: usize, cols: usize, entries: Vec<f64>) -> Result<Self, CoreError> {
        if rows == 0 || cols == 0 || entries.len() != rows * cols {
            return Err(CoreError::CostShape {
                rows,
                cols,
                len: entries.len(),
            });
        }
        for (k, &value) in entries.iter().enumerate() {
            if value < 0.0 || !value.is_finite() {
                return Err(CoreError::InvalidCost {
                    row: k / cols,
                    col: k % cols,
                    value,
                });
            }
        }
        Ok(CostMatrix {
            rows,
            cols,
            entries: entries.into_boxed_slice(),
        })
    }

    /// Build a square cost matrix from a cost function over bin indices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CostShape`] when `dim` is zero and
    /// [`CoreError::InvalidCost`] at a negative or non-finite value.
    pub fn from_fn(dim: usize, cost: impl Fn(usize, usize) -> f64) -> Result<Self, CoreError> {
        let cost = &cost;
        let entries: Vec<f64> = (0..dim)
            .flat_map(|i| (0..dim).map(move |j| cost(i, j)))
            .collect();
        Self::new(dim, dim, entries)
    }

    /// Number of rows (first-operand dimensionality).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (second-operand dimensionality).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Cost entry `c_ij`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.entries[i * self.cols + j]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.entries[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major entries.
    #[inline]
    pub fn entries(&self) -> &[f64] {
        &self.entries
    }

    /// Transpose the matrix (swap operand roles).
    pub fn transposed(&self) -> CostMatrix {
        let mut entries = vec![0.0; self.entries.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                entries[j * self.rows + i] = self.at(i, j);
            }
        }
        CostMatrix {
            rows: self.cols,
            cols: self.rows,
            entries: entries.into_boxed_slice(),
        }
    }

    /// Entrywise comparison `self <= other` — the partial order of the
    /// paper's Theorem 2 (monotony of the EMD in the cost matrix).
    pub fn dominated_by(&self, other: &CostMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .entries
                .iter()
                .zip(other.entries.iter())
                .all(|(a, b)| a <= b)
    }

    /// Check the metric axioms on a square matrix: zero diagonal, symmetry
    /// and the triangle inequality, each within half of
    /// [`distance_slack`](crate::distance_slack) — the one tolerance that
    /// admits a cost. An entry off by `δ` moves no EMD by more than `δ`,
    /// so a cost admitted here leaves the other half of the slack to the
    /// LP; the one line kernel, behind [`PathMetric`](crate::PathMetric)
    /// and the anchor bound, tests its entries at the same half. `O(d^3)`
    /// — intended for construction-time validation and tests.
    #[must_use]
    pub fn is_metric(&self) -> bool {
        let (d, tol) = (self.rows, crate::distance_slack(self) / 2.0);
        // Symmetric at (i, j), and no path i → j → k shorter than i → k.
        let within = |i: usize, j: usize| {
            (self.at(i, j) - self.at(j, i)).abs() <= tol
                && (0..d).all(|k| self.at(i, k) <= self.at(i, j) + self.at(j, k) + tol)
        };
        let row = |i: usize| self.at(i, i).abs() <= tol && (0..d).all(|j| within(i, j));
        self.is_square() && (0..d).all(row)
    }
}

impl CostMatrix {
    /// Append the JSON form: `{"rows":…,"cols":…,"entries":[…]}` with the
    /// entries row-major.
    pub fn to_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"rows\":{},\"cols\":{},\"entries\":",
            self.rows, self.cols
        );
        emd_json::write_array(out, &self.entries, |out, &cost| {
            emd_json::write_number(out, cost);
        });
        out.push('}');
    }

    /// Decode the JSON form, re-validating through [`CostMatrix::new`].
    ///
    /// # Errors
    ///
    /// Returns a message when a field is missing or of the wrong shape,
    /// or the entries are not a valid `rows x cols` cost matrix.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let side = |field: &str| {
            value
                .get(field)
                .and_then(Value::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("cost matrix `{field}` must be a non-negative integer"))
        };
        let entries = value
            .get("entries")
            .and_then(Value::as_array)
            .and_then(|items| items.iter().map(Value::as_f64).collect())
            .ok_or("cost matrix `entries` must be an array of numbers")?;
        CostMatrix::new(side("rows")?, side("cols")?, entries).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_matches_manual_layout() {
        let c = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs()).unwrap();
        assert_eq!(c.at(0, 2), 2.0);
        assert_eq!(c.at(2, 0), 2.0);
        assert_eq!(c.row(1), &[1.0, 0.0, 1.0]);
        assert!(c.is_square());
    }

    #[test]
    fn rejects_negative_entries() {
        assert!(matches!(
            CostMatrix::new(2, 2, vec![0.0, 1.0, -1.0, 0.0]).unwrap_err(),
            CoreError::InvalidCost { row: 1, col: 0, .. }
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        assert!(matches!(
            CostMatrix::new(2, 2, vec![0.0; 3]).unwrap_err(),
            CoreError::CostShape { .. }
        ));
        assert!(matches!(
            CostMatrix::new(0, 2, vec![]).unwrap_err(),
            CoreError::CostShape { .. }
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let c = CostMatrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = c.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.at(2, 0), 3.0);
        assert_eq!(t.transposed(), c);
    }

    #[test]
    fn linear_chain_is_metric() {
        // A unit of 1/32 keeps every entry exact in binary.
        let c = CostMatrix::from_fn(5, |i, j| (i as f64 - j as f64).abs() / 32.0).unwrap();
        assert!(c.is_metric());
    }

    #[test]
    fn squared_distances_are_not_metric() {
        // Squared Euclidean violates the triangle inequality (units of
        // 1/32, as above).
        let c = CostMatrix::from_fn(3, |i, j| {
            let d = i as f64 - j as f64;
            d * d / 32.0
        })
        .unwrap();
        assert!(!c.is_metric());
    }

    #[test]
    fn dominance_is_entrywise() {
        let small = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs()).unwrap();
        let large = CostMatrix::from_fn(3, |i, j| 2.0 * (i as f64 - j as f64).abs()).unwrap();
        assert!(small.dominated_by(&large));
        assert!(!large.dominated_by(&small));
        assert!(small.dominated_by(&small));
    }

    #[test]
    fn json_roundtrip() {
        let c = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs()).unwrap();
        let mut json = String::new();
        c.to_json(&mut json);
        let back = CostMatrix::from_json(&emd_json::parse(&json).unwrap()).unwrap();
        assert_eq!(c, back);
    }

    /// The bytes are what the PR 18 build wrote for the same matrix, pasted:
    /// the format is pinned, and every entry reads back to the same bits.
    #[test]
    fn json_golden() {
        let literal = concat!(
            r#"{"rows":2,"cols":3,"entries":[0.0000001,1000000000000000,0.1,"#,
            r#"0.3333333333333333,0,2.5]}"#
        );
        let entries = vec![1e-7, 1e15, 0.1, 1.0 / 3.0, 0.0, 2.5];
        let c = CostMatrix::new(2, 3, entries.clone()).unwrap();
        let mut json = String::new();
        c.to_json(&mut json);
        assert_eq!(json, literal);
        let back = CostMatrix::from_json(&emd_json::parse(literal).unwrap()).unwrap();
        assert_eq!((back.rows(), back.cols()), (2, 3));
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.entries()), bits(&entries));
    }

    #[test]
    fn json_rejects_invalid() {
        for bad in [
            r#"{"rows":2,"cols":2,"entries":[0,1,1]}"#, // ragged
            r#"{"cols":2,"entries":[0,1]}"#,            // missing field
            r#"{"rows":1.5,"cols":2,"entries":[0,1,1]}"#,
            r#"{"rows":-1,"cols":2,"entries":[0,1]}"#,
            r#"{"rows":1,"cols":2,"entries":[0,-1]}"#,
            r#"{"rows":1,"cols":2,"entries":[0,"1"]}"#,
            r#"{"rows":1,"cols":2,"entries":{"0":0}}"#,
            "[0,1]",
        ] {
            let value = emd_json::parse(bad).unwrap();
            assert!(CostMatrix::from_json(&value).is_err(), "accepted {bad}");
        }
    }
}
