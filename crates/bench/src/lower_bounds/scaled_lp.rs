//! A nearly-free scaled-L1 lower bound on the EMD.

use emd_core::{CoreError, CostMatrix, Histogram};

/// A nearly-free L1-based lower bound.
///
/// For equal-mass histograms, the amount of mass that must leave its bin is
/// exactly `L1(x, y) / 2`, and under a zero-diagonal cost matrix every such
/// unit costs at least the smallest off-diagonal ground cost `c_min`:
///
/// ```text
/// EMD(x, y) >= c_min / 2 * L1(x, y)
/// ```
///
/// The bound is loose on spread-out cost matrices but costs only `O(d)`
/// per pair, making it useful as the very first stage of a filter chain.
#[derive(Debug, Clone)]
pub struct ScaledL1 {
    dim: usize,
    /// The per-unit-of-L1 scaling factor `c_min / 2`.
    factor: f64,
}

impl ScaledL1 {
    /// Derive the scaling factor from a square cost matrix. If the
    /// diagonal is not identically zero, staying in place may already cost
    /// something and the L1 argument breaks down; the factor then degrades
    /// to zero (a valid, if useless, bound) rather than returning an error.
    pub fn new(cost: &CostMatrix) -> Self {
        debug_assert!(cost.is_square());
        // float: exact — the shortcut is only sound for an exactly zero diagonal
        let diagonal_zero = (0..cost.rows()).all(|i| cost.at(i, i) == 0.0);
        let factor = if diagonal_zero {
            min_off_diagonal(cost).unwrap_or(0.0) / 2.0
        } else {
            0.0
        };
        ScaledL1 {
            dim: cost.rows(),
            factor,
        }
    }

    /// Evaluate the bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when the operand shapes disagree
    /// with the bound's dimensionality.
    pub fn bound(&self, x: &Histogram, y: &Histogram) -> Result<f64, CoreError> {
        if x.dim() != self.dim || y.dim() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected_rows: self.dim,
                expected_cols: self.dim,
                got_rows: x.dim(),
                got_cols: y.dim(),
            });
        }
        Ok(self.factor * l1_distance(x, y))
    }
}

/// Smallest off-diagonal entry of a square matrix; `None` for a 1x1
/// matrix.
fn min_off_diagonal(cost: &CostMatrix) -> Option<f64> {
    debug_assert!(cost.is_square());
    let mut min = f64::INFINITY;
    for i in 0..cost.rows() {
        for j in 0..cost.cols() {
            if i != j {
                min = min.min(cost.at(i, j));
            }
        }
    }
    min.is_finite().then_some(min)
}

/// Manhattan (L1) distance between two histograms of equal
/// dimensionality.
fn l1_distance(x: &Histogram, y: &Histogram) -> f64 {
    debug_assert_eq!(x.dim(), y.dim());
    x.bins()
        .iter()
        .zip(y.bins())
        .map(|(a, b)| (a - b).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::{emd, ground};

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn min_off_diagonal_skips_diagonal() {
        let c = CostMatrix::new(2, 2, vec![0.0, 3.0, 5.0, 0.0]).unwrap();
        assert_eq!(min_off_diagonal(&c), Some(3.0));
        let tiny = CostMatrix::new(1, 1, vec![0.0]).unwrap();
        assert_eq!(min_off_diagonal(&tiny), None);
    }

    #[test]
    fn l1_distance_matches_manual() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        assert!((l1_distance(&x, &y) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_emd_on_figure_one() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let c = ground::linear(6).unwrap();
        let bound = ScaledL1::new(&c);
        let lb = bound.bound(&x, &y).unwrap();
        let exact = emd(&x, &y, &c).unwrap();
        assert!(lb <= exact + 1e-12);
        // c_min = 1, L1 = 2.0 => bound = 1.0, which here equals the EMD.
        assert!((lb - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_diagonal_degrades_to_zero() {
        let c = CostMatrix::new(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        let bound = ScaledL1::new(&c);
        assert_eq!(bound.factor, 0.0);
        let x = h(&[1.0, 0.0]);
        let y = h(&[0.0, 1.0]);
        assert_eq!(bound.bound(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn single_bin_matrix() {
        let c = CostMatrix::new(1, 1, vec![0.0]).unwrap();
        let bound = ScaledL1::new(&c);
        assert_eq!(bound.factor, 0.0);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let bound = ScaledL1::new(&ground::linear(3).unwrap());
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.4, 0.3, 0.3]);
        assert!(matches!(
            bound.bound(&x, &y).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }
}
