//! Rubner's centroid lower bound: distance between weighted centroids
//! under a norm-induced ground distance.

use emd_core::ground::Metric;
use emd_core::{CoreError, Histogram};

/// Rubner's centroid lower bound (reference \[17\] of the paper).
///
/// When the ground distance is induced by a norm on bin positions
/// (`c_ij = ||p_i - p_j||`) and both histograms have equal total mass, the
/// EMD is bounded from below by the norm distance between the weighted
/// centroids:
///
/// ```text
/// EMD(x, y) >= || sum_i x_i p_i  -  sum_j y_j p_j ||
/// ```
///
/// This follows from the triangle inequality applied flow-wise. The bound
/// costs `O(d * dim)` per pair — far below the LP — but is only valid for
/// norm-induced ground distances; the caller is responsible for pairing it
/// with a matching cost matrix.
#[derive(Debug, Clone)]
pub struct CentroidBound {
    positions: Vec<Vec<f64>>,
    /// The norm the centroids are compared under.
    pub(super) metric: Metric,
    space_dim: usize,
}

impl CentroidBound {
    /// Build the bound from bin positions in feature space. All positions
    /// must share one dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyHistogram`] when `positions` is empty and
    /// [`CoreError::CostShape`] when the positions do not all share one
    /// dimensionality.
    pub fn new(positions: Vec<Vec<f64>>, metric: Metric) -> Result<Self, CoreError> {
        let Some(first) = positions.first() else {
            return Err(CoreError::EmptyHistogram);
        };
        let space_dim = first.len();
        if positions.iter().any(|p| p.len() != space_dim) {
            return Err(CoreError::CostShape {
                rows: positions.len(),
                cols: space_dim,
                len: positions.iter().map(Vec::len).sum(),
            });
        }
        Ok(CentroidBound {
            positions,
            metric,
            space_dim,
        })
    }

    /// The mass-weighted centroid of a histogram in feature space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when `h`'s dimensionality
    /// differs from the number of bin positions.
    pub fn centroid(&self, h: &Histogram) -> Result<Vec<f64>, CoreError> {
        if h.dim() != self.positions.len() {
            return Err(CoreError::DimensionMismatch {
                expected_rows: self.positions.len(),
                expected_cols: self.positions.len(),
                got_rows: h.dim(),
                got_cols: h.dim(),
            });
        }
        let mut centroid = vec![0.0; self.space_dim];
        for (position, &mass) in self.positions.iter().zip(h.bins()) {
            if mass > 0.0 {
                for (sum, coordinate) in centroid.iter_mut().zip(position) {
                    *sum += mass * coordinate;
                }
            }
        }
        Ok(centroid)
    }

    /// Evaluate the bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when either operand's
    /// dimensionality differs from the number of bin positions.
    pub fn bound(&self, x: &Histogram, y: &Histogram) -> Result<f64, CoreError> {
        Ok(self.metric.distance(&self.centroid(x)?, &self.centroid(y)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::{emd, ground};

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn lower_bounds_emd_on_linear_chain() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let c = ground::linear(6).unwrap();
        let bound = CentroidBound::new(ground::linear_positions(6), Metric::Manhattan).unwrap();
        let lb = bound.bound(&x, &y).unwrap();
        let exact = emd(&x, &y, &c).unwrap();
        assert!(lb <= exact + 1e-12);
        // On a pure shift, the centroid bound is tight: every unit moves
        // one step in the same direction.
        assert!((lb - exact).abs() < 1e-12);
    }

    #[test]
    fn tight_on_unit_histograms() {
        let bound = CentroidBound::new(ground::grid2_positions(3, 3), Metric::Euclidean).unwrap();
        let x = Histogram::unit(9, 0).unwrap();
        let y = Histogram::unit(9, 8).unwrap();
        // Corner (0,0) to corner (2,2): 2*sqrt(2).
        let lb = bound.bound(&x, &y).unwrap();
        assert!((lb - 8.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_for_identical() {
        let bound = CentroidBound::new(ground::linear_positions(4), Metric::Euclidean).unwrap();
        let x = h(&[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(bound.bound(&x, &x).unwrap(), 0.0);
    }

    #[test]
    fn can_be_zero_for_distinct_histograms() {
        // Symmetric redistributions share a centroid: the bound is 0 even
        // though the EMD is positive — it is a bound, not a distance.
        let bound = CentroidBound::new(ground::linear_positions(3), Metric::Euclidean).unwrap();
        let x = h(&[0.5, 0.0, 0.5]);
        let y = h(&[0.0, 1.0, 0.0]);
        assert_eq!(bound.bound(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn rejects_mixed_position_dims() {
        assert!(matches!(
            CentroidBound::new(vec![vec![0.0], vec![0.0, 1.0]], Metric::Euclidean).unwrap_err(),
            CoreError::CostShape { .. }
        ));
        assert!(matches!(
            CentroidBound::new(vec![], Metric::Euclidean).unwrap_err(),
            CoreError::EmptyHistogram
        ));
    }

    #[test]
    fn dimension_mismatch_reported() {
        let bound = CentroidBound::new(ground::linear_positions(3), Metric::Euclidean).unwrap();
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.5, 0.25, 0.25]);
        assert!(matches!(
            bound.bound(&x, &y).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }
}
