//! Ground-distance constructors for common multimedia feature spaces.
//!
//! The EMD's cost matrix encodes the geometry of the feature space. This
//! module builds cost matrices for the geometries used in the paper's
//! application domains: 1-D chains (e.g. brightness histograms), 2-D image
//! tilings (the RETINA-style grid features of \[14\]) and 3-D color cubes
//! (quantized RGB/HSV histograms), plus arbitrary point sets.

use crate::cost::CostMatrix;
use crate::error::CoreError;

/// The metric applied to bin positions in feature space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Manhattan distance (L1).
    Manhattan,
    /// Euclidean distance (L2).
    Euclidean,
    /// Chebyshev distance (L-infinity).
    Chebyshev,
}

impl Metric {
    /// Distance between two points of equal dimensionality.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Metric::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }
}

/// Cost matrix for a 1-D chain of `dim` bins: `c_ij = |i - j|`.
/// This is the ground distance of the paper's Figure 1.
///
/// # Errors
///
/// Returns [`CoreError::CostShape`] when `dim` is zero.
pub fn linear(dim: usize) -> Result<CostMatrix, CoreError> {
    CostMatrix::from_fn(dim, |i, j| (i as f64 - j as f64).abs())
}

/// Cost matrix for a `width x height` image tiling, bins in row-major
/// order, with the chosen metric on tile centers. This is the geometry of
/// the grid-based features the paper generalizes in Section 3.1.
///
/// # Errors
///
/// Returns [`CoreError::CostShape`] when either side of the grid is zero.
pub fn grid2(width: usize, height: usize, metric: Metric) -> Result<CostMatrix, CoreError> {
    from_points(&grid2_positions(width, height), metric)
}

/// Cost matrix for a quantized 3-D feature cube (e.g. an `r x g x b` color
/// histogram), bins in `r`-major order, with the chosen metric on cell
/// centers.
///
/// # Errors
///
/// Returns [`CoreError::CostShape`] when any cube side is zero.
pub fn grid3(nx: usize, ny: usize, nz: usize, metric: Metric) -> Result<CostMatrix, CoreError> {
    from_points(&grid3_positions(nx, ny, nz), metric)
}

/// Cost matrix from explicit bin positions in an arbitrary feature space.
///
/// # Errors
///
/// Returns [`CoreError::CostShape`] when `points` is empty and
/// [`CoreError::PointDimension`] when a point has another number of
/// coordinates than the first.
pub fn from_points(points: &[Vec<f64>], metric: Metric) -> Result<CostMatrix, CoreError> {
    let first = points.first().map_or(0, Vec::len);
    let mut lengths = points.iter().map(Vec::len).enumerate();
    if let Some((index, len)) = lengths.find(|&(_, len)| len != first) {
        return Err(CoreError::PointDimension { index, len, first });
    }
    CostMatrix::from_fn(points.len(), |i, j| metric.distance(&points[i], &points[j]))
}

/// Saturate a ground distance at threshold `tau`:
/// `c'_ij = min(c_ij, tau)`. Rubner's classic robustification; saturation
/// preserves the metric axioms and keeps far-apart bins from dominating the
/// distance.
///
/// # Errors
///
/// Returns [`CoreError::InvalidCost`] when `tau` is negative or non-finite.
pub fn saturated(cost: &CostMatrix, tau: f64) -> Result<CostMatrix, CoreError> {
    CostMatrix::new(
        cost.rows(),
        cost.cols(),
        cost.entries().iter().map(|&c| c.min(tau)).collect(),
    )
}

/// Bin positions for [`grid2`], exposed for filters that need feature-space
/// coordinates (e.g. the centroid lower bound).
pub fn grid2_positions(width: usize, height: usize) -> Vec<Vec<f64>> {
    (0..width * height)
        .map(|k| vec![(k % width) as f64, (k / width) as f64])
        .collect()
}

/// Bin positions for [`grid3`], `r`-major order.
pub fn grid3_positions(nx: usize, ny: usize, nz: usize) -> Vec<Vec<f64>> {
    (0..nx * ny * nz)
        .map(|k| {
            vec![
                (k / (ny * nz)) as f64,
                ((k / nz) % ny) as f64,
                (k % nz) as f64,
            ]
        })
        .collect()
}

/// Bin positions for [`linear`].
pub fn linear_positions(dim: usize) -> Vec<Vec<f64>> {
    (0..dim).map(|i| vec![i as f64]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_of_another_dimensionality_are_refused() {
        // A release build once zipped the pair to its shorter point and
        // answered `[0, 3, 3, 0]` here.
        let points = [vec![0.0], vec![3.0, 4.0]];
        assert_eq!(
            from_points(&points, Metric::Euclidean).unwrap_err(),
            CoreError::PointDimension {
                index: 1,
                len: 2,
                first: 1
            }
        );
        let error = from_points(&[vec![0.0, 0.0], vec![1.0]], Metric::Manhattan).unwrap_err();
        assert_eq!(error.to_string(), "point 1 has 1 coordinates, the first 2");
    }

    #[test]
    fn linear_matches_figure_one() {
        let c = linear(6).unwrap();
        assert_eq!(c.at(0, 0), 0.0);
        assert_eq!(c.at(2, 0), 2.0);
        assert_eq!(c.at(4, 0), 4.0);
        // Every entry is exactly `|i - j|`: a metric with no slack at all.
        assert!((0..36).all(|k| c.at(k / 6, k % 6) == (k / 6).abs_diff(k % 6) as f64));
    }

    #[test]
    fn grid2_neighbors_at_distance_one() {
        let c = grid2(4, 3, Metric::Euclidean).unwrap();
        assert_eq!(c.rows(), 12);
        // Horizontally adjacent tiles 0 and 1.
        assert!((c.at(0, 1) - 1.0).abs() < 1e-12);
        // Vertically adjacent tiles 0 and 4.
        assert!((c.at(0, 4) - 1.0).abs() < 1e-12);
        // Diagonal tiles 0 and 5.
        assert!((c.at(0, 5) - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(c.is_metric());
    }

    #[test]
    fn grid2_positions_agree_with_grid2() {
        let positions = grid2_positions(4, 3);
        let c = grid2(4, 3, Metric::Euclidean).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                let expected = Metric::Euclidean.distance(&positions[i], &positions[j]);
                assert!((c.at(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn grid3_corner_distances() {
        let c = grid3(2, 2, 2, Metric::Manhattan).unwrap();
        assert_eq!(c.rows(), 8);
        // Opposite corners of the unit cube under L1: 3.
        assert!((c.at(0, 7) - 3.0).abs() < 1e-12);
        assert!(c.is_metric());
    }

    #[test]
    fn grid3_positions_agree_with_grid3() {
        let positions = grid3_positions(2, 3, 2);
        let c = grid3(2, 3, 2, Metric::Euclidean).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                let expected = Metric::Euclidean.distance(&positions[i], &positions[j]);
                assert!((c.at(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn from_points_arbitrary_space() {
        let points = vec![vec![0.0, 0.0], vec![3.0, 4.0]];
        let c = from_points(&points, Metric::Euclidean).unwrap();
        assert!((c.at(0, 1) - 5.0).abs() < 1e-12);
        assert!(from_points(&[], Metric::Euclidean).is_err());
    }

    #[test]
    fn saturation_caps_and_stays_metric() {
        let c = linear(8).unwrap();
        let s = saturated(&c, 2.5).unwrap();
        assert_eq!(s.at(0, 7), 2.5);
        assert_eq!(s.at(0, 1), 1.0);
        // Every entry is exactly `min(|i - j|, 2.5)`: a metric with no
        // slack at all.
        let capped = |i: usize, j: usize| (i.abs_diff(j) as f64).min(2.5);
        assert!((0..64).all(|k| s.at(k / 8, k % 8) == capped(k / 8, k % 8)));
        assert!(s.dominated_by(&c));
    }

    #[test]
    fn chebyshev_metric() {
        assert_eq!(Metric::Chebyshev.distance(&[0.0, 0.0], &[2.0, 5.0]), 5.0);
        assert_eq!(Metric::Manhattan.distance(&[0.0, 0.0], &[2.0, 5.0]), 7.0);
    }
}
