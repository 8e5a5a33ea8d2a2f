//! The anchor lower bound from weak LP duality: any dual-feasible
//! potentials give `u . x + v . y <= EMD(x, y)`.

use crate::cost::CostMatrix;
use crate::error::CoreError;
use crate::histogram::Histogram;
use crate::line::Line;
use std::sync::Arc;

/// Anchor (dual-feasibility) lower bound for the EMD.
///
/// By weak LP duality, any potentials `(u, v)` with `u_i + v_j <= c_ij`
/// satisfy `u . x + v . y <= EMD_C(x, y)`. On a *metric* cost the
/// triangle inequality `|c_ia - c_ja| <= c_ij` makes `(c_.a, -c_.a)` and
/// its negation such potentials for every anchor bin `a`, so
///
/// ```text
/// EMD_C(x, y) >= max_a | sum_i x_i c_ia  -  sum_j y_j c_ja |
/// ```
///
/// After one projection per anchor per histogram, each evaluation is
/// `O(#anchors)` — the cheapest bound in this crate, the first stage of
/// a filter chain.
#[derive(Debug, Clone)]
pub struct AnchorBound {
    /// One line per anchor `a`: the bins at positions `c_ia`.
    lines: Vec<Line>,
}

impl AnchorBound {
    /// Build the bound with `count` anchors spread evenly over the bins;
    /// `count` is clamped to `1..=bins`, so a caller may ask for "as many
    /// anchors as some other dimensionality" without checking it.
    ///
    /// Each anchor column is a line of the crate's line kernel, admitted
    /// (`O(d^2)`) only when it lies under the cost within half of
    /// [`distance_slack`](crate::distance_slack) per entry: potentials
    /// that break a constraint by `δ` bound the EMD under a cost `δ`
    /// higher, so a non-metric cost is rejected and an admitted bound
    /// exceeds the EMD by at most that half.
    ///
    /// # Errors
    ///
    /// Fails only on a property of `cost`: [`CoreError::NotSquare`] when
    /// it is not square, [`CoreError::NotMetric`] naming the first entry
    /// whose dual constraint an anchor column breaks.
    pub fn with_spread_anchors(cost: &CostMatrix, count: usize) -> Result<Self, CoreError> {
        let (d, cols) = (cost.rows(), cost.cols());
        if d != cols {
            return Err(CoreError::NotSquare { rows: d, cols });
        }
        let count = count.clamp(1, d);
        let admit = |k: usize| {
            let line = Line::new((0..d).map(|i| cost.at(i, k * d / count)).collect());
            line.fit(cost).map(|_| line)
        };
        let lines = (0..count).map(admit).collect::<Result<_, _>>()?;
        Ok(AnchorBound { lines })
    }

    /// Number of anchors.
    pub fn num_anchors(&self) -> usize {
        self.lines.len()
    }

    /// Project a histogram onto every anchor: `out[a] = sum_i x_i c_ia`.
    /// Precompute this once per database object; the projection is a
    /// shared handle, as a [`Histogram`]'s bins are, made in one
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when `x` does not match the cost
    /// matrix the bound was built from.
    pub fn project(&self, x: &Histogram) -> Result<Arc<[f64]>, CoreError> {
        let dim = self.lines.first().map_or(0, Line::len);
        if x.dim() != dim {
            return Err(CoreError::DimensionMismatch {
                expected_rows: dim,
                expected_cols: dim,
                got_rows: x.dim(),
                got_cols: x.dim(),
            });
        }
        Ok(self.lines.iter().map(|line| line.mean(x)).collect())
    }

    /// Bound from two precomputed projections.
    #[inline]
    pub fn bound_from_projections(&self, px: &[f64], py: &[f64]) -> f64 {
        debug_assert_eq!(px.len(), self.lines.len());
        debug_assert_eq!(py.len(), self.lines.len());
        px.iter()
            .zip(py)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Evaluate the bound on raw histograms (projects both first).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when either operand's
    /// dimensionality differs from the bound's bin count.
    pub fn bound(&self, x: &Histogram, y: &Histogram) -> Result<f64, CoreError> {
        Ok(self.bound_from_projections(&self.project(x)?, &self.project(y)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::emd;
    use crate::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn lower_bounds_figure_one() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let c = ground::linear(6).unwrap();
        let bound = AnchorBound::with_spread_anchors(&c, 3).unwrap();
        let exact = emd(&x, &y, &c).unwrap();
        let lb = bound.bound(&x, &y).unwrap();
        assert!(lb <= exact + 1e-12);
        // On a 1-D chain the anchor-0 projection is the first moment:
        // the pure-shift pair has moment difference exactly 1.0 = EMD.
        assert!((lb - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_on_unit_histograms_with_anchor_at_target() {
        // Five anchors on five bins: bin 4 is one of them.
        let c = ground::linear(5).unwrap();
        let bound = AnchorBound::with_spread_anchors(&c, 5).unwrap();
        let x = Histogram::unit(5, 1).unwrap();
        let y = Histogram::unit(5, 4).unwrap();
        // |c(1,4) - c(4,4)| = 3 = exact EMD.
        assert!((bound.bound(&x, &y).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_metric_costs() {
        // Squared distances violate the triangle inequality.
        let c = CostMatrix::from_fn(4, |i, j| {
            let d = i as f64 - j as f64;
            d * d
        })
        .unwrap();
        assert!(AnchorBound::with_spread_anchors(&c, 2).is_err());
    }

    #[test]
    fn spread_anchor_count_is_clamped() {
        let c = ground::linear(4).unwrap();
        for (asked, got) in [(0, 1), (3, 3), (4, 4), (9, 4)] {
            let bound = AnchorBound::with_spread_anchors(&c, asked).unwrap();
            assert_eq!(bound.num_anchors(), got, "asked for {asked}");
        }
    }

    #[test]
    fn rejects_bad_anchors_and_shapes() {
        let rectangular = CostMatrix::new(2, 3, vec![0.0; 6]).unwrap();
        let err = AnchorBound::with_spread_anchors(&rectangular, 1).unwrap_err();
        assert_eq!(err, CoreError::NotSquare { rows: 2, cols: 3 });
        assert_eq!(err.to_string(), "a square cost is required, not 2x3");
        let squared = CostMatrix::from_fn(4, |i, j| (i as f64 - j as f64).powi(2)).unwrap();
        let err = AnchorBound::with_spread_anchors(&squared, 2).unwrap_err();
        assert_eq!(err, CoreError::NotMetric { row: 1, col: 2 });
        assert_eq!(err.to_string(), "not a metric at (1, 2)");
        let c = ground::linear(4).unwrap();
        let bound = AnchorBound::with_spread_anchors(&c, 1).unwrap();
        assert!(bound.project(&h(&[0.5, 0.5])).is_err());
    }

    #[test]
    fn more_anchors_never_loosen() {
        let c = ground::grid2(3, 3, ground::Metric::Manhattan).unwrap();
        let x = h(&[0.3, 0.0, 0.1, 0.0, 0.2, 0.0, 0.1, 0.0, 0.3]);
        let y = h(&[0.0, 0.2, 0.0, 0.3, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let few = AnchorBound::with_spread_anchors(&c, 1).unwrap();
        let many = AnchorBound::with_spread_anchors(&c, 9).unwrap();
        assert!(many.bound(&x, &y).unwrap() >= few.bound(&x, &y).unwrap() - 1e-12);
        let exact = emd(&x, &y, &c).unwrap();
        assert!(many.bound(&x, &y).unwrap() <= exact + 1e-12);
    }

    #[test]
    fn projections_reuse_matches_direct() {
        let c = ground::linear(6).unwrap();
        let bound = AnchorBound::with_spread_anchors(&c, 3).unwrap();
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let px = bound.project(&x).unwrap();
        let py = bound.project(&y).unwrap();
        let direct = bound.bound(&x, &y).unwrap();
        assert_eq!(bound.bound_from_projections(&px, &py), direct);
    }
}
