//! The line kernel: bins at positions `p_i` on a line, behind both
//! [`PathMetric`](crate::PathMetric) and the anchor bound. A line
//! *under* a cost (`|p_i − p_j| ≤ c_ij`) gives the dual-feasible
//! potentials `(p, −p)` of an anchor column; a line *on* it is a path,
//! whose EMD is the L1 distance between the cumulative distributions over
//! the bins sorted by position:
//!
//! ```text
//! EMD(x, y) = Σ_k (p_(k+1) − p_(k)) · |F_x(k) − F_y(k)|
//! ```

use crate::cost::CostMatrix;
use crate::error::CoreError;
use crate::histogram::Histogram;
use crate::problem::rebalanced_demand;

/// Positions of bins on a line, and their order along it.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    /// The position of each bin, in bin order.
    positions: Vec<f64>,
    /// Every bin, in ascending position (ties in bin order).
    order: Vec<usize>,
}

impl Line {
    /// The line through `positions`, one per bin, sorted stably.
    pub(crate) fn new(positions: Vec<f64>) -> Line {
        let mut order: Vec<usize> = (0..positions.len()).collect();
        order.sort_by(|&a, &b| positions[a].total_cmp(&positions[b])); // bounds: a, b < len
        Line { positions, order }
    }

    /// The number of bins.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Admit the line under `cost`, square and of its bins (`|p_i − p_j|
    /// ≤ c_ij` at every entry); `Ok(true)` when it is also on the cost.
    /// Each entry is tested at half of [`distance_slack`](crate::distance_slack),
    /// as [`CostMatrix::is_metric`] tests it: an entry off by `δ` moves no
    /// EMD by more than `δ`. [`CoreError::NotMetric`] names the first
    /// entry, row-major, that `|p_i − p_j|` exceeds by more.
    pub(crate) fn fit(&self, cost: &CostMatrix) -> Result<bool, CoreError> {
        let slack = crate::distance_slack(cost) / 2.0;
        let mut on = true;
        for (i, &pi) in self.positions.iter().enumerate() {
            for (j, (&pj, &c)) in self.positions.iter().zip(cost.row(i)).enumerate() {
                let gap = (pi - pj).abs() - c;
                if gap > slack {
                    return Err(CoreError::NotMetric { row: i, col: j });
                }
                on &= gap >= -slack;
            }
        }
        Ok(on)
    }

    /// `Σ_i x_i p_i`, summed in bin order. Dense on purpose: a zero bin
    /// adds nothing either way, and the plain loop runs ~2x faster than
    /// skipping it.
    pub(crate) fn mean(&self, x: &Histogram) -> f64 {
        let terms = self.positions.iter().zip(x.bins());
        terms.map(|(position, mass)| mass * position).sum()
    }

    /// The EMD of `x` and `y`, of the line's bins, under `|p_i − p_j|` in
    /// O(d): the EMD on a cost the line is on, with the LP's rebalance of
    /// the operands' drift (each may miss total mass 1 by
    /// [`MASS_EPS`](crate::MASS_EPS)) onto `y`'s largest bin.
    pub(crate) fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        let (supplies, demands) = (x.bins(), y.bins());
        let landing = rebalanced_demand(supplies, demands);
        // F_x − F_y over the bins passed so far, and the sum over the
        // gaps; the first gap, from 0, is weighted by a lead of 0.
        let (mut lead, mut distance, mut previous) = (0.0_f64, 0.0, 0.0);
        for &bin in &self.order {
            let position = self.positions[bin]; // bounds: order holds the line's bins
            distance += (position - previous) * lead.abs();
            previous = position;
            let demand = match landing {
                Some((landed, mass)) if landed == bin => mass,
                _ => demands[bin], // bounds: y has the line's bins
            };
            lead += supplies[bin] - demand; // bounds: x has the line's bins
        }
        distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ground, PathMetric};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    impl Line {
        /// Every bin in ascending position, and those positions.
        pub(crate) fn sorted(&self) -> (Vec<usize>, Vec<f64>) {
            let along = |&bin: &usize| self.positions[bin];
            (self.order.clone(), self.order.iter().map(along).collect())
        }
    }

    /// Shuffled, unevenly spaced points of a line, some coinciding.
    fn line_cost(rng: &mut StdRng, d: usize) -> CostMatrix {
        let mut points: Vec<Vec<f64>> = (0..d).map(|_| vec![rng.gen_range(-50.0..50.0)]).collect();
        if d > 2 {
            points[d - 1] = points[rng.gen_range(0..d - 1)].clone();
        }
        points.shuffle(rng);
        ground::from_points(&points, ground::Metric::Euclidean).unwrap()
    }

    /// A 2-D grid of at least two cells, under one of two metrics.
    fn grid_cost(rng: &mut StdRng) -> CostMatrix {
        let (width, height) = (rng.gen_range(2..=6), rng.gen_range(1..=6));
        let metric = if rng.gen_bool(0.5) {
            ground::Metric::Euclidean
        } else {
            ground::Metric::Manhattan
        };
        ground::grid2(width, height, metric).unwrap()
    }

    /// Random symmetric entries, some zero, closed under shortest paths.
    fn closure_cost(rng: &mut StdRng, d: usize) -> CostMatrix {
        let mut c = vec![0.0_f64; d * d];
        for i in 0..d {
            for j in 0..i {
                let entry = if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.5..20.0)
                };
                c[i * d + j] = entry;
                c[j * d + i] = entry;
            }
        }
        for via in 0..d {
            for a in 0..d {
                for b in 0..d {
                    c[a * d + b] = c[a * d + b].min(c[a * d + via] + c[via * d + b]);
                }
            }
        }
        CostMatrix::new(d, d, c).unwrap()
    }

    /// A histogram of `d` bins, about a third of them empty.
    fn masses(rng: &mut StdRng, d: usize) -> Histogram {
        let mut bins: Vec<f64> = (0..d)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0)
                }
            })
            .collect();
        bins[rng.gen_range(0..d)] += 0.1;
        Histogram::normalized(bins).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Over lines, grids and metric closures: every column of a cost
        /// `is_metric` admits is under it; the column of `PathMetric::of`'s
        /// end is on the cost exactly when it is a path, and no column is
        /// on a cost that is not; `mean` is the dot product in bin order,
        /// to the bit.
        #[test]
        fn columns_fit_as_the_metric_and_the_path_do(
            kind in 0..3usize,
            d in 1..=24usize,
            seed in 0..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cost = match kind {
                0 => line_cost(&mut rng, d),
                1 => grid_cost(&mut rng),
                _ => closure_cost(&mut rng, d),
            };
            let d = cost.rows();
            prop_assert!(cost.is_metric(), "kind {kind}: generated cost is not a metric");
            let path = PathMetric::of(&cost);
            let from_first = cost.row(0);
            let farthest = from_first.iter().copied().fold(0.0, f64::max);
            let end = from_first.iter().position(|&c| c >= farthest).unwrap();
            let x = masses(&mut rng, d);
            for a in 0..d {
                let column: Vec<f64> = (0..d).map(|i| cost.at(i, a)).collect();
                let line = Line::new(column.clone());
                let fit = line.fit(&cost);
                prop_assert!(fit.is_ok(), "kind {kind}: column {a} above the cost at {fit:?}");
                let on = fit == Ok(true);
                if a == end {
                    prop_assert_eq!(on, path.is_some(), "kind {}: end column {}", kind, a);
                }
                prop_assert!(!on || path.is_some(), "kind {kind}: column {a} on a non-path");
                let mut dot = 0.0;
                for (mass, position) in x.bins().iter().zip(&column) {
                    dot += mass * position;
                }
                prop_assert_eq!(line.mean(&x).to_bits(), dot.to_bits(), "column {}", a);
            }
            if kind == 0 {
                prop_assert!(path.is_some(), "{d} points on a line not recognized");
            }
        }
    }
}
