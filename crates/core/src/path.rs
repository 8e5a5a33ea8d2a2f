//! The EMD on a line, without an LP: [`PathMetric::of`] recognizes a
//! cost `c_ij = |p_i − p_j|`, in any bin order, once in O(d²), and
//! [`PathMetric::distance`] answers each pair from the CDFs in O(d).

use crate::cost::CostMatrix;
use crate::histogram::Histogram;
use crate::line::Line;

/// A square cost matrix recognized as distances between points on a line.
#[derive(Debug, Clone)]
pub struct PathMetric {
    /// The bins at their distances from an end of the line.
    line: Line,
    /// The recognized cost, for the debug certificate's cold LP.
    #[cfg(debug_assertions)]
    cost: CostMatrix,
}

impl PathMetric {
    /// Recognize `cost` as a path metric, in any bin order.
    ///
    /// The bin `e` farthest from bin 0 (the first of equals) is an end of
    /// the line if there is one, so `p_i = c_ei` are positions measured
    /// from that end. The cost is a path when that line is on it: every
    /// entry, diagonal included, is `|p_i − p_j|` within the per-entry
    /// tolerance of [`CostMatrix::is_metric`]. `None` for a rectangular
    /// cost or one that is not a path.
    #[must_use]
    pub fn of(cost: &CostMatrix) -> Option<PathMetric> {
        if !cost.is_square() {
            return None;
        }
        let from_first = cost.row(0);
        let farthest = from_first.iter().copied().fold(0.0, f64::max);
        let end = from_first.iter().position(|&c| c >= farthest).unwrap_or(0);
        let line = Line::new(cost.row(end).to_vec());
        (line.fit(cost) == Ok(true)).then(|| PathMetric {
            line,
            #[cfg(debug_assertions)]
            cost: cost.clone(),
        })
    }

    /// The exact EMD of `x` and `y`, of the metric's dimensionality,
    /// with the LP's rebalance, in O(d). Counts `core.emd.closed_form`.
    /// Debug builds hold every answer to a cold LP over the recognized
    /// cost, within [`distance_slack`](crate::distance_slack).
    #[must_use]
    pub fn distance(&self, x: &Histogram, y: &Histogram) -> f64 {
        let bins = self.line.len();
        let (xs, ys) = (x.dim(), y.dim());
        debug_assert!(
            xs == bins && ys == bins,
            "{xs} and {ys} bins on a {bins}-bin path"
        );
        emd_obs::counter_add("core.emd.closed_form", 1);
        let distance = self.line.distance(x, y);
        #[cfg(debug_assertions)]
        crate::certify::debug_certify_closed_form(x, y, &self.cost, distance);
        distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distance_slack, emd, ground, MASS_EPS};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    /// `linear(d)` reduced by the minimum over contiguous groups of `size`
    /// bins, labelled in the order `labels` gives, then closed under
    /// shortest paths: the clustered index's pruning cost over a
    /// contiguous k-medoids reduction of a chain.
    fn closed_chain_reduction(d: usize, size: usize, labels: &[usize]) -> CostMatrix {
        let k = labels.len();
        let group = |bin: usize| labels[bin / size];
        let mut c = vec![f64::INFINITY; k * k];
        for i in 0..d {
            for j in 0..d {
                let cell = &mut c[group(i) * k + group(j)];
                *cell = cell.min((i as f64 - j as f64).abs());
            }
        }
        for via in 0..k {
            for a in 0..k {
                for b in 0..k {
                    c[a * k + b] = c[a * k + b].min(c[a * k + via] + c[via * k + b]);
                }
            }
        }
        CostMatrix::new(k, k, c).unwrap()
    }

    #[test]
    fn accepts_chains_and_their_closed_reductions() {
        for d in 1..=12 {
            // Positions run from the far end, bin d − 1.
            let path = PathMetric::of(&ground::linear(d).unwrap()).unwrap();
            assert_eq!(path.line.sorted().0, (0..d).rev().collect::<Vec<_>>());
        }
        let closure = closed_chain_reduction(32, 4, &[5, 2, 7, 0, 3, 6, 1, 4]);
        let path = PathMetric::of(&closure).unwrap();
        let (order, positions) = path.line.sorted();
        assert_eq!(order, vec![4, 1, 6, 3, 0, 7, 2, 5]);
        assert_eq!(positions, (0..8).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_what_is_not_a_path() {
        let rectangular = CostMatrix::new(2, 3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0]).unwrap();
        assert!(PathMetric::of(&rectangular).is_none());
        let grid = ground::grid2(3, 3, ground::Metric::Euclidean).unwrap();
        assert!(PathMetric::of(&grid).is_none());
        let saturated = ground::saturated(&ground::linear(8).unwrap(), 2.0).unwrap();
        assert!(PathMetric::of(&saturated).is_none());
        let off_diagonal = CostMatrix::new(1, 1, vec![1.0]).unwrap();
        assert!(PathMetric::of(&off_diagonal).is_none());
    }

    /// One symmetric entry pair moved just beyond the slack is no longer
    /// a path; moved just within it, it still is.
    #[test]
    fn rejects_near_paths() {
        let linear = ground::linear(10).unwrap();
        let slack = distance_slack(&linear) / 2.0;
        for (i, j) in [(0, 9), (2, 5), (3, 4), (7, 7)] {
            for (delta, accepted) in [(1.5 * slack, false), (0.5 * slack, true)] {
                let mut entries = linear.entries().to_vec();
                entries[i * 10 + j] += delta;
                entries[j * 10 + i] = entries[i * 10 + j];
                let near = CostMatrix::new(10, 10, entries).unwrap();
                assert_eq!(
                    PathMetric::of(&near).is_some(),
                    accepted,
                    "({i}, {j}) {delta}"
                );
            }
        }
    }

    #[test]
    fn matches_figure_one() {
        let path = PathMetric::of(&ground::linear(6).unwrap()).unwrap();
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let z = h(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((path.distance(&x, &y) - 1.0).abs() < 1e-12);
        assert!((path.distance(&x, &z) - 1.6).abs() < 1e-12);
        assert_eq!(path.distance(&x, &x), 0.0);
    }

    /// A mass vector of `d` bins, about a third of them empty, and at
    /// least one not.
    fn masses(rng: &mut StdRng, d: usize) -> Vec<f64> {
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
        let total: f64 = bins.iter().sum();
        bins.iter().map(|m| m / total).collect()
    }

    /// `bins` scaled to miss total mass 1 by `miss` (within `MASS_EPS`).
    fn off_by(bins: &[f64], miss: f64) -> Histogram {
        Histogram::new(bins.iter().map(|m| m * (1.0 + miss)).collect()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// On random points of a line — shuffled, unevenly spaced, some
        /// coinciding — with empty bins and operands that miss total mass
        /// 1 in opposite directions, the closed form is the cold LP's
        /// distance within `distance_slack`.
        #[test]
        fn closed_form_is_the_lp(d in 1..=64usize, seed in 0..u64::MAX, miss in 0.0..0.9f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut points: Vec<Vec<f64>> =
                (0..d).map(|_| vec![rng.gen_range(-50.0..50.0)]).collect();
            if d > 2 {
                points[d - 1] = points[rng.gen_range(0..d - 1)].clone();
            }
            points.shuffle(&mut rng);
            let cost = ground::from_points(&points, ground::Metric::Euclidean).unwrap();
            let path = PathMetric::of(&cost);
            prop_assert!(path.is_some(), "{d} points on a line not recognized");
            let path = path.unwrap();
            let x = off_by(&masses(&mut rng, d), miss * MASS_EPS);
            let y = off_by(&masses(&mut rng, d), -miss * MASS_EPS);
            for (a, b) in [(&x, &y), (&y, &x), (&x, &x)] {
                let (closed, lp) = (path.distance(a, b), emd(a, b, &cost).unwrap());
                prop_assert!(
                    (closed - lp).abs() <= distance_slack(&cost),
                    "d = {d}: closed form {closed}, LP {lp}"
                );
            }
        }
    }
}
