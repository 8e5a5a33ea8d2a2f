//! The balanced transportation problem instance consumed by both
//! solvers: supplies, demands and a row-major cost tableau, validated
//! for balance at construction.

use crate::error::{Side, TransportError};
use crate::BALANCE_EPS;

/// A balanced transportation problem instance.
///
/// Costs are stored row-major: the cost of shipping one unit from source `i`
/// to target `j` is `costs[i * n + j]`. The problem must be balanced
/// (total supply == total demand within [`BALANCE_EPS`]); construction
/// rebalances tiny rounding drift exactly so the solvers can rely on a
/// strictly balanced tableau.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    supplies: Vec<f64>,
    demands: Vec<f64>,
    costs: Vec<f64>,
}

impl TransportProblem {
    /// Build and validate a problem instance.
    ///
    /// `costs` must have `supplies.len() * demands.len()` entries in
    /// row-major order. Returns an error for negative masses, a
    /// supply/demand imbalance beyond [`BALANCE_EPS`], shape mismatches or
    /// non-finite costs.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::NegativeMass`] for negative masses,
    /// [`TransportError::EmptySide`] for an empty operand,
    /// [`TransportError::CostShape`] when `costs` is not
    /// `supplies.len() * demands.len()` long, [`TransportError::NonFiniteCost`]
    /// for NaN/infinite costs, and [`TransportError::Unbalanced`] when total
    /// supply and demand differ by more than [`BALANCE_EPS`].
    pub fn new(
        supplies: Vec<f64>,
        demands: Vec<f64>,
        costs: Vec<f64>,
    ) -> Result<Self, TransportError> {
        if supplies.is_empty() {
            return Err(TransportError::EmptySide(Side::Supply));
        }
        if demands.is_empty() {
            return Err(TransportError::EmptySide(Side::Demand));
        }
        for (index, &value) in supplies.iter().enumerate() {
            if value < 0.0 || !value.is_finite() {
                return Err(TransportError::NegativeMass {
                    side: Side::Supply,
                    index,
                    value,
                });
            }
        }
        for (index, &value) in demands.iter().enumerate() {
            if value < 0.0 || !value.is_finite() {
                return Err(TransportError::NegativeMass {
                    side: Side::Demand,
                    index,
                    value,
                });
            }
        }
        let (m, n) = (supplies.len(), demands.len());
        if costs.len() != m * n {
            return Err(TransportError::CostShape {
                expected_rows: m,
                expected_cols: n,
                len: costs.len(),
            });
        }
        for (k, &c) in costs.iter().enumerate() {
            if !c.is_finite() {
                return Err(TransportError::NonFiniteCost {
                    row: k / n,
                    col: k % n,
                });
            }
        }
        let total_supply: f64 = supplies.iter().sum();
        let total_demand: f64 = demands.iter().sum();
        if (total_supply - total_demand).abs() > BALANCE_EPS {
            return Err(TransportError::Unbalanced {
                total_supply,
                total_demand,
            });
        }
        let mut problem = TransportProblem {
            supplies,
            demands,
            costs,
        };
        problem.rebalance(total_supply - total_demand);
        Ok(problem)
    }

    /// Absorb sub-tolerance rounding drift into the largest demand so that
    /// total supply equals total demand bit-exactly where possible.
    fn rebalance(&mut self, drift: f64) {
        // float: exact — zero drift means the operands were exactly balanced; no tolerance wanted
        if drift == 0.0 {
            return;
        }
        // `new` rejects empty demand vectors before calling `rebalance`,
        // so `max_by` cannot return `None`; the early return keeps this
        // path panic-free.
        let Some((argmax, _)) = self
            .demands
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            debug_assert!(false, "rebalance called with empty demands");
            return;
        };
        self.demands[argmax] = (self.demands[argmax] + drift).max(0.0);
    }

    /// Number of sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.supplies.len()
    }

    /// Number of targets.
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.demands.len()
    }

    /// Supply masses.
    #[inline]
    pub fn supplies(&self) -> &[f64] {
        &self.supplies
    }

    /// Demand masses.
    #[inline]
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Cost of shipping one unit from source `i` to target `j`.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        self.costs[i * self.demands.len() + j]
    }

    /// Row `i` of the cost matrix.
    #[inline]
    pub fn cost_row(&self, i: usize) -> &[f64] {
        let n = self.demands.len();
        &self.costs[i * n..(i + 1) * n]
    }

    /// The raw row-major cost buffer.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Total mass shipped by the problem.
    pub fn total_mass(&self) -> f64 {
        self.supplies.iter().sum()
    }

    /// Decompose the problem back into `(supplies, demands, costs)`,
    /// returning the buffers passed to [`TransportProblem::new`]. Lets a
    /// caller that owns reusable buffers (e.g. `emd-core`'s `EmdContext`)
    /// round-trip them through a solve without reallocating.
    #[must_use]
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (self.supplies, self.demands, self.costs)
    }
}

/// An optimal solution to a [`TransportProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Minimal total cost `sum c_ij * f_ij`.
    pub objective: f64,
    /// Strictly positive optimal flows as `(source, target, amount)`
    /// triples. Zero flows (including degenerate basic cells) are omitted.
    pub flows: Vec<(usize, usize, f64)>,
}

impl Solution {
    /// Verify that the flows satisfy the source/target constraints of
    /// `problem` within tolerance `tol` and that the objective matches the
    /// flows. Intended for tests and debug assertions.
    pub fn check_feasible(&self, problem: &TransportProblem, tol: f64) -> bool {
        let m = problem.num_sources();
        let n = problem.num_targets();
        let mut row_sums = vec![0.0; m];
        let mut col_sums = vec![0.0; n];
        let mut objective = 0.0;
        for &(i, j, f) in &self.flows {
            if i >= m || j >= n || f < -tol {
                return false;
            }
            row_sums[i] += f;
            col_sums[j] += f;
            objective += f * problem.cost(i, j);
        }
        let rows_ok = row_sums
            .iter()
            .zip(problem.supplies())
            .all(|(&got, &want)| (got - want).abs() <= tol);
        let cols_ok = col_sums
            .iter()
            .zip(problem.demands())
            .all(|(&got, &want)| (got - want).abs() <= tol);
        rows_ok && cols_ok && (objective - self.objective).abs() <= tol.max(objective.abs() * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_negative_supply() {
        let err = TransportProblem::new(vec![-0.1, 1.1], vec![1.0], vec![0.0, 1.0]).unwrap_err();
        assert!(matches!(
            err,
            TransportError::NegativeMass {
                side: Side::Supply,
                index: 0,
                ..
            }
        ));
    }

    #[test]
    fn rejects_negative_demand() {
        let err = TransportProblem::new(vec![1.0], vec![1.5, -0.5], vec![0.0, 1.0]).unwrap_err();
        assert!(matches!(
            err,
            TransportError::NegativeMass {
                side: Side::Demand,
                index: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unbalanced() {
        let err = TransportProblem::new(vec![1.0], vec![0.5], vec![0.0]).unwrap_err();
        assert!(matches!(err, TransportError::Unbalanced { .. }));
    }

    #[test]
    fn rejects_bad_cost_shape() {
        let err = TransportProblem::new(vec![1.0], vec![1.0], vec![0.0, 1.0]).unwrap_err();
        assert!(matches!(err, TransportError::CostShape { .. }));
    }

    #[test]
    fn rejects_nan_cost() {
        let err = TransportProblem::new(vec![1.0], vec![1.0], vec![f64::NAN]).unwrap_err();
        assert!(matches!(
            err,
            TransportError::NonFiniteCost { row: 0, col: 0 }
        ));
    }

    #[test]
    fn rejects_empty_sides() {
        assert!(matches!(
            TransportProblem::new(vec![], vec![1.0], vec![]).unwrap_err(),
            TransportError::EmptySide(Side::Supply)
        ));
        assert!(matches!(
            TransportProblem::new(vec![1.0], vec![], vec![]).unwrap_err(),
            TransportError::EmptySide(Side::Demand)
        ));
    }

    #[test]
    fn rebalances_tiny_drift() {
        let problem =
            TransportProblem::new(vec![0.5, 0.5], vec![1.0 + 1e-9], vec![1.0, 2.0]).unwrap();
        let total_supply: f64 = problem.supplies().iter().sum();
        let total_demand: f64 = problem.demands().iter().sum();
        assert!((total_supply - total_demand).abs() < 1e-15);
    }

    #[test]
    fn accessors_agree_with_layout() {
        let problem = TransportProblem::new(
            vec![0.6, 0.4],
            vec![0.3, 0.3, 0.4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        assert_eq!(problem.num_sources(), 2);
        assert_eq!(problem.num_targets(), 3);
        assert_eq!(problem.cost(0, 2), 3.0);
        assert_eq!(problem.cost(1, 0), 4.0);
        assert_eq!(problem.cost_row(1), &[4.0, 5.0, 6.0]);
    }
}
