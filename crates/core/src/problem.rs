//! The balanced transportation problem instance consumed by the simplex
//! (and by the tests' SSP oracle): supplies, demands and a row-major cost
//! tableau. Its one producer, `emd_in_context_within`, builds it from a
//! [`Histogram`](crate::Histogram) pair and a
//! [`CostMatrix`](crate::CostMatrix), whose constructors already reject
//! empty, negative, non-finite, mis-shaped and unnormalized input, so
//! construction checks nothing again.

use crate::MASS_EPS;

/// A balanced transportation problem instance.
///
/// Costs are stored row-major: the cost of shipping one unit from source `i`
/// to target `j` is `costs[i * n + j]`. Total supply and total demand
/// agree within `2 · MASS_EPS`, since each operand may be off its
/// normalized total by [`MASS_EPS`]; construction rebalances that drift
/// exactly so the solvers can rely on a strictly balanced tableau.
#[derive(Debug, Clone)]
pub(crate) struct TransportProblem {
    supplies: Vec<f64>,
    demands: Vec<f64>,
    costs: Vec<f64>,
}

impl TransportProblem {
    /// Build a problem instance from non-empty, non-negative, finite
    /// masses whose totals agree within `2 · MASS_EPS` and finite `costs`
    /// with `supplies.len() * demands.len()` entries in row-major order.
    pub(crate) fn new(supplies: Vec<f64>, mut demands: Vec<f64>, costs: Vec<f64>) -> Self {
        if let Some((bin, mass)) = rebalanced_demand(&supplies, &demands) {
            if let Some(demand) = demands.get_mut(bin) {
                *demand = mass;
            }
        }
        TransportProblem {
            supplies,
            demands,
            costs,
        }
    }

    /// Number of sources.
    #[inline]
    pub(crate) fn num_sources(&self) -> usize {
        self.supplies.len()
    }

    /// Number of targets.
    #[inline]
    pub(crate) fn num_targets(&self) -> usize {
        self.demands.len()
    }

    /// Supply masses.
    #[inline]
    pub(crate) fn supplies(&self) -> &[f64] {
        &self.supplies
    }

    /// Demand masses.
    #[inline]
    pub(crate) fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Cost of shipping one unit from source `i` to target `j`.
    #[inline]
    pub(crate) fn cost(&self, i: usize, j: usize) -> f64 {
        self.costs[i * self.demands.len() + j]
    }

    /// Row `i` of the cost matrix.
    #[inline]
    pub(crate) fn cost_row(&self, i: usize) -> &[f64] {
        let n = self.demands.len();
        &self.costs[i * n..(i + 1) * n]
    }

    /// The raw row-major cost buffer.
    #[inline]
    pub(crate) fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Decompose the problem back into `(supplies, demands, costs)`,
    /// returning the buffers passed to [`TransportProblem::new`]. Lets a
    /// caller that owns reusable buffers (the `EmdContext`)
    /// round-trip them through a solve without reallocating.
    #[must_use]
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (self.supplies, self.demands, self.costs)
    }
}

/// How [`TransportProblem::new`] balances its operands: the drift
/// `Σ supplies − Σ demands` lands on the largest demand (the last of
/// equal ones), floored at 0, so total supply equals total demand
/// bit-exactly where possible. Returns that `(bin, new mass)`, or `None`
/// when the totals already agree. The one rebalance rule, shared with the
/// closed form on a line (`Line::distance`), which answers the
/// problem the LP solves.
pub(crate) fn rebalanced_demand(supplies: &[f64], demands: &[f64]) -> Option<(usize, f64)> {
    let drift = supplies.iter().sum::<f64>() - demands.iter().sum::<f64>();
    debug_assert!(
        drift.abs() <= 2.0 * MASS_EPS,
        "supply and demand totals differ by {drift}"
    );
    // float: exact — zero drift means the operands were exactly balanced; no tolerance wanted
    if drift == 0.0 {
        return None;
    }
    let largest = demands.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
    debug_assert!(largest.is_some(), "rebalance called with empty demands");
    largest.map(|(bin, &mass)| (bin, (mass + drift).max(0.0)))
}

/// An optimal solution to a [`TransportProblem`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Solution {
    /// Minimal total cost `sum c_ij * f_ij`.
    pub objective: f64,
    /// Strictly positive optimal flows as `(source, target, amount)`
    /// triples. Zero flows (including degenerate basic cells) are omitted.
    pub flows: Vec<(usize, usize, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalances_tiny_drift() {
        let problem = TransportProblem::new(vec![0.5, 0.5], vec![1.0 + 1e-9], vec![1.0, 2.0]);
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
        );
        assert_eq!(problem.num_sources(), 2);
        assert_eq!(problem.num_targets(), 3);
        assert_eq!(problem.cost(0, 2), 3.0);
        assert_eq!(problem.cost(1, 0), 4.0);
        assert_eq!(problem.cost_row(1), &[4.0, 5.0, 6.0]);
    }
}
