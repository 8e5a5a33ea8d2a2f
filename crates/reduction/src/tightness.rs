//! The expected-tightness objective of the flow-based reduction
//! (Equations 11 and 12, Figure 7 of the paper).
//!
//! For a reduction `R`, aggregated average flows
//! `aggrFlow(F, R, i', j') = sum_{i in group(i')} sum_{j in group(j')} f_ij`
//! are weighted by the optimally reduced cost matrix `C'`:
//!
//! ```text
//! tightness(R) = sum_{i'} sum_{j'} aggrFlow(F, R, i', j') * c'_{i'j'}
//! ```
//!
//! Larger is better: the aggregated flows approximate the flows a reduced
//! EMD would produce, so a larger weighted sum predicts a tighter lower
//! bound (Section 3.4).
//!
//! Note on fidelity: the paper's Figure 7 pseudo-code passes the *old* `R`
//! to `aggrFlow` while reducing the cost matrix with the modified `R'`.
//! Equation 12 defines the measure with a single reduction matrix, and
//! mixing the two would make the sum inconsistent (flows and costs
//! aggregated over different groups), so we read Figure 7's `R` as a typo
//! for `R'` and evaluate both terms under the modified reduction.

use crate::flow_sample::FlowSample;
use crate::matrix::CombiningReduction;
use emd_core::CostMatrix;

/// Evaluates the expected tightness of reductions against a fixed flow
/// sample and cost matrix. Owns scratch buffers so repeated evaluations
/// (the inner loop of FB-Mod/FB-All) do not allocate.
#[derive(Debug, Clone)]
pub struct TightnessEvaluator {
    dim: usize,
    /// Row-major `d x d` products are aggregated into `d' x d'` scratch.
    aggregated_flows: Vec<f64>,
    reduced_costs: Vec<f64>,
}

impl TightnessEvaluator {
    /// Create an evaluator for histograms of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        TightnessEvaluator {
            dim,
            aggregated_flows: Vec::new(),
            reduced_costs: Vec::new(),
        }
    }

    /// `calcTight` of Figure 7 without the temporary reassignment: the
    /// expected tightness of `r` itself.
    #[allow(clippy::needless_range_loop)] // i, j are bin indices into two matrices
    pub fn tightness(
        &mut self,
        flows: &FlowSample,
        cost: &CostMatrix,
        r: &CombiningReduction,
    ) -> f64 {
        debug_assert_eq!(flows.dim(), self.dim);
        debug_assert_eq!(cost.rows(), self.dim);
        debug_assert_eq!(cost.cols(), self.dim);
        debug_assert_eq!(r.original_dim(), self.dim);

        let d_red = r.reduced_dim();
        self.aggregated_flows.clear();
        self.aggregated_flows.resize(d_red * d_red, 0.0);
        self.reduced_costs.clear();
        self.reduced_costs.resize(d_red * d_red, f64::INFINITY);

        // Single pass over the original d x d matrices: scatter-add the
        // flows and scatter-min the costs into the reduced cells.
        for i in 0..self.dim {
            let target_row = r.target_of(i) * d_red;
            let cost_row = cost.row(i);
            for j in 0..self.dim {
                let cell = target_row + r.target_of(j);
                self.aggregated_flows[cell] += flows.flow(i, j);
                let c = cost_row[j];
                if c < self.reduced_costs[cell] {
                    self.reduced_costs[cell] = c;
                }
            }
        }

        self.aggregated_flows
            .iter()
            .zip(self.reduced_costs.iter())
            .map(|(&f, &c)| f * c)
            .sum()
    }

    /// `calcTight(R, F, C, origDim, newRedDim, d')` of Figure 7: the
    /// expected tightness of `r` with `original` temporarily reassigned to
    /// `target`. Returns `None` if the reassignment would empty the
    /// source group (invalid under Definition 3). `r` is restored before
    /// returning.
    pub fn tightness_with_reassignment(
        &mut self,
        flows: &FlowSample,
        cost: &CostMatrix,
        r: &mut CombiningReduction,
        original: usize,
        target: usize,
    ) -> Option<f64> {
        let previous = r.target_of(original);
        if !r.try_reassign(original, target) {
            return None;
        }
        let tightness = self.tightness(flows, cost, r);
        let restored = r.try_reassign(original, previous);
        debug_assert!(restored, "restoring a reassignment cannot fail");
        Some(tightness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce_cost_matrix;
    use emd_core::ground;

    fn uniform_flows(dim: usize) -> FlowSample {
        let value = 1.0 / (dim * dim) as f64;
        FlowSample::from_dense(dim, vec![value; dim * dim]).unwrap()
    }

    #[test]
    fn tightness_is_flow_weighted_reduced_cost() {
        let cost = ground::linear(4).unwrap();
        let flows = uniform_flows(4);
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let mut evaluator = TightnessEvaluator::new(4);
        let tightness = evaluator.tightness(&flows, &cost, &r);
        // Chain costs, merge {0,1} and {2,3}: reduced cost = [[0,1],[1,0]]
        // (cross minimum is c(1,2) = 1). Each reduced cell aggregates 4
        // original cells of flow 1/16 each = 0.25.
        // tightness = 0.25*0 + 0.25*1 + 0.25*1 + 0.25*0 = 0.5
        assert!((tightness - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_reduction_maximizes_tightness() {
        // Merging can only lose cost-weighted flow, so the identity
        // reduction upper-bounds any coarser reduction's tightness.
        let cost = ground::linear(5).unwrap();
        let flows = uniform_flows(5);
        let mut evaluator = TightnessEvaluator::new(5);
        let identity = CombiningReduction::identity(5).unwrap();
        let id_tightness = evaluator.tightness(&flows, &cost, &identity);
        for (assignment, d_red) in [
            (vec![0, 0, 1, 1, 2], 3),
            (vec![0, 1, 0, 1, 0], 2),
            (vec![0, 0, 0, 0, 0], 1),
        ] {
            let r = CombiningReduction::new(assignment, d_red).unwrap();
            let t = evaluator.tightness(&flows, &cost, &r);
            assert!(t <= id_tightness + 1e-12);
        }
    }

    #[test]
    fn reassignment_evaluation_restores_state() {
        let cost = ground::linear(4).unwrap();
        let flows = uniform_flows(4);
        let mut r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let snapshot = r.clone();
        let mut evaluator = TightnessEvaluator::new(4);
        let base = evaluator.tightness(&flows, &cost, &r);
        let moved = evaluator
            .tightness_with_reassignment(&flows, &cost, &mut r, 1, 1)
            .unwrap();
        assert_eq!(r, snapshot, "temporary reassignment must be reverted");
        // Check the returned value against an explicit clone-and-modify.
        let mut modified = snapshot;
        assert!(modified.try_reassign(1, 1));
        let expected = evaluator.tightness(&flows, &cost, &modified);
        assert!((moved - expected).abs() < 1e-12);
        let _ = base;
    }

    #[test]
    fn reassignment_emptying_group_is_rejected() {
        let cost = ground::linear(3).unwrap();
        let flows = uniform_flows(3);
        let mut r = CombiningReduction::new(vec![0, 1, 1], 2).unwrap();
        let mut evaluator = TightnessEvaluator::new(3);
        assert!(evaluator
            .tightness_with_reassignment(&flows, &cost, &mut r, 0, 1)
            .is_none());
    }

    /// The aggregated flow matrix `aggrFlow(F, R, ., .)` as a dense
    /// `d' x d'` buffer (Equation 11), summed cell by cell: the oracle
    /// the evaluator's incremental aggregation is checked against.
    fn aggregate_flows(flows: &FlowSample, r: &CombiningReduction) -> Vec<f64> {
        let d = flows.dim();
        let d_red = r.reduced_dim();
        let mut aggregated = vec![0.0; d_red * d_red];
        for i in 0..d {
            for j in 0..d {
                aggregated[r.target_of(i) * d_red + r.target_of(j)] += flows.flow(i, j);
            }
        }
        aggregated
    }

    #[test]
    fn aggregate_flows_matches_reduced_cost_cells() {
        let cost = ground::grid2(2, 2, ground::Metric::Manhattan).unwrap();
        let flows = uniform_flows(4);
        let r = CombiningReduction::new(vec![0, 1, 0, 1], 2).unwrap();
        let aggregated = aggregate_flows(&flows, &r);
        assert_eq!(aggregated.len(), 4);
        let total: f64 = aggregated.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Consistency: tightness == sum(aggregated * reduced cost).
        let reduced = reduce_cost_matrix(&cost, &r, &r).unwrap();
        let expected: f64 = aggregated
            .iter()
            .zip(reduced.entries().iter())
            .map(|(&f, &c)| f * c)
            .sum();
        let mut evaluator = TightnessEvaluator::new(4);
        let tightness = evaluator.tightness(&flows, &cost, &r);
        assert!((tightness - expected).abs() < 1e-12);
    }
}
