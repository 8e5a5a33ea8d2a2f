//! The reduced Earth Mover's Distance (Definition 4):
//! `EMD^{R1,R2}_C(x, y) = EMD_{C'}(x*R1, y*R2)`.

use crate::matrix::CombiningReduction;
use crate::reduced_cost::reduce_cost_matrix;
use crate::ReductionError;
use emd_core::{emd_in_context, Budget, CostMatrix, EmdContext, Histogram};

/// A prepared reduced EMD: reduction matrices plus the optimal reduced
/// cost matrix, ready to evaluate on histogram pairs.
///
/// By Theorem 1 of the paper, [`ReducedEmd::distance`] never exceeds the
/// exact EMD of the original dimensionality, so this type is a *complete*
/// filter for multistep query processing. Because its value is again an
/// EMD (on `d'` dimensions), further EMD filters can be chained on the
/// reduced representation (Section 4).
#[derive(Debug, Clone)]
pub struct ReducedEmd {
    r1: CombiningReduction,
    r2: CombiningReduction,
    reduced_cost: CostMatrix,
}

impl ReducedEmd {
    /// Prepare a reduced EMD with different first/second operand
    /// reductions (e.g. a mild query reduction and an aggressive database
    /// reduction).
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `cost` does not match the operand
    /// reductions' original dimensionalities, or the reduced cost matrix fails
    /// to build.
    pub fn with_asymmetric(
        cost: &CostMatrix,
        r1: CombiningReduction,
        r2: CombiningReduction,
    ) -> Result<Self, ReductionError> {
        let reduced_cost = reduce_cost_matrix(cost, &r1, &r2)?;
        Ok(ReducedEmd {
            r1,
            r2,
            reduced_cost,
        })
    }

    /// Prepare a symmetric reduced EMD (`R1 = R2 = r`), the common case of
    /// Sections 3.3 and 3.4.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ReducedEmd::with_asymmetric`] with `r1 = r2 = r`.
    pub fn new(cost: &CostMatrix, r: CombiningReduction) -> Result<Self, ReductionError> {
        Self::with_asymmetric(cost, r.clone(), r)
    }

    /// The first-operand reduction `R1`.
    pub fn r1(&self) -> &CombiningReduction {
        &self.r1
    }

    /// The second-operand reduction `R2`.
    pub fn r2(&self) -> &CombiningReduction {
        &self.r2
    }

    /// The optimal reduced cost matrix `C'` (Definition 5).
    pub fn reduced_cost(&self) -> &CostMatrix {
        &self.reduced_cost
    }

    /// Reduce a first-operand (query-side) histogram.
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `x` does not have the first reduction's
    /// original dimensionality.
    pub fn reduce_first(&self, x: &Histogram) -> Result<Histogram, ReductionError> {
        self.r1.reduce(x)
    }

    /// Reduce a second-operand (database-side) histogram.
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when `y` does not have the second reduction's
    /// original dimensionality.
    pub fn reduce_second(&self, y: &Histogram) -> Result<Histogram, ReductionError> {
        self.r2.reduce(y)
    }

    /// The reduced EMD on *original-dimensionality* operands: reduces both
    /// and solves the small LP — a cold, unbudgeted
    /// [`distance_reduced_in_context`](Self::distance_reduced_in_context)
    /// on `x·R1`, `y·R2`.
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] on operand shape mismatch or when the small LP
    /// fails to solve.
    pub fn distance(&self, x: &Histogram, y: &Histogram) -> Result<f64, ReductionError> {
        self.distance_reduced_in_context(
            &self.r1.reduce(x)?,
            &self.r2.reduce(y)?,
            &Budget::unlimited(),
            &mut EmdContext::new(),
        )
    }

    /// The reduced EMD on *already reduced* operands — the one evaluation
    /// behind every `distance*` method: `emd_core::emd_in_context` under
    /// the reduced cost matrix. Query processing reduces every database
    /// histogram once at build time and the query once per query, then
    /// calls this in the hot loop; consecutive evaluations against one
    /// fixed reduced query reuse the context's buffers and warm-start the
    /// small LP from the previous candidate's basis. Bit-identical to a
    /// cold evaluation (a fresh or cleared context) for instances with a
    /// unique optimum.
    ///
    /// # Errors
    ///
    /// Returns [`ReductionError`] when the reduced operands disagree with
    /// the reduced cost matrix or the small LP fails to solve, and a typed
    /// `CoreError::BudgetExhausted` (wrapped in
    /// [`ReductionError::Core`](crate::ReductionError)) when the budget
    /// fires mid-solve.
    pub fn distance_reduced_in_context(
        &self,
        rx: &Histogram,
        ry: &Histogram,
        budget: &Budget,
        ctx: &mut EmdContext,
    ) -> Result<f64, ReductionError> {
        Ok(emd_in_context(rx, ry, &self.reduced_cost, budget, ctx)?)
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
    fn lower_bounds_figure_one() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let cost = ground::linear(6).unwrap();
        let exact = emd(&x, &y, &cost).unwrap();
        for (assignment, d_red) in [
            (vec![0, 0, 1, 1, 2, 2], 3),
            (vec![0, 0, 0, 1, 1, 1], 2),
            (vec![0, 1, 0, 1, 0, 1], 2),
            (vec![0, 0, 0, 0, 0, 0], 1),
        ] {
            let r = CombiningReduction::new(assignment, d_red).unwrap();
            let reduced = ReducedEmd::new(&cost, r).unwrap();
            let lb = reduced.distance(&x, &y).unwrap();
            assert!(
                lb <= exact + 1e-12,
                "reduction to {d_red} dims gave {lb} > exact {exact}"
            );
        }
    }

    #[test]
    fn identity_reduction_is_exact() {
        let x = h(&[0.5, 0.2, 0.3]);
        let y = h(&[0.1, 0.8, 0.1]);
        let cost = ground::linear(3).unwrap();
        let r = CombiningReduction::identity(3).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let exact = emd(&x, &y, &cost).unwrap();
        assert!((reduced.distance(&x, &y).unwrap() - exact).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_reduction_lower_bounds() {
        let x = h(&[0.25, 0.25, 0.25, 0.25]);
        let y = h(&[0.7, 0.1, 0.1, 0.1]);
        let cost = ground::linear(4).unwrap();
        let exact = emd(&x, &y, &cost).unwrap();
        // Query unreduced, database halved.
        let r1 = CombiningReduction::identity(4).unwrap();
        let r2 = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2).unwrap();
        let lb = reduced.distance(&x, &y).unwrap();
        assert!(lb <= exact + 1e-12);
    }

    #[test]
    fn distance_reduced_matches_distance() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let cost = ground::linear(6).unwrap();
        let r = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let via_full = reduced.distance(&x, &y).unwrap();
        let rx = reduced.reduce_first(&x).unwrap();
        let ry = reduced.reduce_second(&y).unwrap();
        let via_reduced = reduced
            .distance_reduced_in_context(&rx, &ry, &Budget::unlimited(), &mut EmdContext::new())
            .unwrap();
        assert!((via_full - via_reduced).abs() < 1e-12);
    }

    #[test]
    fn discarding_dimensions_counterexample_is_avoided() {
        // Figure 3 of the paper shows that *discarding* dimensions can
        // increase the EMD. Combining reductions never discard: check the
        // lower bound holds on the paper's Figure 3 vectors.
        let x = h(&[0.5, 0.0, 0.2, 0.3, 0.0, 0.0]);
        let y = h(&[0.0, 0.5, 0.2, 0.3, 0.0, 0.0]);
        let cost = ground::linear(6).unwrap();
        let exact = emd(&x, &y, &cost).unwrap();
        let r = CombiningReduction::new(vec![0, 1, 2, 3, 3, 0], 4).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        assert!(reduced.distance(&x, &y).unwrap() <= exact + 1e-12);
    }
}
