//! The one EMD evaluation: [`emd_in_context_within`] is the only function
//! in this crate that builds a transportation problem.
//!
//! Zero-mass bins contribute no flow in any feasible solution, so they are
//! stripped before the LP is built; multimedia histograms are typically
//! sparse and this shrinks the tableau substantially. The stripped
//! tableau is staged in — and solved through — a caller-owned
//! [`EmdContext`] holding the solver's workspace plus the support
//! indices and the flattened row-major cost buffer.
//!
//! ## Warm starts
//!
//! Consecutive evaluations through one context against one fixed query
//! histogram — the KNOP refinement pattern — reuse every allocation and
//! warm-start the simplex from the basis the previous candidate's solve
//! ended on. A *cold* evaluation is the same body from an empty basis: a
//! fresh context ([`crate::emd`] makes one per call), or a used one after
//! [`EmdContext::clear_warm_state`]. The solver extracts its answer
//! canonically from the final basis (see the crate docs on warm starts),
//! so a warm-started solve agrees with a cold solve to the bit whenever
//! the optimum is unique.
//!
//! ## Budgets and cutoffs
//!
//! Every evaluation takes a [`Budget`] (`Budget::unlimited()` for none)
//! and surfaces a firing as the typed [`CoreError::BudgetExhausted`].
//! [`emd_in_context_within`] additionally takes a cutoff and may stop at
//! a certified lower bound above it instead of the distance;
//! [`emd_in_context`] is its `f64::INFINITY` call.

use crate::budget::Budget;
use crate::cost::CostMatrix;
use crate::error::{CoreError, TransportError};
use crate::histogram::Histogram;
use crate::problem::TransportProblem;
use crate::simplex::{solve_warm_objective, Bounded};
use crate::workspace::{SolverWorkspace, WorkspaceStats};
use crate::EmdReport;

/// Caller-owned scratch for repeated EMD evaluations.
///
/// Owns the transport workspace (dual vectors, basis tree, warm-start
/// basis) and the core-level staging buffers (support indices, stripped
/// marginals, flattened costs). After the first evaluation has grown the
/// buffers, the steady path performs no heap allocation.
#[derive(Debug, Default)]
pub struct EmdContext {
    ws: SolverWorkspace,
    x_index: Vec<usize>,
    y_index: Vec<usize>,
    supplies: Vec<f64>,
    demands: Vec<f64>,
    costs: Vec<f64>,
}

impl EmdContext {
    /// An empty context; buffers grow on first use and are kept across
    /// evaluations.
    #[must_use]
    pub fn new() -> Self {
        EmdContext::default()
    }

    /// Transport-level work counters (solves, warm attempts/hits, pivots)
    /// accumulated by every evaluation routed through this context.
    #[must_use]
    pub(crate) fn stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Forget the warm-start basis: the next evaluation solves cold.
    /// Scratch buffers keep their capacity.
    // lint: allow(unbudgeted): state reset, performs no solver work
    pub fn clear_warm_state(&mut self) {
        self.ws.clear_warm_state();
    }

    /// The optimal flows of the last evaluation that ran to
    /// [`Bounded::Optimal`], in original bin indices.
    pub(crate) fn last_report(&self, distance: f64) -> EmdReport {
        let flows = self
            .ws
            .last_solution(distance)
            .flows
            .into_iter()
            // bounds: the solver's cells index the stripped tableau, whose
            // axes are exactly x_index / y_index.
            .map(|(i, j, f)| (self.x_index[i], self.y_index[j], f))
            .collect();
        EmdReport { distance, flows }
    }
}

/// Exact EMD (Definition 1) of `x` and `y` under `cost`, which may be
/// rectangular (`x` against its rows, `y` against its columns). Reuses
/// the context's buffers and warm-starts the simplex from the previous
/// evaluation's basis when the stripped tableau shapes match; from a
/// fresh or cleared context it is a cold solve.
///
/// # Errors
///
/// [`CoreError::DimensionMismatch`] when `x` does not match `cost.rows()`
/// or `y` does not match `cost.cols()`, [`CoreError::BudgetExhausted`]
/// when `budget` fires at solve entry or mid-solve, and
/// [`CoreError::Solver`] if the simplex fails to converge (a numerical
/// pathology: the operands were checked when they were built). The
/// context stays usable after an error: the next evaluation solves from
/// the basis the last successful one left.
pub fn emd_in_context(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    budget: &Budget,
    ctx: &mut EmdContext,
) -> Result<f64, CoreError> {
    match emd_in_context_within(x, y, cost, budget, f64::INFINITY, ctx)? {
        Bounded::Optimal(distance) => Ok(distance),
        Bounded::Above(_) => Err(CoreError::Solver(
            "a solve without a cutoff was cut".to_owned(),
        )),
    }
}

/// [`emd_in_context`] for a caller that only needs the distance if it is
/// at most `cutoff` — KNOP refining a candidate against its current k-th
/// distance, a range query against ε. Returns [`Bounded::Optimal`] with
/// the exact EMD, or [`Bounded::Above`] with a certified lower bound
/// strictly above `cutoff` as soon as the warm solve can prove one (see
/// the crate docs on cutoffs); the context stays warm either way.
/// `f64::INFINITY` is [`emd_in_context`] itself.
///
/// # Errors
///
/// Same failure modes as [`emd_in_context`].
pub fn emd_in_context_within(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    budget: &Budget,
    cutoff: f64,
    ctx: &mut EmdContext,
) -> Result<Bounded, CoreError> {
    emd_obs::counter_add("core.emd.solves", 1);
    if cost.rows() != x.dim() || cost.cols() != y.dim() {
        return Err(CoreError::DimensionMismatch {
            expected_rows: cost.rows(),
            expected_cols: cost.cols(),
            got_rows: x.dim(),
            got_cols: y.dim(),
        });
    }

    // Identical operands under a square matrix with zero diagonal have
    // distance 0 with the identity flow; skip the LP.
    if cost.is_square() && x == y {
        // float: exact — identity shortcut requires an exactly zero diagonal, else fall through to the LP
        let diagonal_free = x.nonzero().all(|(i, _)| cost.at(i, i) == 0.0);
        if diagonal_free {
            return Ok(Bounded::Optimal(0.0));
        }
    }

    // Strip zero-mass bins into the context's staging buffers.
    ctx.x_index.clear();
    ctx.supplies.clear();
    for (i, mass) in x.nonzero() {
        ctx.x_index.push(i);
        ctx.supplies.push(mass);
    }
    ctx.y_index.clear();
    ctx.demands.clear();
    for (j, mass) in y.nonzero() {
        ctx.y_index.push(j);
        ctx.demands.push(mass);
    }
    debug_assert!(
        !ctx.x_index.is_empty() && !ctx.y_index.is_empty(),
        "normalized histograms have non-empty support"
    );

    ctx.costs.clear();
    ctx.costs.reserve(ctx.x_index.len() * ctx.y_index.len());
    for &i in &ctx.x_index {
        let row = cost.row(i);
        ctx.costs.extend(ctx.y_index.iter().map(|&j| row[j])); // bounds: y_index holds support positions < cost.cols()
    }

    // Round-trip the owned buffers through the problem: `into_parts`
    // returns them after the solve, so the steady path never reallocates.
    let problem = TransportProblem::new(
        std::mem::take(&mut ctx.supplies),
        std::mem::take(&mut ctx.demands),
        std::mem::take(&mut ctx.costs),
    );

    let solved = solve_warm_objective(&problem, budget, cutoff, &mut ctx.ws);
    (ctx.supplies, ctx.demands, ctx.costs) = problem.into_parts();
    let objective = match solved {
        Ok(Bounded::Optimal(objective)) => objective,
        // No flow to certify: the simplex has already checked the
        // bound against a cold re-solve (debug builds).
        Ok(above @ Bounded::Above(_)) => return Ok(above),
        // Budget exhaustion stays typed so upper layers can degrade.
        Err(TransportError::BudgetExhausted { reason }) => {
            return Err(CoreError::BudgetExhausted(reason));
        }
        Err(other) => return Err(CoreError::Solver(other.to_string())),
    };

    if cfg!(debug_assertions) {
        crate::certify::debug_certify_report(x, y, cost, &ctx.last_report(objective));
    }
    Ok(Bounded::Optimal(objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd;
    use crate::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn context_matches_context_free_path() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let ys = [
            h(&[0.3, 0.0, 0.3, 0.0, 0.4]),
            h(&[0.2, 0.2, 0.2, 0.2, 0.2]),
            h(&[0.0, 0.0, 1.0, 0.0, 0.0]),
            h(&[0.5, 0.1, 0.1, 0.1, 0.2]),
        ];
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        for y in &ys {
            let cold = emd(&x, y, &c).unwrap();
            let warm = emd_in_context(&x, y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        assert_eq!(ctx.stats().solves, 4);
    }

    #[test]
    fn identity_shortcut_still_fires() {
        let x = h(&[0.25, 0.25, 0.5]);
        let c = ground::linear(3).unwrap();
        let mut ctx = EmdContext::new();
        assert_eq!(
            emd_in_context(&x, &x, &c, &Budget::unlimited(), &mut ctx).unwrap(),
            0.0
        );
        // The shortcut skips the LP entirely: no transport solve recorded,
        // so even an exhausted budget returns the exact zero distance.
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        assert_eq!(
            emd_in_context(&x, &x, &c, &cancelled, &mut ctx).unwrap(),
            0.0
        );
        assert_eq!(ctx.stats().solves, 0);
    }

    #[test]
    fn rectangular_operands_warm_start() {
        let x = h(&[0.5, 0.25, 0.25]);
        let ys = [h(&[0.5, 0.5]), h(&[0.25, 0.75]), h(&[0.9, 0.1])];
        let c = CostMatrix::new(3, 2, vec![0.0, 2.0, 1.0, 1.0, 2.0, 0.0]).unwrap();
        let mut ctx = EmdContext::new();
        for y in &ys {
            let cold = emd(&x, y, &c).unwrap();
            let warm = emd_in_context(&x, y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        let stats = ctx.stats();
        assert_eq!(stats.solves, 3);
        assert_eq!(stats.warm_attempts, 2, "same support shape across ys");
    }

    #[test]
    fn cutoffs_answer_with_sound_bounds_and_keep_the_context_warm() {
        let x = h(&[0.3, 0.1, 0.2, 0.1, 0.3]);
        let ys = [
            h(&[0.1, 0.3, 0.2, 0.3, 0.1]),
            h(&[0.6, 0.1, 0.1, 0.1, 0.1]),
            h(&[0.1, 0.1, 0.1, 0.1, 0.6]),
            h(&[0.2, 0.2, 0.2, 0.2, 0.2]),
            h(&[0.05, 0.05, 0.1, 0.2, 0.6]),
        ];
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        let mut cuts = 0;
        for fraction in [0.25, 0.75, 1.0, 1.5] {
            for y in &ys {
                let exact = emd(&x, y, &c).unwrap();
                let cutoff = exact * fraction;
                match emd_in_context_within(&x, y, &c, &Budget::unlimited(), cutoff, &mut ctx)
                    .unwrap()
                {
                    Bounded::Optimal(distance) => assert!((distance - exact).abs() < 1e-12),
                    Bounded::Above(bound) => {
                        cuts += 1;
                        assert!(cutoff < bound && bound <= exact + 1e-12);
                    }
                }
            }
        }
        assert!(cuts > 0, "a cutoff at a quarter of the distance must cut");
        assert_eq!(ctx.stats().solves, 20);
        assert_eq!(ctx.stats().warm_hits, 19, "a cut solve hands on its basis");
    }

    #[test]
    fn equal_shape_different_support_never_cuts_unsoundly() {
        // Supports {0, 1, 2} then {1, 2, 3}: both strip to a 4 x 3
        // tableau, but over different columns of the cost matrix, so the
        // inherited basis was optimal for other costs.
        let x = h(&[0.1, 0.2, 0.3, 0.4]);
        let low = h(&[0.5, 0.3, 0.2, 0.0]);
        let high = h(&[0.0, 0.2, 0.3, 0.5]);
        let c = CostMatrix::new(
            4,
            4,
            vec![
                0.0, 3.0, 1.0, 7.0, //
                3.0, 0.0, 5.0, 2.0, //
                1.0, 5.0, 0.0, 4.0, //
                7.0, 2.0, 4.0, 0.0,
            ],
        )
        .unwrap();
        let mut ctx = EmdContext::new();
        for step in 0..12 {
            let y = if step % 2 == 0 { &low } else { &high };
            let exact = emd(&x, y, &c).unwrap();
            for fraction in [0.1, 0.5, 0.9, 0.999] {
                let cutoff = exact * fraction;
                match emd_in_context_within(&x, y, &c, &Budget::unlimited(), cutoff, &mut ctx)
                    .unwrap()
                {
                    Bounded::Optimal(distance) => assert!((distance - exact).abs() < 1e-12),
                    Bounded::Above(bound) => assert!(cutoff < bound && bound <= exact + 1e-12),
                }
            }
        }
        assert_eq!(ctx.stats().warm_attempts, 47, "equal shapes always match");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.5, 0.25, 0.25]);
        let c = ground::linear(2).unwrap();
        let mut ctx = EmdContext::new();
        assert!(matches!(
            emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn budget_exhaustion_stays_typed_and_context_survives() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let y = h(&[0.3, 0.0, 0.3, 0.0, 0.4]);
        let z = h(&[0.2, 0.2, 0.2, 0.2, 0.2]);
        let c = ground::linear(5).unwrap();
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        // On a fresh context and on a warmed one: the error is typed and
        // the next evaluation returns the cold answer.
        for warm_up in [false, true] {
            let mut ctx = EmdContext::new();
            if warm_up {
                emd_in_context(&x, &z, &c, &Budget::unlimited(), &mut ctx).unwrap();
            }
            let err = emd_in_context(&x, &y, &c, &cancelled, &mut ctx).unwrap_err();
            assert_eq!(
                err,
                CoreError::BudgetExhausted(crate::budget::BudgetReason::Cancelled)
            );
            let ok = emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(ok.to_bits(), emd(&x, &y, &c).unwrap().to_bits());
        }
    }

    #[test]
    fn clear_warm_state_forces_cold_solves() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let y = h(&[0.3, 0.0, 0.3, 0.0, 0.4]);
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
        ctx.clear_warm_state();
        emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
        assert_eq!(ctx.stats().warm_attempts, 0);
    }
}
