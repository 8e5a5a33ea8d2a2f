//! Debug-mode certificates linking the solver output to the paper's
//! theorems.
//!
//! * One flow certificate: in-range, finite, non-negative flows that
//!   conserve both marginals and, where a cost is stated, cost exactly
//!   that (Definition 1 feasibility). [`certify_report`] holds an
//!   [`EmdReport`] to it in *original* bin indices; the crate-private
//!   `certify_solution` and `certify_basis` hold every simplex solution
//!   and every Vogel basis (which must also span `m + n - 1` cells) to it
//!   in tableau indices. Each reports a [`FlowViolation`].
//! * [`debug_check_lower_bound`] — the lower-bound property of Theorem 1
//!   (`LB <= EMD` within the slack the bound was admitted at), asserted
//!   wherever both quantities are available in debug builds.
//! * A solve cut short under a cutoff, which has no flows, is re-solved
//!   cold and its certified bound held against the optimum; so is every
//!   closed-form distance on a path, within `distance_slack`.
//!
//! The `debug_*` hooks run on every solve, cut, basis and report of a
//! debug build and panic with the precise violation; release builds
//! compile them out (they cost `O(m + n + |flows|)` per solve, cheap but
//! not free on the query hot path). The plain checking functions stay
//! available in all builds for tests and tooling.

use crate::cost::CostMatrix;
use crate::emd::EmdReport;
use crate::histogram::Histogram;
use crate::problem::{Solution, TransportProblem};
use std::fmt;

/// Default absolute tolerance for certificate checks.
///
/// Looser than the solver's feasibility tolerance (`1e-12`): certificate
/// sums accumulate one rounding error per tableau line, and the objective
/// recomputation re-orders additions relative to the solver.
pub const CERT_EPS: f64 = 1e-9;

/// A flow that breaks a certificate. Indices are those of the flows
/// checked: original bins for an [`EmdReport`], tableau lines for the
/// solver's solutions and bases.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowViolation {
    /// A flow references a bin outside either marginal.
    IndexOutOfRange {
        /// Source bin of the offending flow.
        source: usize,
        /// Target bin of the offending flow.
        target: usize,
    },
    /// A flow amount is negative (beyond tolerance) or non-finite.
    BadFlowValue {
        /// Source bin of the offending flow.
        source: usize,
        /// Target bin of the offending flow.
        target: usize,
        /// The offending amount.
        flow: f64,
    },
    /// Outgoing flows of a source bin do not sum to its mass, or incoming
    /// flows of a target bin do not sum to its mass.
    Conservation {
        /// `true` for the source (first-operand) side.
        source_side: bool,
        /// The violated bin.
        bin: usize,
        /// The bin's mass.
        expected: f64,
        /// The mass the flows carry.
        actual: f64,
    },
    /// The stated distance (or objective) differs from the cost of the
    /// flows.
    CostMismatch {
        /// Cost stated.
        stated: f64,
        /// Cost recomputed from the flows.
        recomputed: f64,
    },
    /// An initial basis does not have the spanning-tree cell count
    /// `m + n - 1`.
    BasisSize {
        /// Number of basic cells found.
        cells: usize,
        /// The required spanning-tree count.
        expected: usize,
    },
}

impl fmt::Display for FlowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowViolation::IndexOutOfRange { source, target } => {
                write!(f, "flow ({source}, {target}) outside the marginals")
            }
            FlowViolation::BadFlowValue {
                source,
                target,
                flow,
            } => write!(f, "flow ({source}, {target}) has bad amount {flow}"),
            FlowViolation::Conservation {
                source_side,
                bin,
                expected,
                actual,
            } => {
                let side = if *source_side { "source" } else { "target" };
                write!(
                    f,
                    "{side} bin {bin} carries {actual}, expected {expected} \
                     (error {:.3e})",
                    (actual - expected).abs()
                )
            }
            FlowViolation::CostMismatch { stated, recomputed } => write!(
                f,
                "stated cost {stated} != flow cost {recomputed} (error {:.3e})",
                (stated - recomputed).abs()
            ),
            FlowViolation::BasisSize { cells, expected } => {
                write!(f, "initial basis has {cells} cells, expected {expected}")
            }
        }
    }
}

impl std::error::Error for FlowViolation {}

/// The one flow certificate: `flows` must be in range, finite and
/// non-negative within `tol`, and carry each of `supplies` out and each
/// of `demands` in, within `tol`; when a cost is `stated`, the flows'
/// cost under `cost` must equal it within `tol`, or within [`CERT_EPS`]
/// of it relatively (recomputing re-orders the additions).
fn check_flows(
    flows: &[(usize, usize, f64)],
    supplies: &[f64],
    demands: &[f64],
    cost: impl Fn(usize, usize) -> f64,
    stated: Option<f64>,
    tol: f64,
) -> Result<(), FlowViolation> {
    let mut out_sums = vec![0.0; supplies.len()];
    let mut in_sums = vec![0.0; demands.len()];
    let mut recomputed = 0.0;
    for &(i, j, f) in flows {
        if i >= supplies.len() || j >= demands.len() {
            return Err(FlowViolation::IndexOutOfRange {
                source: i,
                target: j,
            });
        }
        if !(f.is_finite() && f >= -tol) {
            return Err(FlowViolation::BadFlowValue {
                source: i,
                target: j,
                flow: f,
            });
        }
        out_sums[i] += f; // bounds: (i, j) was checked against both marginals above
        in_sums[j] += f; // bounds: j < demands.len() = in_sums.len()
        recomputed += f * cost(i, j);
    }
    for (source_side, sums, masses) in [(true, &out_sums, supplies), (false, &in_sums, demands)] {
        for (bin, (&actual, &expected)) in sums.iter().zip(masses).enumerate() {
            if (actual - expected).abs() > tol {
                return Err(FlowViolation::Conservation {
                    source_side,
                    bin,
                    expected,
                    actual,
                });
            }
        }
    }
    match stated {
        Some(stated) if (recomputed - stated).abs() > tol.max(recomputed.abs() * CERT_EPS) => {
            Err(FlowViolation::CostMismatch { stated, recomputed })
        }
        _ => Ok(()),
    }
}

/// Certify an [`EmdReport`] against its operands: the flows must be a
/// feasible transportation plan from `x` to `y` (in original bin indices)
/// whose cost under `cost` equals the stated distance, within `tol`.
///
/// # Errors
///
/// Returns the first [`FlowViolation`] encountered. `Ok(())` certifies
/// feasibility, not optimality.
pub fn certify_report(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    report: &EmdReport,
    tol: f64,
) -> Result<(), FlowViolation> {
    check_flows(
        &report.flows,
        x.bins(),
        y.bins(),
        |i, j| cost.at(i, j),
        Some(report.distance),
        tol,
    )
}

/// Debug-build hook: certify `report` and panic with the violation if it
/// fails. Compiled out of release builds.
///
/// Each operand totals 1 only within [`crate::MASS_EPS`], and the solver
/// absorbs their difference into one target bin, so the flows conserve
/// the operands to within that difference on top of [`CERT_EPS`].
#[inline]
pub(crate) fn debug_certify_report(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    report: &EmdReport,
) {
    if cfg!(debug_assertions) {
        let tol = CERT_EPS + (x.total_mass() - y.total_mass()).abs();
        if let Err(violation) = certify_report(x, y, cost, report, tol) {
            // lint: allow(panic): the debug-build certificate hook exists to abort on solver bugs
            panic!("emd produced an infeasible flow report: {violation}");
        }
    }
}

/// Debug-build hook for the lower-bound property (Theorem 1):
/// `lower <= exact + slack`, where `slack` is the
/// [`distance_slack`](crate::distance_slack) the bound and the distance
/// were admitted and computed at — the margin a discard on `lower` is
/// taken with. Call wherever a filter bound and the refined exact
/// distance of the same pair are both in hand. Compiled out of release
/// builds.
#[inline]
pub fn debug_check_lower_bound(name: &str, lower: f64, exact: f64, slack: f64) {
    debug_assert!(
        lower <= exact + slack,
        "{name} = {lower} exceeds the exact EMD {exact} \
         (excess {:.3e}): the lower-bound property is violated",
        lower - exact
    );
}

/// Certify a [`Solution`] against its [`TransportProblem`] with the
/// [`certify_report`] checks in tableau indices, within absolute
/// tolerance `tol` ([`CERT_EPS`] is a good default).
///
/// # Errors
///
/// Returns the first [`FlowViolation`] encountered; `Ok(())` means the
/// solution is a feasible flow whose cost matches its stated objective
/// (it does *not* certify optimality — that is what the cross-solver
/// agreement tests are for).
pub(crate) fn certify_solution(
    problem: &TransportProblem,
    solution: &Solution,
    tol: f64,
) -> Result<(), FlowViolation> {
    check_flows(
        &solution.flows,
        problem.supplies(),
        problem.demands(),
        |i, j| problem.cost(i, j),
        Some(solution.objective),
        tol,
    )
}

/// Certify an initial basis, `(source, target, flow)` cells, against its
/// problem: exactly `m + n - 1` basic cells (the spanning-tree count)
/// whose flows conserve mass.
///
/// # Errors
///
/// Returns the first [`FlowViolation`] encountered.
pub(crate) fn certify_basis(
    problem: &TransportProblem,
    basis: &[(usize, usize, f64)],
    tol: f64,
) -> Result<(), FlowViolation> {
    let expected = problem.num_sources() + problem.num_targets() - 1;
    if basis.len() != expected {
        return Err(FlowViolation::BasisSize {
            cells: basis.len(),
            expected,
        });
    }
    let cost = |i, j| problem.cost(i, j);
    check_flows(
        basis,
        problem.supplies(),
        problem.demands(),
        cost,
        None,
        tol,
    )
}

/// Debug-build hook: certify `solution` and panic with the violation and
/// the offending solver's name if it fails. Compiled out of release
/// builds.
#[inline]
pub(crate) fn debug_certify_solution(
    problem: &TransportProblem,
    solution: &Solution,
    solver: &str,
) {
    if cfg!(debug_assertions) {
        if let Err(violation) = certify_solution(problem, solution, CERT_EPS) {
            // lint: allow(panic): the debug-build certificate hook exists to abort on solver bugs
            panic!("{solver} emitted an infeasible solution: {violation}");
        }
    }
}

/// Debug-build hook: certify `basis` and panic with the violation if it
/// fails. Compiled out of release builds.
#[inline]
pub(crate) fn debug_certify_basis(problem: &TransportProblem, basis: &[(usize, usize, f64)]) {
    if cfg!(debug_assertions) {
        if let Err(violation) = certify_basis(problem, basis, CERT_EPS) {
            // lint: allow(panic): the debug-build certificate hook exists to abort on solver bugs
            panic!("vogel emitted a bad initial basis: {violation}");
        }
    }
}

/// Debug-build hook for a solve cut at `cutoff` with the certified bound
/// `lower_bound`: re-solve `problem` cold and panic unless
/// `cutoff < lower_bound <= optimum`. The re-solve runs in a discarded
/// recording scope so debug and release builds report the same counters.
/// Compiled out of release builds.
#[inline]
pub(crate) fn debug_certify_cut(problem: &TransportProblem, lower_bound: f64, cutoff: f64) {
    if cfg!(debug_assertions) {
        let _discard = emd_obs::Recording::start();
        let cold = crate::simplex::solve(problem).map(|solution| solution.objective);
        assert!(
            cold.as_ref()
                .is_ok_and(|&optimum| cutoff < lower_bound && lower_bound <= optimum),
            "simplex cut a solve at {cutoff} on the bound {lower_bound}; cold optimum {cold:?}"
        );
    }
}

/// Debug-build hook for the closed form on a path: solve `x`, `y` under
/// `cost` by a cold LP and panic unless `closed` lies within
/// [`distance_slack`](crate::distance_slack) of it. The LP runs in a
/// discarded recording scope so debug and release builds report the same
/// counters. Compiled out of release builds.
#[cfg(debug_assertions)]
pub(crate) fn debug_certify_closed_form(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    closed: f64,
) {
    let _discard = emd_obs::Recording::start();
    let cold = crate::emd(x, y, cost);
    assert!(
        cold.as_ref()
            .is_ok_and(|&lp| (closed - lp).abs() <= crate::distance_slack(cost)),
        "the closed form on a path gave {closed}; cold LP {cold:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::emd_with_flows;
    use crate::ground;
    use crate::simplex::solve;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn optimal_report_certifies() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let c = ground::linear(6).unwrap();
        let report = emd_with_flows(&x, &y, &c).unwrap();
        assert_eq!(certify_report(&x, &y, &c, &report, CERT_EPS), Ok(()));
    }

    #[test]
    fn corrupted_flow_is_caught() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.25, 0.75]);
        let c = ground::linear(2).unwrap();
        let mut report = emd_with_flows(&x, &y, &c).unwrap();
        report.flows[0].2 += 0.125;
        assert!(matches!(
            certify_report(&x, &y, &c, &report, CERT_EPS).unwrap_err(),
            FlowViolation::Conservation { .. }
        ));
    }

    #[test]
    fn corrupted_distance_is_caught() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.25, 0.75]);
        let c = ground::linear(2).unwrap();
        let mut report = emd_with_flows(&x, &y, &c).unwrap();
        report.distance *= 2.0;
        report.distance += 1.0;
        assert!(matches!(
            certify_report(&x, &y, &c, &report, CERT_EPS).unwrap_err(),
            FlowViolation::CostMismatch { .. }
        ));
    }

    #[test]
    fn out_of_range_flow_is_caught() {
        let x = h(&[1.0]);
        let y = h(&[1.0]);
        let c = ground::linear(1).unwrap();
        let report = EmdReport {
            distance: 0.0,
            flows: vec![(0, 5, 1.0)],
        };
        assert!(matches!(
            certify_report(&x, &y, &c, &report, CERT_EPS).unwrap_err(),
            FlowViolation::IndexOutOfRange { target: 5, .. }
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "infeasible flow report")]
    fn debug_hook_fires_on_corruption() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.25, 0.75]);
        let c = ground::linear(2).unwrap();
        let mut report = emd_with_flows(&x, &y, &c).unwrap();
        report.flows.clear();
        debug_certify_report(&x, &y, &c, &report);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lower-bound property is violated")]
    fn bound_order_hook_fires() {
        let slack = crate::distance_slack(&ground::linear(2).unwrap());
        debug_check_lower_bound("test-bound", 2.0, 1.0, slack);
    }

    /// `LB <= EMD + slack`, equality included, passes the hook.
    #[test]
    fn sandwich_accepts_valid_ordering() {
        let slack = crate::distance_slack(&ground::linear(2).unwrap());
        debug_check_lower_bound("test-bound", 0.5, 1.0, slack);
        debug_check_lower_bound("test-bound", 1.0, 1.0, slack);
        debug_check_lower_bound("test-bound", 1.0 + slack, 1.0, slack);
    }

    fn problem() -> TransportProblem {
        TransportProblem::new(vec![0.5, 0.5], vec![0.25, 0.75], vec![1.0, 2.0, 3.0, 1.0])
    }

    #[test]
    fn optimal_solution_certifies() {
        let p = problem();
        let s = solve(&p).unwrap();
        assert_eq!(certify_solution(&p, &s, CERT_EPS), Ok(()));
    }

    #[test]
    fn corrupted_flow_fails_conservation() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        // Corrupt one flow amount: conservation must catch it.
        s.flows[0].2 += 0.1;
        let err = certify_solution(&p, &s, CERT_EPS).unwrap_err();
        assert!(matches!(err, FlowViolation::Conservation { .. }));
    }

    #[test]
    fn corrupted_objective_fails() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.objective += 1.0;
        let err = certify_solution(&p, &s, CERT_EPS).unwrap_err();
        assert!(matches!(err, FlowViolation::CostMismatch { .. }));
    }

    #[test]
    fn out_of_range_and_negative_flows_fail() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.flows.push((9, 0, 0.0));
        assert!(matches!(
            certify_solution(&p, &s, CERT_EPS).unwrap_err(),
            FlowViolation::IndexOutOfRange { source: 9, .. }
        ));

        let bad = Solution {
            objective: 0.0,
            flows: vec![(0, 0, -0.5), (0, 1, 1.0), (1, 1, -0.25)],
        };
        assert!(matches!(
            certify_solution(&p, &bad, CERT_EPS).unwrap_err(),
            FlowViolation::BadFlowValue { .. }
        ));
    }

    #[test]
    fn initial_basis_certifies() {
        let p = problem();
        let basis = crate::vogel::initial_basis(&p);
        assert_eq!(certify_basis(&p, &basis.cells, CERT_EPS), Ok(()));
    }

    #[test]
    fn short_basis_fails() {
        let p = problem();
        let mut basis = crate::vogel::initial_basis(&p);
        basis.cells.pop();
        assert!(matches!(
            certify_basis(&p, &basis.cells, CERT_EPS).unwrap_err(),
            FlowViolation::BasisSize { .. }
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "infeasible solution")]
    fn debug_solution_hook_fires_on_corruption() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.flows[0].2 += 0.25;
        debug_certify_solution(&p, &s, "test-corruptor");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bad initial basis")]
    fn debug_basis_hook_fires_on_short_basis() {
        let p = problem();
        let mut basis = crate::vogel::initial_basis(&p);
        basis.cells.pop();
        debug_certify_basis(&p, &basis.cells);
    }
}
