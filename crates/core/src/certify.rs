//! Debug-mode certificates linking the solver output to the paper's
//! theorems.
//!
//! * [`certify_report`] — an [`EmdReport`]'s flows must conserve the
//!   operand masses in *original* bin indices and cost exactly the stated
//!   distance (Definition 1 feasibility).
//! * [`debug_check_lower_bound`] — the lower-bound property of Theorem 1
//!   (`LB <= EMD`), asserted wherever both quantities are available in
//!   debug builds.
//! * The solver's own certificates, crate-private: every simplex
//!   solution and every Vogel basis must be a feasible flow of its
//!   transportation problem (conservation, non-negativity, a stated
//!   objective that matches the flows), and a solve cut short under a
//!   cutoff, which has no flows, is re-solved cold and its certified
//!   bound held against the optimum.
//!
//! The `debug_*` hooks run on every solve, cut, basis and report of a
//! debug build and panic with the precise violation; release builds
//! compile them out (they cost `O(m + n + |flows|)` per solve, cheap but
//! not free on the query hot path). The plain checking functions stay
//! available in all builds for tests and tooling.

use crate::cost::CostMatrix;
use crate::emd::EmdReport;
use crate::error::Side;
use crate::histogram::Histogram;
use crate::problem::{Solution, TransportProblem};
use crate::vogel::InitialBasis;
use std::fmt;

/// Default absolute tolerance for certificate checks.
///
/// Looser than the solver's feasibility tolerance (`1e-12`): certificate
/// sums accumulate one rounding error per tableau line, and the objective
/// recomputation re-orders additions relative to the solver.
pub const CERT_EPS: f64 = 1e-9;

/// Tolerance for bound-ordering checks (`LB <= EMD + BOUND_EPS`). Looser
/// than [`CERT_EPS`]: bound computations and the LP accumulate rounding
/// independently of each other.
pub const BOUND_EPS: f64 = 1e-7;

/// A violated EMD-report invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportViolation {
    /// A flow references a bin outside either histogram.
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
        /// The bin's histogram mass.
        expected: f64,
        /// The mass the flows carry.
        actual: f64,
    },
    /// The stated distance differs from the cost of the flows.
    DistanceMismatch {
        /// Distance reported.
        stated: f64,
        /// Distance recomputed from the flows.
        recomputed: f64,
    },
}

impl fmt::Display for ReportViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportViolation::IndexOutOfRange { source, target } => {
                write!(f, "flow ({source}, {target}) outside the histograms")
            }
            ReportViolation::BadFlowValue {
                source,
                target,
                flow,
            } => write!(f, "flow ({source}, {target}) has bad amount {flow}"),
            ReportViolation::Conservation {
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
            ReportViolation::DistanceMismatch { stated, recomputed } => write!(
                f,
                "distance {stated} != flow cost {recomputed} (error {:.3e})",
                (stated - recomputed).abs()
            ),
        }
    }
}

impl std::error::Error for ReportViolation {}

/// Certify an [`EmdReport`] against its operands: the flows must be a
/// feasible transportation plan from `x` to `y` (in original bin indices)
/// whose cost under `cost` equals the stated distance, within `tol`.
///
/// # Errors
///
/// Returns the first [`ReportViolation`] encountered. `Ok(())` certifies
/// feasibility, not optimality.
pub fn certify_report(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    report: &EmdReport,
    tol: f64,
) -> Result<(), ReportViolation> {
    let mut out_sums = vec![0.0; x.dim()];
    let mut in_sums = vec![0.0; y.dim()];
    let mut recomputed = 0.0;
    for &(i, j, f) in &report.flows {
        if i >= x.dim() || j >= y.dim() {
            return Err(ReportViolation::IndexOutOfRange {
                source: i,
                target: j,
            });
        }
        if !(f.is_finite() && f >= -tol) {
            return Err(ReportViolation::BadFlowValue {
                source: i,
                target: j,
                flow: f,
            });
        }
        out_sums[i] += f;
        in_sums[j] += f;
        recomputed += f * cost.at(i, j);
    }
    for (bin, (&actual, &expected)) in out_sums.iter().zip(x.bins()).enumerate() {
        if (actual - expected).abs() > tol {
            return Err(ReportViolation::Conservation {
                source_side: true,
                bin,
                expected,
                actual,
            });
        }
    }
    for (bin, (&actual, &expected)) in in_sums.iter().zip(y.bins()).enumerate() {
        if (actual - expected).abs() > tol {
            return Err(ReportViolation::Conservation {
                source_side: false,
                bin,
                expected,
                actual,
            });
        }
    }
    let distance_tol = tol.max(recomputed.abs() * 1e-9);
    if (recomputed - report.distance).abs() > distance_tol {
        return Err(ReportViolation::DistanceMismatch {
            stated: report.distance,
            recomputed,
        });
    }
    Ok(())
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
/// `lower <= exact + BOUND_EPS`. Call wherever a filter bound and the
/// refined exact distance of the same pair are both in hand. Compiled out
/// of release builds.
#[inline]
pub fn debug_check_lower_bound(name: &str, lower: f64, exact: f64) {
    debug_assert!(
        lower <= exact + BOUND_EPS,
        "{name} = {lower} exceeds the exact EMD {exact} \
         (excess {:.3e}): the lower-bound property is violated",
        lower - exact
    );
}

/// A violated solution invariant, with enough context to debug the solver.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CertificateViolation {
    /// A flow triple references a source or target outside the tableau.
    IndexOutOfRange {
        /// Source index of the offending flow.
        source: usize,
        /// Target index of the offending flow.
        target: usize,
    },
    /// A flow amount is negative (beyond tolerance) or non-finite.
    BadFlowValue {
        /// Source index of the offending flow.
        source: usize,
        /// Target index of the offending flow.
        target: usize,
        /// The offending amount.
        flow: f64,
    },
    /// A row or column sum does not match its supply/demand mass.
    Conservation {
        /// Which side of the tableau is violated.
        side: Side,
        /// Index of the violated line.
        index: usize,
        /// The supply/demand mass the line must carry.
        expected: f64,
        /// The mass the flows actually carry.
        actual: f64,
    },
    /// The stated objective differs from the cost of the flows.
    ObjectiveMismatch {
        /// Objective reported by the solver.
        stated: f64,
        /// Objective recomputed from the flows.
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

impl fmt::Display for CertificateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateViolation::IndexOutOfRange { source, target } => {
                write!(f, "flow ({source}, {target}) outside the tableau")
            }
            CertificateViolation::BadFlowValue {
                source,
                target,
                flow,
            } => write!(f, "flow ({source}, {target}) has bad amount {flow}"),
            CertificateViolation::Conservation {
                side,
                index,
                expected,
                actual,
            } => write!(
                f,
                "{side} {index} conserves {actual}, expected {expected} \
                 (error {:.3e})",
                (actual - expected).abs()
            ),
            CertificateViolation::ObjectiveMismatch { stated, recomputed } => {
                write!(
                    f,
                    "objective {stated} != recomputed {recomputed} \
                     (error {:.3e})",
                    (stated - recomputed).abs()
                )
            }
            CertificateViolation::BasisSize { cells, expected } => {
                write!(f, "initial basis has {cells} cells, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CertificateViolation {}

/// Check that `flows` conserve mass against `problem` within `tol`:
/// non-negative finite amounts, in-range indices, row sums equal supplies
/// and column sums equal demands.
///
/// Shared by the solution and initial-basis certificates.
fn check_conservation(
    problem: &TransportProblem,
    flows: &[(usize, usize, f64)],
    tol: f64,
) -> Result<(), CertificateViolation> {
    let m = problem.num_sources();
    let n = problem.num_targets();
    let mut row_sums = vec![0.0; m];
    let mut col_sums = vec![0.0; n];
    for &(i, j, f) in flows {
        if i >= m || j >= n {
            return Err(CertificateViolation::IndexOutOfRange {
                source: i,
                target: j,
            });
        }
        if !(f.is_finite() && f >= -tol) {
            return Err(CertificateViolation::BadFlowValue {
                source: i,
                target: j,
                flow: f,
            });
        }
        row_sums[i] += f; // bounds: (i, j) was validated as a tableau cell above
        col_sums[j] += f; // bounds: j < num_targets = col_sums.len()
    }
    for (index, (&actual, &expected)) in row_sums.iter().zip(problem.supplies()).enumerate() {
        if (actual - expected).abs() > tol {
            return Err(CertificateViolation::Conservation {
                side: Side::Supply,
                index,
                expected,
                actual,
            });
        }
    }
    for (index, (&actual, &expected)) in col_sums.iter().zip(problem.demands()).enumerate() {
        if (actual - expected).abs() > tol {
            return Err(CertificateViolation::Conservation {
                side: Side::Demand,
                index,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

/// Certify a [`Solution`] against its [`TransportProblem`]: flow
/// conservation on both sides, non-negativity, and objective consistency,
/// all within absolute tolerance `tol` ([`CERT_EPS`] is a good default).
///
/// # Errors
///
/// Returns the first [`CertificateViolation`] encountered; `Ok(())` means
/// the solution is a feasible flow whose cost matches its stated objective
/// (it does *not* certify optimality — that is what the cross-solver
/// agreement tests are for).
pub(crate) fn certify_solution(
    problem: &TransportProblem,
    solution: &Solution,
    tol: f64,
) -> Result<(), CertificateViolation> {
    check_conservation(problem, &solution.flows, tol)?;
    let recomputed: f64 = solution
        .flows
        .iter()
        .map(|&(i, j, f)| f * problem.cost(i, j))
        .sum();
    let objective_tol = tol.max(recomputed.abs() * 1e-9);
    if (recomputed - solution.objective).abs() > objective_tol {
        return Err(CertificateViolation::ObjectiveMismatch {
            stated: solution.objective,
            recomputed,
        });
    }
    Ok(())
}

/// Certify an [`InitialBasis`] against its problem: exactly `m + n - 1`
/// basic cells (the spanning-tree count) whose flows conserve mass.
///
/// # Errors
///
/// Returns the first [`CertificateViolation`] encountered.
pub(crate) fn certify_basis(
    problem: &TransportProblem,
    basis: &InitialBasis,
    tol: f64,
) -> Result<(), CertificateViolation> {
    let expected = problem.num_sources() + problem.num_targets() - 1;
    if basis.cells.len() != expected {
        return Err(CertificateViolation::BasisSize {
            cells: basis.cells.len(),
            expected,
        });
    }
    check_conservation(problem, &basis.cells, tol)
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
pub(crate) fn debug_certify_basis(problem: &TransportProblem, basis: &InitialBasis) {
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
            ReportViolation::Conservation { .. }
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
            ReportViolation::DistanceMismatch { .. }
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
            ReportViolation::IndexOutOfRange { target: 5, .. }
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
        debug_check_lower_bound("test-bound", 2.0, 1.0);
    }

    /// `LB <= EMD`, equality included, passes the hook.
    #[test]
    fn sandwich_accepts_valid_ordering() {
        debug_check_lower_bound("test-bound", 0.5, 1.0);
        debug_check_lower_bound("test-bound", 1.0, 1.0);
    }

    fn problem() -> TransportProblem {
        TransportProblem::new(vec![0.5, 0.5], vec![0.25, 0.75], vec![1.0, 2.0, 3.0, 1.0]).unwrap()
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
        assert!(matches!(err, CertificateViolation::Conservation { .. }));
    }

    #[test]
    fn corrupted_objective_fails() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.objective += 1.0;
        let err = certify_solution(&p, &s, CERT_EPS).unwrap_err();
        assert!(matches!(
            err,
            CertificateViolation::ObjectiveMismatch { .. }
        ));
    }

    #[test]
    fn out_of_range_and_negative_flows_fail() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.flows.push((9, 0, 0.0));
        assert!(matches!(
            certify_solution(&p, &s, CERT_EPS).unwrap_err(),
            CertificateViolation::IndexOutOfRange { source: 9, .. }
        ));

        let bad = Solution {
            objective: 0.0,
            flows: vec![(0, 0, -0.5), (0, 1, 1.0), (1, 1, -0.25)],
        };
        assert!(matches!(
            certify_solution(&p, &bad, CERT_EPS).unwrap_err(),
            CertificateViolation::BadFlowValue { .. }
        ));
    }

    #[test]
    fn initial_basis_certifies() {
        let p = problem();
        let basis = crate::vogel::initial_basis(&p);
        assert_eq!(certify_basis(&p, &basis, CERT_EPS), Ok(()));
    }

    #[test]
    fn short_basis_fails() {
        let p = problem();
        let mut basis = crate::vogel::initial_basis(&p);
        basis.cells.pop();
        assert!(matches!(
            certify_basis(&p, &basis, CERT_EPS).unwrap_err(),
            CertificateViolation::BasisSize { .. }
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
}
