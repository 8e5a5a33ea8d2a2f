//! Solution certificates: machine-checkable feasibility evidence.
//!
//! Every solver in this crate returns flows that must satisfy the
//! transportation constraints *exactly* (within floating-point tolerance):
//! row sums equal supplies, column sums equal demands, flows are
//! non-negative, and the stated objective matches the flows. This module
//! turns those invariants into a structured certificate check.
//!
//! In debug builds (`debug_assertions`) every solve in this crate runs its
//! result through [`certify_solution`] and panics with the precise
//! violation if the certificate fails, so the whole proptest suite
//! exercises the LP invariants on every run. Release builds skip the check
//! entirely — it costs `O(m + n + |flows|)` per solve, which is cheap but
//! not free on the query hot path. A solve cut short under a cutoff has
//! no flows to certify; its hook, [`debug_certify_cut`], re-solves the
//! problem cold instead and holds the certified bound against the
//! optimum.

use crate::error::Side;
use crate::problem::{Solution, TransportProblem};
use crate::vogel::InitialBasis;
use std::fmt;

/// Default absolute tolerance for certificate checks.
///
/// Looser than [`crate::EPS`]: certificate sums accumulate one rounding
/// error per tableau line, and the objective recomputation re-orders
/// additions relative to the solver.
pub const CERT_EPS: f64 = 1e-9;

/// A violated solution invariant, with enough context to debug the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateViolation {
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
pub fn certify_solution(
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
pub fn certify_basis(
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
pub fn debug_certify_cut(problem: &TransportProblem, lower_bound: f64, cutoff: f64) {
    if cfg!(debug_assertions) {
        let _discard = emd_obs::Recording::start();
        let cold = crate::solve(problem).map(|solution| solution.objective);
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
    use crate::solve;

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
    fn debug_hook_fires_on_corruption() {
        let p = problem();
        let mut s = solve(&p).unwrap();
        s.flows[0].2 += 0.25;
        debug_certify_solution(&p, &s, "test-corruptor");
    }
}
