//! Debug-mode certificates linking the solver output to the paper's
//! theorems.
//!
//! * [`certify_report`] — an [`EmdReport`]'s flows must conserve the
//!   operand masses in *original* bin indices and cost exactly the stated
//!   distance (Definition 1 feasibility).
//! * [`debug_check_lower_bound`] — the lower-bound property of Theorem 1
//!   (`LB <= EMD`), asserted wherever both quantities are available in
//!   debug builds.
//!
//! The `debug_*` hooks are compiled out of release builds; the plain
//! checking functions stay available in all builds for tests and tooling.

use crate::cost::CostMatrix;
use crate::emd::EmdReport;
use crate::histogram::Histogram;
use std::fmt;

/// Default absolute tolerance for certificate checks; matches the LP
/// layer's certificate tolerance.
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
#[inline]
pub(crate) fn debug_certify_report(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    report: &EmdReport,
) {
    if cfg!(debug_assertions) {
        if let Err(violation) = certify_report(x, y, cost, report, CERT_EPS) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::emd_with_flows;
    use crate::ground;

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
}
