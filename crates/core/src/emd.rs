//! Exact Earth Mover's Distance (Definition 1, with the "minor
//! extension" of Section 3.1 to operands of different dimensionality):
//! one-call sugar over [`emd_in_context`], the body every EMD in this
//! workspace runs but the closed form on a path ([`crate::PathMetric`]).

use crate::budget::Budget;
use crate::context::{emd_in_context, EmdContext};
use crate::cost::CostMatrix;
use crate::error::CoreError;
use crate::histogram::Histogram;

/// Result of an EMD computation that also reports the optimal flows.
#[derive(Debug, Clone)]
pub struct EmdReport {
    /// The minimal total cost — the EMD value.
    pub distance: f64,
    /// Optimal flows `(i, j, f_ij)` in *original* bin indices, strictly
    /// positive entries only.
    pub flows: Vec<(usize, usize, f64)>,
}

/// Compute the EMD between two histograms: a cold, unbudgeted
/// [`emd_in_context`]. `cost` may be rectangular — `x` is matched against
/// its rows and `y` against its columns — which is what reduced EMDs with
/// different query and database reductions (`R1 != R2`) need.
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] when `x` does not match
/// `cost.rows()` or `y` does not match `cost.cols()`, and
/// [`CoreError::Solver`] if the transportation simplex fails to converge
/// (a numerical pathology: the operands were checked when they were
/// built).
pub fn emd(x: &Histogram, y: &Histogram, cost: &CostMatrix) -> Result<f64, CoreError> {
    emd_in_context(x, y, cost, &Budget::unlimited(), &mut EmdContext::new())
}

/// [`emd`], returning the optimal flow matrix along with the distance.
/// The flows feed the paper's flow-based reduction (Section 3.4), which
/// aggregates them over a database sample.
///
/// # Errors
///
/// Same failure modes as [`emd`].
pub fn emd_with_flows(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
) -> Result<EmdReport, CoreError> {
    let mut ctx = EmdContext::new();
    let distance = emd_in_context(x, y, cost, &Budget::unlimited(), &mut ctx)?;
    if ctx.stats().solves > 0 {
        return Ok(ctx.last_report(distance));
    }
    // No LP was built: the identity shortcut answered, and the optimal
    // flow leaves every bin's mass where it is.
    let report = EmdReport {
        distance,
        flows: x.nonzero().map(|(i, mass)| (i, i, mass)).collect(),
    };
    crate::certify::debug_certify_report(x, y, cost, &report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    /// `Histogram::new` lets each operand miss total mass 1 by
    /// `MASS_EPS`; two that miss it in opposite directions are a valid
    /// pair, and the LP must accept it rather than call it unbalanced.
    #[test]
    fn operands_off_in_opposite_directions_solve() {
        let x = h(&[0.500_000_09, 0.5]);
        let y = h(&[0.499_999_91, 0.5]);
        let c = ground::linear(2).unwrap();
        let d = emd(&x, &y, &c).unwrap();
        assert!((0.0..=2.0 * crate::MASS_EPS).contains(&d), "{d}");
        assert_eq!(
            emd_with_flows(&x, &y, &c).unwrap().distance.to_bits(),
            d.to_bits()
        );
    }

    #[test]
    fn figure_one_values() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let z = h(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let c = ground::linear(6).unwrap();
        assert!((emd(&x, &y, &c).unwrap() - 1.0).abs() < 1e-12);
        assert!((emd(&x, &z, &c).unwrap() - 1.6).abs() < 1e-12);
        // The EMD ranks y closer to x than z — the opposite of L1
        // (the perceptual motivation of the paper's Figure 1).
        let l1 = |a: &Histogram, b: &Histogram| -> f64 {
            a.bins()
                .iter()
                .zip(b.bins())
                .map(|(p, q)| (p - q).abs())
                .sum()
        };
        assert!(l1(&x, &y) > l1(&x, &z));
    }

    #[test]
    fn figure_one_flows() {
        let x = h(&[0.5, 0.0, 0.2, 0.0, 0.3, 0.0]);
        let y = h(&[0.0, 0.5, 0.0, 0.2, 0.0, 0.3]);
        let c = ground::linear(6).unwrap();
        let report = emd_with_flows(&x, &y, &c).unwrap();
        let mut flows = report.flows;
        flows.sort_by_key(|&(i, j, _)| (i, j));
        // Optimal flow per the paper: f12=0.5, f34=0.2, f56=0.3
        // (one-based in the paper; zero-based here).
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].0, 0);
        assert_eq!(flows[0].1, 1);
        assert!((flows[0].2 - 0.5).abs() < 1e-12);
        assert_eq!(flows[1], (2, 3, flows[1].2));
        assert!((flows[1].2 - 0.2).abs() < 1e-12);
        assert_eq!(flows[2], (4, 5, flows[2].2));
        assert!((flows[2].2 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn identical_histograms_are_distance_zero() {
        let x = h(&[0.25, 0.25, 0.5]);
        let c = ground::linear(3).unwrap();
        let report = emd_with_flows(&x, &x, &c).unwrap();
        assert_eq!(report.distance, 0.0);
        assert_eq!(report.flows, vec![(0, 0, 0.25), (1, 1, 0.25), (2, 2, 0.5)]);
    }

    #[test]
    fn flows_remap_to_original_indices() {
        // Mass only in high-index bins; stripping must remap correctly.
        let x = h(&[0.0, 0.0, 0.0, 1.0]);
        let y = h(&[0.0, 1.0, 0.0, 0.0]);
        let c = ground::linear(4).unwrap();
        let report = emd_with_flows(&x, &y, &c).unwrap();
        assert!((report.distance - 2.0).abs() < 1e-12);
        assert_eq!(report.flows, vec![(3, 1, 1.0)]);
    }

    #[test]
    fn rectangular_operands() {
        // 3-bin x against 2-bin y with explicit rectangular costs.
        let x = h(&[0.5, 0.25, 0.25]);
        let y = h(&[0.5, 0.5]);
        let c = CostMatrix::new(3, 2, vec![0.0, 2.0, 1.0, 1.0, 2.0, 0.0]).unwrap();
        let d = emd(&x, &y, &c).unwrap();
        // x0 -> y0 (0.5 * 0), x1 -> y1 (0.25 * 1), x2 -> y1 (0.25 * 0)
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.5, 0.25, 0.25]);
        let c = ground::linear(2).unwrap();
        assert!(matches!(
            emd(&x, &y, &c).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn closed_form_oracle_agrees() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let y = h(&[0.3, 0.0, 0.3, 0.0, 0.4]);
        let c = ground::linear(5).unwrap();
        let lp = emd(&x, &y, &c).unwrap();
        // On the 1-D chain the EMD is the L1 distance between the CDFs:
        // |-0.2| + |0.2| + |-0.1| + |0.2| + |0.0|.
        assert!((lp - 0.7).abs() < 1e-12);
    }

    #[test]
    fn symmetric_under_symmetric_costs() {
        let x = h(&[0.7, 0.1, 0.2]);
        let y = h(&[0.2, 0.3, 0.5]);
        let c = ground::linear(3).unwrap();
        let d_xy = emd(&x, &y, &c).unwrap();
        let d_yx = emd(&y, &x, &c).unwrap();
        assert!((d_xy - d_yx).abs() < 1e-12);
    }

    #[test]
    fn identity_shortcut_requires_zero_diagonal() {
        // With a non-zero diagonal, EMD(x, x) is NOT zero; the shortcut
        // must not fire.
        let x = h(&[0.5, 0.5]);
        let c = CostMatrix::new(2, 2, vec![1.0, 5.0, 5.0, 1.0]).unwrap();
        let d = emd(&x, &x, &c).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
        let mut ctx = EmdContext::new();
        let in_context = emd_in_context(&x, &x, &c, &Budget::unlimited(), &mut ctx).unwrap();
        assert_eq!(in_context.to_bits(), d.to_bits());
        assert_eq!(ctx.stats().solves, 1, "the LP ran");
    }
}
