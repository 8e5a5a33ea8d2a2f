//! Property-based coverage of the numeric-invariant layer in `emd-core`:
//! flow reports certify against their operands, every lower bound in the
//! toolbox stays below the exact EMD, and the anchor bound's potentials
//! are dual feasible.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::certify::{certify_report, CERT_EPS};
use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{distance_slack, emd, emd_with_flows, ground, CostMatrix, Histogram};
use proptest::prelude::*;

/// Strategy: a normalized histogram of the given dimensionality with at
/// least one strictly positive bin.
fn histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, dim).prop_filter_map("total mass must be positive", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6).then(|| Histogram::normalized(raw).expect("positive mass"))
    })
}

/// A histogram pair on the 1-D chain ground distance, `dim in 2..=max_dim`.
fn chain_pair(max_dim: usize) -> impl Strategy<Value = (Histogram, Histogram, CostMatrix)> {
    (2..=max_dim).prop_flat_map(|dim| {
        (histogram(dim), histogram(dim)).prop_map(move |(x, y)| {
            let cost = ground::linear(dim).expect("dim >= 2");
            (x, y, cost)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flow report returned by [`emd_with_flows`] certifies against its
    /// operands: a feasible plan whose cost equals the stated distance.
    #[test]
    fn flow_reports_certify((x, y, cost) in chain_pair(9)) {
        let report = emd_with_flows(&x, &y, &cost).expect("emd solves valid pairs");
        prop_assert!(certify_report(&x, &y, &cost, &report, CERT_EPS).is_ok());
    }

    /// Every lower bound in the toolbox sits below the exact EMD within the
    /// one slack KNOP discards with (Theorem 1 is only sound if this holds).
    #[test]
    fn bounds_sandwich_exact_emd((x, y, cost) in chain_pair(9)) {
        let exact = emd(&x, &y, &cost).expect("emd solves valid pairs");

        let im = LbIm::new(cost.clone()).bound(&x, &y).expect("shapes match");
        prop_assert!(im <= exact + distance_slack(&cost), "LB_IM {im} > EMD {exact}");

        let anchors = AnchorBound::with_spread_anchors(&cost, 2.min(x.dim()))
            .expect("valid anchor count")
            .bound(&x, &y)
            .expect("shapes match");
        prop_assert!(anchors <= exact + distance_slack(&cost), "anchor {anchors} > EMD {exact}");
    }

    /// The anchor bound's potentials are dual feasible for the cost matrix
    /// it was built from, at every anchor count: on two point masses the
    /// bound is `max_a |c_ia - c_ja|`, which must not exceed `c_ij` by more
    /// than the half slack the bound is admitted at.
    #[test]
    fn anchor_duals_stay_feasible(dim in 2usize..10, count in 1usize..6) {
        let cost = ground::linear(dim).expect("dim >= 2");
        let count = count.min(dim);
        let bound = AnchorBound::with_spread_anchors(&cost, count).expect("valid anchor count");
        for i in 0..dim {
            for j in 0..dim {
                let (x, y) = (Histogram::unit(dim, i).unwrap(), Histogram::unit(dim, j).unwrap());
                let admitted = distance_slack(&cost) / 2.0;
                prop_assert!(bound.bound(&x, &y).unwrap() <= cost.at(i, j) + admitted);
            }
        }
    }

    /// Corrupting a reported flow is caught by the report certificate —
    /// the debug hook inside `emd_with_flows` guards a real invariant.
    #[test]
    fn corrupted_reports_always_fail((x, y, cost) in chain_pair(8), pick in 0usize..64, delta in 0.01_f64..0.5) {
        let mut report = emd_with_flows(&x, &y, &cost).expect("emd solves valid pairs");
        let index = pick % report.flows.len();
        report.flows[index].2 += delta;
        prop_assert!(certify_report(&x, &y, &cost, &report, CERT_EPS).is_err());
    }
}
