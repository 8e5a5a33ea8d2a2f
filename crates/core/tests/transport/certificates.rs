//! Property-based coverage of the solution-certificate layer: every solver
//! output on random instances must pass [`certify_solution`] /
//! [`certify_basis`], and deliberately corrupted solutions must fail it —
//! proving that the debug-build hooks inside the solvers actually guard
//! something.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::ssp::solve_ssp;
use crate::certify::{certify_basis, certify_solution, CertificateViolation, CERT_EPS};
use crate::problem::TransportProblem;
use crate::simplex::solve;
use crate::vogel::initial_basis;
use proptest::prelude::*;

/// Strategy: a normalized mass vector of the given length with at least one
/// strictly positive entry.
fn mass_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0_f64..1.0, len).prop_filter_map("total mass must be positive", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6).then(|| raw.iter().map(|x| x / total).collect())
    })
}

fn cost_matrix(m: usize, n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0_f64..10.0, m * n)
}

/// A random balanced instance with dimensions in `2..=max_dim`.
fn instance(max_dim: usize) -> impl Strategy<Value = TransportProblem> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(m, n)| {
        (mass_vector(m), mass_vector(n), cost_matrix(m, n)).prop_map(
            |(supplies, demands, costs)| {
                TransportProblem::new(supplies, demands, costs)
                    .expect("generated instances are valid")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The simplex solution certifies: feasible flows whose cost matches
    /// the stated objective.
    #[test]
    fn simplex_solutions_certify(problem in instance(9)) {
        let solution = solve(&problem).expect("simplex solves valid instances");
        prop_assert!(certify_solution(&problem, &solution, CERT_EPS).is_ok());
    }

    /// The successive-shortest-paths solution certifies too.
    #[test]
    fn ssp_solutions_certify(problem in instance(8)) {
        let solution = solve_ssp(&problem).expect("ssp solves valid instances");
        prop_assert!(certify_solution(&problem, &solution, CERT_EPS).is_ok());
    }

    /// Vogel's initial basis certifies: `m + n - 1` cells conserving mass.
    #[test]
    fn vogel_bases_certify(problem in instance(9)) {
        let basis = initial_basis(&problem);
        prop_assert!(certify_basis(&problem, &basis, CERT_EPS).is_ok());
    }

    /// Corrupting any single flow of an optimal solution by a visible
    /// amount always trips the certificate — the check has no blind spots
    /// across flow positions.
    #[test]
    fn corrupted_flows_always_fail(problem in instance(8), pick in 0usize..64, delta in 0.01_f64..0.5) {
        let mut solution = solve(&problem).expect("simplex solves valid instances");
        let index = pick % solution.flows.len();
        solution.flows[index].2 += delta;
        let verdict = certify_solution(&problem, &solution, CERT_EPS);
        prop_assert!(
            matches!(verdict, Err(CertificateViolation::Conservation { .. })),
            "tampered flow must break conservation, got {verdict:?}"
        );
    }

    /// Misstating the objective while leaving the flows intact is caught by
    /// the cost-recomputation arm of the certificate.
    #[test]
    fn misstated_objectives_always_fail(problem in instance(8), delta in 0.01_f64..5.0) {
        let mut solution = solve(&problem).expect("simplex solves valid instances");
        solution.objective += delta;
        let verdict = certify_solution(&problem, &solution, CERT_EPS);
        prop_assert!(
            matches!(verdict, Err(CertificateViolation::ObjectiveMismatch { .. })),
            "tampered objective must be caught, got {verdict:?}"
        );
    }

    /// Dropping a basic cell from Vogel's basis trips the spanning-tree
    /// cardinality check.
    #[test]
    fn truncated_bases_always_fail(problem in instance(8), pick in 0usize..64) {
        let mut basis = initial_basis(&problem);
        let index = pick % basis.cells.len();
        basis.cells.remove(index);
        let verdict = certify_basis(&problem, &basis, CERT_EPS);
        prop_assert!(verdict.is_err(), "short basis must fail, got {verdict:?}");
    }
}
