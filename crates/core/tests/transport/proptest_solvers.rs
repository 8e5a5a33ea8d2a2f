//! Property-based cross-validation of the two exact solvers.
//!
//! The transportation simplex and the successive-shortest-paths solver share
//! no code beyond the problem representation; agreement on random instances
//! is strong evidence that both are correct.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::ssp::solve_ssp;
use crate::problem::TransportProblem;
use crate::simplex::solve;
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Simplex and SSP find the same minimum on random instances.
    #[test]
    fn simplex_matches_ssp(problem in instance(9)) {
        let simplex = solve(&problem).expect("simplex solves valid instances");
        let reference = solve_ssp(&problem).expect("ssp solves valid instances");
        prop_assert!(
            (simplex.objective - reference.objective).abs() < 1e-8,
            "simplex {} != ssp {}",
            simplex.objective,
            reference.objective
        );
    }

    /// The simplex solution is feasible: flows are non-negative and satisfy
    /// the source/target constraints exactly.
    #[test]
    fn simplex_solution_is_feasible(problem in instance(10)) {
        let solution = solve(&problem).expect("simplex solves valid instances");
        prop_assert!(solution.check_feasible(&problem, 1e-8));
    }

    /// Swapping supplies and demands while transposing the cost matrix
    /// leaves the objective unchanged.
    #[test]
    fn transposition_symmetry(problem in instance(8)) {
        let m = problem.num_sources();
        let n = problem.num_targets();
        let mut transposed = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                transposed[j * m + i] = problem.cost(i, j);
            }
        }
        let flipped = TransportProblem::new(
            problem.demands().to_vec(),
            problem.supplies().to_vec(),
            transposed,
        )
        .expect("transposed instance is valid");
        let a = solve(&problem).unwrap();
        let b = solve(&flipped).unwrap();
        prop_assert!((a.objective - b.objective).abs() < 1e-8);
    }

    /// Scaling all costs by a non-negative factor scales the objective.
    #[test]
    fn cost_scaling_linearity(problem in instance(7), factor in 0.0_f64..5.0) {
        let scaled_costs: Vec<f64> = problem.costs().iter().map(|c| c * factor).collect();
        let scaled = TransportProblem::new(
            problem.supplies().to_vec(),
            problem.demands().to_vec(),
            scaled_costs,
        )
        .expect("scaled instance is valid");
        let base = solve(&problem).unwrap();
        let scaled_solution = solve(&scaled).unwrap();
        prop_assert!((factor.mul_add(-base.objective, scaled_solution.objective)).abs() < 1e-7);
    }

    /// Zero-cost diagonal with identical supply/demand vectors gives
    /// objective zero (mass can stay in place for free).
    #[test]
    fn identity_transport_is_free(mass in mass_vector(8)) {
        let d = mass.len();
        let mut costs = vec![1.0; d * d];
        for i in 0..d {
            costs[i * d + i] = 0.0;
        }
        let problem = TransportProblem::new(mass.clone(), mass, costs).unwrap();
        let solution = solve(&problem).unwrap();
        prop_assert!(solution.objective.abs() < 1e-10);
    }
}

fn problem(supplies: Vec<f64>, demands: Vec<f64>, costs: Vec<f64>) -> TransportProblem {
    TransportProblem::new(supplies, demands, costs).unwrap()
}

/// The paper's Figure 1 pair `(x, z)`: SSP finds EMD 1.6, as the simplex
/// does.
#[test]
fn ssp_agrees_with_simplex_on_paper_example() {
    let x = vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0];
    let z = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    let costs: Vec<f64> = (0..6)
        .flat_map(|i| (0..6).map(move |j| (i as f64 - j as f64).abs()))
        .collect();
    let p = problem(x, z, costs);
    let a = solve(&p).unwrap();
    let b = solve_ssp(&p).unwrap();
    assert!((a.objective - b.objective).abs() < 1e-9);
    assert!((b.objective - 1.6).abs() < 1e-9);
    assert!(b.check_feasible(&p, 1e-9));
}

/// Zero-mass rows and columns get no arcs and no flow.
#[test]
fn ssp_handles_zero_mass_rows_and_cols() {
    let p = problem(
        vec![0.0, 1.0, 0.0],
        vec![0.5, 0.0, 0.5],
        vec![1.0, 1.0, 1.0, 2.0, 5.0, 4.0, 1.0, 1.0, 1.0],
    );
    let s = solve_ssp(&p).unwrap();
    assert!((s.objective - 3.0).abs() < 1e-9);
    assert!(s.check_feasible(&p, 1e-9));
}

/// Nothing to ship: objective 0, no flows.
#[test]
fn ssp_zero_total_mass() {
    let p = problem(vec![0.0, 0.0], vec![0.0, 0.0], vec![1.0; 4]);
    let s = solve_ssp(&p).unwrap();
    assert_eq!(s.objective, 0.0);
    assert!(s.flows.is_empty());
}

/// The classic 3x4 textbook instance `simplex::tests::textbook_instance`
/// pins: the simplex and SSP agree on its optimum.
#[test]
fn textbook_instance_matches_ssp() {
    let p = problem(
        vec![15.0, 25.0, 10.0],
        vec![5.0, 15.0, 15.0, 15.0],
        vec![
            10.0, 2.0, 20.0, 11.0, //
            12.0, 7.0, 9.0, 20.0, //
            4.0, 14.0, 16.0, 18.0,
        ],
    );
    let simplex = solve(&p).unwrap();
    let reference = solve_ssp(&p).unwrap();
    assert!((simplex.objective - reference.objective).abs() < 1e-9);
}
