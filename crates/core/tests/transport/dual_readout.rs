//! The dual readout: an optimal solve's objective is the dual value
//! `Σ uᵢsᵢ + Σ vⱼdⱼ` of its final basis, read off the duals its last
//! optimality test computed, and the flows are extracted from that basis
//! only on request. Over square and rectangular tableaus of 1 to 48 bins
//! a side, with zero-mass bins, under tied (`|i - j|`) and continuous
//! costs, each case holds:
//!
//! * the dual value within [`objective_slack`] of the primal sum `Σ f·c`
//!   over every basic cell of the canonically extracted flows;
//! * a warm solve that ends on a cold solve's basis — seeded with it, or
//!   reached from the previous problem's basis — returns the cold bits;
//! * `emd` and `emd_with_flows` return the same distance bits.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::Budget;
use crate::cost::CostMatrix;
use crate::emd::{emd, emd_with_flows};
use crate::histogram::Histogram;
use crate::objective_slack;
use crate::problem::TransportProblem;
use crate::simplex::{solve_warm_objective, Bounded};
use crate::workspace::SolverWorkspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `dim` normalized masses, about a quarter of them zero.
fn masses(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    let mut raw: Vec<f64> = (0..dim)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen_range(0.05..1.0)
            }
        })
        .collect();
    raw[rng.gen_range(0..dim)] += 0.5;
    let total: f64 = raw.iter().sum();
    raw.iter().map(|mass| mass / total).collect()
}

/// An `m × n` row-major cost table: `|i - j|` on a line, or continuous.
fn costs(rng: &mut StdRng, m: usize, n: usize, line: bool) -> Vec<f64> {
    (0..m * n)
        .map(|k| {
            if line {
                ((k / n) as f64 - (k % n) as f64).abs()
            } else {
                rng.gen_range(0.01..10.0)
            }
        })
        .collect()
}

/// Solve `problem` to its optimum through `ws`: the objective, and the
/// primal sum over every basic cell of the flows extracted from its basis.
fn solve(problem: &TransportProblem, ws: &mut SolverWorkspace) -> (f64, f64) {
    let solved = solve_warm_objective(problem, &Budget::unlimited(), f64::INFINITY, ws);
    let Ok(Bounded::Optimal(objective)) = solved else {
        panic!("a solve without a cutoff ends at its optimum: {solved:?}");
    };
    let _ = ws.last_solution(problem.supplies(), problem.demands(), objective);
    let primal = (ws.tree.cells().zip(ws.tree.flows()))
        .map(|((row, col), &flow)| flow * problem.cost(row, col))
        .sum();
    (objective, primal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dual_value_is_the_basis_value(
        seed in 0u64..u64::MAX,
        m in 1usize..=48,
        n in 1usize..=48,
        square in prop::sample::select(vec![true, false]),
        line in prop::sample::select(vec![true, false]),
    ) {
        let n = if square { m } else { n };
        let mut rng = StdRng::seed_from_u64(seed);
        let costs = costs(&mut rng, m, n, line);
        let slack = objective_slack(m, n, costs.iter().copied().fold(0.0, f64::max));
        let supplies = masses(&mut rng, m);
        let mut chain = SolverWorkspace::new();
        for _ in 0..3 {
            let demands = masses(&mut rng, n);
            let problem = TransportProblem::new(supplies.clone(), demands.clone(), costs.clone());
            let mut cold = SolverWorkspace::new();
            let (objective, primal) = solve(&problem, &mut cold);
            prop_assert!(
                (objective - primal).abs() <= slack,
                "dual value {objective}, primal sum {primal}"
            );

            let mut seeded = SolverWorkspace::new();
            seeded.seed(m, n, &cold.warm_cells);
            let (again, _) = solve(&problem, &mut seeded);
            prop_assert_eq!(&seeded.warm_cells, &cold.warm_cells);
            prop_assert_eq!(again.to_bits(), objective.to_bits());
            let (reached, _) = solve(&problem, &mut chain);
            if chain.warm_cells == cold.warm_cells {
                prop_assert_eq!(reached.to_bits(), objective.to_bits());
            }

            let x = Histogram::new(supplies.clone()).unwrap();
            let y = Histogram::new(demands).unwrap();
            let cost = CostMatrix::new(m, n, costs.clone()).unwrap();
            let distance = emd(&x, &y, &cost).unwrap();
            let report = emd_with_flows(&x, &y, &cost).unwrap();
            prop_assert_eq!(report.distance.to_bits(), distance.to_bits());
        }
    }
}
