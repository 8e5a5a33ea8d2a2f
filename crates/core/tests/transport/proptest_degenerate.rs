//! Stress tests for degenerate transportation instances: sparse masses,
//! ties everywhere, duplicate costs — the cases that break naive simplex
//! implementations (cycling, lost basis edges).

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::ssp::solve_ssp;
use crate::certify::certify_solution;
use crate::problem::TransportProblem;
use crate::simplex::solve;
use proptest::prelude::*;

/// A mass vector where most entries are zero and several are *equal* —
/// maximal tie pressure.
fn spiky_mass(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop::option::weighted(0.4, Just(1.0_f64)), len).prop_filter_map(
        "at least one spike",
        |raw| {
            let spikes: Vec<f64> = raw.into_iter().map(|x| x.unwrap_or(0.0)).collect();
            let total: f64 = spikes.iter().sum();
            (total > 0.0).then(|| spikes.iter().map(|x| x / total).collect())
        },
    )
}

/// Costs drawn from a tiny set of values: huge numbers of ties.
fn quantized_costs(m: usize, n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop::sample::select(vec![0.0, 1.0, 2.0, 5.0]), m * n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Degenerate spiky instances still solve to the SSP optimum.
    #[test]
    fn spiky_instances_agree_with_reference(
        supplies in spiky_mass(10),
        demands in spiky_mass(10),
        costs in quantized_costs(10, 10),
    ) {
        let problem = TransportProblem::new(supplies, demands, costs);
        let simplex = solve(&problem).expect("no cycling on tie-heavy instances");
        let reference = solve_ssp(&problem).unwrap();
        prop_assert!((simplex.objective - reference.objective).abs() < 1e-8);
        prop_assert!(certify_solution(&problem, &simplex, 1e-8).is_ok());
    }

    /// Identical supply and demand spikes with zero-diagonal quantized
    /// costs: the optimum is exactly zero and no pivot may diverge.
    #[test]
    fn identity_spikes_cost_zero(mass in spiky_mass(12)) {
        let d = mass.len();
        let mut costs = vec![2.0; d * d];
        for i in 0..d {
            costs[i * d + i] = 0.0;
        }
        let problem = TransportProblem::new(mass.clone(), mass, costs);
        let solution = solve(&problem).unwrap();
        prop_assert!(solution.objective.abs() < 1e-10);
    }

    /// All-equal costs: any feasible flow is optimal; the objective equals
    /// the (constant) cost times total mass.
    #[test]
    fn constant_costs_are_trivial(
        supplies in spiky_mass(8),
        demands in spiky_mass(8),
        constant in 0.0_f64..7.0,
    ) {
        let problem = TransportProblem::new(
            supplies,
            demands,
            vec![constant; 64],
        );
        let solution = solve(&problem).unwrap();
        prop_assert!((solution.objective - constant).abs() < 1e-9,
            "total mass 1 shipped at constant cost");
    }
}
