//! Property-based parity suite for warm-started solves: for random
//! candidate sequences sharing a supply marginal (the KNOP refinement
//! access pattern), a single reused [`SolverWorkspace`] must return
//! objectives and flows **bit-identical** to independent cold solves.
//!
//! Costs are drawn from continuous ranges, so the optimal basis is
//! generically unique, and the dual readout and the flow extraction,
//! which depend on nothing but the final basis, make warm/cold agreement
//! exact — not just up to tolerance.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::{Budget, BudgetReason};
use crate::error::TransportError;
use crate::problem::TransportProblem;
use crate::simplex::{solve, solve_warm};
use crate::workspace::SolverWorkspace;
use proptest::prelude::*;

/// Strategy: a normalized mass vector of the given length with at least one
/// strictly positive entry.
fn mass_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0_f64..1.0, len).prop_filter_map("total mass must be positive", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6).then(|| raw.iter().map(|x| x / total).collect())
    })
}

/// Strategy: a continuous random cost matrix — ties have probability
/// zero, so the optimal basis is unique and bit-parity is well-defined.
fn cost_matrix(m: usize, n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01_f64..10.0, m * n)
}

/// Strategy: one shared supply marginal + cost matrix, and a sequence of
/// demand marginals ("candidates") to solve against it.
fn candidate_sequence(
    max_dim: usize,
    max_candidates: usize,
) -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>)> {
    (2..=max_dim, 2..=max_dim, 2..=max_candidates).prop_flat_map(move |(m, n, count)| {
        (
            mass_vector(m),
            prop::collection::vec(mass_vector(n), count),
            cost_matrix(m, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Warm-started objectives and flows equal cold-start results to the
    /// bit across whole candidate sequences.
    #[test]
    fn warm_solves_are_bit_identical_to_cold(
        (supplies, demand_sets, costs) in candidate_sequence(8, 6)
    ) {
        let mut ws = SolverWorkspace::new();
        for demands in &demand_sets {
            let problem = TransportProblem::new(
                supplies.clone(),
                demands.clone(),
                costs.clone(),
            );
            let cold = solve(&problem).expect("cold solve succeeds");
            let warm = solve_warm(
                &problem,
                &Budget::unlimited(),
                &mut ws,
            ).expect("warm solve succeeds");
            prop_assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
            prop_assert_eq!(&cold.flows, &warm.flows);
        }
        // Every candidate after the first had a matching tableau shape.
        let stats = ws.stats();
        prop_assert_eq!(stats.solves, demand_sets.len() as u64);
        prop_assert_eq!(stats.warm_attempts, demand_sets.len() as u64 - 1);
    }

    /// Warm hits do less pivot work than cold solves of the same sequence:
    /// re-solving the *same* instance from its optimal basis needs zero
    /// pivots, so total pivots stay flat after the first solve.
    #[test]
    fn warm_repeat_solves_need_no_pivots(
        (supplies, demand_sets, costs) in candidate_sequence(8, 3)
    ) {
        let demands = &demand_sets[0];
        let problem = TransportProblem::new(
            supplies,
            demands.clone(),
            costs,
        );
        let mut ws = SolverWorkspace::new();
        solve_warm(&problem, &Budget::unlimited(), &mut ws)
            .expect("cold solve succeeds");
        let pivots_after_cold = ws.stats().pivots;
        for _ in 0..3 {
            solve_warm(&problem, &Budget::unlimited(), &mut ws)
                .expect("warm solve succeeds");
        }
        let stats = ws.stats();
        prop_assert_eq!(stats.warm_hits, 3);
        prop_assert_eq!(
            stats.pivots, pivots_after_cold,
            "optimal-basis warm starts must re-verify optimality without pivoting"
        );
    }

    /// Budget pivot caps still fire typed mid-warm-solve: a shared pivot
    /// pool exhausted by earlier solves fails the next warm solve with
    /// `BudgetExhausted`, never a panic or a wrong answer — and the
    /// workspace keeps working afterwards.
    #[test]
    fn budget_caps_fire_typed_mid_warm_sequence(
        (supplies, demand_sets, costs) in candidate_sequence(8, 6)
    ) {
        let mut ws = SolverWorkspace::new();
        let budget = Budget::unlimited().with_pivot_cap(1);
        let mut exhausted = false;
        for demands in &demand_sets {
            let problem = TransportProblem::new(
                supplies.clone(),
                demands.clone(),
                costs.clone(),
            );
            match solve_warm(&problem, &budget, &mut ws) {
                Ok(solution) => {
                    let cold = solve(&problem).expect("cold solve succeeds");
                    prop_assert_eq!(cold.objective.to_bits(), solution.objective.to_bits());
                }
                Err(TransportError::BudgetExhausted { reason }) => {
                    prop_assert_eq!(reason, BudgetReason::PivotCap);
                    exhausted = true;
                    // The workspace survives the failure: an unlimited
                    // budget solves the same instance bit-identically.
                    let retry = solve_warm(
                        &problem,
                        &Budget::unlimited(),
                        &mut ws,
                    ).expect("unlimited retry succeeds");
                    let cold = solve(&problem).expect("cold solve succeeds");
                    prop_assert_eq!(cold.objective.to_bits(), retry.objective.to_bits());
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
            if exhausted {
                break;
            }
        }
    }

    /// Shape changes mid-sequence fall back to cold starts and stay
    /// bit-identical; the workspace then re-warms for the new shape.
    #[test]
    fn shape_changes_fall_back_and_rewarm(
        (supplies_a, demands_a, costs_a) in candidate_sequence(6, 2),
        (supplies_b, demands_b, costs_b) in candidate_sequence(7, 2),
    ) {
        let mut ws = SolverWorkspace::new();
        for (supplies, demand_sets, costs) in [
            (&supplies_a, &demands_a, &costs_a),
            (&supplies_b, &demands_b, &costs_b),
        ] {
            for demands in demand_sets.iter() {
                let problem = TransportProblem::new(
                    supplies.clone(),
                    demands.clone(),
                    costs.clone(),
                );
                let cold = solve(&problem).expect("cold solve succeeds");
                let warm = solve_warm(
                    &problem,
                    &Budget::unlimited(),
                    &mut ws,
                ).expect("warm solve succeeds");
                prop_assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
                prop_assert_eq!(&cold.flows, &warm.flows);
            }
        }
    }
}

/// Deterministic (non-proptest) smoke check that reports pivot counts and
/// the warm hit rate, so `cargo test -p emd-core --lib -- --nocapture
/// transport::warm_start` shows the cold-vs-warm pivot economics at a
/// glance.
///
/// The candidate sequence *drifts*: each demand marginal is a small
/// perturbation of the previous one — the access pattern warm starts are
/// designed for (KNOP pulls candidates in ascending filter-distance
/// order, so consecutive candidates resemble each other). Unrelated
/// marginals usually re-fit infeasibly and fall back to cold, which the
/// proptest cases above cover.
#[test]
fn pivot_counts_reported() {
    let dim = 12usize;
    let supplies: Vec<f64> = (0..dim).map(|i| f64::from(i as u32 + 1)).collect();
    let total: f64 = supplies.iter().sum();
    let supplies: Vec<f64> = supplies.iter().map(|s| s / total).collect();
    let costs: Vec<f64> = (0..dim * dim)
        .map(|k| {
            let (i, j) = (k / dim, k % dim);
            // Deterministic irrational-ish spread: unique optimum.
            ((i * 31 + j * 17) as f64).sin().abs() + 0.01
        })
        .collect();
    // Drifting demand sequence: multiplicative noise around a fixed base.
    let mut raw: Vec<f64> = (0..dim).map(|j| 1.0 + f64::from(j as u32)).collect();
    let mut ws = SolverWorkspace::new();
    let mut cold_pivots = 0u64;
    for step in 0..12 {
        for (j, mass) in raw.iter_mut().enumerate() {
            *mass *= 0.02_f64.mul_add(((step * 13 + j * 7) as f64).sin(), 1.0);
        }
        let dtotal: f64 = raw.iter().sum();
        let demands: Vec<f64> = raw.iter().map(|d| d / dtotal).collect();
        let problem = TransportProblem::new(supplies.clone(), demands, costs.clone());
        let mut cold_ws = SolverWorkspace::new();
        let cold = solve_warm(&problem, &Budget::unlimited(), &mut cold_ws).unwrap();
        cold_pivots += cold_ws.stats().pivots;
        let warm = solve_warm(&problem, &Budget::unlimited(), &mut ws).unwrap();
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
    }
    let stats = ws.stats();
    println!(
        "warm drift sequence: {} solves, {}/{} warm hits, {} pivots (cold baseline {} pivots)",
        stats.solves, stats.warm_hits, stats.warm_attempts, stats.pivots, cold_pivots
    );
    assert!(
        stats.warm_hits >= stats.warm_attempts / 2,
        "drifting candidates should mostly re-fit feasibly ({}/{} hits)",
        stats.warm_hits,
        stats.warm_attempts
    );
    assert!(
        stats.pivots < cold_pivots,
        "warm sequence must pivot less than cold ({} >= {})",
        stats.pivots,
        cold_pivots
    );
}
