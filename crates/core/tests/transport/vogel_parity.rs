//! The incremental Vogel start against the full rescan it replaced.
//!
//! `initial_basis` keeps each line's two cheapest active cells and
//! rescans a line only when it loses one of them. [`oracle`] is the body it
//! replaced, which rescans every active line after every allocation. The
//! two must return the same cells in the same order with the same flow
//! bits on every instance: random costs, integer costs in `0..4` (ties
//! everywhere), `1 x n` / `m x 1` and other rectangular shapes, and equal
//! marginals, where every allocation closes a row and a column at once.
//! A broken tie rule fails here under its own name, and the warm chains,
//! pivots and distances above it would move with it.
//!
//! The last property runs cold starts of changing shapes through one
//! workspace, whose Vogel scratch is reused: each must answer exactly as
//! a fresh workspace does.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::Budget;
use crate::problem::TransportProblem;
use crate::simplex::{solve, solve_warm};
use crate::vogel::initial_basis;
use crate::workspace::SolverWorkspace;
use proptest::prelude::*;

mod oracle {
    //! `vogel::initial_basis` and `best_penalty_cell` as they stood before
    //! the line minima were kept incrementally, verbatim but for the tail
    //! that counted degenerate cells and certified the basis.

    use crate::problem::TransportProblem;
    use crate::vogel::InitialBasis;

    /// Compute an initial basic feasible solution using Vogel's approximation
    /// method (penalty heuristic). Vogel starts the simplex much closer to
    /// optimality than a cost-blind rule at modest extra cost, which pays off
    /// for the EMD tableaus this crate is used for.
    pub fn initial_basis(problem: &TransportProblem) -> InitialBasis {
        let m = problem.num_sources();
        let n = problem.num_targets();
        let mut supply: Vec<f64> = problem.supplies().to_vec();
        let mut demand: Vec<f64> = problem.demands().to_vec();
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; n];
        let mut rows_left = m;
        let mut cols_left = n;
        let mut cells = Vec::with_capacity(m + n - 1);

        while rows_left > 0 && cols_left > 0 {
            // When a single line remains, allocate everything along it. The
            // `rows_left`/`cols_left` counters guarantee `position` finds an
            // active line; the `else` arms are unreachable fallbacks that keep
            // this function panic-free.
            if rows_left == 1 {
                let Some(i) = row_active.iter().position(|&a| a) else {
                    debug_assert!(false, "rows_left == 1 but no active row");
                    break;
                };
                for j in 0..n {
                    if col_active[j] {
                        cells.push((i, j, demand[j].max(0.0)));
                    }
                }
                break;
            }
            if cols_left == 1 {
                let Some(j) = col_active.iter().position(|&a| a) else {
                    debug_assert!(false, "cols_left == 1 but no active column");
                    break;
                };
                for i in 0..m {
                    if row_active[i] {
                        cells.push((i, j, supply[i].max(0.0)));
                    }
                }
                break;
            }

            let (i, j) = best_penalty_cell(problem, &row_active, &col_active);
            let quantity = supply[i].min(demand[j]);
            cells.push((i, j, quantity));
            supply[i] -= quantity;
            demand[j] -= quantity;
            // Close exactly one line per allocation; closing both at once would
            // lose a basic cell and leave the basis short of m + n - 1 edges.
            if supply[i] <= demand[j] {
                row_active[i] = false;
                rows_left -= 1;
            } else {
                col_active[j] = false;
                cols_left -= 1;
            }
        }

        InitialBasis { cells }
    }

    /// Pick the cheapest cell on the line (row or column) with the largest
    /// Vogel penalty, i.e. the largest regret for not using its cheapest cell.
    // Indexed loops mirror the (i, j) tableau coordinates.
    #[allow(clippy::needless_range_loop)]
    fn best_penalty_cell(
        problem: &TransportProblem,
        row_active: &[bool],
        col_active: &[bool],
    ) -> (usize, usize) {
        let m = problem.num_sources();
        let n = problem.num_targets();

        let mut best_penalty = f64::NEG_INFINITY;
        let mut best_cell = (usize::MAX, usize::MAX);
        let mut best_cost = f64::INFINITY;

        for i in 0..m {
            if !row_active[i] {
                continue;
            }
            let mut min1 = f64::INFINITY;
            let mut min2 = f64::INFINITY;
            let mut argmin = usize::MAX;
            let row = problem.cost_row(i);
            for (j, &c) in row.iter().enumerate() {
                if !col_active[j] {
                    continue;
                }
                if c < min1 {
                    min2 = min1;
                    min1 = c;
                    argmin = j;
                } else if c < min2 {
                    min2 = c;
                }
            }
            let penalty = if min2.is_finite() { min2 - min1 } else { 0.0 };
            if penalty > best_penalty || (penalty == best_penalty && min1 < best_cost) {
                best_penalty = penalty;
                best_cell = (i, argmin);
                best_cost = min1;
            }
        }

        for j in 0..n {
            if !col_active[j] {
                continue;
            }
            let mut min1 = f64::INFINITY;
            let mut min2 = f64::INFINITY;
            let mut argmin = usize::MAX;
            for i in 0..m {
                if !row_active[i] {
                    continue;
                }
                let c = problem.cost(i, j);
                if c < min1 {
                    min2 = min1;
                    min1 = c;
                    argmin = i;
                } else if c < min2 {
                    min2 = c;
                }
            }
            let penalty = if min2.is_finite() { min2 - min1 } else { 0.0 };
            if penalty > best_penalty || (penalty == best_penalty && min1 < best_cost) {
                best_penalty = penalty;
                best_cell = (argmin, j);
                best_cost = min1;
            }
        }

        debug_assert!(best_cell.0 != usize::MAX && best_cell.1 != usize::MAX);
        best_cell
    }
}

/// A basis as `(row, col, flow bits)`, in allocation order.
fn bits(cells: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
    cells.iter().map(|&(i, j, f)| (i, j, f.to_bits())).collect()
}

/// Both bodies on `problem`, cell for cell and bit for bit.
fn assert_same_basis(problem: &TransportProblem) {
    let incremental = bits(&initial_basis(problem).cells);
    let rescan = bits(&oracle::initial_basis(problem).cells);
    assert_eq!(incremental, rescan);
}

/// Normalized masses of the given length, some of them exactly zero, with
/// a positive total.
fn masses(len: usize) -> impl Strategy<Value = Vec<f64>> {
    let mass = (
        prop::sample::select(vec![0.0, 0.05, 0.5, 1.0]),
        0.0_f64..1.0,
    )
        .prop_map(|(floor, x)| if floor > 0.0 { floor + x } else { 0.0 });
    prop::collection::vec(mass, len).prop_filter_map("total mass must be positive", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6).then(|| raw.iter().map(|x| x / total).collect())
    })
}

/// Costs in `0..10`, or with `tied` integers in `0..4`, where most
/// penalties and minima tie.
fn costs(len: usize, tied: bool) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0_f64..10.0, len).prop_map(move |costs| {
        if tied {
            costs.iter().map(|c| (c * 0.4).floor()).collect()
        } else {
            costs
        }
    })
}

/// An `m x n` instance.
fn instance(m: usize, n: usize, tied: bool) -> impl Strategy<Value = TransportProblem> {
    (masses(m), masses(n), costs(m * n, tied)).prop_map(|(supplies, demands, costs)| {
        TransportProblem::new(supplies, demands, costs).expect("generated instances are valid")
    })
}

fn either() -> impl Strategy<Value = bool> {
    prop::sample::select(vec![true, false])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_costs_give_the_rescans_basis(
        problem in (1usize..=14, 1usize..=14).prop_flat_map(|(m, n)| instance(m, n, false)),
    ) {
        assert_same_basis(&problem);
    }

    #[test]
    fn tied_costs_give_the_rescans_basis(
        problem in (1usize..=14, 1usize..=14).prop_flat_map(|(m, n)| instance(m, n, true)),
    ) {
        assert_same_basis(&problem);
    }

    /// `1 x n`, `m x 1` and long, thin tableaus either way round.
    #[test]
    fn rectangular_shapes_give_the_rescans_basis(
        problem in (1usize..=24, 1usize..=3, either(), either())
            .prop_flat_map(|(long, short, wide, tied)| {
                let (m, n) = if wide { (short, long) } else { (long, short) };
                instance(m, n, tied)
            }),
    ) {
        assert_same_basis(&problem);
    }

    /// Equal marginals: supply `i` is demand `i` to the bit, so allocations
    /// exhaust a row and a column at once and the basis is padded with
    /// zero-flow cells.
    #[test]
    fn equal_masses_give_the_rescans_basis(
        problem in (1usize..=12, either())
            .prop_flat_map(|(m, tied)| (masses(m), costs(m * m, tied)))
            .prop_map(|(masses, costs)| {
                TransportProblem::new(masses.clone(), masses, costs)
                    .expect("generated instances are valid")
            }),
    ) {
        assert_same_basis(&problem);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold starts of changing shapes through one workspace reuse its
    /// Vogel scratch, and answer exactly as fresh workspaces do.
    #[test]
    fn reused_scratch_starts_as_a_fresh_one(
        problems in prop::collection::vec(
            (1usize..=10, 1usize..=10, either()).prop_flat_map(|(m, n, tied)| instance(m, n, tied)),
            2..8,
        ),
    ) {
        let mut workspace = SolverWorkspace::new();
        for problem in &problems {
            workspace.clear_warm_state();
            let reused = solve_warm(problem, &Budget::unlimited(), &mut workspace).unwrap();
            let fresh = solve(problem).unwrap();
            prop_assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            prop_assert_eq!(reused.flows, fresh.flows);
        }
    }
}
