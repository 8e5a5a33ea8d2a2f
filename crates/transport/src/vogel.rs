//! The initial basic feasible solution of a cold transportation-simplex
//! start: Vogel's approximation method.

use crate::problem::TransportProblem;

/// An initial basic feasible solution for the transportation simplex.
///
/// Contains exactly `m + n - 1` basic cells (degenerate cells carry zero
/// flow), which is the size of a spanning-tree basis for the transportation
/// polytope.
#[derive(Debug, Clone)]
pub struct InitialBasis {
    /// Basic cells as `(source, target, flow)`.
    pub cells: Vec<(usize, usize, f64)>,
}

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

    let basis = InitialBasis { cells };
    if emd_obs::enabled() {
        // Zero-flow cells are the degenerate padding that keeps the basis
        // a spanning tree of m + n - 1 edges; report them as basis repairs.
        let degenerate = basis
            .cells
            .iter()
            .filter(|&&(_, _, flow)| flow <= crate::EPS)
            .count();
        emd_obs::counter_add("transport.vogel.degenerate_cells", degenerate as u64);
    }
    crate::certify::debug_certify_basis(problem, &basis);
    basis
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

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible(basis: &InitialBasis, problem: &TransportProblem) -> bool {
        let m = problem.num_sources();
        let n = problem.num_targets();
        let mut rows = vec![0.0; m];
        let mut cols = vec![0.0; n];
        for &(i, j, f) in &basis.cells {
            if f < -1e-12 {
                return false;
            }
            rows[i] += f;
            cols[j] += f;
        }
        rows.iter()
            .zip(problem.supplies())
            .all(|(&a, &b)| (a - b).abs() < 1e-9)
            && cols
                .iter()
                .zip(problem.demands())
                .all(|(&a, &b)| (a - b).abs() < 1e-9)
    }

    fn sample_problem() -> TransportProblem {
        TransportProblem::new(
            vec![0.3, 0.3, 0.4],
            vec![0.2, 0.5, 0.3],
            vec![4.0, 1.0, 3.0, 2.0, 5.0, 2.0, 3.0, 3.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn vogel_produces_spanning_feasible_basis() {
        let problem = sample_problem();
        let basis = initial_basis(&problem);
        assert_eq!(basis.cells.len(), 5);
        assert!(feasible(&basis, &problem));
    }

    #[test]
    fn vogel_handles_degenerate_equal_masses() {
        // Supply i exactly equals demand i: every allocation is degenerate.
        let problem =
            TransportProblem::new(vec![0.5, 0.5], vec![0.5, 0.5], vec![0.0, 1.0, 1.0, 0.0])
                .unwrap();
        let basis = initial_basis(&problem);
        assert_eq!(basis.cells.len(), 3);
        assert!(feasible(&basis, &problem));
    }

    #[test]
    fn vogel_single_row() {
        let problem = TransportProblem::new(vec![1.0], vec![0.25, 0.75], vec![3.0, 1.0]).unwrap();
        let basis = initial_basis(&problem);
        assert_eq!(basis.cells.len(), 2);
        assert!(feasible(&basis, &problem));
    }

    #[test]
    fn vogel_single_column() {
        let problem = TransportProblem::new(vec![0.25, 0.75], vec![1.0], vec![3.0, 1.0]).unwrap();
        let basis = initial_basis(&problem);
        assert_eq!(basis.cells.len(), 2);
        assert!(feasible(&basis, &problem));
    }

    #[test]
    fn vogel_prefers_cheap_cells() {
        // With a clear cheap diagonal, Vogel should allocate on it.
        let problem =
            TransportProblem::new(vec![0.5, 0.5], vec![0.5, 0.5], vec![0.0, 10.0, 10.0, 0.0])
                .unwrap();
        let basis = initial_basis(&problem);
        let cost: f64 = basis
            .cells
            .iter()
            .map(|&(i, j, f)| f * problem.cost(i, j))
            .sum();
        assert!(cost < 1e-12, "Vogel should find the zero-cost assignment");
    }
}
