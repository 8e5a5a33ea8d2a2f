//! The initial basic feasible solution of a cold transportation-simplex
//! start: Vogel's approximation method.
//!
//! Each step allocates on the cheapest cell of the line (row or column)
//! whose two cheapest active cells differ most, then closes one line. The
//! textbook body rescans every active row and column after each of its
//! `m + n − 1` allocations, `O((m + n)·m·n)` per start. Here every line
//! keeps its two cheapest active cells ([`LineMin`]) instead. Closing a
//! line takes one cell out of each crossing line, and only a crossing line
//! that loses one of the two cells it keeps — its cost at the closed line
//! is then `≤` its `min2` — is rescanned; every other line's two smallest
//! costs and first argmin cannot change. The selection therefore reads
//! the very numbers the full rescan computes, and with the pick order,
//! the `penalty == best && min1 < best_cost` tie rule and the single-line
//! endgame unchanged, the basis is the rescan's cell for cell and flow bit
//! for flow bit (`tests/vogel_parity.rs` keeps the rescan as its oracle).
//! A start costs one pass over the tableau plus `O(m + n)` per allocation
//! and the rescans, and its scratch lives in the
//! [`SolverWorkspace`](crate::workspace::SolverWorkspace): once that has grown, a cold
//! start allocates nothing.

use crate::problem::TransportProblem;

/// An initial basic feasible solution for the transportation simplex.
///
/// Contains exactly `m + n - 1` basic cells (degenerate cells carry zero
/// flow), which is the size of a spanning-tree basis for the transportation
/// polytope.
#[derive(Debug, Clone)]
pub(crate) struct InitialBasis {
    /// Basic cells as `(source, target, flow)`.
    pub cells: Vec<(usize, usize, f64)>,
}

/// A line's two cheapest active cells: the first two of its active cells
/// stably sorted by cost, which is exactly what a scan in index order with
/// strict `<` keeps. Dropping any other cell leaves them in place, so a
/// line needs a rescan only when it loses `arg1` or `arg2`.
#[derive(Debug, Clone, Copy)]
struct LineMin {
    min1: f64,
    min2: f64,
    /// The crossing line of `min1`: the first cheapest cell.
    arg1: usize,
    /// The crossing line of `min2`.
    arg2: usize,
}

impl LineMin {
    const EMPTY: LineMin = LineMin {
        min1: f64::INFINITY,
        min2: f64::INFINITY,
        arg1: usize::MAX,
        arg2: usize::MAX,
    };

    /// Offer the cell at crossing line `at`; cells arrive in index order.
    #[inline]
    fn push(&mut self, at: usize, cost: f64) {
        if cost < self.min1 {
            self.min2 = self.min1;
            self.arg2 = self.arg1;
            self.min1 = cost;
            self.arg1 = at;
        } else if cost < self.min2 {
            self.min2 = cost;
            self.arg2 = at;
        }
    }

    /// Vogel's penalty: the regret for not using the cheapest cell.
    fn penalty(&self) -> f64 {
        if self.min2.is_finite() {
            self.min2 - self.min1
        } else {
            0.0
        }
    }

    /// Whether closing crossing line `at` changes this line's minima.
    fn keeps(&self, at: usize) -> bool {
        self.arg1 == at || self.arg2 == at
    }
}

/// Vogel's scratch, kept in the workspace across cold starts.
#[derive(Debug, Clone, Default)]
pub(crate) struct VogelScratch {
    /// Remaining supply per row and demand per column.
    supply: Vec<f64>,
    demand: Vec<f64>,
    /// Active rows and columns, ascending.
    rows: Vec<usize>,
    cols: Vec<usize>,
    /// Minima over the active crossing lines, per row and per column.
    row_min: Vec<LineMin>,
    col_min: Vec<LineMin>,
}

/// Compute an initial basic feasible solution using Vogel's approximation
/// method (penalty heuristic). Vogel starts the simplex much closer to
/// optimality than a cost-blind rule, and with incrementally kept line
/// minima it costs little more than one pass over the tableau, which pays
/// off for EMD tableaus.
///
/// The basic cells go into `cells`, their flows into `flows` (both
/// cleared first), so a warm workspace reuses its buffers.
pub(crate) fn initial_basis_into(
    problem: &TransportProblem,
    scratch: &mut VogelScratch,
    cells: &mut Vec<(usize, usize)>,
    flows: &mut Vec<f64>,
) {
    let n = problem.num_targets();
    let VogelScratch {
        supply,
        demand,
        rows,
        cols,
        row_min,
        col_min,
    } = scratch;
    supply.clear();
    supply.extend_from_slice(problem.supplies());
    demand.clear();
    demand.extend_from_slice(problem.demands());
    rows.clear();
    rows.extend(0..problem.num_sources());
    cols.clear();
    cols.extend(0..n);
    cells.clear();
    flows.clear();

    // One row-major pass: each row scans its cells in column order and
    // each column is offered its cells in row order, as a rescan would.
    row_min.clear();
    col_min.clear();
    col_min.resize(n, LineMin::EMPTY);
    for (i, row) in problem.costs().chunks_exact(n).enumerate() {
        let mut line = LineMin::EMPTY;
        for ((j, &c), column) in row.iter().enumerate().zip(col_min.iter_mut()) {
            line.push(j, c);
            column.push(i, c);
        }
        row_min.push(line);
    }

    while !rows.is_empty() && !cols.is_empty() {
        // When a single line remains, allocate everything along it.
        if let &[i] = rows.as_slice() {
            for &j in cols.iter() {
                cells.push((i, j));
                flows.push(demand[j].max(0.0)); // bounds: active columns are < n = demand.len()
            }
            break;
        }
        if let &[j] = cols.as_slice() {
            for &i in rows.iter() {
                cells.push((i, j));
                flows.push(supply[i].max(0.0)); // bounds: active rows are < m = supply.len()
            }
            break;
        }

        let (i, j) = best_penalty_cell(rows, cols, row_min, col_min);
        // bounds: the picked cell's row and column are active lines, < m and < n
        let (left, wanted) = (&mut supply[i], &mut demand[j]);
        let quantity = left.min(*wanted);
        cells.push((i, j));
        flows.push(quantity);
        *left -= quantity;
        *wanted -= quantity;
        // Close exactly one line per allocation; closing both at once would
        // lose a basic cell and leave the basis short of m + n - 1 edges.
        // Lines crossing the closed one are rescanned only if they lose a
        // kept cell, and not at all when the endgame comes next.
        if *left <= *wanted {
            close(rows, i);
            if rows.len() > 1 {
                for &col in cols.iter() {
                    let line = &mut col_min[col]; // bounds: active columns are < n = col_min.len()
                    if line.keeps(i) {
                        *line = LineMin::EMPTY;
                        for &row in rows.iter() {
                            line.push(row, problem.cost(row, col));
                        }
                    }
                }
            }
        } else {
            close(cols, j);
            if cols.len() > 1 {
                for &row in rows.iter() {
                    let line = &mut row_min[row]; // bounds: active rows are < m = row_min.len()
                    if line.keeps(j) {
                        *line = LineMin::EMPTY;
                        let costs = problem.cost_row(row);
                        for &col in cols.iter() {
                            line.push(col, costs[col]); // bounds: active columns are < n = costs.len()
                        }
                    }
                }
            }
        }
    }

    if emd_obs::enabled() {
        // Zero-flow cells are the degenerate padding that keeps the basis
        // a spanning tree of m + n - 1 edges; report them as basis repairs.
        let degenerate = flows.iter().filter(|&&flow| flow <= crate::EPS).count();
        emd_obs::counter_add("transport.vogel.degenerate_cells", degenerate as u64);
    }
    if cfg!(debug_assertions) {
        let cells = cells.iter().zip(flows.iter());
        let basis = InitialBasis {
            cells: cells.map(|(&(row, col), &flow)| (row, col, flow)).collect(),
        };
        crate::certify::debug_certify_basis(problem, &basis);
    }
}

/// Drop `line` from the ascending active list `lines`.
fn close(lines: &mut Vec<usize>, line: usize) {
    if let Ok(at) = lines.binary_search(&line) {
        lines.remove(at);
    } else {
        debug_assert!(false, "closing line {line}, which is not active");
    }
}

/// Pick the cheapest cell on the line (row or column) with the largest
/// Vogel penalty, i.e. the largest regret for not using its cheapest cell:
/// rows first, then columns, each in index order.
fn best_penalty_cell(
    rows: &[usize],
    cols: &[usize],
    row_min: &[LineMin],
    col_min: &[LineMin],
) -> (usize, usize) {
    let mut best_penalty = f64::NEG_INFINITY;
    let mut best_cell = (usize::MAX, usize::MAX);
    let mut best_cost = f64::INFINITY;
    let rows = rows.iter().map(|&i| (i, true));
    for (line, is_row) in rows.chain(cols.iter().map(|&j| (j, false))) {
        // bounds: active lines index their side's minima
        let min = if is_row { row_min[line] } else { col_min[line] };
        let penalty = min.penalty();
        // float: exact — the tie rule compares penalties as the rescan computed them, bit for bit
        if penalty > best_penalty || (penalty == best_penalty && min.min1 < best_cost) {
            best_penalty = penalty;
            best_cell = if is_row {
                (line, min.arg1)
            } else {
                (min.arg1, line)
            };
            best_cost = min.min1;
        }
    }
    debug_assert!(best_cell.0 != usize::MAX && best_cell.1 != usize::MAX);
    best_cell
}

#[cfg(test)]
/// [`initial_basis_into`] into a fresh [`InitialBasis`], for the tests.
pub(crate) fn initial_basis(problem: &TransportProblem) -> InitialBasis {
    let (mut cells, mut flows) = (Vec::new(), Vec::new());
    initial_basis_into(
        problem,
        &mut VogelScratch::default(),
        &mut cells,
        &mut flows,
    );
    let cells = cells.into_iter().zip(flows);
    InitialBasis {
        cells: cells.map(|((row, col), flow)| (row, col, flow)).collect(),
    }
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

    #[test]
    fn line_minima_are_the_first_two_of_a_stable_sort() {
        // Ties keep the earlier cell: a rescan in index order with strict
        // `<` does the same, which is what makes skipping rescans exact.
        let mut line = LineMin::EMPTY;
        for (at, cost) in [3.0, 1.0, 2.0, 1.0, 2.0].into_iter().enumerate() {
            line.push(at, cost);
        }
        assert_eq!(
            (line.min1, line.arg1, line.min2, line.arg2),
            (1.0, 1, 1.0, 3)
        );
        assert!(line.keeps(1) && line.keeps(3) && !line.keeps(2));
        assert_eq!(line.penalty(), 0.0);
        assert_eq!(LineMin::EMPTY.penalty(), 0.0);
    }
}
