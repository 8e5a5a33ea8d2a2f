//! The expected-tightness objective of the flow-based reduction
//! (Equations 11 and 12, Figure 7 of the paper).
//!
//! For a reduction `R`, aggregated average flows
//! `aggrFlow(F, R, i', j') = sum_{i in group(i')} sum_{j in group(j')} f_ij`
//! are weighted by the optimally reduced cost matrix `C'`:
//!
//! ```text
//! tightness(R) = sum_{i'} sum_{j'} aggrFlow(F, R, i', j') * c'_{i'j'}
//! ```
//!
//! Larger is better: the aggregated flows approximate the flows a reduced
//! EMD would produce, so a larger weighted sum predicts a tighter lower
//! bound (Section 3.4).
//!
//! Note on fidelity: the paper's Figure 7 pseudo-code passes the *old* `R`
//! to `aggrFlow` while reducing the cost matrix with the modified `R'`.
//! Equation 12 defines the measure with a single reduction matrix, and
//! mixing the two would make the sum inconsistent (flows and costs
//! aggregated over different groups), so we read Figure 7's `R` as a typo
//! for `R'` and evaluate both terms under the modified reduction.

use crate::flow_sample::FlowSample;
use crate::matrix::CombiningReduction;
use emd_core::CostMatrix;

/// One reduced cell: `(aggrFlow, c')`.
type Cell = (f64, f64);

/// Evaluates the expected tightness of reductions against a fixed flow
/// sample and cost matrix.
///
/// [`tightness`](Self::tightness) scores a reduction with one pass over
/// the `d x d` matrices and keeps its `d' x d'` cells as the *base*;
/// [`move_tightness`](Self::move_tightness) then scores one dimension
/// moved to another group from those cells, refolding only the rows and
/// columns of the two groups the move changes. Owns its buffers, so the
/// inner loop of FB-Mod/FB-All does not allocate.
#[derive(Debug, Clone)]
pub struct TightnessEvaluator<'a> {
    flows: &'a FlowSample,
    cost: &'a CostMatrix,
    /// The base reduction's groups, each in ascending order.
    groups: Vec<Vec<usize>>,
    /// Row-major `d' x d'` cells of the base reduction.
    base: Vec<Cell>,
    /// The base cells with one move's rows and columns refolded.
    moved: Vec<Cell>,
    /// `(o, a)`: the moving dimension and its base group, whose
    /// refolds the next three hold.
    source_of: Option<(usize, usize)>,
    /// `a \ {o}` for a move of `o` out of group `a`.
    source_members: Vec<usize>,
    /// Cells `(a \ {o}, y)` and `(y, a \ {o})` for every base group `y`
    /// (at `y = a`, the cell of `a \ {o}` with itself).
    source_row: Vec<Cell>,
    source_col: Vec<Cell>,
    /// `b ∪ {o}` for a move of `o` into group `b`.
    target_members: Vec<usize>,
}

impl<'a> TightnessEvaluator<'a> {
    /// Create an evaluator for `flows` under `cost`.
    pub fn new(flows: &'a FlowSample, cost: &'a CostMatrix) -> Self {
        debug_assert_eq!(cost.rows(), flows.dim());
        debug_assert_eq!(cost.cols(), flows.dim());
        TightnessEvaluator {
            flows,
            cost,
            groups: Vec::new(),
            base: Vec::new(),
            moved: Vec::new(),
            source_of: None,
            source_members: Vec::new(),
            source_row: Vec::new(),
            source_col: Vec::new(),
            target_members: Vec::new(),
        }
    }

    /// `calcTight` of Figure 7 without the temporary reassignment: the
    /// expected tightness of `r` itself. `r` becomes the base that
    /// [`move_tightness`](Self::move_tightness) moves from.
    pub fn tightness(&mut self, r: &CombiningReduction) -> f64 {
        let dim = self.flows.dim();
        debug_assert_eq!(r.original_dim(), dim);
        let d_red = r.reduced_dim();
        self.base.clear();
        self.base.resize(d_red * d_red, (0.0, f64::INFINITY));
        self.moved.resize(d_red * d_red, (0.0, 0.0));
        self.groups.resize_with(d_red, Vec::new);
        self.groups.iter_mut().for_each(Vec::clear);
        self.source_of = None;

        // Single pass over the original d x d matrices: scatter-add the
        // flows and scatter-min the costs into the reduced cells. A
        // cell's flow is therefore an i-major fold over its groups'
        // ascending members, starting at 0.0 — the order `fold` repeats.
        for i in 0..dim {
            let target_row = r.target_of(i) * d_red;
            // bounds: `target_of` is below d' = groups.len()
            self.groups[r.target_of(i)].push(i);
            for (j, &c) in self.cost.row(i).iter().enumerate() {
                // bounds: both targets are below d', the cells are d' x d'
                let cell = &mut self.base[target_row + r.target_of(j)];
                cell.0 += self.flows.flow(i, j);
                if c < cell.1 {
                    cell.1 = c;
                }
            }
        }
        score(&self.base)
    }

    /// `calcTight(R, F, C, origDim, newRedDim, d')` of Figure 7: the
    /// expected tightness of the base reduction (the last one
    /// [`tightness`](Self::tightness) scored) with `original` moved to
    /// group `target`, bit for bit what `tightness` returns for the moved
    /// reduction. `None` if the move would empty the source group
    /// (invalid under Definition 3).
    ///
    /// Only the cells in the rows and columns of the source group `a`
    /// and the target group `b` change. Each is refolded in the full
    /// pass's order with `a \ {o}` or `b ∪ {o}` as members, the source
    /// group's row and column once per `original`; every other cell is
    /// the base's. A move costs `O(d * (|a| + |b|))`, not `O(d^2)`.
    pub fn move_tightness(&mut self, original: usize, target: usize) -> Option<f64> {
        let d_red = self.groups.len();
        debug_assert!(original < self.flows.dim() && target < d_red);
        let a = match self.source_of {
            Some((o, a)) if o == original => a,
            _ => self.load_source(original),
        };
        if target == a {
            return Some(score(&self.base));
        }
        if self.source_members.is_empty() {
            return None;
        }
        // bounds: `target` is below d' = groups.len()
        let b = &self.groups[target];
        let at = b.partition_point(|&m| m < original);
        self.target_members.clear();
        self.target_members.extend_from_slice(&b[..at]); // bounds: `at <= b.len()`
        self.target_members.push(original);
        self.target_members.extend_from_slice(&b[at..]); // bounds: `at <= b.len()`

        let (flows, cost) = (self.flows, self.cost);
        let (groups, source, moved_to) = (&self.groups, &self.source_members, &self.target_members);
        // The groups after the move: `a \ {o}` at `a`, `b ∪ {o}` at `b`.
        let members = |y: usize| match y {
            _ if y == a => source.as_slice(),
            _ if y == target => moved_to.as_slice(),
            _ => groups[y].as_slice(), // bounds: y < d' = groups.len()
        };
        let rows = self
            .moved
            .chunks_exact_mut(d_red)
            .zip(self.base.chunks_exact(d_red));
        for (x, (row, base_row)) in rows.enumerate() {
            if x == a {
                row.copy_from_slice(&self.source_row);
                // bounds: target < d' = row.len()
                row[target] = fold(flows, cost, source, moved_to);
            } else if x == target {
                for (y, cell) in row.iter_mut().enumerate() {
                    *cell = fold(flows, cost, moved_to, members(y));
                }
            } else {
                row.copy_from_slice(base_row);
                // bounds: a, target and x are below d' = row.len() = source_col.len()
                row[a] = self.source_col[x];
                row[target] = fold(flows, cost, members(x), moved_to); // bounds: as above
            }
        }
        Some(score(&self.moved))
    }

    /// Fold the row and column of `a \ {o}`, `a` the base group of
    /// `original`, against every base group; returns `a`.
    fn load_source(&mut self, original: usize) -> usize {
        let a = self
            .groups
            .iter()
            .position(|group| group.binary_search(&original).is_ok())
            .unwrap_or_default();
        self.source_of = Some((original, a));
        self.source_members.clear();
        // bounds: `position` found `a` among the groups
        let members = self.groups[a].iter().filter(|&&m| m != original);
        self.source_members.extend(members);
        self.source_row.clear();
        self.source_col.clear();
        if self.source_members.is_empty() {
            return a;
        }
        let (flows, cost, source) = (self.flows, self.cost, &self.source_members);
        for (y, group) in self.groups.iter().enumerate() {
            let other = if y == a { source } else { group };
            self.source_row.push(fold(flows, cost, source, other));
            self.source_col.push(fold(flows, cost, other, source));
        }
        a
    }
}

/// The reduced cell of groups `rows x cols`: the flows summed and the
/// costs minimized in the full pass's order — i-major over ascending
/// members, from `(0.0, inf)` — so the bits match the scatter's.
fn fold(flows: &FlowSample, cost: &CostMatrix, rows: &[usize], cols: &[usize]) -> Cell {
    let mut cell = (0.0, f64::INFINITY);
    for &i in rows {
        let cost_row = cost.row(i);
        for &j in cols {
            cell.0 += flows.flow(i, j);
            let c = cost_row[j]; // bounds: members are below d = cost_row.len()
            if c < cell.1 {
                cell.1 = c;
            }
        }
    }
    cell
}

/// Equation 12 over row-major cells: `sum f * c'`, in cell order.
fn score(cells: &[Cell]) -> f64 {
    cells.iter().map(|&(f, c)| f * c).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce_cost_matrix;
    use emd_core::ground;

    fn uniform_flows(dim: usize) -> FlowSample {
        let value = 1.0 / (dim * dim) as f64;
        FlowSample::from_dense(dim, vec![value; dim * dim]).unwrap()
    }

    #[test]
    fn tightness_is_flow_weighted_reduced_cost() {
        let cost = ground::linear(4).unwrap();
        let flows = uniform_flows(4);
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let tightness = TightnessEvaluator::new(&flows, &cost).tightness(&r);
        // Chain costs, merge {0,1} and {2,3}: reduced cost = [[0,1],[1,0]]
        // (cross minimum is c(1,2) = 1). Each reduced cell aggregates 4
        // original cells of flow 1/16 each = 0.25.
        // tightness = 0.25*0 + 0.25*1 + 0.25*1 + 0.25*0 = 0.5
        assert!((tightness - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_reduction_maximizes_tightness() {
        // Merging can only lose cost-weighted flow, so the identity
        // reduction upper-bounds any coarser reduction's tightness.
        let cost = ground::linear(5).unwrap();
        let flows = uniform_flows(5);
        let mut evaluator = TightnessEvaluator::new(&flows, &cost);
        let identity = CombiningReduction::identity(5).unwrap();
        let id_tightness = evaluator.tightness(&identity);
        for (assignment, d_red) in [
            (vec![0, 0, 1, 1, 2], 3),
            (vec![0, 1, 0, 1, 0], 2),
            (vec![0, 0, 0, 0, 0], 1),
        ] {
            let r = CombiningReduction::new(assignment, d_red).unwrap();
            let t = evaluator.tightness(&r);
            assert!(t <= id_tightness + 1e-12);
        }
    }

    #[test]
    fn reassignment_evaluation_restores_state() {
        let cost = ground::linear(4).unwrap();
        let flows = uniform_flows(4);
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let snapshot = r.clone();
        let mut evaluator = TightnessEvaluator::new(&flows, &cost);
        let base = evaluator.tightness(&r);
        let moved = evaluator.move_tightness(1, 1).unwrap();
        assert_eq!(r, snapshot, "temporary reassignment must be reverted");
        // Scoring a move leaves the base loaded: the identity move of the
        // same dimension is the base again.
        assert_eq!(evaluator.move_tightness(1, 0), Some(base));
        // Check the returned value against an explicit clone-and-modify.
        let mut modified = snapshot;
        assert!(modified.try_reassign(1, 1));
        let expected = evaluator.tightness(&modified);
        assert!((moved - expected).abs() < 1e-12);
    }

    #[test]
    fn reassignment_emptying_group_is_rejected() {
        let cost = ground::linear(3).unwrap();
        let flows = uniform_flows(3);
        let r = CombiningReduction::new(vec![0, 1, 1], 2).unwrap();
        let mut evaluator = TightnessEvaluator::new(&flows, &cost);
        evaluator.tightness(&r);
        assert!(evaluator.move_tightness(0, 1).is_none());
    }

    /// The aggregated flow matrix `aggrFlow(F, R, ., .)` as a dense
    /// `d' x d'` buffer (Equation 11), summed cell by cell: the oracle
    /// the evaluator's incremental aggregation is checked against.
    fn aggregate_flows(flows: &FlowSample, r: &CombiningReduction) -> Vec<f64> {
        let d = flows.dim();
        let d_red = r.reduced_dim();
        let mut aggregated = vec![0.0; d_red * d_red];
        for i in 0..d {
            for j in 0..d {
                aggregated[r.target_of(i) * d_red + r.target_of(j)] += flows.flow(i, j);
            }
        }
        aggregated
    }

    #[test]
    fn aggregate_flows_matches_reduced_cost_cells() {
        let cost = ground::grid2(2, 2, ground::Metric::Manhattan).unwrap();
        let flows = uniform_flows(4);
        let r = CombiningReduction::new(vec![0, 1, 0, 1], 2).unwrap();
        let aggregated = aggregate_flows(&flows, &r);
        assert_eq!(aggregated.len(), 4);
        let total: f64 = aggregated.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Consistency: tightness == sum(aggregated * reduced cost).
        let reduced = reduce_cost_matrix(&cost, &r, &r).unwrap();
        let expected: f64 = aggregated
            .iter()
            .zip(reduced.entries().iter())
            .map(|(&f, &c)| f * c)
            .sum();
        let tightness = TightnessEvaluator::new(&flows, &cost).tightness(&r);
        assert!((tightness - expected).abs() < 1e-12);
    }
}
