//! Reusable solver workspaces: caller-owned scratch and warm-start state
//! for repeated transportation solves.
//!
//! A [`SolverWorkspace`] owns every buffer the simplex needs — the dual
//! vectors `u`/`v`, the rooted basis tree, the pivot-cycle and cut
//! scratch, the flow-refit buffers and the Vogel start's line minima — so
//! a caller that solves many related instances (the KNOP refinement loop
//! solves one LP per candidate against a fixed query marginal) pays for
//! allocation once instead of once per solve.
//!
//! The workspace also remembers the basis the last solve ended on — the
//! optimal one, or the one a solve under a cutoff was cut on
//! ([`crate::Bounded::Above`]); a failed solve leaves it untouched.
//! [`crate::simplex::solve_warm`] re-optimizes from that basis when the next
//! instance has the same tableau shape: the old spanning tree is re-fit
//! to the new marginals by *leaf peeling* (a degree-1 node's single
//! remaining edge must carry that node's remaining marginal). A feasible
//! refit pivots from there — typically a handful of pivots from optimal.
//! An infeasible refit (some edge re-fits to a negative flow) — the usual
//! case between two KNOP candidates — goes
//! through *dual-simplex repair*: because successive KNOP candidates
//! share the cost matrix, the old basis is still dual-feasible,
//! so a run of dual pivots restores primal feasibility and usually
//! lands directly on the new optimum. Only when the repair exceeds its
//! pivot cap does the solver fall back to a cold Vogel start.
//!
//! ## Canonical extraction
//!
//! The same leaf-peeling refit is the solver's *extraction* step: after
//! the pivot loop terminates, flows are re-derived from the final basis
//! (cells sorted by `(row, col)`) rather than read out of the pivot
//! arithmetic. The reported solution therefore depends only on the
//! final basis and the problem data, not on the pivot history — so a
//! warm-started solve and a cold solve that reach the same optimal
//! basis return **bit-identical** objectives and flows.

use crate::tree::BasisTree;
use crate::vogel::VogelScratch;
use crate::EPS;

/// Monotone counters describing the work a workspace has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkspaceStats {
    /// Solves routed through this workspace.
    pub solves: u64,
    /// Warm starts attempted (previous basis had a matching shape).
    pub warm_attempts: u64,
    /// Warm starts that seeded the solve (the refit was feasible, or the
    /// dual-simplex repair restored feasibility).
    pub warm_hits: u64,
    /// Simplex pivots performed across all solves, primal and dual —
    /// those of an abandoned repair or a solve a budget stopped included,
    /// so these counters move exactly as the `transport.*` pivot counters.
    pub pivots: u64,
    /// The subset of `pivots` spent in dual-simplex repair of re-fit
    /// warm bases.
    pub repair_pivots: u64,
}

/// Scratch buffers for the MODI pivot loop, reused across iterations and
/// across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct PivotScratch {
    /// Supply-side dual variables.
    pub u: Vec<f64>,
    /// Demand-side dual variables.
    pub v: Vec<f64>,
    /// Edge ids of the current pivot cycle.
    pub path: Vec<usize>,
    /// Component marks for the dual-repair cut search.
    pub side: Vec<bool>,
    /// Columns across the dual-repair cut, and their duals gathered from
    /// `v`, so the entering scan reads two flat slices.
    pub cut_cols: Vec<usize>,
    pub cut_v: Vec<f64>,
    /// Duals read fresh off the tree by the cutoff certificate, kept
    /// apart from `u`/`v` so a failed certificate leaves the repair's
    /// incrementally shifted duals — and with them its pivot sequence —
    /// untouched.
    pub cert_u: Vec<f64>,
    pub cert_v: Vec<f64>,
}

/// Caller-owned scratch and warm-start state for repeated solves.
///
/// Construct once with [`SolverWorkspace::new`] and pass to
/// [`crate::simplex::solve_warm`] / [`crate::simplex::solve_warm_objective`] for every
/// solve that should reuse buffers and re-optimize from the previous
/// basis. A fresh workspace behaves exactly like a cold solve; a clone
/// continues from the same warm basis as its original.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverWorkspace {
    /// Pivot-loop scratch.
    pub(crate) pivot: PivotScratch,
    /// Scratch of the cold-start Vogel basis.
    pub(crate) vogel: VogelScratch,
    /// Reusable basis-tree storage (the flat arrays keep their capacity).
    pub(crate) tree: BasisTree,
    /// Basis cells of the current solve, sorted by `(row, col)` at
    /// extraction time.
    pub(crate) cells: Vec<(usize, usize)>,
    /// Flow per cell in `cells`, produced by [`Self::refit`].
    pub(crate) flows: Vec<f64>,
    /// Remaining marginal per node during leaf peeling.
    rem: Vec<f64>,
    /// Remaining degree per node during leaf peeling.
    degree: Vec<usize>,
    /// CSR offsets of the per-node incidence lists.
    adj_offsets: Vec<usize>,
    /// CSR incidence lists (cell indices, two entries per cell).
    adj: Vec<usize>,
    /// Fill cursors for building the CSR lists.
    cursor: Vec<usize>,
    /// Stack of degree-1 nodes to peel.
    leaves: Vec<usize>,
    /// Cells already assigned a flow during the current refit.
    used: Vec<bool>,
    /// Tableau shape the remembered basis belongs to.
    pub(crate) warm_shape: Option<(usize, usize)>,
    /// Basis cells the last solve ended on (optimal or cut), sorted by
    /// `(row, col)`.
    pub(crate) warm_cells: Vec<(usize, usize)>,
    /// Work counters.
    pub(crate) stats: WorkspaceStats,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use and are kept across
    /// solves.
    #[must_use]
    pub(crate) fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Work counters accumulated by every solve routed through this
    /// workspace.
    #[must_use]
    pub(crate) fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Forget the remembered basis: the next solve starts cold. Scratch
    /// buffers keep their capacity.
    pub(crate) fn clear_warm_state(&mut self) {
        self.warm_shape = None;
        self.warm_cells.clear();
    }

    /// Whether a basis from a previous solve is available for the given
    /// tableau shape.
    #[must_use]
    pub(crate) fn has_warm_basis(&self, m: usize, n: usize) -> bool {
        self.warm_shape == Some((m, n))
    }

    /// Materialize the flows of the current solve (`cells`/`flows` as
    /// left by the canonical extraction) as a [`crate::problem::Solution`] with
    /// the given objective. Strictly positive flows only, in `(row,
    /// col)` order. Meaningful after a [`crate::Bounded::Optimal`] solve
    /// only: a cut solve extracts nothing.
    #[must_use]
    pub(crate) fn last_solution(&self, objective: f64) -> crate::problem::Solution {
        let flows = self
            .cells
            .iter()
            .zip(&self.flows)
            .filter(|(_, &flow)| flow > EPS)
            .map(|(&(row, col), &flow)| (row, col, flow))
            .collect();
        crate::problem::Solution { objective, flows }
    }

    /// Re-derive the unique flow assignment of the spanning-tree basis in
    /// `self.cells` for the given marginals by leaf peeling: a node of
    /// remaining degree 1 has a single unassigned incident edge, which
    /// must carry that node's remaining marginal. Fills `self.flows`
    /// (aligned with `self.cells`) and returns `false` when any flow is
    /// negative beyond `tolerance` — i.e. the basis is infeasible for
    /// these marginals.
    ///
    /// Deterministic: the peeling order depends only on the cell list and
    /// the marginals, never on allocation state or solve history.
    pub(crate) fn refit(
        &mut self,
        m: usize,
        n: usize,
        supplies: &[f64],
        demands: &[f64],
        tolerance: f64,
    ) -> bool {
        let nodes = m + n;
        let k = self.cells.len();
        debug_assert_eq!(k, nodes - 1, "basis must be a spanning tree");

        self.rem.clear();
        self.rem.extend_from_slice(supplies);
        self.rem.extend_from_slice(demands);
        self.degree.clear();
        self.degree.resize(nodes, 0);
        for &(row, col) in &self.cells {
            self.degree[row] += 1; // bounds: basis rows < m <= degree.len()
            self.degree[m + col] += 1; // bounds: m + col < m + n = degree.len()
        }

        // CSR incidence lists: offsets by prefix sum, then a fill pass.
        self.adj_offsets.clear();
        self.adj_offsets.reserve(nodes + 1);
        let mut running = 0usize;
        self.adj_offsets.push(0);
        for &d in &self.degree {
            running += d;
            self.adj_offsets.push(running);
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.adj_offsets[..nodes]); // bounds: offsets was just built with nodes + 1 entries
        self.adj.clear();
        self.adj.resize(2 * k, 0);
        for (cell, &(row, col)) in self.cells.iter().enumerate() {
            // bounds: cursors start at the CSR offsets and advance once per
            // incidence, so each write lands inside the node's CSR slot.
            self.adj[self.cursor[row]] = cell;
            self.cursor[row] += 1; // bounds: row < m <= cursor.len()
            self.adj[self.cursor[m + col]] = cell; // bounds: demand cursor stays inside its CSR slot
            self.cursor[m + col] += 1; // bounds: m + col < nodes = cursor.len()
        }

        self.used.clear();
        self.used.resize(k, false);
        self.flows.clear();
        self.flows.resize(k, 0.0);
        self.leaves.clear();
        for node in 0..nodes {
            // bounds: node < nodes = degree.len()
            if self.degree[node] == 1 {
                self.leaves.push(node);
            }
        }

        let mut feasible = true;
        while let Some(node) = self.leaves.pop() {
            // bounds: node < nodes = degree.len()
            if self.degree[node] != 1 {
                // Already consumed as the far endpoint of the last edge.
                continue;
            }
            // The node's single unassigned incident edge.
            let lo = self.adj_offsets[node]; // bounds: node < nodes, offsets has nodes + 1 entries
            let hi = self.adj_offsets[node + 1]; // bounds: node + 1 <= nodes
            let Some(&cell) = self.adj[lo..hi].iter().find(|&&c| !self.used[c]) else {
                debug_assert!(false, "degree-1 node without an unassigned edge");
                return false;
            };
            let (row, col) = self.cells[cell]; // bounds: CSR entries index cells
            let other = if node < m { m + col } else { row };
            let flow = self.rem[node]; // bounds: node < nodes = rem.len()
            if flow < -tolerance {
                feasible = false;
            }
            self.flows[cell] = flow; // bounds: cell indexes cells/flows, same length
            self.used[cell] = true; // bounds: cell indexes cells/used, same length
            self.rem[other] -= flow; // bounds: other is a node id < nodes
            self.rem[node] = 0.0;
            self.degree[node] = 0; // bounds: node < nodes = degree.len()
            self.degree[other] -= 1; // bounds: other is a node id < nodes
            if self.degree[other] == 1 {
                self.leaves.push(other);
            }
        }
        debug_assert!(
            self.used.iter().all(|&u| u),
            "leaf peeling must assign every basis cell"
        );
        feasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refit_cells(
        ws: &mut SolverWorkspace,
        m: usize,
        n: usize,
        cells: &[(usize, usize)],
        supplies: &[f64],
        demands: &[f64],
    ) -> bool {
        ws.cells.clear();
        ws.cells.extend_from_slice(cells);
        ws.refit(m, n, supplies, demands, EPS)
    }

    #[test]
    fn refit_recovers_tree_flows() {
        // 2x2 basis (0,0), (0,1), (1,1) with supplies [.5, .5],
        // demands [.25, .75]: flows .25, .25, .5.
        let mut ws = SolverWorkspace::new();
        let ok = refit_cells(
            &mut ws,
            2,
            2,
            &[(0, 0), (0, 1), (1, 1)],
            &[0.5, 0.5],
            &[0.25, 0.75],
        );
        assert!(ok);
        assert_eq!(ws.flows, vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn refit_detects_infeasible_basis() {
        // Same tree, but demand 0 now exceeds supply 0: edge (0, 1)
        // would need negative flow.
        let mut ws = SolverWorkspace::new();
        let ok = refit_cells(
            &mut ws,
            2,
            2,
            &[(0, 0), (0, 1), (1, 1)],
            &[0.5, 0.5],
            &[0.9, 0.1],
        );
        assert!(!ok);
    }

    #[test]
    fn refit_star_trees() {
        // Single supply node: every demand is a leaf.
        let mut ws = SolverWorkspace::new();
        let ok = refit_cells(
            &mut ws,
            1,
            3,
            &[(0, 0), (0, 1), (0, 2)],
            &[1.0],
            &[0.2, 0.3, 0.5],
        );
        assert!(ok);
        assert_eq!(ws.flows, vec![0.2, 0.3, 0.5]);
    }

    #[test]
    fn refit_is_deterministic_and_reusable() {
        let mut ws = SolverWorkspace::new();
        let cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)];
        let supplies = [0.3, 0.3, 0.4];
        let demands = [0.45, 0.35, 0.2];
        assert!(refit_cells(&mut ws, 3, 3, &cells, &supplies, &demands));
        let first = ws.flows.clone();
        assert!(refit_cells(&mut ws, 3, 3, &cells, &supplies, &demands));
        assert_eq!(first, ws.flows, "refit must be bit-deterministic");
        let total: f64 = ws.flows.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workspace_state_helpers() {
        let mut ws = SolverWorkspace::new();
        assert!(!ws.has_warm_basis(2, 2));
        ws.warm_shape = Some((2, 2));
        ws.warm_cells = vec![(0, 0), (0, 1), (1, 1)];
        assert!(ws.has_warm_basis(2, 2));
        assert!(!ws.has_warm_basis(2, 3));
        ws.clear_warm_state();
        assert!(!ws.has_warm_basis(2, 2));
        assert!(ws.warm_cells.is_empty());
    }
}
