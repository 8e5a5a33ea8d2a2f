//! Reusable solver workspaces: caller-owned scratch and warm-start state
//! for repeated transportation solves.
//!
//! A [`SolverWorkspace`] owns every buffer the simplex needs — the dual
//! vectors `u`/`v`, the pivot-cycle and cut scratch, the Vogel start's
//! line minima and the basis tree, the solver's one basis — so a caller
//! that solves many related instances (the KNOP refinement loop solves
//! one LP per candidate against a fixed query marginal) pays for
//! allocation once instead of once per solve.
//!
//! The workspace also remembers the cells of the basis the last solve
//! ended on — the optimal one, or the one a solve under a cutoff was cut
//! on ([`crate::Bounded::Above`]); a failed solve leaves them untouched,
//! and an `EmdContext` may replace them with an earlier solve's basis
//! first ([`SolverWorkspace::seed`]).
//! [`crate::simplex::solve_warm`] re-optimizes from that basis when the next
//! instance has the same tableau shape: the tree is reset from the
//! remembered cells and re-fit to the new marginals by *leaf peeling*
//! ([`BasisTree::fit`]: a degree-1 node's single remaining edge must
//! carry that node's remaining marginal). A feasible fit pivots from
//! there — typically a handful of pivots from optimal. An infeasible fit
//! (some edge fits to a negative flow) — the usual case between two KNOP
//! candidates — goes
//! through *dual-simplex repair*: because successive KNOP candidates
//! share the cost matrix, the old basis is still dual-feasible,
//! so a run of dual pivots restores primal feasibility and usually
//! lands directly on the new optimum. Only when the repair exceeds its
//! pivot cap does the solver fall back to a cold Vogel start.
//!
//! ## Dual readout and extraction
//!
//! A solve answers with the value of its final basis' duals, which the
//! optimality test leaves in [`PivotScratch::u`] / [`PivotScratch::v`]
//! (an `EmdContext`'s harvest copies them from there). The flows are
//! extracted only on request ([`SolverWorkspace::last_solution`]): the
//! same leaf peeling re-derives them from the marginals over the
//! remembered cells, sorted by `(row, col)`. Neither depends on the pivot
//! history, so a warm and a cold solve that reach the same optimal basis
//! return **bit-identical** objectives and flows.

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
    /// Warm starts that seeded the solve (the fit was feasible, or the
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
    /// Supply-side dual variables (after an optimal solve, its duals).
    pub u: Vec<f64>,
    /// Demand-side dual variables.
    pub v: Vec<f64>,
    /// Edge ids of the current pivot cycle.
    pub path: Vec<usize>,
    /// Component marks for the dual-repair cut search.
    pub side: Vec<bool>,
    /// `v` with the columns off the dual-repair cut masked to `-∞`, and
    /// the rows on its marked side, so the entering scan reads every
    /// marked row in full, branch-free.
    pub cut_v: Vec<f64>,
    pub cut_rows: Vec<usize>,
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
    /// The basis: seeded, pivoted and, on request, extracted in place
    /// (the flat arrays keep their capacity).
    pub(crate) tree: BasisTree,
    /// Tableau shape the remembered basis belongs to.
    pub(crate) warm_shape: Option<(usize, usize)>,
    /// Basis cells the last solve ended on (optimal or cut), sorted by
    /// `(row, col)`: the remembered basis, which only a solve that
    /// succeeds overwrites.
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

    /// Make `cells`, a spanning-tree basis of an `m × n` tableau, the
    /// basis the next solve of that shape starts from.
    pub(crate) fn seed(&mut self, m: usize, n: usize, cells: &[(usize, usize)]) {
        self.warm_shape = Some((m, n));
        self.warm_cells.clear();
        self.warm_cells.extend_from_slice(cells);
    }

    /// Whether a basis from a previous solve is available for the given
    /// tableau shape.
    #[must_use]
    pub(crate) fn has_warm_basis(&self, m: usize, n: usize) -> bool {
        self.warm_shape == Some((m, n))
    }

    /// Extract the flows of the last solve, whose marginals were
    /// `supplies`, `demands`, as a [`crate::problem::Solution`] with the
    /// given objective. Strictly positive flows only, in `(row, col)`
    /// order. Meaningful after a [`crate::Bounded::Optimal`] solve only.
    #[must_use]
    pub(crate) fn last_solution(
        &mut self,
        supplies: &[f64],
        demands: &[f64],
        objective: f64,
    ) -> crate::problem::Solution {
        let basis = self.warm_cells.iter().map(|&(row, col)| (row, col, 0.0));
        self.tree.reset(supplies.len(), demands.len(), basis);
        let feasible = self.tree.fit(supplies, demands, EPS);
        debug_assert!(feasible, "optimal basis must re-fit feasibly");
        let flows = self
            .tree
            .cells()
            .zip(self.tree.flows())
            .filter(|(_, &flow)| flow > EPS)
            .map(|((row, col), &flow)| (row, col, flow))
            .collect();
        crate::problem::Solution { objective, flows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
