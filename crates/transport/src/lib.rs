#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-transport
//!
//! A from-scratch solver for the *balanced transportation problem*, the
//! linear program underlying the Earth Mover's Distance:
//!
//! ```text
//! minimize   sum_{i,j} c[i][j] * f[i][j]
//! subject to sum_j f[i][j] = supply[i]   for all i
//!            sum_i f[i][j] = demand[j]   for all j
//!            f[i][j] >= 0
//! ```
//!
//! The solver is the **transportation simplex** (MODI / u-v method) with a
//! Vogel-approximation initial basis, used by `emd-core` for every EMD
//! computation; its typical runtime is superlinear (empirically ~cubic) in
//! the number of bins, which is the very cost the SIGMOD 2008 paper's
//! dimensionality reduction attacks. It accepts rectangular cost matrices
//! (`m` sources, `n` targets), which the paper needs for reduced EMDs with
//! differing query/database dimensionalities (`R1 != R2`).
//!
//! Its cross-check is a structurally unrelated solver, successive shortest
//! paths with Dijkstra and node potentials, which lives with the tests
//! that use it (`tests/support/ssp.rs`).
//!
//! ## One entry
//!
//! [`solve_warm_objective`]`(problem, budget, cutoff, workspace)` is the
//! only function that runs the simplex; every other way to solve is a
//! choice of arguments. A *cold* solve passes a fresh [`SolverWorkspace`]
//! (or one after [`SolverWorkspace::clear_warm_state`]), an *unbudgeted*
//! one passes `Budget::unlimited()`, an *uncut* one passes
//! `f64::INFINITY`. [`solve_warm`] is the uncut call with the flows
//! materialized, [`solve`] is [`solve_warm`] cold and unbudgeted.
//!
//! ## Budgets
//!
//! A [`Budget`] carries a wall-clock deadline, a shared pivot cap and a
//! cooperative [`CancelToken`]; the solve probes it at entry and every
//! [`budget::CHECK_INTERVAL`] pivots and returns
//! [`TransportError::BudgetExhausted`] instead of spinning.
//! Independently of any user budget, the simplex carries a per-solve
//! pivot limit of `64 * (m + n) + 4096` under a hard cap of
//! `100 * (m + n)^2 + 4096` ([`hard_iteration_cap`]), so a
//! degenerate-cycling instance can never hang.
//!
//! ## Warm starts
//!
//! The caller-owned [`SolverWorkspace`] keeps the duals, basis tree, cycle
//! scratch and the final basis of the previous solve. When consecutive
//! solves share a tableau shape (the KNOP refinement pattern: one query
//! marginal against many candidates), that basis is re-fit to the new
//! marginals by leaf peeling and the pivot loop starts from it, skipping
//! Vogel entirely; an infeasible refit — the usual case — is repaired by
//! dual-simplex pivots, and only a repair that exceeds its cap falls back
//! to a cold start. The basis is a spanning tree rooted at supply node 0
//! in flat arrays, so a pivot costs the subtree below the leaving edge
//! plus the cycle of the entering one, never a whole-tree traversal.
//! Because the answer is extracted canonically from the final basis
//! (sorted cells, flows re-derived from the marginals), warm and cold
//! solves of the same instance are bit-identical whenever the optimum is
//! unique.
//!
//! ## Cutoffs
//!
//! A caller that only needs "is the optimum above `cutoff`?" — KNOP's
//! refinement of a candidate against its current k-th distance — gets [`Bounded::Above`] with a
//! certified lower bound the moment the dual-simplex repair's rising
//! dual objective proves it, instead of paying for the pivots to the
//! optimum. `f64::INFINITY` disables the test.
//!
//! ## Observability
//!
//! When an `emd-obs` recording scope is active (see `emd_obs::Recording`),
//! every simplex solve reports into it: the `transport.solve` span times
//! the whole solve, and the counters `transport.solve.calls`,
//! `transport.simplex.pivots`, `transport.simplex.bland_pivots`,
//! `transport.simplex.degenerate_pivots` and
//! `transport.vogel.degenerate_cells` attribute LP-level work to the
//! queries that triggered it; a solve adds its pivot counts once, on
//! whichever exit it takes. Warm starts add `transport.warm.attempts`
//! and `transport.warm.hits` (the same tallies are available without a
//! scope via [`SolverWorkspace::stats`]); cutoffs add
//! `transport.warm.cut_checks` (certificates attempted) and
//! `transport.solve.cut` (solves ended by one). Without a scope each record
//! call costs one relaxed atomic load.

pub mod budget;
pub mod certify;
mod error;
mod problem;
mod simplex;
mod tree;
mod vogel;
mod workspace;

pub use budget::{Budget, BudgetReason, CancelToken};
pub use certify::{certify_basis, certify_solution, CertificateViolation};
pub use error::TransportError;
pub use problem::{Solution, TransportProblem};
pub use simplex::{
    hard_iteration_cap, solve, solve_warm, solve_warm_objective, Bounded, CUT_MARGIN,
};
pub use vogel::{initial_basis, InitialBasis};
pub use workspace::{SolverWorkspace, WorkspaceStats};

/// Absolute tolerance used throughout the crate for feasibility and
/// optimality tests on `f64` quantities.
///
/// Masses handled by the EMD are normalized to total 1, so an absolute
/// tolerance is appropriate; it sits far below any meaningful flow while
/// staying far above accumulated rounding error for the tableau sizes
/// (up to a few hundred bins) this crate targets.
pub const EPS: f64 = 1e-12;

/// How far the objectives two solves report for one problem may lie
/// apart at worst, absolutely: `(sources + targets) · EPS · max_cost`.
///
/// A final basis counts as feasible when no basic flow is below `-EPS`,
/// so a solve may end on a basis that is optimal for marginals up to
/// [`EPS`] per node away from the ones it was given; the optimum moves
/// by at most the largest dual — at most `max_cost` — per unit of
/// marginal, which is this bound. Two solves of one problem (a warm and
/// a cold one on a tie-prone cost, a chain cut or seeded elsewhere) are
/// related by nothing tighter in general, and by far more in practice:
/// the reported objective sums `flow · cost` over *every* basic cell,
/// i.e. it is the basis' dual value, which all optimal bases share, and
/// a warm seed is repaired until no basic flow is below `-1e-14`, so
/// measured divergence is a few ulps (≤ 2e-13 relative over 3 000
/// distances of the benchmark's 32-bin Gaussian corpus). It was not
/// always: while the sum skipped basic flows at or below `EPS`, and a
/// warm seed passed as feasible down to `-EPS`, two bases that routed
/// such residuals over cells of different cost reported objectives up
/// to this bound apart — `tests/warm_chain.rs` pins the pair that read
/// 1.3e-10 apart (6e-9 of its distance) then and agrees to the ulp now.
#[must_use]
pub fn objective_slack(sources: usize, targets: usize, max_cost: f64) -> f64 {
    (sources + targets) as f64 * EPS * max_cost
}

/// Looser tolerance for user-facing feasibility checks (balance of total
/// supply and demand). Inputs typically come from normalized histograms
/// whose sums carry accumulated rounding error.
pub const BALANCE_EPS: f64 = 1e-7;
