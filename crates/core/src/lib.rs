#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-core
//!
//! The Earth Mover's Distance (EMD) and the lower-bounding filters an
//! index builds on it, as defined in Section 2 of Wichterich et al.,
//! SIGMOD 2008 (building on Rubner et al. and Assent et al.).
//!
//! * [`Histogram`] — non-negative feature vectors of normalized total mass
//!   (Definition 1 operands).
//! * [`CostMatrix`] / [`ground`] — the ground-distance matrix `C = [c_ij]`
//!   plus constructors for common feature-space geometries (1-D chains, 2-D
//!   image tilings, 3-D color cubes).
//! * [`emd_in_context_within`] — the exact EMD via the crate's
//!   transportation simplex, with zero-mass bins stripped before
//!   solving: the one body every EMD in the workspace runs, over square
//!   and rectangular cost matrices alike. It evaluates through a
//!   caller-owned [`EmdContext`], under a [`Budget`] and a cutoff, and may
//!   answer [`Bounded::Above`] — a certified lower bound above the
//!   cutoff — instead of the distance.
//! * [`emd_in_context`] is that call without a cutoff; [`emd`] and
//!   [`emd_with_flows`] are it once more without a budget, on a fresh
//!   context.
//! * [`lower_bounds`] — LB_IM (independent minimization) and the anchor
//!   (weak-duality) bound; both are complete filters for multistep query
//!   processing.
//!
//! ## The solver
//!
//! Every EMD is one *balanced transportation problem* (`m` sources, `n`
//! targets, rectangular when the operands' dimensionalities differ),
//! solved by the **transportation simplex** (MODI / u-v method) with a
//! Vogel-approximation initial basis. Its runtime is superlinear
//! (empirically ~cubic) in the number of bins — the very cost the
//! paper's dimensionality reduction attacks. The solver is private to
//! this crate and trusts its operands, which [`Histogram`] and
//! [`CostMatrix`] checked when they were built; [`certify`] holds its
//! output to one flow certificate in debug builds. Its cross-check is a
//! structurally unrelated solver, successive shortest paths with
//! Dijkstra and node potentials, which lives with the tests that use it
//! (`tests/transport/ssp.rs`).
//!
//! ## Budgets
//!
//! A [`Budget`] carries a wall-clock deadline, a shared pivot cap and a
//! cooperative [`CancelToken`]; the simplex probes it at entry and every
//! 64 pivots, and a firing surfaces as the typed
//! [`CoreError::BudgetExhausted`] so the query layer can degrade instead
//! of failing. `Budget::unlimited()` never fires, and the identity
//! shortcut (`x == y` under a zero diagonal) answers before any probe.
//! Independently of any budget, a solve carries a pivot limit of
//! `64 * (m + n) + 4096` under a hard cap of `100 * (m + n)^2 + 4096`,
//! so a degenerate-cycling instance can never hang.
//!
//! ## Warm starts
//!
//! Evaluations through one [`EmdContext`] reuse its buffers and start
//! the simplex from an earlier evaluation's basis — the refinement hot
//! path of the query layer, one query against many candidates: the basis
//! of the solve whose learned potentials floor the candidate highest on
//! its support, or else the one the previous evaluation ended on. The
//! solver holds that basis in one form, a rooted spanning tree, from the
//! seed through the pivots to the dual readout: it is re-fit to the new
//! marginals by leaf peeling over the tree's incidence lists; an
//! infeasible fit — the usual case — is repaired by dual-simplex pivots,
//! and only a repair that exceeds its cap falls back to a cold start. A
//! cold solve is the same body from an empty basis: a fresh context, or
//! [`EmdContext::clear_warm_state`] before the call. The answer is the
//! dual value of the final basis alone, so both return the same bits
//! whenever the optimum is unique, and distances within
//! [`distance_slack`] of one another always.
//!
//! ## Cutoffs
//!
//! A caller that only needs "is the EMD above `cutoff`?" — KNOP's
//! refinement of a candidate against its current k-th distance — gets
//! [`Bounded::Above`] with a certified lower bound the moment the
//! dual-simplex repair's rising dual objective proves it, instead of
//! paying for the pivots to the optimum — or before any LP, when the
//! duals of an earlier optimal solve against the same query, extended
//! to every bin by their c-transform, already floor the candidate above
//! the cutoff. `f64::INFINITY` disables the test.
//!
//! ## Observability
//!
//! Under an active `emd-obs` recording scope, every exact EMD evaluation
//! bumps the `core.emd.solves` counter (this is the refinement cost the
//! paper's reductions exist to avoid) and every LB_IM evaluation bumps
//! `core.lb_im.evaluations`; the per-stage breakdown behind `flexemd
//! query --metrics json` is the query layer's
//! `query.stage.<name>.evaluations`. Every simplex solve reports LP-level
//! work: the `transport.solve` span times it, and the counters
//! `transport.solve.calls`, `transport.simplex.pivots`,
//! `transport.simplex.bland_pivots`, `transport.simplex.degenerate_pivots`
//! and `transport.vogel.degenerate_cells` are added once, on whichever
//! exit the solve takes. Warm starts add `transport.warm.attempts` and
//! `transport.warm.hits`; cutoffs add `transport.warm.cut_checks`
//! (certificates attempted), `transport.solve.cut` (solves ended by
//! one) and `core.emd.floor_cuts` (evaluations a learned floor answered
//! without a solve). Without a scope each record call costs one relaxed atomic load.

mod budget;
pub mod certify;
mod context;
mod cost;
mod emd;
mod error;
pub mod ground;
mod histogram;
pub mod lower_bounds;
mod problem;
mod simplex;
mod tree;
mod vogel;
mod workspace;

pub use budget::{Budget, BudgetReason, CancelToken};
pub use context::{emd_in_context, emd_in_context_within, EmdContext};
pub use cost::CostMatrix;
pub use emd::{emd, emd_with_flows, EmdReport};
pub use error::CoreError;
pub use histogram::Histogram;
pub use simplex::Bounded;

/// Tolerance for mass normalization checks: histograms must total 1 within
/// this bound. Two operands' totals may thus differ by up to twice this,
/// each off by it in opposite directions; the solver rebalances that.
pub const MASS_EPS: f64 = 1e-7;

/// Absolute tolerance the solver uses for feasibility and optimality
/// tests on `f64` quantities.
///
/// Masses handled by the EMD are normalized to total 1, so an absolute
/// tolerance is appropriate; it sits far below any meaningful flow while
/// staying far above accumulated rounding error for the tableau sizes
/// (up to a few hundred bins) the solver targets.
pub(crate) const EPS: f64 = 1e-12;

/// The warm/cold contract: how far the distances two solves report for
/// one pair of histograms under `cost` may lie apart at worst,
/// absolutely — `objective_slack` at the matrix's full shape and
/// largest entry. Warm or cold, behind a cut or not, seeded from any
/// predecessor: every returned distance is the dual value of a basis
/// that is optimal to within the solver's feasibility tolerance, so two
/// of them agree to a few ulps in practice and to this bound always. An
/// absolute bound on purpose: the tolerance it comes from does not shrink
/// with the distance.
#[must_use]
pub fn distance_slack(cost: &CostMatrix) -> f64 {
    let max_cost = cost.entries().iter().copied().fold(0.0, f64::max);
    objective_slack(cost.rows(), cost.cols(), max_cost)
}

/// How far the objectives two solves report for one transportation
/// problem may lie apart at worst, absolutely:
/// `(sources + targets) · EPS · max_cost`.
///
/// A final basis counts as feasible when no basic flow is below `-EPS`,
/// so a solve may end on a basis that is optimal for marginals up to
/// [`EPS`] per node away from the ones it was given; the optimum moves
/// by at most the largest dual — at most `max_cost` — per unit of
/// marginal, which is this bound. Two solves of one problem (a warm and
/// a cold one on a tie-prone cost, a chain cut or seeded elsewhere) are
/// related by nothing tighter in general, and by far more in practice:
/// the reported objective is the basis' dual value `Σ uᵢsᵢ + Σ vⱼdⱼ`,
/// which all optimal bases share, and a warm seed is repaired until no
/// basic flow is below `-1e-14`, so measured divergence is a few ulps
/// (≤ 2e-13 relative over 3 000 distances of the benchmark's 32-bin
/// Gaussian corpus). It was not always: while the objective was a sum of
/// `flow · cost` that skipped basic flows at or below `EPS`, and a
/// warm seed passed as feasible down to `-EPS`, two bases that routed
/// such residuals over cells of different cost reported objectives up
/// to this bound apart — `tests/transport/warm_chain.rs` pins the pair
/// that read 1.3e-10 apart (6e-9 of its distance) then and agrees to the
/// ulp now.
fn objective_slack(sources: usize, targets: usize, max_cost: f64) -> f64 {
    (sources + targets) as f64 * EPS * max_cost
}

// The solver's cross-module suites and their SSP oracle: test code kept
// under tests/ but compiled into the unit-test build, where the private
// solver is in reach.
#[cfg(test)]
#[path = "../tests/transport/mod.rs"]
mod transport;
