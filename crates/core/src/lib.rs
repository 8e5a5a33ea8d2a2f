#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-core
//!
//! The Earth Mover's Distance (EMD) and its classic lower-bounding filters,
//! as defined in Section 2 of Wichterich et al., SIGMOD 2008 (building on
//! Rubner et al. and Assent et al.).
//!
//! * [`Histogram`] — non-negative feature vectors of normalized total mass
//!   (Definition 1 operands).
//! * [`CostMatrix`] / [`ground`] — the ground-distance matrix `C = [c_ij]`
//!   plus constructors for common feature-space geometries (1-D chains, 2-D
//!   image tilings, 3-D color cubes).
//! * [`emd_in_context_within`] — the exact EMD via the transportation
//!   simplex of `emd-transport`, with zero-mass bins stripped before
//!   solving: the one body every EMD in the workspace runs, over square
//!   and rectangular cost matrices alike. It evaluates through a
//!   caller-owned [`EmdContext`], under a [`Budget`] and a cutoff, and may
//!   answer [`Bounded::Above`] — a certified lower bound above the
//!   cutoff — instead of the distance.
//! * [`emd_in_context`] is that call without a cutoff; [`emd`] and
//!   [`emd_with_flows`] are it once more without a budget, on a fresh
//!   context.
//! * [`lower_bounds`] — LB_IM (independent minimization), the Rubner
//!   centroid bound, and a scaled-L1 bound; all are complete filters for
//!   multistep query processing.
//!
//! ## Budgets
//!
//! A [`Budget`] (deadline, shared pivot cap, [`CancelToken`]) passed to
//! [`emd_in_context`] is probed inside the simplex; a firing surfaces as
//! the typed [`CoreError::BudgetExhausted`] so the query layer can
//! degrade instead of failing. `Budget::unlimited()` never fires, and the
//! identity shortcut (`x == y` under a zero diagonal) answers before any
//! probe.
//!
//! ## Warm starts
//!
//! Evaluations through one [`EmdContext`] reuse its buffers and start
//! the simplex from the basis the previous evaluation ended on — the
//! refinement hot path of the query layer. A cold solve is the same body
//! from an empty basis: a fresh context, or
//! [`EmdContext::clear_warm_state`] before the call. Both return the
//! same bits whenever the optimum is unique, and distances within
//! [`distance_slack`] of one another always.
//!
//! ## Observability
//!
//! Under an active `emd-obs` recording scope, every exact EMD solve bumps
//! the `core.emd.solves` counter (this is the refinement cost the paper's
//! reductions exist to avoid) and each lower-bound evaluation bumps its
//! own counter (`core.lb_im.evaluations`, `core.lb_centroid.evaluations`,
//! `core.lb_scaled_l1.evaluations`, `core.lb_anchor.evaluations`),
//! giving the per-filter breakdown behind `flexemd query --metrics json`.

pub mod certify;
mod context;
mod cost;
mod emd;
mod error;
pub mod ground;
mod histogram;
pub mod lower_bounds;

pub use context::{emd_in_context, emd_in_context_within, EmdContext};
pub use cost::CostMatrix;
pub use emd::{emd, emd_with_flows, EmdReport};
pub use error::CoreError;
pub use histogram::Histogram;

// Execution-budget types, re-exported so downstream crates (reduction,
// query) can thread budgets without a direct `emd-transport` dependency.
pub use emd_transport::{Budget, BudgetReason, CancelToken};

// The verdict of a solve under a cutoff, re-exported for the same reason.
pub use emd_transport::Bounded;

/// The warm/cold contract: how far the distances two solves report for
/// one pair of histograms under `cost` may lie apart at worst,
/// absolutely — [`emd_transport::objective_slack`] at the matrix's full
/// shape and largest entry. Warm or cold, behind a cut or not, seeded
/// from any predecessor: every returned distance is the dual value of a
/// basis that is optimal to within the solver's feasibility tolerance,
/// so two of them agree to a few ulps in practice and to this bound
/// always. An absolute bound on purpose: the tolerance it comes from
/// does not shrink with the distance.
#[must_use]
pub fn distance_slack(cost: &CostMatrix) -> f64 {
    let max_cost = cost.entries().iter().copied().fold(0.0, f64::max);
    emd_transport::objective_slack(cost.rows(), cost.cols(), max_cost)
}

/// Tolerance for mass normalization checks: histograms must total 1 within
/// this bound. Matches the balance tolerance of the LP layer.
pub const MASS_EPS: f64 = 1e-7;
