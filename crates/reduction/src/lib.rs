#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-reduction
//!
//! Flexible, lower-bounding dimensionality reduction for the Earth Mover's
//! Distance — the primary contribution of Wichterich et al., SIGMOD 2008
//! (Section 3).
//!
//! * [`CombiningReduction`] — the 0/1 *combining* reduction matrices of
//!   Definition 3: every original dimension is assigned to exactly one
//!   reduced dimension and no reduced dimension is empty.
//! * [`reduce_cost_matrix`] — the **optimal reduced cost matrix** of
//!   Definition 5 (`c'_{i'j'} = min{c_ij}` over the combined groups),
//!   proven in the paper to be the greatest lower bound for fixed
//!   reduction matrices (Theorems 1 and 3).
//! * [`ReducedEmd`] — the reduced EMD of Definition 4, supporting
//!   different query/database reductions (`R1 != R2`).
//! * [`kmedoids`] — the data-independent clustering-based reduction of
//!   Section 3.3.
//! * [`flow_sample`] / [`tightness`] / [`fb`] — the data-dependent
//!   flow-based reductions FB-Mod and FB-All of Section 3.4 (Figures 6-9).
//! * [`grid`] — the grid-merging special case of reference \[14\] that the
//!   paper generalizes.
//!
//! The crate holds what `flexemd ingest` trains. Two
//! pieces of Section 3 live with their only callers: the exhaustive
//! optimum (§3.2.2) is the test oracle in `tests/support/exhaustive.rs`,
//! and the PCA-guided reduction (§3.1's negative result) is
//! `emd_bench::pca`, for experiment A3.
//!
//! Reduction construction is offline preprocessing, so this crate carries
//! no `emd-obs` instrumentation of its own; the flow samples it draws run
//! exact EMDs through `emd-core`, whose `core.emd.solves` counter makes
//! that preprocessing cost visible when recorded.

mod error;
pub mod fb;
pub mod flow_sample;
pub mod grid;
pub mod kmedoids;
mod matrix;
mod persist;
mod reduced_cost;
mod reduced_emd;
pub mod tightness;

pub use error::ReductionError;
pub use matrix::CombiningReduction;
pub use persist::PersistedReduction;
pub use reduced_cost::reduce_cost_matrix;
pub use reduced_emd::ReducedEmd;
