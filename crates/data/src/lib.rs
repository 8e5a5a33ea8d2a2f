#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-data
//!
//! Synthetic multimedia data sets and dataset IO for the EMD retrieval
//! experiments.
//!
//! The paper evaluates on real image corpora (retina images with spatial
//! grid features; medical radiographs with high-dimensional histograms)
//! that are not redistributable. The generators here *simulate* those
//! corpora: what the filters and reductions actually consume is a set of
//! `(histogram, cost matrix)` pairs whose mass is spatially correlated in
//! the ground-distance geometry and clustered by class — exactly the
//! properties these generators reproduce (see DESIGN.md, "Substitutions").
//!
//! * [`tiling`] — RETINA-style images: Gaussian blobs splatted onto a
//!   `width x height` spatial tiling (default 12x8 = 96 dimensions).
//! * [`color`] — IRMA/color-retrieval-style images: class-template color
//!   mixtures quantized into an `n^3` color-cube histogram.
//! * [`gaussian`] — 1-D mixture histograms over a chain; small and fast,
//!   used by examples and tests.
//! * [`Dataset`] / [`io`] — a bundled corpus (histograms + labels + ground
//!   distance) with JSON (de)serialization.
//!
//! Data generation is seeded and deterministic; it performs no queries
//! and carries no `emd-obs` instrumentation.

pub mod color;
mod dataset;
pub mod gaussian;
pub mod io;
pub mod tiling;
mod util;

pub use dataset::{Dataset, ValidateError};
