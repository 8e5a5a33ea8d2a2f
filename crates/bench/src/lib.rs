#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The harness is experiment glue, not library surface: a panic on a
// malformed experiment is the desired behavior, not an error to route.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! # emd-bench
//!
//! The experiment harness that regenerates the paper's tables and figures
//! (as reconstructed in DESIGN.md / EXPERIMENTS.md) plus the ablations.
//!
//! * [`report`] — plain-text/JSON table rendering.
//! * [`setup`] — seeded corpora, workloads and reduction construction
//!   shared by all experiments.
//! * [`experiments`] — one function per experiment (`e1..e11`,
//!   `a1..a5`), each returning a [`report::Table`].
//! * [`vptree`] — the metric-index baseline A4 compares the filter
//!   pipeline against.
//! * [`lower_bounds`] — the classic full-dimensional bounds (full LB_IM,
//!   centroid, scaled L1) A5 and E5 set beside the paper's filters.
//! * [`pca`] — the PCA-guided combining reduction of ablation A3.
//! * [`workload`] — Definition 6's query workloads with calibrated range
//!   thresholds, for E11.
//!
//! Run `cargo run --release -p emd-bench --bin experiments -- all` for the
//! full suite, or pass experiment ids (`e1 e5 a2 ...`). `--full` scales
//! the corpora up to paper-like sizes (slower).

pub mod experiments;
pub mod lower_bounds;
pub mod pca;
pub mod report;
pub mod setup;
pub mod vptree;
pub mod workload;
