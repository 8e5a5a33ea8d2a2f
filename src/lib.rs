#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # flexemd
//!
//! Umbrella crate for the `flexemd` workspace: a Rust reproduction of
//! *"Efficient EMD-based Similarity Search in Multimedia Databases via
//! Flexible Dimensionality Reduction"* (Wichterich, Assent, Kranen, Seidl,
//! SIGMOD 2008).
//!
//! Re-exports the public API of every workspace crate so downstream users
//! depend on a single crate. See the individual crates for details:
//!
//! * [`core`] — histograms, ground distances, exact EMD by the
//!   transportation simplex, classic lower bounds
//! * [`reduction`] — flexible lower-bounding dimensionality reduction
//! * [`data`] — synthetic multimedia data sets and workloads
//! * [`query`] — multistep filter-and-refine query processing (KNOP)
//! * [`json`] — the one JSON codec every file format and HTTP body uses
//! * [`obs`] — metrics registry and span tracing for the whole stack
//! * [`faultkit`] — deterministic fault injection for resilience testing
//! * [`serve`] — long-running query server with admission control
//!
//! # Example
//!
//! The paper's Figure 1, followed by a 6-to-2-dimensional reduction whose
//! reduced EMD provably lower-bounds the exact distance (Theorem 1):
//!
//! ```
//! use flexemd::core::{emd, ground, Histogram};
//! use flexemd::reduction::{CombiningReduction, ReducedEmd};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = Histogram::new(vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0])?;
//! let y = Histogram::new(vec![0.0, 0.5, 0.0, 0.2, 0.0, 0.3])?;
//! let cost = ground::linear(6)?; // c_ij = |i - j|
//! let exact = emd(&x, &y, &cost)?;
//! assert!((exact - 1.0).abs() < 1e-12);
//!
//! let r = CombiningReduction::new(vec![0, 0, 0, 1, 1, 1], 2)?;
//! let reduced = ReducedEmd::new(&cost, r)?;
//! assert!(reduced.distance(&x, &y)? <= exact);
//! # Ok(())
//! # }
//! ```
//!
//! Complete k-NN retrieval through a filter pipeline over a shared
//! database snapshot:
//!
//! ```
//! use flexemd::core::{ground, Histogram};
//! use flexemd::query::{Database, EmdDistance, Executor, QueryPlan, ReducedEmdFilter};
//! use flexemd::reduction::{CombiningReduction, ReducedEmd};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cost = Arc::new(ground::linear(4)?);
//! let database = Database::new(
//!     vec![
//!         Histogram::new(vec![1.0, 0.0, 0.0, 0.0])?,
//!         Histogram::new(vec![0.0, 0.0, 0.5, 0.5])?,
//!         Histogram::new(vec![0.25, 0.25, 0.25, 0.25])?,
//!     ],
//!     cost.clone(),
//! )?;
//! let reduced = ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2)?)?;
//! let executor = Executor::new(QueryPlan::new(
//!     vec![Box::new(ReducedEmdFilter::new(&database, reduced)?)],
//!     Box::new(EmdDistance::new(&database)?),
//! )?);
//! let (neighbors, stats) = executor.knn(&Histogram::new(vec![0.9, 0.1, 0.0, 0.0])?, 2)?;
//! assert_eq!(neighbors[0].id, 0); // no false dismissals: exact results
//! assert!(stats.refinements <= 3);
//! # Ok(())
//! # }
//! ```

pub use emd_core as core;
pub use emd_data as data;
pub use emd_faultkit as faultkit;
pub use emd_json as json;
pub use emd_obs as obs;
pub use emd_query as query;
pub use emd_reduction as reduction;
pub use emd_serve as serve;
