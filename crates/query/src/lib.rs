#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-query
//!
//! Multistep filter-and-refine query processing for EMD similarity search
//! (Section 4 of the paper), unified behind one query engine.
//!
//! ## Layers
//!
//! * [`engine`] — the execution core: [`Database`] (a shared immutable
//!   snapshot: one slice of histogram handles plus the cost matrix),
//!   [`QueryPlan`] (the declarative filter chain
//!   `Red-IM -> Red-EMD -> ... -> EMD`; [`QueryPlan::chain`] builds the
//!   shipped one from a database and its reduced database, a
//!   [`PersistedReduction`](emd_reduction::PersistedReduction)),
//!   [`Query`] (histogram, mode and
//!   [`Budget`]) and [`Executor`] (the single owner of query execution:
//!   [`run`](Executor::run), one query per call).
//! * [`Filter`] / [`PreparedFilter`] — filter stages over a database
//!   snapshot. A stage is a projection of the query plus one of two
//!   evaluators over a space: the LP (the exact EMD as the refinement
//!   distance; the paper's `Red-EMD`, which is the EMD over the reduced
//!   space) or a closed-form bound over projections (`Red-IM` = LB_IM
//!   over the reduced space, and the anchor floor under it).
//! * [`ranking`] — lazy ascending-distance rankings, including the
//!   ranking-over-ranking chaining of Figure 12.
//! * [`knop`] — the one refinement loop in the workspace, driven by two
//!   result-set policies: the optimal multistep k-NN algorithm (Figure
//!   11, after Seidl & Kriegel) and the corresponding complete range
//!   query.
//! * [`engine::source`] — stage 1 of a plan: every object at bound 0,
//!   or else a [`CandidateSource`] (the clustered index) that streams
//!   candidates in ascending lower-bound order under the same stages and
//!   into the same KNOP loop.
//! * [`cluster`] — [`ClusteredIndex`], a pivot-based cluster index over
//!   the reduced space with triangle-inequality pruning; the sublinear
//!   stage-1 candidate generator: a cluster traversal that solves no LP,
//!   under the stages [`QueryPlan::chain`] runs, built from the same
//!   reduced database by the same call.
//! * [`durable`] — the one on-disk index format and the one live index
//!   over it, [`DurableIndex`], with the segment and WAL formats as its
//!   private modules; every failure of a directory is one
//!   [`DurableError`]. Writes are WAL appends made durable by a sync, and
//!   its snapshots are plain [`Database`]s of shared immutable
//!   histograms under [`QueryPlan::chain`], the same
//!   `Red-IM -> Red-EMD -> EMD` plan through the same engine.
//! * [`scan`] — brute-force oracles, implemented as zero-stage plans.
//!
//! ## Observability
//!
//! The [`Executor`] is the integration point for the `emd-obs` metrics
//! layer: under an active recording scope every query is wrapped in a
//! `query.execute` span with nested spans per stage preparation
//! (`query.stage.<name>.prepare`) and around the KNOP loop
//! (`query.knop`), and the per-stage evaluation counts that feed
//! [`QueryStats`] are mirrored into registry counters
//! (`query.stage.<name>.evaluations`, `query.refinements`,
//! `query.results`). Recording never changes answers — results are bit-identical
//! with metrics on and off (property-tested in
//! `tests/metrics_observability.rs`).

pub mod cluster;
pub mod durable;
pub mod engine;
mod error;
pub mod filters;
pub mod knop;
pub mod outcome;
pub mod ranking;
pub mod scan;
mod stats;

pub use cluster::ClusteredIndex;
pub use durable::{CompactReport, DurableIndex, DurableSnapshot, OpenReport, StoredClustering};
pub use engine::{
    CandidateSource, CandidateStream, Database, Executor, OpenedIndex, Query, QueryMode, QueryPlan,
};
pub use error::{DurableError, QueryError};
pub use outcome::{Candidate, DegradedResult, QueryOutcome};
// Budget types (and the verdict of a refinement under a cutoff)
// re-exported so downstream users can build budgets without depending on
// emd-core directly.
pub use emd_core::{Bounded, Budget, BudgetReason, CancelToken};
pub use filters::{
    AnchorFilter, EmdDistance, Filter, PreparedFilter, ReducedEmdFilter, ReducedImFilter,
};
pub use stats::QueryStats;

/// A retrieval result: database object id plus its exact distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the object in the database.
    pub id: usize,
    /// Exact (refined) distance to the query.
    pub distance: f64,
}
