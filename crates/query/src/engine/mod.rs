//! The query engine: one snapshot, one plan, one executor.
//!
//! Section 4's multistep query processing is implemented once: static
//! plans, the live [`DurableIndex`](crate::DurableIndex) and the
//! brute-force [`scan`](crate::scan) oracles all share this execution
//! layer:
//!
//! * [`Database`] — an immutable snapshot: all histograms in one shared
//!   contiguous arena, paired with the ground-distance matrix. Filters
//!   hold cheap reference-counted views instead of private copies.
//! * [`QueryPlan`] — the declarative filter chain
//!   (`anchor -> Red-IM -> Red-EMD -> ... -> EMD`), optionally fronted by
//!   a stage-1 [`CandidateSource`]; a [`Query`] is the histogram, its
//!   mode and the [`Budget`](crate::Budget) it runs under.
//! * [`Executor`] — [`Executor::run`] prepares per-query state, chains the
//!   lazy rankings of Figure 12 on stage 1 (the source, or else every
//!   object at bound 0), and invokes the KNOP loop in
//!   [`knop`](crate::knop) exactly once per query.

mod database;
mod executor;
mod plan;
pub mod source;

pub use database::{Database, OpenedIndex};
pub use executor::Executor;
pub use plan::{Query, QueryMode, QueryPlan};
pub use source::{CandidateSource, CandidateStream};
