//! Stage-1 candidate sources: pluggable generators of the first ranking.
//!
//! Without a source, a plan produces its stage-1 ranking by evaluating
//! the first filter against *all* `n` objects, sorting and popping — O(n)
//! filter evaluations per query (the executor's default scan).
//! A [`CandidateSource`] abstracts that first ranking behind a trait so a
//! [`QueryPlan`](super::QueryPlan) can swap the full scan for a metric
//! index (the cluster-pruned [`ClusteredIndex`](crate::ClusteredIndex),
//! which stacks [`QueryPlan::chain`](super::QueryPlan::chain)'s stages on
//! a cluster traversal) that emits candidates in ascending lower-bound
//! order while evaluating its stages for *only a subset* of the database.
//!
//! The contract mirrors [`Ranking`]: a prepared [`CandidateStream`]
//! yields `(id, lower bound)` pairs in ascending bound order, and every
//! emitted bound must lower-bound the exact distance — all a stage ever
//! has to do: each stage bounds the EMD, the chain keeps the running
//! max — so KNOP's correctness argument is untouched and the executor
//! simply stacks the usual [`ChainedRanking`](crate::ranking::ChainedRanking)s
//! on top. The stream probes the [`Budget`] it was prepared under: a
//! firing surfaces as [`QueryError::BudgetExhausted`] from
//! [`Ranking::next`] with whatever it interrupted left in place, and
//! [`Ranking::drain_computed`] surrenders the bounds already computed —
//! every object the stream knows a bound for, none dropped — so degraded
//! answers work exactly as they do for filter scans.

use crate::error::QueryError;
use crate::filters::PreparedFilter;
use crate::ranking::Ranking;
use emd_core::{Budget, Histogram};

/// A prepared, per-query stream of stage-1 candidates.
///
/// Extends [`Ranking`] (ascending emission, budget propagation, degraded
/// drains) with an evaluation counter so [`QueryStats`](crate::QueryStats)
/// can report how much lower-bound work the source performed — the
/// number an index must keep sublinear.
pub trait CandidateStream: Ranking {
    /// Lower-bound distances *solved* so far: LP solves, the unit a
    /// filter stage's evaluation count is in — the clustered source's are
    /// its Red-EMD stage's. Closed-form bounds computed to avoid a solve
    /// are not evaluations (LB_IM's show in `core.lb_im.evaluations`).
    fn evaluations(&self) -> usize;
}

/// Produces the stage-1 candidate ranking of a query plan.
///
/// Implementations hold everything precomputed per database (reduced
/// arenas, cluster geometry, tree nodes); [`prepare`](Self::prepare)
/// builds the cheap per-query state. `Send + Sync` so a plan can be
/// shared across the batch executor's threads.
///
/// # Examples
///
/// Streaming a source's ranking directly:
///
/// ```
/// use emd_core::{ground, Budget, Histogram};
/// use emd_query::{CandidateSource, ClusteredIndex, Database};
/// use emd_reduction::{CombiningReduction, ReducedEmd};
/// use std::sync::Arc;
///
/// let cost = Arc::new(ground::linear(4).unwrap());
/// let histograms = vec![
///     Histogram::unit(4, 0).unwrap(),
///     Histogram::unit(4, 3).unwrap(),
/// ];
/// let database = Database::new(histograms, cost.clone()).unwrap();
/// let reduction = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
/// let reduced = ReducedEmd::new(&cost, reduction).unwrap();
/// let source = ClusteredIndex::build(&database, reduced, 1.0).unwrap();
///
/// // Ascending lower bounds of the exact distances 0 and 3: the far
/// // object's reduced EMD is 1, its anchor bound (the chain is a metric)
/// // the full 3, and the stream emits the larger.
/// let query = Histogram::unit(4, 0).unwrap();
/// let mut stream = source.prepare(&query, &Budget::unlimited()).unwrap();
/// assert_eq!(stream.next().unwrap(), Some((0, 0.0)));
/// assert_eq!(stream.next().unwrap(), Some((1, 3.0)));
/// assert_eq!(stream.next().unwrap(), None);
/// assert!(stream.evaluations() >= 2);
/// ```
pub trait CandidateSource: Send + Sync {
    /// Source name for [`QueryStats`](crate::QueryStats) and obs counters.
    fn name(&self) -> &str;

    /// Number of database objects the source indexes.
    fn len(&self) -> usize;

    /// Whether the indexed database is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Build the per-query candidate stream under an execution budget.
    ///
    /// The stream must probe `budget` as it traverses and surface a
    /// firing as [`QueryError::BudgetExhausted`] from `next`, keeping the
    /// already-computed bounds available via `drain_computed`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the query's shape does not match the
    /// indexed database.
    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn CandidateStream + '_>, QueryError>;
}

/// The full scan of one prepared filter as a [`Ranking`] — stage 1 of
/// every plan without a [`CandidateSource`], and the exact ranking of a
/// zero-stage plan. Materializes lazily on the first pull, probing the
/// budget between evaluations, so bounds computed before a firing survive
/// into the degraded answer; then pops in ascending `(distance, id)`
/// order.
pub(crate) struct ScanStream<'a> {
    prepared: &'a mut dyn PreparedFilter,
    len: usize,
    budget: &'a Budget,
    /// Bounds evaluated so far (partial until materialization finishes).
    computed: Vec<(usize, f64)>,
    /// Sorted descending once complete, so `pop` yields ascending.
    sorted: Option<Vec<(usize, f64)>>,
}

impl<'a> ScanStream<'a> {
    /// Scan `prepared` over objects `0..len` under `budget`.
    pub(crate) fn new(
        prepared: &'a mut dyn PreparedFilter,
        len: usize,
        budget: &'a Budget,
    ) -> Self {
        ScanStream {
            prepared,
            len,
            budget,
            computed: Vec::new(),
            sorted: None,
        }
    }
}

impl Ranking for ScanStream<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        if self.sorted.is_none() {
            self.computed.reserve(self.len - self.computed.len());
            for id in self.computed.len()..self.len {
                self.budget.check().map_err(QueryError::BudgetExhausted)?;
                let distance = self.prepared.distance(id)?;
                self.computed.push((id, distance));
            }
            let mut computed = std::mem::take(&mut self.computed);
            computed.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
            self.sorted = Some(computed);
        }
        Ok(self.sorted.as_mut().and_then(Vec::pop))
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        let mut out = std::mem::take(&mut self.computed);
        if let Some(rest) = self.sorted.take() {
            out.extend(rest);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::filters::{EmdDistance, Filter};
    use emd_core::CostMatrix;

    fn database() -> Database {
        let histograms = vec![
            Histogram::new(vec![1.0, 0.0, 0.0]).unwrap(),
            Histogram::new(vec![0.0, 1.0, 0.0]).unwrap(),
            Histogram::new(vec![0.0, 0.0, 1.0]).unwrap(),
        ];
        let cost = CostMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs()).unwrap();
        Database::new(histograms, std::sync::Arc::new(cost)).unwrap()
    }

    #[test]
    fn filter_scan_source_emits_ascending_distance_then_id() {
        let database = database();
        let filter = EmdDistance::new(&database).unwrap();
        let query = Histogram::new(vec![0.0, 1.0, 0.0]).unwrap();
        let budget = Budget::unlimited();
        let mut prepared = filter.prepare(&query, &budget).unwrap();
        let mut stream = ScanStream::new(prepared.as_mut(), 3, &budget);
        assert_eq!(stream.next().unwrap(), Some((1, 0.0)));
        assert_eq!(stream.next().unwrap(), Some((0, 1.0)));
        assert_eq!(stream.next().unwrap(), Some((2, 1.0)));
        assert_eq!(stream.next().unwrap(), None);
        assert_eq!(prepared.evaluations(), 3);
    }

    #[test]
    fn exhausted_budget_surfaces_from_next_with_no_bounds() {
        let database = database();
        let filter = EmdDistance::new(&database).unwrap();
        let query = Histogram::new(vec![1.0, 0.0, 0.0]).unwrap();
        let budget = Budget::unlimited().with_pivot_cap(0);
        budget.settle_pivots(1);
        let mut prepared = filter.prepare(&query, &budget).unwrap();
        let mut stream = ScanStream::new(prepared.as_mut(), 3, &budget);
        assert!(matches!(stream.next(), Err(QueryError::BudgetExhausted(_))));
        assert!(stream.drain_computed().is_empty());
    }
}
