//! Stage 1 of a plan: the ranking every filter stage chains on.
//!
//! Without a source, stage 1 is every object at the bound known for
//! free, 0 (`EveryObject`): the first filter stage chained on it
//! evaluates all `n` objects, and a plan with no stage refines them all.
//! A [`CandidateSource`] replaces it with a metric index (the
//! cluster-pruned [`ClusteredIndex`](crate::ClusteredIndex), which
//! stacks [`QueryPlan::chain`](super::QueryPlan::chain)'s stages on a
//! cluster traversal) that emits candidates in ascending lower-bound
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
//! [`Ranking::drain_computed`] surrenders every object not yet emitted
//! at the tightest bound known for it. Stage 1 with or without a source,
//! emitted and drained name every object exactly once, so no plan loses
//! a candidate from a degraded answer.

use crate::error::QueryError;
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
/// shared across threads.
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
    /// firing as [`QueryError::BudgetExhausted`] from `next`, keeping
    /// every object it has not emitted available via `drain_computed`.
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

/// Every object at the bound known for free, 0 — stage 1 of a plan
/// without a [`CandidateSource`]. Its filter stages chain on top of it,
/// so a plan with none is KNOP over the zero bound: the sequential scan.
/// Probes the budget before each id; a firing leaves every id not yet
/// yielded to [`drain_computed`](Ranking::drain_computed), at 0.
pub(crate) struct EveryObject<'a> {
    ids: std::ops::Range<usize>,
    budget: &'a Budget,
}

impl<'a> EveryObject<'a> {
    /// Objects `0..len` under `budget`.
    pub(crate) fn new(len: usize, budget: &'a Budget) -> Self {
        EveryObject {
            ids: 0..len,
            budget,
        }
    }
}

impl Ranking for EveryObject<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        if !self.ids.is_empty() {
            self.budget.check().map_err(QueryError::BudgetExhausted)?;
        }
        Ok(self.ids.next().map(|id| (id, 0.0)))
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        std::mem::take(&mut self.ids).map(|id| (id, 0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::filters::{EmdDistance, Filter};
    use crate::ranking::ChainedRanking;
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
        let base = Box::new(EveryObject::new(3, &budget));
        let mut stream = ChainedRanking::new(base, Box::new(prepared.as_mut()));
        assert_eq!(stream.next().unwrap(), Some((1, 0.0)));
        assert_eq!(stream.next().unwrap(), Some((0, 1.0)));
        assert_eq!(stream.next().unwrap(), Some((2, 1.0)));
        assert_eq!(stream.next().unwrap(), None);
        drop(stream);
        assert_eq!(prepared.evaluations(), 3);
    }

    #[test]
    fn exhausted_budget_surfaces_from_next_and_drains_every_object_at_zero() {
        let database = database();
        let filter = EmdDistance::new(&database).unwrap();
        let query = Histogram::new(vec![1.0, 0.0, 0.0]).unwrap();
        let budget = Budget::unlimited().with_pivot_cap(0);
        budget.settle_pivots(1);
        let mut prepared = filter.prepare(&query, &budget).unwrap();
        let base = Box::new(EveryObject::new(3, &budget));
        let mut stream = ChainedRanking::new(base, Box::new(prepared.as_mut()));
        assert!(matches!(stream.next(), Err(QueryError::BudgetExhausted(_))));
        // No bound was computed, and every object is still surrendered.
        let mut drained = stream.drain_computed();
        drained.sort_by_key(|&(id, _)| id);
        assert_eq!(drained, [(0, 0.0), (1, 0.0), (2, 0.0)]);
        drop(stream);
        assert_eq!(prepared.evaluations(), 0);
    }
}
