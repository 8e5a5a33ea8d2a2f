//! Query plans: a declarative description of one multistep execution.
//!
//! A [`QueryPlan`] is the engine's unit of configuration — the optional
//! stage-1 candidate source, the ordered lower-bounding filter chain
//! (e.g. `anchor -> Red-IM -> Red-EMD`) and the exact refinement
//! distance. Each stage bounds the EMD; the chain keeps the running max,
//! so the order of the stages is a matter of cost, not of soundness. The
//! [`Executor`](crate::Executor) consumes a plan and runs the KNOP
//! algorithm over it. A [`Query`] is the other half: what to ask (the
//! histogram and its [`QueryMode`]) and how hard to try (its [`Budget`]).

use crate::engine::source::CandidateSource;
use crate::engine::Database;
use crate::error::QueryError;
use crate::filters::{ChainState, EmdDistance, Filter};
use emd_core::{Budget, Histogram};
use emd_reduction::PersistedReduction;

/// Result-set mode of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMode {
    /// The `k` exact nearest neighbors.
    Knn(usize),
    /// All objects with exact distance `<= epsilon`.
    Range(f64),
}

/// One query: the histogram, its result-set mode and the execution
/// [`Budget`] it runs under; [`Executor::run`](crate::Executor::run)
/// answers one.
///
/// Cloning follows [`Budget`]'s contract: the clone shares the pivot pool
/// and the cancel token with the original, so a cap bounds both together.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query histogram.
    pub histogram: Histogram,
    /// k-NN or range mode.
    pub mode: QueryMode,
    /// Deadline, pivot cap and cancellation for this query; when it fires
    /// the answer is [`QueryOutcome::Degraded`](crate::QueryOutcome::Degraded).
    pub budget: Budget,
}

impl Query {
    /// A k-nearest-neighbor query under an unlimited budget.
    // lint: allow(unbudgeted): constructor; the budget is the field it fills in.
    pub fn knn(histogram: Histogram, k: usize) -> Self {
        Query {
            histogram,
            mode: QueryMode::Knn(k),
            budget: Budget::unlimited(),
        }
    }

    /// A range query under an unlimited budget.
    // lint: allow(unbudgeted): constructor; the budget is the field it fills in.
    pub fn range(histogram: Histogram, epsilon: f64) -> Self {
        Query {
            histogram,
            mode: QueryMode::Range(epsilon),
            budget: Budget::unlimited(),
        }
    }
}

/// A filter chain plus the exact refinement distance — the declarative
/// half of the engine. Build one, hand it to an
/// [`Executor`](crate::Executor).
///
/// **The one slack.** KNOP discards with one margin: the largest
/// [`Filter::slack`] of the stages and the refiner, the
/// [`distance_slack`](emd_core::distance_slack) of the costs they compute
/// under. A key may exceed the EMD by half of it (a metric test, as
/// [`CostMatrix::is_metric`](emd_core::CostMatrix::is_metric), admits
/// each entry at that half, and an entry off by `δ` moves no EMD by more
/// than `δ`) and a refined LP value may fall short of it by the other
/// half, so a candidate is discarded only when its key is above the
/// threshold by more than the slack: a near tie is refined, as a tie is.
/// A clustered source's cost, the closure of the reduced one, is
/// entrywise below the refiner's on fewer bins: its keys fit too.
pub struct QueryPlan {
    /// Optional stage-1 candidate source (an index); `None` means stage 1
    /// is every object at bound 0.
    source: Option<Box<dyn CandidateSource>>,
    stages: Vec<Box<dyn Filter>>,
    refiner: Box<dyn Filter>,
    /// The margin KNOP discards with (see "The one slack" above).
    pub(super) slack: f64,
}

impl std::fmt::Debug for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("source", &self.source.as_ref().map(|s| s.name()))
            .field("stages", &self.stage_names())
            .field("refiner", &self.refiner.name())
            .finish()
    }
}

impl QueryPlan {
    /// Assemble a plan. `stages` run in order, cheapest first; every
    /// stage must lower-bound `refiner` (unchecked — that is what makes
    /// it a filter, cf. Section 4 of the paper) and index the same
    /// database. Stages need not bound one another: a candidate is ranked
    /// by the largest bound computed for it so far.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] when `refiner` indexes no
    /// objects and [`QueryError::Reduction`] when a stage indexes a
    /// database of a different size than `refiner`.
    pub fn new(stages: Vec<Box<dyn Filter>>, refiner: Box<dyn Filter>) -> Result<Self, QueryError> {
        if refiner.is_empty() {
            return Err(QueryError::EmptyDatabase);
        }
        for stage in &stages {
            if stage.len() != refiner.len() {
                return Err(QueryError::Reduction(format!(
                    "stage {} indexes {} objects, refiner {}",
                    stage.name(),
                    stage.len(),
                    refiner.len()
                )));
            }
        }
        let slack = stages
            .iter()
            .map(|stage| stage.slack())
            .fold(refiner.slack(), f64::max);
        Ok(QueryPlan {
            source: None,
            stages,
            refiner,
            slack,
        })
    }

    /// The paper's Figure 10 plan over `database` and its reduced
    /// database `bundle` (Section 4's `R2·o`, reduced once) under a
    /// closed-form metric floor, `anchor -> red-im -> red-emd -> emd`,
    /// with the stages every index gets: an anchor scan, LB_IM over the
    /// bundle's arena, a reduced LP over that arena, the exact EMD for the
    /// rest. Over a cost that is not a metric there is no floor: Figure 10
    /// as printed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new) for an empty `database`, and
    /// [`QueryError::Reduction`] when `bundle` does not match `database`
    /// (another object count or original dimensionality).
    pub fn chain(database: &Database, bundle: &PersistedReduction) -> Result<Self, QueryError> {
        let (_, _, stages) = ChainState::persisted(database, bundle)?;
        Self::new(stages, Box::new(EmdDistance::new(database)?))
    }

    /// A plan with no filter stages: the sequential-scan baseline, KNOP
    /// over the zero bound (every object refined exactly once).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] when `refiner` indexes no
    /// objects.
    pub fn sequential(refiner: Box<dyn Filter>) -> Result<Self, QueryError> {
        Self::new(Vec::new(), refiner)
    }

    /// Attach a stage-1 [`CandidateSource`] (e.g. a
    /// [`ClusteredIndex`](crate::ClusteredIndex)): the executor pulls
    /// candidates from the source's stream instead of every object, and
    /// any `stages` of this plan are chained *on top* of the source in
    /// the usual Figure 12 way. The source's
    /// emitted bound must lower-bound the refiner — the same unchecked
    /// obligation every stage has.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Reduction`] when the source indexes a
    /// database of a different size than the refiner.
    pub fn with_source(mut self, source: Box<dyn CandidateSource>) -> Result<Self, QueryError> {
        if source.len() != self.refiner.len() {
            return Err(QueryError::Reduction(format!(
                "source {} indexes {} objects, refiner {}",
                source.name(),
                source.len(),
                self.refiner.len()
            )));
        }
        self.source = Some(source);
        Ok(self)
    }

    /// The attached stage-1 candidate source, if any.
    pub fn source(&self) -> Option<&dyn CandidateSource> {
        self.source.as_deref()
    }

    /// Names of the filter stages, in chain order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// The filter stages, in chain order.
    pub(crate) fn stages(&self) -> &[Box<dyn Filter>] {
        &self.stages
    }

    /// The exact refinement distance.
    pub(crate) fn refiner(&self) -> &dyn Filter {
        self.refiner.as_ref()
    }

    /// Number of database objects the plan indexes.
    pub fn len(&self) -> usize {
        self.refiner.len()
    }

    /// Whether the indexed database is empty (never true for a
    /// constructed plan).
    pub fn is_empty(&self) -> bool {
        self.refiner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_reduction::{CombiningReduction, ReducedEmd};
    use std::sync::Arc;

    fn database(objects: usize) -> Database {
        let histograms = (0..objects).map(|i| Histogram::unit(4, i % 4).unwrap());
        Database::new(histograms.collect(), Arc::new(ground::linear(4).unwrap())).unwrap()
    }

    #[test]
    fn chain_is_the_figure_10_plan() {
        let db = database(5);
        let reduction = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let reduced = ReducedEmd::new(db.cost(), reduction).unwrap();
        let bundle = PersistedReduction::precompute("", reduced, db.histograms()).unwrap();
        let plan = QueryPlan::chain(&db, &bundle).unwrap();
        assert_eq!(
            plan.stage_names(),
            ["anchor(a=2)", "red-im(d'=2/2)", "red-emd(d'=2/2)"]
        );
        assert_eq!((plan.refiner().name(), plan.len()), ("emd(d=4)", 5));
        // The refiner's cost is the largest: `(4 + 4) · 1e-12 · 3`.
        assert_eq!(plan.slack, emd_core::distance_slack(db.cost()));
        assert!(plan.source().is_none());
        // The stages must index the database the refiner does.
        assert!(matches!(
            QueryPlan::chain(&database(4), &bundle),
            Err(QueryError::Reduction(_))
        ));
    }
}
