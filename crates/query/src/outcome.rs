//! Query outcomes under execution budgets: exact answers or principled
//! degraded rankings.
//!
//! When a budget (deadline, pivot cap, cancellation) fires mid-query, the
//! engine does not panic and does not return a silently wrong "exact"
//! answer. It returns [`QueryOutcome::Degraded`]: the current candidate
//! ranking ordered by the *tightest lower bound computed so far*. Refined
//! candidates carry their exact distance (`exact: true`); unrefined ones
//! carry a filter lower bound (`exact: false`). By the completeness of the
//! paper's filters, every bound is `<=` the candidate's exact EMD, so the
//! degraded ranking is a principled approximation in exactly the sense the
//! reduced-EMD filters are.

use crate::error::QueryError;
use crate::Neighbor;
use emd_core::BudgetReason;

/// One entry of a degraded candidate ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Database object id.
    pub id: usize,
    /// The tightest distance information available when the budget fired:
    /// the exact EMD if the candidate was refined, otherwise a filter
    /// lower bound of it.
    pub bound: f64,
    /// Whether `bound` is the exact distance.
    pub exact: bool,
}

/// A degraded answer: the best-effort candidate ranking at the moment the
/// budget fired, sorted ascending by [`Candidate::bound`] (ties by id).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedResult {
    /// Candidate ranking ordered by tightest known bound.
    pub candidates: Vec<Candidate>,
    /// Which budget limit stopped the query.
    pub reason: BudgetReason,
}

/// The outcome of a query: exact neighbors, or a degraded ranking if its
/// budget fired first.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The budget never fired; results are exact.
    Exact(Vec<Neighbor>),
    /// The budget fired; see [`DegradedResult`].
    Degraded(DegradedResult),
}

impl QueryOutcome {
    /// The exact neighbors, or `None` if degraded.
    #[must_use]
    pub fn exact(&self) -> Option<&[Neighbor]> {
        match self {
            QueryOutcome::Exact(neighbors) => Some(neighbors),
            QueryOutcome::Degraded(_) => None,
        }
    }

    /// The degraded result, or `None` if exact.
    #[must_use]
    pub fn degraded(&self) -> Option<&DegradedResult> {
        match self {
            QueryOutcome::Exact(_) => None,
            QueryOutcome::Degraded(result) => Some(result),
        }
    }

    /// The exact neighbors, or [`QueryError::BudgetExhausted`] if degraded
    /// — what the `knn`/`range` conveniences return, so a truncated answer
    /// never passes for an exact one.
    pub(crate) fn into_exact(self) -> Result<Vec<Neighbor>, QueryError> {
        match self {
            QueryOutcome::Exact(neighbors) => Ok(neighbors),
            QueryOutcome::Degraded(result) => Err(QueryError::BudgetExhausted(result.reason)),
        }
    }

    /// Rewrite every object id (exact neighbors and degraded candidates
    /// alike) from the engine's dense id space into a snapshot's own.
    pub(crate) fn map_ids(
        mut self,
        to_own: impl Fn(usize) -> Option<usize>,
    ) -> Result<Self, QueryError> {
        let own = |id: &mut usize| -> Result<(), QueryError> {
            *id = to_own(*id).ok_or(QueryError::UnknownObject(*id))?;
            Ok(())
        };
        match &mut self {
            QueryOutcome::Exact(neighbors) => {
                neighbors.iter_mut().try_for_each(|n| own(&mut n.id))?;
            }
            QueryOutcome::Degraded(result) => {
                result
                    .candidates
                    .iter_mut()
                    .try_for_each(|c| own(&mut c.id))?;
            }
        }
        Ok(self)
    }
}

/// Sorts candidates ascending by bound (ties by id) — the canonical order
/// of every degraded ranking.
pub(crate) fn sort_candidates(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| a.bound.total_cmp(&b.bound).then(a.id.cmp(&b.id)));
}
