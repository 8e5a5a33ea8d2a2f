//! Ascending-distance rankings over filter distances.
//!
//! Multistep algorithms consume database objects in ascending order of a
//! lower-bounding filter distance. [`ChainedRanking`] implements the
//! ranking-over-ranking `getNext` of the paper's Figure 12, evaluating
//! its (more expensive) filter *only* for objects that survive the base
//! ranking's frontier. Every plan is a stack of them over stage 1 — the
//! plan's [`CandidateSource`](crate::CandidateSource), or else every
//! object at bound 0, under which the first stage evaluates each object
//! exactly once, as a sequential filter scan does. Each stage bounds the
//! EMD; the chain keeps the running max, so stages need not bound one
//! another. Filter errors propagate instead of panicking, so a failed
//! solver call surfaces as a [`QueryError`] from the executor.

use crate::error::QueryError;
use crate::filters::PreparedFilter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Yields `(object id, filter distance)` in ascending distance order.
pub trait Ranking {
    /// Next-best object, or `Ok(None)` when exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the underlying filter evaluation fails.
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError>;

    /// Drains every not-yet-emitted candidate whose filter bound is
    /// *already computed*, without any further filter evaluation.
    ///
    /// Used to build degraded answers when an execution budget fires: the
    /// returned `(id, bound)` pairs are valid lower bounds of the exact
    /// distance (every stage is one), obtained for free. A `next` that
    /// failed must not have lost the candidate it was working on: what it
    /// took it puts back, so that emitted and drained together name every
    /// object the ranking ever held exactly once. A stage-1 ranking holds
    /// every object from the start — one it has computed nothing for
    /// drains at 0, the bound known for free — so on every plan emitted
    /// and drained name the whole database. Order is unspecified; callers
    /// sort.
    fn drain_computed(&mut self) -> Vec<(usize, f64)>;
}

/// A borrowed ranking is one, so a caller can stack stages on a stream it
/// keeps (the executor reads a source's evaluation count afterwards).
impl<R: Ranking + ?Sized> Ranking for &mut R {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        (**self).next()
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        (**self).drain_computed()
    }
}

/// Total-ordered f64 wrapper for heap keys (distances are never NaN:
/// filters validate inputs at construction). Shared with the candidate
/// sources, whose traversal heaps need the same total order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Key(pub(crate) f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Figure 12: a ranking with respect to a further filter, computed lazily
/// on top of a base ranking.
///
/// Required for correctness: the base ranking's distances and this
/// ranking's filter both lower-bound the exact distance — nothing more.
/// A candidate is keyed by the **running max** of the two, the tightest
/// bound computed for it so far, so a key is a lower bound of the exact
/// distance and is never below the base bound it came in with: the
/// paper's chaining condition (each stage bounds the next) holds by
/// construction, whatever the two filters are to one another. Then an
/// object from the candidate heap may be emitted as soon as its key does
/// not exceed the base ranking's frontier: every unseen object's key is
/// at least its base distance, which is at least the frontier. Where the
/// filter already dominates the base (Red-IM under Red-EMD) the max is
/// the filter value and nothing changes.
pub struct ChainedRanking<'a> {
    base: Box<dyn Ranking + 'a>,
    filter: Box<dyn PreparedFilter + 'a>,
    /// Candidates pulled from the base, keyed by the larger of the base
    /// bound and this stage's filter value.
    heap: BinaryHeap<Reverse<(Key, usize)>>,
    /// Peeked-but-unconsumed base frontier.
    frontier: Option<(usize, f64)>,
    base_exhausted: bool,
}

impl<'a> ChainedRanking<'a> {
    /// Chain `filter` on top of `base`; pass `Box::new(&mut filter)` to
    /// keep the filter (and its evaluation count) after the chain is gone.
    pub fn new(base: Box<dyn Ranking + 'a>, filter: Box<dyn PreparedFilter + 'a>) -> Self {
        ChainedRanking {
            base,
            filter,
            heap: BinaryHeap::new(),
            frontier: None,
            base_exhausted: false,
        }
    }

    /// Evaluations of this stage's filter so far.
    pub(crate) fn evaluations(&self) -> usize {
        self.filter.evaluations()
    }

    fn advance_base(&mut self) -> Result<(), QueryError> {
        debug_assert!(self.frontier.is_none());
        match self.base.next()? {
            Some(item) => self.frontier = Some(item),
            None => self.base_exhausted = true,
        }
        Ok(())
    }
}

impl Ranking for ChainedRanking<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        loop {
            if self.frontier.is_none() && !self.base_exhausted {
                self.advance_base()?;
            }
            let emit_top = match (self.heap.peek(), self.frontier) {
                // Heap top is safe to emit: no unseen object can beat it.
                (Some(&Reverse((Key(top), _))), Some((_, base_distance))) => top <= base_distance,
                // Base exhausted: drain the heap.
                (Some(_), None) => true,
                (None, None) => return Ok(None),
                (None, Some(_)) => false,
            };
            if emit_top {
                if let Some(Reverse((Key(distance), id))) = self.heap.pop() {
                    return Ok(Some((id, distance)));
                }
                continue;
            }
            // Frontier might still produce something smaller: evaluate the
            // tight filter, then consume it, and keep pulling. A failed
            // evaluation (a budget firing) leaves the frontier in place —
            // it carries the smallest base bound of everything not yet
            // emitted, and `drain_computed` must still surrender it.
            if let Some((id, base_distance)) = self.frontier {
                let tight = self.filter.distance(id)?.max(base_distance);
                self.frontier = None;
                self.heap.push(Reverse((Key(tight), id)));
            }
        }
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        // Heap entries carry the running max up to this stage; the peeked
        // frontier and the base's leftovers carry base-stage bounds. All
        // are lower bounds of the exact distance.
        let mut out: Vec<(usize, f64)> = self
            .heap
            .drain()
            .map(|Reverse((Key(distance), id))| (id, distance))
            .collect();
        if let Some(item) = self.frontier.take() {
            out.push(item);
        }
        out.extend(self.base.drain_computed());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::source::EveryObject;
    use emd_core::{Budget, BudgetReason};

    /// Test filter backed by a fixed distance table, whose budget "fires"
    /// from the `fail_from`-th evaluation on.
    struct PreparedTable<'a> {
        table: &'a [f64],
        /// The ids evaluated so far, in order.
        evaluated: Vec<usize>,
        fail_from: usize,
    }

    fn prepared(table: &[f64]) -> PreparedTable<'_> {
        PreparedTable {
            table,
            evaluated: Vec::new(),
            fail_from: usize::MAX,
        }
    }

    impl PreparedFilter for PreparedTable<'_> {
        fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
            if self.evaluated.len() >= self.fail_from {
                return Err(QueryError::BudgetExhausted(BudgetReason::PivotCap));
            }
            let distance = self.table.get(id).copied();
            let distance = distance.ok_or(QueryError::UnknownObject(id))?;
            self.evaluated.push(id);
            Ok(distance)
        }
        fn evaluations(&self) -> usize {
            self.evaluated.len()
        }
    }

    /// A filter's scan: the filter chained on every object at bound 0.
    fn scan<'a>(
        filter: &'a mut PreparedTable<'_>,
        len: usize,
        budget: &'a Budget,
    ) -> ChainedRanking<'a> {
        ChainedRanking::new(Box::new(EveryObject::new(len, budget)), Box::new(filter))
    }

    fn drain(ranking: &mut dyn Ranking) -> Vec<(usize, f64)> {
        let mut order = Vec::new();
        while let Some(item) = ranking.next().unwrap() {
            order.push(item);
        }
        order
    }

    #[test]
    fn eager_ranking_ascending() {
        let budget = Budget::unlimited();
        let mut filter = prepared(&[3.0, 1.0, 2.0, 0.5]);
        let mut ranking = scan(&mut filter, 4, &budget);
        assert_eq!(
            drain(&mut ranking),
            vec![(3, 0.5), (1, 1.0), (2, 2.0), (0, 3.0)]
        );
        drop(ranking);
        assert_eq!(filter.evaluations(), 4);
    }

    #[test]
    fn eager_ranking_propagates_filter_errors() {
        let budget = Budget::unlimited();
        let mut filter = prepared(&[1.0]);
        // Asking for more objects than the table holds fails on the first
        // pull, before anything is emitted.
        let mut ranking = scan(&mut filter, 2, &budget);
        assert!(matches!(ranking.next(), Err(QueryError::UnknownObject(1))));
    }

    #[test]
    fn chained_ranking_matches_direct_ranking() {
        // Base (loose) distances lower-bound tight distances.
        let budget = Budget::unlimited();
        let mut loose = prepared(&[1.0, 0.5, 2.0, 0.0, 1.5]);
        let mut tight = prepared(&[1.5, 2.5, 2.0, 0.5, 3.0]);
        let base = Box::new(scan(&mut loose, 5, &budget));
        let mut chained = ChainedRanking::new(base, Box::new(&mut tight));
        assert_eq!(
            drain(&mut chained),
            vec![(3, 0.5), (0, 1.5), (2, 2.0), (1, 2.5), (4, 3.0)]
        );
    }

    #[test]
    fn incomparable_stages_rank_by_the_running_max() {
        // Neither table bounds the other; both bound `exact`. The chain
        // emits every object at the larger of its two bounds, ascending.
        let budget = Budget::unlimited();
        let exact = [2.0, 3.0, 2.5, 1.0, 4.0];
        let first = [1.9, 0.5, 2.4, 0.2, 1.0];
        let second = [0.3, 2.8, 1.0, 0.9, 3.5];
        let mut base_filter = prepared(&first);
        let mut filter = prepared(&second);
        let base = Box::new(scan(&mut base_filter, 5, &budget));
        let mut chained = ChainedRanking::new(base, Box::new(&mut filter));
        let order = drain(&mut chained);
        assert_eq!(
            order,
            vec![(3, 0.9), (0, 1.9), (2, 2.4), (1, 2.8), (4, 3.5)]
        );
        assert!(order.iter().all(|&(id, key)| key <= exact[id]));
    }

    #[test]
    fn chained_ranking_evaluates_lazily() {
        // The first result should not require evaluating every object's
        // tight distance: object 3 has loose 0.0 / tight 0.9, and the next
        // loose frontier (1.0) stops the pull at tight <= frontier.
        let budget = Budget::unlimited();
        let mut loose = prepared(&[1.0, 5.0, 6.0, 0.0, 7.0]);
        let mut tight = prepared(&[1.5, 5.5, 6.5, 0.9, 7.5]);
        let base = Box::new(scan(&mut loose, 5, &budget));
        let mut chained = ChainedRanking::new(base, Box::new(&mut tight));
        assert_eq!(chained.next().unwrap(), Some((3, 0.9)));
        drop(chained);
        assert!(
            tight.evaluations() <= 2,
            "expected lazy evaluation, got {}",
            tight.evaluations()
        );
    }

    #[test]
    fn a_failed_evaluation_loses_no_candidate() {
        // Wherever either filter's budget fires, the candidate it was
        // evaluating stays: emitted and drained together name every object
        // once — at its tight key if that was computed, else at its loose
        // bound, and at the free bound 0 only if not even that was.
        let budget = Budget::unlimited();
        let loose = [1.0, 0.5, 2.0, 0.0, 1.5];
        let tight = [1.5, 2.5, 2.0, 0.5, 3.0];
        for (stage, fail_from) in (0..2).flat_map(|stage| (0..=5).map(move |j| (stage, j))) {
            let mut base_filter = prepared(&loose);
            let mut filter = prepared(&tight);
            if stage == 0 {
                base_filter.fail_from = fail_from;
            } else {
                filter.fail_from = fail_from;
            }
            let base = Box::new(scan(&mut base_filter, 5, &budget));
            let mut chained = ChainedRanking::new(base, Box::new(&mut filter));
            let mut seen = Vec::new();
            let fired = loop {
                match chained.next() {
                    Ok(Some(item)) => seen.push(item),
                    Ok(None) => break false,
                    Err(QueryError::BudgetExhausted(_)) => break true,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            };
            let case = format!("stage {stage} fail_from {fail_from}");
            assert_eq!(fired, fail_from < tight.len(), "{case}");
            seen.extend(chained.drain_computed());
            drop(chained);
            seen.sort_by_key(|&(id, _)| id);
            let ids: Vec<usize> = seen.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "{case}");
            for (id, bound) in seen {
                let unbounded = bound == 0.0 && !base_filter.evaluated.contains(&id);
                assert!(
                    bound == tight[id] || bound == loose[id] || unbounded,
                    "{case}: object {id} at {bound}"
                );
            }
        }
    }

    #[test]
    fn chained_ranking_handles_empty_base() {
        let budget = Budget::unlimited();
        let mut loose = prepared(&[]);
        let mut tight = prepared(&[]);
        let base = Box::new(scan(&mut loose, 0, &budget));
        let mut chained = ChainedRanking::new(base, Box::new(&mut tight));
        assert_eq!(chained.next().unwrap(), None);
        assert_eq!(chained.next().unwrap(), None);
        assert!(chained.drain_computed().is_empty());
    }

    #[test]
    fn ties_are_deterministic() {
        let budget = Budget::unlimited();
        let mut filter = prepared(&[1.0, 1.0, 1.0]);
        let mut ranking = scan(&mut filter, 3, &budget);
        let ids: Vec<_> = drain(&mut ranking).into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
